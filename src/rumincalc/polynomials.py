"""Exact sparse coefficient maps: polynomials, and the store operators share.

Storage: a ``SparseRational`` maps exponent tuples (non-negative ints, of a
length its ring fixes) to rational coefficients. It keeps them as a dict
``nums`` from exponents to nonzero ints over one positive int denominator
``den``: the coefficient of e is nums[e] / den. The pair stays reduced,
gcd(den, *nums) = 1, and zero is the empty dict over den = 1, so equal maps
have equal ``nums`` and ``den``. ``terms`` gives the coefficients as
Fractions for the callers that print or inspect them.

Kernel: sums, differences and multiples are one ``linear_combination``,
which puts its terms over the lcm of their denominators and adds the
numerators as ints. The base class holds this linear half; ``Poly``, a
polynomial in ``nvars`` variables, adds the commutative product, powers,
partials, composition and float evaluation, and ``envelope.EnvOp`` adds the
PBW product of operators. Two kinds never mix: a sum, difference or product
of a ``Poly`` and an ``EnvOp`` raises ``TypeError``, and they compare
unequal. All operations are exact; no floating point enters until a caller
explicitly evaluates.

Instances are treated as immutable: every operation returns a new one.

Example:
    >>> x, y = Poly.var(2, 0), Poly.var(2, 1)
    >>> p = (x + y) * (x - y)
    >>> p == x * x - y * y
    True
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction coefficient, got {type(c).__name__}")


def add_terms(terms: dict, pairs) -> dict:
    """Sum (exponent, coefficient) pairs into ``terms`` in place; cancelled entries go."""
    for exp, c in pairs:
        s = terms.get(exp)
        if s is None:
            terms[exp] = c
        else:
            s += c
            if s:
                terms[exp] = s
            else:
                del terms[exp]
    return terms


class SparseRational:
    """Rational coefficients on exponent tuples, as reduced int numerators
    ``nums`` over one denominator ``den``; ``ring`` fixes the exponent length
    through ``width``. Subclasses add their product."""

    __slots__ = ("ring", "nums", "den")

    @staticmethod
    def width(ring: int) -> int:
        """The exponent length in the given ring."""
        return ring

    def __init__(self, ring: int, terms: Mapping[tuple, object] | None = None):
        width = self.width(ring)
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                if len(exp) != width or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp} for {width} variables")
                clean[tuple(exp)] = c
        self.ring = ring
        # over the lcm of reduced denominators, the numerators share no factor with it
        self.den = lcm(*(c.denominator for c in clean.values()))
        self.nums = {e: c.numerator * (self.den // c.denominator) for e, c in clean.items()}

    @classmethod
    def wrap(cls, ring: int, nums: dict, den: int = 1):
        """An instance owning ``nums`` (valid exponents to nonzero ints) over
        the positive int ``den``, both divided by their gcd."""
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: v // g for e, v in nums.items()}
            den //= g
        out = cls.__new__(cls)
        out.ring, out.nums, out.den = ring, nums, den
        return out

    @classmethod
    def linear_combination(cls, ring: int, pairs, den: int = 1):
        """(sum c p over the (c, p) pairs) / den, each c an int or a Fraction.

        Every c p is put over the lcm D of the products c.denominator p.den, so
        the sum runs on ints: the numerators of p are scaled by
        c.numerator D / (c.denominator p.den) and added over D den. Cancelled
        terms go, and ``wrap`` reduces the result once. A lone term 1 p over
        den = 1 gives p itself.
        """
        live = [(c, p) for c, p in pairs if c and p.nums]
        if not live:
            return cls.zero(ring)
        if len(live) == 1 and live[0][0] == 1 and den == 1:
            return live[0][1]
        # an int c has numerator c and denominator 1
        common = lcm(*(c.denominator * p.den for c, p in live))
        acc: dict = {}
        get = acc.get
        for c, p in live:
            m = c.numerator * (common // (c.denominator * p.den))
            for e, v in p.nums.items():
                acc[e] = get(e, 0) + m * v
        if len(live) > 1:  # a lone term cannot cancel
            acc = {e: v for e, v in acc.items() if v}
        return cls.wrap(ring, acc, common * den)

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh dict {exponent: Fraction}."""
        den = self.den
        return {e: Fraction(v, den) for e, v in self.nums.items()}

    @classmethod
    def zero(cls, ring: int):
        return cls.wrap(ring, {})

    @classmethod
    def const(cls, ring: int, c):
        """c times the unit, the exponent of zeros."""
        return cls(ring, {(0,) * cls.width(ring): c})

    # -- linear operations -------------------------------------------------

    def _operand(self, other):
        """other as an operand of a sum: a number is a constant of this ring."""
        if isinstance(other, (int, Fraction)):
            return self.const(self.ring, other)
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ring != other.ring:
            raise ValueError(f"{type(self).__name__}s over different rings")
        return other

    def __add__(self, other):
        return self.linear_combination(self.ring, ((1, self), (1, self._operand(other))))

    __radd__ = __add__

    def __neg__(self):
        return self.linear_combination(self.ring, ((-1, self),))

    def __sub__(self, other):
        return self.linear_combination(self.ring, ((1, self), (-1, self._operand(other))))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """c times self, for an int or a Fraction c."""
        if not isinstance(c, int):
            c = _as_fraction(c)
        return self.linear_combination(self.ring, ((c, self),))

    def __truediv__(self, c):
        return self.scale(1 / _as_fraction(c))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(self.ring, other)
        elif type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.nums == other.nums

    def __bool__(self):
        return bool(self.nums)

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.nums.items())))


class Poly(SparseRational):
    """A polynomial in ``nvars`` variables, the ring of its exponents."""

    __slots__ = ()
    nvars = SparseRational.ring  # the ring slot, read as the variable count

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.wrap(nvars, {exp: 1})

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._operand(other)
        acc: dict = {}
        get = acc.get
        for e1, v1 in self.nums.items():
            for e2, v2 in other.nums.items():
                e = tuple(map(operator.add, e1, e2))
                acc[e] = get(e, 0) + v1 * v2
        return Poly.wrap(self.nvars, {e: v for e, v in acc.items() if v}, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __repr__(self):
        if not self.nums:
            return "0"
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in enumerate(exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- calculus and structure --------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Partial derivative with respect to variable ``i``."""
        # distinct monomials stay distinct, so nothing merges or cancels
        return Poly.wrap(self.nvars, {
            exp[:i] + (exp[i] - 1,) + exp[i + 1:]: v * exp[i]
            for exp, v in self.nums.items() if exp[i]
        }, self.den)

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute images[i] for variable i. Images share one target ring."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv_out = images[0].nvars
        # Cache powers of each image as they come up; degrees stay small here.
        pow_cache: dict = {}

        def power(i: int, k: int) -> Poly:
            key = (i, k)
            if key not in pow_cache:
                pow_cache[key] = images[i] ** k
            return pow_cache[key]

        one = Poly.wrap(nv_out, {(0,) * nv_out: 1})
        products = []
        for exp, v in self.nums.items():
            term = one
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            products.append((v, term))
        return Poly.linear_combination(nv_out, products, self.den)

    def evaluate_float(self, axes: Sequence):
        """Values on the tensor grid axes[0] x ... x axes[nvars - 1], in floats.

        Each entry of ``axes`` is a 1-D array of coordinates for its
        variable, and the result has shape ``(len(axes[0]), ...,
        len(axes[-1]))`` whichever variables the polynomial uses; the zero
        polynomial gives zeros of that shape. A scalar entry is one fixed
        coordinate and adds no dimension, so scalars alone give a 0-d array.

        The coefficient tensor C[e_0, ..., e_{nvars-1}] is contracted with
        one Vandermonde matrix x ** (0..d) per axis in turn, so only the
        last contraction reaches the full grid. Each entry of C is
        nums[e] / den, the correctly rounded float of the coefficient.
        """
        import numpy as np  # only the float layer needs numpy

        degrees = [max((e[i] for e in self.nums), default=0) for i in range(self.nvars)]
        C = np.zeros([d + 1 for d in degrees])
        den = self.den
        for exp, v in self.nums.items():
            C[exp] = v / den
        for x, d in zip(axes, degrees):
            V = np.asarray(x, dtype=float)[..., None] ** np.arange(d + 1)
            C = np.tensordot(C, V, axes=([0], [-1]))
        return C


linear_combination = Poly.linear_combination


def random_fraction(rng: random.Random) -> Fraction:
    """A small rational: numerator in -6..6, denominator in 1..3."""
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))


def random_poly(rng: random.Random, nvars: int, degree: int, terms: int = 4) -> Poly:
    """Up to ``terms`` random monomials of total degree at most ``degree``."""
    out: dict = {}
    for _ in range(terms):
        exp = [0] * nvars
        for _ in range(rng.randrange(degree + 1)):
            exp[rng.randrange(nvars)] += 1
        key = tuple(exp)
        out[key] = out.get(key, Fraction(0)) + random_fraction(rng)
    return Poly(nvars, {k: v for k, v in out.items() if v})
