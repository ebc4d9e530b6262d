"""Sparse multivariate polynomials with exact rational coefficients.

Representation: a polynomial in ``nvars`` variables is a dict ``nums`` from
exponent tuples (length ``nvars``, non-negative ints) to nonzero ints, over
one positive int denominator ``den``: the coefficient of x^e is
nums[e] / den. The pair stays reduced, gcd(den, *nums) = 1, and the zero
polynomial is the empty dict over den = 1, so equal polynomials have equal
``nums`` and ``den``. Sums and products run on ints; ``terms`` gives the
coefficients as Fractions for the callers that print or inspect them. All
operations are exact; no floating point enters until a caller explicitly
evaluates.

Instances are treated as immutable: every operation returns a new ``Poly``.

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


def linear_combination(nvars: int, pairs) -> "Poly":
    """sum c p over the (c, p) pairs, each c an int or a Fraction.

    Every c p is put over the lcm D of the products c.denominator p.den, so
    the sum runs on ints: the numerators of p are scaled by
    c.numerator D / (c.denominator p.den) and added. Cancelled terms go, and
    ``Poly.wrap`` reduces the result. A lone term 1 p gives p itself.
    """
    live = [(c, p) for c, p in pairs if c and p.nums]
    if not live:
        return Poly.wrap(nvars, {})
    if len(live) == 1 and live[0][0] == 1:
        return live[0][1]
    # an int c has numerator c and denominator 1
    den = lcm(*(c.denominator * p.den for c, p in live))
    acc: dict = {}
    get = acc.get
    for c, p in live:
        m = c.numerator * (den // (c.denominator * p.den))
        for e, v in p.nums.items():
            acc[e] = get(e, 0) + m * v
    if len(live) > 1:  # a lone term cannot cancel
        acc = {e: v for e, v in acc.items() if v}
    return Poly.wrap(nvars, acc, den)


class Poly:
    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp} for {nvars} variables")
                clean[tuple(exp)] = c
        # over the lcm of reduced denominators, the numerators share no factor with it
        self.den = lcm(*(c.denominator for c in clean.values()))
        self.nums = {e: c.numerator * (self.den // c.denominator) for e, c in clean.items()}

    @classmethod
    def wrap(cls, nvars: int, nums: dict, den: int = 1) -> "Poly":
        """A Poly owning ``nums`` (valid exponents to nonzero ints) over the
        positive int ``den``, both divided by their gcd."""
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: v // g for e, v in nums.items()}
            den //= g
        out = cls.__new__(cls)
        out.nvars, out.nums, out.den = nvars, nums, den
        return out

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh dict {exponent: Fraction}."""
        den = self.den
        return {e: Fraction(v, den) for e, v in self.nums.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls.wrap(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.wrap(nvars, {exp: 1})

    # -- ring operations ---------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check_ring(other)
        return linear_combination(self.nvars, ((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return Poly.wrap(self.nvars, {e: -v for e, v in self.nums.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check_ring(other)
        return linear_combination(self.nvars, ((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return Poly.wrap(self.nvars, {e: num * v for e, v in self.nums.items()} if num else {},
                             self.den * other.denominator)
        self._check_ring(other)
        acc: dict = {}
        get = acc.get
        for e1, v1 in self.nums.items():
            for e2, v2 in other.nums.items():
                e = tuple(map(operator.add, e1, e2))
                acc[e] = get(e, 0) + v1 * v2
        return Poly.wrap(self.nvars, {e: v for e, v in acc.items() if v}, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1 / _as_fraction(c))

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.den == other.den and self.nums == other.nums)

    def __bool__(self):
        return bool(self.nums)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        if not self.nums:
            return "0"
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in enumerate(exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def scale(self, c) -> "Poly":
        return self * _as_fraction(c)

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
        total = linear_combination(nv_out, products)
        return Poly.wrap(nv_out, total.nums, total.den * self.den)

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
