"""Sparse multivariate polynomials with exact rational coefficients.

Representation: a polynomial in ``nvars`` variables is a dict mapping exponent
tuples (length ``nvars``, non-negative ints) to nonzero ``Fraction``
coefficients. The zero polynomial is the empty dict. All operations are exact;
no floating point enters until a caller explicitly evaluates.

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


class Poly:
    __slots__ = ("nvars", "terms")

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
        self.terms = clean

    @classmethod
    def wrap(cls, nvars: int, terms: dict) -> "Poly":
        """A Poly owning ``terms`` as is: valid exponents, no zero coefficient."""
        out = cls.__new__(cls)
        out.nvars, out.terms = nvars, terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check_ring(other)
        return Poly.wrap(self.nvars, add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly.wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return Poly.zero(self.nvars)
            return Poly.wrap(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check_ring(other)
        return Poly.wrap(self.nvars, add_terms({}, (
            (tuple(map(operator.add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )))

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
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
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
            exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c * exp[i]
            for exp, c in self.terms.items() if exp[i]
        })

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

        total = Poly.zero(nv_out)
        for exp, c in self.terms.items():
            term = Poly.const(nv_out, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def evaluate_float(self, axes: Sequence):
        """Values on the tensor grid axes[0] x ... x axes[nvars - 1], in floats.

        Each entry of ``axes`` is a 1-D array of coordinates for its
        variable, and the result has shape ``(len(axes[0]), ...,
        len(axes[-1]))`` whichever variables the polynomial uses; the zero
        polynomial gives zeros of that shape. A scalar entry is one fixed
        coordinate and adds no dimension, so scalars alone give a 0-d array.

        The coefficient tensor C[e_0, ..., e_{nvars-1}] is contracted with
        one Vandermonde matrix x ** (0..d) per axis in turn, so only the
        last contraction reaches the full grid.
        """
        import numpy as np  # only the float layer needs numpy

        degrees = [max((e[i] for e in self.terms), default=0) for i in range(self.nvars)]
        C = np.zeros([d + 1 for d in degrees])
        for exp, c in self.terms.items():
            C[exp] = float(c)
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
