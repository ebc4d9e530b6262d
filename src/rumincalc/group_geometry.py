"""Heisenberg group H^n in exponential coordinates.

A point is p = (x, y, t) with x, y in R^n and t in R. The group law is

    p * p' = (x + x', y + y', t + t' + (1/2) sum_j (x_j y'_j - y_j x'_j)),

the identity is 0 and the inverse is -p. Anisotropic dilations scale the
horizontal layer linearly and the center quadratically. The gauge is
rho(p) = (|(x, y)|^4 + t^2)^(1/4) and d(p, q) = rho(p^{-1} * q).

This module is the one definition of the group law, the dilations and the
gauge. Coordinates are duck-typed, so the same functions serve every layer:
Fraction points for the exact checks, ``Poly`` points (coordinates as
polynomials) for the maps that forms are pulled back along, and float or
numpy-array points for the grids and the kernels. Int coordinates become
Fractions, so exact points stay exact. The group law halves its twist with
``/ 2`` rather than a Fraction factor: a Fraction times an ndarray is an
object array, while ``/ 2`` keeps each scalar type, and halving is exact in
binary floating point. The gauge itself needs a fourth root, so the
functions here work with its fourth power ``gauge4``, which stays exact on
exact input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _exact(v):
    return Fraction(v) if isinstance(v, int) else v


@dataclass(frozen=True)
class Point:
    x: tuple
    y: tuple
    t: object

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        object.__setattr__(self, "x", tuple(map(_exact, self.x)))
        object.__setattr__(self, "y", tuple(map(_exact, self.y)))
        object.__setattr__(self, "t", _exact(self.t))

    @property
    def n(self) -> int:
        return len(self.x)

    def coords(self) -> tuple:
        return self.x + self.y + (self.t,)


def identity(n: int) -> Point:
    return Point((0,) * n, (0,) * n, 0)


def from_coords(coords) -> Point:
    if len(coords) % 2 != 1:
        raise ValueError("need 2n+1 coordinates")
    n = len(coords) // 2
    return Point(tuple(coords[:n]), tuple(coords[n : 2 * n]), coords[2 * n])


def multiply(p: Point, q: Point) -> Point:
    if p.n != q.n:
        raise ValueError("points on different groups")
    twist = sum(p.x[j] * q.y[j] - p.y[j] * q.x[j] for j in range(p.n))
    return Point(
        tuple(a + b for a, b in zip(p.x, q.x)),
        tuple(a + b for a, b in zip(p.y, q.y)),
        p.t + q.t + twist / 2,
    )


def inverse(p: Point) -> Point:
    return Point(tuple(-a for a in p.x), tuple(-a for a in p.y), -p.t)


def dilate(lam, p: Point) -> Point:
    return Point(
        tuple(lam * a for a in p.x),
        tuple(lam * a for a in p.y),
        (lam * lam) * p.t,
    )


def homogeneous_dimension(n: int) -> int:
    return 2 * n + 2


def horizontal_norm2(p: Point):
    """|z|^2, the 2n horizontal squares summed in one pass over p.x + p.y."""
    return sum(a * a for a in p.x + p.y)


def _spans(a, b) -> bool:
    """Whether ``a`` is a float ndarray of the full shape of ``a + b``, so
    that ``a += b`` writes into ``a`` with the value of ``a + b``."""
    shape = getattr(a, "shape", ())
    if not shape or a.dtype != float:
        return False
    other = getattr(b, "shape", ())
    return len(other) <= len(shape) and all(
        m in (1, k) for k, m in zip(reversed(shape), reversed(other))
    )


def gauge4(p: Point, t_weight=1):
    """rho^4 = |z|^4 + t_weight t^2; exact on exact input.

    Only ``kernels.folland_remainder`` weighs t, on ``Poly`` points with int
    weights. A t_weight of 1 costs no multiply, since (1 t) t = t t. Both
    terms are fresh values, so on float arrays the sum is written into
    whichever of them already has its full shape; no caller array is
    written to.
    """
    h2 = horizontal_norm2(p)
    h4 = h2 * h2
    t2 = p.t * p.t if t_weight == 1 else t_weight * p.t * p.t
    if _spans(h4, t2):
        h4 += t2
        return h4
    if _spans(t2, h4):
        t2 += h4  # a + b == b + a in floating point
        return t2
    return h4 + t2
