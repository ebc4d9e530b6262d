"""Exterior algebra of the left-invariant coframe on H^n, graded by weight.

The coframe is omega_1..omega_2n (duals of X_1..X_n, Y_1..Y_n, weight 1) and
theta (dual of T, weight 2). A covector is stored as a dict from bitmasks over
the 2n+1 indices to Fraction coefficients; the monomial covectors are declared
orthonormal, which fixes the inner product on every degree.

The differential of the coframe is computed from the structure equations
d omega(U, V) = -omega([U, V]) on frame fields, not hardcoded; with the group
conventions here this yields d theta = -sum_j omega_j ^ omega_{j+n}. The
Lefschetz operator L = d theta ^ . is read off ``d_table`` as
d0(theta ^ .) on horizontal covectors, where d0 vanishes; this L is
-sum_j omega_j ^ omega_{j+n} ^ ., a sign that no rank sees.

``d_table`` is the one definition of d used by every layer: per coframe
monomial it holds the image under d0 and the frame-field steps
f omega_I -> (W_i f) omega_i ^ omega_I. Forms, the weight split and the
operator matrices of ``rumin_complex`` all read it.

The core E0 and d0^{-1} are built block by block, and the blocks are exact.
d0 vanishes on horizontal monomials and sends theta ^ beta to L beta, and L
only turns an index j carrying neither omega_j nor omega_{j+n} into one
carrying both. So d0 keeps a monomial's *singleton pattern*: which indices
carry exactly one of the pair, and which one. Monomials with and without
theta share a pattern. Lambda^h splits into orthogonal blocks by pattern, of
at most 3, 6 and 10 monomials at n = 3, 4 and 5, and d0, E0 and the
orthogonal complements V = (im d0)^⟂ and W = (ker d0)^⟂ split with it. With
both complements orthogonal, d0^{-1} (zero on V, the inverse of d0
restricted to W) is the Moore-Penrose inverse of d0, which needs d0 alone,
one block at a time; V and W are never built. The nullspaces and
Gram-Schmidt of E0 run inside each block; rref never mixes blocks and
Gram-Schmidt across them subtracts nothing. Sorting the vectors on the
global index of their free column (their last nonzero entry) gives the basis
and squared norms, equal and in the same order, that the same steps give on
all of Lambda^h at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from . import linalg
from .envelope import EnvOp


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending masks."""
    sign = 1
    bb = b
    while bb:
        low = bb & -bb
        i = low.bit_length() - 1
        if (a >> (i + 1)).bit_count() % 2:
            sign = -sign
        bb ^= low
    return sign


class Covector:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, object] | None = None):
        self.n = n
        clean = {}
        if terms:
            limit = 1 << (2 * n + 1)
            for mask, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if not 0 <= mask < limit:
                    raise ValueError(f"mask {mask} out of range")
                clean[mask] = c
        self.terms = clean

    def __add__(self, other: "Covector") -> "Covector":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        out = Covector.__new__(Covector)
        out.n, out.terms = self.n, terms
        return out

    def __neg__(self) -> "Covector":
        out = Covector.__new__(Covector)
        out.n = self.n
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "Covector") -> "Covector":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Covector) and self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = (
            [f"w{i+1}" for i in range(2 * self.n)] + ["theta"]
        )
        bits = []
        for mask, c in sorted(self.terms.items()):
            factors = [names[i] for i in range(2 * self.n + 1) if mask >> i & 1]
            bits.append(f"({c})" + "^".join(factors))
        return " + ".join(bits)


def mask_weight(n: int, mask: int) -> int:
    """Weight of a coframe monomial: 1 per horizontal factor, 2 for theta."""
    return mask.bit_count() + (mask >> (2 * n) & 1)


def structure_d_one_form(n: int, i: int) -> Covector:
    """d of the i-th coframe element, from d omega(W_a, W_b) = -omega([W_a, W_b]).

    The bracket is computed in the enveloping algebra; omega_i pairs with the
    coefficient of generator i in it. No sign is assumed up front.
    """
    terms: dict = {}
    e_i = tuple(1 if g == i else 0 for g in range(2 * n + 1))
    for a in range(2 * n + 1):
        for b in range(a + 1, 2 * n + 1):
            wa, wb = EnvOp.generator(n, a), EnvOp.generator(n, b)
            pairing = (wa * wb - wb * wa).terms.get(e_i, Fraction(0))
            if pairing:
                terms[(1 << a) | (1 << b)] = -pairing
    return Covector(n, terms)


class CoframeD(NamedTuple):
    """d of one coframe monomial omega_I.

    ``d0`` is d(omega_I) as sorted (mask, coefficient) pairs. ``steps`` holds
    one (i, mask of omega_i ^ omega_I, sign) per index i not in I, where
    omega_i ^ omega_I = sign * omega_(I + i); on f omega_I the differential is
    sum_i (W_i f) sign omega_(I + i) + f d0.
    """

    d0: tuple
    steps: tuple


@lru_cache(maxsize=None)
def d_table(n: int) -> tuple:
    """``CoframeD`` of every coframe monomial of H^n, indexed by mask.

    d0 comes from the bracket-derived structure equations by Leibniz over
    the factors: d(a ^ omega_i ^ b) contributes (-1)^deg(a) a ^ d omega_i ^ b.
    """
    nv = 2 * n + 1
    d_one = [structure_d_one_form(n, i).terms for i in range(nv)]
    table = []
    for mask in range(1 << nv):
        d0: dict = {}
        steps = []
        for i in range(nv):
            bit = 1 << i
            if not mask & bit:
                steps.append((i, mask | bit, _merge_sign(bit, mask)))
                continue
            before, after = mask & (bit - 1), mask & ~((bit << 1) - 1)
            sign = -1 if before.bit_count() % 2 else 1
            for m2, c in d_one[i].items():
                if m2 & (before | after):
                    continue
                s = sign * _merge_sign(before, m2) * _merge_sign(before | m2, after)
                target = before | m2 | after
                d0[target] = d0.get(target, 0) + s * c
        table.append(CoframeD(tuple(sorted((m, c) for m, c in d0.items() if c)), tuple(steps)))
    return tuple(table)


def algebraic_d(c: Covector) -> Covector:
    """d on constant-coefficient covectors, read off ``d_table``.

    Horizontal coframe elements are closed here; only theta contributes. This
    is exactly the weight-preserving piece d_0 acting on basis covectors.
    """
    table = d_table(c.n)
    terms: dict = {}
    for mask, coeff in c.terms.items():
        for target, v in table[mask].d0:
            terms[target] = terms.get(target, 0) + coeff * v
    return Covector(c.n, terms)


# -- graded bases, the core E0 and d0^{-1} ----------------------------------


def lambda_masks(n: int, h: int, horizontal_only: bool = False) -> list:
    width = 2 * n + (0 if horizontal_only else 1)
    return [m for m in range(1 << width) if m.bit_count() == h]


def covector_coords(c: Covector, masks: list) -> list:
    zero = Fraction(0)
    return [c.terms.get(m, zero) for m in masks]


@dataclass
class Subspace:
    """A subspace of some Lambda^h, with a pairwise-orthogonal rational basis.

    norms2 holds the squared norms (the diagonal Gram matrix); true
    orthonormalization would need square roots and is deliberately avoided.
    """

    n: int
    degree: int
    basis: list
    norms2: list

    @property
    def dim(self) -> int:
        return len(self.basis)


def _d0_between(n: int, src: list, dst: list) -> list:
    """Matrix of d0 from the span of the masks ``src`` into that of ``dst``."""
    table, zero = d_table(n), Fraction(0)
    cols = [dict(table[m].d0) for m in src]
    return [[col.get(dm, zero) for col in cols] for dm in dst]


def singleton_pattern(n: int, mask: int) -> int:
    """The coframe indices j < n at which a mask carries exactly one of
    omega_j and omega_{j+n}, kept as that one bit; theta is dropped."""
    both = mask & (mask >> n) & ((1 << n) - 1)
    return mask & ~(both | both << n | 1 << 2 * n)


def singleton_blocks(n: int, masks: list) -> dict:
    """Indices into ``masks`` grouped by singleton pattern, ascending in each group."""
    blocks: dict = {}
    for i, mask in enumerate(masks):
        blocks.setdefault(singleton_pattern(n, mask), []).append(i)
    return blocks


def _merge_blocks(n: int, degree: int, masks: list, blocks: list, block_vectors: list) -> Subspace:
    """One Subspace of Lambda^degree from nullspace vectors found block by block.

    Gram-Schmidt runs inside each block, on the short vectors. Each vector's
    last nonzero entry is the free column it was built from: earlier vectors
    of its block vanish there, so Gram-Schmidt keeps it. Sorting on the
    global index of that column puts the vectors in the order a nullspace of
    all of Lambda^degree lists them.
    """
    keyed = []
    for idx, vectors in zip(blocks, block_vectors):
        ortho, norms2 = linalg.gram_schmidt(vectors)
        for v, n2 in zip(ortho, norms2):
            last = max(i for i, x in enumerate(v) if x)
            terms = {masks[i]: x for i, x in zip(idx, v) if x}
            keyed.append((idx[last], Covector(n, terms), n2))
    keyed.sort(key=lambda item: item[0])
    return Subspace(n, degree, [c for _, c, _ in keyed], [n2 for _, _, n2 in keyed])


def build_spaces(n: int, h: int) -> Subspace:
    """The core E0 = ker(d0) ∩ (im d0)^⟂ in degree h.

    It is found block by block, one block per singleton pattern (see the
    module docstring), as the nullspace of d0 out of the block stacked on
    the images of d0 into it. The tests build the explicit Lefschetz-kernel
    description of the same space on their own and compare the two rather
    than assume it.
    """
    if not 0 <= h <= 2 * n + 1:
        raise ValueError(f"degree {h} out of range")
    masks, below, above = (lambda_masks(n, k) for k in (h, h - 1, h + 1))
    below_blocks, above_blocks = singleton_blocks(n, below), singleton_blocks(n, above)
    blocks = singleton_blocks(n, masks)
    e0_vectors = []
    for pattern, idx in blocks.items():
        block = [masks[i] for i in idx]
        # d0 maps the block into the block of the same pattern one degree up;
        # there is none at the top degree, where d0 ends the complex
        d_here = _d0_between(n, block, [above[i] for i in above_blocks.get(pattern, [])])
        # the images of the block of this pattern one degree down, as rows
        image = [list(col) for col in zip(*_d0_between(
            n, [below[i] for i in below_blocks.get(pattern, [])], block))]
        e0_vectors.append(linalg.nullspace(image + d_here))
    return _merge_blocks(n, h, masks, list(blocks.values()), e0_vectors)


def d0_pseudo_inverse(n: int, h: int) -> list:
    """Matrix of d0^{-1}: Lambda^{h+1} -> Lambda^h, block by block.

    d0^{-1} is zero on the complement V of im(d0) and inverts d0 restricted
    to the complement W of ker(d0). Both complements are orthogonal, so
    d0^{-1} is the Moore-Penrose inverse of d0. d0 keeps the singleton
    pattern, so each block of d0 is inverted on its own.
    """
    lower, upper = lambda_masks(n, h), lambda_masks(n, h + 1)
    out = [[Fraction(0)] * len(upper) for _ in lower]
    upper_blocks = singleton_blocks(n, upper)
    for pattern, rows in singleton_blocks(n, lower).items():
        cols = upper_blocks.get(pattern)
        if not cols:
            continue
        d0 = _d0_between(n, [lower[r] for r in rows], [upper[c] for c in cols])
        for r, values in zip(rows, linalg.pseudo_inverse(d0)):
            for c, x in zip(cols, values):
                out[r][c] = x
    return out


def _lefschetz_power_matrix(n: int, k: int, power: int) -> list:
    """Matrix of L^power from horizontal degree k to degree k + 2 power.

    L beta = d0(theta ^ beta), as d0 beta = 0. theta is the top bit, so
    theta ^ omega_I = (-1)^|I| omega_(I + theta), and |I| = k mod 2.
    """
    theta, sign = 1 << (2 * n), -1 if k % 2 else 1
    src = lambda_masks(n, k, horizontal_only=True)
    dst = lambda_masks(n, k + 2 * power, horizontal_only=True)
    cols = []
    for m in src:
        c = Covector(n, {m: 1})
        for _ in range(power):
            c = algebraic_d(Covector(n, {mask | theta: sign * v for mask, v in c.terms.items()}))
        cols.append(c)
    return [[col.terms.get(dm, Fraction(0)) for col in cols] for dm in dst]


def core_dimension_oracle(n: int, h: int) -> int:
    """dim E0^h by brute-force Lefschetz ranks, independent of build_spaces:
    the kernel of L^(n - h + 1) on horizontal h-covectors for h <= n, else
    of L on horizontal (h - 1)-covectors."""
    if not 0 <= h <= 2 * n + 1:
        return 0
    k, power = (h, n - h + 1) if h <= n else (h - 1, 1)
    lp = _lefschetz_power_matrix(n, k, power)
    return len(lambda_masks(n, k, horizontal_only=True)) - (linalg.rank(lp) if lp else 0)
