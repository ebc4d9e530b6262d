"""Left-invariant differential operators on H^n in PBW normal form.

Generators are indexed 0..2n: index i < n is X_{i+1} = d/dx_i - (y_i/2) d/dt,
index n <= i < 2n is Y_{i-n+1} = d/dy_i + (x_i/2) d/dt, and index 2n is
T = d/dt. The only nonzero bracket is [X_j, Y_j] = T, and T is central.

An ``EnvOp`` is a rational linear combination of ordered monomials
W^I = X_1^{i_1} ... X_n^{i_n} Y_1^{j_1} ... Y_n^{j_n} T^{k}, stored as a dict
from exponent tuples (length 2n+1) to Fraction. Products are renormalized into
this basis; the only rewrite needed is Y_j^m X_j = X_j Y_j^m - m Y_j^{m-1} T.

The homogeneity degree d(I) counts horizontal exponents once and the T
exponent twice, matching the anisotropic dilations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Mapping

from . import linalg
from .polynomials import Poly


def derive(n: int, field_index: int, f: Poly) -> Poly:
    """Apply the left-invariant frame field with the given index to f.

    f is a polynomial in the 2n+1 group coordinates (x_1..x_n, y_1..y_n, t).
    """
    if f.nvars != 2 * n + 1:
        raise ValueError("polynomial not in the group coordinate ring")
    t = 2 * n
    if field_index == t:
        return f.partial(t)
    if 0 <= field_index < n:
        y_i = Poly.var(f.nvars, n + field_index)
        return f.partial(field_index) - Fraction(1, 2) * y_i * f.partial(t)
    if n <= field_index < 2 * n:
        x_i = Poly.var(f.nvars, field_index - n)
        return f.partial(field_index) + Fraction(1, 2) * x_i * f.partial(t)
    raise ValueError(f"field index {field_index} out of range")


def _mono_times_gen(I: tuple, g: int, n: int) -> dict:
    """W^I * W_g renormalized. At most one correction term appears."""
    t = 2 * n
    out_exp = list(I)
    out_exp[g] += 1
    out = {tuple(out_exp): Fraction(1)}
    if g < n:
        m = I[n + g]
        if m:
            corr = list(I)
            corr[n + g] -= 1
            corr[t] += 1
            out[tuple(corr)] = Fraction(-m)
    return out


def _mono_word(I: tuple) -> list:
    word = []
    for g, e in enumerate(I):
        word.extend([g] * e)
    return word


class EnvOp:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, object] | None = None):
        self.n = n
        width = 2 * n + 1
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if len(exp) != width or any(e < 0 for e in exp):
                    raise ValueError(f"bad multi-index {exp}")
                clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "EnvOp":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "EnvOp":
        return cls(n, {(0,) * (2 * n + 1): Fraction(1)})

    @classmethod
    def generator(cls, n: int, g: int) -> "EnvOp":
        exp = [0] * (2 * n + 1)
        exp[g] = 1
        return cls(n, {tuple(exp): Fraction(1)})

    def __add__(self, other: "EnvOp") -> "EnvOp":
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        out = EnvOp.__new__(EnvOp)
        out.n, out.terms = self.n, terms
        return out

    def __neg__(self) -> "EnvOp":
        out = EnvOp.__new__(EnvOp)
        out.n = self.n
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "EnvOp") -> "EnvOp":
        return self + (-other)

    def scale(self, c) -> "EnvOp":
        c = Fraction(c)
        if c == 0:
            return EnvOp.zero(self.n)
        out = EnvOp.__new__(EnvOp)
        out.n = self.n
        out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def __mul__(self, other: "EnvOp") -> "EnvOp":
        """Operator composition self after other, renormalized."""
        if self.n != other.n:
            raise ValueError("operators on different groups")
        total: dict = {}
        for J, cj in other.terms.items():
            word = _mono_word(J)
            for I, ci in self.terms.items():
                partial = {I: ci * cj}
                for g in word:
                    nxt: dict = {}
                    for exp, c in partial.items():
                        for exp2, c2 in _mono_times_gen(exp, g, self.n).items():
                            s = nxt.get(exp2, Fraction(0)) + c * c2
                            if s == 0:
                                nxt.pop(exp2, None)
                            else:
                                nxt[exp2] = s
                    partial = nxt
                for exp, c in partial.items():
                    s = total.get(exp, Fraction(0)) + c
                    if s == 0:
                        total.pop(exp, None)
                    else:
                        total[exp] = s
        out = EnvOp.__new__(EnvOp)
        out.n, out.terms = self.n, total
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, EnvOp) and self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = [f"X{i+1}" for i in range(self.n)] + [f"Y{i+1}" for i in range(self.n)] + ["T"]
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "".join(
                f"{names[g]}^{e}" if e > 1 else names[g] for g, e in enumerate(exp) if e
            )
            bits.append(f"({c}){mono}" if mono else f"({c})")
        return " + ".join(bits)

    def act(self, f: Poly) -> Poly:
        """Apply the operator to a polynomial on the group."""
        total = Poly.zero(2 * self.n + 1)
        for exp, c in self.terms.items():
            g_poly = f
            for g in range(2 * self.n, -1, -1):
                for _ in range(exp[g]):
                    g_poly = derive(self.n, g, g_poly)
                if not g_poly:
                    break
            total = total + c * g_poly
        return total

    def adjoint(self) -> "EnvOp":
        """Formal L2 adjoint: the anti-automorphism sending each W to -W."""
        total = EnvOp.zero(self.n)
        for exp, c in self.terms.items():
            word = _mono_word(exp)
            acc = EnvOp.one(self.n)
            for g in reversed(word):
                acc = acc * EnvOp.generator(self.n, g)
            sign = -1 if len(word) % 2 else 1
            total = total + acc.scale(sign * c)
        return total

    def order(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(exp) for exp in self.terms)

    def homogeneity(self, exp: tuple) -> int:
        return sum(exp[:-1]) + 2 * exp[-1]

    def homogeneous_degree(self) -> int | None:
        """The common homogeneity degree d(I), or None if mixed or zero."""
        degs = {self.homogeneity(exp) for exp in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def coords(self, basis: list) -> list:
        return [self.terms.get(exp, Fraction(0)) for exp in basis]


def env_to_json(a: EnvOp) -> str:
    rows = [
        {"multi_index": list(exp), "numerator": c.numerator, "denominator": c.denominator}
        for exp, c in sorted(a.terms.items())
    ]
    return json.dumps(rows)


def env_from_json(s: str) -> EnvOp:
    rows = json.loads(s)
    if not rows:
        raise ValueError("cannot infer the group from an empty term list")
    width = len(rows[0]["multi_index"])
    n = (width - 1) // 2
    terms = {
        tuple(r["multi_index"]): Fraction(r["numerator"], r["denominator"]) for r in rows
    }
    return EnvOp(n, terms)


def horizontal_word_products(n: int, length: int) -> list:
    """All PBW-normalized products of exactly ``length`` horizontal generators."""
    if length == 0:
        return [EnvOp.one(n)]
    words = [[g] for g in range(2 * n)]
    for _ in range(length - 1):
        words = [w + [g] for w in words for g in range(2 * n)]
    out = []
    for w in words:
        acc = EnvOp.one(n)
        for g in w:
            acc = acc * EnvOp.generator(n, g)
        out.append(acc)
    return out


def horizontal_span_coefficients(a: EnvOp, max_length: int) -> list | None:
    """Write ``a`` as a combination of horizontal words of length <= max_length.

    Returns [(word, coeff)] with each word a tuple of horizontal generator
    indices, or None if no such representation exists. The representation is
    what "a differential operator in the horizontal derivatives" means; its
    PBW normal form may still show T through commutators.
    """
    words = [()]
    frontier = [()]
    for _ in range(max_length):
        frontier = [w + (g,) for w in frontier for g in range(2 * a.n)]
        words.extend(frontier)
    normalized = []
    for w in words:
        acc = EnvOp.one(a.n)
        for g in w:
            acc = acc * EnvOp.generator(a.n, g)
        normalized.append(acc)
    basis = sorted({exp for op in normalized for exp in op.terms} | set(a.terms))
    mat = [[op.terms.get(exp, Fraction(0)) for op in normalized] for exp in basis]
    rhs = [a.terms.get(exp, Fraction(0)) for exp in basis]
    sol = linalg.solve(mat, rhs)
    if sol is None:
        return None
    return [(w, c) for w, c in zip(words, sol) if c != 0]


class PolyDiffOp:
    """Differential operator with polynomial coefficients.

    Stored as a dict from PBW multi-indices to Poly coefficients; applies as
    sum_I c_I(p) (W^I f)(p). Used for commutators [d_c, zeta] whose
    coefficients are genuinely non-constant.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Poly] | None = None):
        self.n = n
        self.terms = {tuple(e): p for e, p in (terms or {}).items() if p}

    @classmethod
    def zero(cls, n: int) -> "PolyDiffOp":
        return cls(n)

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        terms = dict(self.terms)
        for e, p in other.terms.items():
            q = terms.get(e)
            s = p if q is None else q + p
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return PolyDiffOp(self.n, terms)

    def __neg__(self) -> "PolyDiffOp":
        return PolyDiffOp(self.n, {e: -p for e, p in self.terms.items()})

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyDiffOp) and self.n == other.n and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def apply(self, f: Poly) -> Poly:
        total = Poly.zero(2 * self.n + 1)
        for exp, coeff in self.terms.items():
            total = total + coeff * EnvOp(self.n, {exp: 1}).act(f)
        return total

    def order(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def differentiates_along_t(self) -> bool:
        return any(e[-1] > 0 for e in self.terms)


def commutator_with_multiplication(a: EnvOp, zeta: Poly) -> PolyDiffOp:
    """[a, zeta] = a(zeta u) - zeta a(u) as an operator in u.

    Leibniz over each PBW monomial: W^I (zeta u) expands over split exponents
    K <= I with multinomial weights, giving (W^K zeta) W^{I-K} u; the K = 0
    term cancels against zeta a(u).
    """
    n = a.n
    out = PolyDiffOp.zero(n)
    for I, c in a.terms.items():
        ranges = [range(e + 1) for e in I]
        splits = [()]
        for r in ranges:
            splits = [s + (k,) for s in splits for k in r]
        terms: dict = {}
        for K in splits:
            if all(k == 0 for k in K):
                continue
            weight = Fraction(1)
            for ig, kg in zip(I, K):
                weight *= comb(ig, kg)
            deriv = EnvOp(n, {K: 1}).act(zeta)
            if not deriv:
                continue
            rest = tuple(ig - kg for ig, kg in zip(I, K))
            prev = terms.get(rest)
            add = (c * weight) * deriv
            terms[rest] = add if prev is None else prev + add
        out = out + PolyDiffOp(n, terms)
    return out


def leibniz_commutator_from_words(n: int, words: list, zeta: Poly) -> PolyDiffOp:
    """[sum_w c_w W_w, zeta] from a horizontal-word representation.

    Every derivative of zeta that appears is a composition of horizontal
    fields only; T is never applied to zeta here.
    """
    out = PolyDiffOp.zero(n)
    for word, c in words:
        k = len(word)
        for split in range(1, 1 << k):
            applied = [g for pos, g in enumerate(word) if split & (1 << pos)]
            rest = [g for pos, g in enumerate(word) if not split & (1 << pos)]
            deriv = Poly(zeta.nvars, zeta.terms)
            for g in reversed(applied):
                deriv = derive(n, g, deriv)
            if not deriv:
                continue
            rest_op = EnvOp.one(n)
            for g in rest:
                rest_op = rest_op * EnvOp.generator(n, g)
            scaled = c * deriv
            contrib = PolyDiffOp(
                n, {exp: scaled * cc for exp, cc in rest_op.terms.items()}
            )
            out = out + contrib
    return out
