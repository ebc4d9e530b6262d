"""Left-invariant differential operators on H^n in PBW normal form.

Generators are indexed 0..2n: index i < n is X_{i+1} = d/dx_i - (y_i/2) d/dt,
index n <= i < 2n is Y_{i-n+1} = d/dy_i + (x_i/2) d/dt, and index 2n is
T = d/dt. The only nonzero bracket is [X_j, Y_j] = T, and T is central.

An ``EnvOp`` is a rational linear combination of ordered monomials
W^I = X_1^{i_1} ... X_n^{i_n} Y_1^{j_1} ... Y_n^{j_n} T^{k}, stored as a dict
from exponent tuples (length 2n+1) to Fraction. Products are renormalized into
this basis in closed form: T is central, so the only rewrite is
Y_j^b X_j^a = sum_k (-1)^k k! C(a,k) C(b,k) X_j^(a-k) Y_j^(b-k) T^k.

The homogeneity degree d(I) counts horizontal exponents once and the T
exponent twice, matching the anisotropic dilations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, product
from math import comb, perm, prod
from typing import Mapping

from .polynomials import Poly, add_terms

_HALF = Fraction(1, 2)


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


def frame_derivatives(n: int, f: Poly, frame: str) -> list:
    """[W_0 f, ..., W_2n f], all frame fields of f in one pass over its terms.

    ``frame`` is ``"left"`` for the fields X_i, Y_i, T of ``derive`` or
    ``"coord"`` for the partials d/dx_i, d/dy_i, d/dt. In the left frame
    d/dt f is taken once, and its terms times y_i/2 or x_i/2 are exponent
    shifts added to the partials.
    """
    if f.nvars != 2 * n + 1:
        raise ValueError("polynomial not in the group coordinate ring")
    if frame not in ("left", "coord"):
        raise ValueError(f"unknown frame {frame!r}")
    t = 2 * n
    out = [{} for _ in range(t + 1)]
    for exp, c in f.terms.items():
        for i, k in enumerate(exp):
            if k:
                # distinct monomials have distinct partials: no merging
                out[i][exp[:i] + (k - 1,) + exp[i + 1:]] = c if k == 1 else c * k
    if frame == "left":
        halves = []
        for e, v in out[t].items():
            v = v * _HALF
            halves.append((e, v, -v))
        for j in range(n):
            # X_j = d/dx_j - (y_j/2) d/dt and Y_j = d/dy_j + (x_j/2) d/dt
            y, x = n + j, j
            add_terms(out[j], ((e[:y] + (e[y] + 1,) + e[y + 1:], neg) for e, _, neg in halves))
            add_terms(out[y], ((e[:x] + (e[x] + 1,) + e[x + 1:], pos) for e, pos, _ in halves))
    return [Poly.wrap(f.nvars, terms) for terms in out]


def _mono_product(I: tuple, J: tuple, n: int) -> list:
    """W^I W^J in PBW order, as [(exponent, integer coefficient)].

    Only Y_j^b (from I) has to pass X_j^a (from J); each k in the closed form
    moves one X_j Y_j pair into a T, so distinct choices give distinct
    exponents and nothing needs merging.
    """
    t = 2 * n
    out = [(tuple(i + j for i, j in zip(I, J)), 1)]
    for j in range(n):
        a, b = J[j], I[n + j]
        if not (a and b):
            continue
        expanded = []
        for exp, c in out:
            for k in range(min(a, b) + 1):
                e = list(exp)
                e[j] -= k
                e[n + j] -= k
                e[t] += k
                expanded.append((tuple(e), (-1) ** k * perm(a, k) * comb(b, k) * c))
        out = expanded
    return out


def _collect(n: int, pairs) -> "EnvOp":
    """Sum (exponent, nonzero coefficient) pairs into an EnvOp, dropping cancelled terms."""
    out = EnvOp.__new__(EnvOp)
    out.n, out.terms = n, add_terms({}, pairs)
    return out


def sum_of_products(n: int, pairs) -> "EnvOp":
    """Sum of a b over the (a, b) pairs, renormalized and collected once."""
    return _collect(n, (
        (exp, ci * cj * k)
        for a, b in pairs
        for I, ci in a.terms.items()
        for J, cj in b.terms.items()
        for exp, k in _mono_product(I, J, n)
    ))


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
        return _collect(self.n, chain(self.terms.items(), other.terms.items()))

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
        return sum_of_products(self.n, [(self, other)])

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
        """Formal L2 adjoint: the anti-automorphism sending each W to -W.

        X^a Y^b T^c goes to (-1)^(|a|+|b|+c) (Y^b T^c)(X^a), since the letters
        of each kind commute among themselves.
        """
        n = self.n
        pairs = []
        for exp, c in self.terms.items():
            xs = exp[:n] + (0,) * (n + 1)
            yts = (0,) * n + exp[n:]
            signed = -c if sum(exp) % 2 else c
            pairs.extend((e, signed * k) for e, k in _mono_product(yts, xs, n))
        return _collect(n, pairs)

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


def env_to_rows(a: EnvOp) -> list:
    """The terms of ``a`` as JSON-ready rows, sorted by multi-index."""
    return [
        {"multi_index": list(exp), "numerator": c.numerator, "denominator": c.denominator}
        for exp, c in sorted(a.terms.items())
    ]


def env_from_rows(n: int, rows: list) -> EnvOp:
    """The operator on H^n with the given term rows (the inverse of ``env_to_rows``)."""
    return EnvOp(n, {
        tuple(r["multi_index"]): Fraction(r["numerator"], r["denominator"]) for r in rows
    })


def env_to_json(a: EnvOp) -> str:
    return json.dumps(env_to_rows(a))


def env_from_json(s: str) -> EnvOp:
    rows = json.loads(s)
    if not rows:
        raise ValueError("cannot infer the group from an empty term list")
    return env_from_rows((len(rows[0]["multi_index"]) - 1) // 2, rows)


def word_op(n: int, word) -> EnvOp:
    """The PBW-normalized product W_{word[0]} W_{word[1]} ... of generators."""
    acc = EnvOp.one(n)
    for g in word:
        acc = acc * EnvOp.generator(n, g)
    return acc


def horizontal_span_coefficients(a: EnvOp, max_length: int) -> list | None:
    """Write ``a`` as a combination of horizontal words of length <= max_length.

    Returns [(word, coeff)] with each word a tuple of horizontal generator
    indices, or None if no such representation exists. The representation is
    what "a differential operator in the horizontal derivatives" means; its
    PBW normal form may still show T through commutators.

    T is central and equals X_1 Y_1 - Y_1 X_1, so X^a Y^b T^c is the word
    X^a Y^b followed by c factors (X_1 Y_1 - Y_1 X_1), a combination of words
    of length d(a, b, c). Words of length <= L thus span exactly the
    monomials of homogeneity <= L.
    """
    n = a.n
    if any(a.homogeneity(exp) > max_length for exp in a.terms):
        return None
    t_words = (((0, n), 1), ((n, 0), -1))
    words: dict = {}
    for exp, c in a.terms.items():
        head = tuple(g for g in range(2 * n) for _ in range(exp[g]))
        add_terms(words, (
            (head + sum((w for w, _ in factors), ()), c * prod(s for _, s in factors))
            for factors in product(t_words, repeat=exp[-1])
        ))
    return list(words.items())


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

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return PolyDiffOp(self.n, add_terms(dict(self.terms), other.terms.items()))

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
    terms: dict = {}
    for I, c in a.terms.items():
        add_terms(terms, (
            (tuple(i - k for i, k in zip(I, K)),
             c * prod(map(comb, I, K)) * EnvOp(n, {K: 1}).act(zeta))
            for K in product(*(range(e + 1) for e in I))
            if any(K)
        ))
    return PolyDiffOp(n, terms)


def leibniz_commutator_from_words(n: int, words: list, zeta: Poly) -> PolyDiffOp:
    """[sum_w c_w W_w, zeta] from a horizontal-word representation.

    Every derivative of zeta that appears is a composition of horizontal
    fields only; T is never applied to zeta here.
    """
    terms: dict = {}
    for word, c in words:
        for split in product((False, True), repeat=len(word)):
            if not any(split):
                continue
            deriv = zeta
            for g, applied in zip(reversed(word), reversed(split)):
                if applied:
                    deriv = derive(n, g, deriv)
            if not deriv:
                continue
            scaled = c * deriv
            rest = word_op(n, [g for g, applied in zip(word, split) if not applied])
            add_terms(terms, ((exp, scaled * cc) for exp, cc in rest.terms.items()))
    return PolyDiffOp(n, terms)
