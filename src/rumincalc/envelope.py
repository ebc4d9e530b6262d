"""Left-invariant differential operators on H^n in PBW normal form.

Generators are indexed 0..2n: index i < n is X_{i+1} = d/dx_i - (y_i/2) d/dt,
index n <= i < 2n is Y_{i-n+1} = d/dy_i + (x_i/2) d/dt, and index 2n is
T = d/dt. The only nonzero bracket is [X_j, Y_j] = T, and T is central.

An ``EnvOp`` is a rational linear combination of ordered monomials
W^I = X_1^{i_1} ... X_n^{i_n} Y_1^{j_1} ... Y_n^{j_n} T^{k}. By
Poincare-Birkhoff-Witt these are a basis, so an operator is stored like a
polynomial: it is a ``polynomials.SparseRational`` over exponent tuples of
length 2n+1, reduced int numerators ``nums`` over one denominator ``den``,
and its sums, differences and multiples are the shared ones. Products are
renormalized into this basis in closed form: T is central, so the only
rewrite is Y_j^b X_j^a = sum_k (-1)^k k! C(a,k) C(b,k) X_j^(a-k) Y_j^(b-k) T^k.
Every product, of two operators or of two operator matrices, goes through
``sum_of_products``: the numerators are multiplied and summed as ints, and
the sum is one reduced ``EnvOp`` over the product of the denominators.
W^I W^J is built once per process.

Operators act on a polynomial through its ``DerivativeTable``, which files
each W^K f by K, so operators applied to one polynomial derive it once.

The homogeneity degree d(I) counts horizontal exponents once and the T
exponent twice, matching the anisotropic dilations.
"""

from __future__ import annotations

from functools import cache
from math import comb, lcm, perm
from operator import add

from .polynomials import Poly, SparseRational, linear_combination


def derive(n: int, field_index: int, f: Poly) -> Poly:
    """Apply the left-invariant frame field with the given index to f.

    f is a polynomial in the 2n+1 group coordinates (x_1..x_n, y_1..y_n, t).
    X_i f and Y_i f are the partial plus the terms of d/dt f times -y_i/2 or
    x_i/2, added as exponent shifts in one pass, on numerators over 2 f.den.
    """
    if f.nvars != 2 * n + 1:
        raise ValueError("polynomial not in the group coordinate ring")
    t = 2 * n
    if field_index == t:
        return f.partial(t)
    if 0 <= field_index < n:
        # X_i = d/dx_i - (y_i/2) d/dt
        s, sign = n + field_index, -1
    elif n <= field_index < 2 * n:
        # Y_i = d/dy_i + (x_i/2) d/dt
        s, sign = field_index - n, 1
    else:
        raise ValueError(f"field index {field_index} out of range")
    i = field_index
    nums = {e[:i] + (e[i] - 1,) + e[i + 1:]: 2 * v * e[i] for e, v in f.nums.items() if e[i]}
    get = nums.get
    for e, v in f.nums.items():
        if e[t]:
            key = e[:s] + (e[s] + 1,) + e[s + 1:t] + (e[t] - 1,)
            nums[key] = get(key, 0) + sign * v * e[t]
    return Poly.wrap(f.nvars, {e: v for e, v in nums.items() if v}, 2 * f.den)


class DerivativeTable(dict):
    """W^K f for one polynomial f, filed by the PBW exponent K.

    An entry missing from the table is derived from the one below it: the
    outermost letter of W^K (the first generator with a nonzero exponent) is
    applied with ``derive`` to W^{K'} f, K' being K less that letter. So T
    is applied first, then the Y_j, then the X_j, as in ``EnvOp.act``, and
    operators applied to one f share every derivative they have in common.
    """

    def __init__(self, n: int, f: Poly):
        super().__init__({(0,) * (2 * n + 1): f})
        self.n = n

    def __missing__(self, K: tuple) -> Poly:
        g = next(i for i, k in enumerate(K) if k)
        below = self[K[:g] + (K[g] - 1,) + K[g + 1:]]
        out = self[K] = derive(self.n, g, below) if below else below
        return out


@cache
def _mono_product(I: tuple, J: tuple) -> tuple:
    """W^I W^J in PBW order, as ((exponent, integer coefficient), ...).

    Only Y_j^b (from I) has to pass X_j^a (from J); each k in the closed form
    moves one X_j Y_j pair into a T, so distinct choices give distinct
    exponents and nothing needs merging. One table of products serves the
    whole process, keyed by (I, J) alone, since len(I) = 2n+1; the result is
    a tuple, so no caller can change it.
    """
    n = len(I) // 2
    t = 2 * n
    out = [(tuple(map(add, I, J)), 1)]
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
    return tuple(out)


def integer_terms(ops) -> tuple:
    """The ops over one common denominator: (d, [{exponent: int} per op]).

    d is the lcm of their denominators, and each int is a coefficient times d.
    """
    ops = list(ops)
    d = lcm(*(a.den for a in ops))
    return d, [a.nums if a.den == d else {e: v * (d // a.den) for e, v in a.nums.items()}
               for a in ops]


def sum_of_products(n: int, pairs, denominator: int) -> "EnvOp":
    """(sum of a b over the pairs) / denominator, renormalized and collected once.

    Each a and b is a dict {exponent: int}, such as an ``EnvOp``'s ``nums``
    or one of ``integer_terms``, so products and sums run on ints and the
    result is one reduced ``EnvOp`` over the denominator.
    """
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        b = b.items()
        for I, ci in a.items():
            for J, cj in b:
                c = ci * cj
                for exp, k in _mono_product(I, J):
                    acc[exp] = get(exp, 0) + c * k
    return EnvOp.wrap(n, {e: c for e, c in acc.items() if c}, denominator)


class EnvOp(SparseRational):
    """An operator on H^n: rational coefficients on the PBW exponents W^I,
    stored and added as in ``SparseRational``; the product is the PBW one."""

    __slots__ = ()
    n = SparseRational.ring  # the ring slot, read as the group's n

    @staticmethod
    def width(n: int) -> int:
        return 2 * n + 1

    @classmethod
    def one(cls, n: int) -> "EnvOp":
        return cls.wrap(n, {(0,) * (2 * n + 1): 1})

    @classmethod
    def generator(cls, n: int, g: int) -> "EnvOp":
        exp = [0] * (2 * n + 1)
        exp[g] = 1
        return cls.wrap(n, {tuple(exp): 1})

    def __mul__(self, other: "EnvOp") -> "EnvOp":
        """Operator composition self after other, renormalized."""
        if type(other) is not EnvOp:
            raise TypeError(f"cannot multiply EnvOp by {type(other).__name__}; use scale")
        if self.n != other.n:
            raise ValueError("operators on different groups")
        return sum_of_products(self.n, [(self.nums, other.nums)], self.den * other.den)

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        names = [f"X{i+1}" for i in range(self.n)] + [f"Y{i+1}" for i in range(self.n)] + ["T"]
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "".join(
                f"{names[g]}^{e}" if e > 1 else names[g] for g, e in enumerate(exp) if e
            )
            bits.append(f"({c}){mono}" if mono else f"({c})")
        return " + ".join(bits)

    def act(self, f: "Poly | DerivativeTable") -> Poly:
        """Apply the operator to a polynomial on the group.

        f may come as the ``DerivativeTable`` of the polynomial, so that
        several operators applied to it derive it only once.
        """
        if not isinstance(f, DerivativeTable):
            f = DerivativeTable(self.n, f)
        pairs = ((v, f[K]) for K, v in self.nums.items())
        return linear_combination(2 * self.n + 1, pairs, self.den)

    def adjoint(self) -> "EnvOp":
        """Formal L2 adjoint: the anti-automorphism sending each W to -W.

        X^a Y^b T^c goes to (-1)^(|a|+|b|+c) (Y^b T^c)(X^a), since the letters
        of each kind commute among themselves.
        """
        n = self.n
        return sum_of_products(n, [
            ({(0,) * n + exp[n:]: -v if sum(exp) % 2 else v}, {exp[:n] + (0,) * (n + 1): 1})
            for exp, v in self.nums.items()
        ], self.den)

    def homogeneity(self, exp: tuple) -> int:
        return sum(exp[:-1]) + 2 * exp[-1]

    def homogeneous_degree(self) -> int | None:
        """The common homogeneity degree d(I), or None if mixed or zero."""
        degs = {self.homogeneity(exp) for exp in self.nums}
        if len(degs) == 1:
            return degs.pop()
        return None
