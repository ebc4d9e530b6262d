import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    PolyDiffOp,
    WordDerivatives,
    apply_poly_diff_op,
    commutator_with_multiplication,
    horizontal_span_coefficients,
    leibniz_commutator_from_words,
    operator_order,
    random_poly,
    shared_context,
    symmetric_box_integral,
    word_op,
)
from rumincalc.envelope import DerivativeTable, EnvOp, derive, frame_derivatives
from rumincalc.polynomials import Poly


def X(n, i):
    return EnvOp.generator(n, i)


def Y(n, i):
    return EnvOp.generator(n, n + i)


def T(n):
    return EnvOp.generator(n, 2 * n)


def test_frame_fields_on_coordinates():
    # X_1 = d/dx_1 - (y_1/2) d/dt, Y_1 = d/dy_1 + (x_1/2) d/dt
    x = Poly.var(3, 0)
    y = Poly.var(3, 1)
    t = Poly.var(3, 2)
    assert derive(1, 0, x) == Poly.const(3, 1)
    assert derive(1, 0, t) == y.scale(Fraction(-1, 2))
    assert derive(1, 1, t) == x.scale(Fraction(1, 2))
    assert derive(1, 2, t) == Poly.const(3, 1)
    assert derive(1, 0, y) == Poly.zero(3)


def test_pbw_normalization_example():
    n = 1
    # Y X = X Y - T in the PBW order
    prod = Y(n, 0) * X(n, 0)
    assert prod == X(n, 0) * Y(n, 0) - EnvOp.one(n) * T(n)
    # same-index and distinct-index generators commute
    assert X(2, 0) * X(2, 1) == X(2, 1) * X(2, 0)
    assert X(2, 0) * Y(2, 1) == Y(2, 1) * X(2, 0)
    # an exact operator refuses a float coefficient, as a Poly does
    with pytest.raises(TypeError):
        EnvOp(1, {(0, 0, 1): 0.1})
    with pytest.raises(TypeError):
        EnvOp.generator(1, 0).scale(0.1)


def test_pbw_confluence_random():
    rng = random.Random(0)
    n = 2
    gens = [EnvOp.generator(n, i) for i in range(2 * n + 1)]
    for _ in range(40):
        word = [rng.randrange(2 * n + 1) for _ in range(4)]
        left = EnvOp.one(n)
        for g in word:
            left = left * gens[g]
        # multiply in two different associations
        a = (gens[word[0]] * gens[word[1]]) * (gens[word[2]] * gens[word[3]])
        assert left == a


def _random_op(rng, n):
    """Three terms, every exponent in 0..3."""
    return EnvOp(n, {
        tuple(rng.randrange(4) for _ in range(2 * n + 1)):
            Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 3))
        for _ in range(3)
    })


def test_action_matches_normalization():
    rng = random.Random(1)
    for n in (1, 2):
        nv = 2 * n + 1
        gens = [EnvOp.generator(n, i) for i in range(nv)]
        for _ in range(25):
            word = [rng.randrange(nv) for _ in range(3)]
            op = EnvOp.one(n)
            for g in word:
                op = op * gens[g]
            f = random_poly(rng, nv, 3)
            direct = f
            for g in reversed(word):
                direct = derive(n, g, direct)
            assert op.act(f) == direct
    # products of multi-term operators with exponents up to 3 reach every k
    # of the closed form Y^b X^a = sum_k ...; act composes derive, not products
    for n in (1, 2):
        nv = 2 * n + 1
        for _ in range(8):
            a, b = _random_op(rng, n), _random_op(rng, n)
            f = random_poly(rng, nv, 24, terms=6)
            assert (a * b).act(f) == a.act(b.act(f))


def test_adjoint_is_an_involution_and_antihomomorphism():
    rng = random.Random(2)
    n = 1
    ops = []
    for _ in range(6):
        op = EnvOp.zero(n)
        for _ in range(3):
            word = [rng.randrange(3) for _ in range(rng.randrange(3))]
            term = EnvOp.one(n).scale(Fraction(rng.randrange(-3, 4) or 1))
            for g in word:
                term = term * EnvOp.generator(n, g)
            op = op + term
        ops.append(op)
    for a in ops:
        assert a.adjoint().adjoint() == a
    for a, b in zip(ops, ops[1:]):
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_adjoint_integration_by_parts():
    # <a f, g> = <f, a* g> against a bump that kills the boundary terms
    n = 1
    bump = Poly.const(3, 1)
    for i in range(3):
        v = Poly.var(3, i)
        bump = bump * (Poly.const(3, 1) - v * v) ** 2
    rng = random.Random(3)
    for a in (X(n, 0), Y(n, 0), T(n), X(n, 0) * Y(n, 0), X(n, 0) * X(n, 0) - T(n)):
        f = random_poly(rng, 3, 2) * bump
        g = random_poly(rng, 3, 2) * bump
        lhs = symmetric_box_integral(a.act(f) * g)
        rhs = symmetric_box_integral(f * a.adjoint().act(g))
        assert lhs == rhs


def test_homogeneous_degree_counts_t_twice():
    n = 1
    assert X(n, 0).homogeneous_degree() == 1
    assert T(n).homogeneous_degree() == 2
    assert (X(n, 0) * Y(n, 0)).homogeneous_degree() == 2
    mixed = X(n, 0) + T(n)
    assert mixed.homogeneous_degree() is None


def test_horizontal_word_products():
    words = [word_op(1, w) for w in product(range(2), repeat=2)]
    assert len(words) == 4  # XX, XY, YX, YY
    for op in words:
        assert operator_order(op) == 2
    # YX picks up the -T correction when normalized
    assert words[2] == X(1, 0) * Y(1, 0) - EnvOp.one(1) * T(1)


def _assert_horizontal_words(a):
    """The words of ``a`` rebuild it, and one length fewer admits none."""
    length = max(a.homogeneity(exp) for exp in a.terms)
    rep = horizontal_span_coefficients(a, length)
    assert rep is not None
    assert all(c and len(w) <= length and max(w, default=0) < 2 * a.n for w, c in rep)
    rebuilt = EnvOp.zero(a.n)
    for word, c in rep:
        rebuilt = rebuilt + word_op(a.n, word).scale(c)
    assert rebuilt == a
    assert horizontal_span_coefficients(a, length - 1) is None


def test_horizontal_span_coefficients():
    # every nonzero d_c entry, n = 1..3
    count = 0
    for n in (1, 2, 3):
        ctx = shared_context(n)
        for h in range(2 * n + 1):
            for row in ctx.rumin_d_matrix(h).entries:
                for e in row.values():
                    _assert_horizontal_words(e)
                    count += 1
    assert count > 300
    # seeded operators with T exponents 0..3 and mixed horizontal indices
    rng = random.Random(8)
    for n in (1, 2, 3):
        width = 2 * n + 1
        for c in range(4):
            for _ in range(4):
                terms = {}
                for _ in range(3):
                    exp = [0] * width
                    for _ in range(rng.randrange(4)):
                        exp[rng.randrange(2 * n)] += 1
                    exp[-1] = c
                    terms[tuple(exp)] = Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 4))
                a = EnvOp(n, terms)
                _assert_horizontal_words(a)
                # mixed T exponents in one operator
                _assert_horizontal_words(a + T(n).scale(2) * X(n, n - 1) + EnvOp.one(n))
    # T = X_1 Y_1 - Y_1 X_1 needs words of length 2, and the zero operator none
    assert horizontal_span_coefficients(T(1), 2) == [((0, 1), 1), ((1, 0), -1)]
    assert horizontal_span_coefficients(EnvOp.zero(2), 0) == []


def test_commutator_routes_agree():
    rng = random.Random(4)
    n = 1
    word_reps = {
        "X": [((0,), Fraction(1))],
        "XY": [((0, 1), Fraction(1))],
        "XX-T": [((0, 0), Fraction(1)), ((0, 1), Fraction(-1)), ((1, 0), Fraction(1))],
    }
    ops = {
        "X": X(n, 0),
        "XY": X(n, 0) * Y(n, 0),
        "XX-T": X(n, 0) * X(n, 0) - T(n),
    }
    # T-expanded words from the rewrite, at n = 2
    ops2 = {"TT": T(2) * T(2), "X1T": X(2, 0) * T(2), "X2Y2T": X(2, 1) * Y(2, 1) * T(2)}
    for key, op in ops2.items():
        ops[key] = op
        word_reps[key] = horizontal_span_coefficients(op, op.homogeneous_degree())
    for key in ops:
        n = ops[key].n
        nv = 2 * n + 1
        for _ in range(10):
            zeta = random_poly(rng, nv, 3)
            direct = commutator_with_multiplication(ops[key], zeta)
            horizontal = leibniz_commutator_from_words(n, word_reps[key], zeta)
            assert direct == horizontal
            # and both act the same on test functions
            u = random_poly(rng, nv, 2)
            assert apply_poly_diff_op(direct, u) == ops[key].act(zeta * u) - zeta * ops[key].act(u)


def test_derivative_table_chains_derive_in_the_order_of_act():
    rng = random.Random(13)
    for n in (1, 2, 3):
        nv = 2 * n + 1
        for _ in range(2):
            f = random_poly(rng, nv, 5, terms=6)
            table = DerivativeTable(n, f)
            exponents = [K for K in product(range(4), repeat=nv) if sum(K) <= 3]
            for K in exponents:
                # T first, then Y_n .. Y_1, then X_n .. X_1, as act applies them
                chained = f
                for g in range(nv - 1, -1, -1):
                    for _ in range(K[g]):
                        chained = derive(n, g, chained)
                assert table[K] == chained
            # each entry is derived from one below it, so none lies outside
            assert len(table) == len(exponents)
    # one table shared by several operators acts as a fresh table per call
    for n in (1, 2):
        nv = 2 * n + 1
        ops = [_random_op(rng, n) for _ in range(6)]
        ops += [e for row in shared_context(n).rumin_d_matrix(n).entries for e in row.values()]
        for _ in range(3):
            f = random_poly(rng, nv, 6, terms=6)
            shared = DerivativeTable(n, f)
            for op in ops:
                assert op.act(shared) == op.act(f) == op.act(DerivativeTable(n, f))
            assert shared[(0,) * nv] is f


def test_commutator_routes_read_only_their_own_tables():
    # a wrong entry planted in one route's table changes that route alone,
    # so the audit's comparison of the two routes is not one route twice
    rng = random.Random(14)
    n = 1
    a = X(n, 0) * Y(n, 0)
    words = horizontal_span_coefficients(a, 2)
    zeta = random_poly(rng, 3, 4, terms=6)
    while not derive(n, 0, zeta):
        zeta = random_poly(rng, 3, 4, terms=6)
    direct = commutator_with_multiplication(a, zeta)
    assert leibniz_commutator_from_words(n, words, zeta) == direct
    one = Poly.const(3, 1)

    direct_table = DerivativeTable(n, zeta)
    direct_table[(1, 0, 0)] = direct_table[(1, 0, 0)] + one
    word_table = WordDerivatives(n, zeta)
    assert commutator_with_multiplication(a, direct_table) != direct
    assert leibniz_commutator_from_words(n, words, word_table) == direct

    word_table = WordDerivatives(n, zeta)
    word_table[(0,)] = word_table[(0,)] + one
    assert leibniz_commutator_from_words(n, words, word_table) != direct
    assert commutator_with_multiplication(a, DerivativeTable(n, zeta)) == direct


def test_polydiffop_order_and_t_flag():
    n = 1
    zeta = Poly.var(3, 2)  # t
    c = commutator_with_multiplication(T(n), zeta)
    assert c.order() == 0
    assert not any(e[-1] for e in c.terms)
    d = PolyDiffOp(n, {(0, 0, 1): Poly.const(3, 1)})
    assert any(e[-1] for e in d.terms)


def test_frame_derivatives_match_derive_and_partials():
    rng = random.Random(12)
    for n in (1, 2, 3):
        nv = 2 * n + 1
        for trial in range(8):
            f = random_poly(rng, nv, 4, terms=6)
            if trial % 2:
                f = Poly(nv, {e: c for e, c in f.terms.items() if not e[-1]})
            left = frame_derivatives(n, f, "left")
            coord = frame_derivatives(n, f, "coord")
            assert len(left) == len(coord) == nv
            for i in range(nv):
                assert left[i] == derive(n, i, f)
                assert coord[i] == f.partial(i)
    # X_1 (t + x y / 2) = y/2 - y/2: the partial and the d/dt shift cancel
    x, y, t = (Poly.var(3, i) for i in range(3))
    f = t + x * y * Fraction(1, 2)
    assert frame_derivatives(1, f, "left") == [Poly.zero(3), x, Poly.const(3, 1)]
    with pytest.raises(ValueError, match="unknown frame"):
        frame_derivatives(1, f, "right")


# -- the shared int store against a dict-of-Fraction oracle --------------------
#
# An EnvOp keeps int numerators over one denominator, as a Poly does, and
# shares its sums, differences, multiples, equality and hash. The oracle
# keeps the plain {exponent: Fraction} dict and works term by term.


def _o_combine(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _assert_op_matches(op, oracle):
    assert type(op) is EnvOp and op.n == 1
    assert all(type(v) is int and v for v in op.nums.values())
    assert type(op.den) is int and op.den > 0 and gcd(op.den, *op.nums.values()) == 1
    assert op.nums or op.den == 1
    assert op.terms == oracle
    twin = EnvOp(1, oracle)
    assert op == twin and hash(op) == hash(twin)
    assert bool(op) == bool(oracle)


def _op_oracles():
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    exp = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)
    return st.dictionaries(exp, coeff, max_size=5).map(
        lambda d: {e: c for e, c in d.items() if c})


@given(_op_oracles(), _op_oracles(),
       st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=9)),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_envop_store_matches_the_fraction_oracle(a, b, c, seed):
    p, q = EnvOp(1, a), EnvOp(1, b)
    _assert_op_matches(p, a)
    _assert_op_matches(p + q, _o_combine(a, b, 1))
    _assert_op_matches(p - q, _o_combine(a, b, -1))
    _assert_op_matches(-p, {e: -v for e, v in a.items()})
    _assert_op_matches(p.scale(c), {e: v * c for e, v in a.items() if c})
    _assert_op_matches(p - p, {})
    _assert_op_matches((p + q) - q, a)
    assert (p == q) == (a == b)
    # the product is the operator product: it acts as the factors in turn
    f = random_poly(random.Random(seed), 3, 6, terms=5)
    product = p * q
    _assert_op_matches(product, product.terms)
    assert product.act(f) == p.act(q.act(f))
    # operators and polynomials never mix, and numbers scale only through scale
    g = Poly.var(3, 0)
    for mixed in (lambda: p + g, lambda: g + p, lambda: p - g, lambda: g - p,
                  lambda: p * g, lambda: g * p, lambda: p * c, lambda: c * p):
        with pytest.raises(TypeError):
            mixed()
    assert p != g and g != p and not (p == g)
