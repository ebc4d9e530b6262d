import random
import time
from fractions import Fraction

import pytest

from conftest import (
    add_covectors,
    covector_from_coords,
    d0_matrix,
    dense_spaces,
    dtheta,
    is_horizontal,
    kernel,
    lefschetz,
    monomial,
    negate_covector,
    one_form,
    subspace_from_vectors,
    subtract_covectors,
    wedge,
)
from rumincalc import linalg
from rumincalc.exterior_weights import (
    Covector,
    _lefschetz_power_matrix,
    algebraic_d,
    build_spaces,
    core_dimension_oracle,
    covector_coords,
    d_table,
    lambda_masks,
    mask_weight,
    merge_sign,
    singleton_blocks,
    singleton_pattern,
)

CORE_DIMS = {
    1: (1, 2, 2, 1),
    2: (1, 4, 5, 5, 4, 1),
    3: (1, 6, 14, 14, 14, 14, 6, 1),
}


def w(n, i):
    return one_form(n, i)


def inner(a: Covector, b: Covector) -> Fraction:
    """Inner product making the monomial covectors orthonormal."""
    return sum((c * b.terms[m] for m, c in a.terms.items() if m in b.terms), Fraction(0))


def weights(c: Covector) -> set:
    return {mask_weight(c.n, m) for m in c.terms}


def _embed_horizontal(n: int, h: int, vec_masks: list, vec: list, with_theta: bool) -> list:
    """Coordinates in Lambda^h of a horizontal covector, optionally theta-wedged."""
    c = covector_from_coords(n, vec_masks, vec)
    if with_theta:
        c = wedge(one_form(n, 2 * n), c)
    return covector_coords(c, lambda_masks(n, h))


def case_formula_spaces(n: int, h: int):
    """E0 from the explicit Lefschetz kernel case formulas.

    Low degrees keep the horizontal covectors that a Lefschetz power kills;
    high degrees are theta wedged with the horizontal kernel of L. This is
    the independent route that ``build_spaces`` is checked against.
    """
    if h <= n:
        hmasks = lambda_masks(n, h, horizontal_only=True)
        prim = kernel(_lefschetz_power_matrix(n, h, n - h + 1), len(hmasks))
        e0_vectors = [_embed_horizontal(n, h, hmasks, v, with_theta=False) for v in prim]
    else:
        hmasks = lambda_masks(n, h - 1, horizontal_only=True)
        ker = kernel(_lefschetz_power_matrix(n, h - 1, 1), len(hmasks))
        e0_vectors = [_embed_horizontal(n, h, hmasks, v, with_theta=True) for v in ker]
    return subspace_from_vectors(n, h, lambda_masks(n, h), e0_vectors)


def pure_weight_part(c, weight):
    return Covector(c.n, {m: v for m, v in c.terms.items() if mask_weight(c.n, m) == weight})


def horizontal_part(c):
    theta_bit = 1 << (2 * c.n)
    return Covector(c.n, {m: v for m, v in c.terms.items() if not m & theta_bit})


def theta_complement(c):
    """beta with the theta-part of c equal to theta ^ beta."""
    theta_bit = 1 << (2 * c.n)
    terms = {}
    for mask, v in c.terms.items():
        if mask & theta_bit:
            rest = mask & ~theta_bit
            # omega_rest ^ theta = (-1)^(deg rest) theta ^ omega_rest
            terms[rest] = -v if rest.bit_count() % 2 else v
    return Covector(c.n, terms)


def test_merge_sign_examples():
    assert merge_sign(0b01, 0b10) == 1
    assert merge_sign(0b10, 0b01) == -1
    assert merge_sign(0b101, 0b010) == -1  # move bit 1 past bit 2


def test_wedge_is_graded_anticommutative():
    rng = random.Random(0)
    n = 2
    for _ in range(30):
        ka, kb = rng.randrange(4), rng.randrange(4)
        a = Covector(n)
        for m in rng.sample(lambda_masks(n, ka), min(2, len(lambda_masks(n, ka)))):
            a = add_covectors(a, Covector(n, {m: Fraction(rng.randrange(-4, 5) or 1)}))
        b = Covector(n)
        for m in rng.sample(lambda_masks(n, kb), min(2, len(lambda_masks(n, kb)))):
            b = add_covectors(b, Covector(n, {m: Fraction(rng.randrange(-4, 5) or 1)}))
        assert wedge(a, b) == (negate_covector(wedge(b, a)) if (ka * kb) % 2 else wedge(b, a))


def test_wedge_squares_to_zero_and_associates():
    n = 2
    a = add_covectors(w(n, 0), Covector(n, {1 << 2: 3}))
    assert not wedge(a, a)
    b, c = w(n, 1), w(n, 3)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_inner_product_is_monomial_orthonormal():
    n = 1
    assert inner(w(n, 0), w(n, 0)) == 1
    assert inner(w(n, 0), w(n, 1)) == 0
    two_form = wedge(w(n, 0), w(n, 1))
    assert inner(two_form, two_form) == 1
    mixed = add_covectors(Covector(n, {0b11: Fraction(2, 3)}), wedge(w(n, 0), w(n, 2)))
    assert inner(mixed, two_form) == Fraction(2, 3)


def test_weights_count_theta_twice():
    n = 1
    theta = w(n, 2)
    assert weights(w(n, 0)) == {1}
    assert weights(theta) == {2}
    assert weights(wedge(theta, w(n, 0))) == {3}
    mixed = add_covectors(w(n, 0), theta)
    assert weights(mixed) == {1, 2}
    assert pure_weight_part(mixed, 2) == theta
    assert horizontal_part(mixed) == w(n, 0)


def test_dtheta_from_structure_equations():
    for n in (1, 2, 3):
        expected = Covector(n)
        for j in range(n):
            expected = subtract_covectors(expected, wedge(w(n, j), w(n, n + j)))
        assert dtheta(n) == expected
        # horizontal coframe elements are closed
        for i in range(2 * n):
            assert not algebraic_d(w(n, i))


def test_algebraic_d_squares_to_zero():
    rng = random.Random(1)
    for n in (1, 2):
        for _ in range(20):
            h = rng.randrange(2 * n + 1)
            masks = lambda_masks(n, h)
            c = Covector(n, {m: Fraction(rng.randrange(-3, 4)) for m in masks})
            assert not algebraic_d(algebraic_d(c))


def test_lefschetz_requires_horizontal_input():
    n = 1
    with pytest.raises(ValueError):
        lefschetz(w(n, 2))
    assert lefschetz(monomial(n, 0)) == dtheta(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lefschetz_powers_read_off_d_table_equal_the_wedge_powers(n):
    # the rank oracle applies L as d0(theta ^ .) through d_table; the
    # conftest L wedges with d theta, entry for entry the same matrix
    for k in range(2 * n + 1):
        for power in range((2 * n - k) // 2 + 1):
            dst = lambda_masks(n, k + 2 * power, horizontal_only=True)
            cols = []
            for m in lambda_masks(n, k, horizontal_only=True):
                c = monomial(n, m)
                for _ in range(power):
                    c = lefschetz(c)
                cols.append(covector_coords(c, dst))
            assert _lefschetz_power_matrix(n, k, power) == [list(r) for r in zip(*cols)], (k, power)


def test_core_dimensions_match_oracle_and_frozen_values():
    for n, dims in CORE_DIMS.items():
        got = []
        for h in range(2 * n + 2):
            e0 = build_spaces(n, h)
            assert e0.dim == core_dimension_oracle(n, h)
            got.append(e0.dim)
        assert tuple(got) == dims
        # Poincare duality and zero Euler characteristic
        assert got == got[::-1]
        assert sum((-1) ** h * d for h, d in enumerate(got)) == 0


def subspaces_equal(a, b) -> bool:
    """Do two subspaces of the same Lambda^h have the same span?"""
    masks = lambda_masks(a.n, a.degree)
    va = [covector_coords(c, masks) for c in a.basis]
    vb = [covector_coords(c, masks) for c in b.basis]
    rank_a = linalg.rank(va) if va else 0
    rank_b = linalg.rank(vb) if vb else 0
    return rank_a == rank_b and (not va + vb or linalg.rank(va + vb) == rank_a)


def test_build_spaces_agrees_with_case_formulas():
    for n in (1, 2):
        for h in range(2 * n + 2):
            assert subspaces_equal(build_spaces(n, h), case_formula_spaces(n, h))


def test_complement_dimension_identities():
    for n in (1, 2):
        for h, (v, wsp, _) in enumerate(dense_spaces(n)):
            masks = lambda_masks(n, h)
            e0 = build_spaces(n, h)
            d_here = d0_matrix(n, h)
            rank_here = linalg.rank(d_here) if d_here and d_here[0] else 0
            d_below = d0_matrix(n, h - 1) if h > 0 else []
            rank_below = linalg.rank(d_below) if d_below and d_below[0] else 0
            # V complements the image, W complements the kernel
            assert v.dim + rank_below == len(masks)
            assert wsp.dim == rank_here
            assert e0.dim == v.dim - rank_here


def test_core_elements_are_closed_and_orthogonal_to_image():
    for n in (1, 2):
        for h in range(2 * n + 2):
            e0 = build_spaces(n, h)
            for e in e0.basis:
                assert not algebraic_d(e)
                if h > 0:
                    for m in lambda_masks(n, h - 1):
                        assert inner(e, algebraic_d(monomial(n, m))) == 0


def test_core_structure_by_degree():
    for n in (1, 2):
        for h in range(2 * n + 2):
            e0 = build_spaces(n, h)
            for e in e0.basis:
                if h <= n:
                    # horizontal primitive covectors of pure weight h
                    assert is_horizontal(e)
                    assert weights(e) == {h}
                    power = e
                    for _ in range(n - h + 1):
                        power = lefschetz(power)
                    assert not power
                else:
                    # theta wedge a horizontal Lefschetz-kernel element
                    assert not horizontal_part(e)
                    assert weights(e) == {h + 1}
                    beta = theta_complement(e)
                    assert wedge(w(n, 2 * n), beta) == e
                    assert is_horizontal(beta)
                    assert not lefschetz(beta)


def test_d0_keeps_the_singleton_pattern():
    # the premise of the block-by-block build: d0 maps each block into the
    # block of the same pattern, and theta does not enter the pattern
    for n in (1, 2, 3, 4, 5):
        theta = 1 << (2 * n)
        for mask, entry in enumerate(d_table(n)):
            pattern = singleton_pattern(n, mask)
            assert pattern == singleton_pattern(n, mask ^ theta)
            assert all(singleton_pattern(n, target) == pattern for target, _ in entry.d0)
    # omega_1 ^ omega_2 ^ omega_3 ^ theta on H^2: index 1 carries both omega_1
    # and omega_3, index 2 only omega_2
    assert singleton_pattern(2, 0b10111) == 0b00010
    blocks = singleton_blocks(3, lambda_masks(3, 3))
    assert sorted(i for idx in blocks.values() for i in idx) == list(range(35))
    assert max(map(len, blocks.values())) == 3
    sizes = [len(idx) for h in range(10) for idx in singleton_blocks(4, lambda_masks(4, h)).values()]
    assert max(sizes) == 6


def _assert_equal_to_dense(n):
    for h, (_, _, want) in enumerate(dense_spaces(n)):
        got = build_spaces(n, h)
        assert got.basis == want.basis, (n, h)
        assert got.norms2 == want.norms2, (n, h)
        # the same term order as well, which the dict equality above ignores
        assert [list(c.terms) for c in got.basis] == [list(c.terms) for c in want.basis]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_spaces_equals_the_dense_build(n):
    _assert_equal_to_dense(n)


def test_build_spaces_equals_the_dense_build_at_n4():
    start = time.perf_counter()
    _assert_equal_to_dense(4)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, elapsed


def test_core_dimensions_and_closure_at_n5():
    start = time.perf_counter()
    dims = []
    for h in range(12):
        e0 = build_spaces(5, h)
        assert e0.dim == core_dimension_oracle(5, h)
        assert not any(algebraic_d(e) for e in e0.basis)
        dims.append(e0.dim)
    assert dims == [1, 10, 44, 110, 165, 132, 132, 165, 110, 44, 10, 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 60, elapsed


def test_covector_coords_roundtrip():
    n = 2
    masks = lambda_masks(n, 2)
    c = subtract_covectors(Covector(n, {0b11: Fraction(7, 3)}), wedge(w(n, 2), w(n, 4)))
    coords = covector_coords(c, masks)
    assert covector_from_coords(n, masks, coords) == c
