"""Shared generators, cached contexts and dense oracles for the test suite."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from rumincalc import linalg
from rumincalc.exterior_weights import (
    _kernel,
    _subspace_from_vectors,
    covector_coords,
    d0_matrix,
    lambda_masks,
)

# the test modules import random_form and random_poly from here
from rumincalc.forms import Form, random_form  # noqa: F401
from rumincalc.polynomials import random_fraction, random_poly
from rumincalc.rumin_complex import RuminContext

_CONTEXTS = {}


def shared_context(n: int) -> RuminContext:
    if n not in _CONTEXTS:
        _CONTEXTS[n] = RuminContext(n)
    return _CONTEXTS[n]


@pytest.fixture(scope="session")
def ctx1():
    return shared_context(1)


@pytest.fixture(scope="session")
def ctx2():
    return shared_context(2)


def random_point_coords(rng: random.Random, nvars: int) -> list:
    return [random_fraction(rng) for _ in range(nvars)]


def random_core_form(rng: random.Random, ctx: RuminContext, h: int, degree: int) -> Form:
    dims = ctx.core_dims()
    return ctx.form_from_core(
        h, [random_poly(rng, 2 * ctx.n + 1, degree, terms=2) for _ in range(dims[h])]
    )


@lru_cache(maxsize=None)
def dense_spaces(n: int) -> tuple:
    """(V, W, E0) of every degree, from nullspaces and Gram-Schmidt over all
    of Lambda^h at once: the oracle for the block-by-block ``build_spaces``."""
    out = []
    for h in range(2 * n + 2):
        masks = lambda_masks(n, h)
        dim = len(masks)
        d_here = d0_matrix(n, h)  # empty at top degree, where d0 ends the complex
        ker = _kernel(d_here, dim)
        if h > 0:
            below = d0_matrix(n, h - 1)
            image_raw = [[below[r][c] for r in range(dim)] for c in range(len(below[0]))]
            red, pivots = linalg.rref(image_raw)
            image = [red[i] for i in range(len(pivots))]
        else:
            image = []
        w_vectors = _kernel(ker, dim)
        v_vectors = _kernel(image, dim)
        e0_vectors = _kernel(list(image) + d_here, dim)
        out.append(tuple(
            _subspace_from_vectors(n, h, masks, vectors)
            for vectors in (v_vectors, w_vectors, e0_vectors)
        ))
    return tuple(out)


def dense_pseudo_inverse(n: int, h: int) -> list:
    """d0^{-1}: Lambda^{h+1} -> Lambda^h from the dense spaces, by one solve
    in the basis (d0 W-basis, V-basis) of all of Lambda^{h+1}."""
    spaces = dense_spaces(n)
    src, dst = lambda_masks(n, h + 1), lambda_masks(n, h)
    d0 = d0_matrix(n, h)
    w_vecs = [covector_coords(c, dst) for c in spaces[h][1].basis]
    columns = [linalg.matvec(d0, w) for w in w_vecs]
    columns += [covector_coords(c, src) for c in spaces[h + 1][0].basis]
    assert len(columns) == len(src)
    aug = [
        [col[i] for col in columns] + [Fraction(int(k == i)) for k in range(len(src))]
        for i in range(len(src))
    ]
    red, pivots = linalg.rref(aug)
    assert pivots == list(range(len(src)))
    out = [[Fraction(0)] * len(src) for _ in dst]
    for w, row in zip(w_vecs, red):
        for r in range(len(dst)):
            if w[r] != 0:
                out[r] = [o + w[r] * c for o, c in zip(out[r], row[len(src):])]
    return out
