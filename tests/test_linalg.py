import random
import time
from fractions import Fraction

from rumincalc.exterior_weights import _d0_between, lambda_masks, singleton_blocks
from rumincalc.linalg import matmul, pseudo_inverse, rank


def transpose(m):
    return [list(col) for col in zip(*m)]


def assert_penrose(a, p):
    """The four Penrose equations, exactly: A P A = A, P A P = P, and A P
    and P A symmetric. They determine the Moore-Penrose inverse uniquely."""
    assert len(p) == len(a[0]) and all(len(row) == len(a) for row in p)
    ap, pa = matmul(a, p), matmul(p, a)
    assert matmul(ap, a) == a
    assert matmul(pa, p) == p
    assert ap == transpose(ap)
    assert pa == transpose(pa)


def test_pseudo_inverse_satisfies_the_penrose_equations():
    rng = random.Random(5)
    for _ in range(40):
        # rectangular, and of rank below both sides: a product through r < min
        rows, cols = rng.sample(range(1, 8), 2)
        r = rng.randrange(min(rows, cols))
        left = [[Fraction(rng.randrange(-3, 4)) for _ in range(r)] for _ in range(rows)]
        right = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(cols)]
                 for _ in range(r)]
        a = matmul(left, right) if r else [[Fraction(0)] * cols for _ in range(rows)]
        assert rank(a) < min(rows, cols)
        assert_penrose(a, pseudo_inverse(a))
    zero = [[Fraction(0)] * 4 for _ in range(3)]
    assert pseudo_inverse(zero) == [[0] * 3 for _ in range(4)]
    assert_penrose(zero, pseudo_inverse(zero))
    row = [[Fraction(1), Fraction(-2), Fraction(0), Fraction(3)]]
    # a single row r has r^+ = r^T / |r|^2
    assert pseudo_inverse(row) == [[x / 14] for x in row[0]]
    assert_penrose(row, pseudo_inverse(row))


def test_pseudo_inverse_of_every_d0_block_up_to_n5():
    start = time.perf_counter()
    blocks = 0
    for n in (1, 2, 3, 4, 5):
        for h in range(2 * n + 1):
            lower, upper = lambda_masks(n, h), lambda_masks(n, h + 1)
            upper_blocks = singleton_blocks(n, upper)
            for pattern, rows in singleton_blocks(n, lower).items():
                cols = upper_blocks.get(pattern)
                if cols:
                    d0 = _d0_between(n, [lower[r] for r in rows], [upper[c] for c in cols])
                    assert_penrose(d0, pseudo_inverse(d0))
                    blocks += 1
    assert blocks > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60, elapsed
