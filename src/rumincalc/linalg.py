"""Small exact linear algebra over Fraction: rref, rank, nullspace and the
Moore-Penrose inverse.

Matrices are lists of lists of Fraction. Everything returns fresh lists; inputs
are never mutated. Sizes here are tiny: the exact core works on blocks of at
most 3, 6 and 10 coframe monomials at n = 3, 4 and 5, so plain Gaussian
elimination with exact pivots is fine.
"""

from __future__ import annotations

from fractions import Fraction


def mat_copy(m):
    return [row[:] for row in m]


def rref(m):
    """Reduced row echelon form. Returns (rref_matrix, pivot_columns)."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1, 1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m):
    if not m:
        return 0
    return len(rref(m)[1])


def nullspace(m):
    """Basis of the right nullspace, one vector per free column."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                if bk[j] != 0:
                    row[j] += f * bk[j]
    return out


def pseudo_inverse(a):
    """The Moore-Penrose inverse of a nonempty matrix, exactly.

    rref gives the full-rank factorization A = F G: F holds the pivot
    columns of A and G the nonzero rows of rref(A). Then
    A+ = G^T (F^T A G^T)^{-1} F^T, and one more rref of [F^T A G^T | F^T]
    gives the last two factors at once.
    """
    rows, cols = len(a), len(a[0])
    red, pivots = rref(a)
    if not pivots:
        return [[Fraction(0)] * rows for _ in range(cols)]
    g_t = [list(col) for col in zip(*red[:len(pivots)])]
    f_t = [[row[p] for row in a] for p in pivots]
    middle = matmul(matmul(f_t, a), g_t)
    solved, _ = rref([m + f for m, f in zip(middle, f_t)])
    return matmul(g_t, [row[len(pivots):] for row in solved])


def dot(u, v):
    return sum((x * y for x, y in zip(u, v) if x != 0 and y != 0), Fraction(0))


def gram_schmidt(vectors):
    """Pairwise-orthogonalize over Q without normalizing (norms stay rational).

    Returns (orthogonal_vectors, squared_norms); zero vectors are dropped.
    """
    ortho = []
    norms2 = []
    for v in vectors:
        w = v[:]
        for u, n2 in zip(ortho, norms2):
            c = dot(w, u) / n2
            if c != 0:
                w = [wi - c * ui for wi, ui in zip(w, u)]
        n2 = dot(w, w)
        if n2 != 0:
            ortho.append(w)
            norms2.append(n2)
    return ortho, norms2
