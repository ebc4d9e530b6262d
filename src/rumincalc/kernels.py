"""Homogeneous kernels on H^n: group convolution, decay and mapping probes.

A kernel of type mu is rho^{mu - Q} in a gauge rho; convolution is the direct
quadrature sum of f * k(p) = sum_q f(q) k(q^{-1} p) |cell|. The singular cell
(0 < mu < Q) is replaced by its exact average over a gauge ball of the same
volume, which keeps the whole discrete computation covariant under dilations
on anisotropy-adapted grids; for mu <= 0 the cell is excluded (principal
value) and flagged. The t axis is the centre of the group, so q^{-1} p
depends on the t coordinates of q and p only through their difference. The
sum runs over live horizontal source columns against every output column
and t offset; on the grid's uniform t axis a pair of columns has 2T - 1
offsets for its T^2 (source, output) cell pairs, so the quadrature is a
Toeplitz product along t. Singular cells are searched for only in the
column pairs with |z|^4 < eps^4, which is exact because
rho^4 = |z|^4 + t^2 >= |z|^4. Everything downstream - decay slopes, L^p - L^q
ratio probes and the scalar Sobolev-quotient check - is an invariance test,
never a constant computation, and the fundamental-solution gauge check is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .envelope import derive
from .grid import Grid, discrete_horizontal_derivative
from .group_geometry import (
    dilate,
    from_coords,
    gauge4,
    homogeneous_dimension,
    horizontal_norm2,
    inverse,
    multiply,
)
from .polynomials import Poly

# the candidate t weights a of the gauge |z|^4 + a t^2 in fundamental_gauge_scan;
# Folland's fundamental solution has a = 16
GAUGE_T_WEIGHTS = (1, 4, 8, 12, 16, 20, 32)


def gauge_ball_volume(n: int) -> float:
    """Lebesgue volume of {(|z|^2)^2 + t^2 < 1} in R^{2n+1}.

    Slicing over |z| = s gives 2 * area(S^{2n-1}) *
    int_0^1 s^{2n-1} sqrt(1-s^4) ds, and the s-integral is a Beta value.
    For n = 1 this is pi^2 / 2.
    """
    area = 2.0 * math.pi**n / math.gamma(n)
    radial = math.gamma(n / 2) * math.gamma(1.5) / math.gamma(n / 2 + 1.5) / 4.0
    return 2.0 * area * radial


@dataclass(frozen=True)
class HomogeneousKernel:
    """k(p) = rho(p)^{mu - Q}, homogeneous of degree mu - Q under dilations."""

    n: int
    mu: float

    @property
    def Q(self) -> int:
        return homogeneous_dimension(self.n)

    def evaluate(self, coords) -> np.ndarray:
        # on float arrays rho^{negative} is numpy's inf at the origin; gauge4
        # returns a fresh value, so the power may overwrite it
        rho4 = gauge4(from_coords([np.asarray(c, dtype=float) for c in coords]))
        with np.errstate(divide="ignore"):
            rho4 **= (self.mu - self.Q) / 4.0
        return rho4

    def cell_estimate(self, eps: float):
        """Replacement value for points with gauge below eps.

        Exact average of rho^{mu-Q} over the gauge ball of radius eps when
        that is locally integrable; "pv" requests exclusion; None leaves the
        evaluated values alone (kernel bounded near the origin).
        """
        if self.mu <= 0:
            return "pv"
        if self.mu < self.Q:
            return (self.Q / self.mu) * eps ** (self.mu - self.Q)
        return None


# -- group convolution ---------------------------------------------------------


def group_convolve(f: Grid, kernel, output_points: np.ndarray | None = None,
                   chunk: int = 1 << 22):
    """Direct quadrature of (f * k)(p) = sum_q f(q) k(q^{-1} p) |cell|.

    Returns (Grid, report) on f's own lattice, or (values, report) at the
    supplied output points. The report carries the singular-cell policy that
    was applied ("average", "pv", or "none") and how many evaluations it
    touched, counted once per (source cell, output) pair of the quadrature.

    Left-multiplying by a central element (0, t) only adds t, so for a source
    cell q = (w, t_s) and an output p = (x, t) the value k(q^{-1} p) is
    k((w, 0)^{-1} (x, t - t_s)). The sources are therefore the live horizontal
    columns of f (those holding a nonzero value), shaped (h, 1, 1) at t = 0,
    and the outputs are horizontal columns (1, C, 1) with a t-offset axis, so
    broadcasting runs the group law, the gauge and the kernel on one
    (h, C, D) slab:

    - on the grid, the t axis is uniform and t_o - t_s = d dt depends only on
      the lattice offset d = o - s, so the D = 2T - 1 offsets d dt carry every
      kernel value; one matrix product with F[h, s] and 2T - 1 shifted
      slice-adds along t sum the Toeplitz structure into acc[C, T];
    - at output points, the offset axis is -t_s for the T source t values
      and each output keeps its own t, so the slab holds every (source cell,
      output) value and is contracted against F[h, s] directly.

    Since rho^4 = |z|^4 + t^2 >= |z|^4 in floating point, only
    the (column, column) pairs with |z|^4 < eps^4 can hold a singular
    evaluation, and only their offset rows are checked against the full
    gauge. A replaced slab entry counts once for every live source cell it
    stands for.
    """
    n = f.n
    nv = 2 * n + 1
    T = f.shape[-1]
    axes = [f.axis(i) for i in range(nv)]
    by_column = f.values.reshape(-1, T)
    live = np.any(by_column != 0.0, axis=1)
    F = by_column[live] * f.cell_volume  # (h, T): the live columns' quadrature weights
    support = by_column[live] != 0.0
    horizontal = [c.reshape(-1) for c in np.meshgrid(*axes[:-1], indexing="ij")]
    sources = [c[live] for c in horizontal]

    ds = np.arange(1 - T, T)
    if output_points is None:
        outputs = from_coords([c.reshape(1, -1, 1) for c in horizontal]
                              + [(ds * f.steps()[-1]).reshape(1, 1, -1)])
        # live source cells (h, s) that the slab entry at offset d stands for:
        # those with 0 <= s + d < T
        cum = np.pad(np.cumsum(support, axis=1), ((0, 0), (1, 0)))
        stands_for = cum[:, np.minimum(T, T - ds)] - cum[:, np.maximum(0, -ds)]
    else:
        pts = np.asarray(output_points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != nv:
            raise ValueError("output points need 2n+1 coordinates")
        outputs = from_coords([pts[:, i].reshape(1, -1, 1) for i in range(nv - 1)]
                              + [pts[:, -1].reshape(1, -1, 1) + (-axes[-1]).reshape(1, 1, -1)])
        stands_for = support.astype(int)

    columns, depth = np.broadcast(*outputs.coords()).shape[1:]
    # on the grid acc[(c, d), s] = sum_h k[h, c, d] F[h, s], folded along t below
    acc = np.zeros((columns * depth, T) if output_points is None else columns)
    eps = (f.cell_volume / gauge_ball_volume(n)) ** (1.0 / (2 * n + 2))
    policy = kernel.cell_estimate(eps)
    singular_touched = 0

    per_chunk = max(1, chunk // max(1, columns * depth))
    for start in range(0, F.shape[0], per_chunk):
        stop = min(start + per_chunk, F.shape[0])
        # z = w^{-1} x for the block of source columns against every output
        block = from_coords([c[start:stop, None, None] for c in sources] + [0.0])
        z = multiply(inverse(block), outputs)
        vals = kernel.evaluate(z.coords())
        if policy is not None:
            h2 = horizontal_norm2(z)
            # rho^4 >= |z|^4, so a singular entry lies in an offset row kept here
            cells, cols, _ = np.nonzero(h2 * h2 < eps**4)
            if cells.size:
                near = gauge4(from_coords([c[cells, cols] for c in z.coords()])) < eps**4
                singular_touched += int(stands_for[start + cells][near].sum())
                offset_rows = vals[cells, cols]
                offset_rows[near] = 0.0 if policy == "pv" else policy
                vals[cells, cols] = offset_rows
        if output_points is None:
            acc += vals.reshape(stop - start, -1).T @ F[start:stop]
        else:
            acc += np.tensordot(vals, F[start:stop], axes=([0, 2], [0, 1]))

    report = {
        "cells": int(support.sum()),
        "outputs": int(columns * T if output_points is None else columns),
        "singular_policy": "pv" if policy == "pv" else ("none" if policy is None else "average"),
        "singular_evaluations": singular_touched,
        "equivalent_cell_gauge": eps,
    }
    if output_points is not None:
        return acc, report
    # the output at t index s + d collects acc[(c, d), s]
    acc = acc.reshape(columns, depth, T)
    out = np.zeros((columns, T))
    for j, d in enumerate(ds):
        if d >= 0:
            out[:, d:] += acc[:, j, : T - d]
        else:
            out[:, : T + d] += acc[:, j, -d:]
    return f.copy_with(out.reshape(f.shape)), report


# -- probes --------------------------------------------------------------------


def bump_grid(n: int, half_width: float, resolution: int, support: float) -> Grid:
    """The even bump (1 - |p|^2 / support^2)_+^3 on ``Grid.empty``'s lattice."""
    return _bump_on(Grid.empty(n, half_width, resolution), support)


def _bump_on(g: Grid, support: float) -> Grid:
    """g with the even bump as its values, built in place from sparse axes so
    that the lattice holds one full array, not one per coordinate."""
    sq = sum(m * m for m in g.meshes(sparse=True))
    sq /= -(support**2)
    sq += 1.0
    np.clip(sq, 0.0, None, out=sq)
    sq **= 3
    g.values = sq
    return g


def decay_slope_probe(n: int, mu: float, resolution: int = 64,
                      direction: np.ndarray | None = None) -> dict:
    """Fit the log-log decay of (bump * k) along a gauge ray; slope -> mu - Q.

    Dilating a base point p0 by s and regressing log |f*k| on log s recovers
    the kernel's homogeneity degree, since far from the bump's support
    f * k ~ (integral of f) * k.
    """
    nv = 2 * n + 1
    Q = homogeneous_dimension(n)
    s_values = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
    # the bump of support 1/4 on the lattice of half-width 1/2: only the m
    # horizontal cells per axis whose centres lie in the support,
    # (2k + 1 - N) / 2N in (-1/4, 1/4), can be nonzero, so the lattice keeps
    # those and the full t axis; group_convolve skips zero columns anyway
    m = sum(2 * abs(2 * k + 1 - resolution) < resolution for k in range(resolution))
    shape = (m,) * (2 * n) + (resolution,)
    half_widths = (m / (2 * resolution),) * (2 * n) + (0.25,)
    f = _bump_on(Grid(n, half_widths, shape, np.zeros(shape)), 0.25)
    kernel = HomogeneousKernel(n, mu)
    p0 = np.zeros(nv)
    if direction is None:
        p0[0] = 1.0
    else:
        p0 = np.asarray(direction, dtype=float)
    pts = np.array([dilate(s, from_coords(p0)).coords() for s in s_values])
    vals, report = group_convolve(f, kernel, output_points=pts)
    logs = np.log(np.abs(vals))
    slope = float(np.polyfit(np.log(np.asarray(s_values)), logs, 1)[0])
    expected = mu - Q
    return {
        "n": n,
        "mu": mu,
        "resolution": resolution,
        "expected_slope": expected,
        "fitted_slope": slope,
        "relative_error": abs(slope - expected) / abs(expected),
        "convolution": report,
    }


def _dilated_copy(u: Grid, lam: float) -> Grid:
    """u . delta_lam sampled on the anisotropy-adapted lattice.

    With horizontal extents shrunk by lam and the t extent by lam^2 the
    sample points map exactly onto the original lattice, so the dilate
    reuses the same value array.
    """
    hw = list(u.half_widths)
    scaled = tuple([h / lam for h in hw[:-1]] + [hw[-1] / lam**2])
    return Grid(u.n, scaled, u.shape, u.values.copy())


def critical_exponent(n: int, alpha: float, p: float) -> float:
    """The q with 1/q = 1/p - alpha/Q, at which ||u * k||_q / ||u||_p is
    dilation invariant for a kernel of type alpha."""
    return 1.0 / (1.0 / p - alpha / homogeneous_dimension(n))


def lp_lq_probe(n: int, alpha: float, p: float, qs=(None,),
                lambdas=(1.0, 2.0, 4.0), resolution: int = 20) -> list:
    """||u_lam * k||_q / ||u_lam||_p across dilated bumps u_lam = u . delta_lam.

    At the critical exponent 1/q = 1/p - alpha/Q the ratio is lambda-free;
    any other q drifts like lambda^{Q(1/p - 1/q) - alpha}. Returns one
    report per entry of qs, where None stands for the critical exponent;
    each dilate is convolved once for all of them. Raises ValueError naming
    p and q when a ratio is 0 or not finite, that is when an L^q norm
    leaves the float range.
    """
    Q = homogeneous_dimension(n)
    if not 0 < alpha < Q:
        raise ValueError("need 0 < alpha < Q")
    if not 1 < p < Q / alpha:
        raise ValueError("need 1 < p < Q/alpha")
    q_critical = critical_exponent(n, alpha, p)
    qs = [q_critical if q is None else q for q in qs]
    kernel = HomogeneousKernel(n, alpha)
    base = bump_grid(n, 1.0, resolution, 0.5)
    rows = [[] for _ in qs]
    for lam in lambdas:
        u = _dilated_copy(base, lam)
        conv, conv_report = group_convolve(u, kernel)
        den = u.lp_norm(p)
        for q, q_rows in zip(qs, rows):
            with np.errstate(over="ignore"):
                num = conv.lp_norm(q)
            ratio = num / den
            if not 0.0 < ratio < math.inf:
                raise ValueError(
                    f"L^p-L^q ratio is {ratio} at p = {p!r}, q = {q!r}, lambda = {lam!r}:"
                    " the L^q norm leaves the float range"
                )
            q_rows.append({
                "lambda": lam,
                "ratio": ratio,
                "numerator": num,
                "denominator": den,
                "singular_policy": conv_report["singular_policy"],
            })
    reports = []
    for q, q_rows in zip(qs, rows):
        ratios = [r["ratio"] for r in q_rows]
        reports.append({
            "n": n,
            "alpha": alpha,
            "p": p,
            "q": q,
            "critical_q": q_critical,
            "at_critical": abs(q - q_critical) < 1e-12,
            "expected_drift_exponent": Q * (1.0 / p - 1.0 / q) - alpha,
            "rows": q_rows,
            "max_relative_spread": max(ratios) / min(ratios) - 1.0,
        })
    return reports


def scalar_sobolev_check(n: int, p: float, u: Grid, lambdas=(1.0, 2.0)) -> dict:
    """||u||_q / ||grad_H u||_p with 1/q = 1/p - 1/Q, across dilates of u.

    The ratio is dilation invariant; the dilates ride the adapted lattice so
    the discrete check inherits the invariance exactly. Raises ValueError
    naming p, q and lambda when a ratio is 0 or not finite, as when the L^q
    norm underflows at a large q.
    """
    Q = homogeneous_dimension(n)
    if not 1 < p < Q:
        raise ValueError("need 1 < p < Q")
    _require_interior_support(u)
    q = critical_exponent(n, 1.0, p)
    rows = []
    for lam in lambdas:
        ul = _dilated_copy(u, lam)
        grads = []
        boundary = 0.0
        for i in range(1, 2 * n + 1):
            g, rep = discrete_horizontal_derivative(ul, i)
            grads.append(g.values)
            boundary = max(boundary, rep["boundary_fraction"])
        length = np.sqrt(np.sum([g * g for g in grads], axis=0))
        den = ul.copy_with(length).lp_norm(p)
        with np.errstate(over="ignore"):
            num = ul.lp_norm(q)
        ratio = 0.0 if den == 0.0 else num / den
        if not 0.0 < ratio < math.inf:
            raise ValueError(
                f"Sobolev ratio is {ratio} at p = {p!r}, q = {q!r}, lambda = {lam!r}:"
                " a norm is 0 or leaves the float range"
            )
        rows.append({
            "lambda": lam,
            "ratio": ratio,
            "numerator": num,
            "denominator": den,
            "boundary_fraction": boundary,
        })
    ratios = [r["ratio"] for r in rows]
    top, bottom = max(ratios), min(ratios)
    return {
        "n": n,
        "p": p,
        "q": q,
        "rows": rows,
        "max_relative_spread": top / bottom - 1.0,
    }


def _require_interior_support(u: Grid) -> None:
    shell = np.ones(u.shape, dtype=bool)
    shell[tuple(slice(1, -1) for _ in u.shape)] = False
    if np.any(u.values[shell] != 0.0):
        raise ValueError("input is not supported in the grid interior")


def folland_remainder(n: int, t_weight) -> tuple:
    """(R, F LF) for F = |z|^4 + a t^2, a = t_weight, as polynomials.

    With s = -n/2 and the sub-Laplacian L = sum_i W_i^2 over the horizontal
    frame, L(F^s) = s F^{s-2} R where R = F LF + (s - 1) sum_i (W_i F)^2.
    F^s is harmonic off the origin, the fundamental solution up to a
    constant (Folland, Bull. AMS 79, 1973), exactly when R is zero.
    """
    nv = 2 * n + 1
    s = Fraction(-n, 2)
    F = gauge4(from_coords([Poly.var(nv, i) for i in range(nv)]), t_weight)
    W = [derive(n, i, F) for i in range(2 * n)]
    LF = sum((derive(n, i, w) for i, w in enumerate(W)), Poly.zero(nv))
    squares = sum((w * w for w in W), Poly.zero(nv))
    scale = F * LF
    return scale + squares * (s - 1), scale


def _coefficient_norm(p: Poly) -> float:
    return math.sqrt(sum(float(c * c) for c in p.terms.values()))


def fundamental_gauge_scan(n: int) -> dict:
    """Folland's remainder R_a for each candidate t weight a in GAUGE_T_WEIGHTS.

    Each row holds the weight, the remainder polynomial R_a of
    ``folland_remainder`` and its residual: the coefficient 2-norm of R_a
    over that of F LF, which is 0 exactly when R_a is. The best weight is
    the one with the smallest residual.
    """
    rows = []
    for a in GAUGE_T_WEIGHTS:
        remainder, scale = folland_remainder(n, a)
        rows.append({
            "t_weight": float(a),
            "residual": _coefficient_norm(remainder) / _coefficient_norm(scale),
            "remainder": remainder,
        })
    best = min(rows, key=lambda r: r["residual"])
    return {"n": n, "rows": rows, "best_t_weight": best["t_weight"]}
