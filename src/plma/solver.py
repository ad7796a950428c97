"""Solvers for the Monge-Ampere equation in both computable regimes.

Curve case: linear, delegates to the exact superposition of Green
potentials.

Toric case: the variational problem is reduced to its finite-dimensional
dual.  Each target atom v_i carries a weight w_i; the weighted max
F_w(u) = max_i(<u, v_i> + w_i) subdivides the polytope into power cells
whose volumes are the Monge-Ampere masses of the Legendre transform of
F_w.  The concave dual objective  sum_i nu_i w_i - integral of F_w  is
maximized by a damped Newton method on the gradient nu_i - vol(cell_i),
with a monotone single-weight fallback when a needed cell disappears.
The iteration runs in floating point; the final weights are converted to
rationals and the residual is recomputed exactly through the independent
subdifferential-volume path, both as is and after snapping to small
denominators (which often recovers the exact solution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import (
    AffineFunctional,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    dot,
    dual_transform,
    ring_area,
    vsub,
)
from .toric import AdmissibilityError, DegeneratePolytopeError, ma_measure


class ConvergenceError(RuntimeError):
    """An iterative solve stopped without a verified result (CLI exit 3)."""


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-10
    max_iterations: int = 200
    min_step: float = 2.0 ** -20
    snap_denominator: int = 10**6

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    solution: PLConvexFunction
    residual: tuple  # ((atom, error), ...) for the returned solution
    polished_residual: tuple  # exact errors after snapping weights to small rationals
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# exact power cells


def _clip_interval(delta: Polytope, atoms, weights, i):
    lo, hi = delta.vertices[0][0], delta.vertices[-1][0]
    vi, wi = atoms[i][0], weights[i]
    for j, (vj, _) in enumerate(atoms):
        if j == i:
            continue
        a = vi - vj
        b = weights[j] - wi
        # need a*u >= b
        if a > 0:
            lo = max(lo, b / a)
        elif a < 0:
            hi = min(hi, b / a)
        elif b > 0:
            return None
    if lo >= hi:
        return None
    return (lo, hi)


def _clip_polygon(ring, a, b):
    """Intersect a CCW polygon with the halfplane a . u >= b."""
    out = []
    m = len(ring)
    for idx in range(m):
        p, q = ring[idx], ring[(idx + 1) % m]
        fp, fq = dot(a, p) - b, dot(a, q) - b
        if fp >= 0:
            out.append(p)
            if fq < 0:
                t = fp / (fp - fq)
                out.append(tuple(pc + t * (qc - pc) for pc, qc in zip(p, q)))
        elif fq > 0:
            t = fp / (fp - fq)
            out.append(tuple(pc + t * (qc - pc) for pc, qc in zip(p, q)))
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) >= 2 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup if len(dedup) >= 3 else None


def _power_cells(delta: Polytope, atoms, weights):
    """Cell descriptions and volumes for the weighted subdivision.

    Arithmetic follows the input types: rational in, rational out.
    """
    n = delta.dim
    cells, vols = [], []
    if n == 1:
        for i in range(len(atoms)):
            iv = _clip_interval(delta, atoms, weights, i)
            cells.append(iv)
            vols.append(iv[1] - iv[0] if iv else Fraction(0))
        return cells, vols
    base = delta.ring()
    for i, (vi, _) in enumerate(atoms):
        ring = base
        for j, (vj, _) in enumerate(atoms):
            if j == i or ring is None:
                continue
            ring = _clip_polygon(ring, vsub(vi, vj), weights[j] - weights[i])
        cells.append(ring)
        vols.append(ring_area(ring) if ring else Fraction(0))
    return cells, vols


def _facet_length(cell, a, b):
    """Float length of the part of the cell boundary on the line a . u = b."""
    scale = 1.0 + max(abs(float(dot(a, p))) for p in cell)
    pts = sorted({p for p in cell if abs(float(dot(a, p)) - float(b)) <= 1e-9 * scale})
    if len(pts) < 2:
        return 0.0
    d = vsub(pts[-1], pts[0])
    return math.sqrt(float(d[0]) ** 2 + float(d[1]) ** 2)


# ---------------------------------------------------------------------------
# toric solve


def _solution_from_weights(delta, atoms, weights):
    pieces = [AffineFunctional(v, -w) for (v, _), w in zip(atoms, weights)]
    F = PLConvexFunction.from_pieces(pieces, prune=False)
    return dual_transform(F, delta)


def _exact_residual(g, nu, delta):
    got = ma_measure(g, delta, check=False).measure_NR
    locs = sorted({p for p, _ in got.atoms} | {p for p, _ in nu.atoms})
    return tuple((p, got.mass_at(p) - nu.mass_at(p)) for p in locs)


def solve_1d_exact(delta: Polytope, nu: DiscreteMeasure):
    """Closed-form weights: cells are consecutive intervals of prescribed length."""
    a = delta.vertices[0][0]
    atoms = list(nu.atoms)  # sorted by location
    weights = [Fraction(0)]
    cut = a + atoms[0][1]
    for (v1, _), (v2, m2) in zip(atoms, atoms[1:]):
        weights.append(weights[-1] - cut * (v2[0] - v1[0]))
        cut += m2
    return weights


def solve_toric(delta: Polytope, nu: DiscreteMeasure, opts: SolverOptions | None = None,
                initial_weights=None) -> SolveReport:
    """Find admissible g with MA(g) = nu (real normalization, mass Vol(delta))."""
    opts = opts or SolverOptions()
    if not delta.is_full_dimensional():
        raise DegeneratePolytopeError("polytope must be full-dimensional")
    if not nu.is_positive() or not nu.atoms:
        raise AdmissibilityError("target measure must be positive and nonempty")
    vol = delta.volume()
    if nu.total_mass() != vol:
        raise AdmissibilityError(
            f"target mass {nu.total_mass()} != Vol(delta) = {vol}"
        )
    atoms = list(nu.atoms)
    k = len(atoms)

    if delta.dim == 1:
        weights = solve_1d_exact(delta, nu)
        g = _solution_from_weights(delta, atoms, weights)
        res = _exact_residual(g, nu, delta)
        return SolveReport(g, res, res, 0, True)

    fatoms = [(tuple(float(c) for c in v), float(m)) for v, m in atoms]
    if initial_weights is None:
        weights = [0.0] * k
    else:
        weights = [float(w) for w in initial_weights]
    target = np.array([m for _, m in fatoms])
    tol_abs = opts.tolerance * float(vol)

    def residual_vec(vols):
        return target - np.array([float(v) for v in vols])

    cells, vols = _power_cells(delta, fatoms, weights)
    r = residual_vec(vols)
    it = 0
    while it < opts.max_iterations and np.max(np.abs(r)) > tol_abs:
        it += 1
        H = np.zeros((k, k))
        for i in range(k):
            if cells[i] is None:
                continue
            for j in range(k):
                if j == i or cells[j] is None:
                    continue
                a = vsub(fatoms[i][0], fatoms[j][0])
                b = weights[j] - weights[i]
                ln = _facet_length(cells[i], a, b)
                if ln > 0:
                    dist = math.hypot(a[0], a[1])
                    H[i][j] = -ln / dist
                    H[i][i] += ln / dist
        # vol_i grows with w_i, so H is the (positive semidefinite) negated
        # Hessian of the dual objective; pin the first weight and solve.
        try:
            step_red = np.linalg.solve(H[1:, 1:], r[1:])
            step = np.concatenate([[0.0], step_red])
        except np.linalg.LinAlgError:
            step = None
        progressed = False
        if step is not None and np.all(np.isfinite(step)):
            alpha = 1.0
            while alpha >= opts.min_step:
                trial = [w + alpha * s for w, s in zip(weights, step)]
                tcells, tvols = _power_cells(delta, fatoms, trial)
                tr = residual_vec(tvols)
                if np.max(np.abs(tr)) < np.max(np.abs(r)) and all(v > 0 for v in tvols):
                    weights, cells, vols, r = trial, tcells, tvols, tr
                    progressed = True
                    break
                alpha /= 2
        if not progressed:
            # monotone fix of the worst cell: its volume grows with its weight
            i = int(np.argmax(np.abs(r)))
            wi0 = weights[i]

            def vol_i(shift):
                trial = list(weights)
                trial[i] = wi0 + shift
                return float(_power_cells(delta, fatoms, trial)[1][i])

            want = target[i]
            lo, hi = -1.0, 1.0
            while vol_i(hi) < want and hi < 2**20:
                hi *= 2
            while vol_i(lo) > want and lo > -(2**20):
                lo *= 2
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if vol_i(mid) < want:
                    lo = mid
                else:
                    hi = mid
            weights = list(weights)
            weights[i] = wi0 + 0.5 * (lo + hi)
            cells, vols = _power_cells(delta, fatoms, weights)
            r = residual_vec(vols)

    converged = bool(np.max(np.abs(r)) <= tol_abs)
    wfrac = [Fraction(w).limit_denominator(10**15) for w in weights]
    g = _solution_from_weights(delta, atoms, wfrac)
    res = tuple((p, v - m) for (p, m), v in zip(atoms, vols))
    snapped = [w.limit_denominator(opts.snap_denominator) for w in wfrac]
    g_snap = _solution_from_weights(delta, atoms, snapped)
    polished = _exact_residual(g_snap, nu, delta)
    if all(e == 0 for _, e in polished):
        g = g_snap
        res = polished
    return SolveReport(g, res, polished, it, converged)


def residual(g: PLConvexFunction, nu: DiscreteMeasure, delta: Polytope):
    """Exact per-atom difference between MA(g) and nu."""
    return _exact_residual(g, nu, delta)


def solve_curve(graph, mu, omega0):
    """Exact curve solve: superposition of Green potentials."""
    from .curves import superpose

    return superpose(graph, mu, omega0)
