"""Solvers for the Monge-Ampere equation in both computable regimes.

Both cases reduce every linear problem to one: a graph Laplacian with
the value 0 on a set of pinned nodes, solved by the package's one entry
curves.solve_laplacian.

Curve case: linear, one exact Poisson solve with source mu - omega0,
normalized to zero omega0-integral: the one normalized potential of
curves (curves.normalized_potential), which green also returns.  The
solve is p-adic: the integer rows of curves.laplacian_form are factored
once modulo a 61-bit prime, and the solution is lifted and, after every
lift, rebuilt over one common denominator and checked exactly.  A solve
that passes its Hadamard bound on the lifts without a solution raises
ConvergenceError, which curves defines and this module exports.

Toric case: the variational problem is reduced to its finite-dimensional
dual, semi-discrete optimal transport.  Each target atom v_i carries a
weight w_i; the weighted max F_w(u) = max_i(<u, v_i> + w_i) subdivides the
polytope into power cells whose volumes are the Monge-Ampere masses of the
Legendre transform of F_w.  The concave dual objective
sum_i nu_i w_i - integral of F_w  is maximized by damped Newton on the
gradient nu_i - vol(cell_i), the one method of the 2-D solve:

- The start is a Voronoi diagram: the atoms are shrunk affinely to sites
  inside the polytope, and the weights make each cell the Voronoi cell of
  its site, so every cell starts nonempty.  The weights are exact, on
  integers, and rounded to float once each.
- A step w + alpha d (alpha = 1, 1/2, ...) is taken when every cell keeps
  area at least eps0 = min(min_i nu_i, smallest starting cell) / 2 and the
  residual norm drops to (1 - alpha/2) times its current value.  This is
  the step of Kitagawa, Merigot and Thibert (arXiv:1603.05579), who prove
  that it converges from any start with nonempty cells.  A step that needs
  alpha below MIN_STEP ends the solve unconverged.

The cells are clipped from the polygon one neighbour at a time, and each
edge keeps the label of the neighbour whose halfplane cut it, so the Newton
matrix d vol_i / d w_j = -|facet ij| / |v_i - v_j| is read off the labelled
edges in the same pass that sums the cell volumes (_power_cells): each
trial step yields its volumes and, if accepted, the next Newton matrix.
It is the weighted Laplacian of the cell adjacency graph, so with w_0
pinned each Newton step is one sparse Laplacian solve in floats,
curves.solve_laplacian on the float form (negated residuals, 1, edges,
1) pinned at {0}: the atoms are its nodes 0..k-1.  It is the same
minimum-degree factorization and substitution that the exact curve
solves run modulo a prime before they lift p-adically; no Newton step
goes through that exact path.  A singular Newton system (GraphError)
ends the solve unconverged, as a stalled step does.

The iteration runs in floating point, on a float copy of the polygon: the
float cells guide, and the exact subdifferential kernel verifies.  The
weights are fixed in the gauge w_0 = 0, rounded to the common denominator
2^50 and snapped to small denominators, which recovers the exact solution
whenever it is rational.  When the snap fails, the weights on 2^-50 are
returned: one common dyadic denominator keeps the integers of the exact
check small, where a separate rational approximation per weight made
their common denominator grow with k.  The residual of the returned
solution is always recomputed exactly through the independent
subdifferential-volume path.  In one
dimension the cells are consecutive intervals and the weights have a
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import curves
from .curves import ConvergenceError
from .geometry import (
    AffineFunctional,
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    _integer_points,
    dual_transform,
)
from .toric import AdmissibilityError, DegeneratePolytopeError, ma_measure


# Newton gives up once the damping factor falls below MIN_STEP; the final
# weights are snapped to rationals with denominators up to SNAP_DENOMINATOR.
MIN_STEP = 2.0 ** -20
SNAP_DENOMINATOR = 10**6


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    solution: PLConvexFunction
    residual: tuple  # ((atom, exact error), ...) for the returned solution
    polished_residual: tuple  # exact errors after snapping weights to small rationals
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# labelled power cells


def _clip_polygon(cell, a, b, j):
    """Intersect a labelled CCW polygon with the halfplane a . u >= b.

    A cell is a list of (p, label) pairs, the label naming the edge from p to
    the next point.  Kept edges keep their label; the new edge on the line
    a . u = b gets the label j.
    """
    out = []
    for (p, lab), (q, _) in zip(cell, cell[1:] + cell[:1]):
        fp = a[0] * p[0] + a[1] * p[1] - b
        fq = a[0] * q[0] + a[1] * q[1] - b
        if fp >= 0:
            out.append((p, lab))
        if fp >= 0 > fq or fp < 0 < fq:
            t = fp / (fp - fq)
            cut = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            out.append((cut, j if fq < 0 else lab))
    # a repeated point starts a zero-length edge: keep the label of the edge
    # that leaves it
    dedup = []
    for p, lab in out:
        if dedup and p == dedup[-1][0]:
            dedup[-1] = (p, lab)
        else:
            dedup.append((p, lab))
    if len(dedup) >= 2 and dedup[0][0] == dedup[-1][0]:
        dedup.pop()
    return dedup if len(dedup) >= 3 else []


def _power_cells(ring, atoms, weights):
    """Power cells of the weighted atoms in the CCW polygon ring: their
    volumes, and the Newton matrix d vol_i / d w_j as edges (i, j, c / 2)
    of a Laplacian, from one pass over each cell's edges.

    Cell i is the ring clipped by <u, v_i - v_j> >= w_j - w_i for every other
    atom j; each edge is labelled by the j whose line carries it, or None on
    the boundary of the polygon, and an empty cell has volume 0.  The edge
    p -> q of cell i labelled j lies on a line perpendicular to
    a = v_i - v_j, so c = |q - p| / |a| = |cross(q - p, a)| / |a|^2 is
    -d vol_i / d w_j (Kitagawa, Merigot and Thibert), and the diagonal makes
    each row sum to zero.  Each labelled half-edge gives half its c to the
    undirected pair, so the Laplacian of these edges is (H + H^T) / 2, which
    is H when the cells are exact.  Float clipping can leave cell i a sliver
    edge labelled j while cell j has none labelled i; the halves keep the
    system symmetric all the same.  Arithmetic follows the input types:
    rational in, rational out.
    """
    vols, edges = [], []
    for i, (vi, _) in enumerate(atoms):
        cell = [(p, None) for p in ring]
        for j, (vj, _) in enumerate(atoms):
            if j != i and cell:
                cell = _clip_polygon(
                    cell, (vi[0] - vj[0], vi[1] - vj[1]), weights[j] - weights[i], j
                )
        area = 0
        for (p, j), (q, _) in zip(cell, cell[1:] + cell[:1]):
            area += p[0] * q[1] - p[1] * q[0]
            if j is not None:
                a0, a1 = vi[0] - atoms[j][0][0], vi[1] - atoms[j][0][1]
                c = abs((q[0] - p[0]) * a1 - (q[1] - p[1]) * a0) / (a0 * a0 + a1 * a1)
                edges.append((i, j, c / 2))
        vols.append(area / 2 if cell else 0)
    return vols, edges


# ---------------------------------------------------------------------------
# toric solve


def _solution_from_weights(delta, atoms, weights):
    F = PLConvexFunction(tuple(AffineFunctional(v, -w) for (v, _), w in zip(atoms, weights)))
    return dual_transform(F, delta)


def residual(g: PLConvexFunction, nu: DiscreteMeasure, delta: Polytope):
    """Exact per-atom difference between MA(g) and nu."""
    got = ma_measure(g, delta, check=False).measure_NR.masses
    want = nu.masses
    zero = Fraction(0)
    return tuple(
        (p, got.get(p, zero) - want.get(p, zero)) for p in sorted(got.keys() | want.keys())
    )


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


def _voronoi_weights(delta: Polytope, atoms):
    """Float weights whose power cells are Voronoi cells of sites inside delta.

    The sites are p_i = c + t (v_i - m), with c the vertex mean of delta, m
    the atom mean and t half the largest scale that keeps every site in
    delta (t = 1 when no direction v_i - m meets a side).  Since <u, p_i> -
    |p_i|^2/2 = t(<u, v_i> + w_i) + (terms without i) for w_i = -|p_i|^2 /
    (2t), cell i is the Voronoi cell of p_i: it contains p_i, so it is
    nonempty.

    It runs on integers: the n vertices of delta are R_j / Q and the k
    atoms V_i / A, so c = sum R / (n Q) and v_i - m = (k V_i - sum V) / (k A).
    Each weight is rounded to float once, from its exact value.
    """
    R, Q = delta._integer_ring
    V, A = _integer_points([v for v, _ in atoms])
    n, k = len(R), len(V)
    sR = (sum(r[0] for r in R), sum(r[1] for r in R))
    sV = (sum(v[0] for v in V), sum(v[1] for v in V))
    dirs = [(k * v[0] - sV[0], k * v[1] - sV[1]) for v in V]
    # c + t d stays in the half-plane <h, u> >= e of delta's table while
    # <h, c> - e + t <h, d> >= 0, that is, while t <= N k A / (n Q M) with
    # the integers N = <h, sum R> - n Q e and M = -<h, k V - sum V>.
    limit = None  # the least N / M, compared by cross-multiplication
    for (h0, h1), e in delta._halfplanes:
        N = h0 * sR[0] + h1 * sR[1] - n * Q * e
        for d0, d1 in dirs:
            M = -h0 * d0 - h1 * d1
            if M > 0 and (limit is None or N * limit[1] < limit[0] * M):
                limit = (N, M)
    # t = tn / td: half the least limit, or 1
    tn, td = (1, 1) if limit is None else (limit[0] * k * A, 2 * n * Q * limit[1])
    # site i is (a sum R + b d_i) / (n Q a), and w_i = -td |site i|^2 / (2 tn)
    a, b = td * k * A, n * Q * tn
    den = 2 * tn * (n * Q * a) ** 2
    return [-(td * ((a * sR[0] + b * d0) ** 2 + (a * sR[1] + b * d1) ** 2)) / den
            for d0, d1 in dirs]


def solve_toric(delta: Polytope, nu: DiscreteMeasure, opts: SolverOptions | None = None) -> SolveReport:
    """Find admissible g with MA(g) = nu (real normalization, mass Vol(delta))."""
    opts = opts or SolverOptions()
    if not delta.is_full_dimensional():
        raise DegeneratePolytopeError("polytope must be full-dimensional")
    if any(len(v) != delta.dim for v, _ in nu.atoms):
        raise DimensionError("target atoms and polytope differ in dimension")
    if not nu.is_positive() or not nu.atoms:
        raise AdmissibilityError("target measure must be positive and nonempty")
    vol = delta.volume()
    if nu.total_mass() != vol:
        raise AdmissibilityError(
            f"target mass {nu.total_mass()} != Vol(delta) = {vol}"
        )
    atoms = list(nu.atoms)

    if delta.dim == 1:
        weights = solve_1d_exact(delta, nu)
        g = _solution_from_weights(delta, atoms, weights)
        res = residual(g, nu, delta)
        return SolveReport(g, res, res, 0, True)

    fatoms = [(tuple(float(c) for c in v), float(m)) for v, m in atoms]
    target = [m for _, m in fatoms]
    tol_abs = opts.tolerance * float(vol)

    def residual_vec(vols):
        return [t - v for t, v in zip(target, vols)]

    ring = [tuple(map(float, p)) for p in delta.ring()]
    weights = _voronoi_weights(delta, atoms)
    vols, edges = _power_cells(ring, fatoms, weights)
    r = residual_vec(vols)
    # Kitagawa-Merigot-Thibert: keep every cell at least this large.
    eps0 = 0.5 * min(min(target), min(vols))
    it = 0
    while it < opts.max_iterations and max(map(abs, r)) > tol_abs:
        it += 1
        # vol_i grows with w_i, so H is the (positive semidefinite) negated
        # Hessian of the dual objective, a graph Laplacian: pin the first
        # weight and solve H d = r.
        try:
            step, _ = curves.solve_laplacian(([-ri for ri in r], 1, edges, 1), {0})
        except curves.GraphError:
            break
        alpha, norm = 1.0, math.hypot(*r)
        while alpha >= MIN_STEP:
            trial = [w + alpha * s for w, s in zip(weights, step)]
            tvols, tedges = _power_cells(ring, fatoms, trial)
            tr = residual_vec(tvols)
            if min(tvols) >= eps0 and math.hypot(*tr) <= (1 - alpha / 2) * norm:
                break
            alpha /= 2
        else:
            break  # the step stalled: report not converged
        weights, edges, r = trial, tedges, tr

    converged = max(map(abs, r)) <= tol_abs
    wfrac = [Fraction(round((w - weights[0]) * 2**50), 2**50) for w in weights]
    g = _solution_from_weights(
        delta, atoms, [w.limit_denominator(SNAP_DENOMINATOR) for w in wfrac]
    )
    polished = residual(g, nu, delta)
    res = polished
    if any(e != 0 for _, e in polished):
        g = _solution_from_weights(delta, atoms, wfrac)
        res = residual(g, nu, delta)
    return SolveReport(g, res, polished, it, converged)


def solve_curve(graph, mu, omega0):
    """Exact f with laplacian(f) = mu - omega0 and omega0-integral zero.

    After the checks of superpose, the one normalized potential
    curves.normalized_potential, which green returns for one atom;
    superpose gives the same function from one Green solve per atom of mu.
    """
    return curves.normalized_potential(graph, mu, omega0, curves._check_balance(mu, omega0))
