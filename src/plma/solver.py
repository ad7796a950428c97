"""Solvers for the Monge-Ampere equation in both computable regimes.

Both cases reduce every linear problem to one: a graph Laplacian with
the value 0 on a set of pinned nodes, solved by the package's one entry
curves.solve_laplacian.

Curve case: linear, one exact Poisson solve with source mu - omega0,
normalized to zero omega0-integral: the one normalized potential of
curves (curves.normalized_potential, on the form of curves.node_problem),
which green and solve_poisson also return.  The solve is p-adic: the
integer rows of curves.laplacian_form are factored once modulo a 61-bit
prime, and the solution is lifted and, after every lift, rebuilt over
one common denominator and checked exactly.  A solve
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
  that it converges from any start with nonempty cells.  The iteration
  stops once every float cell volume is within TOLERANCE * Vol(delta) of
  its mass; MAX_ITERATIONS only bounds it, and a step that needs alpha
  below MIN_STEP ends it.  Whatever stops it, the solve has converged
  exactly when every entry of its exact residual is within TOLERANCE *
  Vol(delta), compared on Fractions: the float test only stops the guide.
  These are constants: the solve has no settings, because its residual is
  exact whatever stops it.

The cells are clipped from the polygon one neighbour at a time, and each
edge keeps the label of the neighbour whose halfplane cut it, so the Newton
matrix d vol_i / d w_j = -|facet ij| / |v_i - v_j| is read off the labelled
edges in the same pass that sums the cell volumes (_power_cells): each
trial step yields its volumes and, if accepted, the next Newton matrix.
Only the cells 0..k-2 are clipped, with (k-1)^2 halfplane cuts in all:
the last cell's volume is Vol(delta) minus the others, and its facets are
the edges labelled k-1 of the other cells, each read once, where a facet
between two clipped cells gives half its weight from either side.  A clip
runs its dedup pass only when a cut repeats a neighbouring point.  The
matrix is the weighted Laplacian of the cell adjacency graph, so with w_0
pinned each Newton step is one sparse Laplacian solve in floats,
curves.solve_laplacian on the float form (negated residuals, 1, edges,
1) pinned at {0}: the atoms are its nodes 0..k-1.  It is the same
minimum-degree factorization and substitution that the exact curve
solves run modulo a prime before they lift p-adically; no Newton step
goes through that exact path.  A singular Newton system (GraphError)
ends the solve unconverged, as a stalled step does, and so does a float
operation of the guide that fails (an ArithmeticError: a coordinate or a
mass past the float range, or a difference that underflows to zero): the
solve reports its last accepted weights, the Voronoi start onward.  A
guide with no weights to report, because it fails before its start has
any or they lie too far apart for the grid 2^-50, raises ConvergenceError.

The iteration runs in floating point, on a float copy of the polygon: the
float cells guide, and the exact subdifferential kernel verifies.  The
guide solves a translated copy of the problem, so that its floats carry
the shape of the cells and not their position: delta moved by -c and the
atoms by -e, where c and e are the vertex mean of delta and the atom mean
truncated toward zero to integer points (nothing moves when both means
lie in (-1, 1)).  Moving the atoms changes no cell, and moving delta
changes w_i - w_0 by <c, v_i - v_0>, which is added back exactly.  The
weights are fixed in the gauge w_0 = 0, rounded to the common denominator
GRID = 2^50, snapped to small denominators (which recovers the exact
solution whenever it is rational) and then moved back.  The snap is
`_limit_denominator`, on integers, which returns what
Fraction.limit_denominator(SNAP_DENOMINATOR) returns without the
Fraction comparisons that cost Python 3.11 about 14 us per weight.  It is
checked only when the lcm of its denominators is at most
SNAP_DENOMINATOR**2: every snap that recovers a solution of the
benchmark's targets has an lcm of at most 252, while a generic target's
snap has one of dozens of digits and an exact check that cost most of
the solve.  When the snap is not
checked, the weights on 2^-50 are the snap.  When it fails, or is not
checked, the weights on 2^-50 are returned: one common dyadic denominator
keeps the integers of the exact check small, where a separate rational
approximation per weight made their common denominator grow with k.

The residual of the returned solution is always recomputed exactly, on
integers, from the exact power diagram of F_w in the polytope: the
Legendre transform `dual_transform` finds the corners of every cell, and
the solution g = F_w* it returns carries them, as its integer slopes and
the cells of its subdivision, so the residual reads the cell volumes off
them without walking g: it is `toric.real_measure(g)`, the one measure
that `ma_measure` returns too, less nu (`residual`).  In one dimension
the cells are consecutive intervals and the weights have a closed form.

The solve runs on the target's integer form (geometry.DiscreteMeasure:
its atoms V_i / A and masses M_i / Dm, sorted and distinct), from the
checks to the residual: the guide's atoms are V / A and its masses the
float quotients M_i / Dm, a weight vector is integer numerators over one
denominator (the grid, the snap, the 1-D closed form and the move back by
<c, V_i - V_0> / A alike), F_w is the integer form (V, A, -W, E), and the
residual merges the integer forms of MA(g) and nu over common
denominators.  The only Fractions it builds are the residual's entries,
the points and errors that the report carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import curves
from .curves import ConvergenceError
from .geometry import (
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    _idot,
    _point,
    dual_transform,
    vscale,
    vsub,
    without_digit_limit,
)
from .toric import AdmissibilityError, DegeneratePolytopeError, real_measure


# Newton stops once every float cell volume is within TOLERANCE * Vol(delta)
# of its mass, after MAX_ITERATIONS steps, or when the damping factor falls
# below MIN_STEP; the final weights are snapped to rationals with
# denominators up to SNAP_DENOMINATOR.  A solve has converged when its
# exact residual is within TOLERANCE * Vol(delta), compared on Fractions.
TOLERANCE = Fraction(1, 10**10)
MAX_ITERATIONS = 200
MIN_STEP = 2.0 ** -20
SNAP_DENOMINATOR = 10**6
GRID = 2**50  # the common denominator of the guide's weights


@dataclass(frozen=True)
class SolveReport:
    solution: PLConvexFunction
    residual: tuple  # ((atom, exact error), ...) for the returned solution
    # exact errors of the weights snapped to small rationals; when the snap
    # is not checked (its denominators' lcm exceeds SNAP_DENOMINATOR**2),
    # the weights on 2^-50 are the snap, and this is the residual
    polished_residual: tuple
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# labelled power cells


def _clip_polygon(cell, a, b, j):
    """Intersect a labelled CCW polygon with the halfplane a . u >= b.

    A cell is a list of (p, label) pairs, the label naming the edge from p to
    the next point, and no point equals the next one, cyclically.  Kept
    edges keep their label; the new edge on the line a . u = b gets the
    label j.  Points kept next to each other were next to each other in
    the cell, so only a cut can repeat a point: the one before it, the end
    q of its edge, or, across the wrap, the first.  Only then does the
    dedup pass run.
    """
    out, repeated = [], False
    for (p, lab), (q, _) in zip(cell, cell[1:] + cell[:1]):
        fp = a[0] * p[0] + a[1] * p[1] - b
        fq = a[0] * q[0] + a[1] * q[1] - b
        if fp >= 0:
            out.append((p, lab))
        if fp >= 0 > fq or fp < 0 < fq:
            t = fp / (fp - fq)
            cut = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            repeated = repeated or cut == q or bool(out) and cut == out[-1][0]
            out.append((cut, j if fq < 0 else lab))
    if not (repeated or out and out[0][0] == out[-1][0]):
        return out if len(out) >= 3 else []
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


def _power_cells(ring, atoms, weights, vol):
    """Power cells of the weighted atoms in the CCW polygon ring of volume
    vol: their volumes, and the Newton matrix d vol_i / d w_j as edges
    (i, j, c) of a Laplacian, from one pass over the edges of the cells
    0 .. k - 2.

    Cell i is the ring clipped by <u, v_i - v_j> >= w_j - w_i for every other
    atom j; each edge is labelled by the j whose line carries it, or None on
    the boundary of the polygon, and an empty cell has volume 0.  The edge
    p -> q of cell i labelled j lies on a line perpendicular to
    a = v_i - v_j, so c = |q - p| / |a| = |cross(q - p, a)| / |a|^2 is
    -d vol_i / d w_j (Kitagawa, Merigot and Thibert), and the diagonal makes
    each row sum to zero.  The last cell is the complement: it is not
    clipped, its volume is vol minus the others (in floats, an empty one
    is 0 up to rounding), and its facets are read from the other side, each
    edge labelled k - 1 giving its whole c to the pair.  Every other
    labelled half-edge gives half its c, so the Laplacian of these edges is
    (H + H^T) / 2 off the last row and column and H on them, which is H
    when the cells are exact.  Float clipping can leave cell i a sliver
    edge labelled j while cell j has none labelled i; the halves keep the
    system symmetric all the same.  Arithmetic follows the input types:
    rational in, rational out.
    """
    vols, edges, last = [], [], len(atoms) - 1
    for i, (vi, _) in enumerate(atoms[:last]):
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
                edges.append((i, j, c if j == last else c / 2))
        vols.append(area / 2 if cell else 0)
    vols.append(vol - sum(vols))
    return vols, edges


# ---------------------------------------------------------------------------
# toric solve


def _solution_from_weights(delta, V, A, W, E):
    """dual_transform of F_w = max(<v_i, .> + w_i) over the atoms v_i = V_i / A
    of the target's integer form, sorted and distinct, with the weights
    w_i = W_i / E: the integer form (V, A, -W, E); no Fraction."""
    return dual_transform(PLConvexFunction._of_form((V, A, [-w for w in W], E)), delta)


def residual(g: PLConvexFunction, nu: DiscreteMeasure):
    """Exact per-atom difference between MA(g) and nu: ((point, error), ...)
    sorted by point, over the atoms of `real_measure(g)` and of nu, a zero
    entry kept at each vertex of g where the masses agree.

    Both integer forms are merged over the lcm of their point denominators
    and of their mass denominators, so each entry is one Fraction and the
    Fraction point."""
    (V1, A1, M1, D1), (V2, A2, M2, D2) = real_measure(g).integer_form, nu.integer_form
    A, Dm = math.lcm(A1, A2), math.lcm(D1, D2)
    errors = {}
    for V, a, M, d in ((V1, A1, M1, D1), (V2, A2, [-m for m in M2], D2)):
        for v, m in zip(V, M):
            X = vscale(A // a, v)
            errors[X] = errors.get(X, 0) + m * (Dm // d)
    return tuple((_point(X, A), Fraction(e, Dm)) for X, e in sorted(errors.items()))


def solve_1d_exact(delta: Polytope, nu: DiscreteMeasure):
    """Closed-form weights (W, E), w_i = W_i / E: the cells are consecutive
    intervals of prescribed length.  On integers: delta = [R_0 / Q, ...],
    the atoms V_i / A and masses M_i / Dm of nu's integer form, sorted by
    point.  Cell i ends at the cut a + (M_0 + ... + M_i) / Dm, and
    w_(i+1) = w_i - cut_i (v_(i+1) - v_i), all over E = A Q Dm."""
    (((lo,), _), Q), (V, A, M, Dm) = delta.integer_ring, nu.integer_form
    W, cut = [0], lo * Dm + M[0] * Q  # the cut over Q Dm
    for (v1,), (v2,), m2 in zip(V, V[1:], M[1:]):
        W.append(W[-1] - cut * (v2 - v1))
        cut += m2 * Q
    return W, A * Q * Dm


def _voronoi_weights(delta: Polytope, V, A):
    """Float weights whose power cells are Voronoi cells of sites inside
    delta, for the atoms V_i / A (the integer points of `_integer_points`).

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
    R, Q = delta.integer_ring
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


def _newton(delta, V, A, target, vol):
    """Damped Newton in floats from the Voronoi start, for the atoms V_i / A
    (integer points) of the float masses `target`: (weights, iterations).
    The cells are clipped to delta's ring R_j / Q, each coordinate one
    correctly rounded int division.  A float operation that fails once the
    start has weights ends it at the last accepted weights; one before
    raises."""
    fatoms = [(tuple(x / A for x in X), m) for X, m in zip(V, target)]
    vol = float(vol)
    tol_abs = float(TOLERANCE) * vol
    R, Q = delta.integer_ring
    ring = [tuple(x / Q for x in P) for P in R]
    weights, it = _voronoi_weights(delta, V, A), 0
    try:
        vols, edges = _power_cells(ring, fatoms, weights, vol)
        r = [t - v for t, v in zip(target, vols)]
        # Kitagawa-Merigot-Thibert: keep every cell at least this large.
        eps0 = 0.5 * min(min(target), min(vols))
        while it < MAX_ITERATIONS and max(map(abs, r)) > tol_abs:
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
                tvols, tedges = _power_cells(ring, fatoms, trial, vol)
                tr = [t - v for t, v in zip(target, tvols)]
                if min(tvols) >= eps0 and math.hypot(*tr) <= (1 - alpha / 2) * norm:
                    break
                alpha /= 2
            else:
                break  # the step stalled: report not converged
            weights, edges, r = trial, tedges, tr
    except ArithmeticError:
        pass  # the floats cannot carry the target further
    return weights, it


def _limit_denominator(n, d, N):
    """(p, q): Fraction(n, d).limit_denominator(N) as coprime integers,
    q > 0, for d > 0 and N >= 1, without a Fraction: n / d itself when its
    least denominator is at most N, else the closer of the last convergent
    p1 / q1 of its continued fraction with q1 <= N and the semiconvergent
    (p0 + k p1) / (q0 + k q1) with the largest k that keeps q0 + k q1 <= N,
    p1 / q1 on a tie.  The two lie 1 / (q1 (q0 + k q1)) apart, with n / d
    between them at y / (q1 d) from p1 / q1, where y is the remainder of
    the expansion, so the test is one integer comparison: CPython's
    algorithm, step for step."""
    h = math.gcd(n, d)
    n, d = n // h, d // h
    if d <= N:
        return n, d
    p0, q0, p1, q1, x, y = 0, 1, 1, 0, n, d
    while q0 + x // y * q1 <= N:
        a = x // y
        p0, q0, p1, q1, x, y = p1, q1, p0 + a * p1, q0 + a * q1, y, x - a * y
    k = (N - q0) // q1
    return (p1, q1) if 2 * y * (q0 + k * q1) <= d else (p0 + k * p1, q0 + k * q1)


def _truncated_mean(X, q):
    """The mean of the integer points X / q, q > 0, truncated toward zero
    to an integer point."""
    k = len(X) * q
    return tuple(s // k if s >= 0 else -(-s // k) for s in map(sum, zip(*X)))


def solve_toric(delta: Polytope, nu: DiscreteMeasure) -> SolveReport:
    """Find admissible g with MA(g) = nu (real normalization, mass Vol(delta)).

    The float guide runs damped Newton until every float cell volume is
    within TOLERANCE * Vol(delta) of its mass, for at most MAX_ITERATIONS
    steps.  Its weights are snapped to small rationals, and the snap is
    checked when the lcm of its denominators is at most
    SNAP_DENOMINATOR**2; otherwise the weights on 2^-50 are the snap.
    Whatever stops it, the reported residual is exact, and the
    report says converged exactly when every entry of that residual is
    within TOLERANCE * Vol(delta), compared on Fractions.  A guide that the
    floats cannot carry (an ArithmeticError) ends at its last accepted
    weights, or raises ConvergenceError when it has none on the grid
    2^-50.  nu is read through its integer form only.
    """
    if not delta.is_full_dimensional():
        raise DegeneratePolytopeError("polytope must be full-dimensional")
    V, A, M, Dm = nu.integer_form
    if any(len(v) != delta.dim for v in V):
        raise DimensionError("target atoms and polytope differ in dimension")
    if not M or min(M) <= 0:
        raise AdmissibilityError("target measure must be positive and nonempty")
    vol, total = delta.volume(), nu.total_mass()
    if total != vol:
        # the masses may have more digits than plma reads
        raise AdmissibilityError(without_digit_limit(
            lambda: f"target mass {total} != Vol(delta) = {vol}"))

    if delta.dim == 1:
        g = _solution_from_weights(delta, V, A, *solve_1d_exact(delta, nu))
        res = residual(g, nu)
        return SolveReport(g, res, res, 0, True)

    # the guide solves a copy moved near the origin, exactly: delta by -c
    # and the atoms V / A by -e, the integer points of their means
    # truncated toward zero, so that its floats do not carry the position
    c = _truncated_mean(*delta.integer_ring)
    e = _truncated_mean(V, A)
    try:
        weights, it = _newton(delta.translate(vscale(-1, c)) if any(c) else delta,
                              [vsub(X, vscale(A, e)) for X in V] if any(e) else V, A,
                              [m / Dm for m in M], vol)
        W = [round((w - weights[0]) * GRID) for w in weights]
    except ArithmeticError:
        raise ConvergenceError("the float guide cannot represent this target") from None
    snapped = [_limit_denominator(w, GRID, SNAP_DENOMINATOR) for w in W]
    L = math.lcm(*(q for _, q in snapped))
    snap = [p * (L // q) for p, q in snapped]
    if L > SNAP_DENOMINATOR**2 or all(s * GRID == w * L for s, w in zip(snap, W)):
        # a snap this fine is a generic target's, which it does not solve,
        # and its exact check would cost most of the solve: the grid 2^-50
        # is the snap, as it is when the snap leaves the grid's weights
        snap, L = W, GRID
    weights = [(snap, L), (W, GRID)]
    if any(c):
        # and back: w_i - w_0 = w'_i - w'_0 - <c, v_i - v_0>, on the snap
        # and on the grid alike, <c, V_i - V_0> over A
        back = [_idot(c, vsub(v, V[0])) for v in V]
        weights = [([w * A - E * b for w, b in zip(N, back)], E * A) for N, E in weights]
    g = _solution_from_weights(delta, V, A, *weights[0])
    polished = res = residual(g, nu)
    if snap is not W and any(r != 0 for _, r in polished):
        g = _solution_from_weights(delta, V, A, *weights[1])
        res = residual(g, nu)
    converged = max(abs(e) for _, e in res) <= TOLERANCE * vol
    return SolveReport(g, res, polished, it, converged)


def solve_curve(graph, mu, omega0):
    """Exact f with laplacian(f) = mu - omega0 and omega0-integral zero.

    After the checks of superpose, the one normalized potential
    curves.normalized_potential, which reads d_L off omega0 and which
    green returns for one atom; superpose gives the same function from
    one Green solve per atom of mu.
    """
    curves._check_balance(mu, omega0)
    return curves.normalized_potential(graph, mu, omega0)
