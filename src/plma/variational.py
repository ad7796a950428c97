"""Energy functional, envelopes, and the orthogonality property.

Energies are relative: energy(g, g0) is defined through the telescoping
mixed-measure formula and vanishes at g = g0.  All toric masses carry the
analytic normalization (n! times the real measure), so that adding a
constant c to the argument adds c times the degree.

Envelopes come in two flavours.  Toric: the largest admissible convex
minorant, computed exactly through Legendre transforms over the polytope.
Curve: the largest subharmonic minorant, found by projected Gauss-Seidel
on a subdivided graph followed by an exact reconstruction that is
verified against the obstacle and the subharmonicity constraint; the
numeric sweep only ever proposes a contact pattern, every reported digit
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import curves
from .curves import (
    GraphMeasure,
    GraphPLFunction,
    MetricGraph,
    SubharmonicityError,
    laplacian,
)
from .geometry import (
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    as_fraction,
    as_point,
    breakpoints,
    convex_envelope,
    dual_transform,
    support_function,
)
from .solver import ConvergenceError
from .toric import AdmissibilityError, degree, ma_measure, mixed_ma


class EnvelopeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# energy


def energy_toric(g: PLConvexFunction, g0: PLConvexFunction, delta: Polytope) -> Fraction:
    """Relative energy of g against g0 over the polytope; exact rational."""
    n = delta.dim
    scale = factorial(n)
    total = Fraction(0)
    for j in range(n + 1):
        mm = mixed_ma([g] * j + [g0] * (n - j), delta)
        total += scale * mm.integrate(lambda p: g(p) - g0(p))
    return total / (n + 1)


def energy_curve(f: GraphPLFunction, graph: MetricGraph, omega0: GraphMeasure) -> Fraction:
    """Relative energy of the potential f on a metric graph."""
    ma = curves.ma_curve(f, graph, omega0)
    return (ma.integrate(graph, f) + omega0.integrate(graph, f)) / 2


def f_mu_toric(
    g: PLConvexFunction,
    mu: DiscreteMeasure,
    g0: PLConvexFunction,
    delta: Polytope,
) -> Fraction:
    """energy minus the pairing of g - g0 with mu (mu of analytic mass)."""
    if mu.total_mass() != degree(delta):
        raise AdmissibilityError("mu must have total mass equal to the degree")
    return energy_toric(g, g0, delta) - mu.integrate(lambda p: g(p) - g0(p))


def f_mu_curve(
    f: GraphPLFunction, mu: GraphMeasure, graph: MetricGraph, omega0: GraphMeasure
) -> Fraction:
    if mu.total_mass() != omega0.total_mass():
        raise curves.MassBalanceError("mu must have the same mass as the reference")
    return energy_curve(f, graph, omega0) - mu.integrate(graph, f)


# ---------------------------------------------------------------------------
# toric obstacles and envelopes


@dataclass(frozen=True)
class PiecewiseLinear1D:
    """Free-form continuous PL function on the line.

    Breakpoint list plus the two recession slopes; not necessarily convex.
    """

    points: tuple  # ((v, y), ...), strictly increasing v
    left_slope: Fraction
    right_slope: Fraction

    @staticmethod
    def build(points, left_slope, right_slope) -> "PiecewiseLinear1D":
        pts = tuple(sorted((as_fraction(v), as_fraction(y)) for v, y in points))
        if not pts:
            raise ValueError("need at least one breakpoint")
        if any(b[0] == a[0] for a, b in zip(pts, pts[1:])):
            raise ValueError("duplicate breakpoint abscissae")
        return PiecewiseLinear1D(pts, as_fraction(left_slope), as_fraction(right_slope))

    @staticmethod
    def from_convex(g: PLConvexFunction) -> "PiecewiseLinear1D":
        if g.dim != 1:
            raise ValueError("1-D only")
        bps = breakpoints(g)
        slopes = sorted(s[0] for s in g.slopes)
        if not bps:
            v0 = Fraction(0)
            return PiecewiseLinear1D(((v0, g((v0,))),), slopes[0], slopes[-1])
        pts = tuple((v[0], g(v)) for v in bps)
        return PiecewiseLinear1D(pts, slopes[0], slopes[-1])

    def __call__(self, v) -> Fraction:
        v = as_point(v)[0] if isinstance(v, (tuple, list)) else as_fraction(v)
        pts = self.points
        if v <= pts[0][0]:
            return pts[0][1] + self.left_slope * (v - pts[0][0])
        if v >= pts[-1][0]:
            return pts[-1][1] + self.right_slope * (v - pts[-1][0])
        for (v1, y1), (v2, y2) in zip(pts, pts[1:]):
            if v1 <= v <= v2:
                return y1 + (y2 - y1) * (v - v1) / (v2 - v1)
        raise AssertionError("unreachable")

    def combine(self, other: "PiecewiseLinear1D", a, b) -> "PiecewiseLinear1D":
        a, b = as_fraction(a), as_fraction(b)
        xs = sorted({v for v, _ in self.points} | {v for v, _ in other.points})
        pts = tuple((x, a * self(x) + b * other(x)) for x in xs)
        return PiecewiseLinear1D(
            pts,
            a * self.left_slope + b * other.left_slope,
            a * self.right_slope + b * other.right_slope,
        )

    def __add__(self, other):
        return self.combine(other, 1, 1)

    def scale(self, c):
        c = as_fraction(c)
        return PiecewiseLinear1D(
            tuple((v, c * y) for v, y in self.points), c * self.left_slope, c * self.right_slope
        )


@dataclass(frozen=True)
class MinOfConvex:
    """Pointwise minimum of finitely many convex PL functions (any dimension)."""

    parts: tuple

    @staticmethod
    def build(parts) -> "MinOfConvex":
        parts = tuple(parts)
        if not parts:
            raise ValueError("need at least one function")
        return MinOfConvex(parts)

    def __call__(self, v) -> Fraction:
        return min(g(v) for g in self.parts)


def _conjugate_pieces(g: PLConvexFunction):
    """Pieces of the Legendre conjugate of g, valid on the slope hull of g.

    The conjugate at u is the max over breakpoints v of <u, v> - g(v),
    so each breakpoint contributes the piece (slope v, intercept g(v)).
    """
    bps = breakpoints(g)
    if not bps:
        raise EnvelopeError("function has no breakpoints; conjugate domain is degenerate")
    return [(v, g(v)) for v in bps]


def envelope_toric(psi, delta: Polytope) -> PLConvexFunction:
    """Largest convex function with slopes in delta lying below psi."""
    if isinstance(psi, PLConvexFunction):
        if all(delta.contains(s) for s in psi.slopes):
            return psi
        return dual_transform(
            PLConvexFunction.from_pieces(_conjugate_pieces(psi)), delta
        )
    if isinstance(psi, MinOfConvex):
        pieces = []
        for g in psi.parts:
            pieces.extend(_conjugate_pieces(g))
        return dual_transform(PLConvexFunction.from_pieces(pieces), delta)
    if isinstance(psi, PiecewiseLinear1D):
        if delta.dim != 1:
            raise EnvelopeError("free-form obstacles are one-dimensional")
        a, b = delta.vertices[0][0], delta.vertices[-1][0]
        if not (psi.left_slope <= a and b <= psi.right_slope):
            raise EnvelopeError("obstacle decays below the admissible slope range")
        return convex_envelope([((v,), y) for v, y in psi.points], delta)
    raise TypeError(f"unsupported obstacle type {type(psi).__name__}")


def orthogonality_defect_toric(psi, delta: Polytope) -> Fraction:
    """Pairing of psi - P(psi) against MA(P(psi)); the theorem says zero."""
    p = envelope_toric(psi, delta)
    ma = ma_measure(p, delta).measure_NR.scale(factorial(delta.dim))
    return ma.integrate(lambda x: psi(x) - p(x))


# ---------------------------------------------------------------------------
# curve envelope (obstacle problem)


def envelope_subharmonic(
    psi: GraphPLFunction,
    graph: MetricGraph,
    omega0: GraphMeasure,
    base_subdivision: int = 16,
    max_doublings: int = 6,
) -> GraphPLFunction:
    """Largest omega0-subharmonic function below psi, exact.

    A float projected Gauss-Seidel sweep on a subdivided graph proposes
    the contact pattern among the finitely many points where the true
    envelope can have boundary kinks (obstacle breakpoints, vertices,
    reference atoms); the envelope is then rebuilt exactly from that
    pattern and verified.  The subdivision doubles until verification
    succeeds.
    """
    if curves.is_subharmonic(psi, graph, omega0):
        return psi
    candidates = _candidate_keys(psi, graph, omega0)
    subdiv = base_subdivision
    for _ in range(max_doublings):
        flagged = _pgs_contact(psi, graph, omega0, candidates, subdiv)
        env = _rebuild_envelope(psi, graph, omega0, flagged)
        if env is not None and _verify_envelope(env, psi, graph, omega0):
            return env
        subdiv *= 2
    raise ConvergenceError("obstacle solve did not stabilize")


def _candidate_keys(psi, graph, omega0):
    keys = {("v", vid) for vid in graph.vertex_ids}
    for e, pairs in enumerate(psi.edge_values):
        for o, _ in pairs[1:-1]:
            keys.add(graph.point_key(curves.GraphPoint(e, o)))
    for k, _ in omega0.atoms:
        keys.add(k)
    return sorted(keys, key=repr)


def _pgs_contact(psi, graph, omega0, candidates, subdiv):
    """Projected Gauss-Seidel (SOR) on a refinement; returns flagged contact keys."""
    interior = {}
    for key in candidates:
        if key[0] == "e":
            interior.setdefault(key[1], set()).add(key[2])
    index = {}
    nodes = []

    def idx(k):
        if k not in index:
            index[k] = len(nodes)
            nodes.append(k)
        return index[k]

    for vid in graph.vertex_ids:
        idx(("v", vid))
    adj = [[] for _ in graph.vertex_ids]
    for e, (u, v, ln) in enumerate(graph.edges):
        offs = set(interior.get(e, set()))
        offs.update(Fraction(j, subdiv) * ln for j in range(1, subdiv))
        offs = sorted(offs)
        chain = [idx(("v", u))] + [idx(("e", e, o)) for o in offs] + [idx(("v", v))]
        while len(adj) < len(nodes):
            adj.append([])
        offs_full = [Fraction(0)] + offs + [ln]
        for a, b, o1, o2 in zip(chain, chain[1:], offs_full, offs_full[1:]):
            w = float(1 / (o2 - o1))
            adj[a].append((b, w))
            adj[b].append((a, w))

    n = len(nodes)
    obstacle = [float(psi.eval(graph, k)) for k in nodes]
    source = [0.0] * n
    for k, m in omega0.atoms:
        source[index[k]] = float(m)
    wsum = [sum(w for _, w in nbrs) for nbrs in adj]
    x = list(obstacle)
    relax = 1.9  # over-relaxation, projected back onto the obstacle
    cand_idx = [index[k] for k in candidates]
    scale = max(1.0, max(abs(v) for v in obstacle))
    tol = 1e-7 * scale
    prev_flags = None
    stable = 0
    for sweep in range(1, 20001):
        delta_max = 0.0
        for i in range(n):
            acc = source[i]
            for j, w in adj[i]:
                acc += w * x[j]
            xi = x[i]
            new = xi + relax * (acc / wsum[i] - xi)
            if new > obstacle[i]:
                new = obstacle[i]
            d = abs(new - xi)
            if d > delta_max:
                delta_max = d
            x[i] = new
        if delta_max < 1e-12 * scale:
            break
        if sweep % 40 == 0:
            flags = tuple(x[i] >= obstacle[i] - tol for i in cand_idx)
            stable = stable + 1 if flags == prev_flags else 0
            prev_flags = flags
            if stable >= 3:
                break
    return [k for k, i in zip(candidates, cand_idx) if x[i] >= obstacle[i] - tol]


def _rebuild_envelope(psi, graph, omega0, contact):
    if not contact:
        return None
    fixed = {k: psi.eval(graph, k) for k in contact}
    rho = {k: -m for k, m in omega0.atoms}
    all_keys = set(contact) | {k for k, _ in omega0.atoms}
    for e, pairs in enumerate(psi.edge_values):
        for o, _ in pairs[1:-1]:
            all_keys.add(graph.point_key(curves.GraphPoint(e, o)))
    nodes, index, chains, edge_offsets = curves._refine(graph, sorted(all_keys, key=repr))
    try:
        values = curves._assemble_and_solve(graph, rho, nodes, index, chains, fixed=fixed)
    except curves.GraphError:
        return None
    return curves._function_from_node_values(graph, values, edge_offsets)


def _verify_envelope(env, psi, graph, omega0):
    gap = psi - env
    if any(y < 0 for pairs in gap.edge_values for _, y in pairs):
        return False
    return curves.is_subharmonic(env, graph, omega0)


def orthogonality_defect_curve(
    psi: GraphPLFunction, graph: MetricGraph, omega0: GraphMeasure
) -> Fraction:
    p = envelope_subharmonic(psi, graph, omega0)
    ma = curves.ma_curve(p, graph, omega0)
    return ma.integrate(graph, psi - p)


# ---------------------------------------------------------------------------
# differentiability of energy-of-envelope


def envelope_energy_derivative_toric(
    phi: PLConvexFunction,
    f: PiecewiseLinear1D,
    delta: Polytope,
    g0: PLConvexFunction | None = None,
    t_grid=(Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)),
):
    """Exact pairing of f with MA(phi), plus central difference quotients of
    t -> energy(P(phi + t f)) on the grid (1-D toric context)."""
    if g0 is None:
        g0 = support_function(delta)
    ma = ma_measure(phi, delta).measure_NR.scale(factorial(delta.dim))
    exact = ma.integrate(lambda x: f(x))
    base = PiecewiseLinear1D.from_convex(phi)

    def energy_at(t):
        pert = base + f.scale(t)
        return energy_toric(envelope_toric(pert, delta), g0, delta)

    fd = [(t, (energy_at(t) - energy_at(-t)) / (2 * t)) for t in t_grid]
    return exact, fd


def envelope_energy_derivative_curve(
    phi: GraphPLFunction,
    f: GraphPLFunction,
    graph: MetricGraph,
    omega0: GraphMeasure,
    t_grid=(Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)),
):
    ma = curves.ma_curve(phi, graph, omega0)
    exact = ma.integrate(graph, f)

    def energy_at(t):
        pert = phi + f.scale(t)
        return energy_curve(envelope_subharmonic(pert, graph, omega0), graph, omega0)

    fd = [(t, (energy_at(t) - energy_at(-t)) / (2 * t)) for t in t_grid]
    return exact, fd


# ---------------------------------------------------------------------------
# context dispatch, matching the two models above


def _is_toric(context):
    return isinstance(context, Polytope)


def f_mu(phi, mu, context):
    """F_mu = energy minus the mu-pairing, in either model.

    Toric context: (g0, delta) with g0 the reference potential.  Curve
    context: (graph, omega0).
    """
    a, b = context
    if _is_toric(b):
        return f_mu_toric(phi, mu, a, b)
    return f_mu_curve(phi, mu, a, b)


def envelope_P(psi, context):
    """Largest admissible-convex or omega0-subharmonic minorant of psi."""
    if _is_toric(context):
        return envelope_toric(psi, context)
    graph, omega0 = context
    return envelope_subharmonic(psi, graph, omega0)


def orthogonality_defect(psi, context) -> Fraction:
    """The integral of psi - P(psi) against MA(P(psi)); zero in theory."""
    if _is_toric(context):
        return orthogonality_defect_toric(psi, context)
    graph, omega0 = context
    return orthogonality_defect_curve(psi, graph, omega0)


def energy_of_envelope_derivative(phi, f, context, t_grid=None):
    """Exact derivative of t -> E(P(phi + t f)) at 0 plus difference quotients."""
    kwargs = {} if t_grid is None else {"t_grid": tuple(t_grid)}
    if _is_toric(context):
        return envelope_energy_derivative_toric(phi, f, context, **kwargs)
    graph, omega0 = context
    return envelope_energy_derivative_curve(phi, f, graph, omega0, **kwargs)
