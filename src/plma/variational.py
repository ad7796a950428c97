"""Energy functional, envelopes, and the orthogonality property.

Energies are relative: energy(g, g0) vanishes at g = g0, and the toric
one is a difference of Legendre integrals over the polytope.  All toric
masses carry the analytic normalization (n! times the real measure), so
that adding a constant c to the argument adds c times the degree.

Envelopes come in two flavours.  Toric: the largest admissible convex
minorant, computed exactly through Legendre transforms over the polytope.
Every toric obstacle is read the same way, as parts (slopes, samples) on
integers: one slope-hull check, then one convex envelope of all the
samples.
Curve: the largest subharmonic minorant, an obstacle problem on the
finitely many points where it can bend (vertices, obstacle breakpoints,
reference atoms).  It is solved for the gap g = psi - P(psi), as the
linear complementarity problem g >= 0, s = laplacian(psi) + omega0 -
laplacian(g) >= 0, g s = 0 at the nodes (Cottle, Pang and Stone), whose
last condition is the orthogonality property at the nodes.  Howard's
policy iteration (Bokanowski, Maroso and Zidani, SIAM J. Numer. Anal.
2009) solves it: a float pass, started at the nodes where
laplacian(psi) + omega0 > 0, only guesses the contact set, and an exact
pass started from that guess (or from the same nodes, when the guide
fails) stops at exact complementarity.  Each step
of either pass is the package's one Laplacian solve,
curves.solve_laplacian, with g pinned to zero on the contact set: in
floats for the guide, and for the exact pass usually one p-adic solve.
The exact pass runs on integers: curves.node_problem numbers the nodes
and writes laplacian(psi) + omega0 and the edge weights each over one
common denominator, so that the gaps and the masses s are integer
numerators over known denominators, and the node check (g >= 0, s >= 0)
is integer compares.  That check certifies the envelope; MA(P(psi)) and the
orthogonality defect are read off the same nodes, a Fraction built only
for each number returned.  The reference measure must be positive with
positive mass, as for green.

The derivative of t -> E(P(phi + t f)) at 0, which the paper proves is
the pairing of f with MA(phi) (Boucksom, Favre and Jonsson), is computed
exactly on each side.  The node problem of phi + t f is a parametric
linear complementarity problem (Cottle, Pang and Stone): on the same
nodes for every t, with data affine in t.  At t = 0 it needs no solve:
phi is subharmonic, so the gap is 0 and the masses are laplacian(phi) +
omega0.  On each side, the rates of the gap and the masses solve one
derivative problem of the same kind on the same Laplacian, with source
+-laplacian(f) and the gap held at 0 where the mass is positive (the
parametric step of Cottle, Pang and Stone, section 4.5).  The rates stay
complementary until the first positive mass reaches 0, which one exact
ratio test finds, so the first chamber, the interval of t on which one
contact set stays valid, is known with no solve to certify it.  On it
the envelope and its masses are affine in t at the nodes and the energy
a quadratic in t, whose slope at 0 is a closed form in the rates.  1-D
toric takes the same path, as the curve model on a segment.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, isfinite, lcm
from operator import mul

from . import curves
from .curves import GraphMeasure, GraphPLFunction, MetricGraph
from .geometry import (
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    Record,
    _idot,
    _integer_points,
    _sample_envelope,
    _vertex_value,
    as_fraction,
    cell_sums,
    is_admissible,
    vscale,
    vsub,
)
from .solver import ConvergenceError
from .toric import AdmissibilityError, degree, ma_measure


class EnvelopeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# energy


def energy_toric(g: PLConvexFunction, g0: PLConvexFunction, delta: Polytope) -> Fraction:
    """Relative energy of g against g0 over the polytope; exact rational.

    E(g, g0) = n! (L(g0) - L(g)), with L(g) the integral over delta of the
    Legendre transform g* (Donaldson, JDG 2002).  g* is affine on the cell
    C at each vertex v of the subdivision of g, so L(g) is the sum of
    <M1(C), v> - Vol(C) g(v), M1 the first moment: one `subdivision` pass,
    O(k*V), summed on integers.  The checks keep the order of the
    polarization formula (Boucksom, Favre and Jonsson), which the tests
    keep as the oracle.
    """
    if not is_admissible(g0, delta):
        raise AdmissibilityError("every argument must be admissible for the polytope")
    if g.dim != delta.dim:
        raise DimensionError("argument dimension mismatch")
    if not is_admissible(g, delta):
        raise AdmissibilityError("every argument must be admissible for the polytope")
    return factorial(delta.dim) * (_legendre_integral(g0) - _legendre_integral(g))


def _legendre_integral(g: PLConvexFunction) -> Fraction:
    """The integral of g* over the slope hull of g, cell by cell.

    g* is affine on the cell C at each vertex v of the walk, where it
    adds <M1(C), v> - Vol(C) g(v), M1 the first moment.  On g's integer
    form (S, D, C, E), with v = X / q as the walk gives it and
    g(v) = y / (D E q) read off the cell's first piece (`_vertex_value`),
    the integer sums (A, M) of the cell's integer slopes (`cell_sums`)
    give Vol(C) = A / (n! D^n) and M1(C) = M / ((n+1)! D^(n+1)), so the
    cell adds (E <M, X> - (n+1) A y) / ((n+1)! D^(n+1) E q); in 2-D that
    is (E <M, X> - 3 A y) / (6 D^3 E q).  The numerators are summed over
    the lcm of the q, which makes one Fraction in all and none per cell.
    """
    n, form = g.dim, g.integer_form
    S, D, _, E = form
    total, Q = 0, 1
    for X, q, ring in g.subdivision[0]:
        A, M = cell_sums([S[i] for i in ring])
        y = _vertex_value(form, X, q, ring[0])
        L = lcm(Q, q)
        total = total * (L // Q) + (E * _idot(M, X) - (n + 1) * A * y) * (L // q)
        Q = L
    return Fraction(total, factorial(n + 1) * D ** (n + 1) * E * Q)


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


class PiecewiseLinear1D(Record):
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
        """g on the points of `_samples(g)`, with its extreme slopes, the
        first and last of its integer form."""
        if g.dim != 1:
            raise ValueError("1-D only")
        S, D, _, _ = g.integer_form
        points = tuple((Fraction(v, q), Fraction(y, z)) for (v,), q, y, z in _samples(g))
        return PiecewiseLinear1D(points, Fraction(S[0][0], D), Fraction(S[-1][0], D))

    def __call__(self, v) -> Fraction:
        """The value at v, a number or a point of dimension 1;
        DimensionError for a point of another dimension."""
        if isinstance(v, (tuple, list)) and len(v) != 1:
            raise DimensionError("argument dimension mismatch")
        v = as_fraction(v[0] if isinstance(v, (tuple, list)) else v)
        (v0, y0), (v1, y1) = self.points[0], self.points[-1]
        if v <= v0:
            return y0 + self.left_slope * (v - v0)
        if v >= v1:
            return y1 + self.right_slope * (v - v1)
        return curves._values_at(self.points, [v])[0]

    def __add__(self, other: "PiecewiseLinear1D") -> "PiecewiseLinear1D":
        xs = sorted({v for v, _ in self.points} | {v for v, _ in other.points})
        return PiecewiseLinear1D(
            tuple((x, self(x) + other(x)) for x in xs),
            self.left_slope + other.left_slope,
            self.right_slope + other.right_slope,
        )

    def scale(self, c):
        c = as_fraction(c)
        return PiecewiseLinear1D(
            tuple((v, c * y) for v, y in self.points), c * self.left_slope, c * self.right_slope
        )


class MinOfConvex(Record):
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


def _samples(g: PLConvexFunction):
    """Samples (X, q, y, z), the points X / q and values y / z of g, on
    which g - <u, .> attains its minimum for every slope u in the hull of
    g's slopes.

    They are the vertices X / q of g's walk, each value read off its cell
    on g's integer form (S, D, C, E) (`_vertex_value`), over z = D E q.  A
    walk with no vertex has collinear slopes or one piece.  With collinear
    slopes each walk edge (a, b) is a tie line <w, x> = D (C_a - C_b) / E,
    w = S_a - S_b, on which g - <u, .> is constant, and its point
    X / q = D (C_a - C_b) w / (E |w|^2) is read off piece a; one piece
    gives the origin.  No Fraction is built.
    """
    S, D, C, E = form = g.integer_form
    cells, edges = g.subdivision
    vertices = ([(X, q, ring[0]) for X, q, ring in cells]
                or [(vscale(D * (C[a] - C[b]), w := vsub(S[a], S[b])), E * _idot(w, w), a)
                    for a, b in edges]
                or [((0,) * g.dim, 1, 0)])
    return [(X, q, _vertex_value(form, X, q, a), D * E * q) for X, q, a in vertices]


def envelope_toric(psi, delta: Polytope) -> PLConvexFunction:
    """Largest convex function with slopes in delta lying below psi.

    An admissible convex obstacle is its own envelope.  Any other obstacle
    is read as parts (slopes, samples), on integers: a free-form obstacle
    is one part, its recession slopes (none if the left one exceeds the
    right one) and its breakpoints; a convex obstacle, or each part of a
    min of convex functions, gives its integer slopes S_i / D and
    `_samples`.  psi - h_delta must be bounded below, that is delta must
    lie in the convex hull of every part's slopes; otherwise the conjugate
    of a part is infinite somewhere on delta, and EnvelopeError ("obstacle
    decays below the admissible slope range") is raised.  The hull test
    runs on integers: the hull of the S_i over D holds each vertex R_j / Q
    of delta's integer ring.  The envelope is then the convex envelope of
    all the samples (`geometry._sample_envelope`, on their integers): each
    part's samples attain the minimum of the part minus every affine
    function with slope in delta, so they give its conjugate there exactly.
    """
    if isinstance(psi, PLConvexFunction) and is_admissible(psi, delta):
        return psi
    if isinstance(psi, PiecewiseLinear1D):
        if delta.dim != 1:
            raise EnvelopeError("free-form obstacles are one-dimensional")
        left, right = psi.left_slope, psi.right_slope
        slopes = _integer_points([(left,), (right,)]) if left <= right else ([], 1)
        parts = [(slopes, [((v.numerator,), v.denominator, y.numerator, y.denominator)
                           for v, y in psi.points])]
    elif isinstance(psi, (PLConvexFunction, MinOfConvex)):
        convex = psi.parts if isinstance(psi, MinOfConvex) else (psi,)
        parts = [(g.integer_form[:2], _samples(g)) for g in convex]
    else:
        raise TypeError(f"unsupported obstacle type {type(psi).__name__}")
    # parts of another dimension than delta are left to _sample_envelope,
    # which raises DimensionError
    if all(len(s) == delta.dim for (S, _), _ in parts for s in S) and not all(
        _hull_holds(slopes, delta) for slopes, _ in parts
    ):
        raise EnvelopeError("obstacle decays below the admissible slope range")
    return _sample_envelope([p for _, samples in parts for p in samples], delta)


def _hull_holds(slopes, delta: Polytope) -> bool:
    """Whether the hull of the integer slopes (S, D), each S_i / D, holds
    delta, on integers: every vertex R_j / Q of delta's integer ring."""
    S, D = slopes
    if not S:
        return False
    hull = Polytope._from_integer_points(S, D)
    R, Q = delta.integer_ring
    return all(hull._contains_scaled(P, Q) for P in R)


def orthogonality_defect_toric(psi, delta: Polytope) -> Fraction:
    """Pairing of psi - P(psi) against MA(P(psi)); the theorem says zero.

    MA(P(psi)) is n! times the real measure of `ma_measure`.  At each of
    its atoms P(psi), and a convex psi or each convex part of a min of
    them, is evaluated on its integer form (`PLConvexFunction.__call__`),
    one Fraction each; a free-form psi is interpolated between its
    breakpoints.
    """
    p = envelope_toric(psi, delta)
    return factorial(delta.dim) * ma_measure(p, delta).measure_NR.integrate(
        lambda v: psi(v) - p(v))


# ---------------------------------------------------------------------------
# curve envelope (obstacle problem)


def envelope_subharmonic(
    psi: GraphPLFunction, graph: MetricGraph, omega0: GraphMeasure
) -> GraphPLFunction:
    """Largest omega0-subharmonic function below psi, exact.

    omega0 must be a positive measure of positive mass, as for green and
    solve_curve (curves.reference_mass): MassBalanceError otherwise.

    The envelope is linear between the nodes (vertices, obstacle
    breakpoints, reference atoms), so it is the solution x of the discrete
    obstacle problem on them: x <= psi, s = laplacian(x) + omega0 >= 0 and
    s = 0 wherever x < psi.  curves.node_problem numbers the nodes 0..n-1
    once, reads the obstacle off psi's breakpoints in that order, as
    numerators Y over one denominator Dy, and writes r = laplacian(psi) +
    omega0 as a Laplacian form; this module numbers no node.  The problem
    is solved for the gap g = psi - x.  s = r - laplacian(g), so it is the
    linear complementarity problem g >= 0, s >= 0, g s = 0 at every node
    (Cottle, Pang and Stone), in which the orthogonality of psi - P(psi)
    and MA(P(psi)) is the last condition.  Howard's policy iteration
    (_howard) solves it: from a contact set C, solve g = 0 on C and
    laplacian(g) = r off C, then set C = {k : g(k) <= s(k)}.  It runs on the problem's
    Laplacian form (curves.laplacian_form): r and the edge weights each
    over one common denominator, so that every exact solve is
    curves.solve_laplacian on integers, every compare and sum is on
    integers, and no numerator carries the obstacle's own denominator.

    The iteration runs twice.  First in floats, from C = {k : r(k) > 0}
    until a contact set repeats: this guide only proposes a contact set.
    Then exactly from that set, until the iterate is exactly
    complementary (g >= 0 and s >= 0 at every node; s = 0 off C and g = 0
    on C hold by construction), which a good guess passes after one
    solve.  If the guide fails (an overflow, a singular or non-finite
    solve, no repeat or an empty contact set), the exact pass starts from
    {k : r(k) > 0} instead.  That start is the data's own guess, as in a
    primal-dual active-set method (Hintermueller, Ito and Kunisch): it is
    never empty, since r sums to mass(omega0) > 0, and every node of the
    answer's contact set has r(k) = s(k) + laplacian(g)(k) >= 0, because
    g is 0 there and >= 0 at the neighbours.  So the nodes of negative r
    start free, as they end, and the nodes of zero r, which a start from
    every node frees one graph layer per step, start free too.  Howard's
    iteration converges from any nonempty contact set, in at most
    len(nodes) + 1 exact solves (Bokanowski, Maroso and Zidani), and the
    solution is unique, so the start and the guide change the cost and
    never the result; if those solves end with no complementary iterate,
    ConvergenceError is raised.

    The node check is the whole proof.  Every breakpoint of psi is a node
    (node_problem), so psi is linear between nodes, and so is the
    function built from x = psi - g; psi - P(psi) is then linear between
    nodes and >= 0 at each, hence >= 0 everywhere.  Its laplacian has no
    mass between nodes, and omega0 none either (its atoms are nodes),
    while at node k, with weights 1 / length on the same segments,
    laplacian + omega0 is exactly s(k) >= 0: the envelope is
    omega0-subharmonic, with MA(P(psi)) the measure of the s(k).  With
    the gaps G over Dg, x = (Y Dg - G Dy) / (Dy Dg) at every node, and
    curves._function_from_node_values builds the envelope from those
    numerators: it keeps the nodes where x bends, by integer slope tests,
    and builds a Fraction only for each value it keeps.  A subharmonic
    psi needs no test of its own: the exact pass then ends with g = 0 at
    every node, and psi is returned as given, not simplified.
    """
    nodes = _envelope_nodes(psi, graph, omega0)
    if not any(nodes.gap[0]):
        return psi
    return curves._function_from_node_values(
        graph, _combine(nodes.psi, nodes.gap, -1), nodes.edge_offsets, nodes.segments)


def _combine(a, b, c):
    """a + c b for two vectors on the nodes, each a pair (list of integer
    numerators in node order, common denominator), as such a pair."""
    (A, Da), (B, Db) = a, b
    return [x * Db + c * y * Da for x, y in zip(A, B)], Da * Db


def _pairing(a, b) -> Fraction:
    """sum_k a_k b_k for two vectors on the nodes, as _combine takes them:
    a sum on integers, one Fraction."""
    (A, Da), (B, Db) = a, b
    return Fraction(sum(map(mul, A, B)), Da * Db)


_Nodes = namedtuple("_Nodes", "edge_offsets psi segments s gap")
_Nodes.__doc__ = """The solved node problem of envelope_subharmonic: each edge's
    interior offsets in curves.node_problem's numbering, the obstacle psi
    at the nodes, the segments (i, j, W_s) of its form, and at the first
    complementary iterate of the exact pass the masses s =
    laplacian(P(psi)) + omega0 and the gaps psi - P(psi).  psi, s and the
    gaps are each a pair (list of integer numerators in node order,
    common denominator), as _combine takes them."""


def _envelope_nodes(psi, graph, omega0) -> _Nodes:
    """Solve envelope_subharmonic's node problem: the float guide, then the
    exact pass until the node check (every gap and every s >= 0) holds."""
    curves.reference_mass(omega0)
    _, edge_offsets, obstacle, form = curves.node_problem(graph, psi, omega0)
    R, Dr, W, Dw = form
    start = {k for k, r in enumerate(R) if r > 0}
    contact = _float_contact(form, start) or start
    for G, d, S, _ in _howard(form, contact):
        if min(G) >= 0 and min(S) >= 0:
            return _Nodes(edge_offsets, obstacle, W, (S, Dw * d * Dr), (G, d * Dr))
    raise ConvergenceError("obstacle solve did not stabilize")


def _howard(form, contact, pinned=frozenset()):
    """Howard's policy iteration for the node problem in the gap.

    form = (R, Dr, W, Dw) is the problem of curves.laplacian_form: node k
    has r = laplacian(psi) + omega0 = R[k] / Dr, and each (i, j, W_e) of
    the list W is a segment of weight W_e / Dw.  From the contact set
    `contact` (a set of nodes), yield (G, d, S, contact) for at most
    len(R) + 1 solves: the gap g = psi - x = G / (d Dr), zero on C, its
    masses s = r - laplacian(g) = S / (Dw d Dr) and the next contact set.
    Each solve is curves.solve_laplacian(form, C), exact on an integer
    form and in floats on the float guide's; then
    S = Dw d R - sum_j W_kj (G_j - G_k), and the contact test g <= s is
    Dw G <= S.  The nodes of `pinned` (none for the envelope) stay in
    every contact set: the derivative problem of _one_sided_derivatives
    holds its gap at 0 where the mass is positive, whatever the sign of
    the mass's rate there.  With C nonempty on a connected graph, the
    Laplacian with Dirichlet rows on C is a nonsingular M-matrix, so
    every solve is well posed; and the envelope's C never empties,
    because s sums to mass(omega0) > 0 and s = 0 off C, so some node of
    C has s > 0 = g and stays in contact.  For the same reason some node
    has positive mass, so the derivative problem's pinned set is never
    empty.
    """
    R, _, W, Dw = form
    nodes = range(len(R))
    for _ in range(len(R) + 1):
        G, d = curves.solve_laplacian(form, contact)
        S = [Dw * d * r for r in R]
        for a, c, w in W:
            t = w * (G[c] - G[a])
            S[a] -= t
            S[c] += t
        contact = {k for k in nodes if Dw * G[k] <= S[k]} | pinned
        yield G, d, S, contact


def _float_contact(form, start):
    """The contact set at which Howard's iteration settles in floats, from
    the contact set `start`: the first that repeats an earlier one, since
    rounding at a tie node (g = s = 0) can make the float iteration cycle.
    None if a float solve overflows, is singular or not finite, or nothing
    repeats.  The guide runs _howard on the float form (R / Dr, 1, W / Dw,
    1) of `form`, so each of its solves is curves.solve_laplacian in
    floats.  Only a guide: the exact pass checks it."""
    R, Dr, W, Dw = form
    found = [start]
    try:
        guide = ([r / Dr for r in R], 1, [(a, b, w / Dw) for a, b, w in W], 1)
        for G, _, _, contact in _howard(guide, start):
            if not all(map(isfinite, G)):
                return None
            if contact in found:
                return contact
            found.append(contact)
    except (OverflowError, curves.GraphError):
        pass
    return None


def orthogonality_defect_curve(
    psi: GraphPLFunction, graph: MetricGraph, omega0: GraphMeasure
) -> Fraction:
    """The integral of psi - P(psi) against MA(P(psi)), exact.

    Both are read off the nodes of envelope_subharmonic, which checks
    omega0 the same way: MA(P(psi)) is the atom s(k) at node k and nothing
    between nodes, and psi - P(psi) is psi(k) - x(k) there (see
    envelope_subharmonic for why), so the integral is the sum of
    s(k) (psi(k) - x(k)), summed on the integer numerators of both over
    their common denominators: one Fraction.  Each term vanishes when the
    pass is complementary; the sum is computed, not assumed."""
    nodes = _envelope_nodes(psi, graph, omega0)
    return _pairing(nodes.s, nodes.gap)


# ---------------------------------------------------------------------------
# differentiability of energy-of-envelope


def _one_sided_derivatives(phi, f, graph, omega0):
    """[(h+, d+), (h-, d-)]: on each side of 0, right first, the end h of
    the first chamber, the largest h <= 1 such that t -> P(phi + t f) is
    affine in t on [0, h] (or [-h, 0]), and the exact one-sided
    derivative d at 0 of t -> E(P(phi + t f)), a quadratic in t there.

    psi(t) = phi + t f keeps the union of both functions' breakpoints, so
    curves.node_problem numbers the nodes the same way for every t, and
    r(t) = laplacian(psi(t)) + omega0 is affine in t at them.  phi is
    subharmonic (ma_curve checks it; a 1-D toric phi is so on its segment
    by construction), so at t = 0 the gap g is 0 and the masses s are the
    r of node_problem(phi + 0 f), with no solve.  On the side of sign
    +-1, with tau = |t|, the rates (g', s') of (g, s) in tau solve one
    derivative problem on the same Laplacian, with source r' =
    +-laplacian(f): s' = r' - laplacian(g'), g' = 0 where s > 0 (the
    pinned nodes of _howard), and g' >= 0, s' >= 0, g' s' = 0 where
    s = 0.  Its solution is unique (the Laplacian with Dirichlet rows on
    a nonempty set is an M-matrix), and _howard finds it from the data's
    own guess, the pinned nodes and those where r' > 0.  Then the gap
    tau g' and the masses s + tau s' stay complementary as long as every
    s + tau s' >= 0 where s > 0: the pinned nodes keep g = 0, the others
    keep s = 0 and s' >= 0 and are complementary by the derivative
    problem.  So h = min(1, -s_k / s'_k over s_k > 0 > s'_k), one ratio
    test, and [0, h] is a chamber with no certifying solve: (tau g',
    s + tau s') solves the node problem at every tau in it, and is its
    unique solution.  For h < 1 some mass of MA(phi) reaches 0 at h and
    would turn negative past it, so h is the chamber's exact end.

    On the chamber the node values x = psi - g of the envelope and its
    masses s are affine in tau, and so is u = s + omega0 (omega0 at the
    nodes).  The energy, the pairing of the envelope with laplacian + 2
    omega0 halved, is E = u . x / 2 at the nodes, since both measures sit
    on them and the envelope is linear between them: a quadratic in tau.
    Its derivative in t at 0 is the closed form
    d = (s' . x + u . (+-f - g')) / (2 (+-1)) at tau = 0, where +-f at
    the nodes is read off node_problem of phi.combine(f, 0, +-1) and
    omega0 at the nodes off the index of node_problem(phi + 0 f).  The
    sums run on integer numerators (_combine), one Fraction per pairing.
    By the symmetry of the Laplacian and g' s = 0, d is the pairing of f
    with s, MA(phi), as the paper says; it is computed, not assumed.
    """
    def side(sign):
        f1 = curves.node_problem(graph, phi.combine(f, 0, sign), omega0)[2]
        R1, Dr1, _, _ = form = curves.laplacian_form(f1, {}, (W, Dw))
        for G, d, S, _ in _howard(form, pinned | {k for k, r in enumerate(R1) if r > 0}, pinned):
            if min(G) >= 0 and all(s >= 0 for s, r in zip(S, R) if not r):
                ds, dg = (S, Dw * d * Dr1), (G, d * Dr1)
                h = min([Fraction(1), *(Fraction(-R[k] * ds[1], Dr * S[k])
                                        for k in pinned if S[k] < 0)])
                return h, (_pairing(ds, x) + _pairing(u, _combine(f1, dg, -1))) / (2 * sign)
        raise ConvergenceError("derivative problem did not stabilize")

    curves.reference_mass(omega0)
    index, _, x, (R, Dr, W, Dw) = curves.node_problem(graph, phi + f.scale(0), omega0)
    pinned = {k for k, r in enumerate(R) if r > 0}
    # omega0 on the nodes: the form of zero values and no segments is its mass
    masses = {index[key]: m for key, m in omega0.atoms}
    u = _combine((R, Dr), curves.laplacian_form(([0] * len(R), 1), masses, ([], 1))[:2], 1)
    return [side(1), side(-1)]


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


def energy_of_envelope_derivative(phi, f, context):
    """The derivative of t -> E(P(phi + t f)) at 0, exactly: (exact,
    [(h+, d+), (h-, d-)]), where exact is the pairing of f with MA(phi)
    and each d is the exact one-sided derivative, right then left, on the
    first chamber [0, h] (or [-h, 0]), h its exact end in (0, 1]: where
    t -> P(phi + t f) first bends, or 1 (_one_sided_derivatives).  The
    chamber is read off one derivative problem and one ratio test per
    side; on it the energy is a quadratic in t, and no solve certifies it
    because the gap t g' and the masses s + t s' are complementary on it
    by construction.  The paper says d+ = d- = exact.

    1-D toric context delta = [alpha, beta] (a 2-D phi raises ValueError
    before any pairing): exact pairs f with the real measure of
    `ma_measure`, the analytic one in 1-D, and f (a PiecewiseLinear1D) must
    have zero recession slopes, or phi + t f decays below the admissible
    slopes on one side (EnvelopeError).  The derivative is the curve one
    on a segment [a, b] that holds -1, 0 and every breakpoint of phi and
    f, for phi - h_delta and omega0 = (beta - alpha) delta_0: the two models
    agree there, up to a constant in the energy.  Curve context
    (graph, omega0): exact is the pairing of f with ma_curve(phi)."""
    if _is_toric(context):
        base = PiecewiseLinear1D.from_convex(phi)
        exact = ma_measure(phi, context).measure_NR.integrate(f)
        if f.left_slope or f.right_slope:
            raise EnvelopeError("obstacle decays below the admissible slope range")
        (alpha,), (beta,) = min(context.vertices), max(context.vertices)
        a, *_, b = ts = sorted({Fraction(-1), Fraction(0), *(v for v, _ in base.points + f.points)})
        graph = MetricGraph.build([0, 1], [(0, 1, b - a)])
        omega0 = GraphMeasure.from_atoms(graph, [(("e", 0, -a), beta - alpha)])
        phi = GraphPLFunction((tuple((t - a, base(t) - max(alpha * t, beta * t)) for t in ts),))
        f = GraphPLFunction((tuple((t - a, f(t)) for t in ts),))
    else:
        graph, omega0 = context
        exact = curves.ma_curve(phi, graph, omega0).integrate(graph, f)
    return exact, _one_sided_derivatives(phi, f, graph, omega0)
