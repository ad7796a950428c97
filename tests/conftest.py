import heapq
import random
import re
from fractions import Fraction
from functools import cmp_to_key
from math import factorial, lcm

import pytest

from plma import curves, serialize, solver, variational
from plma.curves import (
    GraphError,
    GraphMeasure,
    GraphPLFunction,
    MetricGraph,
    circle_graph,
    superpose,
)
from plma.geometry import (
    AffineFunctional,
    DimensionError,
    PLConvexFunction,
    Polytope,
    _integer_pieces,
    _integer_points,
    _point,
    _scaled,
    _vertex_order,
    as_fraction,
    as_point,
    cell_sums,
    dot,
    dual_transform,
    support_function,
    vadd,
    vscale,
    vsub,
)
from plma.serialize import SchemaError
from plma.solver import ConvergenceError, SolveReport
from plma.toric import AdmissibilityError, DegeneratePolytopeError, degree, mixed_ma
from plma.variational import (
    MinOfConvex,
    PiecewiseLinear1D,
    energy_curve,
    energy_toric,
    envelope_subharmonic,
    envelope_toric,
)


def interval(a=0, b=1):
    return Polytope.from_points([(Fraction(a),), (Fraction(b),)])


def unit_square():
    return Polytope.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])


def simplex2():
    return Polytope.from_points([(0, 0), (1, 0), (0, 1)])


def hexagon():
    return Polytope.from_points([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])


ACCEPTANCE_POLYTOPES = [interval(), unit_square(), simplex2(), hexagon()]


def rational_hexagon():
    """A hexagon whose vertex coordinates have the pairwise coprime
    denominators 3, 7 and 11, so no two of them share a scale."""
    Q = Fraction
    return Polytope.from_points([(Q(1, 3), Q(-5, 7)), (Q(9, 7), Q(-4, 11)), (Q(15, 11), Q(2, 3)),
                                 (Q(2, 3), Q(10, 7)), (Q(-5, 7), Q(9, 11)), (Q(-8, 11), Q(-1, 3))])


def rnd_frac(rng, den=6, lo=-2, hi=2):
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_admissible(rng, delta, extra=4):
    """Random admissible function: all vertex slopes plus interior slopes."""
    n = delta.dim
    pieces = [AffineFunctional(v, rnd_frac(rng)) for v in delta.vertices]
    for _ in range(extra):
        ws = [rng.randint(0, 3) for _ in delta.vertices]
        if sum(ws) == 0:
            continue
        s = sum(ws)
        sl = tuple(
            sum(Fraction(w) * vv[i] for w, vv in zip(ws, delta.vertices)) / s
            for i in range(n)
        )
        pieces.append(AffineFunctional(sl, rnd_frac(rng)))
    return PLConvexFunction.from_pieces(pieces)


def canonical_function(pieces):
    """The function of canonical pieces (distinct slopes, in (slope,
    intercept) order) as they are, with no piece pruned and no walk: what
    the pieces constructor `PLConvexFunction(pieces)` built, kept as the
    oracle of the integer operations, on the integer form of the pieces."""
    return PLConvexFunction._of_form(_integer_pieces(pieces))


def fraction_shift(g, c):
    """g.shift(c) as it was, on the Fraction pieces: each intercept minus c."""
    return canonical_function(tuple(AffineFunctional(p.slope, p.intercept - c) for p in g.pieces))


def fraction_translate(g, t):
    """g.translate(t) as it was, on the Fraction pieces: each intercept
    plus <slope, t>."""
    return canonical_function(
        tuple(AffineFunctional(p.slope, p.intercept + dot(p.slope, t)) for p in g.pieces))


def fraction_sum(f, g):
    """f + g as it was, on the Fraction pieces: from_pieces of every
    pairwise sum, which prunes them."""
    return PLConvexFunction.from_pieces(
        AffineFunctional(vadd(p.slope, q.slope), p.intercept + q.intercept)
        for p in f.pieces for q in g.pieces)


def unpruned(pieces):
    """The max of the pieces with the lowest intercept per slope and no piece
    dropped, in canonical order, so that the kernel also runs on pieces
    that are never the strict maximum."""
    best = {}
    for p in pieces:
        if p.slope not in best or p.intercept < best[p.slope]:
            best[p.slope] = p.intercept
    return canonical_function(tuple(AffineFunctional(s, c) for s, c in sorted(best.items())))


def random_min_of(rng, delta, free=1 / 3):
    """Min of 2-4 convex parts.  A part is, with probability `free`, 1-5
    pieces with slopes on the 1/2 grid of delta's bounding box grown by 1/2,
    whose slope hull may miss part of delta; otherwise it is an admissible
    function translated off the origin."""
    n = delta.dim
    lo = [int(2 * min(v[i] for v in delta.vertices)) - 1 for i in range(n)]
    hi = [int(2 * max(v[i] for v in delta.vertices)) + 1 for i in range(n)]
    parts = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < free:
            slopes = [tuple(Fraction(rng.randint(a, b), 2) for a, b in zip(lo, hi))
                      for _ in range(rng.randint(1, 5))]
            g = PLConvexFunction.from_pieces([AffineFunctional(s, rnd_frac(rng)) for s in slopes])
        else:
            g = random_admissible(rng, delta, extra=rng.randint(0, 4))
            g = g.translate(tuple(rnd_frac(rng, den=4) for _ in range(n)))
        parts.append(g)
    return MinOfConvex.build(parts)


def lattice_paraboloid(rng, k, grid):
    """k slopes on the 1/grid lattice of the unit square, the four corners
    included, with intercepts |s|^2 / 2: every piece is essential and many
    lifts are coplanar."""
    pts = [(Fraction(i, grid), Fraction(j, grid)) for i in range(grid + 1) for j in range(grid + 1)]
    corners = [p for p in pts if p in unit_square().vertices]
    slopes = corners + rng.sample([p for p in pts if p not in corners], k - 4)
    return PLConvexFunction.from_pieces(
        [AffineFunctional(s, (s[0] ** 2 + s[1] ** 2) / 2) for s in slopes]
    )


def polarization_energy(g, g0, delta):
    """The energy by polarization (Boucksom, Favre and Jonsson): the mean
    over j = 0..n of n! times the integral of g - g0 against the mixed
    measure MA(g[j], g0[n - j])."""
    n = delta.dim
    total = Fraction(0)
    for j in range(n + 1):
        mm = mixed_ma([g] * j + [g0] * (n - j), delta)
        total += factorial(n) * mm.integrate(lambda p: g(p) - g0(p))
    return total / (n + 1)


def random_graph(rng, max_extra_edges=4):
    """Connected graph on 2..8 vertices with rational edge lengths."""
    nv = rng.randint(2, 8)
    edges = []
    for v in range(1, nv):
        u = rng.randint(0, v - 1)
        edges.append((u, v, Fraction(rng.randint(1, 6), rng.randint(1, 3))))
    for _ in range(rng.randint(0, max_extra_edges)):
        if len(edges) >= 12:
            break
        u, v = rng.randint(0, nv - 1), rng.randint(0, nv - 1)
        edges.append((u, v, Fraction(rng.randint(1, 6), rng.randint(1, 3))))
    return MetricGraph.build(list(range(nv)), edges)


def interp(pairs, off):
    """The value at off of the function with the sorted (offset, value)
    breakpoints `pairs`, interpolated on the first segment that holds off:
    curves._interp as it was, kept as the oracle of curves._values_at."""
    for (o1, y1), (o2, y2) in zip(pairs, pairs[1:]):
        if o1 <= off <= o2:
            return y1 + (y2 - y1) * (off - o1) / (o2 - o1)
    raise GraphError("offset outside edge")


def arc_masses(measure, parts):
    """Masses of the arcs [j/parts, (j+1)/parts) of the unit circle.

    An arc with one atom takes its mass as is; only a second atom in the
    same arc costs an addition.  It was curves.arc_masses, which
    curve-canonical printed; it is kept as the oracle of the printed arc
    masses.
    """
    out = [None] * parts
    for key, mass in measure.atoms:
        if key[0] == "v":
            j = 0
        else:
            # floor(frac(o) * parts) from o's integers, negative o included
            o = key[2]
            j = o.numerator * parts // o.denominator % parts
        out[j] = mass if out[j] is None else out[j] + mass
    return [Fraction(0) if m is None else m for m in out]


def random_graph_point(rng, graph):
    e = rng.randrange(len(graph.edges))
    ln = graph.edge_length(e)
    return ("e", e, ln * Fraction(rng.randint(0, 4), 4))


def random_positive_measure(rng, graph, total, natoms=3):
    """Positive atomic measure with the given total mass."""
    pts = [graph.point_key(random_graph_point(rng, graph)) for _ in range(natoms)]
    pts = sorted(set(pts), key=repr)
    cuts = sorted(rng.randint(1, 11) for _ in range(len(pts) - 1))
    bounds = [0] + cuts + [12]
    atoms = [
        (p, total * Fraction(b2 - b1, 12)) for p, b1, b2 in zip(pts, bounds, bounds[1:])
    ]
    return GraphMeasure.from_atoms(graph, atoms)


@pytest.fixture
def rng():
    return random.Random(1729)


def integer_values(values):
    """(Y, Dy) of a list of rationals: their numerators over their least
    common denominator, as curves.laplacian_form and
    curves._function_from_node_values take them."""
    values = [Fraction(y) for y in values]
    Dy = lcm(*(y.denominator for y in values))
    return [y.numerator * (Dy // y.denominator) for y in values], Dy


def integer_weights(edges):
    """(W, Dw) of a list of weighted edges (i, j, w): the weights'
    numerators over their least common denominator."""
    W, Dw = integer_values([w for _, _, w in edges])
    return [(a, b, w) for (a, b, _), w in zip(edges, W)], Dw


def fraction_weights(weights):
    """The edges (i, j, W / Dw) of weights = (W, Dw), as Fractions."""
    W, Dw = weights
    return [(a, b, Fraction(w, Dw)) for a, b, w in W]


def function_from_values(graph, values, offsets, weights):
    """curves._function_from_node_values on a list of rational node
    values, on the nodes and segments of curves._refine."""
    return curves._function_from_node_values(graph, integer_values(values), offsets, weights[0])


def solve_sources(rho, n, edges, pinned):
    """curves.solve_laplacian on the form of zero values with the sources
    rho (a dict node -> rational, 0 where absent) on the nodes 0..n-1 of
    the weighted edges (i, j, w): the list of the n values as Fractions,
    0 on the set `pinned`."""
    form = curves.laplacian_form(([0] * n, 1), rho, integer_weights(edges))
    G, d = curves.solve_laplacian(form, pinned)
    return [Fraction(g, d * form[1]) for g in G]


def pinned_poisson(graph, rho, normalization):
    """curves.solve_poisson as it was, kept as its oracle: the nodes of
    rho's atoms and of the normalization point x numbered by _refine, one
    solve pinned at x itself, and the function rebuilt from its values."""
    if rho.total_mass() != 0:
        raise curves.MassBalanceError("source measure must have total mass zero")
    x = graph.point_key(normalization)
    index, weights, offsets, _ = curves._refine(graph, [k for k, _ in rho.atoms] + [x])
    n = len(graph.vertex_ids) + sum(map(len, offsets))
    form = curves.laplacian_form(([0] * n, 1), {index[k]: m for k, m in rho.atoms}, weights)
    G, d = curves.solve_laplacian(form, {index[x]})
    return curves._function_from_node_values(graph, (G, d * form[1]), offsets, weights[0])


def fraction_solve_laplacian(rho, n, edges, fixed):
    """curves.solve_laplacian as it was before the p-adic solve, kept as
    its oracle: Fraction elimination of the free rows in minimum-degree
    order, ties broken by the node number, then back substitution."""
    rows = [{} for _ in range(n)]
    b = [rho.get(i, 0) for i in range(n)]
    for a, c, w in edges:
        for i, j in ((a, c), (c, a)):
            if i in fixed:
                continue
            row = rows[i]
            row[i] = row.get(i, 0) - w
            if j in fixed:
                b[i] -= w * fixed[j]
            else:
                row[j] = row.get(j, 0) + w
    heap = [(len(rows[i]), i) for i in range(n) if i not in fixed]
    heapq.heapify(heap)
    done = [False] * n
    eliminated = []
    while heap:
        size, i = heapq.heappop(heap)
        if done[i] or size != len(rows[i]):
            continue
        done[i] = True
        row = rows[i]
        piv = Fraction(row.pop(i, 0))
        if piv == 0:
            raise GraphError("singular linear system")
        for k in row:
            row[k] /= piv
        b[i] /= piv
        for j in row:
            rj = rows[j]
            c = rj.pop(i)
            for k, v in row.items():
                rj[k] = rj.get(k, 0) - c * v
            b[j] -= c * b[i]
            heapq.heappush(heap, (len(rj), j))
        eliminated.append(i)
    x = [fixed.get(i) for i in range(n)]
    for i in reversed(eliminated):
        x[i] = b[i] - sum(v * x[k] for k, v in rows[i].items())
    return x


def bump_1d(center, width, height):
    """The tent of the given height over [center - width, center + width],
    zero outside: a free-form 1-D function with zero recession slopes."""
    return PiecewiseLinear1D.build(
        [(center - width, Fraction(0)), (center, Fraction(height)), (center + width, Fraction(0))],
        Fraction(0),
        Fraction(0),
    )


def random_graph_function(rng, graph, scale=1):
    """A PL function on graph: rnd_frac values times scale at the vertices
    and at 0-2 interior breakpoints per edge, on the 1/12 grid of its
    length."""
    at = {v: rnd_frac(rng) * scale for v in graph.vertex_ids}
    edge_values = []
    for u, v, ln in graph.edges:
        offs = sorted({ln * Fraction(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 2))})
        edge_values.append([(0, at[u]), *((o, rnd_frac(rng) * scale) for o in offs), (ln, at[v])])
    return GraphPLFunction.build(graph, edge_values)


# the steps t of the central difference quotients: the grid on which the
# derivative of E(P(phi + t f)) was approximated before it was exact
T_GRID = (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64))


def envelope_energy(phi, f, context):
    """t -> E(P(phi + t f)) in either model, as the derivative read it
    before it was exact: in 1-D toric through envelope_toric and
    energy_toric relative to the support function, which share no code
    with the curve, and on curves through envelope_subharmonic and
    energy_curve."""
    if isinstance(context, Polytope):
        base, g0 = PiecewiseLinear1D.from_convex(phi), support_function(context)
        return lambda t: energy_toric(envelope_toric(base + f.scale(t), context), g0, context)
    graph, omega0 = context
    return lambda t: energy_curve(
        envelope_subharmonic(phi + f.scale(t), graph, omega0), graph, omega0)


def difference_quotients(energy_at):
    """(t, central difference quotient of energy_at at 0) for each t of
    T_GRID: the first-order oracle of
    variational.energy_of_envelope_derivative."""
    return [(t, (energy_at(t) - energy_at(-t)) / (2 * t)) for t in T_GRID]


def differentiability_instances(rng):
    """Criterion 5's instances (phi, f, context, C), C the constant of the
    first-order bound |q - exact| <= C t: twelve tents f against random
    admissible phi on [0, 1], then eight tents on the circle against
    phi = superpose(mu, omega0)."""
    seg = interval()
    for _ in range(12):
        phi = random_admissible(rng, seg)
        height = rnd_frac(rng, den=4, lo=-1, hi=1)
        f = bump_1d(rnd_frac(rng), Fraction(1), height)
        yield phi, f, seg, 4 * degree(seg) * max(abs(height), Fraction(1, 100))
    g = circle_graph()
    for _ in range(8):
        om = random_positive_measure(rng, g, Fraction(2))
        mu = random_positive_measure(rng, g, Fraction(2))
        phi = superpose(g, mu, om)
        peak = rnd_frac(rng, den=4, lo=-1, hi=1)
        f = GraphPLFunction.build(
            g, [((Fraction(0), Fraction(0)), (Fraction(1, 2), peak), (Fraction(1), Fraction(0)))])
        yield phi, f, (g, om), 4 * om.total_mass() * max(abs(peak), Fraction(1, 100))


def derivative_instances(rng):
    """(phi, f, context) for the derivative's oracle: 14 tents, or sums of
    two, against random admissible phi on intervals with ends on the 1/2
    grid of [-3, 3]; then 28 random graphs, the last 14 with a loop edge
    at vertex 0 appended, each with omega0 of mass 2 on two atoms strictly
    inside edges (one on the loop when there is one), phi the superposition
    of a random mu or its solve, and f a random graph function."""
    for _ in range(14):
        a, b = sorted(rng.sample(range(-6, 7), 2))
        f = bump_1d(rnd_frac(rng), Fraction(rng.randint(1, 4), 2), rnd_frac(rng, den=4))
        if rng.random() < 1 / 2:
            f = f + bump_1d(rnd_frac(rng), Fraction(1, 2), rnd_frac(rng))
        delta = interval(Fraction(a, 2), Fraction(b, 2))
        yield random_admissible(rng, delta), f, delta
    for i in range(28):
        g = random_graph(rng, 2)
        if i >= 14:
            g = MetricGraph.build(g.vertex_ids, [*g.edges, (0, 0, Fraction(rng.randint(1, 6), 2))])
        inside = [len(g.edges) - 1 if i >= 14 else rng.randrange(len(g.edges)),
                  rng.randrange(len(g.edges))]
        split = Fraction(rng.randint(1, 11), 6)
        om = GraphMeasure.from_atoms(g, [
            (("e", e, g.edge_length(e) * Fraction(rng.randint(1, 3), 4)), m)
            for e, m in zip(inside, (split, 2 - split))])
        mu = random_positive_measure(rng, g, Fraction(2))
        phi = curves.normalized_potential(g, mu, om) if i % 2 else superpose(g, mu, om)
        yield phi, random_graph_function(rng, g, 2), (g, om)


def three_sample_derivatives(phi, f, graph, omega0):
    """variational._one_sided_derivatives as it was before its closed
    form, kept as its oracle: on the same certified chamber [0, t],
    d = (4 E(t/2) - E(t) - 3 E(0)) / t from three exact samples of the
    energy, each from an envelope built as a function and read by
    energy_curve, E(t/2) from a node problem of its own and E(0) = E(phi)."""
    def envelope(psi, nodes):
        (Y, Dy), (G, Dg) = nodes.psi, nodes.gap
        if not any(G):
            return psi
        values = ([y * Dg - g * Dy for y, g in zip(Y, G)], Dy * Dg)
        return curves._function_from_node_values(graph, values, nodes.edge_offsets,
                                                 nodes.segments)

    def energy(psi, nodes):
        return energy_curve(envelope(psi, nodes), graph, omega0)

    def energy_at(t):
        psi = phi + f.scale(t)
        return energy(psi, variational._envelope_nodes(psi, graph, omega0))

    def side(t):
        while True:
            psi = phi + f.scale(t)
            nodes = variational._envelope_nodes(psi, graph, omega0)
            G0, _, S0, _ = next(variational._howard(
                form, {k for k, g in enumerate(nodes.gap[0]) if not g}))
            if min(*G0, *S0) >= 0:
                return abs(t), (4 * energy_at(t / 2) - energy(psi, nodes) - 3 * e0) / t
            t /= 2

    form = curves.node_problem(graph, phi + f.scale(0), omega0)[3]
    e0 = energy_curve(phi, graph, omega0)
    return [side(Fraction(1)), side(Fraction(-1))]


# ---------------------------------------------------------------------------
# the toric solve on Fractions: the oracle of its integer path


def fraction_parse_rational(s):
    """serialize.parse_rational as it was when the toric readers built a
    Fraction per number: the oracle of their integer parse."""
    plain = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s) if isinstance(s, str) else None
    if not plain:
        raise SchemaError(f'bad rational {s!r}: expected a string "p/q" or "p"')
    try:
        p, q = int(plain[1]), plain[2]
        return Fraction(p) if q is None else Fraction(p, int(q))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from None


def fraction_point(obj):
    if not isinstance(obj, list) or not obj:
        raise SchemaError("a point must be a nonempty array of rationals")
    return tuple(fraction_parse_rational(c) for c in obj)


def fraction_atoms(atoms):
    """DiscreteMeasure.from_atoms as it was, on Fractions: the masses of
    the (point, mass) pairs summed by point, atoms of mixed dimension a
    DimensionError, zero masses dropped and the atoms sorted by point.
    Returns the atoms, which a measure's `atoms` must equal."""
    acc = {}
    for p, m in atoms:
        p, m = as_point(p), as_fraction(m)
        acc[p] = acc[p] + m if p in acc else m
    if len({len(p) for p in acc}) > 1:
        raise DimensionError("atoms of mixed dimension")
    return tuple(sorted((p, m) for p, m in acc.items() if m != 0))


def fraction_measure(obj):
    """The measure reader's Fraction path, parse_rational per number, as
    the atoms of `fraction_atoms`."""
    records = serialize._records(obj, "atoms", ("point", "mass"), 'measure must be {"atoms": [...]}',
                                 'each atom must be {"point": [...], "mass": "..."}')
    return fraction_atoms([(fraction_point(p), fraction_parse_rational(m)) for p, m in records])


def fraction_residual(g, atoms, delta):
    """solver.residual as it was, keyed on the Fraction atoms of the target."""
    S, D, _, _ = g.integer_form
    den = factorial(delta.dim) * D ** delta.dim
    want = {}
    for p, m in atoms:
        q = lcm(*(x.denominator for x in p))
        want[_scaled(p, q), q] = p, m
    out = []
    for X, q, ring in g.subdivision[0]:
        A = cell_sums([S[i] for i in ring])[0]
        atom = want.pop((X, q), None)
        if atom is None:
            out.append((X, q, (_point(X, q), Fraction(A, den))))
        else:
            p, m = atom
            out.append((X, q, (p, Fraction(A * m.denominator - m.numerator * den,
                                            den * m.denominator))))
    if want:
        out += [(X, q, (p, -m)) for (X, q), (p, m) in want.items()]
        out.sort(key=cmp_to_key(_vertex_order))
    return tuple(entry for _, _, entry in out)


def fraction_solve_toric(delta, nu):
    """solver.solve_toric as it was, on the Fraction atoms of nu: its
    checks on Fractions, the 1-D closed form on Fractions, the weights as
    Fractions on the grid 2^-50, the snap by Fraction.limit_denominator,
    the move back by dot(c, v_i - v_0), F_w from the Fraction weights and
    the residual keyed on the Fraction atoms.  The float guide
    (solver._newton, with its masses as float(m)) and the exact kernel
    are shared with the integer path."""
    if not delta.is_full_dimensional():
        raise DegeneratePolytopeError("polytope must be full-dimensional")
    atoms = list(nu.atoms)
    if any(len(v) != delta.dim for v, _ in atoms):
        raise DimensionError("target atoms and polytope differ in dimension")
    if not atoms or not all(m > 0 for _, m in atoms):
        raise AdmissibilityError("target measure must be positive and nonempty")
    vol, total = delta.volume(), sum((m for _, m in atoms), Fraction(0))
    if total != vol:
        raise AdmissibilityError(f"target mass {total} != Vol(delta) = {vol}")

    def solution(weights):
        V, A = _integer_points([v for v, _ in atoms])
        E = lcm(*(w.denominator for w in weights))
        C = [-w.numerator * (E // w.denominator) for w in weights]
        return dual_transform(PLConvexFunction._of_form((V, A, C, E)), delta)

    if delta.dim == 1:
        weights, cut = [Fraction(0)], delta.vertices[0][0] + atoms[0][1]
        for (v1, _), (v2, m2) in zip(atoms, atoms[1:]):
            weights.append(weights[-1] - cut * (v2[0] - v1[0]))
            cut += m2
        g = solution(weights)
        res = fraction_residual(g, atoms, delta)
        return SolveReport(g, res, res, 0, True)
    c = solver._truncated_mean(*delta.integer_ring)
    V, A = _integer_points([v for v, _ in atoms])
    e = solver._truncated_mean(V, A)
    if any(e):
        V = [vsub(X, vscale(A, e)) for X in V]
    try:
        weights, it = solver._newton(delta.translate(vscale(-1, c)) if any(c) else delta,
                                     V, A, [float(m) for _, m in atoms], vol)
        wfrac = [Fraction(round((w - weights[0]) * 2**50), 2**50) for w in weights]
    except ArithmeticError:
        raise ConvergenceError("the float guide cannot represent this target") from None
    snapped = [w.limit_denominator(solver.SNAP_DENOMINATOR) for w in wfrac]
    if lcm(*(w.denominator for w in snapped)) > solver.SNAP_DENOMINATOR**2:
        snapped = wfrac
    if any(c):
        back = [dot(c, vsub(v, atoms[0][0])) for v, _ in atoms]
        wfrac = [w - b for w, b in zip(wfrac, back)]
        snapped = [w - b for w, b in zip(snapped, back)]
    g = solution(snapped)
    polished = res = fraction_residual(g, atoms, delta)
    if snapped != wfrac and any(r != 0 for _, r in polished):
        g = solution(wfrac)
        res = fraction_residual(g, atoms, delta)
    converged = max(abs(e) for _, e in res) <= solver.TOLERANCE * vol
    return SolveReport(g, res, polished, it, converged)


def clip_polygon_oracle(cell, a, b, j):
    """solver._clip_polygon as it was: the same cut, then the dedup pass on
    every clip."""
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
    dedup = []
    for p, lab in out:
        if dedup and p == dedup[-1][0]:
            dedup[-1] = (p, lab)
        else:
            dedup.append((p, lab))
    if len(dedup) >= 2 and dedup[0][0] == dedup[-1][0]:
        dedup.pop()
    return dedup if len(dedup) >= 3 else []


def power_cells_oracle(ring, atoms, weights):
    """solver._power_cells as it was: all k cells clipped against the k - 1
    other atoms, each labelled edge giving half its c to its pair."""
    vols, edges = [], []
    for i, (vi, _) in enumerate(atoms):
        cell = [(p, None) for p in ring]
        for j, (vj, _) in enumerate(atoms):
            if j != i and cell:
                cell = clip_polygon_oracle(
                    cell, (vi[0] - vj[0], vi[1] - vj[1]), weights[j] - weights[i], j)
        area = 0
        for (p, j), (q, _) in zip(cell, cell[1:] + cell[:1]):
            area += p[0] * q[1] - p[1] * q[0]
            if j is not None:
                a0, a1 = vi[0] - atoms[j][0][0], vi[1] - atoms[j][0][1]
                c = abs((q[0] - p[0]) * a1 - (q[1] - p[1]) * a0) / (a0 * a0 + a1 * a1)
                edges.append((i, j, c / 2))
        vols.append(area / 2 if cell else 0)
    return vols, edges
