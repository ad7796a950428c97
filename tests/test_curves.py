import heapq
import random
from fractions import Fraction
from math import lcm

import pytest

from plma import curves, solver
from plma.curves import (
    GraphError,
    GraphMeasure,
    GraphPLFunction,
    MassBalanceError,
    MetricGraph,
    canonical_metric,
    circle_graph,
    green,
    green_value,
    is_subharmonic,
    laplacian,
    ma_curve,
    solve_poisson,
    superpose,
    vertex_key,
)
from plma.geometry import dot
from plma.solver import _power_cells, solve_curve

from conftest import (
    arc_masses,
    fraction_solve_laplacian,
    fraction_weights,
    function_from_values,
    hexagon,
    interp,
    pinned_poisson,
    random_graph,
    random_graph_point,
    random_positive_measure,
    rnd_frac,
    solve_sources,
)


def star3():
    return MetricGraph.build([0, 1, 2, 3], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])


def tent(graph):
    # min(t, 1-t) on the unit circle
    return GraphPLFunction.build(
        graph, [((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)))]
    )


def slope_sum_oracle(f, graph, key):
    # exact outgoing slopes from values a small step away on each direction
    h = Fraction(1, 10**6)
    total = Fraction(0)
    for e, (u, v, ln) in enumerate(graph.edges):
        pairs = f.edge_values[e]

        def val(off):
            return interp(pairs, off)

        for end, sgn in ((u, 1), (v, -1)):
            if graph.point_key(vertex_key(end)) == key:
                base = Fraction(0) if sgn == 1 else ln
                total += (val(base + sgn * h) - val(base)) / h
        if key[0] == "e" and key[1] == e:
            off = key[2]
            total += (val(off + h) - val(off)) / h + (val(off - h) - val(off)) / h
    return total


def test_laplacian_constant_circle():
    g = circle_graph()
    f = GraphPLFunction.constant(g, Fraction(5, 3))
    assert laplacian(f, g).atoms == ()


def test_laplacian_star_distance():
    g = star3()
    f = GraphPLFunction.build(
        g,
        [
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        ],
    )
    lap = laplacian(f, g)
    assert lap.mass_at(g, vertex_key(1)) == -1
    assert lap.mass_at(g, vertex_key(0)) == 1
    assert lap.total_mass() == 0


def test_laplacian_tent_with_oracle():
    g = circle_graph()
    lap = laplacian(tent(g), g)
    # outgoing-slope convention: +2 at the base point, -2 at the max
    assert lap.mass_at(g, vertex_key(0)) == 2
    assert lap.mass_at(g, ("e", 0, Fraction(1, 2))) == -2
    for key, mass in lap.atoms:
        assert mass == slope_sum_oracle(tent(g), g, key)


def test_laplacian_mass_balance_and_linearity(rng):
    for _ in range(10):
        g = random_graph(rng)
        mu = random_positive_measure(rng, g, Fraction(2))
        om = random_positive_measure(rng, g, Fraction(2))
        f1 = superpose(g, mu, om)
        f2 = green(g, random_graph_point(rng, g), om)
        assert laplacian(f1, g).total_mass() == 0
        a, b = Fraction(3, 2), Fraction(-2, 5)
        combo = f1.scale(a) + f2.scale(b)
        lhs = laplacian(combo, g)
        rhs = laplacian(f1, g).scale(a) + laplacian(f2, g).scale(b)
        assert lhs == rhs


def test_measure_add_equals_from_atoms(rng):
    # + merges two canonically keyed measures without point_key; the
    # oracle canonicalises every atom of both again, as the sum once did
    cancelled = 0
    for _ in range(40):
        g = random_graph(rng)
        mu = random_positive_measure(rng, g, rnd_frac(rng), natoms=rng.randint(1, 5))
        nu = random_positive_measure(rng, g, rnd_frac(rng), natoms=rng.randint(1, 5))
        nu = nu + mu.scale(-1) if rng.random() < 0.3 else nu
        for a, b in ((mu, nu), (nu, mu), (mu, mu.scale(-1))):
            got = a + b
            assert got == GraphMeasure.from_atoms(g, a.atoms + b.atoms)
            assert [k for k, _ in got.atoms] == sorted((k for k, _ in got.atoms), key=repr)
            cancelled += len(got.atoms) < len({k for k, _ in a.atoms + b.atoms})
    assert cancelled > 40


def test_solve_poisson_zero():
    g = star3()
    f = solve_poisson(g, GraphMeasure.from_atoms(g, []), vertex_key(1))
    assert f.eval(g, vertex_key(2)) == 0 and laplacian(f, g).atoms == ()


def test_solve_poisson_circle_tent():
    g = circle_graph()
    rho = GraphMeasure.from_atoms(
        g, [(("e", 0, Fraction(1, 2)), Fraction(1)), (vertex_key(0), Fraction(-1))]
    )
    f = solve_poisson(g, rho, vertex_key(0))
    assert laplacian(f, g) == rho
    assert f.eval(g, vertex_key(0)) == 0
    # normative sign: -min(t, 1-t)/2
    assert f.eval(g, ("e", 0, Fraction(1, 2))) == Fraction(-1, 4)
    assert f.eval(g, ("e", 0, Fraction(1, 4))) == Fraction(-1, 8)


def gauss_oracle_star(rho_leaf_plus, rho_leaf_minus):
    # hand-coded elimination for the 4-node star system, unit edge weights:
    # f(center) unknowns f0..f3, laplacian at leaf i is f0 - fi
    # choose f0 = 0; then fi = -rho_i at each leaf
    return {0: Fraction(0), rho_leaf_plus: Fraction(-1), rho_leaf_minus: Fraction(1)}


def test_solve_poisson_star_path():
    g = star3()
    rho = GraphMeasure.from_atoms(
        g, [(vertex_key(1), Fraction(1)), (vertex_key(2), Fraction(-1))]
    )
    f = solve_poisson(g, rho, vertex_key(0))
    assert laplacian(f, g) == rho
    expected = gauss_oracle_star(1, 2)
    for vid, val in expected.items():
        assert f.eval(g, vertex_key(vid)) == val
    # constant on the third edge
    assert f.eval(g, ("e", 2, Fraction(1, 2))) == 0
    assert f.eval(g, vertex_key(3)) == 0


def test_solve_poisson_mass_mismatch():
    g = star3()
    rho = GraphMeasure.from_atoms(g, [(vertex_key(1), Fraction(1))])
    with pytest.raises(MassBalanceError):
        solve_poisson(g, rho, vertex_key(0))


def test_solve_poisson_against_pinned_oracle():
    # solve_poisson is the normalized potential against delta_x: it equals
    # the pinned solve it replaced, with x at a vertex, on an atom of rho
    # or strictly inside a segment, on graphs with a loop and a parallel
    # edge, and for rho = 0
    rng = random.Random("pinned-poisson")
    kinds = set()
    for i in range(90):
        g = random_graph(rng)
        u, v, _ = rng.choice(g.edges)
        w = rng.randrange(len(g.vertex_ids))
        g = MetricGraph.build(g.vertex_ids, [*g.edges, (u, v, Fraction(rng.randint(1, 6), 2)),
                                             (w, w, Fraction(rng.randint(1, 6), 3))])
        total = Fraction(rng.randint(1, 5), 2)
        rho = GraphMeasure(()) if i % 5 == 0 else (
            random_positive_measure(rng, g, total, natoms=rng.randint(1, 4))
            - random_positive_measure(rng, g, total, natoms=rng.randint(1, 4)))
        if i % 3 == 0 or not rho.atoms:
            x = vertex_key(rng.choice(g.vertex_ids))
        elif i % 3 == 1:
            x = rng.choice(rho.atoms)[0]
        else:
            e = rng.randrange(len(g.edges))
            x = ("e", e, g.edge_length(e) * Fraction(rng.randint(1, 6), 7))
        kinds.add("zero" if not rho.atoms else "atom" if x in rho.masses else x[0])
        got = solve_poisson(g, rho, x)
        assert got == pinned_poisson(g, rho, x)
        assert laplacian(got, g) == rho and got.eval(g, x) == 0
    assert kinds == {"zero", "atom", "v", "e"}
    # the mass is checked before the normalization point is read
    g = circle_graph()
    outside = ("e", 0, Fraction(3))
    for rho, error, message in [
        (GraphMeasure.from_atoms(g, [(vertex_key(0), 1)]), MassBalanceError,
         "source measure must have total mass zero"),
        (GraphMeasure(()), GraphError, "offset outside edge"),
    ]:
        for solve in (solve_poisson, pinned_poisson):
            with pytest.raises(error, match=f"^{message}$"):
                solve(g, rho, outside)


def test_disconnected_graph_rejected():
    with pytest.raises(GraphError):
        MetricGraph.build([0, 1, 2, 3], [(0, 1, 1), (2, 3, 1)])


def test_points_not_in_the_graph_rejected():
    g = MetricGraph.build([0, 1], [(0, 1, 1)])
    half = Fraction(1, 2)
    # and so is anything that is not a key: another tag, a list, an int, a
    # key of the wrong length, an unhashable id, an offset that is no number,
    # and one that is a float or a bool
    for loc in (vertex_key(99), ("e", 5, half), ("e", -1, half), ("e", 0, Fraction(3, 2)),
                ("e", 0, Fraction(-1, 2)), ("x", 1), ["v", 0], ["e", 0, half], 5, ("e", 0),
                ("v",), ("v", 0, 1), ("e", 0, half, 1), ("v", [0]), ("e", 0, "x"),
                ("e", 0, None), ("e", 0, 0.5), ("e", 0, True)):
        with pytest.raises(GraphError):
            g.point_key(loc)
        with pytest.raises(GraphError):
            GraphMeasure.from_atoms(g, [(loc, Fraction(1))])
        with pytest.raises(GraphError):
            GraphMeasure(()).mass_at(g, loc)
    # an edge end is its vertex
    assert g.point_key(("e", 0, Fraction(0))) == vertex_key(0)
    assert g.point_key(("e", 0, Fraction(1))) == vertex_key(1)
    assert g.point_key(("e", 0, half)) == ("e", 0, half)


def test_vertex_value_of_unknown_vertex_names_it():
    g = MetricGraph.build([0, 1], [(0, 1, 1)])
    f = GraphPLFunction.build(g, [[(0, 2), (1, 5)]])
    assert (f.vertex_value(g, 0), f.vertex_value(g, 1)) == (2, 5)
    for read in (lambda: f.vertex_value(g, 99), lambda: f.eval(g, vertex_key(99))):
        with pytest.raises(GraphError, match="^vertex 99 is not a vertex of the graph$"):
            read()


def combine_oracle(f1, f2, a, b):
    """a * f1 + b * f2 with every merged breakpoint read off by interp."""
    evs = []
    for p1, p2 in zip(f1.edge_values, f2.edge_values):
        offs = sorted({o for o, _ in p1} | {o for o, _ in p2})
        evs.append(tuple((o, a * interp(p1, o) + b * interp(p2, o)) for o in offs))
    return GraphPLFunction(tuple(evs))


def random_breakpoints(rng, ln, grid):
    """Strictly increasing offsets from 0 to ln on the 1/grid subdivision of
    the edge, with random values."""
    inner = sorted(rng.sample(range(1, grid), rng.randint(0, min(4, grid - 1))))
    offs = [Fraction(0)] + [ln * Fraction(j, grid) for j in inner] + [ln]
    return [(o, rnd_frac(rng, den=rng.randint(1, 5))) for o in offs]


def random_graph_function(rng, g, grid):
    """A function on g with breakpoints on the 1/grid subdivision of each
    edge (random_breakpoints), its values at the edge ends agreeing at the
    vertices, as GraphPLFunction.build requires."""
    evs = [random_breakpoints(rng, ln, grid) for _, _, ln in g.edges]
    vals = {vid: rnd_frac(rng) for vid in g.vertex_ids}
    for pairs, (u, v, _) in zip(evs, g.edges):
        pairs[0], pairs[-1] = (pairs[0][0], vals[u]), (pairs[-1][0], vals[v])
    return GraphPLFunction.build(g, evs)


def test_combine_merge_against_interp_oracle(rng):
    # two functions per graph with breakpoints on the 1/6 and the 1/4 grids
    # of each edge (offsets at 1/2 coincide, the others lie on one side only)
    # or on the same grid, under general coefficients
    cases = {"coinciding": 0, "one-sided": 0}
    for _ in range(60):
        g = random_graph(rng)
        grids = rng.choice([(6, 4), (6, 6), (2, 5), (3, 3)])
        f1, f2 = (random_graph_function(rng, g, grid) for grid in grids)
        for p1, p2 in zip(f1.edge_values, f2.edge_values):
            o1, o2 = {o for o, _ in p1[1:-1]}, {o for o, _ in p2[1:-1]}
            cases["coinciding"] += bool(o1 & o2)
            cases["one-sided"] += bool(o1 ^ o2)
        a, b = rnd_frac(rng, den=7, lo=-3, hi=3), rnd_frac(rng, den=5, lo=-3, hi=3)
        for x, y in ((a, b), (1, 1), (1, -1), (0, b)):
            assert f1.combine(f2, x, y) == combine_oracle(f1, f2, Fraction(x), Fraction(y))
        assert f1 + f2 == combine_oracle(f1, f2, 1, 1)
        assert f1 - f2 == combine_oracle(f1, f2, 1, -1)
    assert min(cases.values()) > 20


def test_combine_rejects_other_edges():
    # zip once dropped the edges of the longer function without a word
    g2 = MetricGraph.build([0, 1, 2], [(0, 1, 1), (1, 2, 2)])
    g1 = MetricGraph.build([0, 1], [(0, 1, 1)])
    f2 = GraphPLFunction.constant(g2, 1)
    f1 = GraphPLFunction.constant(g1, 1)
    with pytest.raises(GraphError, match="edge count mismatch"):
        f2 + f1
    with pytest.raises(GraphError, match="edge count mismatch"):
        f1 - f2
    longer = GraphPLFunction.constant(MetricGraph.build([0, 1], [(0, 1, 2)]), 1)
    with pytest.raises(GraphError, match="edge end offsets differ"):
        f1 + longer


def slope_sum_laplacian(f, graph):
    """curves.laplacian as it was before it became laplacian_form on f's
    node values, kept as its oracle: the outgoing slopes of each edge at
    its ends and each change of slope at an interior breakpoint, summed
    by key."""
    acc = {}

    def put(key, m):
        if m != 0:
            acc[key] = acc.get(key, Fraction(0)) + m

    for e, pairs in enumerate(f.edge_values):
        u, v, _ = graph.edges[e]
        slopes = [
            (y2 - y1) / (o2 - o1) for (o1, y1), (o2, y2) in zip(pairs, pairs[1:])
        ]
        put(("v", u), slopes[0])
        put(("v", v), -slopes[-1])
        for i in range(1, len(pairs) - 1):
            put(("e", e, pairs[i][0]), slopes[i] - slopes[i - 1])
    return GraphMeasure._canonical(acc)


def three_way_merge(p1, p2, a, b):
    """curves._merge as it was before it read both functions with
    _values_at, kept as its oracle: one pass over both sorted lists, a
    breakpoint of one function interpolated on the current segment of the
    other."""
    if p1[0][0] != p2[0][0] or p1[-1][0] != p2[-1][0]:
        raise GraphError("edge end offsets differ")
    out = [(p1[0][0], a * p1[0][1] + b * p2[0][1])]
    i = j = 1
    while i < len(p1):
        (o1, y1), (o2, y2) = p1[i], p2[j]
        if o1 == o2:
            out.append((o1, a * y1 + b * y2))
            i += 1
            j += 1
        elif o1 < o2:
            q, z = p2[j - 1]
            out.append((o1, a * y1 + b * (z + (y2 - z) * (o1 - q) / (o2 - q))))
            i += 1
        else:
            q, z = p1[i - 1]
            out.append((o2, a * (z + (y1 - z) * (o2 - q) / (o1 - q)) + b * y2))
            j += 1
    return tuple(out)


def graph_with_loop_and_parallel_edge(rng):
    """random_graph with a loop at the first end of edge 0 and an edge
    parallel to edge 0."""
    g = random_graph(rng)
    u, v, _ = g.edges[0]
    extra = [(u, u, Fraction(rng.randint(1, 6), rng.randint(1, 3))),
             (u, v, Fraction(rng.randint(1, 6), rng.randint(1, 3)))]
    return MetricGraph.build(g.vertex_ids, [*g.edges, *extra])


def with_collinear_breakpoints(rng, f):
    """f with, on about half of its edges, one more breakpoint in the
    middle of the first segment, where the slope does not change."""
    evs = []
    for pairs in f.edge_values:
        if rng.random() < 0.5:
            (o1, y1), (o2, y2) = pairs[:2]
            pairs = (pairs[0], ((o1 + o2) / 2, (y1 + y2) / 2), *pairs[1:])
        evs.append(pairs)
    return GraphPLFunction(tuple(evs))


def test_laplacian_against_slope_sum_oracle(rng):
    # seeded functions on graphs with a loop and a parallel edge, some of
    # their breakpoints without a change of slope, and the potentials the
    # package solves for on them
    cases = {"collinear": 0, "loop breakpoint": 0}
    for _ in range(40):
        g = graph_with_loop_and_parallel_edge(rng)
        f = with_collinear_breakpoints(rng, random_graph_function(rng, g, rng.choice([2, 3, 6])))
        om = random_positive_measure(rng, g, Fraction(2))
        fs = [f, f.simplify(), GraphPLFunction.constant(g, rnd_frac(rng)),
              green(g, random_graph_point(rng, g), om),
              superpose(g, random_positive_measure(rng, g, Fraction(2)), om)]
        for h in fs:
            assert laplacian(h, g) == slope_sum_laplacian(h, g)
        lap = laplacian(f, g)
        cases["collinear"] += sum(len(p) for p in f.edge_values) > sum(
            len(p) for p in f.simplify().edge_values)
        cases["loop breakpoint"] += any(
            key[0] == "e" and g.edges[key[1]][0] == g.edges[key[1]][1] for key, _ in lap.atoms)
    assert min(cases.values()) > 10


def test_merge_against_three_way_merge_oracle(rng):
    # breakpoints on the 1/6 and 1/4 grids of each edge (shared at 1/2),
    # on the same grid (shared wherever both have one) or on coprime grids,
    # some without a change of slope, on graphs with a loop and a parallel
    # edge
    cases = {"shared": 0, "one-sided": 0}
    for _ in range(40):
        g = graph_with_loop_and_parallel_edge(rng)
        grids = rng.choice([(6, 4), (6, 6), (2, 5), (3, 3)])
        f1, f2 = (with_collinear_breakpoints(rng, random_graph_function(rng, g, grid))
                  for grid in grids)
        a, b = rnd_frac(rng, den=7, lo=-3, hi=3), rnd_frac(rng, den=5, lo=-3, hi=3)
        for x, y in ((a, b), (Fraction(1), Fraction(-1)), (Fraction(0), b)):
            want = tuple(three_way_merge(p1, p2, x, y)
                         for p1, p2 in zip(f1.edge_values, f2.edge_values))
            assert tuple(curves._merge(p1, p2, x, y)
                         for p1, p2 in zip(f1.edge_values, f2.edge_values)) == want
            assert f1.combine(f2, x, y) == GraphPLFunction(want)
        for p1, p2 in zip(f1.edge_values, f2.edge_values):
            o1, o2 = {o for o, _ in p1[1:-1]}, {o for o, _ in p2[1:-1]}
            cases["shared"] += bool(o1 & o2)
            cases["one-sided"] += bool(o1 ^ o2)
    assert min(cases.values()) > 20


def test_values_at_against_interp_oracle(rng):
    # at the edge ends, at the breakpoints and between them, sorted, with
    # repeats; a breakpoint's value comes back as it is stored
    for _ in range(200):
        ln = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        pairs = random_breakpoints(rng, ln, rng.choice([2, 3, 6]))
        breaks = [o for o, _ in pairs]
        between = [(o1 + o2) / 2 for o1, o2 in zip(breaks, breaks[1:])]
        between += [ln * Fraction(rng.randint(0, 12), 12) for _ in range(3)]
        offs = sorted(rng.choices(breaks + between, k=rng.randint(1, 8)) + [breaks[0], breaks[-1]])
        got = curves._values_at(pairs, offs)
        assert got == [interp(pairs, o) for o in offs]
        stored = dict(pairs)
        assert all(y is stored[o] for o, y in zip(offs, got) if o in stored)


def test_eval_against_interp_oracle(rng):
    # inside every edge, on and between the breakpoints
    for _ in range(20):
        g = graph_with_loop_and_parallel_edge(rng)
        f = with_collinear_breakpoints(rng, random_graph_function(rng, g, rng.choice([2, 3, 6])))
        for e, pairs in enumerate(f.edge_values):
            for j in range(1, 12):
                off = g.edge_length(e) * Fraction(j, 12)
                assert f.eval(g, ("e", e, off)) == interp(pairs, off)


def test_poisson_uniqueness_up_to_constants(rng):
    g = random_graph(rng)
    mu = random_positive_measure(rng, g, Fraction(3))
    om = random_positive_measure(rng, g, Fraction(3))
    rho = mu - om
    p1 = random_graph_point(rng, g)
    p2 = random_graph_point(rng, g)
    f1 = solve_poisson(g, rho, p1)
    f2 = solve_poisson(g, rho, p2)
    c = f1.eval(g, p2)
    probes = [vertex_key(v) for v in g.vertex_ids] + [k for k, _ in rho.atoms]
    assert all(f1.eval(g, k) - c == f2.eval(g, k) for k in probes)


def test_green_at_omega0_atom():
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    phi = green(g, vertex_key(0), om)
    assert phi.eval(g, ("e", 0, Fraction(1, 3))) == 0


def test_green_circle_defining_properties():
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(1))])
    x = ("e", 0, Fraction(1, 2))
    phi = green(g, x, om)
    want = GraphMeasure.from_atoms(g, [(x, Fraction(1)), (vertex_key(0), Fraction(-1))])
    assert laplacian(phi, g) == want
    assert om.integrate(g, phi) == 0


def test_green_symmetry(rng):
    for _ in range(10):
        g = random_graph(rng)
        om = random_positive_measure(rng, g, Fraction(1))
        x = random_graph_point(rng, g)
        y = random_graph_point(rng, g)
        assert green_value(g, x, y, om) == green_value(g, y, x, om)


def test_superpose_examples(rng):
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    x = ("e", 0, Fraction(1, 3))
    mu = GraphMeasure.from_atoms(g, [(x, Fraction(2))])
    assert superpose(g, mu, om) == green(g, x, om)
    assert superpose(g, om, om).simplify() == GraphPLFunction.constant(g, 0)
    a, b = ("e", 0, Fraction(1, 4)), ("e", 0, Fraction(2, 3))
    mu2 = GraphMeasure.from_atoms(g, [(a, Fraction(1)), (b, Fraction(1))])
    f = superpose(g, mu2, om)
    assert laplacian(f, g) == mu2 - om
    assert om.integrate(g, f) == 0


def test_superpose_mass_mismatch():
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    mu = GraphMeasure.from_atoms(g, [(("e", 0, Fraction(1, 3)), Fraction(1))])
    with pytest.raises(MassBalanceError):
        superpose(g, mu, om)


def test_superpose_checks_reference_without_atoms():
    # with no atom in mu there is no Green solve to check omega0, and the
    # zero function does not have laplacian mu - omega0 = -omega0
    g = circle_graph()
    mu = GraphMeasure.from_atoms(g, [])
    om = GraphMeasure.from_atoms(
        g, [(vertex_key(0), Fraction(1)), (("e", 0, Fraction(1, 2)), Fraction(-1))]
    )
    with pytest.raises(MassBalanceError, match="reference measure must be positive"):
        superpose(g, mu, om)


def test_is_subharmonic_examples(rng):
    g = random_graph(rng)
    om = random_positive_measure(rng, g, Fraction(2))
    x = random_graph_point(rng, g)
    assert is_subharmonic(GraphPLFunction.constant(g, 0), g, om)
    phi = green(g, x, om)
    assert is_subharmonic(phi, g, om)
    if om.mass_at(g, x) == 0:
        assert not is_subharmonic(phi.scale(-1), g, om)


def test_ma_curve_examples(rng):
    g = random_graph(rng)
    om = random_positive_measure(rng, g, Fraction(3))
    assert ma_curve(GraphPLFunction.constant(g, Fraction(1, 7)), g, om) == om
    mu = random_positive_measure(rng, g, Fraction(3))
    f = superpose(g, mu, om)
    assert ma_curve(f, g, om) == mu
    assert ma_curve(f, g, om).total_mass() == 3


def test_maximum_principle(rng):
    # away from supp(laplacian(f)) the function is harmonic, so the global
    # max is attained on that support (or f is constant)
    for _ in range(10):
        g = random_graph(rng)
        om = random_positive_measure(rng, g, Fraction(2))
        mu = random_positive_measure(rng, g, Fraction(2))
        f = superpose(g, mu, om)
        lap = laplacian(f, g)
        if not lap.atoms:
            continue
        candidates = [k for k, _ in lap.atoms]
        candidates += [g.point_key(vertex_key(v)) for v in g.vertex_ids]
        for e, pairs in enumerate(f.edge_values):
            candidates += [g.point_key(("e", e, o)) for o, _ in pairs]
        overall = max(f.eval(g, k) for k in candidates)
        on_support = max(f.eval(g, k) for k, _ in lap.atoms)
        assert overall == on_support


def test_perron_inequality(rng):
    # any competitor whose laplacian dominates d_L delta_x - omega0 atomwise,
    # normalized nonpositively against omega0, lies below the Green function
    g = random_graph(rng)
    om = random_positive_measure(rng, g, Fraction(2))
    x = g.point_key(random_graph_point(rng, g))
    phi_x = green(g, x, om)
    target = GraphMeasure.from_atoms(g, [(x, Fraction(2))]) - om
    for c in (Fraction(0), Fraction(-1, 3), Fraction(-2)):
        cand = phi_x + GraphPLFunction.constant(g, c)
        lap = laplacian(cand, g)
        dominates = all(lap.mass_at(g, k) >= m for k, m in target.atoms)
        assert dominates and om.integrate(g, cand) <= 0
        for key, _ in lap.atoms:
            assert cand.eval(g, key) <= phi_x.eval(g, key)


def test_canonical_zero_iterations():
    potential, measure = canonical_metric(2, 0)
    g = circle_graph()
    assert potential.simplify() == GraphPLFunction.constant(g, 0)
    assert measure == GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(1))])


def test_canonical_exact_dyadic_masses():
    for k in range(1, 7):
        _, measure = canonical_metric(2, k)
        masses = arc_masses(measure, 2**k)
        assert all(m == Fraction(1, 2**k) for m in masses)


def test_canonical_monotone_decay():
    prev = None
    for k in range(1, 9):
        _, measure = canonical_metric(2, k)
        masses = arc_masses(measure, 8)
        disc = max(abs(m - Fraction(1, 8)) for m in masses)
        if prev is not None:
            assert disc <= prev
        prev = disc


def test_canonical_division_points_in_repr_order():
    # the division points sorted by (str(numerator), str(denominator)) are
    # in the repr order of their keys, the vertex key last
    for m in range(2, 8):
        k = 0
        while m**k <= 4096:
            keys = [key for key, _ in canonical_metric(m, k)[1].atoms]
            assert keys == sorted(keys, key=repr) and keys[-1] == vertex_key(0)
            k += 1


def test_canonical_bad_m():
    # m is checked before the iteration count
    for m, k, message in ((1, 3, "multiplier m"), (1, -1, "multiplier m"), (2, -1, "iterations")):
        with pytest.raises(ValueError, match=message):
            canonical_metric(m, k)


# ---------------------------------------------------------------------------
# oracles: the dense exact solve, the pullback iterate and the Poisson
# solve of the canonical metric


def _gauss_solve(A, b):
    """Exact dense Gauss-Jordan elimination over the rationals."""
    n = len(A)
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                c = M[r][col]
                M[r] = [x - c * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def dense_solve_laplacian(rho, n, edges, pinned):
    """The same system as curves.solve_laplacian, as one dense matrix, its
    values 0 on the set `pinned`."""
    fixed = dict.fromkeys(pinned, Fraction(0))
    free = [k for k in range(n) if k not in fixed]
    pos = {k: i for i, k in enumerate(free)}
    m = len(free)
    A = [[Fraction(0)] * m for _ in range(m)]
    b = [rho.get(k, Fraction(0)) for k in free]
    for a, bb, w in edges:
        for this, other in ((a, bb), (bb, a)):
            if this in fixed:
                continue
            i = pos[this]
            A[i][i] -= w
            if other in fixed:
                b[i] -= w * fixed[other]
            else:
                A[i][pos[other]] += w
    out = [fixed.get(k) for k in range(n)]
    for k, x in zip(free, _gauss_solve(A, b) if m else []):
        out[k] = x
    return out


def _compose_with_mult(f, m):
    """t -> f(m t mod 1) on the unit circle."""
    pairs = f.edge_values[0]
    offs = {(o + j) / m for j in range(m) for o, _ in pairs} | {Fraction(0), Fraction(1)}
    out = []
    for o in sorted(offs):
        t = Fraction(0) if o == 1 else (m * o) % 1
        out.append((o, interp(pairs, t)))
    return GraphPLFunction((tuple(out),))


def pullback_iterates(m, d_L):
    """u_0 = 0, u_{k+1} = h + (u_k o m) / m^2 with laplacian(h) = omega_1 - omega0."""
    g = circle_graph()
    omega0 = GraphMeasure.from_atoms(g, [(vertex_key(0), d_L)])
    omega1 = GraphMeasure.from_atoms(
        g, [(("e", 0, Fraction(j, m)), d_L / m) for j in range(m)]
    )
    h = solve_poisson(g, omega1 - omega0, vertex_key(0))
    u = GraphPLFunction.constant(g, 0)
    while True:
        yield u, laplacian(u, g) + omega0
        u = (h + _compose_with_mult(u, m).scale(Fraction(1, m * m))).simplify()


def poisson_canonical_metric(m, k, d_L):
    """One Poisson solve on the circle with source omega_k - omega0."""
    g = circle_graph()
    parts = m**k
    omega0 = GraphMeasure.from_atoms(g, [(vertex_key(0), d_L)])
    rho = GraphMeasure.from_atoms(
        g,
        [(("e", 0, Fraction(j, parts)), d_L / parts) for j in range(parts)]
        + [(vertex_key(0), -d_L)],
    )
    u = solve_poisson(g, rho, vertex_key(0))
    return u, laplacian(u, g) + omega0


def _length(rng):
    return Fraction(rng.randint(1, 6), rng.randint(1, 3))


def _oracle_graph(rng):
    """A random connected graph with a loop, a parallel edge and interior nodes."""
    nv = rng.randint(2, 24)
    edges = [(rng.randrange(v), v, _length(rng)) for v in range(1, nv)]
    for _ in range(rng.randint(0, nv // 3)):
        edges.append((rng.randrange(nv), rng.randrange(nv), _length(rng)))
    u, v, _ = edges[0]
    w = rng.randrange(nv)
    edges += [(v, u, Fraction(5, 2)), (w, w, Fraction(rng.randint(1, 4)))]
    g = MetricGraph.build(list(range(nv)), edges)
    keys = {vertex_key(x) for x in g.vertex_ids}
    for _ in range(rng.randint(1, 2 * nv)):
        e = rng.randrange(len(g.edges))
        keys.add(g.point_key(("e", e, g.edge_length(e) * Fraction(rng.randint(1, 6), 7))))
    return g, sorted(keys, key=repr)


def test_sparse_solve_equals_dense_oracle():
    rng = random.Random(606)
    for _ in range(36):
        g, keys = _oracle_graph(rng)
        index, weights, _, _ = curves._refine(g, keys)
        n, edges = len(index), fraction_weights(weights)
        rho = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for k in rng.sample(range(n), 3)}
        # the pure Neumann mode of solve_poisson: one node pinned to zero
        got = solve_sources(rho, n, edges, {0})
        assert got == dense_solve_laplacian(rho, n, edges, {0})
        # the contact-set mode of the Howard iteration: a nonempty pinned set
        contact = set(rng.sample(range(n), rng.randint(1, n)))
        got = solve_sources(rho, n, edges, contact)
        assert got == dense_solve_laplacian(rho, n, edges, contact)
        assert all(got[k] == 0 for k in contact)
    # the toric Newton system: the cell adjacency graph of exact power cells
    # of 5 atoms in the hexagon, first weight pinned
    for k, edges in toric_newton_systems(rng, 4):
        rho = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(k)}
        got = solve_sources(rho, k, edges, {0})
        assert got == dense_solve_laplacian(rho, k, edges, {0})
        assert all(isinstance(x, Fraction) for x in got)


def _weighted_graph(rng, kind, n):
    """(n, edges) of a seeded weighted graph on the nodes 0..n-1: a random
    tree, a cycle with a chord, or a dense graph with about half of all
    pairs joined, on rational weights of several denominators."""
    def weight():
        return Fraction(rng.randint(1, 40), rng.choice([1, 2, 3, 7, 12, 35]))

    edges = [(rng.randrange(v), v, weight()) for v in range(1, n)] if kind == "tree" else []
    if kind == "cycle":
        edges = [(v, (v + 1) % n, weight()) for v in range(n)] + [(0, n // 2, weight())]
    if kind == "dense":
        edges = [(u, v, weight()) for u in range(n) for v in range(u) if v == u - 1 or rng.random() < 0.5]
    return n, edges


def toric_newton_systems(rng, count):
    """The cell adjacency graphs of exact power cells of 5 atoms in the
    hexagon, with rational weights near the Voronoi ones: the toric Newton
    system on Fractions."""
    for _ in range(count):
        atoms = [((rnd_frac(rng), rnd_frac(rng)), Fraction(1)) for _ in range(5)]
        atoms = list(dict(atoms).items())
        weights = [-dot(v, v) / 8 + Fraction(rng.randint(-99, 99), 10**4) for v, _ in atoms]
        vols, edges = _power_cells(hexagon().ring(), atoms, weights, hexagon().volume())
        assert all(v > 0 for v in vols)
        yield len(atoms), edges


def test_padic_solve_equals_fraction_elimination():
    # the p-adic solve gives what the Fraction elimination gave, on trees,
    # cycles and dense graphs, pinned at one node (the Neumann mode of
    # solve_poisson) or on a random contact set (the Howard mode), and on
    # the toric Newton systems
    rng = random.Random(1982)
    systems = []
    for kind in ("tree", "cycle", "dense") * 8:
        n, edges = _weighted_graph(rng, kind, rng.randint(3, 60))
        rho = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for k in rng.sample(range(n), 3)}
        systems.append((rho, n, edges, {0}))
        systems.append((rho, n, edges, set(rng.sample(range(n), rng.randint(1, n)))))
    for k, edges in toric_newton_systems(rng, 4):
        rho = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(k)}
        systems.append((rho, k, edges, {0}))
    for rho, n, edges, pinned in systems:
        got = solve_sources(rho, n, edges, pinned)
        assert got == fraction_solve_laplacian(rho, n, edges, zero_pins(pinned))
        assert all(type(x) is Fraction for x in got)


def zero_pins(pinned):
    """The pins of the set `pinned` as the Fraction oracle takes them: a
    dict node -> 0."""
    return dict.fromkeys(pinned, Fraction(0))


def counting(monkeypatch, name):
    """Count the calls of curves.<name> in the returned list."""
    calls, original = [], getattr(curves, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curves, name, counted)
    return calls


def test_padic_solve_moves_past_an_unlucky_prime(monkeypatch):
    # node 0 pinned, then the path 0 - 1 - 2 with weights 1 and 2: the rows
    # of nodes 1 and 2 tie in size, and the pivot of node 1 is -3, zero mod 3
    system = ({1: Fraction(1, 2), 2: Fraction(-3)}, 3,
              [(0, 1, Fraction(1)), (1, 2, Fraction(2))], {0})
    want = fraction_solve_laplacian(*system[:3], zero_pins(system[3]))
    assert solve_sources(*system) == want
    eliminations = counting(monkeypatch, "_eliminate")
    # the real first prime as a weight: its pivot is zero mod that prime
    p, q = curves.PRIMES[:2]
    assert solve_sources({1: Fraction(1)}, 2, [(0, 1, Fraction(p))], {0}) \
        == [0, Fraction(-1, p)]
    assert [args[2] for args in eliminations] == [p, q]
    eliminations.clear()
    monkeypatch.setattr(curves, "PRIMES", (3, p))
    assert solve_sources(*system) == want
    assert [args[2] for args in eliminations] == [3, p]
    # a zero pivot for every prime of the list
    monkeypatch.setattr(curves, "PRIMES", (3,))
    with pytest.raises(GraphError, match="singular linear system"):
        solve_sources(*system)


def test_padic_solve_of_an_integral_solution_takes_one_lift(monkeypatch):
    # sources made from integer values: the first lift leaves r = 0, and
    # the solve returns after one substitution, with no second lift and no
    # reconstruction
    rng = random.Random(7)
    substitutions = counting(monkeypatch, "_substitute")
    reconstructions = counting(monkeypatch, "_reconstruct")
    for kind in ("tree", "cycle", "dense"):
        n, edges = _weighted_graph(rng, kind, 30)
        edges = [(a, b, Fraction(rng.randint(1, 9))) for a, b, _ in edges]
        pinned = set(rng.sample(range(n), 3))
        x = [Fraction(0 if i in pinned else rng.randint(-10**6, 10**6)) for i in range(n)]
        rho = {i: Fraction(0) for i in range(n)}
        for a, b, w in edges:
            rho[a] += w * (x[b] - x[a])
            rho[b] += w * (x[a] - x[b])
        assert solve_sources(rho, n, edges, pinned) == x
    assert len(substitutions) == 3 and reconstructions == []


def test_padic_solve_without_a_pinned_node_is_singular():
    # a Laplacian with no pinned node is singular mod every prime
    rng = random.Random(3)
    for kind in ("tree", "cycle", "dense"):
        n, edges = _weighted_graph(rng, kind, 12)
        with pytest.raises(GraphError, match="singular linear system"):
            solve_sources({0: Fraction(1), 1: Fraction(-1)}, n, edges, set())
    with pytest.raises(GraphError, match="singular linear system"):
        curves.solve_integer([{0: 1, 1: -1}, {0: -1, 1: 1}], [0, 0], [0, 1])


def lift_bound(rows, b, free):
    """The lifts after which solve_integer must have reconstructed: the
    least k with p^k > 2 B^2, B the product over the free rows of
    |row|_1 + |b_i|, for the first prime."""
    B = 1
    for i in free:
        B *= sum(abs(v) for v in rows[i].values()) + abs(b[i])
    k, pk = 0, 1
    while pk <= 2 * B * B:
        k, pk = k + 1, pk * curves.PRIMES[0]
    return k


def rational_systems(rng, count):
    """Seeded systems of solve_laplacian (rho, n, edges, pinned) on trees,
    cycles and dense graphs, each pinned at one to three random nodes."""
    for kind in ("tree", "cycle", "dense") * count:
        n, edges = _weighted_graph(rng, kind, rng.randint(3, 40))
        rho = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for k in rng.sample(range(n), 3)}
        yield rho, n, edges, set(rng.sample(range(n), rng.randint(1, 3)))


def test_padic_lifts_stay_within_the_bound(monkeypatch):
    # one _substitute per lift; every real solve reconstructs within the
    # lifts that the Hadamard bound allows, most of them well within
    substitutions = counting(monkeypatch, "_substitute")
    calls = counting(monkeypatch, "solve_integer")
    spare = []
    for system in rational_systems(random.Random(1923), 6):
        before = len(substitutions)
        want = fraction_solve_laplacian(*system[:3], zero_pins(system[3]))
        assert solve_sources(*system) == want
        lifts, bound = len(substitutions) - before, lift_bound(*calls[-1])
        assert 1 <= lifts <= bound
        spare.append(bound - lifts)
    assert sum(s > 0 for s in spare) > len(spare) / 2


def test_padic_solve_that_never_reconstructs_raises(monkeypatch):
    # a reconstruction that always fails ends at the bound with
    # ConvergenceError (CLI exit 3), after exactly the bound's lifts
    assert curves.ConvergenceError is solver.ConvergenceError
    monkeypatch.setattr(curves, "_reconstruct", lambda X, free, modulus: None)
    substitutions = counting(monkeypatch, "_substitute")
    calls = counting(monkeypatch, "solve_integer")
    for system in rational_systems(random.Random(1924), 3):
        before = len(substitutions)
        with pytest.raises(curves.ConvergenceError,
                           match="^p-adic solve passed its lift bound unreconstructed$"):
            solve_sources(*system)
        assert len(substitutions) - before == lift_bound(*calls[-1])


CURVE_INPUT_ERRORS = {
    "duplicate ids": (lambda: MetricGraph.build([0, 1, 0], [(0, 1, 1)]),
                      GraphError, "duplicate vertex ids"),
    "nonpositive length": (lambda: MetricGraph.build([0, 1], [(0, 1, 0)]),
                           GraphError, "edge lengths must be positive"),
    "undeclared endpoint": (lambda: MetricGraph.build([0, 1], [(0, 2, 1)]),
                            GraphError, "edge endpoint not a declared vertex"),
    "no vertices": (lambda: MetricGraph.build([], []), GraphError, "graph must be connected"),
    "breakpoints short of the edge": (
        lambda: GraphPLFunction.build(circle_graph(), [((0, 0), (Fraction(1, 2), 1))]),
        GraphError, "edge 0: breakpoints must run from 0 to the edge length"),
    "breakpoints not increasing": (
        lambda: GraphPLFunction.build(circle_graph(), [((0, 0), (Fraction(1, 2), 1), (Fraction(1, 2), 2),
                                                        (1, 0))]),
        GraphError, "edge 0: breakpoints must be strictly increasing"),
    "discontinuity": (
        lambda: GraphPLFunction.build(MetricGraph.build([0, 1, 2], [(0, 1, 1), (1, 2, 1)]),
                                      [((0, 0), (1, 1)), ((0, 2), (1, 0))]),
        GraphError, "discontinuity at vertex 1"),
    "not subharmonic": (
        lambda: ma_curve(tent(circle_graph()), circle_graph(),
                         GraphMeasure.from_atoms(circle_graph(), [(vertex_key(0), Fraction(1))])),
        curves.SubharmonicityError, "function is not subharmonic for the reference measure"),
}


@pytest.mark.parametrize("case", list(CURVE_INPUT_ERRORS))
def test_curve_input_errors(case):
    call, error, message = CURVE_INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def keyed_solve_laplacian(rho, nodes, edges, fixed):
    """solve_laplacian as it ran on location keys: the free nodes took
    positions in the order of `nodes`, and ties went to the lower position."""
    free = [k for k in nodes if k not in fixed]
    pos = {k: i for i, k in enumerate(free)}
    rows = [{} for _ in free]
    b = [rho.get(k, 0) for k in free]
    for a, bb, w in edges:
        for this, other in ((a, bb), (bb, a)):
            i = pos.get(this)
            if i is None:
                continue
            rows[i][i] = rows[i].get(i, 0) - w
            j = pos.get(other)
            if j is None:
                b[i] -= w * fixed[other]
            else:
                rows[i][j] = rows[i].get(j, 0) + w
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    done, eliminated = set(), []
    while heap:
        size, i = heapq.heappop(heap)
        if i in done or size != len(rows[i]):
            continue
        done.add(i)
        row = rows[i]
        piv = row.pop(i)
        for k in row:
            row[k] /= piv
        b[i] /= piv
        for j in row:
            c = rows[j].pop(i)
            for k, v in row.items():
                rows[j][k] = rows[j].get(k, 0) - c * v
            b[j] -= c * b[i]
            heapq.heappush(heap, (len(rows[j]), j))
        eliminated.append(i)
    x = [None] * len(free)
    for i in reversed(eliminated):
        x[i] = b[i] - sum(v * x[k] for k, v in rows[i].items())
    out = dict(fixed)
    out.update(zip(free, x))
    return out


def test_float_solve_rounds_as_keyed_elimination():
    # on node numbers the elimination visits the rows in the same order as
    # it did on keys, so a float solve (the toric Newton step, the envelope's
    # guide) rounds the same, bit for bit
    rng = random.Random(1982)
    for _ in range(30):
        g, keys = _oracle_graph(rng)
        index, weights, _, _ = curves._refine(g, keys)
        n = len(index)
        fedges = [(a, b, float(w) * rng.uniform(0.5, 2)) for a, b, w in fraction_weights(weights)]
        keyed = {a: k for k, a in index.items()}
        nodes = [keyed[i] for i in range(n)]
        kedges = [(keyed[a], keyed[b], w) for a, b, w in fedges]
        rho = {i: rng.uniform(-9, 9) for i in rng.sample(range(n), min(n, 5))}
        form = ([rho.get(i, 0.0) for i in range(n)], 1, fedges, 1)
        for contact in ({0}, set(rng.sample(range(n), rng.randint(1, n)))):
            got, _ = curves.solve_laplacian(form, contact)
            want = keyed_solve_laplacian({keyed[i]: r for i, r in rho.items()}, nodes,
                                         kedges, {keyed[i]: 0.0 for i in contact})
            assert got == [want[k] for k in nodes]


def test_node_order_round_trip():
    # _refine numbers the vertices first, in graph order, then each edge's
    # sorted interior offsets, edge by edge: f's breakpoints in their order
    # with the keys' offsets merged in, or, without f, the keys' offsets
    # sorted.  It reads f at the nodes in that order, and
    # _function_from_node_values reads it back as f.simplify() does, on
    # graphs with a loop and a parallel edge, with extra nodes that are not
    # breakpoints of the function and some that are
    rng = random.Random(1807)
    for _ in range(40):
        g, keys = _oracle_graph(rng)
        evs = [random_breakpoints(rng, ln, rng.choice([2, 3, 4, 7])) for _, _, ln in g.edges]
        vals = {vid: rnd_frac(rng) for vid in g.vertex_ids}
        for pairs, (u, v, _) in zip(evs, g.edges):
            pairs[0], pairs[-1] = (pairs[0][0], vals[u]), (pairs[-1][0], vals[v])
        f = GraphPLFunction.build(g, evs)
        rng.shuffle(keys)
        index, weights, offsets, values = curves._refine(g, keys, f)
        breakpoints = [("e", e, o) for e, pairs in enumerate(f.edge_values) for o, _ in pairs[1:-1]]
        interior = [sorted({k[2] for k in keys + breakpoints if k[0] == "e" and k[1] == e})
                    for e in range(len(g.edges))]
        assert offsets == interior
        order = [("v", vid) for vid in g.vertex_ids]
        order += [("e", e, o) for e, offs in enumerate(offsets) for o in offs]
        assert index == {k: order.index(k) for k in keys}
        segments = []
        for e, (u, v, ln) in enumerate(g.edges):
            stops = [("v", u)] + [("e", e, o) for o in offsets[e]] + [("v", v)]
            offs = [0] + offsets[e] + [ln]
            segments += [(order.index(a), order.index(b), 1 / (o2 - o1))
                         for a, b, o1, o2 in zip(stops, stops[1:], offs, offs[1:])]
        assert fraction_weights(weights) == segments
        W, Dw = weights
        assert Dw == lcm(*(w.denominator for _, _, w in segments))
        assert values == [f.eval(g, k) for k in order]
        assert function_from_values(g, values, offsets, weights) == f.simplify()
        # without f, the same nodes when every breakpoint is a key
        everything = keys + breakpoints
        rng.shuffle(everything)
        assert curves._refine(g, everything) == (
            {k: i for i, k in enumerate(order)}, weights, offsets, None)


@pytest.mark.parametrize(
    "m, ks, d_L",
    [
        (2, (0, 1, 4, 6, 8, 10), Fraction(1)),
        (3, (4, 5), Fraction(1)),
        (5, (3,), Fraction(1)),
        (2, (3, 5), Fraction(3, 2)),
        (3, (2, 3), Fraction(7)),
        (5, (1, 2), Fraction(2, 5)),
    ],
)
def test_canonical_metric_equals_pullback_iterate(m, ks, d_L):
    iterates = pullback_iterates(m, d_L)
    for k in range(max(ks) + 1):
        u, measure = next(iterates)
        if k in ks:
            potential, got = canonical_metric(m, k, d_L)
            assert potential.edge_values == u.edge_values
            assert got.atoms == measure.atoms


@pytest.mark.parametrize(
    "m, ks, d_L",
    [
        (2, (0, 1, 4, 6, 8, 10), Fraction(1)),
        (3, (0, 4, 5), Fraction(1)),
        (5, (0, 3), Fraction(1)),
        (2, (0, 3, 5), Fraction(3, 2)),
        (3, (0, 2, 3), Fraction(7)),
        (5, (0, 1, 2), Fraction(2, 5)),
        (2, (0, 1, 5), Fraction(0)),
        (3, (0, 1, 3), Fraction(-3)),
        (7, (0, 1, 2), Fraction(1)),
    ],
)
def test_canonical_metric_equals_poisson_oracle(m, ks, d_L):
    for k in ks:
        potential, measure = canonical_metric(m, k, d_L)
        u, omega_k = poisson_canonical_metric(m, k, d_L)
        assert potential.edge_values == u.edge_values
        assert measure.atoms == omega_k.atoms


def test_arc_masses_index_by_floor():
    _, canonical = canonical_metric(2, 6)
    # offsets of 1 and beyond, and negative ones, wrap around the circle
    wrapped = GraphMeasure(tuple(
        (("e", 0, Fraction(p, q)), Fraction(i + 1, 7))
        for i, (p, q) in enumerate([(1, 1), (5, 2), (13, 4), (-1, 8), (-7, 3), (-2, 1),
                                    (-1, 64), (129, 64), (-65, 12)])
    ))
    for measure in (canonical, wrapped):
        for parts in (8, 12, 64):
            expected = [Fraction(0)] * parts
            for key, mass in measure.atoms:
                t = Fraction(0) if key[0] == "v" else key[2] % 1
                expected[int(t * parts)] += mass
            assert arc_masses(measure, parts) == expected


def fraction_arc_masses(measure, parts):
    """arc_masses as it was: one Fraction addition per atom."""
    out = [Fraction(0)] * parts
    for key, mass in measure.atoms:
        if key[0] == "v":
            out[0] += mass
        else:
            o = key[2]
            out[o.numerator * parts // o.denominator % parts] += mass
    return out


def test_arc_masses_against_one_addition_per_atom():
    # vertex atoms, offsets of 1 and beyond and negative ones, several
    # atoms per arc and empty arcs, against the loop that adds every atom
    rng = random.Random(1024)
    for _ in range(300):
        parts = rng.choice([1, 2, 3, 8, 12, 64])
        atoms = [(("v", 0), rnd_frac(rng))] * rng.randint(0, 2)
        for _ in range(rng.randint(0, 2 * parts)):
            o = Fraction(rng.randint(-3 * parts, 3 * parts), parts) + Fraction(rng.randint(0, 7), 8 * parts)
            atoms.append((("e", 0, o), rnd_frac(rng, den=rng.choice([1, 5, 7]))))
        rng.shuffle(atoms)
        measure = GraphMeasure(tuple(atoms))
        got = arc_masses(measure, parts)
        assert got == fraction_arc_masses(measure, parts)
        assert all(type(m) is Fraction for m in got)
        assert [str(m) for m in got] == [str(m) for m in fraction_arc_masses(measure, parts)]


def test_solve_curve_at_scale():
    # the benchmark's graph shape (a spanning tree plus v/4 extra edges) at
    # 160 vertices, with three atoms in mu and two in omega0
    rng = random.Random(160)
    nv = 160
    edges = [(rng.randrange(v), v, _length(rng)) for v in range(1, nv)]
    for _ in range(nv // 4):
        u, v = rng.sample(range(nv), 2)
        edges.append((u, v, _length(rng)))
    g = MetricGraph.build(list(range(nv)), edges)
    pts = [("e", e, g.edge_length(e) * Fraction(q, 4)) for e, q in ((3, 1), (70, 2), (150, 3))]
    mu = GraphMeasure.from_atoms(g, zip(pts, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))))
    omega0 = GraphMeasure.from_atoms(
        g, [(vertex_key(0), Fraction(1, 4)), (vertex_key(99), Fraction(3, 4))]
    )
    f = solve_curve(g, mu, omega0)
    assert laplacian(f, g) == mu - omega0
    assert omega0.integrate(g, f) == 0
