import json
import math
import random
from fractions import Fraction

import pytest

from plma import cli, curves, serialize, solver
from plma.curves import (
    GraphError,
    GraphMeasure,
    GraphPLFunction,
    MassBalanceError,
    circle_graph,
    green,
    laplacian,
    ma_curve,
    solve_poisson,
    superpose,
    vertex_key,
)
from plma.geometry import (
    AffineFunctional,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    cross2,
    dot,
    support_function,
    vadd,
    vscale,
    vsub,
)
from plma.serialize import graph_function_to_json
from plma.solver import (
    SolverOptions,
    _clip_polygon,
    _power_cells,
    _voronoi_weights,
    residual,
    solve_curve,
    solve_toric,
)
from plma.toric import AdmissibilityError, DegeneratePolytopeError, ma_measure, point_mass_solution

from conftest import (
    ACCEPTANCE_POLYTOPES,
    hexagon,
    interval,
    random_admissible,
    random_graph,
    random_positive_measure,
    rational_hexagon,
    rnd_frac,
    simplex2,
    unit_square,
)


def test_point_mass_target(rng):
    for delta in (interval(), unit_square(), simplex2(), hexagon()):
        v0 = tuple(rnd_frac(rng, den=5, lo=-1, hi=1) for _ in range(delta.dim))
        nu = DiscreteMeasure.from_atoms([(v0, delta.volume())])
        rep = solve_toric(delta, nu)
        assert rep.converged
        assert all(e == 0 for _, e in rep.polished_residual)
        g0 = point_mass_solution(delta, v0)
        c = g0(delta.vertices[0]) - rep.solution(delta.vertices[0])
        for v in delta.vertices:
            assert abs(float(g0(v) - rep.solution(v) - c)) < 1e-9


def test_interval_two_atoms_hand_pattern():
    # nu = (1/2) delta_0 + (1/2) delta_1: subdifferential splits [0,1] in half
    delta = interval()
    nu = DiscreteMeasure.from_atoms(
        [((Fraction(0),), Fraction(1, 2)), ((Fraction(1),), Fraction(1, 2))]
    )
    rep = solve_toric(delta, nu)
    g = rep.solution
    assert rep.converged and all(e == 0 for _, e in rep.residual)
    assert ma_measure(g, delta).measure_NR == nu
    # slopes 0, 1/2, 1 with kinks at the atoms: each subdifferential is half of [0,1]
    c = g((Fraction(0),))
    assert g((Fraction(1, 2),)) == c + Fraction(1, 4)
    assert g((Fraction(2),)) == c + Fraction(3, 2)


def test_simplex_three_atoms():
    delta = simplex2()
    nu = DiscreteMeasure.from_atoms(
        [
            ((Fraction(0), Fraction(0)), Fraction(1, 6)),
            ((Fraction(1), Fraction(0)), Fraction(1, 6)),
            ((Fraction(0), Fraction(1)), Fraction(1, 6)),
        ]
    )
    rep = solve_toric(delta, nu)
    assert rep.converged
    assert max(abs(float(e)) for _, e in rep.residual) <= 1e-10
    # the optimal corner cells have side 1/sqrt(6), so the weights are
    # irrational and the rational polish can only come close
    assert all(abs(e) <= Fraction(1, 10**10) for _, e in rep.polished_residual)
    assert all(isinstance(e, Fraction) for _, e in rep.polished_residual)
    # the reported residual is the exact one of the returned solution
    assert rep.residual == residual(rep.solution, nu, delta)
    assert all(isinstance(e, Fraction) for _, e in rep.residual)


def test_roundtrip_random(rng):
    for delta in (interval(), unit_square(), simplex2()):
        for _ in range(4):
            g = random_admissible(rng, delta)
            nu = ma_measure(g, delta).measure_NR
            rep = solve_toric(delta, nu)
            assert rep.converged
            fl = max(abs(float(e)) for _, e in rep.residual)
            assert fl <= 1e-10 * float(delta.volume())
            if delta.dim == 1:
                assert all(e == 0 for _, e in rep.residual)
            diffs = [g(v) - rep.solution(v) for v in delta.vertices]
            assert max(map(float, diffs)) - min(map(float, diffs)) <= 1e-9


def test_uniqueness_exact(rng):
    # the solution is g itself up to an additive constant, exactly
    delta = unit_square()
    g = random_admissible(rng, delta)
    nu = ma_measure(g, delta).measure_NR
    rep = solve_toric(delta, nu)
    assert rep.converged
    assert len({g(v) - rep.solution(v) for v in delta.vertices}) == 1


def test_generic_k50_target_unsnapped():
    # uniform masses on 50 atoms of the 1/17 grid: the solution is irrational,
    # so the snap fails and the weights come back on the common dyadic 2^-50
    delta = unit_square()
    grid = [(Fraction(i, 17), Fraction(j, 17)) for i in range(18) for j in range(18)]
    atoms = random.Random("generic/50").sample(grid, 50)
    nu = DiscreteMeasure.from_atoms([(p, Fraction(1, 50)) for p in atoms])
    rep = solve_toric(delta, nu)
    assert rep.converged
    assert any(e != 0 for _, e in rep.polished_residual)
    assert rep.residual == residual(rep.solution, nu, delta)
    assert all(abs(e) <= Fraction(1, 10**10) * delta.volume() for _, e in rep.residual)


def test_cells_partition_exactly(rng):
    # with rational weights the power cells tile delta: volumes sum exactly
    delta = hexagon()
    atoms = [((rnd_frac(rng), rnd_frac(rng)), Fraction(1)) for _ in range(5)]
    atoms = list(dict(atoms).items())
    weights = [rnd_frac(rng) for _ in atoms]
    vols, _ = _power_cells(delta.ring(), atoms, weights)
    assert sum(vols) == delta.volume()
    # a cell clipped away has volume 0, not 0.0, so the sum stays exact
    corners = [((Fraction(0), Fraction(0)), Fraction(1)), ((Fraction(1), Fraction(1)), Fraction(1))]
    vols, edges = _power_cells(unit_square().ring(), corners, [Fraction(0), Fraction(-10)])
    assert vols == [1, 0] and edges == []
    assert isinstance(sum(vols), Fraction)


def fraction_voronoi_weights(delta, atoms):
    """The Voronoi start on rationals: the sites c + t (v_i - m) and the
    weights -|p_i|^2 / (2t), each rounded to float from its Fraction."""
    ring = delta.ring()
    c = vscale(Fraction(1, len(ring)), tuple(map(sum, zip(*ring))))
    m = vscale(Fraction(1, len(atoms)), tuple(map(sum, zip(*(v for v, _ in atoms)))))
    dirs = [vsub(v, m) for v, _ in atoms]
    limits = [
        cross2(vsub(b, a), vsub(c, a)) / -cross2(vsub(b, a), d)
        for a, b in zip(ring, ring[1:] + ring[:1])
        for d in dirs
        if cross2(vsub(b, a), d) < 0
    ]
    t = min(limits, default=Fraction(2)) / 2
    sites = [vadd(c, vscale(t, d)) for d in dirs]
    return [float(-dot(p, p) / (2 * t)) for p in sites]


def test_voronoi_weights_against_fraction_oracle():
    # the integer start rounds each exact weight once, so its floats equal
    # the rational start's; an unsnapped solve prints weights on 2^-50 that
    # a one-ulp change of the start can move
    rng = random.Random("voronoi")
    deltas = [p for p in ACCEPTANCE_POLYTOPES if p.dim == 2] + [rational_hexagon()]
    single = coincident = outside = 0
    for _ in range(400):
        delta = rng.choice(deltas)
        den = rng.choice([1, 3, 7, 17])
        k = rng.choice([1, 2, 3, 5, 8])
        atoms = [((rnd_frac(rng, den, -3, 3), rnd_frac(rng, den, -3, 3)), Fraction(1, k))
                 for _ in range(k)]
        if k > 1 and rng.random() < 0.2:
            atoms = atoms[:1] * k  # every direction v_i - m is 0: no side limits t
        elif k > 2 and rng.random() < 0.3:
            atoms[-1] = atoms[0]
        weights = _voronoi_weights(delta, atoms)
        assert weights == fraction_voronoi_weights(delta, atoms)
        assert all(type(w) is float for w in weights)
        single += k == 1
        coincident += k > 1 and len({v for v, _ in atoms}) == 1
        outside += any(not delta.contains(v) for v, _ in atoms)
    assert single > 40 and coincident > 20 and outside > 200


def newton_matrix(edges, k):
    """The dense Laplacian that the Newton edges of _power_cells assemble."""
    H = [[0] * k for _ in range(k)]
    for i, j, w in edges:
        H[i][i] += w
        H[j][j] += w
        H[i][j] -= w
        H[j][i] -= w
    return H


def test_newton_matrix_is_the_volume_derivative(rng):
    # near-Voronoi weights: the cells of the sites v_i / 4, which lie inside
    # the hexagon, moved by noise of denominator 10^6 + 3 into general
    # position, so the combinatorics hold on [w - h e_j, w + h e_j]; there
    # each cell area is quadratic in h and the central difference is the
    # derivative, exactly
    delta = hexagon()
    atoms = [((rnd_frac(rng), rnd_frac(rng)), Fraction(1)) for _ in range(5)]
    atoms = list(dict(atoms).items())
    den = 10**6 + 3
    weights = [-dot(v, v) / 8 + Fraction(rng.randint(-den, den), 100 * den) for v, _ in atoms]
    ring = delta.ring()
    vols, edges = _power_cells(ring, atoms, weights)
    assert all(v > 0 for v in vols)
    k = len(atoms)
    H = newton_matrix(edges, k)
    h = Fraction(1, 10**12)
    for j in range(k):
        up = [w + h * (i == j) for i, w in enumerate(weights)]
        down = [w - h * (i == j) for i, w in enumerate(weights)]
        vup, _ = _power_cells(ring, atoms, up)
        vdown, _ = _power_cells(ring, atoms, down)
        for i in range(k):
            assert H[i][j] == (vup[i] - vdown[i]) / (2 * h)
    assert all(H[i][j] == H[j][i] for i in range(k) for j in range(k))


def test_newton_matrix_cut_through_vertices():
    # the line x + y = 1 between the atoms (0,0) and (1,1) cuts the square
    # exactly through two of its vertices; each cell keeps the cut edge
    # there, of length sqrt 2 at distance sqrt 2 between the atoms
    atoms = [((Fraction(0), Fraction(0)), Fraction(1, 2)), ((Fraction(1), Fraction(1)), Fraction(1, 2))]
    ring = unit_square().ring()
    vols, edges = _power_cells(ring, atoms, [Fraction(0), Fraction(-1)])
    assert vols == [Fraction(1, 2), Fraction(1, 2)]
    assert newton_matrix(edges, 2) == [[1, -1], [-1, 1]]
    # each cell is a triangle: the cut's points at the two vertices it
    # passes through are not repeated, and the cut edge carries the label
    # of the other atom
    square = [(p, None) for p in ring]
    below = _clip_polygon(square, (Fraction(-1), Fraction(-1)), Fraction(-1), 1)
    above = _clip_polygon(square, (Fraction(1), Fraction(1)), Fraction(1), 0)
    assert [len(c) for c in (below, above)] == [3, 3]
    assert [lab for _, lab in below].count(1) == 1
    assert [lab for _, lab in above].count(0) == 1


def test_hexagon_target_with_noisy_facet():
    # from acceptance criterion 3: four cells meet near a vertex, and a
    # wrong facet length there made Newton stall at a residual of 1.5e-8
    delta = hexagon()
    nu = DiscreteMeasure.from_atoms(
        [
            ((Fraction(-17, 3), Fraction(11, 3)), Fraction(1, 2)),
            ((Fraction(-1, 21), Fraction(6, 7)), Fraction(7, 9)),
            ((Fraction(15, 28), Fraction(6, 7)), Fraction(14, 27)),
            ((Fraction(4, 3), Fraction(25, 18)), Fraction(1, 2)),
            ((Fraction(10, 3), Fraction(-27, 4)), Fraction(2, 9)),
            ((Fraction(9, 2), Fraction(-39, 10)), Fraction(5, 54)),
            ((Fraction(9, 2), Fraction(1, 3)), Fraction(1, 6)),
            ((Fraction(73, 12), Fraction(-27, 4)), Fraction(2, 9)),
        ]
    )
    rep = solve_toric(delta, nu)
    assert rep.converged
    assert all(e == 0 for _, e in rep.polished_residual)
    assert ma_measure(rep.solution, delta).measure_NR == nu


def test_mass_mismatch_rejected():
    delta = interval()
    nu = DiscreteMeasure.from_atoms([((Fraction(0),), Fraction(2))])
    with pytest.raises(AdmissibilityError):
        solve_toric(delta, nu)


def test_nonconvergence_reported():
    delta = unit_square()
    nu = DiscreteMeasure.from_atoms(
        [
            ((Fraction(1, 7), Fraction(2, 7)), Fraction(1, 3)),
            ((Fraction(3, 5), Fraction(4, 7)), Fraction(1, 3)),
            ((Fraction(1, 3), Fraction(6, 7)), Fraction(1, 3)),
        ]
    )
    rep = solve_toric(delta, nu, SolverOptions(max_iterations=1))
    assert not rep.converged
    assert rep.iterations == 1


NEWTON_TARGET = [
    ((Fraction(1, 7), Fraction(2, 7)), Fraction(1, 3)),
    ((Fraction(3, 5), Fraction(4, 7)), Fraction(1, 3)),
    ((Fraction(1, 3), Fraction(6, 7)), Fraction(1, 3)),
]


def _singular_newton_system(form, pinned):
    raise GraphError("singular linear system")


@pytest.mark.parametrize("patch", [
    (solver, "MIN_STEP", 2.0),  # no damping factor alpha <= 1 reaches it: the step stalls
    (curves, "solve_laplacian", _singular_newton_system),
], ids=["stall", "singular"])
def test_newton_early_exits_report_not_converged(patch, tmp_path, capsys, monkeypatch):
    # both early exits of the Newton loop end the solve unconverged after
    # its first step, with the exact residual of the returned solution,
    # and the CLI exits 3 with that report
    monkeypatch.setattr(*patch)
    delta, nu = unit_square(), DiscreteMeasure.from_atoms(NEWTON_TARGET)
    rep = solve_toric(delta, nu)
    assert not rep.converged and rep.iterations == 1
    assert rep.residual == residual(rep.solution, nu, delta)
    assert all(type(e) is Fraction for _, e in rep.residual) and any(e != 0 for _, e in rep.residual)
    # the CLI reads the target with the Berkovich normalization, 2! times nu
    files = {"delta": serialize.polytope_to_json(delta), "mu": serialize.measure_to_json(nu.scale(2))}
    argv = ["toric-solve"]
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert cli.run(argv) == 3
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == json.loads(serialize.solve_report_to_json(rep))


SOLVER_INPUT_ERRORS = {
    "segment in the plane": (
        lambda: solve_toric(Polytope.from_points([(0, 0), (2, 1)]),
                            DiscreteMeasure.from_atoms([((0, 0), Fraction(1))])),
        DegeneratePolytopeError, "polytope must be full-dimensional"),
    "empty target": (lambda: solve_toric(unit_square(), DiscreteMeasure.from_atoms([])),
                     AdmissibilityError, "target measure must be positive and nonempty"),
}


@pytest.mark.parametrize("case", list(SOLVER_INPUT_ERRORS))
def test_solver_input_errors(case):
    call, error, message = SOLVER_INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tolerance=0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_solver_options_reject_non_finite_tolerance(tolerance):
    # an infinite tolerance reported any start as converged, and NaN reported
    # even an exact solution as not converged
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        SolverOptions(tolerance=tolerance)


def test_residual_op(rng):
    delta = simplex2()
    v0 = (Fraction(1, 3), Fraction(1, 4))
    g = point_mass_solution(delta, v0)
    nu = DiscreteMeasure.from_atoms([(v0, Fraction(1, 2))])
    assert all(e == 0 for _, e in residual(g, nu, delta))
    # perturb one intercept: errors appear only at affected atoms
    pieces = list(g.pieces)
    pieces[0] = AffineFunctional(pieces[0].slope, pieces[0].intercept + Fraction(1, 10))
    g2 = PLConvexFunction.from_pieces(pieces)
    res2 = residual(g2, nu, delta)
    assert any(e != 0 for _, e in res2)
    # an atom with no matching breakpoint shows up as minus its mass
    extra = DiscreteMeasure.from_atoms([(v0, Fraction(1, 2)), ((Fraction(7), Fraction(7)), Fraction(1, 9))])
    res3 = dict(residual(g, extra, delta))
    assert res3[(Fraction(7), Fraction(7))] == Fraction(-1, 9)


def green_pinned_at_x(graph, x, omega0):
    """green as it was solved: the Poisson problem pinned at x itself, then
    shifted to zero omega0-integral."""
    d_L = omega0.total_mass()
    x_key = graph.point_key(x)
    rho = GraphMeasure.from_atoms(graph, [(x_key, d_L)]) - omega0
    f = solve_poisson(graph, rho, x_key)
    return f + GraphPLFunction.constant(graph, -omega0.integrate(graph, f) / d_L)


def test_solve_curve_examples(rng):
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    assert solve_curve(g, om, om).simplify().edge_values[0][0][1] == 0
    x = ("e", 0, Fraction(2, 5))
    mu = GraphMeasure.from_atoms(g, [(x, Fraction(2))])
    assert solve_curve(g, mu, om) == green(g, x, om)
    # green and solve_curve share one potential, pinned at the first vertex:
    # the pin must not show, whatever the mass of omega0, wherever x lies
    # (strictly inside an edge or at a vertex), and where the source
    # cancels, omega0 = d_L delta_x; its own stream keeps the draws below
    pin_rng = random.Random("green-pin")
    inside = cancels = 0
    for _ in range(120):
        gr = random_graph(pin_rng)
        d_L = pin_rng.choice([Fraction(1), Fraction(1, 3), Fraction(5, 2), Fraction(7)])
        e = pin_rng.randrange(len(gr.edges))
        x = gr.point_key(("e", e, gr.edge_length(e) * Fraction(pin_rng.randint(0, 5), 5)))
        if pin_rng.random() < 0.25:
            om2 = GraphMeasure.from_atoms(gr, [(x, d_L)])
        else:
            om2 = random_positive_measure(pin_rng, gr, d_L, natoms=pin_rng.randint(1, 4))
        mu2 = GraphMeasure.from_atoms(gr, [(x, d_L)])
        want = green_pinned_at_x(gr, x, om2)
        for got in (green(gr, x, om2), solve_curve(gr, mu2, om2)):
            assert got == want
            assert graph_function_to_json(got) == graph_function_to_json(want)
        assert laplacian(want, gr) == mu2 - om2
        assert om2.integrate(gr, want) == 0
        inside += x[0] == "e"
        cancels += om2 == mu2
    assert inside > 40 and cancels > 20

    for _ in range(5):
        gr = random_graph(rng)
        om2 = random_positive_measure(rng, gr, Fraction(3))
        mu2 = random_positive_measure(rng, gr, Fraction(3))
        phi = solve_curve(gr, mu2, om2)
        assert ma_curve(phi, gr, om2) == mu2


def test_solve_curve_matches_superpose(rng):
    # one Poisson solve against the superposition of one Green solve per atom
    for _ in range(20):
        gr = random_graph(rng)
        om = random_positive_measure(rng, gr, Fraction(2), natoms=rng.randint(1, 4))
        mu = random_positive_measure(rng, gr, Fraction(2), natoms=rng.randint(1, 5))
        assert solve_curve(gr, mu, om) == superpose(gr, mu, om)
    # the same checks, in the same order, as superpose
    messages = []
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(1))])
    signed = GraphMeasure.from_atoms(
        g, [(("e", 0, Fraction(1, 2)), Fraction(2)), (vertex_key(0), Fraction(-1))]
    )
    for mu, ref in ((om.scale(2), om), (signed, om), (om, signed)):
        with pytest.raises(MassBalanceError) as expected:
            superpose(g, mu, ref)
        with pytest.raises(MassBalanceError) as got:
            solve_curve(g, mu, ref)
        assert str(got.value) == str(expected.value)
        messages.append(str(got.value))
    assert len(set(messages)) == 3


def test_dominance_over_perturbations(rng):
    from plma.variational import f_mu_toric

    delta = unit_square()
    g0 = support_function(delta)
    nu = ma_measure(random_admissible(rng, delta), delta).measure_NR
    rep = solve_toric(delta, nu)
    mu = nu.scale(2)  # Berkovich normalization for n = 2
    best = f_mu_toric(rep.solution, mu, g0, delta)
    for _ in range(10):
        other = random_admissible(rng, delta)
        assert f_mu_toric(other, mu, g0, delta) <= best + Fraction(1, 10**9)
