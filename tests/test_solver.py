import importlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

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
    superpose,
    vertex_key,
)
from plma.geometry import (
    AffineFunctional,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    _integer_points,
    cross2,
    dot,
    support_function,
    vscale,
    vsub,
)
from plma.serialize import graph_function_to_json
from plma.solver import (
    SNAP_DENOMINATOR,
    ConvergenceError,
    SolveReport,
    _clip_polygon,
    _limit_denominator,
    _power_cells,
    _truncated_mean,
    _voronoi_weights,
    residual,
    solve_curve,
    solve_toric,
)
from plma.toric import AdmissibilityError, DegeneratePolytopeError, ma_measure, point_mass_solution

from conftest import (
    ACCEPTANCE_POLYTOPES,
    clip_polygon_oracle,
    fraction_solve_toric,
    hexagon,
    interval,
    pinned_poisson,
    power_cells_oracle,
    random_admissible,
    random_graph,
    random_positive_measure,
    rational_hexagon,
    rnd_frac,
    simplex2,
    unit_square,
    vadd,
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
    assert rep.residual == residual(rep.solution, nu)
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
    assert rep.residual == residual(rep.solution, nu)
    assert all(abs(e) <= Fraction(1, 10**10) * delta.volume() for _, e in rep.residual)


def test_generic_k100_snap_not_checked():
    # uniform masses on 100 atoms of the 1/17 grid: the snapped weights have
    # a common denominator far above SNAP_DENOMINATOR**2, so the snap is not
    # checked, and the weights on 2^-50 are the snap (an exact check of the
    # failed snap took most of the solve)
    delta = unit_square()
    grid = [(Fraction(i, 17), Fraction(j, 17)) for i in range(18) for j in range(18)]
    atoms = random.Random("generic/100").sample(grid, 100)
    nu = DiscreteMeasure.from_atoms([(p, Fraction(1, 100)) for p in atoms])
    rep = solve_toric(delta, nu)
    assert rep.converged
    assert rep.polished_residual == rep.residual
    assert any(e != 0 for _, e in rep.residual)
    assert rep.residual == residual(rep.solution, nu)
    assert all(abs(e) <= solver.TOLERANCE * delta.volume() for _, e in rep.residual)


def test_cells_partition_exactly(rng):
    # with rational weights the power cells tile delta: volumes sum exactly
    delta = hexagon()
    atoms = [((rnd_frac(rng), rnd_frac(rng)), Fraction(1)) for _ in range(5)]
    atoms = list(dict(atoms).items())
    weights = [rnd_frac(rng) for _ in atoms]
    vols, _ = _power_cells(delta.ring(), atoms, weights, delta.volume())
    assert sum(vols) == delta.volume()
    # the last cell is the complement there: the k clipped cells of the
    # oracle tile delta too
    assert sum(power_cells_oracle(delta.ring(), atoms, weights)[0]) == delta.volume()
    # a cell clipped away has volume 0, not 0.0, so the sum stays exact
    corners = [((Fraction(0), Fraction(0)), Fraction(1)), ((Fraction(1), Fraction(1)), Fraction(1))]
    vols, edges = _power_cells(unit_square().ring(), corners, [Fraction(0), Fraction(-10)],
                               unit_square().volume())
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
        weights = _voronoi_weights(delta, *_integer_points([v for v, _ in atoms]))
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
    vols, edges = _power_cells(ring, atoms, weights, delta.volume())
    assert all(v > 0 for v in vols)
    k = len(atoms)
    H = newton_matrix(edges, k)
    h = Fraction(1, 10**12)
    for j in range(k):
        up = [w + h * (i == j) for i, w in enumerate(weights)]
        down = [w - h * (i == j) for i, w in enumerate(weights)]
        vup, _ = _power_cells(ring, atoms, up, delta.volume())
        vdown, _ = _power_cells(ring, atoms, down, delta.volume())
        for i in range(k):
            assert H[i][j] == (vup[i] - vdown[i]) / (2 * h)
    assert all(H[i][j] == H[j][i] for i in range(k) for j in range(k))


def test_newton_matrix_cut_through_vertices():
    # the line x + y = 1 between the atoms (0,0) and (1,1) cuts the square
    # exactly through two of its vertices; each cell keeps the cut edge
    # there, of length sqrt 2 at distance sqrt 2 between the atoms
    atoms = [((Fraction(0), Fraction(0)), Fraction(1, 2)), ((Fraction(1), Fraction(1)), Fraction(1, 2))]
    ring = unit_square().ring()
    vols, edges = _power_cells(ring, atoms, [Fraction(0), Fraction(-1)], unit_square().volume())
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


def test_clip_polygon_dedups_where_the_oracle_does():
    # float clips of convex cells by lines through one of their vertices,
    # moved by up to 3 ulps: a cut that rounds onto the point before it,
    # onto the end of its edge or, across the wrap, onto the first point
    # is deduped as the oracle, which dedups every clip, dedups it
    rng = random.Random("near a vertex")
    for _ in range(4000):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(rng.choice([3, 4, 5])))
        r, c = rng.choice([1, 1e3, 1e-3]), (rng.uniform(-2, 2), rng.uniform(-2, 2))
        cell = [((c[0] + r * math.cos(t), c[1] + r * math.sin(t)), None) for t in angles]
        (q, _), a = rng.choice(cell), (rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = a[0] * q[0] + a[1] * q[1]
        for _ in range(rng.randint(0, 3)):
            b = math.nextafter(b, rng.choice([-math.inf, math.inf]))
        assert _clip_polygon(cell, a, b, 0) == clip_polygon_oracle(cell, a, b, 0)


def pair_weights(edges):
    """The Newton weight of each pair {i, j}: the sum of the c of its edges."""
    out = {}
    for i, j, c in edges:
        out[min(i, j), max(i, j)] = out.get((min(i, j), max(i, j)), 0) + c
    return out


def test_power_cells_equal_the_k_cell_oracle(monkeypatch):
    # the complement cell and its one-sided weights against the k clipped
    # cells and their halves: equal on Fractions and within 1e-12 of the
    # volume and of the largest weight on floats; every clip equals the
    # oracle's, which dedups on every clip, point for point and label for
    # label, also when a cut passes through a vertex
    clips = through = 0

    def both(cell, a, b, j):
        nonlocal clips, through
        got = clip(cell, a, b, j)
        assert got == clip_polygon_oracle(cell, a, b, j)
        clips += 1
        through += any(a[0] * p[0] + a[1] * p[1] == b for p, _ in cell)
        return got

    clip = solver._clip_polygon
    monkeypatch.setattr(solver, "_clip_polygon", both)
    rng = random.Random("complement")
    deltas = (unit_square(), simplex2(), hexagon())
    most = empty = 0
    for n in range(84):
        delta, k, generic = deltas[n % 3], 2 + n % 7, n < 56
        ring, vol = delta.ring(), delta.volume()
        if generic:
            # near the Voronoi start, in general position
            den = 10**6 + 3
            points = sorted({(rnd_frac(rng, den), rnd_frac(rng, den)) for _ in range(k)})
            weights = [Fraction(w) for w in _voronoi_weights(delta, *_integer_points(points))]
        else:
            # half-integer atoms and weights: the bisectors pass through
            # the vertices of the polygons
            points = sorted({(rnd_frac(rng, 2), rnd_frac(rng, 2)) for _ in range(k)})
            weights = [rnd_frac(rng, 2, -1, 1) for _ in points]
        atoms = [(v, Fraction(1)) for v in points]
        most += (len(atoms) - 1) ** 2
        for kind in (Fraction, float):
            args = ([tuple(map(kind, p)) for p in ring],
                    [(tuple(map(kind, v)), kind(m)) for v, m in atoms], list(map(kind, weights)))
            vols, edges = _power_cells(*args, kind(vol))
            want_vols, want_edges = power_cells_oracle(*args)
            got, want = pair_weights(edges), pair_weights(want_edges)
            # where the bisectors of collinear atoms coincide, a facet keeps
            # the label of its first clip, so next to an empty cell the
            # pairs may differ; _newton accepts no empty cell (eps0 > 0)
            full = min(want_vols) > 0
            empty += kind is Fraction and not full
            if kind is Fraction:
                assert vols == want_vols and (got == want or not full)
            else:
                scale = max(want.values(), default=0)
                assert all(abs(x - y) <= 1e-12 * vol for x, y in zip(vols, want_vols))
                assert not full or all(abs(got.get(e, 0) - want.get(e, 0)) <= 1e-12 * scale
                                       for e in got.keys() | want.keys())
    # each evaluation, on Fractions and on floats, clips at most (k - 1)^2
    # times, and many clips cut through a vertex of their cell, where the
    # dedup pass runs; only half-integer draws, and not all of them, have
    # an empty cell
    assert clips <= 2 * most
    assert through > 50
    assert 0 < empty < 28


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


def test_nonconvergence_reported(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    delta = unit_square()
    nu = DiscreteMeasure.from_atoms(
        [
            ((Fraction(1, 7), Fraction(2, 7)), Fraction(1, 3)),
            ((Fraction(3, 5), Fraction(4, 7)), Fraction(1, 3)),
            ((Fraction(1, 3), Fraction(6, 7)), Fraction(1, 3)),
        ]
    )
    rep = solve_toric(delta, nu)
    assert not rep.converged
    assert rep.iterations == 1


NEWTON_TARGET = [
    ((Fraction(1, 7), Fraction(2, 7)), Fraction(1, 3)),
    ((Fraction(3, 5), Fraction(4, 7)), Fraction(1, 3)),
    ((Fraction(1, 3), Fraction(6, 7)), Fraction(1, 3)),
]


def _singular_newton_system(form, pinned):
    raise GraphError("singular linear system")


def _float_overflow(*args):
    raise OverflowError("math range error")


@pytest.mark.parametrize("patch", [
    (solver, "MIN_STEP", 2.0),  # no damping factor alpha <= 1 reaches it: the step stalls
    (curves, "solve_laplacian", _singular_newton_system),
    (math, "hypot", _float_overflow),  # the first step's residual norm
], ids=["stall", "singular", "float"])
def test_newton_early_exits_report_not_converged(patch, tmp_path, capsys, monkeypatch):
    # every early exit of the Newton loop, a float operation that fails
    # included, ends the solve unconverged after its first step, with the
    # exact residual of the returned solution, and the CLI exits 3 with
    # that report
    monkeypatch.setattr(*patch)
    delta, nu = unit_square(), DiscreteMeasure.from_atoms(NEWTON_TARGET)
    rep = solve_toric(delta, nu)
    assert not rep.converged and rep.iterations == 1
    assert rep.residual == residual(rep.solution, nu)
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


# a target that converges in 3 steps on the unit square, and so must every
# translated copy of it, however far from the origin
TRANSLATED_TARGET = [
    ((Fraction(1, 3), Fraction(1, 4)), Fraction(1, 4)),
    ((Fraction(2, 3), Fraction(1, 2)), Fraction(1, 2)),
    ((Fraction(1, 5), Fraction(4, 5)), Fraction(1, 4)),
]


@pytest.mark.parametrize("offset", [10**6, 10**20, -(10**20), 10**300],
                         ids=["1e6", "1e20", "-1e20", "1e300"])
def test_translated_solve_converges(offset):
    # delta alone, and delta with the atoms, translated by (offset, offset):
    # the guide runs on a copy moved back near the origin, so each solve
    # takes the 3 steps of the untranslated one, and its exact residual is
    # below TOLERANCE * Vol(delta)
    t = (offset, offset)
    delta = unit_square().translate(t)
    for atoms in (TRANSLATED_TARGET, [(vadd(v, t), m) for v, m in TRANSLATED_TARGET]):
        nu = DiscreteMeasure.from_atoms(atoms)
        rep = solve_toric(delta, nu)
        assert rep.converged and rep.iterations == 3
        assert rep.residual == residual(rep.solution, nu)
        assert max(abs(e) for _, e in rep.residual) < solver.TOLERANCE * delta.volume()


def near_coincident_target(rng, e):
    """Four atoms in the unit square with masses summing to 1, two of them
    10^-e apart: a point on the 1/25 grid and the point moved by (s, -3 s)
    10^-e, s = +-1, and two more grid points."""
    grid = [Fraction(j, 25) for j in range(2, 24)]
    p = (rng.choice(grid), rng.choice(grid))
    step = Fraction(rng.choice((-1, 1)), 10**e)
    points = [p, (p[0] + step, p[1] - 3 * step)]
    while len(points) < 4:
        q = (rng.choice(grid), rng.choice(grid))
        if q not in points:
            points.append(q)
    cuts = sorted(rng.sample(range(1, 12), 3))
    masses = [Fraction(b - a, 12) for a, b in zip([0, *cuts], [*cuts, 12])]
    return DiscreteMeasure.from_atoms(zip(points, masses))


def test_converged_is_the_exact_comparison():
    # two atoms 10^-e apart, e = 3..15, four draws each: rounding the
    # weights to 2^-50 moves a cell volume by up to 2^-51 |facet| / |v_i -
    # v_j|, so the exact residual can lie far above the float guide's.
    # converged is the exact comparison max |residual| <= TOLERANCE *
    # Vol(delta), whatever the guide's own test said; the draws reach both
    # outcomes
    delta = unit_square()
    outcomes = set()
    for e in range(3, 16):
        rng = random.Random(e)
        for _ in range(4):
            rep = solve_toric(delta, near_coincident_target(rng, e))
            within = max(abs(r) for _, r in rep.residual) <= Fraction(1, 10**10) * delta.volume()
            assert rep.converged == within
            outcomes.add(within)
    assert outcomes == {True, False}


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


def test_residual_op(rng):
    delta = simplex2()
    v0 = (Fraction(1, 3), Fraction(1, 4))
    g = point_mass_solution(delta, v0)
    nu = DiscreteMeasure.from_atoms([(v0, Fraction(1, 2))])
    assert all(e == 0 for _, e in residual(g, nu))
    # perturb one intercept: errors appear only at affected atoms
    pieces = list(g.pieces)
    pieces[0] = AffineFunctional(pieces[0].slope, pieces[0].intercept + Fraction(1, 10))
    g2 = PLConvexFunction.from_pieces(pieces)
    res2 = residual(g2, nu)
    assert any(e != 0 for _, e in res2)
    # an atom with no matching breakpoint shows up as minus its mass
    extra = DiscreteMeasure.from_atoms([(v0, Fraction(1, 2)), ((Fraction(7), Fraction(7)), Fraction(1, 9))])
    res3 = dict(residual(g, extra))
    assert res3[(Fraction(7), Fraction(7))] == Fraction(-1, 9)


def green_pinned_at_x(graph, x, omega0):
    """green as it was solved: the Poisson problem pinned at x itself,
    then shifted to zero omega0-integral.  It calls pinned_poisson, since
    solve_poisson runs through the normalized potential that green
    returns, and the comparison would check that potential with itself."""
    d_L = omega0.total_mass()
    x_key = graph.point_key(x)
    rho = GraphMeasure.from_atoms(graph, [(x_key, d_L)]) - omega0
    f = pinned_poisson(graph, rho, x_key)
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
    # no slack where the solve is exact, and the old 1e-9 where it is not
    slack = 0 if all(e == 0 for _, e in rep.residual) else Fraction(1, 10**9)
    for _ in range(10):
        other = random_admissible(rng, delta)
        assert f_mu_toric(other, mu, g0, delta) <= best + slack


# ---------------------------------------------------------------------------
# the integer path against the Fraction oracle (tests/conftest.py)


def _outcome(solve, delta, nu):
    """The report, or the type and message of the error (a ValueError or
    ConvergenceError)."""
    try:
        return solve(delta, nu)
    except (ValueError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)


def _lifted(g, t):
    """g with every slope moved by t: admissible for delta + t when g is
    for delta."""
    return PLConvexFunction.from_pieces([AffineFunctional(vadd(p.slope, t), p.intercept)
                                         for p in g.pieces])


def oracle_draws(rng):
    """(kind, delta, nu) solve targets: 1-D targets; the MA measures of
    random admissible functions, whose snap recovers the solution; the
    same with delta moved (c != 0), the atoms moved (e != 0) or both, by
    up to 10^20; generic targets, uniform masses on points of the 1/17
    grid of the unit square, whose snap does not solve them, some moved;
    and near-coincident targets, some of which end unconverged."""
    draws = []
    for _ in range(12):
        a = rnd_frac(rng, 4, -3, 3)
        b = a + Fraction(rng.randint(1, 12), rng.randint(1, 4))
        ws = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
        draws.append(("1-D", interval(a, b), DiscreteMeasure.from_atoms(
            [((rnd_frac(rng, 6, -4, 4),), (b - a) * w / sum(ws)) for w in ws])))
    polygons = [unit_square(), simplex2(), hexagon(), rational_hexagon()]
    for i in range(12):
        delta = polygons[i % 4]
        draws.append(("snapped", delta, ma_measure(random_admissible(rng, delta), delta).measure_NR))
    for i in range(12):
        delta, g = polygons[i % 4], random_admissible(rng, polygons[i % 4])
        big = 10 ** rng.choice((1, 6, 20))
        t = (rng.randint(-big, big), Fraction(rng.randint(-big, big), rng.randint(1, 9)))
        if i % 3 != 1:
            delta, g = delta.translate(t), _lifted(g, t)
        if i % 3 != 0:
            g = g.translate((rng.randint(-big, big), rng.randint(-big, big)))
        draws.append(("moved", delta, ma_measure(g, delta).measure_NR))
    grid = [(Fraction(i, 17), Fraction(j, 17)) for i in range(18) for j in range(18)]
    for i in range(12):
        k, delta = rng.randint(3, 8), unit_square()
        points = rng.sample(grid, k)
        if i % 3 == 2:
            t = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            delta, points = delta.translate(t), [vadd(p, t) for p in points]
        draws.append(("generic", delta, DiscreteMeasure.from_atoms([(p, Fraction(1, k)) for p in points])))
    for e in (4, 8, 12, 14):
        draws.append(("near-coincident", unit_square(), near_coincident_target(rng, e)))
    return draws


def test_integer_solve_equals_fraction_oracle():
    # field for field, SolveReport included: the solution, both residuals,
    # the iterations and converged, or the same error; the draws reach the
    # 1-D closed form, recovered snaps, the grid kept when the snap fails,
    # a guide moved by c != 0 and by e != 0, and unconverged solves
    seen = set()
    for kind, delta, nu in oracle_draws(random.Random(48)):
        got = _outcome(solve_toric, delta, nu)
        assert got == _outcome(fraction_solve_toric, delta, nu), kind
        seen.add(kind)
        if isinstance(got, SolveReport):
            recovered = all(e == 0 for _, e in got.polished_residual)
            seen.add("recovered" if recovered else "grid")
            seen.add("converged" if got.converged else "unconverged")
            if delta.dim == 2:
                seen.update(name for name, moved in (("c", delta.integer_ring), ("e", nu.integer_form[:2]))
                            if any(_truncated_mean(*moved)))
    assert seen == {"1-D", "snapped", "moved", "generic", "near-coincident", "recovered", "grid",
                    "converged", "unconverged", "c", "e"}


def test_integer_solve_equals_fraction_oracle_on_the_decks(monkeypatch):
    # every toric-solve target of the benchmark's seed 1-3 decks, 3 rounds
    # each, in the solver's real scale
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    inputs = importlib.import_module("inputs")
    count = 0
    for seed in (1, 2, 3):
        for tasks in inputs.make_deck("toric-solve", seed, 3).rounds:
            for task in tasks:
                delta = Polytope.from_points(task.data["verts"])
                nu = DiscreteMeasure.from_atoms(task.data["target"]).scale(
                    Fraction(1, math.factorial(delta.dim)))
                assert solve_toric(delta, nu) == fraction_solve_toric(delta, nu)
                count += 1
    assert count == 54


ORACLE_INPUT_ERRORS = [
    (Polytope.from_points([(0, 0), (2, 1)]), [((0, 0), 1)]),
    (interval(), [((0, 0), 1)]),
    (unit_square(), []),
    (interval(), [((0,), 2), ((1,), -1)]),
    (interval(), [((0,), Fraction(1, 2))]),
    (unit_square(), [((0, 0), Fraction(1, 3)), ((1, 1), Fraction(1, 3))]),
]


@pytest.mark.parametrize("delta, atoms", ORACLE_INPUT_ERRORS,
                         ids=["degenerate", "dimension", "empty", "negative", "mass", "mass-2d"])
def test_integer_solve_errors_equal_fraction_oracle(delta, atoms):
    nu = DiscreteMeasure.from_atoms(atoms)
    got = _outcome(solve_toric, delta, nu)
    assert isinstance(got, tuple) and got == _outcome(fraction_solve_toric, delta, nu)


def snap_draws(rng):
    """(n, d, N) for the snap: the weights on the grid 2^-50 at
    SNAP_DENOMINATOR, unreduced; fractions whose least denominator is at or
    below N; the N = 1 midpoints (2j + 1) / 2, which tie; midpoints of two
    fractions of small denominators, some of which tie; and wide random
    numerators and denominators, both signs throughout."""
    for _ in range(5000):
        yield rng.randint(-2**62, 2**62), 2**50, SNAP_DENOMINATOR
    for _ in range(4000):
        N = rng.choice((1, 2, 7, 1000, SNAP_DENOMINATOR))
        q, r = rng.randint(1, N), rng.randint(1, 10**4)
        yield rng.randint(-10**12, 10**12) * r, q * r, N
    for _ in range(3000):
        r = rng.randint(1, 10**6)
        yield (2 * rng.randint(-10**9, 10**9) + 1) * r, 2 * r, 1
    for _ in range(4000):
        N = rng.choice((1, 2, 3, 5, 10, 100))
        b, d = rng.randint(1, N), rng.randint(1, N)
        a, c = rng.randint(-10 * b, 10 * b), rng.randint(-10 * d, 10 * d)
        yield a * d + c * b, 2 * b * d, N
    for _ in range(4000):
        yield (rng.randint(-10**20, 10**20), rng.randint(1, 10**20),
               rng.choice((1, 2, 10, SNAP_DENOMINATOR, rng.randint(1, 10**9))))


def test_integer_snap_is_limit_denominator():
    # 20 000 draws: the integer snap returns what Fraction.limit_denominator
    # returns on this interpreter (Python 3.10 and 3.11 compare Fractions
    # to break the choice, 3.12 on compare integers)
    count = 0
    for n, d, N in snap_draws(random.Random(48)):
        f = Fraction(n, d).limit_denominator(N)
        assert _limit_denominator(n, d, N) == (f.numerator, f.denominator), (n, d, N)
        count += 1
    assert count == 20000
