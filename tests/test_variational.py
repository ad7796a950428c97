import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from plma import cli, curves, serialize, variational
from plma.curves import (
    GraphMeasure,
    GraphPLFunction,
    MassBalanceError,
    MetricGraph,
    circle_graph,
    green,
    is_subharmonic,
    ma_curve,
    solve_poisson,
    superpose,
    vertex_key,
)
from plma.geometry import (
    AffineFunctional,
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    breakpoints,
    dot,
    is_admissible,
    support_function,
    vsub,
)
from plma.solver import solve_curve, solve_toric
from plma.toric import AdmissibilityError, degree, ma_measure, point_mass_solution
from plma.variational import (
    EnvelopeError,
    MinOfConvex,
    PiecewiseLinear1D,
    energy_curve,
    energy_of_envelope_derivative,
    energy_toric,
    envelope_P,
    envelope_subharmonic,
    envelope_toric,
    f_mu,
    f_mu_curve,
    f_mu_toric,
    orthogonality_defect,
    orthogonality_defect_curve,
    orthogonality_defect_toric,
)

from conftest import (
    ACCEPTANCE_POLYTOPES,
    bump_1d,
    cells_orthogonality_defect,
    derivative_oracle_instances,
    derivative_problems,
    difference_quotients,
    differentiability_instances,
    envelope_energy,
    envelope_path,
    fraction_solve_laplacian,
    fraction_weights,
    function_from_values,
    halving_derivatives,
    integer_values,
    interp,
    interval,
    lattice_paraboloid,
    polarization_energy,
    random_admissible,
    random_graph,
    random_graph_function,
    random_min_of,
    random_positive_measure,
    rnd_frac,
    simplex2,
    three_sample_derivatives,
    unit_square,
    unpruned,
)


def pl(*pieces):
    return PLConvexFunction.from_pieces([AffineFunctional.make(s, c) for s, c in pieces])


def halve(g):
    # the function v -> g(v)/2; slopes shrink into delta when g lives on 2*delta
    return unpruned(
        [AffineFunctional(tuple(s / 2 for s in p.slope), p.intercept / 2) for p in g.pieces]
    )


# ---------------------------------------------------------------------------
# energy


def test_energy_reflexive_and_constant_shift(rng):
    for delta in (interval(), unit_square(), simplex2()):
        g0 = random_admissible(rng, delta)
        assert energy_toric(g0, g0, delta) == 0
        c = Fraction(5, 7)
        assert energy_toric(g0.shift(c), g0, delta) == c * degree(delta)


def test_energy_interval_hand_oracle():
    # delta = [0,1], g0 = max(0, v), g = max(0, v-1)
    delta = interval()
    g0 = support_function(delta)
    g = pl(((0,), 0), ((1,), 1))
    # (1/2) int (g - g0) d(MA(g) + MA(g0)) with atoms at 1 and 0
    diff0 = g((0,)) - g0((0,))
    diff1 = g((1,)) - g0((1,))
    expected = Fraction(1, 2) * (diff0 + diff1)
    assert expected == Fraction(-1, 2)
    assert energy_toric(g, g0, delta) == expected
    assert energy_toric(g0, g, delta) == -expected


DEGENERATE_POLYTOPES = [
    Polytope.from_points([(0, 0), (2, 1)]),  # a segment in the plane
    Polytope.from_points([(Fraction(1, 2),)]),  # a point on the line
    Polytope.from_points([(1, -2)]),  # a point in the plane
    interval(0, 3),
    Polytope.from_points([(0, 0), (2, 0), (0, 3)]),  # the (2, 3)-triangle
]


def test_energy_equals_polarization_oracle():
    rng = random.Random(2002)
    pairs = []
    for delta in ACCEPTANCE_POLYTOPES:
        pairs += [(delta, random_admissible(rng, delta), random_admissible(rng, delta))
                  for _ in range(10)]
    for delta in DEGENERATE_POLYTOPES:
        pairs += [(delta, random_admissible(rng, delta), random_admissible(rng, delta))
                  for _ in range(4)]
    square = unit_square()
    for k, grid in ((8, 3), (16, 4)):
        pairs += [(square, lattice_paraboloid(rng, k, grid), lattice_paraboloid(rng, k, grid))
                  for _ in range(3)]
    assert len(pairs) == 66
    for delta, g, g0 in pairs:
        assert energy_toric(g, g0, delta) == polarization_energy(g, g0, delta)


def test_energy_checks_g0_before_g():
    square = unit_square()
    good = support_function(square)
    narrow = pl(((0, 0), 0), ((1, 0), 0))  # misses two vertex slopes of the square
    line = support_function(interval())
    # a bad g0 is reported before a bad g, as the polarization formula reports it
    admissible = "every argument must be admissible for the polytope"
    for g, g0, error, message in (
        (narrow, line, DimensionError, "dimension mismatch"),
        (line, narrow, AdmissibilityError, admissible),
        (good, narrow, AdmissibilityError, admissible),
        (narrow, good, AdmissibilityError, admissible),
        (line, good, DimensionError, "argument dimension mismatch"),
    ):
        with pytest.raises(error) as got:
            energy_toric(g, g0, square)
        with pytest.raises(error) as oracle:
            polarization_energy(g, g0, square)
        assert str(got.value) == str(oracle.value) == message


def test_energy_cocycle_antisymmetry(rng):
    for delta in (interval(), simplex2()):
        for _ in range(5):
            g = random_admissible(rng, delta)
            h = random_admissible(rng, delta)
            assert energy_toric(g, h, delta) == -energy_toric(h, g, delta)


def test_energy_monotone(rng):
    delta = unit_square()
    for _ in range(5):
        g = random_admissible(rng, delta)
        # lowering intercepts raises the function pointwise
        raised = PLConvexFunction.from_pieces(
            [AffineFunctional(p.slope, p.intercept - rnd_frac(rng, lo=0, hi=1)) for p in g.pieces]
        )
        assert energy_toric(raised, g, delta) >= 0


def test_energy_midpoint_concavity(rng):
    delta = unit_square()
    g0 = support_function(delta)
    for _ in range(5):
        g = random_admissible(rng, delta)
        h = random_admissible(rng, delta)
        mid = halve(g + h)
        assert energy_toric(mid, g0, delta) >= (
            energy_toric(g, g0, delta) + energy_toric(h, g0, delta)
        ) / 2


def test_energy_curve_examples(rng):
    g = random_graph(rng)
    om = random_positive_measure(rng, g, Fraction(3))
    assert energy_curve(GraphPLFunction.constant(g, 0), g, om) == 0
    c = Fraction(-4, 9)
    assert energy_curve(GraphPLFunction.constant(g, c), g, om) == c * 3


def test_energy_curve_green_quadratic(rng):
    # E(t f) is quadratic in t, so a central difference recovers the exact
    # derivative d/dt E(t f)|_t = int f d(omega0 + t laplacian(f))
    g = random_graph(rng)
    om = random_positive_measure(rng, g, Fraction(1))
    x = random_graph_point_interior(rng, g)
    f = green(g, x, om)
    t, h = Fraction(1, 3), Fraction(1, 5)
    fd = (energy_curve(f.scale(t + h), g, om) - energy_curve(f.scale(t - h), g, om)) / (2 * h)
    ma_t = ma_curve(f.scale(t), g, om)
    assert fd == ma_t.integrate(g, f)


def random_graph_point_interior(rng, g):
    from conftest import random_graph_point

    while True:
        p = random_graph_point(rng, g)
        if g.point_key(p)[0] == "e":
            return p


# ---------------------------------------------------------------------------
# F_mu


def test_f_mu_examples(rng):
    delta = simplex2()
    g0 = random_admissible(rng, delta)
    mu = ma_measure(g0, delta).measure_NR.scale(factorial(delta.dim))
    assert f_mu_toric(g0, mu, g0, delta) == 0
    assert f_mu_toric(g0.shift(Fraction(3, 4)), mu, g0, delta) == 0
    assert f_mu((g0.shift(Fraction(-2))), mu, (g0, delta)) == 0


def test_f_mu_constancy(rng):
    g = random_graph(rng)
    om = random_positive_measure(rng, g, Fraction(2))
    mu = random_positive_measure(rng, g, Fraction(2))
    f = superpose(g, mu, om)
    base = f_mu_curve(f, mu, g, om)
    shifted = f + GraphPLFunction.constant(g, Fraction(9, 2))
    assert f_mu_curve(shifted, mu, g, om) == base
    assert f_mu(shifted, mu, (g, om)) == base


def test_f_mu_mass_mismatch(rng):
    delta = interval()
    g0 = support_function(delta)
    bad = ma_measure(g0, delta).measure_NR.scale(Fraction(1, 2))
    with pytest.raises(AdmissibilityError):
        f_mu_toric(g0, bad, g0, delta)


def test_f_mu_maximizer_dominance(rng):
    from plma.solver import solve_toric

    delta = interval()
    g0 = support_function(delta)
    nu = ma_measure(random_admissible(rng, delta), delta).measure_NR
    sol = solve_toric(delta, nu).solution
    mu = nu.scale(1)
    best = f_mu_toric(sol, mu, g0, delta)
    for _ in range(30):
        other = random_admissible(rng, delta)
        assert f_mu_toric(other, mu, g0, delta) <= best


# ---------------------------------------------------------------------------
# envelopes and orthogonality


def test_envelope_of_convex_is_identity(rng):
    for delta in (interval(), unit_square()):
        g = random_admissible(rng, delta)
        env = envelope_toric(g, delta)
        for _ in range(10):
            v = tuple(rnd_frac(rng, den=8, lo=-3, hi=3) for _ in range(delta.dim))
            assert env(v) == g(v)


def test_envelope_min_of_translates_1d():
    # delta = [-1,1], wells at -1 and 1; psi = min(|v+1|, |v-1|) is a W
    delta = interval(-1, 1)
    g1 = point_mass_solution(delta, (Fraction(-1),))
    g2 = point_mass_solution(delta, (Fraction(1),))
    psi = MinOfConvex((g1, g2))
    env = envelope_toric(psi, delta)
    slopes = [Fraction(j, 8) - 1 for j in range(17)]
    for j in range(-16, 17):
        v = Fraction(j, 4)
        expected = max(-v - 1, Fraction(0), v - 1)
        assert env((v,)) == expected
        # dense brute-force supremum of affine minorants never exceeds it
        grid_best = max(
            s * v - max(s * x - psi((x,)) for x in (Fraction(k, 2) for k in range(-8, 9)))
            for s in slopes
        )
        assert grid_best <= env((v,)) <= psi((v,))
    # affine (slope 0) across the strict gap; contact only at the wells
    assert env((Fraction(0),)) == 0 < psi((Fraction(0),))
    from plma.geometry import breakpoints

    gap_bps = [v for v in breakpoints(env) if env(v) < psi(v)]
    assert gap_bps == []


def test_envelope_min_of_dimension_errors():
    # the CLI prints these messages for an obstacle of the wrong dimension
    line = pl(((-1,), 1), ((1,), 1))
    plane = pl(((-1, 0), 1), ((1, 0), 1), ((0, 1), 1))
    for parts, message in (((line, line), "dimension mismatch"),
                           ((line, plane), "pieces of mixed dimension")):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            envelope_toric(MinOfConvex(parts), unit_square())


def test_envelope_convex_obstacle_as_min_of_one():
    # a convex obstacle and the min of it alone have the same envelope or
    # the same error: psi itself when it is admissible, else the slope-range
    # error when delta is not in its slope hull, else a dimension error
    rng = random.Random("envelope/convex")
    line = pl(((-1,), 1), ((1,), 1))
    cases = [(line, unit_square()), (support_function(unit_square()), interval())]
    for delta in ACCEPTANCE_POLYTOPES:
        for _ in range(10):
            psi = random_min_of(rng, delta).parts[0]
            cases.append((psi, delta))
    outcomes = set()
    for psi, delta in cases:
        got = []
        for obstacle in (psi, MinOfConvex((psi,))):
            try:
                got.append(envelope_toric(obstacle, delta))
            except (DimensionError, EnvelopeError) as exc:
                got.append((type(exc), str(exc)))
        assert got[0] == got[1]
        if got[0] == psi:
            assert is_admissible(psi, delta)
        outcomes.add(got[0] == psi if isinstance(got[0], PLConvexFunction) else got[0][0])
    assert outcomes == {True, False, EnvelopeError, DimensionError}


def decays(g, delta):
    """Whether g grows slower than h_delta along some direction d, so that
    g - h_delta is unbounded below: max <s, d> over the slopes s of g is
    below max <u, d> over delta.  A separating direction is among the
    differences of two of these points and their normals."""
    if delta.dim == 1:
        dirs = [(Fraction(1),), (Fraction(-1),)]
    else:
        dirs = []
        for p, q in itertools.combinations(list(g.slopes) + list(delta.vertices), 2):
            w = vsub(q, p)
            dirs += [w, (-w[0], -w[1]), (w[1], -w[0]), (-w[1], w[0])]
    return any(
        max(dot(s, d) for s in g.slopes) < max(dot(u, d) for u in delta.vertices) for d in dirs
    )


def test_envelope_min_of_below_obstacle_or_rejected():
    # an obstacle whose parts all cover delta with their slopes gets an
    # envelope below it with zero orthogonality defect; any other obstacle
    # decays below h_delta along some direction and is rejected
    rng = random.Random("envelope/min-of")
    outcomes = {1: set(), 2: set()}
    for delta in ACCEPTANCE_POLYTOPES:
        n = delta.dim
        step, reach = (4, 12) if n == 1 else (2, 4)
        grid = [Fraction(j, step) for j in range(-reach, reach + 1)]
        for _ in range(15):
            psi = random_min_of(rng, delta)
            try:
                env = envelope_toric(psi, delta)
            except EnvelopeError as exc:
                assert str(exc) == "obstacle decays below the admissible slope range"
                assert any(decays(g, delta) for g in psi.parts)
                outcomes[n].add("rejected")
                continue
            assert not any(decays(g, delta) for g in psi.parts)
            points = list(itertools.product(grid, repeat=n)) + breakpoints(env)
            points += [v for g in psi.parts for v in breakpoints(g)]
            assert all(env(v) <= psi(v) for v in points)
            assert orthogonality_defect_toric(psi, delta) == 0
            outcomes[n].add("accepted")
    assert outcomes == {1: {"accepted", "rejected"}, 2: {"accepted", "rejected"}}


def lift_to_segment(g):
    """The 1-D function g(z) as the plane function x -> g(2 x1 + x2): each
    slope s becomes s (2, 1), so the slopes are collinear."""
    return unpruned([AffineFunctional((2 * p.slope[0], p.slope[0]), p.intercept)
                     for p in g.pieces])


def test_envelope_collinear_parts_on_a_segment():
    # every part's slopes lie on the line through (2, 1), so its walk has
    # parallel edges and no vertex; the envelope on the segment delta is a
    # function of z = 2 x1 + x2, the 1-D envelope on [0, 1] of the same parts
    # in z, whose walks do have vertices.  Such parts were once rejected
    # with "function has no breakpoints"
    delta = Polytope.from_points([(0, 0), (2, 1)])
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    fixed = [(pl(((0,), 0), ((1,), 0)),
              pl(((0,), fifth), ((Fraction(1, 2),), 0), ((1,), third)))]
    rng = random.Random("envelope/segment")
    draws = [tuple(random_admissible(rng, interval()) for _ in range(rng.randint(1, 3)))
             for _ in range(20)]
    for parts in fixed + draws:
        psi, psi_z = MinOfConvex(tuple(map(lift_to_segment, parts))), MinOfConvex(parts)
        assert all(g.subdivision[0] == [] for g in psi.parts)
        env, env_z = envelope_toric(psi, delta), envelope_toric(psi_z, interval())
        for _ in range(20):
            x = (rnd_frac(rng, lo=-3, hi=3), rnd_frac(rng, lo=-3, hi=3))
            assert env(x) == env_z((2 * x[0] + x[1],)) <= psi(x)
        assert orthogonality_defect_toric(psi, delta) == 0


@pytest.mark.parametrize("slope", [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2),)])
def test_envelope_affine_parts_on_a_point(slope):
    # an affine part's walk has no vertex and no edge; on the point delta
    # = {slope} the envelope of the min of two parallel affine functions is
    # the lower one.  Such parts were once rejected too
    delta = Polytope.from_points([slope])
    low = pl((slope, 1))
    psi = MinOfConvex((pl((slope, 0)), low))
    assert envelope_toric(psi, delta) == low
    assert orthogonality_defect_toric(psi, delta) == 0


@pytest.mark.parametrize("left, right", [
    (-1, Fraction(1, 2)),  # the right slope is below b = 1
    (Fraction(1, 2), 2),  # the left slope is above a = 0
    (2, -1),  # both ends decay, though [-1, 2] holds delta
])
def test_envelope_free_form_slopes_must_bracket_delta(left, right):
    psi = PiecewiseLinear1D.build([(0, 0), (Fraction(1, 2), 1)], left, right)
    with pytest.raises(EnvelopeError, match="^obstacle decays below the admissible slope range$"):
        envelope_toric(psi, interval())
    # with slopes that bracket delta the same points have an envelope
    env = envelope_toric(PiecewiseLinear1D.build(psi.points, -1, 2), interval())
    assert env((0,)) == 0 and env((Fraction(1, 2),)) == Fraction(1, 2)


def random_free_form(rng):
    xs = rng.sample(range(-12, 13), rng.randint(1, 4))
    return PiecewiseLinear1D.build([(Fraction(x, 4), rnd_frac(rng)) for x in xs],
                                   rnd_frac(rng), rnd_frac(rng))


def test_free_form_sum_and_scale_are_pointwise():
    # inside, between and beyond the breakpoints of both terms
    rng = random.Random("free-form/sum")
    for _ in range(20):
        f, h, c = random_free_form(rng), random_free_form(rng), rnd_frac(rng)
        total, scaled = f + h, f.scale(c)
        for x in (Fraction(j, 8) for j in range(-40, 41)):
            assert total(x) == f(x) + h(x) and scaled(x) == c * f(x)


def test_free_form_between_breakpoints_against_interp_oracle():
    # on and between the breakpoints, strictly inside the outer two
    rng = random.Random("free-form/interp")
    for _ in range(40):
        f = random_free_form(rng)
        (v0, _), (v1, _) = f.points[0], f.points[-1]
        for x in (Fraction(j, 16) for j in range(-48, 49)):
            if v0 < x < v1:
                assert f(x) == interp(f.points, x)


def test_envelope_free_form_is_one_dimensional():
    psi = PiecewiseLinear1D.build([(0, 0)], -1, 2)
    with pytest.raises(EnvelopeError, match="^free-form obstacles are one-dimensional$"):
        envelope_toric(psi, unit_square())


def test_envelope_circle_dented_tent():
    # psi: dented below the zero function near t=1/4; envelope is affine
    # across the dent and equals psi elsewhere
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    psi = GraphPLFunction.build(
        g,
        [(
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(-1, 2)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1), Fraction(0)),
        )],
    )
    env = envelope_subharmonic(psi, g, om)
    # grid oracle: largest subharmonic minorant dips linearly into the dent
    assert env.eval(g, ("e", 0, Fraction(1, 4))) == Fraction(-1, 2)
    assert env.eval(g, vertex_key(0)) <= 0
    assert orthogonality_defect_curve(psi, g, om) == 0
    # envelope below psi everywhere on a fine grid
    for j in range(0, 65):
        p = ("e", 0, Fraction(j, 64))
        assert env.eval(g, p) <= psi.eval(g, p)


def test_envelope_idempotent_and_monotone(rng):
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(1))])
    for _ in range(5):
        vals = [rnd_frac(rng, den=4, lo=-2, hi=2) for _ in range(3)]
        psi = GraphPLFunction.build(
            g,
            [(
                (Fraction(0), vals[0]),
                (Fraction(1, 3), vals[1]),
                (Fraction(2, 3), vals[2]),
                (Fraction(1), vals[0]),
            )],
        )
        env = envelope_subharmonic(psi, g, om)
        again = envelope_subharmonic(env, g, om)
        assert again == env
        higher = psi + GraphPLFunction.constant(g, Fraction(1, 2))
        env2 = envelope_subharmonic(higher, g, om)
        for j in range(0, 13):
            p = ("e", 0, Fraction(j, 12))
            assert env.eval(g, p) <= env2.eval(g, p)


def test_orthogonality_toric(rng):
    delta = unit_square()
    for _ in range(10):
        parts = (random_admissible(rng, delta), random_admissible(rng, delta))
        psi = MinOfConvex(parts)
        assert orthogonality_defect_toric(psi, delta) == 0
        assert orthogonality_defect(psi, delta) == 0
    g = random_admissible(rng, delta)
    assert orthogonality_defect_toric(g, delta) == 0


def test_orthogonality_defect_against_the_cells_oracle():
    # the defect paired on MA(P(psi))'s real measure equals the analytic
    # atoms zipped with P(psi)'s cells, P(psi) read off each cell
    # (cells_orthogonality_defect), on mins of convex parts, on convex
    # obstacles and on 1-D free-form obstacles; an obstacle that decays
    # below the admissible slopes is rejected by both
    rng = random.Random("orthogonality/cells-oracle")
    seen = dict.fromkeys(("min", "convex", "free", "rejected"), 0)
    for _ in range(150):
        kind = rng.choice(["min", "convex", "free"])
        delta = rng.choice(ACCEPTANCE_POLYTOPES)
        if kind == "min":
            psi = random_min_of(rng, delta)
        elif kind == "convex":
            psi = random_min_of(rng, delta, free=1 / 4).parts[0]
        else:
            delta = interval(-rng.randint(0, 3), rng.randint(1, 3))
            (alpha,), (beta,) = delta.vertices
            psi = PiecewiseLinear1D.build(
                [(Fraction(v, 4), rnd_frac(rng)) for v in rng.sample(range(-12, 13), rng.randint(1, 5))],
                alpha - rng.randint(0, 1), beta + rng.randint(0, 1))
        try:
            want = cells_orthogonality_defect(psi, delta)
        except EnvelopeError:
            with pytest.raises(EnvelopeError):
                orthogonality_defect_toric(psi, delta)
            seen["rejected"] += 1
            continue
        assert orthogonality_defect_toric(psi, delta) == want
        seen[kind] += 1
    assert min(seen.values()) > 15, seen


def test_orthogonality_curve(rng):
    for _ in range(10):
        g = random_graph(rng)
        om = random_positive_measure(rng, g, Fraction(2))
        mu = random_positive_measure(rng, g, Fraction(2))
        base = superpose(g, mu, om)
        dent = random_positive_measure(rng, g, Fraction(1))
        bump = superpose(g, dent.scale(2), om).scale(Fraction(-1, 2))
        psi = base + bump
        assert orthogonality_defect_curve(psi, g, om) == 0
        assert orthogonality_defect(psi, (g, om)) == 0
        # below psi and subharmonic, with zero defect: this is P(psi)
        env = envelope_subharmonic(psi, g, om)
        assert_below(env, psi, g)
        assert is_subharmonic(env, g, om)


def assert_below(env, psi, g):
    """env <= psi at every breakpoint of either function, so everywhere."""
    for e, (p1, p2) in enumerate(zip(env.edge_values, psi.edge_values)):
        for o in {o for o, _ in p1} | {o for o, _ in p2}:
            assert env.eval(g, ("e", e, o)) <= psi.eval(g, ("e", e, o))


def test_envelope_graph_regression():
    # A dented obstacle on a 15-vertex graph (17 edges) on which an earlier
    # float contact sweep never settled; reference masses 1/2 at vertex 0
    # and 3/2 inside edge 15.
    edges = [
        (0, 1, "4/3"), (1, 2, "1/3"), (1, 3, "6"), (0, 4, "1"), (3, 5, "2/3"), (2, 6, "1"),
        (3, 7, "1"), (1, 8, "3/2"), (3, 9, "4"), (8, 10, "5/2"), (1, 11, "2"), (1, 12, "5/3"),
        (2, 13, "1/3"), (0, 14, "3"), (4, 2, "2"), (6, 11, "1"), (0, 2, "2"),
    ]
    g = MetricGraph.build(range(15), [(u, v, Fraction(ln)) for u, v, ln in edges])
    om = GraphMeasure.from_atoms(
        g, [(vertex_key(0), Fraction(1, 2)), (("e", 15, Fraction(1, 2)), Fraction(3, 2))]
    )
    values = [
        [("0", "0"), ("4/3", "-1517/3324")],
        [("0", "-1517/3324"), ("1/3", "-641/2216")],
        [("0", "-1517/3324"), ("6", "5131/3324")],
        [("0", "0"), ("1", "-1195/6648")],
        [("0", "5131/3324"), ("2/3", "16501/9972")],
        [("0", "-641/2216"), ("1", "1831/13296")],
        [("0", "5131/3324"), ("3/4", "11093/6648"), ("1", "11093/6648")],
        [("0", "-1517/3324"), ("9/8", "-28505/13296"), ("3/2", "-28505/13296")],
        [("0", "5131/3324"), ("4", "5131/3324")],
        [("0", "-28505/13296"), ("5/2", "-28505/13296")],
        [("0", "-1517/3324"), ("2", "1261/6648")],
        [("0", "-1517/3324"), ("5/3", "-1517/3324")],
        [("0", "-641/2216"), ("1/6", "-3023/9972"), ("1/3", "-275/831")],
        [("0", "0"), ("3", "5/4")],
        [("0", "-1195/6648"), ("1/2", "-1195/4432"), ("2", "-641/2216")],
        [("0", "1831/13296"), ("1/2", "3113/8864"), ("1", "1261/6648")],
        [("0", "0"), ("2", "-641/2216")],
    ]
    psi = GraphPLFunction.build(
        g, [[(Fraction(o), Fraction(y)) for o, y in pairs] for pairs in values]
    )
    assert not is_subharmonic(psi, g, om)
    env = envelope_subharmonic(psi, g, om)
    assert_below(env, psi, g)
    assert is_subharmonic(env, g, om)
    assert orthogonality_defect_curve(psi, g, om) == 0


def obstacle_problem(psi, g, om):
    """The discrete problem on node numbers, as _howard takes it: the node
    index, the segment weights (W, Dw) of curves._refine, the offsets, the
    obstacle list read with psi.eval at each node's key, and om's masses.
    The interior nodes are psi's breakpoints and om's atoms, numbered from
    their keys with the vertices', whatever variational picks."""
    keys = [vertex_key(vid) for vid in g.vertex_ids] + [k for k, _ in om.atoms] + [
        g.point_key(("e", e, o)) for e, pairs in enumerate(psi.edge_values)
        for o, _ in pairs[1:-1]
    ]
    index, weights, offsets, _ = curves._refine(g, keys)
    obstacle = [None] * len(index)
    for k, i in index.items():
        obstacle[i] = psi.eval(g, k)
    return index, weights, offsets, obstacle, {index[k]: m for k, m in om.atoms}


def howard_oracle(psi, g, om):
    """P(psi) as Howard's iteration computed it with no float guide and on
    Fractions: solves by the Fraction elimination from the contact set of
    every node until the set repeats."""
    if is_subharmonic(psi, g, om):
        return psi
    _, weights, offsets, obstacle, mass = obstacle_problem(psi, g, om)
    edges = fraction_weights(weights)
    nodes = range(len(obstacle))
    source = {k: -m for k, m in mass.items()}
    contact = set(nodes)
    for _ in range(len(nodes) + 1):
        x = fraction_solve_laplacian(source, len(nodes), edges, {k: obstacle[k] for k in contact})
        s = {k: mass.get(k, Fraction(0)) for k in nodes}
        for a, b, w in edges:
            d = w * (x[b] - x[a])
            s[a] += d
            s[b] -= d
        nxt = {k for k in nodes if obstacle[k] - x[k] <= s[k]}
        if nxt == contact:
            return function_from_values(g, x, offsets, weights)
        contact = nxt
    raise AssertionError("the oracle did not settle")


def random_atoms(rng, g, count, total):
    """`count` distinct points of the graph g on vertices 0..nv-1, each a
    vertex or a quarter point of an edge, sharing the mass `total` in
    twelfths: a list of (key, mass)."""
    points = set()
    while len(points) < count:
        if rng.random() < 0.5:
            points.add(vertex_key(rng.randrange(len(g.vertex_ids))))
        else:
            e = rng.randrange(len(g.edges))
            points.add(("e", e, g.edges[e][2] * Fraction(rng.randint(1, 3), 4)))
    cuts = sorted(rng.sample(range(1, 12), count - 1))
    bounds = [0] + cuts + [12]
    points = sorted(points, key=repr)
    return [(p, total * Fraction(b - a, 12)) for p, a, b in zip(points, bounds, bounds[1:])]


def dented_graph(rng, nv, dents):
    """An obstacle as the benchmark draws them: a random spanning tree plus
    nv // 4 chords, omega0 of mass 2 on two points, and psi solving
    laplacian(psi) = mu - dent - omega0 / 2 (mu of mass 2 on three points,
    dent of mass 1 on `dents` points), which is not subharmonic."""
    def length():
        return Fraction(rng.randint(1, 6), rng.randint(1, 3))

    edges = [(rng.randrange(v), v, length()) for v in range(1, nv)]
    edges += [(*rng.sample(range(nv), 2), length()) for _ in range(nv // 4)]
    g = MetricGraph.build(range(nv), edges)
    om = random_atoms(rng, g, 2, Fraction(2))
    rho = random_atoms(rng, g, 3, Fraction(2))
    rho += [(p, -m) for p, m in random_atoms(rng, g, dents, Fraction(1))] + [(p, -m / 2) for p, m in om]
    psi = solve_poisson(g, GraphMeasure.from_atoms(g, rho), vertex_key(0))
    return g, GraphMeasure.from_atoms(g, om), psi


def assert_old_check(psi, g, om):
    """The node certificate checked through the functions themselves, as
    its oracle: psi - P(psi), merged breakpoint by breakpoint, is nowhere
    negative, MA(P(psi)) taken with laplacian is the measure of the
    nonzero node masses s(k), and the defect is MA(P(psi)) integrated
    against psi - P(psi)."""
    env = envelope_subharmonic(psi, g, om)
    gap = psi - env
    assert all(y >= 0 for pairs in gap.edge_values for _, y in pairs)
    ma = ma_curve(env, g, om)
    nodes = variational._envelope_nodes(psi, g, om)
    S, Ds = nodes.s
    key = curves._node_keys(g, nodes.edge_offsets)
    assert ma == GraphMeasure.from_atoms(g, [(key[i], Fraction(sk, Ds)) for i, sk in enumerate(S) if sk])
    assert orthogonality_defect_curve(psi, g, om) == ma.integrate(g, gap)


def test_envelope_against_howard_oracle(monkeypatch):
    # 200 obstacles, v = 4..60 cycled: the float guide and the exact pass
    # give what exact Howard from every node gives, in one exact solve each
    rng = random.Random(20090313)
    solve = curves.solve_integer
    exact_solves = []

    def counted(rows, b, free):
        exact_solves[-1] += 1
        return solve(rows, b, free)

    for i in range(200):
        nv = 4 + i % 57
        g, om, psi = dented_graph(rng, nv, min(12, 1 + nv // 4))
        exact_solves.append(0)
        with monkeypatch.context() as m:
            m.setattr(curves, "solve_integer", counted)
            env = envelope_subharmonic(psi, g, om)
        assert env == howard_oracle(psi, g, om)
        assert_old_check(psi, g, om)
    assert exact_solves == [1] * 200


def test_node_certificate_on_bench_obstacles():
    # the rungs of the benchmark's curve-envelope workload, five draws each
    rng = random.Random(2028)
    for nv, dents in ((8, 3), (15, 5), (20, 6), (30, 8)) * 5:
        g, om, psi = dented_graph(rng, nv, dents)
        assert_old_check(psi, g, om)


def test_exact_howard_from_any_start():
    # Howard's iteration converges from any nonempty contact set: from every
    # node, from one node, from the nodes of positive r = laplacian(psi) +
    # omega0 (the start of both passes) and from random subsets, it reaches
    # the envelope
    rng = random.Random(2009)
    starts = 0
    for i in range(30):
        g, om, psi = dented_graph(rng, 4 + 2 * i, min(12, 2 + i // 3))
        expected = howard_oracle(psi, g, om)
        _, weights, offsets, obstacle, mass = obstacle_problem(psi, g, om)
        form = curves.laplacian_form(integer_values(obstacle), mass, weights)
        n = len(obstacle)
        candidates = [set(range(n)), {rng.randrange(n)},
                      {k for k, r in enumerate(form[0]) if r > 0}]
        candidates += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
        for contact in candidates:
            for G, d, S, contact in variational._howard(form, contact):
                assert contact  # the contact set never empties
                if min(G) >= 0 and min(S) >= 0:
                    break
            else:
                raise AssertionError("no complementary solve in len(nodes) + 1 solves")
            x = [y - Fraction(gk, d * form[1]) for y, gk in zip(obstacle, G)]
            assert function_from_values(g, x, offsets, weights) == expected
            starts += 1
    assert starts == 180


def test_exact_contact_set_lies_where_r_is_nonnegative():
    # at a node k where P(psi) touches psi the gap is 0 and >= 0 around, so
    # r_k = s_k + laplacian(gap)_k >= 0: the contact set lies in {r >= 0}.
    # r sums to mass(omega0) > 0, so {r > 0}, the start of both Howard
    # passes, is never empty (test_exact_howard_from_any_start runs exact
    # Howard from it)
    rng = random.Random(2002)
    strict = 0
    for i in range(60):
        g, om, psi = dented_graph(rng, 4 + 2 * i, min(12, 2 + i // 3))
        nodes = variational._envelope_nodes(psi, g, om)
        R = curves.node_problem(g, psi, om)[3][0]
        assert any(r > 0 for r in R)
        assert all(r >= 0 for r, gk in zip(R, nodes.gap[0]) if gk == 0)
        strict += min(R) <= 0
    assert strict == 60  # every draw has nodes of r <= 0, which the start leaves free


def test_every_linear_solve_goes_through_solve_laplacian(monkeypatch):
    # the package has one linear solve: a factorization outside a
    # curves.solve_laplacian call fails, and that entry runs once per
    # Newton step of a 2-D toric solve, once per solve_curve, green and
    # solve_poisson, and once per Howard step of the envelope, float guide
    # and exact pass together
    entry, eliminate, howard = curves.solve_laplacian, curves._eliminate, variational._howard
    active, calls, steps = [], [], []

    def solve_laplacian(form, pinned):
        calls.append((isinstance(form[0][0], float), pinned))
        active.append(form)
        try:
            return entry(form, pinned)
        finally:
            active.pop()

    def guarded(rows, free, p):
        assert active, "a factorization outside curves.solve_laplacian"
        return eliminate(rows, free, p)

    def counted(form, contact):
        for step in howard(form, contact):
            steps.append(step)
            yield step

    monkeypatch.setattr(curves, "solve_laplacian", solve_laplacian)
    monkeypatch.setattr(curves, "_eliminate", guarded)
    monkeypatch.setattr(variational, "_howard", counted)
    rng = random.Random(33)
    third = Fraction(1, 3)
    targets = [(unit_square(), [((Fraction(1, 7), Fraction(2, 7)), third),
                                ((Fraction(3, 5), Fraction(4, 7)), third),
                                ((Fraction(1, 3), Fraction(6, 7)), third)]),
               (simplex2(), [((Fraction(1, 5), Fraction(1, 5)), Fraction(1, 4)),
                             ((Fraction(1, 2), Fraction(1, 8)), Fraction(1, 4))])]
    for delta, atoms in targets:
        calls.clear()
        report = solve_toric(delta, DiscreteMeasure.from_atoms(atoms))
        assert report.converged and report.iterations > 0
        assert calls == [(True, {0})] * report.iterations
    for nv in (6, 12, 24):
        g, om, psi = dented_graph(rng, nv, 3)
        mu = GraphMeasure.from_atoms(g, random_atoms(rng, g, 3, Fraction(2)))
        for solve in (lambda: solve_curve(g, mu, om), lambda: green(g, vertex_key(1), om),
                      lambda: solve_poisson(g, mu - om, vertex_key(0))):
            calls.clear()
            solve()
            assert len(calls) == 1
        calls.clear()
        steps.clear()
        envelope_subharmonic(psi, g, om)
        assert len(calls) == len(steps)
        assert {floats for floats, _ in calls} == {True, False}  # the guide and the exact pass


def test_envelope_lifts_no_more_than_solve_curve(monkeypatch):
    # the envelope's exact solve is for the gap psi - P(psi), whose source
    # laplacian(psi) + omega0 has the small denominators of the dents, so it
    # lifts about as often as solve_curve on the same graph, whose source
    # mu - omega0 is of the same kind; unknowns that carried psi's own
    # denominator lifted about twice as often.  A lift adds about 18
    # digits, and the two systems' numerators differ by a few, so the
    # envelope may take one lift more.
    lifts = []
    substitute = curves._substitute

    def counted(factors, b, p):
        if p is not None:
            lifts.append(p)
        return substitute(factors, b, p)

    monkeypatch.setattr(curves, "_substitute", counted)
    rng = random.Random(2010)
    for nv in (60, 120, 240):
        g, om, psi = dented_graph(rng, nv, 10)
        mu = GraphMeasure.from_atoms(g, random_atoms(rng, g, 3, Fraction(2)))
        start = len(lifts)
        envelope_subharmonic(psi, g, om)
        middle = len(lifts)
        solve_curve(g, mu, om)
        assert 0 < middle - start <= len(lifts) - middle + 1


def loopy_obstacle(rng, nv):
    """A random spanning tree plus nv // 4 chords, a loop and an edge
    parallel to another, with a random continuous psi (0-3 interior
    breakpoints per edge) and omega0 of mass 2 on three atoms: one at a
    vertex, one on a breakpoint of psi when psi has one, and one strictly
    inside a segment of psi."""
    def length():
        return Fraction(rng.randint(1, 6), rng.randint(1, 3))

    edges = [(rng.randrange(v), v, length()) for v in range(1, nv)]
    edges += [(*rng.sample(range(nv), 2), length()) for _ in range(nv // 4)]
    loop = rng.randrange(nv)
    edges.append((loop, loop, length()))
    edges.append((*edges[rng.randrange(nv - 1)][:2], length()))
    rng.shuffle(edges)
    g = MetricGraph.build(range(nv), edges)
    vertex = [rnd_frac(rng) for _ in range(nv)]
    values = []
    for u, v, ln in edges:
        offsets = sorted({ln * Fraction(rng.randint(1, 15), 16) for _ in range(rng.randint(0, 3))})
        values.append([(0, vertex[u])] + [(o, rnd_frac(rng)) for o in offsets] + [(ln, vertex[v])])
    psi = GraphPLFunction.build(g, values)
    breakpoints = [("e", e, o) for e, pairs in enumerate(psi.edge_values)
                   for o, _ in pairs[1:-1]]
    e = rng.randrange(len(edges))
    pairs = psi.edge_values[e]
    i = rng.randrange(len(pairs) - 1)
    inside = ("e", e, (pairs[i][0] + pairs[i + 1][0]) / 2)
    atoms = [vertex_key(rng.randrange(nv)), inside]
    if breakpoints:
        atoms.append(rng.choice(breakpoints))
    om = GraphMeasure.from_atoms(g, zip(atoms, (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4))))
    return g, om, psi


def test_obstacle_read_off_breakpoints():
    # the obstacle at the nodes, filled edge by edge from psi's breakpoints,
    # is psi.eval at each node key, on loops, parallel edges and omega0
    # atoms at vertices, on breakpoints and inside segments
    rng = random.Random(2015)
    kinds = set()
    for i in range(60):
        g, om, psi = loopy_obstacle(rng, 2 + i % 11)
        index, weights, offsets, obstacle, mass = obstacle_problem(psi, g, om)
        form = curves.laplacian_form(integer_values(obstacle), mass, weights)
        assert curves.node_problem(g, psi, om) == (
            {k: index[k] for k, _ in om.atoms}, offsets, integer_values(obstacle), form)
        breakpoints = {g.point_key(("e", e, o))
                       for e, pairs in enumerate(psi.edge_values) for o, _ in pairs}
        kinds.update(k[0] + str(k in breakpoints) for k, _ in om.atoms)
        if i % 4 == 0:
            assert envelope_subharmonic(psi, g, om) == howard_oracle(psi, g, om)
    assert kinds == {"vTrue", "eTrue", "eFalse"}


def with_redundant_point(psi, e):
    """psi with one more breakpoint, on its own first segment of edge e."""
    pairs = list(psi.edge_values[e])
    (o1, y1), (o2, y2) = pairs[:2]
    pairs.insert(1, ((o1 + o2) / 2, (y1 + y2) / 2))
    values = list(psi.edge_values)
    values[e] = tuple(pairs)
    return GraphPLFunction(tuple(values))


def subharmonic_obstacles():
    """Subharmonic obstacles with a redundant collinear breakpoint: one on
    the loop of the circle, one on a tree with an omega0 atom inside an
    edge."""
    circle = circle_graph()
    om = GraphMeasure.from_atoms(circle, [(vertex_key(0), 1)])
    psi = GraphPLFunction.build(
        circle, [[(0, 0), (Fraction(1, 2), Fraction(-1, 4)), (1, 0)]])
    yield circle, om, with_redundant_point(psi, 0)
    tree = MetricGraph.build(range(5), [(0, 1, 2), (1, 2, Fraction(1, 3)), (1, 3, 1),
                                        (3, 4, Fraction(5, 2))])
    om = GraphMeasure.from_atoms(
        tree, [(vertex_key(0), Fraction(1, 2)), (("e", 3, Fraction(3, 2)), Fraction(3, 2))])
    mu = GraphMeasure.from_atoms(
        tree, [(vertex_key(2), 1), (("e", 0, Fraction(1, 2)), 1)])
    psi = solve_poisson(tree, mu - om, vertex_key(0))
    yield tree, om, with_redundant_point(psi, 3)


def test_subharmonic_obstacle_returned_as_given():
    # the exact pass ends with x = psi at every node, and psi comes back
    # unchanged, its redundant breakpoint included
    for g, om, psi in subharmonic_obstacles():
        assert is_subharmonic(psi, g, om) and psi.simplify() != psi
        gap, _ = variational._envelope_nodes(psi, g, om).gap
        assert gap == [0] * len(gap)
        assert envelope_subharmonic(psi, g, om).edge_values == psi.edge_values
        assert orthogonality_defect_curve(psi, g, om) == 0
        assert_old_check(psi, g, om)


def test_curve_defect_is_summed_not_assumed(monkeypatch):
    # an iterate lowered by 1, its gap raised by 1, is still below psi,
    # with the same masses s, but not complementary: the defect is the sum
    # of s, mass(omega0)
    howard = variational._howard

    def lowered(form, contact):
        for G, d, S, contact in howard(form, contact):
            yield [gk + d * form[1] for gk in G], d, S, contact

    monkeypatch.setattr(variational, "_howard", lowered)
    for g, om, psi in subharmonic_obstacles():
        assert orthogonality_defect_curve(psi, g, om) == om.total_mass() > 0


# reference measures that are not positive or have no mass: -delta_0,
# delta_0 - delta_1, the empty measure and 2 delta_0 - delta at the middle
# of edge 0
NONPOSITIVE_REFERENCES = [
    [(vertex_key(0), -1)],
    [(vertex_key(0), 1), (vertex_key(1), -1)],
    [],
    [(vertex_key(0), 2), (("e", 0, Fraction(1, 2)), -1)],
]


@pytest.mark.parametrize("atoms", NONPOSITIVE_REFERENCES)
def test_curve_envelope_rejects_nonpositive_reference(atoms):
    # the envelope and the defect check omega0 as green does, before any
    # solve: Howard's iteration needs mass(omega0) > 0
    g = MetricGraph.build([0, 1], [(0, 1, 1)])
    om = GraphMeasure.from_atoms(g, atoms)
    psi = GraphPLFunction.build(g, [[(0, 0), (Fraction(1, 2), -1), (1, 1)]])
    for solve in (lambda: envelope_subharmonic(psi, g, om),
                  lambda: orthogonality_defect_curve(psi, g, om),
                  lambda: envelope_P(psi, (g, om)),
                  lambda: orthogonality_defect(psi, (g, om)),
                  lambda: green(g, vertex_key(1), om)):
        with pytest.raises(MassBalanceError, match="^reference measure must be positive$"):
            solve()


def spiked_edge(exp_length, exp_value):
    """One edge of length 10**exp_length, psi zigzagging to +-10**exp_value
    at its quarter points, omega0 of mass 1 at vertex 0 and at the first
    quarter point."""
    ln, val = Fraction(10) ** exp_length, Fraction(10) ** exp_value
    g = MetricGraph.build([0, 1], [(0, 1, ln)])
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), 1), (("e", 0, ln / 4), 1)])
    zigzag = [(0, 0), (ln / 4, val), (ln / 2, -val), (3 * ln / 4, val), (ln, 0)]
    return g, om, GraphPLFunction.build(g, [zigzag])


# (exponent of the length, exponent of the values): the float guide meets
# an edge weight or an r = laplacian(psi) + omega0 that float() cannot
# hold, a weight or values that round to zero, a singular float system
# (every weight rounds to zero while r does not), a gap past the float
# range, and a float iteration that cycles (the rounding of s exceeds the
# gaps it is compared with)
FLOAT_HOSTILE = [(-400, 0), (0, 400), (400, 0), (0, -400), (400, 200), (-200, 150),
                 (100, 320), (-20, -20)]
# where the values round to zero, the floats cannot tell the nodes apart
# and the guide settles on every node; where the iteration cycles, it
# comes back to its start, the nodes of positive r; every other input
# ends the guide with None.  A gap past the float range would settle on
# every node too if it were iterated on, so None tells that it was caught.
SETTLE_ON_EVERY_NODE = {(0, -400)}
SETTLE_ON_THE_START = {(-20, -20)}


@pytest.mark.parametrize("exp_length, exp_value", FLOAT_HOSTILE)
def test_envelope_float_guide_fallback(tmp_path, capsys, monkeypatch, exp_length, exp_value):
    g, om, psi = spiked_edge(exp_length, exp_value)
    assert not is_subharmonic(psi, g, om)
    expected = howard_oracle(psi, g, om)
    _, weights, _, obstacle, mass = obstacle_problem(psi, g, om)
    form = curves.laplacian_form(integer_values(obstacle), mass, weights)
    start = {k for k, r in enumerate(form[0]) if r > 0}
    guide = variational._float_contact(form, start)
    if (exp_length, exp_value) in SETTLE_ON_EVERY_NODE:
        assert guide == set(range(len(obstacle)))
    elif (exp_length, exp_value) in SETTLE_ON_THE_START:
        assert guide == start
    else:
        assert guide is None
    howard, starts = variational._howard, []

    def recorded(form, contact):
        if not isinstance(form[0][0], float):
            starts.append(contact)
        return howard(form, contact)

    with monkeypatch.context() as m:
        m.setattr(variational, "_howard", recorded)
        assert envelope_subharmonic(psi, g, om) == expected
    # the exact pass starts from the guide's set, or from the nodes of
    # positive r where the guide failed
    assert starts == [guide or start]
    assert_old_check(psi, g, om)
    documents = {"graph": serialize.graph_to_json(g), "omega0": serialize.graph_measure_to_json(om),
                 "g": serialize.graph_function_to_json(psi)}
    argv = ["envelope"]
    for name, doc in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        argv += [f"--{name}", str(path)]
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert out == serialize.graph_function_to_json(expected) + "\n"
    assert err == ""


# ---------------------------------------------------------------------------
# differentiability of E(P(phi + t f))


def test_derivative_constant_direction(rng):
    delta = interval()
    phi = random_admissible(rng, delta)
    one = PiecewiseLinear1D.build([(Fraction(0), Fraction(1))], Fraction(0), Fraction(0))
    exact, fd = energy_of_envelope_derivative(phi, one, delta)
    assert exact == degree(delta)
    for _, q in fd:
        assert q == exact


def test_derivative_disjoint_support(rng):
    delta = interval()
    phi = point_mass_solution(delta, (Fraction(0),))
    f = bump_1d(Fraction(5), Fraction(1), Fraction(1, 2))
    exact, fd = energy_of_envelope_derivative(phi, f, delta)
    assert exact == 0


def test_derivative_first_order_toric(rng):
    delta = interval()
    for _ in range(5):
        phi = random_admissible(rng, delta)
        f = bump_1d(rnd_frac(rng), Fraction(1), rnd_frac(rng, lo=-1, hi=1))
        exact, fd = energy_of_envelope_derivative(phi, f, delta)
        fmax = abs(f((rnd_frac(rng),)))  # bounded by height
        C = 4 * degree(delta) * max(Fraction(1), fmax)
        for t, q in fd:
            assert abs(q - exact) <= C * t


def test_derivative_first_order_curve(rng):
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    mu = GraphMeasure.from_atoms(
        g, [(("e", 0, Fraction(1, 3)), Fraction(1)), (vertex_key(0), Fraction(1))]
    )
    phi = superpose(g, mu, om)
    f = GraphPLFunction.build(
        g,
        [(
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
        )],
    )
    exact, fd = energy_of_envelope_derivative(phi, f, (g, om))
    C = 4 * 2 * Fraction(1, 2)
    for t, q in fd:
        assert abs(q - exact) <= C * t


def test_derivative_central_quotients_exact_on_a_quadratic():
    # MA(phi + t f) = mu + t (delta_x - delta_0) stays positive for |t| <= 1,
    # so phi + t f is its own envelope and t -> E(phi + t f) is quadratic:
    # the first chamber reaches 1 on both sides
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    x = ("e", 0, Fraction(1, 3))
    mu = GraphMeasure.from_atoms(g, [(x, Fraction(1)), (vertex_key(0), Fraction(1))])
    phi = superpose(g, mu, om)
    rho = GraphMeasure.from_atoms(g, [(x, Fraction(1)), (vertex_key(0), Fraction(-1))])
    f = solve_poisson(g, rho, vertex_key(0))
    exact, fd = energy_of_envelope_derivative(phi, f, (g, om))
    assert [t for t, _ in fd] == [1, 1]
    assert exact == mu.integrate(g, f) and all(q == exact for _, q in fd)


def test_difference_quotients_stay_within_first_order_of_the_derivative():
    # the central quotients on the old grid (conftest), criterion 5's draws
    # under another seed: each stays within C t of both exact derivatives
    for phi, f, context, C in differentiability_instances(random.Random("quotients")):
        _, fd = energy_of_envelope_derivative(phi, f, context)
        for t, q in difference_quotients(envelope_energy(phi, f, context)):
            assert all(abs(q - d) <= C * t for _, d in fd)


def test_derivative_toric_through_the_curve_fits_toric_energies():
    # 200 intervals with ends on the 1/2 grid of [-8, 8], many missing 0:
    # the derivative, taken through the curve model on a segment, equals
    # the MA pairing on both sides, and envelope_toric and energy_toric,
    # which share no code with the curve, fit it on the first chamber
    # by the same three-point formula: E is quadratic there
    rng = random.Random("derivative-toric-through-the-curve")
    without_zero = below_one = 0
    for _ in range(200):
        a, b = sorted(rng.sample(range(-16, 17), 2))
        delta = interval(Fraction(a, 2), Fraction(b, 2))
        phi = random_admissible(rng, delta)
        f = bump_1d(rnd_frac(rng), Fraction(rng.randint(1, 4), 2), rnd_frac(rng, den=4))
        if rng.random() < 1 / 2:
            f = f + bump_1d(rnd_frac(rng), Fraction(1, 2), rnd_frac(rng))
        exact, fd = energy_of_envelope_derivative(phi, f, delta)
        energy_at = envelope_energy(phi, f, delta)
        for (h, d), sign in zip(fd, (1, -1)):
            t = sign * h
            assert d == exact
            assert (4 * energy_at(t / 2) - energy_at(t) - 3 * energy_at(0)) / t == d
            below_one += h < 1
        without_zero += not a <= 0 <= b
    assert without_zero > 50 and below_one > 20


def test_derivative_on_random_graphs():
    # 48 random graphs and directions, phi a superposition or the solve:
    # both one-sided derivatives equal the pairing of f with MA(phi)
    rng = random.Random("derivative-on-random-graphs")
    below_one = 0
    for i in range(48):
        g = random_graph(rng)
        om = random_positive_measure(rng, g, Fraction(2))
        mu = random_positive_measure(rng, g, Fraction(2))
        phi = solve_curve(g, mu, om) if i % 2 else superpose(g, mu, om)
        f = random_graph_function(rng, g, 2)
        exact, fd = energy_of_envelope_derivative(phi, f, (g, om))
        assert exact == mu.integrate(g, f) and [d for _, d in fd] == [exact, exact]
        below_one += sum(h < 1 for h, _ in fd)
    assert below_one > 48



def test_derivative_closed_form_equals_three_sample_oracle(monkeypatch):
    # the 62 oracle instances (conftest): criterion 5's 20, 1-D toric tents,
    # and graphs with omega0's atoms inside edges, a loop edge's included.
    # The first chamber, read off one derivative problem, gives the halving
    # oracle's derivatives on a radius at least as wide, and the three
    # samples (4 E(h/2) - E(h) - 3 E(0)) / h of envelope_energy (conftest:
    # envelope_toric and energy_toric in 1-D toric, which share no code
    # with the curve) give the same d on it.  The halving oracle returns
    # what the three-sample oracle returns, radii included
    instances = derivative_oracle_instances()
    closed = [energy_of_envelope_derivative(*i) for i in instances]
    monkeypatch.setattr(variational, "_one_sided_derivatives", halving_derivatives)
    halving = [energy_of_envelope_derivative(*i) for i in instances]
    monkeypatch.setattr(variational, "_one_sided_derivatives", three_sample_derivatives)
    assert [energy_of_envelope_derivative(*i) for i in instances] == halving
    wider = 0
    for instance, (exact, fd), (old_exact, old) in zip(instances, closed, halving):
        energy_at = envelope_energy(*instance)
        assert exact == old_exact
        for (h, d), (h0, d0), sign in zip(fd, old, (1, -1)):
            t = sign * h
            assert d == d0 == exact and 0 < h0 <= h <= 1
            assert (4 * energy_at(t / 2) - energy_at(t) - 3 * energy_at(0)) / t == d
            wider += h > h0
    graphs = [c for _, _, c in instances if not isinstance(c, Polytope)]
    inside = [[g.edges[k[1]] for k, _ in om.atoms if k[0] == "e"] for g, om in graphs]
    on_loop = sum(any(u == v for u, v, _ in edges) for edges in inside)
    assert (len(instances), len(graphs), sum(map(bool, inside)), on_loop) == (62, 36, 36, 24)
    assert sum(h < 1 for _, fd in closed for h, _ in fd) > 50
    assert wider == 71


def test_derivative_radius_is_the_chambers_exact_end():
    # on every side of the 62 oracle instances whose first chamber ends
    # before +-1, the envelope at +-h has mass 0 at a node where MA(phi)
    # has positive mass: h is where that mass reaches 0, the first kink of
    # t -> P(phi + t f), not a radius short of it
    results, problems = derivative_problems(derivative_oracle_instances())
    ends = 0
    for (_, fd), (phi, f, graph, omega0) in zip(results, problems):
        R = curves.node_problem(graph, phi + f.scale(0), omega0)[3][0]
        for (h, _), sign in zip(fd, (1, -1)):
            if h < 1:
                nodes = variational._envelope_nodes(phi + f.scale(sign * h), graph, omega0)
                assert any(s == 0 < r for s, r in zip(nodes.s[0], R))
                ends += 1
    assert ends == 74


def test_energy_derivative_theorem_at_every_kink():
    # the 62 oracle instances, each side walked over [0, +-1] chamber by
    # chamber with the general step of conftest's envelope_path.  At every
    # chamber end t the walked gaps and masses are those of the envelope's
    # node problem at t, the walked energy is energy_curve of
    # envelope_subharmonic at t, and the derivative of the energy from
    # each side of t equals the pairing of f with the masses there,
    # MA(P(phi + t f)), as the paper says.  The first chamber of each side
    # is the library's (h, d).  Criterion 5's 20 instances come first
    results, problems = derivative_problems(derivative_oracle_instances())
    chambers = []
    for (exact, fd), (phi, f, graph, omega0) in zip(results, problems):
        x = curves.node_problem(graph, phi + f.scale(0), omega0)[2]
        fv = variational._combine(curves.node_problem(graph, phi + f, omega0)[2], x, -1)
        at = {}

        def check(t, g, s, energy, slope):
            if t not in at:
                psi = phi + f.scale(t)
                at[t] = (variational._envelope_nodes(psi, graph, omega0),
                         energy_curve(envelope_subharmonic(psi, graph, omega0), graph, omega0))
            nodes, curve_energy = at[t]
            (G, Dg), (S, Ds) = nodes.gap, nodes.s
            assert g == [Fraction(v, Dg) for v in G] and s == [Fraction(v, Ds) for v in S]
            assert slope == variational._pairing(nodes.s, fv) and energy == curve_energy

        for (h, d), sign in zip(fd, (1, -1)):
            path = envelope_path(phi, f, graph, omega0, sign)
            assert (abs(path[0]["t1"]), path[0]["D0"]) == (h, d) and d == exact
            for c in path:
                check(c["t0"], c["g0"], c["s0"], c["E0"], c["D0"])
                check(c["t1"], c["g1"], c["s1"], c["E1"], c["D1"])
            chambers.append(len(path))
    # a side's last chamber ends at +-1, so it has one kink fewer than chambers
    assert (sum(chambers[:40]), sum(chambers[:40]) - 40) == (54, 14)
    assert (sum(chambers), sum(chambers) - 124, max(chambers)) == (311, 187, 8)


def test_maximizer_criticality(rng):
    # at the solver output the envelope-composed functional cannot increase
    from plma.solver import solve_toric

    delta = interval()
    g0 = support_function(delta)
    nu = ma_measure(random_admissible(rng, delta), delta).measure_NR
    phi = solve_toric(delta, nu).solution
    mu = nu.scale(1)
    base = f_mu_toric(phi, mu, g0, delta)
    f = bump_1d(Fraction(1, 2), Fraction(1), Fraction(1, 3))
    phi1d = PiecewiseLinear1D.from_convex(phi)
    for t in (Fraction(1, 8), Fraction(-1, 8), Fraction(1, 32), Fraction(-1, 32)):
        pert = envelope_toric(phi1d + f.scale(t), delta)
        assert f_mu_toric(pert, mu, g0, delta) <= base


VARIATIONAL_INPUT_ERRORS = {
    "mass mismatch": (
        lambda: f_mu_curve(GraphPLFunction.constant(circle_graph(), 0),
                           GraphMeasure.from_atoms(circle_graph(), [(vertex_key(0), Fraction(2))]),
                           circle_graph(),
                           GraphMeasure.from_atoms(circle_graph(), [(vertex_key(0), Fraction(1))])),
        MassBalanceError, "mu must have the same mass as the reference"),
    "no breakpoints": (lambda: PiecewiseLinear1D.build([], 0, 1), ValueError,
                       "need at least one breakpoint"),
    "duplicate abscissae": (lambda: PiecewiseLinear1D.build([(0, 0), (0, 1)], 0, 1), ValueError,
                            "duplicate breakpoint abscissae"),
    "from_convex in 2-D": (lambda: PiecewiseLinear1D.from_convex(support_function(unit_square())),
                           ValueError, "1-D only"),
    "1-D function at a 2-D point": (
        lambda: PiecewiseLinear1D.build([(0, 0), (1, 1)], 0, 0)((Fraction(1, 2), 5)),
        DimensionError, "argument dimension mismatch"),
    "unsupported obstacle": (lambda: envelope_toric("psi", interval()), TypeError,
                             "unsupported obstacle type str"),
    "derivative in 2-D": (
        lambda: energy_of_envelope_derivative(
            support_function(unit_square()), bump_1d(Fraction(0), Fraction(1), Fraction(1)),
            unit_square()),
        ValueError, "1-D only"),
    "derivative at a non-admissible phi": (
        lambda: energy_of_envelope_derivative(
            pl(((Fraction(1, 2),), 0)), bump_1d(Fraction(0), Fraction(1), Fraction(1)),
            interval()),
        AdmissibilityError,
        "function is not admissible for the polytope (slope outside, or missing vertex slope)"),
    "derivative along a recession slope": (
        lambda: energy_of_envelope_derivative(
            support_function(interval()), PiecewiseLinear1D.build([(0, 0)], 0, 1), interval()),
        EnvelopeError, "obstacle decays below the admissible slope range"),
    "derivative at a non-subharmonic curve phi": (
        lambda: energy_of_envelope_derivative(
            GraphPLFunction.build(circle_graph(), [[(0, 0), (Fraction(1, 2), 1), (1, 0)]]),
            GraphPLFunction.constant(circle_graph(), 1),
            (circle_graph(), GraphMeasure.from_atoms(circle_graph(), [(vertex_key(0), 2)]))),
        curves.SubharmonicityError, "function is not subharmonic for the reference measure"),
}


@pytest.mark.parametrize("case", list(VARIATIONAL_INPUT_ERRORS))
def test_variational_input_errors(case):
    call, error, message = VARIATIONAL_INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_toric_interval_is_curve_with_omega0_at_the_origin():
    # On delta = [alpha, beta], alpha <= 0 < beta, with h its support
    # function, the 1-D toric data of g equal the curve data of g - h on a
    # one-edge graph [a, b] that holds 0 and every breakpoint, with omega0
    # = (beta - alpha) delta_0, exactly: the MA measure, the energy, the
    # envelope of a free-form psi with recession slopes alpha - 1 and
    # beta + 1 and both orthogonality defects, and the solve up to a
    # constant.  Criterion 10 puts omega0 at the ends of the segment.
    rng = random.Random("toric-segment-omega0-at-the-origin")
    nonzero_energy = moved = 0
    for _ in range(200):
        alpha = -Fraction(rng.randint(0, 8), rng.randint(1, 3))
        beta = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        delta, h = interval(alpha, beta), support_function(interval(alpha, beta))
        slopes = [alpha, beta] + [alpha + (beta - alpha) * Fraction(rng.randint(1, 11), 12)
                                  for _ in range(rng.randint(0, 4))]
        g = PLConvexFunction.from_pieces([AffineFunctional((s,), rnd_frac(rng)) for s in slopes])
        psi = PiecewiseLinear1D.build(
            [(Fraction(v, 4), rnd_frac(rng)) for v in rng.sample(range(-12, 13), rng.randint(1, 5))],
            alpha - 1, beta + 1)
        weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        nu = DiscreteMeasure.from_atoms(
            [((rnd_frac(rng),), (beta - alpha) * w / sum(weights)) for w in weights])
        ts = {Fraction(0), *(v[0] for v in breakpoints(g)), *(v for v, _ in psi.points),
              *(p[0] for p, _ in nu.atoms)}
        a, b = min(ts) - rng.randint(0, 1), max(ts) + rng.randint(0, 1)
        graph = MetricGraph.build(["a", "b"], [("a", "b", b - a)])
        omega0 = GraphMeasure.from_atoms(graph, [(("e", 0, -a), beta - alpha)])

        def key(t):
            return graph.point_key(("e", 0, t - a))

        def less_h(u, nodes):
            # u - h on [a, b], linear between 0, a, b and the nodes
            nodes = sorted({a, b, Fraction(0), *nodes})
            return GraphPLFunction.build(graph, [[(t - a, u(t) - h((t,))) for t in nodes]])

        def gaps(u, f, nodes):
            # u - h - f on [a, b], at 0, a, b, the nodes and f's breakpoints
            nodes = {a, b, Fraction(0), *nodes, *(a + o for o, _ in f.edge_values[0])}
            return {u(t) - h((t,)) - f.eval(graph, key(t)) for t in nodes}

        phi = less_h(lambda t: g((t,)), [v[0] for v in breakpoints(g)])
        assert ma_curve(phi, graph, omega0) == GraphMeasure.from_atoms(
            graph, [(key(p[0]), m) for p, m in ma_measure(g, delta).measure_NR.atoms])
        energy = energy_toric(g, h, delta)
        assert energy == energy_curve(phi, graph, omega0)
        obstacle = less_h(psi, [v for v, _ in psi.points])
        env = envelope_toric(psi, delta)
        curve_env = envelope_subharmonic(obstacle, graph, omega0)
        assert gaps(lambda t: env((t,)), curve_env, [v[0] for v in breakpoints(env)]) == {0}
        assert orthogonality_defect_toric(psi, delta) == 0
        assert orthogonality_defect_curve(obstacle, graph, omega0) == 0
        solution = solve_toric(delta, nu).solution  # the 1-D closed form
        potential = solve_curve(
            graph, GraphMeasure.from_atoms(graph, [(key(p[0]), m) for p, m in nu.atoms]), omega0)
        assert len(gaps(lambda t: solution((t,)), potential, [p[0] for p, _ in nu.atoms])) == 1
        nonzero_energy += energy != 0
        moved += any(env((t,)) != psi(t) for t in {a, b, *(v for v, _ in psi.points)})
    assert nonzero_energy > 180 and moved > 180
