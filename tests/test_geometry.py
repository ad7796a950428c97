import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from plma.geometry import (
    AffineFunctional,
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    as_fraction,
    breakpoints,
    convex_envelope,
    cross2,
    is_admissible,
    subdifferential,
    support_function,
    vscale,
    vsub,
)
from plma.curves import GraphMeasure, GraphPLFunction, MetricGraph
from plma.solver import SolveReport, residual
from plma.toric import MonomialPoint, ToricMAResult, ma_measure
from plma.variational import MinOfConvex, PiecewiseLinear1D, envelope_toric

from conftest import (
    ACCEPTANCE_POLYTOPES,
    fraction_atoms,
    interval,
    random_admissible,
    random_graph,
    random_graph_function,
    random_min_of,
    random_positive_measure,
    rnd_frac,
    simplex2,
    unit_square,
    vadd,
)


def pl(*pieces):
    return PLConvexFunction.from_pieces([AffineFunctional.make(s, c) for s, c in pieces])


def test_support_function_interval():
    g = support_function(interval())
    assert sorted((p.slope, p.intercept) for p in g.pieces) == [((0,), 0), ((1,), 0)]
    assert g((3,)) == 3 and g((-2,)) == 0


def test_support_function_simplex():
    g = support_function(simplex2())
    assert g((5, 7)) == 7 and g((-1, -2)) == 0 and g((4, 3)) == 4


def test_support_function_point():
    g = support_function(Polytope.from_points([(Fraction(2, 3), Fraction(-1, 2))]))
    assert len(g.pieces) == 1
    assert g((1, 1)) == Fraction(2, 3) - Fraction(1, 2)


def test_eval_examples():
    assert pl(((0,), 0), ((1,), 0))((2,)) == 2
    assert pl(((0,), 0), ((1,), 2))((0,)) == 0
    assert pl(((0, 0), 0), ((1, 0), 0), ((0, 1), 0))((Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 2)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionError):
        pl(((0,), 0), ((1,), 0))((1, 2))


def test_is_admissible_examples():
    d = interval()
    assert is_admissible(support_function(d), d)
    assert is_admissible(pl(((0,), 0), ((1,), 2)), d)
    assert not is_admissible(pl(((Fraction(1, 2),), 0)), d)


def test_is_admissible_slope_outside():
    assert not is_admissible(pl(((0,), 0), ((2,), 0)), interval())


def test_subdifferential_examples():
    g = pl(((0,), 0), ((1,), 0))
    assert subdifferential(g, (0,)) == interval()
    assert subdifferential(g, (3,)) == Polytope.from_points([(1,)])
    g2 = support_function(simplex2())
    assert subdifferential(g2, (0, 0)) == simplex2()


def test_polytope_volume_examples():
    assert unit_square().volume() == 1
    assert simplex2().volume() == Fraction(1, 2)
    assert Polytope.from_points([(0, 0), (1, 1)]).volume() == 0


def test_breakpoints_examples():
    assert list(breakpoints(pl(((0,), 0), ((1,), 0)))) == [(0,)]
    assert list(breakpoints(pl(((0,), 0), ((1,), 2)))) == [(2,)]
    assert list(breakpoints(support_function(simplex2()))) == [(0, 0)]


def test_convex_envelope_of_convex_is_identity(rng):
    for delta in (interval(), unit_square(), simplex2()):
        for _ in range(5):
            g = random_admissible(rng, delta)
            env = convex_envelope([(v, g(v)) for v in breakpoints(g)], delta)
            for _ in range(20):
                v = tuple(rnd_frac(rng, den=8, lo=-3, hi=3) for _ in range(delta.dim))
                assert env(v) == g(v)


def test_envelope_toric_against_breakpoint_samples():
    # the oracle is the conjugate sampled by evaluating each part at its
    # breakpoints; envelope_toric reads those values off the kernel cells
    rng = random.Random("envelope/min-of-admissible")
    for delta in ACCEPTANCE_POLYTOPES:
        for _ in range(10):
            psi = random_min_of(rng, delta, free=0)
            samples = [(v, g(v)) for g in psi.parts for v in breakpoints(g)]
            assert envelope_toric(psi, delta) == convex_envelope(samples, delta)


def brute_force_envelope(samples, delta, v, grid=48):
    # largest affine minorant over a dense slope grid inside delta
    a, b = delta.vertices[0][0], delta.vertices[-1][0]
    best = None
    for j in range(grid + 1):
        s = a + Fraction(j, grid) * (b - a)
        c = max(s * x[0] - y for x, y in samples)
        val = s * v[0] - c
        best = val if best is None else max(best, val)
    return best


def test_convex_envelope_brute_force_1d():
    delta = interval(-1, 1)
    samples = [((-1,), Fraction(0)), ((0,), Fraction(-1)), ((1,), Fraction(0))]
    env = convex_envelope(samples, delta)
    # expected |v| - 1
    for v in (-2, -1, Fraction(-1, 3), 0, Fraction(2, 5), 1, 3):
        assert env((v,)) == abs(Fraction(v)) - 1
        assert env((v,)) >= brute_force_envelope(samples, delta, (v,))


def test_convex_envelope_affine_on_gap():
    # non-convex samples: envelope is affine where strictly below the data
    delta = interval(-1, 1)
    samples = [
        ((-1,), Fraction(0)),
        ((0,), Fraction(1)),
        ((1,), Fraction(0)),
        ((2,), Fraction(3)),
    ]
    env = convex_envelope(samples, delta)
    gap_points = [x for x, y in samples if env(x) < y]
    bps = set(breakpoints(env))
    for x in gap_points:
        assert x not in bps


def test_volume_nonnegative_and_translation_invariant(rng):
    for _ in range(10):
        pts = [
            (rnd_frac(rng), rnd_frac(rng)) for _ in range(rng.randint(3, 7))
        ]
        p = Polytope.from_points(pts)
        assert p.volume() >= 0
        t = (rnd_frac(rng), rnd_frac(rng))
        assert p.translate(t).volume() == p.volume()


def test_translate_checks_the_dimension():
    # a vector of another length raises DimensionError, for a polytope and
    # a function alike, where it was cut to the shorter length: the unit
    # square moved by (1,) was the interval [1, 2]
    rng = random.Random("translate/dimension")
    for delta, lengths in ((unit_square(), (1, 3)), (interval(), (2,))):
        for obj in (delta, random_admissible(rng, delta)):
            for n in lengths:
                t = tuple(rnd_frac(rng) for _ in range(n))
                with pytest.raises(DimensionError, match="^translation dimension mismatch$"):
                    obj.translate(t)
            t = tuple(rnd_frac(rng) for _ in range(delta.dim))
            assert obj.translate(t).translate(vscale(-1, t)) == obj


def test_subdifferential_inside_slope_hull(rng):
    for _ in range(10):
        g = random_admissible(rng, unit_square())
        hull = Polytope.from_points([p.slope for p in g.pieces])
        for _ in range(10):
            v = (rnd_frac(rng), rnd_frac(rng))
            sd = subdifferential(g, v)
            assert all(hull.contains(u) for u in sd.vertices)
            if len(g.active_pieces(v)) == 1:
                assert len(sd.vertices) == 1


def test_admissible_slope_hull_equals_delta(rng):
    for delta in (interval(), unit_square(), simplex2()):
        for _ in range(5):
            g = random_admissible(rng, delta)
            assert Polytope.from_points([p.slope for p in g.pieces]) == delta


def test_envelope_idempotent_and_dominated(rng):
    delta = interval(-1, 2)
    for _ in range(10):
        samples = [
            ((Fraction(k),), rnd_frac(rng, den=4, lo=-3, hi=3)) for k in range(-2, 4)
        ]
        env = convex_envelope(samples, delta)
        for x, y in samples:
            assert env(x) <= y
        again = convex_envelope([(v, env(v)) for v in breakpoints(env)], delta)
        for x, _ in samples:
            assert again(x) == env(x)


def test_polytope_canonical_form():
    p = Polytope.from_points([(1, 1), (0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
    assert p == unit_square()
    assert p.vertices == tuple(sorted(p.vertices))
    # ring() builds a new list from the integer ring; a caller that edits it changes nothing
    ring = p.ring()
    ring.append((5, 5))
    assert p.ring() == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert p == unit_square() and hash(p) == hash(unit_square())


def contains_by_cross_products(delta, p):
    """Polytope.contains as it was before the integer half-planes: a point
    lies in a polygon iff it is left of or on every counterclockwise side."""
    if delta.dim == 1:
        return delta.vertices[0][0] <= p[0] <= delta.vertices[-1][0]
    ring = delta.ring()
    if len(ring) == 1:
        return p == ring[0]
    if len(ring) == 2:
        a, b = ring
        if cross2(vsub(b, a), vsub(p, a)) != 0:
            return False
        t, d = vsub(p, a), vsub(b, a)
        s = t[0] / d[0] if d[0] != 0 else t[1] / d[1]
        return 0 <= s <= 1
    return all(cross2(vsub(b, a), vsub(p, a)) >= 0 for a, b in zip(ring, ring[1:] + ring[:1]))


def probe_points(rng, delta):
    """Vertices, side midpoints, the points 1/12 off them along both axes
    (just inside and just outside), and random points of the bounding box
    grown by 1, all with denominators at most 12."""
    ring = delta.ring()
    marks = ring + [vscale(Fraction(1, 2), vadd(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])]
    steps = [Fraction(i, 12) for i in (-1, 0, 1)]
    pts = [vadd(m, d) for m in marks for d in itertools.product(steps, repeat=delta.dim)]
    lo = [min(v[i] for v in ring) - 1 for i in range(delta.dim)]
    hi = [max(v[i] for v in ring) + 1 for i in range(delta.dim)]
    for _ in range(40):
        q = rng.randint(1, 12)
        pts.append(tuple(Fraction(rng.randint(int(a * q), int(b * q)), q) for a, b in zip(lo, hi)))
    return pts


def test_contains_against_cross_products():
    rng = random.Random("contains")
    # a random polygon on the 1/6 grid: midpoints and the 1/12 steps stay
    # on the 1/12 grid
    polygon = Polytope.from_points(
        [(Fraction(rng.randint(-12, 12), 6), Fraction(rng.randint(-12, 12), 6)) for _ in range(9)])
    assert len(polygon.ring()) >= 5
    deltas = ACCEPTANCE_POLYTOPES + [
        polygon,
        Polytope.from_points([(0, 0), (2, 1)]),  # a segment
        Polytope.from_points([(0, 1), (0, Fraction(5, 3))]),  # a vertical segment
        Polytope.from_points([(Fraction(1, 3), Fraction(-1, 2))]),  # a point
    ]
    for delta in deltas:
        answers = set()
        for p in probe_points(rng, delta):
            assert max(c.denominator for c in p) <= 12
            got = delta.contains(p)
            assert got == contains_by_cross_products(delta, p), (delta, p)
            answers.add(got)
        assert answers == {True, False}


def test_pieces_are_essential():
    # a dominated piece never survives construction
    g = pl(((0,), 0), ((1,), 0), ((Fraction(1, 2),), 1))
    assert len(g.pieces) == 2


def test_float_inputs_rejected():
    with pytest.raises(TypeError):
        AffineFunctional.make((0.5,), 0)


def test_as_fraction_returns_fractions_as_they_are():
    q = Fraction(-13, 24)
    assert as_fraction(q) is q
    for x, want in ((3, Fraction(3)), ("-13/24", q), (True, Fraction(1))):
        assert type(as_fraction(x)) is Fraction and as_fraction(x) == want
    for x in (0.5, -0.0, float("nan"), float("inf")):
        with pytest.raises(TypeError):
            as_fraction(x)


def test_measure_scale_matches_from_atoms(rng):
    # scale keeps the sorted atoms and multiplies their masses; from_atoms
    # builds the same measure from scratch
    for _ in range(50):
        dim = rng.choice([1, 2])
        atoms = [(tuple(rnd_frac(rng) for _ in range(dim)), rnd_frac(rng))
                 for _ in range(rng.randint(0, 6))]
        mu = DiscreteMeasure.from_atoms(atoms)
        for c in (0, 1, -1, Fraction(-3, 7), rnd_frac(rng), 10**30):
            want = DiscreteMeasure.from_atoms([(p, c * m) for p, m in mu.atoms])
            assert mu.scale(c) == want
    assert DiscreteMeasure.from_atoms([((1,), 2)]).scale(0).atoms == ()


GEOMETRY_INPUT_ERRORS = {
    "no points": (lambda: Polytope.from_points([]), ValueError, "polytope needs at least one point"),
    "mixed dimensions": (lambda: Polytope.from_points([(0, 0), (1,)]), DimensionError,
                         "points of mixed dimension"),
    "a 3-D point": (lambda: Polytope.from_points([(0, 0, 0)]), DimensionError,
                    "ambient dimension 3 not supported (use 1 or 2)"),
    "contains in another dimension": (lambda: unit_square().contains((0,)), DimensionError,
                                      "point/polytope dimension mismatch"),
    "dilate by 0": (lambda: unit_square().dilate(0), ValueError, "dilation factor must be positive"),
    "no pieces": (lambda: PLConvexFunction.from_pieces([]), ValueError, "need at least one affine piece"),
    "sum across dimensions": (lambda: support_function(interval()) + support_function(unit_square()),
                              DimensionError, "dimension mismatch in sum"),
    "no samples": (lambda: convex_envelope([], unit_square()), ValueError, "empty sample set"),
    "value in another dimension": (lambda: AffineFunctional.make((1, 2), 0).value((3,)),
                                   DimensionError, "argument dimension mismatch"),
}


@pytest.mark.parametrize("case", list(GEOMETRY_INPUT_ERRORS))
def test_geometry_input_errors(case):
    call, error, message = GEOMETRY_INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_discrete_measure_mass_at():
    mu = DiscreteMeasure.from_atoms([((Fraction(1, 2), 0), Fraction(2, 3)), ((1, 1), 1)])
    assert mu.mass_at(("1/2", 0)) == Fraction(2, 3) and mu.mass_at((1, 1)) == 1
    assert mu.mass_at((0, 0)) == 0


def _random_atoms(rng, dim):
    """Up to six atoms on a coarse grid, so that points repeat, spelled
    with unreduced denominators, with zero and negative masses."""
    return [(tuple(Fraction(rng.randint(-6, 6) * r, 2 * r) for _ in range(dim)),
             Fraction(rng.randint(-3, 3), rng.choice((1, 2, 6))))
            for r in [rng.randint(1, 3) for _ in range(rng.randint(0, 6))]]


def test_measure_integer_form_against_fractions(rng):
    # DiscreteMeasure is its canonical integer form: its atoms, scaling,
    # sum, difference, total mass and positivity equal those of the
    # Fraction measure that from_atoms built, and equal measures hold
    # equal forms
    for _ in range(300):
        dim = rng.choice((1, 2))
        a1, a2 = _random_atoms(rng, dim), _random_atoms(rng, dim)
        mu, nu = DiscreteMeasure.from_atoms(a1), DiscreteMeasure.from_atoms(a2)
        want = fraction_atoms(a1)
        assert mu.atoms == want and mu.total_mass() == sum(m for _, m in want)
        assert mu.is_positive() == all(m > 0 for _, m in want)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        assert mu.scale(c).atoms == fraction_atoms([(p, c * m) for p, m in a1])
        assert (mu + nu).atoms == fraction_atoms(a1 + a2)
        assert (mu - nu).atoms == fraction_atoms(a1 + [(p, -m) for p, m in a2])
        again = DiscreteMeasure.from_atoms(reversed(mu.atoms))
        assert again == mu and hash(again) == hash(mu) and again.integer_form == mu.integer_form
    V, A, M, Dm = DiscreteMeasure.from_atoms([(("2/4", 1), "-2/6"), ((0, "1/3"), 1)]).integer_form
    assert (V, A, M, Dm) == (((0, 2), (3, 6)), 6, (3, -1), 3)


def test_measure_constructor_and_dimensions():
    with pytest.raises(TypeError, match="integer form"):
        DiscreteMeasure(((Fraction(1),), Fraction(1)))
    for atoms in ([((1,), 1), ((1, 2), 0)], [((1,), 1), ((1, 2), 1)]):
        with pytest.raises(DimensionError, match="atoms of mixed dimension"):
            DiscreteMeasure.from_atoms(atoms)
    with pytest.raises(DimensionError, match="atoms of mixed dimension"):
        DiscreteMeasure.from_atoms([((1,), 1)]) + DiscreteMeasure.from_atoms([((1, 2), 1)])


def _plain(rng):
    """A random admissible function with no walk handed to it, so that it
    pickles: a walk handed over is a closure."""
    return PLConvexFunction._of_form(random_admissible(rng, rng.choice(ACCEPTANCE_POLYTOPES)).integer_form)


def _solve_report(rng):
    g = _plain(rng)
    nu = DiscreteMeasure.from_atoms([(breakpoints(g)[0], rnd_frac(rng))])
    return SolveReport(g, residual(g, nu), residual(g, nu), rng.randint(0, 2), rng.random() < 0.5)


def _toric_ma_result(rng):
    delta = rng.choice(ACCEPTANCE_POLYTOPES)
    return ma_measure(random_admissible(rng, delta), delta)


def _maybe_walked(rng):
    """A random admissible function, with its walk handed over or not."""
    g = random_admissible(rng, rng.choice(ACCEPTANCE_POLYTOPES), extra=1)
    return g if rng.random() < 0.5 else PLConvexFunction._of_form(g.integer_form)


HIDDEN = ("_diagram", object, dataclasses.field(default=None, compare=False, repr=False))

# each record class: a seeded draw built by the library, and the fields of
# its dataclass twin
RECORDS = {
    Polytope: (lambda rng: Polytope.from_points(
        [(rng.randint(0, 2), rng.randint(0, 1)) for _ in range(rng.randint(1, 4))]), ["integer_ring"]),
    AffineFunctional: (lambda rng: AffineFunctional.make(
        (rng.randint(0, 1),), rnd_frac(rng, 1, 0, 1)), ["slope", "intercept"]),
    PLConvexFunction: (_maybe_walked, ["integer_form", HIDDEN]),
    DiscreteMeasure: (lambda rng: DiscreteMeasure.from_atoms(
        [((rng.randint(0, 1),), rng.randint(-1, 1)) for _ in range(rng.randint(0, 2))]),
        ["integer_form"]),
    MetricGraph: (lambda rng: random_graph(rng, 1), ["vertex_ids", "edges"]),
    GraphPLFunction: (lambda rng: random_graph_function(rng, random_graph(rng, 0)),
                      ["edge_values"]),
    GraphMeasure: (lambda rng: random_positive_measure(rng, random_graph(rng, 0), Fraction(1)),
                   ["atoms"]),
    MonomialPoint: (lambda rng: MonomialPoint((rnd_frac(rng, 1, 0, 1),)), ["v"]),
    ToricMAResult: (_toric_ma_result, ["measure_NR", "degree"]),
    SolveReport: (_solve_report,
                  ["solution", "residual", "polished_residual", "iterations", "converged"]),
    PiecewiseLinear1D: (lambda rng: PiecewiseLinear1D.build(
        [(v, rng.randint(0, 1)) for v in range(rng.randint(1, 2))], rng.randint(-1, 0),
        rng.randint(0, 1)), ["points", "left_slope", "right_slope"]),
    MinOfConvex: (lambda rng: MinOfConvex.build([_plain(rng) for _ in range(rng.randint(1, 2))]),
                  ["parts"]),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_against_its_dataclass_twin(cls):
    # each record behaves as the frozen dataclass of its fields that it
    # replaced: positional and keyword construction, ==, hash and repr,
    # the errors of assignment and deletion, and a pickle round trip.  The
    # draw of each seed is built twice, so equal records are distinct
    # objects too
    draw, fields = RECORDS[cls]
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    names = [f if isinstance(f, str) else f[0] for f in fields]
    records = [draw(random.Random(seed)) for seed in range(10) for _ in range(2)]
    twins = [twin(*(getattr(r, n) for n in names)) for r in records]
    for r, t in zip(records, twins):
        values = [getattr(r, n) for n in names]
        assert type(r) is cls and cls(*values) == r == cls(**dict(zip(names, values)))
        assert (repr(r), hash(r)) == (repr(t), hash(t))
        for name in names:
            messages = []
            for obj in (r, t):
                for change in (lambda: setattr(obj, name, None), lambda: delattr(obj, name)):
                    with pytest.raises(AttributeError) as error:
                        change()
                    messages.append(str(error.value))
            assert messages[:2] == messages[2:]
        if getattr(r, "_diagram", None) is None:  # a walk handed over does not pickle
            back = pickle.loads(pickle.dumps(r))
            assert type(back) is cls and back == r and (repr(back), hash(back)) == (repr(t), hash(t))
    pairs = list(itertools.product(zip(records, twins), repeat=2))
    for (r1, t1), (r2, t2) in pairs:
        assert (r1 == r2, r1 != r2) == (t1 == t2, t1 != t2)
    assert any(r1 is not r2 and r1 == r2 for (r1, _), (r2, _) in pairs)
    assert any(r1 != r2 for (r1, _), (r2, _) in pairs)
