"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import random
import time
from fractions import Fraction
from math import factorial

from plma.curves import (
    GraphMeasure,
    GraphPLFunction,
    MetricGraph,
    canonical_metric,
    green_value,
    laplacian,
    ma_curve,
    solve_poisson,
    superpose,
    vertex_key,
)
from plma.geometry import DiscreteMeasure, breakpoints, support_function
from plma.solver import solve_curve, solve_toric
from plma.toric import ma_measure, point_mass_solution, real_measure
from plma.variational import (
    MinOfConvex,
    PiecewiseLinear1D,
    energy_curve,
    energy_toric,
    energy_of_envelope_derivative,
    envelope_subharmonic,
    envelope_toric,
    f_mu_curve,
    f_mu_toric,
    orthogonality_defect,
)

from conftest import (
    ACCEPTANCE_POLYTOPES,
    arc_masses,
    bump_1d,
    difference_quotients,
    differentiability_instances,
    envelope_energy,
    interval,
    polarization_energy,
    random_admissible,
    random_graph,
    random_graph_point,
    random_graph_function,
    random_positive_measure,
    rnd_frac,
    simplex2,
    unit_square,
)


def run_criterion(number, label, limit_seconds, body):
    start = time.monotonic()
    try:
        body()
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < limit_seconds
    print(
        f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}"
        f" ({elapsed:.2f}s, limit {limit_seconds}s)"
    )
    assert ok, f"criterion {number} exceeded the {limit_seconds}s budget"


def test_criterion_1_mass_identity():
    rng = random.Random(101)

    def body():
        for delta in ACCEPTANCE_POLYTOPES:
            n = delta.dim
            vol = delta.volume()
            for _ in range(50):
                g = random_admissible(rng, delta)
                res = ma_measure(g, delta)
                assert res.measure_NR.total_mass() == vol
                assert sum(m for _, m in res.measure_an) == factorial(n) * vol

    run_criterion(1, "toric mass identity, 50 functions per polytope", 10, body)


def test_criterion_2_point_mass():
    rng = random.Random(102)

    def body():
        for delta in ACCEPTANCE_POLYTOPES:
            vol = delta.volume()
            for _ in range(20):
                v0 = tuple(rnd_frac(rng, den=7, lo=-1, hi=1) for _ in range(delta.dim))
                g = point_mass_solution(delta, v0)
                want = DiscreteMeasure.from_atoms([(v0, vol)])
                assert ma_measure(g, delta).measure_NR == want

    run_criterion(2, "point-mass solution, 20 random targets per polytope", 5, body)


def random_target(rng, delta, max_atoms=12):
    """A random admissible g and its real Monge-Ampere measure."""
    extra = 4
    while True:
        g = random_admissible(rng, delta, extra=extra)
        nu = ma_measure(g, delta).measure_NR
        if len(nu.atoms) <= max_atoms:
            return g, nu
        extra -= 1


def test_criterion_3_solver_roundtrip():
    rng = random.Random(103)

    def body():
        for delta in ACCEPTANCE_POLYTOPES:
            vol = float(delta.volume())
            for i in range(25):
                g, nu = random_target(rng, delta)
                rep = solve_toric(delta, nu)
                assert rep.converged
                assert max(abs(float(e)) for _, e in rep.residual) <= 1e-10 * vol
                assert all(isinstance(e, Fraction) for _, e in rep.polished_residual)
                if delta.dim == 1:
                    assert all(e == 0 for _, e in rep.residual)
                # uniqueness: the solution is g up to an additive constant
                assert len({g(v) - rep.solution(v) for v in delta.vertices}) == 1
                if i < 3:
                    # discarded draws; they keep the stream of targets fixed
                    for _ in nu.atoms:
                        rnd_frac(rng)

    run_criterion(3, "solver round-trip and uniqueness, 25 instances per polytope", 60, body)


def test_criterion_4_orthogonality():
    rng = random.Random(104)

    def body():
        seg, square = interval(), unit_square()
        for i in range(50):
            delta = seg if i % 2 == 0 else square
            psi = MinOfConvex(
                (random_admissible(rng, delta), random_admissible(rng, delta))
            )
            assert orthogonality_defect(psi, delta) == 0
        for _ in range(50):
            g = random_graph(rng)
            om = random_positive_measure(rng, g, Fraction(2))
            base = superpose(g, random_positive_measure(rng, g, Fraction(2)), om)
            dent = random_positive_measure(rng, g, Fraction(1))
            psi = base + superpose(g, dent.scale(2), om).scale(Fraction(-1, 2))
            assert orthogonality_defect(psi, (g, om)) == 0

    run_criterion(4, "orthogonality defect exactly zero, 50 toric + 50 curve", 30, body)


def test_criterion_5_envelope_differentiability():
    # both one-sided derivatives of E(P(phi + t f)) at 0, each exact on its
    # first chamber, equal the pairing of f with MA(phi); the central
    # quotients of the old grid (conftest) stay within C t of it
    rng = random.Random(105)

    def body():
        for phi, f, context, C in differentiability_instances(rng):
            exact, fd = energy_of_envelope_derivative(phi, f, context)
            assert [q for _, q in fd] == [exact, exact]
            for t, q in difference_quotients(envelope_energy(phi, f, context)):
                assert abs(q - exact) <= C * t

    run_criterion(5, "E(P(phi + t f)) has the MA pairing as exact derivative on both sides, "
                     "first-order quotients, 20 instances", 30, body)


def test_criterion_6_poisson_green():
    rng = random.Random(106)

    def body():
        for _ in range(50):
            g = random_graph(rng)
            mu = random_positive_measure(rng, g, Fraction(2))
            om = random_positive_measure(rng, g, Fraction(2))
            rho = mu - om
            f = solve_poisson(g, rho, random_graph_point(rng, g))
            assert laplacian(f, g) == rho
        for _ in range(20):
            g = random_graph(rng)
            om = random_positive_measure(rng, g, Fraction(1))
            x = random_graph_point(rng, g)
            y = random_graph_point(rng, g)
            assert green_value(g, x, y, om) == green_value(g, y, x, om)

    run_criterion(6, "Poisson round-trip (50 graphs) and Green symmetry (20)", 10, body)


def test_criterion_7_energy_cocycle():
    rng = random.Random(107)

    def body():
        polytopes = (interval(), simplex2())
        for i in range(30):
            delta = polytopes[i % len(polytopes)]
            g = random_admissible(rng, delta)
            h = random_admissible(rng, delta)
            k = random_admissible(rng, delta)
            assert energy_toric(g, h, delta) == -energy_toric(h, g, delta)
            lhs = energy_toric(g, k, delta)
            rhs = energy_toric(g, h, delta) + energy_toric(h, k, delta)
            assert lhs == rhs
            assert -lhs == energy_toric(k, h, delta) + energy_toric(h, g, delta)
            for a, b in ((g, h), (h, k), (g, k)):
                assert energy_toric(a, b, delta) == polarization_energy(a, b, delta)

    run_criterion(
        7, "energy antisymmetry, cocycle identity and polarization oracle, 30 triples", 10, body
    )


def test_criterion_8_canonical_dynamics():
    def body():
        _, measure = canonical_metric(2, 6)
        d_l = measure.total_mass()
        target = d_l * Fraction(1, 64)
        for m in arc_masses(measure, 64):
            assert abs(m - target) <= Fraction(1, 20) * target
        prev = None
        for k in range(1, 9):
            _, mk = canonical_metric(2, k)
            disc = max(abs(m - d_l * Fraction(1, 8)) for m in arc_masses(mk, 8))
            if prev is not None:
                assert disc <= prev
            prev = disc

    run_criterion(8, "canonical measure equidistributes on dyadic arcs", 10, body)


def test_criterion_9_linearity_1d():
    rng = random.Random(109)

    def body():
        seg = interval()
        for _ in range(30):
            g1 = random_admissible(rng, seg)
            g2 = random_admissible(rng, seg)
            lhs = real_measure(g1 + g2)
            rhs = ma_measure(g1, seg).measure_NR + ma_measure(g2, seg).measure_NR
            assert lhs == rhs
        for _ in range(30):
            g = random_graph(rng)
            om = random_positive_measure(rng, g, Fraction(2))
            f1 = superpose(g, random_positive_measure(rng, g, Fraction(2)), om)
            f2 = superpose(g, random_positive_measure(rng, g, Fraction(2)), om)
            lhs = ma_curve(f1 + f2, g, om.scale(2))
            rhs = ma_curve(f1, g, om) + ma_curve(f2, g, om)
            assert lhs == rhs

    run_criterion(9, "one-dimensional MA linearity, 30 pairs per context", 5, body)


def _segment_instance(rng, translated):
    """Delta = [a, b] and a shift c inside it with a - c < 0 < b - c: c = 0
    when 0 lies inside delta, and delta misses 0 in the translated case."""
    if translated:
        a = rnd_frac(rng, den=3, lo=1, hi=4)
        b = a + Fraction(rng.randint(1, 12), rng.randint(1, 4))
        if rng.random() < 0.5:
            a, b = -b, -a
        return interval(a, b), a + (b - a) * Fraction(rng.randint(1, 5), 6)
    a = -Fraction(rng.randint(1, 12), rng.randint(1, 4))
    return interval(a, Fraction(rng.randint(1, 12), rng.randint(1, 4))), Fraction(0)


def test_criterion_10_toric_interval_is_curve_on_a_segment():
    # On delta = [a, b] with a < 0 < b, a convex g with slopes in delta is,
    # on a segment [L, R] holding every breakpoint, an omega0-subharmonic
    # function for omega0 = -a delta_L + b delta_R; the two models share no
    # arithmetic, so each checks the other.  Translated: g -> g - c x
    # carries delta to delta - c.
    rng = random.Random(110)

    def body():
        for i in range(200):
            # i % 4: 0 and 1 contain 0, 2 and 3 are translated; odd i also
            # check the envelope, orthogonality and the solve
            delta, c = _segment_instance(rng, translated=i % 4 >= 2)
            a, b = delta.vertices[0][0] - c, delta.vertices[-1][0] - c
            g = random_admissible(rng, delta)
            h = support_function(delta)
            height = rnd_frac(rng)
            psi = PiecewiseLinear1D.from_convex(g) + bump_1d(rnd_frac(rng), Fraction(1), height)
            weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            nu = DiscreteMeasure.from_atoms(
                [((rnd_frac(rng),), (b - a) * w / sum(weights)) for w in weights])
            ts = {Fraction(0), *(v[0] for v in breakpoints(g)), *(v for v, _ in psi.points),
                  *(p[0] for p, _ in nu.atoms)}
            L, R = min(ts) - rng.randint(0, 1), max(ts) + rng.randint(0, 1)
            graph = MetricGraph.build([0, 1], [(0, 1, R - L)])
            omega0 = GraphMeasure.from_atoms(graph, [(vertex_key(0), -a), (vertex_key(1), b)])

            def key(t):
                return graph.point_key(("e", 0, t - L))

            def on_segment(u, nodes):
                nodes = sorted({L, R} | {t for t in nodes if L < t < R})
                return GraphPLFunction.build(graph, [[(t - L, u(t) - c * t) for t in nodes]])

            def agree(u, f, nodes):
                # u - c x and f on [L, R], at every breakpoint of either
                nodes = {L, R} | set(nodes) | {L + o for o, _ in f.edge_values[0]}
                return {u(t) - c * t - f.eval(graph, key(t)) for t in nodes}

            f = on_segment(lambda t: g((t,)), [v[0] for v in breakpoints(g)])
            want = GraphMeasure.from_atoms(
                graph, [(key(p[0]), m) for p, m in ma_measure(g, delta).measure_NR.atoms])
            assert ma_curve(f, graph, omega0) == want
            f0 = on_segment(lambda t: h((t,)), [v[0] for v in breakpoints(h)])
            assert energy_toric(g, h, delta) == (
                energy_curve(f, graph, omega0) - energy_curve(f0, graph, omega0))
            if i % 2 == 0:
                continue
            obstacle = on_segment(psi, [v for v, _ in psi.points])
            env = envelope_toric(psi, delta)
            curve_env = envelope_subharmonic(obstacle, graph, omega0)
            assert agree(lambda t: env((t,)), curve_env, [v[0] for v in breakpoints(env)]) == {0}
            assert orthogonality_defect(psi, delta) == 0
            assert orthogonality_defect(obstacle, (graph, omega0)) == 0
            solution = solve_toric(delta, nu).solution
            phi = solve_curve(
                graph, GraphMeasure.from_atoms(graph, [(key(p[0]), m) for p, m in nu.atoms]),
                omega0)
            assert len(agree(lambda t: solution((t,)), phi, [p[0] for p, _ in nu.atoms])) == 1

    run_criterion(10, "1-D toric model equals the curve model on a segment, 200 instances", 5, body)


def test_criterion_11_variational_principle():
    # The solution phi of MA(phi) = mu maximizes F_mu = E o P - the mu
    # pairing: F_mu(P(phi + t f)) <= F_mu(phi) exactly at rational t of
    # both signs, and both one-sided derivatives of t -> F_mu(P(phi + t f))
    # at 0, the exact ones of E(P(phi + t f)) less the pairing of f with
    # mu, vanish.  Curve: solve_curve on random graphs; 1-D toric: exact
    # solves on intervals, half of them translated off 0
    rng = random.Random(111)
    ts = (Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2, 7))

    def body():
        below = 0
        for _ in range(20):
            g = random_graph(rng)
            om = random_positive_measure(rng, g, Fraction(2))
            mu = random_positive_measure(rng, g, Fraction(2))
            phi = solve_curve(g, mu, om)
            f = random_graph_function(rng, g)
            best = f_mu_curve(phi, mu, g, om)
            for t in ts:
                value = f_mu_curve(envelope_subharmonic(phi + f.scale(t), g, om), mu, g, om)
                assert value <= best
                below += value < best
            _, fd = energy_of_envelope_derivative(phi, f, (g, om))
            assert [d - mu.integrate(g, f) for _, d in fd] == [0, 0]
        for i in range(20):
            delta, _ = _segment_instance(rng, translated=i % 2 == 1)
            (a,), (b,) = delta.vertices[0], delta.vertices[-1]
            weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            mu = DiscreteMeasure.from_atoms(
                [((rnd_frac(rng),), (b - a) * w / sum(weights)) for w in weights])
            report = solve_toric(delta, mu)
            assert all(e == 0 for _, e in report.residual)
            phi, g0 = report.solution, support_function(delta)
            f = bump_1d(rnd_frac(rng), Fraction(1), rnd_frac(rng))
            best = f_mu_toric(phi, mu, g0, delta)
            base = PiecewiseLinear1D.from_convex(phi)
            for t in ts:
                value = f_mu_toric(envelope_toric(base + f.scale(t), delta), mu, g0, delta)
                assert value <= best
                below += value < best
            _, fd = energy_of_envelope_derivative(phi, f, delta)
            assert [d - mu.integrate(f) for _, d in fd] == [0, 0]
        assert below > 120  # of 160: most perturbations lose strictly

    run_criterion(11, "F_mu(P(phi + t f)) <= F_mu(phi) and zero one-sided derivatives at the "
                      "solution, 20 curve + 20 1-D toric instances", 30, body)
