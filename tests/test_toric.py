import itertools
import random
from fractions import Fraction

import pytest

from plma.geometry import (
    AffineFunctional,
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    is_admissible,
    subdifferential,
    support_function,
)
from plma.solver import solve_toric
from plma.toric import (
    AdmissibilityError,
    DegeneratePolytopeError,
    degree,
    ma_measure,
    mixed_ma,
    point_mass_solution,
    real_measure,
)
from plma.variational import (
    MinOfConvex,
    energy_toric,
    envelope_toric,
    orthogonality_defect_toric,
)

from conftest import (
    ACCEPTANCE_POLYTOPES,
    hexagon,
    interval,
    random_admissible,
    rnd_frac,
    simplex2,
    unit_square,
)


def pl(*pieces):
    return PLConvexFunction.from_pieces([AffineFunctional.make(s, c) for s, c in pieces])


def test_ma_interval_support_function():
    res = ma_measure(support_function(interval()), interval())
    assert res.measure_NR.atoms == (((Fraction(0),), Fraction(1)),)
    assert res.measure_an[0][1] == 1 and res.degree == 1


def test_ma_simplex_support_function():
    res = ma_measure(support_function(simplex2()), simplex2())
    assert res.measure_NR.atoms == (((Fraction(0), Fraction(0)), Fraction(1, 2)),)
    # Berkovich mass 2! * 1/2 = 1 = (L^2) for (P^2, O(1))
    assert res.measure_an[0][1] == 1


def brute_force_total_mass(g):
    # independent oracle: scan all pair-intersection candidates, sum volumes
    seen = set()
    total = Fraction(0)
    pieces = list(g.pieces)
    for i, j in itertools.combinations(range(len(pieces)), 2):
        a, b = pieces[i], pieces[j]
        d = tuple(x - y for x, y in zip(a.slope, b.slope))
        for k in (x for x in range(len(pieces)) if x not in (i, j)):
            c = pieces[k]
            # solve a=b, a=c in 2-D
            e = tuple(x - y for x, y in zip(a.slope, c.slope))
            det = d[0] * e[1] - d[1] * e[0]
            if det == 0:
                continue
            r1 = a.intercept - b.intercept
            r2 = a.intercept - c.intercept
            v = ((r1 * e[1] - r2 * d[1]) / det, (d[0] * r2 - e[0] * r1) / det)
            if v in seen or g(v) != a.slope[0] * v[0] + a.slope[1] * v[1] - a.intercept:
                continue
            seen.add(v)
            total += subdifferential(g, v).volume()
    return total


def test_ma_square_four_pieces_oracle():
    delta = unit_square()
    g = pl(((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), 1))
    res = ma_measure(g, delta)
    assert res.measure_NR.total_mass() == 1
    assert brute_force_total_mass(g) == 1


def test_point_mass_solution_examples():
    d = interval()
    g = point_mass_solution(d, (2,))
    assert g((0,)) == 0 and g((3,)) == 1
    assert ma_measure(g, d).measure_NR.atoms == (((Fraction(2),), Fraction(1)),)

    assert point_mass_solution(d, (0,)) == support_function(d)

    v0 = (Fraction(1, 3), Fraction(1, 4))
    res = ma_measure(point_mass_solution(simplex2(), v0), simplex2())
    assert res.measure_NR.atoms == ((v0, Fraction(1, 2)),)


def test_point_mass_degenerate_polytope():
    seg = Polytope.from_points([(0, 0), (1, 1)])
    with pytest.raises(DegeneratePolytopeError):
        point_mass_solution(seg, (0, 0))


def test_mixed_ma_diagonal(rng):
    for delta in (interval(), unit_square(), simplex2()):
        g = random_admissible(rng, delta)
        mm = mixed_ma([g] * delta.dim, delta)
        assert mm == ma_measure(g, delta).measure_NR


def test_mixed_ma_length_mismatch():
    with pytest.raises(DimensionError):
        mixed_ma([support_function(unit_square())], unit_square())


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    return Polytope.from_points(
        [tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices]
    )


def mixed_volume2(p, q):
    return (
        minkowski_sum(p, q).volume() - p.volume() - q.volume()
    ) / 2


def test_mixed_ma_against_mixed_volumes(rng):
    # each atom of the mixed measure is the mixed volume of the two
    # subdifferentials at that point
    for delta in (unit_square(), simplex2()):
        for _ in range(5):
            g1 = random_admissible(rng, delta)
            g2 = random_admissible(rng, delta)
            mm = mixed_ma([g1, g2], delta)
            assert mm.is_positive() and mm.total_mass() == delta.volume()
            for p, mass in mm.atoms:
                assert mass == mixed_volume2(subdifferential(g1, p), subdifferential(g2, p))


def test_mixed_ma_simplex_point_mass_pair():
    delta = simplex2()
    g1 = support_function(delta)
    g2 = point_mass_solution(delta, (Fraction(1, 3), Fraction(1, 4)))
    mm = mixed_ma([g1, g2], delta)
    assert mm.is_positive() and mm.total_mass() == Fraction(1, 2)


def test_mass_identity_random(rng):
    for delta in ACCEPTANCE_POLYTOPES:
        for _ in range(8):
            g = random_admissible(rng, delta)
            res = ma_measure(g, delta)
            assert res.measure_NR.total_mass() == delta.volume()


def test_translation_equivariance(rng):
    delta = unit_square()
    g = random_admissible(rng, delta)
    t = (rnd_frac(rng), rnd_frac(rng))
    shifted = g.translate(t)
    a = ma_measure(g, delta).measure_NR
    b = ma_measure(shifted, delta).measure_NR
    assert b == DiscreteMeasure.from_atoms(
        [(tuple(x + y for x, y in zip(p, t)), m) for p, m in a.atoms]
    )


def test_constant_shift_invariance(rng):
    delta = hexagon()
    g = random_admissible(rng, delta)
    assert ma_measure(g.shift(Fraction(7, 3)), delta).measure_NR == ma_measure(g, delta).measure_NR


def test_single_slope_points_carry_no_mass(rng):
    g = random_admissible(rng, unit_square())
    nr = ma_measure(g, unit_square()).measure_NR
    locs = {p for p, _ in nr.atoms}
    for _ in range(20):
        v = (rnd_frac(rng, den=7, lo=-3, hi=3), rnd_frac(rng, den=7, lo=-3, hi=3))
        if len(g.active_pieces(v)) == 1:
            assert v not in locs


def test_binomial_expansion_2d(rng):
    # MA(g+h) over 2*delta = MA(g) + 2*mixed(g,h) + MA(h)
    delta = unit_square()
    g = random_admissible(rng, delta)
    h = random_admissible(rng, delta)
    lhs = real_measure(g + h)
    rhs = (
        ma_measure(g, delta).measure_NR
        + mixed_ma([g, h], delta).scale(2)
        + ma_measure(h, delta).measure_NR
    )
    assert lhs == rhs


def test_linearity_1d(rng):
    delta = interval()
    for _ in range(10):
        g1 = random_admissible(rng, delta)
        g2 = random_admissible(rng, delta)
        lhs = real_measure(g1 + g2)
        rhs = ma_measure(g1, delta).measure_NR + ma_measure(g2, delta).measure_NR
        assert lhs == rhs


def test_admissibility_errors():
    d = interval()
    with pytest.raises(AdmissibilityError):
        ma_measure(pl(((Fraction(1, 2),), 0)), d)
    with pytest.raises(AdmissibilityError):
        mixed_ma([pl(((Fraction(1, 2),), 0))], d)


def test_degree():
    assert degree(interval()) == 1
    assert degree(simplex2()) == 1
    assert degree(unit_square()) == 2
    assert degree(hexagon()) == 6


# SL2(Z)'s generators S and T, their inverses, and the reflection of det -1
GL2Z_GENERATORS = (((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)),
                   ((1, 0), (0, -1)))


def _apply(M, v):
    return tuple(r[0] * v[0] + r[1] * v[1] for r in M)


def _gl2z_word(rng):
    """The product of a seeded word of length at most 6 in the generators."""
    A = ((1, 0), (0, 1))
    for _ in range(rng.randint(0, 6)):
        B = rng.choice(GL2Z_GENERATORS)
        A = tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return A


class Transport:
    """x -> A x + b on the domain, A in GL2(Z), with c added to every
    function: g'(x) = g(A^-1 (x - b)) + c has the slopes A^-T s_i, in
    delta' = A^-T delta, and MA(g') = (A x + b)_* MA(g), with equal masses
    because |det A| = 1."""

    def __init__(self, A, b, c):
        (a00, a01), (a10, a11) = A
        det = a00 * a11 - a01 * a10  # +-1, its own inverse
        self.A, self.b, self.c, self.det = A, b, c, det
        self.M = ((a11 * det, -a10 * det), (-a01 * det, a00 * det))  # A^-T

    def polytope(self, delta):
        return Polytope.from_points([_apply(self.M, v) for v in delta.vertices])

    def function(self, g):
        pieces = [AffineFunctional(_apply(self.M, p.slope), p.intercept) for p in g.pieces]
        return PLConvexFunction.from_pieces(pieces).translate(self.b).shift(self.c)

    def obstacle(self, psi):
        return MinOfConvex.build([self.function(g) for g in psi.parts])

    def measure(self, nu):
        return DiscreteMeasure.from_atoms(
            [(tuple(x + y for x, y in zip(_apply(self.A, p), self.b)), m) for p, m in nu.atoms])


def test_gl2z_equivariance():
    # every toric output is exact, so the GL2(Z) symmetry of the problem is
    # a set of equalities: MA(g') is the push-forward of MA(g), energies are
    # equal, envelope and orthogonality commute with the transport of a
    # min-of-two obstacle, and the solve of the pushed measure over delta'
    # is the transported solution, up to a constant; det -1 reverses every
    # ring and moves the lex-first vertex and the walk's start
    rng = random.Random("toric/gl2z")
    reflections = solved = 0
    for _ in range(40):
        delta = rng.choice(ACCEPTANCE_POLYTOPES[1:])
        T = Transport(_gl2z_word(rng), (rnd_frac(rng, 5), rnd_frac(rng, 7)), rnd_frac(rng, 4))
        reflections += T.det == -1
        moved = T.polytope(delta)
        assert moved.volume() == delta.volume()
        g, g0 = random_admissible(rng, delta), random_admissible(rng, delta)
        nu = ma_measure(g, delta).measure_NR
        assert is_admissible(T.function(g), moved)
        assert ma_measure(T.function(g), moved).measure_NR == T.measure(nu)
        assert energy_toric(T.function(g), T.function(g0), moved) == energy_toric(g, g0, delta)
        psi = MinOfConvex.build([random_admissible(rng, delta).translate((rnd_frac(rng, 3), 0)),
                                 random_admissible(rng, delta)])
        assert envelope_toric(T.obstacle(psi), moved) == T.function(envelope_toric(psi, delta))
        assert (orthogonality_defect_toric(T.obstacle(psi), moved)
                == orthogonality_defect_toric(psi, delta))
        rep, moved_rep = solve_toric(delta, nu), solve_toric(moved, T.measure(nu))
        want = T.function(rep.solution)
        assert moved_rep.solution == want.shift(moved_rep.solution((0, 0)) - want((0, 0)))
        solved += all(e == 0 for _, e in moved_rep.residual)
    assert reflections > 8 and solved == 40
