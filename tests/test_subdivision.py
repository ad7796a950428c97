"""The subdivision kernel against the triple-enumeration reference.

The oracles below are the brute-force routines the kernel replaced: every
triple of pieces (every pair in 1-D) is solved for its tie point and kept
when it is a vertex, every tie line is cut with every edge of the polytope,
and essential pieces come from Fourier-Motzkin feasibility, as do the
pieces of a sum: a pair of pieces is kept when both are strictly active at
once.  They take O(k^4) exact operations, so the cases stay small except
for a few lattice paraboloids.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from plma.geometry import (
    AffineFunctional,
    PLConvexFunction,
    Polytope,
    breakpoints,
    cell_moment,
    cell_volume,
    convex_envelope,
    cross2,
    dot,
    dual_transform,
    subdifferential,
    subdivision,
    vadd,
    vscale,
    vsub,
)
from plma.toric import ma_measure

from conftest import (
    ACCEPTANCE_POLYTOPES,
    lattice_paraboloid,
    random_admissible,
    unit_square,
    unpruned,
)


# ---------------------------------------------------------------------------
# reference oracles


def _solve2(a1, b1, a2, b2):
    """Solve the 2x2 system a1.v = b1, a2.v = b2; None if singular."""
    det = cross2(a1, a2)
    if det == 0:
        return None
    return ((b1 * a2[1] - b2 * a1[1]) / det, (a1[0] * b2 - a2[0] * b1) / det)


def _spans(slopes, n):
    """Do the given slopes affinely span R^n?"""
    if n == 1:
        return len(set(slopes)) >= 2
    dirs = [vsub(s, slopes[0]) for s in slopes[1:]]
    return any(cross2(d1, d2) != 0 for d1, d2 in itertools.combinations(dirs, 2))


def _triple_ties(ps):
    for pi, pj, pk in itertools.combinations(ps, 3):
        v = _solve2(vsub(pi.slope, pj.slope), pi.intercept - pj.intercept,
                    vsub(pi.slope, pk.slope), pi.intercept - pk.intercept)
        if v is not None:
            yield pi, v


def oracle_breakpoints(g):
    n = g.dim
    found = set()
    if n == 1:
        for pi, pj in itertools.combinations(g.pieces, 2):
            v = ((pi.intercept - pj.intercept) / (pi.slope[0] - pj.slope[0]),)
            if pi.value(v) == g(v) and _spans([p.slope for p in g.active_pieces(v)], 1):
                found.add(v)
    else:
        for pi, v in _triple_ties(g.pieces):
            if v not in found and pi.value(v) == g(v) and _spans(
                [p.slope for p in g.active_pieces(v)], 2
            ):
                found.add(v)
    return sorted(found)


def oracle_ma_atoms(g, bps):
    """MA atoms of g from its oracle breakpoints: subdifferential volumes."""
    atoms = [(v, subdifferential(g, v).volume()) for v in bps]
    return tuple((v, m) for v, m in atoms if m != 0)


def oracle_dual_transform(F, delta):
    cands = set(delta.vertices)
    ps = F.pieces
    if delta.dim == 1:
        a, b = delta.vertices[0][0], delta.vertices[-1][0]
        for pi, pj in itertools.combinations(ps, 2):
            u = (pi.intercept - pj.intercept) / (pi.slope[0] - pj.slope[0])
            if a <= u <= b and pi.value((u,)) == F((u,)):
                cands.add((u,))
    else:
        for pi, u in _triple_ties(ps):
            if pi.value(u) == F(u) and delta.contains(u):
                cands.add(u)
        ring = delta.ring()
        if len(ring) >= 2:
            edges = list(zip(ring, ring[1:] + ring[:1])) if len(ring) >= 3 else [tuple(ring)]
            for pi, pj in itertools.combinations(ps, 2):
                a_tie, b_tie = vsub(pi.slope, pj.slope), pi.intercept - pj.intercept
                for a, b in edges:
                    d = vsub(b, a)
                    denom = dot(a_tie, d)
                    if denom == 0:
                        continue
                    s = (b_tie - dot(a_tie, a)) / denom
                    if 0 <= s <= 1:
                        u = vadd(a, vscale(s, d))
                        if pi.value(u) == F(u):
                            cands.add(u)
    return unpruned([AffineFunctional(u, F(u)) for u in cands]).pieces


def _strict_feasible(constraints, n: int) -> bool:
    """Exact feasibility of the open system  a . v > b  (Fourier-Motzkin)."""
    if n == 1:
        lows, highs = [], []
        for a, b in constraints:
            if a[0] > 0:
                lows.append(b / a[0])
            elif a[0] < 0:
                highs.append(b / a[0])
            elif b >= 0:
                return False
        if not lows or not highs:
            return True
        return max(lows) < min(highs)
    # n == 2: eliminate the second coordinate.
    lows, highs, ones = [], [], []  # bounds as affine functions c0 + c1*v1
    for a, b in constraints:
        if a[1] > 0:
            lows.append((b / a[1], -a[0] / a[1]))  # v2 > c0 + c1 v1
        elif a[1] < 0:
            highs.append((b / a[1], -a[0] / a[1]))  # v2 < c0 + c1 v1
        else:
            ones.append(((a[0],), b))
    for (l0, l1), (h0, h1) in itertools.product(lows, highs):
        # h0 + h1 v1 > l0 + l1 v1
        ones.append(((h1 - l1,), l0 - h0))
    return _strict_feasible(ones, 1)


def oracle_pruned(pieces):
    """from_pieces with the Fourier-Motzkin essential mask."""
    best = {}
    for p in pieces:
        if p.slope not in best or p.intercept < best[p.slope]:
            best[p.slope] = p.intercept
    ps = [AffineFunctional(s, c) for s, c in best.items()]
    if len(ps) > 1:
        ps = [
            pi for pi in ps
            if _strict_feasible(
                [(vsub(pi.slope, pj.slope), pi.intercept - pj.intercept)
                 for pj in ps if pj is not pi],
                len(pi.slope),
            )
        ]
    return tuple(sorted(ps, key=lambda p: (p.slope, p.intercept)))


def oracle_sum(f, g):
    """f + g from the pairs of pieces that are strictly active together."""
    out = []
    for pi in f.pieces:
        for pj in g.pieces:
            cons = [(vsub(pi.slope, pk.slope), pi.intercept - pk.intercept)
                    for pk in f.pieces if pk is not pi]
            cons += [(vsub(pj.slope, pl.slope), pj.intercept - pl.intercept)
                     for pl in g.pieces if pl is not pj]
            if _strict_feasible(cons, f.dim):
                out.append(AffineFunctional(vadd(pi.slope, pj.slope), pi.intercept + pj.intercept))
    return unpruned(out)


# ---------------------------------------------------------------------------
# inputs


def small_pieces(rng, n):
    """1-12 pieces on a small integer grid; ties and coplanar lifts are common.

    One draw in four puts every slope on a line (collinear slopes)."""
    k = rng.randint(1, 12)
    if n == 1:
        return [AffineFunctional((Fraction(rng.randint(-3, 3)),), Fraction(rng.randint(-2, 2)))
                for _ in range(k)]
    if rng.random() < 0.25:
        base = (rng.randint(-1, 1), rng.randint(-1, 1))
        u = (rng.randint(-2, 2), rng.randint(1, 2))
        slopes = [vadd(base, vscale(rng.randint(-2, 2), u)) for _ in range(k)]
    else:
        slopes = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(k)]
    return [AffineFunctional(tuple(Fraction(c) for c in s), Fraction(rng.randint(-2, 2), 2))
            for s in slopes]


def rational_pieces(rng):
    """1-12 pieces in 2-D with slopes on the 1/den grid of [0, 2]^2 for a
    den of 2 to 6 per draw, so that the slopes have a common denominator
    above 1.  One draw in four puts every slope on a line."""
    k, den = rng.randint(1, 12), rng.randint(2, 6)
    if rng.random() < 0.25:
        base = (rng.randint(0, den), rng.randint(0, den))
        u = (rng.randint(-2, 2), rng.randint(1, 2))
        slopes = [vadd(base, vscale(rng.randint(-2, 2), u)) for _ in range(k)]
    else:
        slopes = [(rng.randint(0, 2 * den), rng.randint(0, 2 * den)) for _ in range(k)]
    return [AffineFunctional((Fraction(s0, den), Fraction(s1, den)),
                             Fraction(rng.randint(-4, 4), 4)) for s0, s1 in slopes]


def fraction_shoelace(ring):
    """The shoelace formula on the rational slopes of a cell."""
    return sum((cross2(a, b) for a, b in zip(ring, ring[1:] + ring[:1])), Fraction(0)) / 2


def fraction_moment(ring):
    """The integral of u du over a polygon: the sum of (p + q) cross(p, q)/6
    over its counterclockwise edges (p, q), on the rational slopes."""
    edges = [(p, q, cross2(p, q)) for p, q in zip(ring, ring[1:] + ring[:1])]
    return tuple(sum(((p[i] + q[i]) * c for p, q, c in edges), Fraction(0)) / 6 for i in (0, 1))


DELTAS_2D = [p for p in ACCEPTANCE_POLYTOPES if p.dim == 2] + [
    Polytope.from_points([(0, 0), (2, 1)]),  # a segment
]
DELTAS_1D = [p for p in ACCEPTANCE_POLYTOPES if p.dim == 1] + [
    Polytope.from_points([(-1,), (Fraction(5, 2),)]),
]


def check_edges(g):
    """The edge pairs of a 2-D subdivision: consecutive pieces of the cell
    rings when the slopes span the plane, else consecutive essential pieces
    along the slope line, which are all the pieces pruning keeps."""
    cells, edges = subdivision(g.pieces)
    if _spans(g.slopes, 2):
        rings = {(r[i], r[(i + 1) % len(r)]) for _, r in cells for i in range(len(r))}
        assert set(edges) == rings
    elif len(g.pieces) > 1:
        essential = oracle_pruned(g.pieces)  # by slope: lex order is the order along the line
        assert edges == list(zip(essential, essential[1:]))
        kept = PLConvexFunction.from_pieces(g.pieces).pieces
        assert {p for pair in edges for p in pair} == set(kept)


def check_kept_walk(g):
    """A function from from_pieces keeps the walk that pruned it: the cells
    of a fresh walk on its pieces, and the same edge pairs as a set."""
    if len(g.pieces) > 1:
        assert "subdivision" in vars(g)
    cells, edges = subdivision(g.pieces)
    assert g.subdivision[0] == cells
    assert set(g.subdivision[1]) == set(edges)


def pruned_or_not(pieces, rng):
    """from_pieces or the unpruned function, at even odds."""
    return PLConvexFunction.from_pieces(pieces) if rng.random() < 0.5 else unpruned(pieces)


def check_against_oracle(g, deltas):
    bps = oracle_breakpoints(g)
    assert breakpoints(g) == bps
    if g.dim == 2:
        check_edges(g)
    assert ma_measure(g, deltas[0], check=False).measure_NR.atoms == oracle_ma_atoms(g, bps)
    for delta in deltas:
        assert dual_transform(g, delta).pieces == oracle_dual_transform(g, delta)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("n", [1, 2])
def test_small_grid_against_oracle(n):
    rng = random.Random(f"subdivision/{n}")
    deltas = DELTAS_1D if n == 1 else DELTAS_2D
    for _ in range(120):
        pieces = small_pieces(rng, n)
        assert PLConvexFunction.from_pieces(pieces).pieces == oracle_pruned(pieces)
        check_kept_walk(PLConvexFunction.from_pieces(pieces))
        for g in (PLConvexFunction.from_pieces(pieces), unpruned(pieces)):
            check_against_oracle(g, [rng.choice(deltas)])


def test_rational_slopes_against_oracle():
    rng = random.Random("subdivision/rational")
    collinear = volumes = 0
    for _ in range(120):
        pieces = rational_pieces(rng)
        assert PLConvexFunction.from_pieces(pieces).pieces == oracle_pruned(pieces)
        check_kept_walk(PLConvexFunction.from_pieces(pieces))
        g = pruned_or_not(pieces, rng)
        check_against_oracle(g, [rng.choice(DELTAS_2D)])
        collinear += len(g.pieces) > 1 and not _spans(g.slopes, 2)
        cells, edges = subdivision(g.pieces)
        # the same cells and edge pairs whatever the order of the pieces
        shuffled = subdivision(rng.sample(g.pieces, len(g.pieces)))
        assert shuffled[0] == cells and set(shuffled[1]) == set(edges)
        for _, cell in cells:
            ring = [p.slope for p in cell]
            assert cell_volume(cell) == fraction_shoelace(ring)
            assert cell_moment(cell) == fraction_moment(ring)
            volumes += 1
    assert collinear > 10 and volumes > 200


@pytest.mark.parametrize("n", [1, 2])
def test_convex_envelope_against_oracle(n):
    # convex_envelope prunes its samples and transforms the pruned sample
    # function: repeated points with a larger value and samples that are
    # never the strict maximum must leave the transform unchanged
    rng = random.Random(f"envelope/{n}")
    deltas = DELTAS_1D if n == 1 else DELTAS_2D
    non_essential = 0
    for _ in range(60):
        samples = [(p.slope, p.intercept) for p in small_pieces(rng, n)]
        repeated = rng.sample(samples, min(3, len(samples)))
        samples += [(x, y + rng.randint(0, 2)) for x, y in repeated]
        rng.shuffle(samples)
        F = PLConvexFunction.from_pieces([AffineFunctional(x, y) for x, y in samples])
        non_essential += len(F.pieces) < len({x for x, _ in samples})
        for delta in deltas:
            env = convex_envelope(samples, delta)
            assert env == dual_transform(F, delta)
            assert env.pieces == oracle_dual_transform(F, delta)
    assert non_essential > 10


@pytest.mark.parametrize("n", [1, 2])
def test_sum_against_oracle(n):
    rng = random.Random(f"sum/{n}")
    for _ in range(100):
        f, g = (pruned_or_not(small_pieces(rng, n), rng) for _ in range(2))
        if rng.random() < 0.5:
            g = g.translate(tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(n)))
        assert (f + g).pieces == oracle_sum(f, g).pieces
        check_kept_walk(f + g)


def test_acceptance_polytopes_against_oracle():
    rng = random.Random("subdivision/acceptance")
    for delta in ACCEPTANCE_POLYTOPES:
        deltas = DELTAS_1D if delta.dim == 1 else DELTAS_2D
        for _ in range(8):
            g = random_admissible(rng, delta, extra=rng.randint(0, 8))
            assert g.pieces == oracle_pruned(g.pieces)
            check_against_oracle(g, deltas)
            assert ma_measure(g, delta).measure_NR.total_mass() == delta.volume()


@pytest.mark.parametrize("k, grid", [(8, 3), (16, 5), (32, 7)])
def test_lattice_paraboloid_against_oracle(k, grid):
    g = lattice_paraboloid(random.Random(f"paraboloid/{k}"), k, grid)
    assert len(g.pieces) == k
    check_kept_walk(g)
    bps = oracle_breakpoints(g)
    assert breakpoints(g) == bps
    assert ma_measure(g, unit_square()).measure_NR.atoms == oracle_ma_atoms(g, bps)
    if k <= 16:
        assert dual_transform(g, unit_square()).pieces == oracle_dual_transform(g, unit_square())


def test_ma_measure_k64_paraboloid():
    # The triple enumeration took about 40 s here; the walk well under 1 s.
    delta = unit_square()
    g = lattice_paraboloid(random.Random("paraboloid/64"), 64, 9)
    assert len(g.pieces) == 64
    res = ma_measure(g, delta)
    real = res.measure_NR
    assert real.is_positive()
    assert real.total_mass() == delta.volume()
    assert [(mp.v, m) for mp, m in res.measure_an] == [(p, factorial(2) * m) for p, m in real.atoms]
