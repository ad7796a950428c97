"""The subdivision kernel against the triple-enumeration reference.

The oracles below are the brute-force routines the kernel replaced: every
triple of pieces (every pair in 1-D) is solved for its tie point and kept
when it is a vertex, every tie line is cut with every edge of the polytope,
and essential pieces come from Fourier-Motzkin feasibility, as do the
pieces of a sum: a pair of pieces is kept when both are strictly active at
once.  They take O(k^4) exact operations, so the cases stay small except
for a few lattice paraboloids.

The kernel speaks integers: vertices X / q and index rings.  The walk it
replaced, which built each vertex as a pair of Fractions and each cell as
a tuple of pieces, is kept here as `oracle_walk`, and the kernel's cells
and edges, read back as Fractions and pieces, must equal its cells and
edges, in order.

The readers of the walk that run on the integer form (evaluation, the
Monge-Ampere masses, the Legendre integral of the energy, the
admissibility test and the polytope's integer half-planes) are checked
against the Fraction formulas they replaced.

The oracles share no predicate with the code they check: they run their
own monotone chain (`oracle_chain`, `oracle_ring`) and their own
Fraction containment test (`fraction_contains`), never the kernel's
chain, hull or half-planes.
"""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from plma.geometry import (
    AffineFunctional,
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    _integer_pieces,
    _integer_points,
    _point,
    breakpoints,
    cell_sums,
    convex_envelope,
    cross2,
    dot,
    dual_transform,
    is_admissible,
    subdifferential,
    subdivision,
    support_function,
    vscale,
    vsub,
)
from plma import serialize
from plma.solver import residual, solve_toric
from plma.toric import MonomialPoint, ToricMAResult, degree, ma_measure, real_measure
from plma.variational import _legendre_integral

from conftest import (
    ACCEPTANCE_POLYTOPES,
    canonical_function,
    cells_residual,
    fraction_shift,
    fraction_sum,
    fraction_translate,
    hexagon,
    interval,
    lattice_paraboloid,
    random_admissible,
    rational_hexagon,
    rnd_frac,
    simplex2,
    unit_square,
    unpruned,
    vadd,
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
            if pi.value(u) == F(u) and fraction_contains(delta, u):
                cands.add(u)
        ring = fraction_ring(delta)
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


def oracle_chain(points):
    """Andrew's monotone chain, apart from the kernel's: the strict vertices
    of the lower convex chain of (x, y, tag) points, lex-sorted by (x, y).
    A point stays only where the chain turns strictly left."""
    out = []
    for p in sorted(points, key=lambda t: t[:2]):
        while len(out) >= 2:
            (x1, y1, _), (x2, y2, _) = out[-2], out[-1]
            if (x2 - x1) * (p[1] - y1) > (y2 - y1) * (p[0] - x1):
                break
            out.pop()
        out.append(p)
    return out


def oracle_ring(points):
    """The counterclockwise ring of distinct 2-D points from the lex-first,
    with strict turns: the lower chain, then the lower chain of the points
    turned by 180 degrees, which is the upper chain.  Collinear points give
    their two ends, and one point itself."""
    lower = [p for _, _, p in oracle_chain([(x, y, (x, y)) for x, y in points])]
    upper = [p for _, _, p in oracle_chain([(-x, -y, (x, y)) for x, y in points])]
    ring = lower[:-1] + upper[:-1]
    return ring if len(ring) >= 3 else lower


def fraction_ring(delta):
    """delta's ring from its vertices by `oracle_ring` (in 1-D its ends)."""
    return list(delta.vertices) if delta.dim == 1 else oracle_ring(delta.vertices)


def fraction_contains(delta, p):
    """p in delta, on Fractions: between the ends of an interval, left of
    every counterclockwise side of a polygon, on a segment between its
    ends, or equal to a point."""
    if delta.dim == 1:
        return delta.vertices[0] <= p <= delta.vertices[-1]
    ring = fraction_ring(delta)
    if len(ring) == 1:
        return p == ring[0]
    if len(ring) == 2:
        a, b = ring
        d, t = vsub(b, a), vsub(p, a)
        return cross2(d, t) == 0 and 0 <= dot(t, d) <= dot(d, d)
    return all(cross2(vsub(b, a), vsub(p, a)) >= 0 for a, b in zip(ring, ring[1:] + ring[:1]))


def fraction_chain(pieces):
    """The 1-D `subdivision` on rationals: (breakpoint, (a, b)) for every two
    pieces a, b consecutive on the lower chain of the lifted points (s, c)."""
    chain = [p for _, _, p in oracle_chain([(p.slope[0], p.intercept, p) for p in pieces])]
    return [(((b.intercept - a.intercept) / (b.slope[0] - a.slope[0]),), (a, b))
            for a, b in zip(chain, chain[1:])]


def fraction_dual_transform(F, delta):
    """`dual_transform` on rationals: F at the vertices of delta, each walk
    vertex inside delta with the value of its cell, and on each side p -> q
    the chain of the restricted pieces (<s_i, q - p>, c_i - <s_i, p>), each
    breakpoint with the value of its left piece."""
    values = {u: F(u) for u in delta.vertices}
    walk = oracle_walk(F.pieces)[0]
    values.update((v, c[0].value(v)) for v, c in walk if fraction_contains(delta, v))
    ring = fraction_ring(delta)
    if delta.dim == 2 and len(ring) >= 2:
        sides = list(zip(ring, ring[1:] + ring[:1])) if len(ring) >= 3 else [tuple(ring)]
        for p, q in sides:
            d = vsub(q, p)
            side = {}
            for f in F.pieces:
                x, c = dot(f.slope, d), f.intercept - dot(f.slope, p)
                if x not in side or c < side[x]:
                    side[x] = c
            cells = fraction_chain([AffineFunctional((x,), c) for x, c in side.items()])
            values.update(
                (vadd(p, vscale(s, d)), a.value((s,))) for (s,), (a, _) in cells if 0 < s < 1
            )
    return canonical_function(tuple(AffineFunctional(u, y) for u, y in sorted(values.items())))


def oracle_walk(pieces):
    """The kernel as it was before it spoke integers: cells (v, pieces of
    the ring) with v a pair of Fractions, sorted by v, and edges as pairs
    of pieces, on the pieces in the given order.  In 1-D, the Fraction
    lower chain."""
    pieces = list(pieces)
    if len(pieces[0].slope) == 1:
        return fraction_chain(pieces), []
    S, D, C, E = _integer_pieces(pieces)
    u = vsub(S[-1], S[0])
    if all(cross2(u, vsub(s, S[0])) == 0 for s in S):
        u = vsub(max(S), min(S))
        chain = [p for _, _, p in oracle_chain(
            [(s0 * u[0] + s1 * u[1], c, p) for (s0, s1), c, p in zip(S, C, pieces)])]
        return [], list(zip(chain, chain[1:]))
    index = {s: i for i, s in enumerate(S)}

    def gaps(X, q):
        vals = [E * (s0 * X[0] + s1 * X[1]) - D * q * c for (s0, s1), c in zip(S, C)]
        m = max(vals)
        return [m - val for val in vals]

    def cell(gap):
        return [index[s] for s in oracle_ring([s for s, d in zip(S, gap) if d == 0])]

    def clip(gap, a, N):
        n0, n1 = N
        base = S[a][0] * n0 + S[a][1] * n1
        best = None
        for (s0, s1), d in zip(S, gap):
            rate = s0 * n0 + s1 * n1 - base
            if rate > 0 and (best is None or d * best[1] < best[0] * rate):
                best = (d, rate)
        return best

    def step(X, q, N, clipped):
        G, R = clipped
        X0, X1, q = E * R * X[0] + G * N[0], E * R * X[1] + G * N[1], E * R * q
        h = math.gcd(X0, X1, q)
        return (X0 // h, X1 // h), q // h

    X, q = (0, 0), 1
    gap = gaps(X, q)
    ring = cell(gap)
    while len(ring) < 3:
        a = ring[0]
        if len(ring) == 1:
            N = vsub(next(s for s in S if s != S[a]), S[a])
        else:
            u = vsub(S[ring[1]], S[a])
            N = (u[1], -u[0])
            if clip(gap, a, N) is None:
                N = (-u[1], u[0])
        X, q = step(X, q, N, clip(gap, a, N))
        gap = gaps(X, q)
        ring = cell(gap)

    cells, edges = [], []
    todo, seen = [(X, q, gap, ring)], {(X, q)}
    while todo:
        X, q, gap, ring = todo.pop()
        v = (Fraction(X[0], q), Fraction(X[1], q))
        cells.append((v, tuple(pieces[i] for i in ring)))
        for a, b in zip(ring, ring[1:] + ring[:1]):
            u = vsub(S[b], S[a])
            N = (u[1], -u[0])
            edges.append((pieces[a], pieces[b]))
            clipped = clip(gap, a, N)
            if clipped is None:
                continue
            w = step(X, q, N, clipped)
            if w not in seen:
                seen.add(w)
                wgap = gaps(*w)
                todo.append((*w, wgap, cell(wgap)))
    cells.sort(key=lambda vc: vc[0])
    return cells, edges


def rational_walk(pieces, walk):
    """A kernel walk (cells (X, q, ring), index-pair edges) in the oracle's
    shape: each vertex as Fractions, each index as its piece."""
    cells, edges = walk
    return ([(tuple(Fraction(x, q) for x in X), tuple(pieces[i] for i in ring))
             for X, q, ring in cells],
            [(pieces[a], pieces[b]) for a, b in edges])


def walk_of(g):
    """g's cached walk in the oracle's shape."""
    return rational_walk(g.pieces, g.subdivision)


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


def coprime_pieces(rng, n, delta):
    """1-8 pieces whose slopes and intercepts have the denominators 1, 2, 5
    and 1, 4, 9, coprime to those of the rational polytopes below.  In 2-D,
    one draw in three adds pieces whose slopes differ from another's by a
    normal of one side of delta, so that their restricted slopes on that
    side are equal."""
    def q(dens, span=3):
        den = rng.choice(dens)
        return Fraction(rng.randint(-span * den, span * den), den)

    pieces = [AffineFunctional(tuple(q((1, 2, 5)) for _ in range(n)), q((1, 4, 9)))
              for _ in range(rng.randint(1, 8))]
    ring = delta.ring()
    if n == 2 and len(ring) >= 2 and rng.random() < 1 / 3:
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(ring))
            d = vsub(ring[(i + 1) % len(ring)], ring[i])
            s = rng.choice(pieces).slope
            pieces.append(AffineFunctional(vadd(s, vscale(q((1, 2)), (-d[1], d[0]))), q((1, 4, 9))))
    return pieces


def equal_side_slopes(g, delta):
    """Whether two pieces of g have the same restricted slope on a side of delta."""
    ring = delta.ring()
    if len(ring) < 2:
        return False
    sides = list(zip(ring, ring[1:] + ring[:1])) if len(ring) >= 3 else [tuple(ring)]
    return any(len({dot(p.slope, vsub(b, a)) for p in g.pieces}) < len(g.pieces)
               for a, b in sides)


Q = Fraction
# vertex denominators 3, 7 and 11: a hexagon, a triangle, a segment and a
# point in the plane, and two intervals
RATIONAL_DELTAS_2D = [
    rational_hexagon(),
    Polytope.from_points([(Q(-1, 3), Q(1, 7)), (Q(12, 7), Q(-2, 11)), (Q(5, 11), Q(5, 3))]),
    Polytope.from_points([(Q(1, 3), Q(-2, 7)), (Q(13, 11), Q(5, 3))]),
    Polytope.from_points([(Q(2, 7), Q(-4, 11))]),
]
RATIONAL_DELTAS_1D = [
    Polytope.from_points([(Q(-1, 3),), (Q(5, 7),)]),
    Polytope.from_points([(Q(2, 11),), (Q(13, 3),)]),
]

DELTAS_2D = [p for p in ACCEPTANCE_POLYTOPES if p.dim == 2] + [
    Polytope.from_points([(0, 0), (2, 1)]),  # a segment
]
DELTAS_1D = [p for p in ACCEPTANCE_POLYTOPES if p.dim == 1] + [
    Polytope.from_points([(-1,), (Fraction(5, 2),)]),
]


def fresh_walk(pieces):
    """The kernel on the pieces in the given order, on their integer form,
    in the oracle's shape."""
    pieces = list(pieces)
    return rational_walk(pieces, subdivision(_integer_pieces(pieces)))


def check_edges(g):
    """The edge pairs of a 2-D subdivision: consecutive pieces of the cell
    rings when the slopes span the plane, else consecutive essential pieces
    along the slope line, which are all the pieces pruning keeps."""
    cells, edges = fresh_walk(g.pieces)
    if _spans(g.slopes, 2):
        rings = {(r[i], r[(i + 1) % len(r)]) for _, r in cells for i in range(len(r))}
        assert set(edges) == rings
    elif len(g.pieces) > 1:
        essential = oracle_pruned(g.pieces)  # by slope: lex order is the order along the line
        assert edges == list(zip(essential, essential[1:]))
        kept = PLConvexFunction.from_pieces(g.pieces).pieces
        assert {p for pair in edges for p in pair} == set(kept)


def check_kept_walk(g):
    """A function from from_pieces is handed the walk that pruned it,
    renumbered to its pieces: the cells of a fresh walk on its pieces, and
    the same edge pairs as a set.  Its integer form is that walk's, sliced
    to its pieces: each S_i / D is a slope and each C_i / E an intercept,
    in order."""
    if len(g.pieces) > 1:
        assert vars(g)["_diagram"] is not None
    cells, edges = subdivision(_integer_pieces(g.pieces))
    assert g.subdivision[0] == cells
    assert set(g.subdivision[1]) == set(edges)
    S, D, C, E = g.integer_form
    assert [tuple(Fraction(x, D) for x in s) for s in S] == list(g.slopes)
    assert [Fraction(c, E) for c in C] == [p.intercept for p in g.pieces]


def pruned_or_not(pieces, rng):
    """from_pieces or the unpruned function, at even odds."""
    return PLConvexFunction.from_pieces(pieces) if rng.random() < 0.5 else unpruned(pieces)


def check_walk(g):
    """The kernel's walk, fresh and cached, against the Fraction walk: the
    same cells in the same order, and the same edges.  The cached walk of
    a pruned function ran on more pieces, so its edges match as a set."""
    walk = oracle_walk(g.pieces)
    assert fresh_walk(g.pieces) == walk
    cells, edges = walk_of(g)
    assert cells == walk[0] and set(edges) == set(walk[1])
    for X, q, ring in g.subdivision[0]:
        assert q > 0 and math.gcd(*X, q) == 1


def check_against_oracle(g, deltas):
    check_walk(g)
    bps = oracle_breakpoints(g)
    assert breakpoints(g) == bps
    if g.dim == 2:
        check_edges(g)
    assert real_measure(g).atoms == oracle_ma_atoms(g, bps)
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
        cells, edges = fresh_walk(g.pieces)
        # the same cells and edge pairs whatever the order of the pieces
        shuffled = fresh_walk(rng.sample(g.pieces, len(g.pieces)))
        assert shuffled[0] == cells and set(shuffled[1]) == set(edges)
        for _, cell in cells:
            ring = [p.slope for p in cell]
            # a strictly convex counterclockwise ring from its lex-first slope
            assert ring[0] == min(ring)
            assert all(cross2(vsub(b, a), vsub(c, b)) > 0
                       for a, b, c in zip(ring, ring[1:] + ring[:1], ring[2:] + ring[:2]))
            P, D = _integer_points(ring)
            A, M = cell_sums(P)
            assert Fraction(A, 2 * D**2) == fraction_shoelace(ring)
            assert tuple(Fraction(m, 6 * D**3) for m in M) == fraction_moment(ring)
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
def test_transform_on_coprime_denominators(n):
    # the integer transform and the 1-D chain against their rational forms
    # and the brute-force transform, with slope, intercept and vertex
    # denominators that share no factor, on polygons, a segment and a point
    # in the plane and on intervals with rational ends
    rng = random.Random(f"transform/{n}")
    deltas = RATIONAL_DELTAS_1D if n == 1 else RATIONAL_DELTAS_2D
    single = equal = breaks = 0
    for _ in range(100):
        delta = rng.choice(deltas)
        pieces = coprime_pieces(rng, n, delta)
        g = pruned_or_not(pieces, rng)
        if n == 1:
            shuffled = rng.sample(g.pieces, len(g.pieces))
            assert fresh_walk(shuffled) == (fraction_chain(g.pieces), [])
            breaks += len(g.subdivision[0])
        for d in (delta, rng.choice(deltas)):
            h = dual_transform(g, d)
            assert h == fraction_dual_transform(g, d)
            assert h.pieces == oracle_dual_transform(g, d)
            equal += n == 2 and equal_side_slopes(g, d)
        single += len(g.pieces) == 1
    assert single > 5 and (n == 1 and breaks > 100 or n == 2 and equal > 15)


def oracle_residual(g, nu):
    """`solver.residual` as it was before it read g's cells on integers:
    the Fraction masses of MA(g) against nu's, over the union of their
    points."""
    got = real_measure(g).masses
    want = nu.masses
    zero = Fraction(0)
    return tuple((p, got.get(p, zero) - want.get(p, zero))
                 for p in sorted(got.keys() | want.keys()))


def check_handed_diagram(h, delta):
    """h = dual_transform(F, delta) carries the integer form of its pieces
    and, for a full-dimensional delta, the cells of its walk, in order, and
    its edges as a multiset: a polygon hands h a builder that makes them
    when first read, and an interval none, so that h's 1-D cells come from
    the kernel's chain; a lower-dimensional delta leaves the walk to h.
    Returns the cells."""
    S, D, C, E = form = _integer_pieces(h.pieces)
    assert h.integer_form == (tuple(S), D, C, E)
    if not delta.is_full_dimensional():
        assert vars(h)["_diagram"] is None
        return []
    assert (vars(h)["_diagram"] is None) == (delta.dim == 1)
    cells, edges = h.subdivision
    walk_cells, walk_edges = subdivision(form)
    assert cells == walk_cells
    assert Counter(edges) == Counter(walk_edges)
    return cells


def check_residual(h, nu, delta):
    """The integer residual against the Fraction one and against the cells
    matched with nu's atoms (`cells_residual`), on h and on h read back
    from its JSON document, which is walked."""
    res = residual(h, nu)
    assert res == oracle_residual(h, nu) == cells_residual(h, nu, delta)
    assert all(type(e) is Fraction for _, e in res)
    back = serialize.pl_function_from_json(json.loads(serialize.pl_function_to_json(h)))
    assert residual(back, nu) == res
    return res


def power_function(atoms, weights):
    """The solver's F_w = max(<., v_i> + w_i), its pieces in slope order."""
    return canonical_function(tuple(AffineFunctional(v, -w) for v, w in sorted(zip(atoms, weights))))


def power_draw(rng, n):
    """2-7 distinct atoms on a small grid with weights on a coarse grid, so
    that cells tie often.  One draw in four lowers one weight by 10, which
    empties its cell; in 2-D, one in three adds the midpoint of two atoms
    with the mean of their weights, whose cell is then the tie line of the
    two, of zero area, or that weight raised by 1/4, a strip between
    parallel edges."""
    atoms = list({tuple(rnd_frac(rng, rng.choice([1, 2, 3]), -1, 2) for _ in range(n))
                  for _ in range(rng.randint(2, 7))})
    weights = [rnd_frac(rng, rng.choice([1, 2]), -1, 1) for _ in atoms]
    if rng.random() < 0.25:
        weights[rng.randrange(len(weights))] -= 10
    if n == 2 and len(atoms) >= 2 and rng.random() < 1 / 3:
        i, j = rng.sample(range(len(atoms)), 2)
        mid = vscale(Fraction(1, 2), vadd(atoms[i], atoms[j]))
        if mid not in atoms:
            atoms.append(mid)
            weights.append((weights[i] + weights[j]) / 2 + rng.choice([0, 0, Fraction(1, 4)]))
    return atoms, weights


def measure_on(rng, atoms, n):
    """A measure on some of the atoms and, one time in two, on a point that
    is no atom, with masses on 1/12."""
    points = rng.sample(atoms, rng.randint(1, len(atoms)))
    if rng.random() < 0.5:
        points.append(tuple(Fraction(rng.randint(-20, 20), 7) for _ in range(n)))
    return DiscreteMeasure.from_atoms([(p, Fraction(rng.randint(1, 12), 12)) for p in points])


def test_transform_hands_its_diagram_2d():
    # dual_transform hands its result the walk that its corners make:
    # solver solutions on the acceptance polygons and a rational hexagon,
    # power functions with empty, zero-area and strip cells, convex
    # envelopes of samples, on translated copies too, and on segments and
    # points in the plane, which keep the walk
    rng = random.Random("handed/2")
    polygons = [unit_square(), simplex2(), hexagon(), rational_hexagon()]
    empty = flat = solved = envelopes = degenerate = 0
    for _ in range(150):
        delta = rng.choice(polygons)
        if rng.random() < 0.3:
            delta = delta.translate((rnd_frac(rng, 3), rnd_frac(rng, 5)))
        kind = rng.choice(["solve", "power", "power", "envelope"])
        if kind == "solve":
            atoms = list({(rnd_frac(rng, 3, -1, 2), rnd_frac(rng, 3, -1, 2))
                          for _ in range(rng.randint(2, 6))})
            masses = [rng.randint(1, 6) for _ in atoms]
            nu = DiscreteMeasure.from_atoms(
                [(v, Fraction(m, sum(masses)) * delta.volume()) for v, m in zip(atoms, masses)])
            rep = solve_toric(delta, nu)
            check_handed_diagram(rep.solution, delta)
            assert check_residual(rep.solution, nu, delta) == rep.residual
            solved += 1
            continue
        if kind == "envelope":
            samples = [(p.slope, p.intercept) for p in small_pieces(rng, 2)]
            h = convex_envelope(samples, delta)
            check_handed_diagram(h, delta)
            envelopes += 1
            continue
        atoms, weights = power_draw(rng, 2)
        F = power_function(atoms, weights)
        for d in (delta, rng.choice(RATIONAL_DELTAS_2D[1:] + DELTAS_2D[3:])):
            h = dual_transform(F, d)
            cells = check_handed_diagram(h, d)
            if not cells:
                degenerate += 1
                continue
            check_residual(h, measure_on(rng, atoms, 2), d)
            vertices = {_point(X, q) for X, q, _ in cells}
            for p in F.pieces:
                at = [u for u in h.slopes if p.value(u) == F(u)]
                empty += not at
                flat += bool(at) and p.slope not in vertices
    assert solved > 20 and envelopes > 20 and degenerate > 50 and empty > 20 and flat > 20


def test_transform_hands_its_diagram_1d():
    # on intervals, translated and with rational ends, each cell is two
    # consecutive corners; a point keeps the walk
    rng = random.Random("handed/1")
    intervals = DELTAS_1D + RATIONAL_DELTAS_1D
    solved = 0
    for _ in range(100):
        delta = rng.choice(intervals)
        if rng.random() < 0.3:
            delta = delta.translate((rnd_frac(rng, 3),))
        if rng.random() < 0.2:
            atoms = list({(rnd_frac(rng, 3, -1, 2),) for _ in range(rng.randint(1, 6))})
            nu = DiscreteMeasure.from_atoms(
                [(v, delta.volume() / len(atoms)) for v in atoms])
            rep = solve_toric(delta, nu)
            check_handed_diagram(rep.solution, delta)
            assert check_residual(rep.solution, nu, delta) == rep.residual
            solved += 1
            continue
        atoms, weights = power_draw(rng, 1)
        F = power_function(atoms, weights)
        for d in (delta, Polytope.from_points([(Fraction(1, 3),)])):
            h = dual_transform(F, d)
            if check_handed_diagram(h, d):
                check_residual(h, measure_on(rng, atoms, 1), d)
        h = convex_envelope([(p.slope, p.intercept) for p in small_pieces(rng, 1)], delta)
        check_handed_diagram(h, delta)
    assert solved > 10


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


# ---------------------------------------------------------------------------
# the integer readers against their Fraction forms


def fraction_cell_volume(cell):
    """The volume of the subdifferential spanned by a walk cell, on its
    rational slopes."""
    if len(cell[0].slope) == 1:
        return cell[1].slope[0] - cell[0].slope[0]
    return fraction_shoelace([p.slope for p in cell])


def fraction_cell_moment(cell):
    """The integral of u du over the subdifferential spanned by a walk
    cell, on its rational slopes."""
    if len(cell[0].slope) == 1:
        a, b = cell[0].slope[0], cell[1].slope[0]
        return ((b * b - a * a) / 2,)
    return fraction_moment([p.slope for p in cell])


def fraction_legendre_integral(g):
    """The sum over the walk of <M1(C), v> - Vol(C) g(v), on rationals."""
    return sum((dot(fraction_cell_moment(c), v) - fraction_cell_volume(c) * c[0].value(v)
                for v, c in walk_of(g)[0]), Fraction(0))


def fraction_is_admissible(g, delta):
    """Every slope in delta, by `fraction_contains`, and every vertex a slope."""
    slopes = set(g.slopes)
    return (all(fraction_contains(delta, s) for s in slopes)
            and all(v in slopes for v in delta.vertices))


def fraction_ma(g):
    """The real MA measure: each walk vertex with its cell's volume, through
    from_atoms."""
    return DiscreteMeasure.from_atoms((v, fraction_cell_volume(c)) for v, c in walk_of(g)[0])


READER_DELTAS_1D = [interval(), *RATIONAL_DELTAS_1D, Polytope.from_points([(Q(2, 3),)])]
READER_DELTAS_2D = [unit_square(), *RATIONAL_DELTAS_2D, DELTAS_2D[-1]]


def reader_pieces(rng, delta):
    """1-10 pieces whose slopes sit at delta's vertices, on its sides,
    inside it or, except in one draw in three, also near it (often
    outside), with all of delta's vertices added in one draw in two.  In 2-D one draw in four puts every slope on
    a line.  One draw in three gives the slopes and intercepts denominators
    above 10^6."""
    n, ring = delta.dim, delta.ring()
    big, kinds = rng.random() < 1 / 3, rng.choice((3, 4, 4))

    def frac(lo, hi):
        den = rng.randint(10**6 + 1, 4 * 10**6) if big else rng.randint(1, 6)
        return Fraction(rng.randint(lo * den, hi * den), den)

    slopes = []
    for _ in range(rng.randint(1, 10)):
        i = rng.randrange(len(ring))
        a, b = ring[i], ring[(i + 1) % len(ring)]
        kind = rng.randrange(kinds)
        if kind == 0:
            slopes.append(a)
        elif kind == 1:
            slopes.append(vadd(a, vscale(frac(0, 1), vsub(b, a))))
        elif kind == 2:
            ws = [frac(0, 1) for _ in ring]
            total = sum(ws) or Fraction(1)
            slopes.append(tuple(sum(w * u[j] for w, u in zip(ws, ring)) / total for j in range(n)))
        else:
            slopes.append(vadd(a, tuple(frac(-1, 1) for _ in range(n))))
    if n == 2 and rng.random() < 0.25:
        base, u = slopes[0], (frac(-1, 1), frac(-1, 1))
        slopes = [vadd(base, vscale(frac(-2, 2), u)) for _ in slopes]
    if rng.random() < 0.5:
        slopes += list(delta.vertices)
    return [AffineFunctional(s, frac(-3, 3)) for s in slopes]


@pytest.mark.parametrize("n", [1, 2])
def test_integer_readers_against_fraction_forms(n):
    rng = random.Random(f"readers/{n}")
    deltas = READER_DELTAS_1D if n == 1 else READER_DELTAS_2D
    admissible = refused = big = collinear = cells = 0
    for _ in range(150):
        delta = rng.choice(deltas)
        pieces = reader_pieces(rng, delta)
        g = pruned_or_not(pieces, rng)
        big += max(p.intercept.denominator for p in pieces) > 10**6
        collinear += n == 2 and len(g.pieces) > 2 and not _spans(g.slopes, 2)
        cells += len(g.subdivision[0])
        assert _legendre_integral(g) == fraction_legendre_integral(g)
        real = fraction_ma(g)
        res = ToricMAResult(real_measure(g), degree(delta))
        assert res.measure_NR == real
        assert res.measure_an == tuple(
            (MonomialPoint(p), factorial(n) * m) for p, m in real.atoms)
        points = breakpoints(g) + list(delta.vertices) + [
            tuple(Fraction(rng.randint(-10**7, 10**7), rng.randint(1, 10**7)) for _ in range(n))
            for _ in range(3)]
        for v in points:
            assert g(v) == max(p.value(v) for p in g.pieces)
        for d in deltas:
            ok = is_admissible(g, d)
            assert ok == fraction_is_admissible(g, d)
            admissible += ok
            refused += not ok
    assert admissible > 20 and refused > 200 and big > 25 and cells > 150
    assert n == 1 or collinear > 10
    with pytest.raises(DimensionError):
        g(tuple(range(n + 1)))
    with pytest.raises(TypeError):
        g((0.5,) * n)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction walk on hard draws


def tied_pieces(rng):
    """2-D pieces of which 4 to 9 tie at each of one or two points, with
    slopes on the 1/2 grid of [0, 2]^2 and intercepts <s, v> - t, plus up
    to 4 more pieces.  One draw in four puts every slope on a line through
    the origin instead, with no more pieces."""
    line = rng.random() < 0.25
    if line:
        u = (Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(1, 2), 3))
        grid = [vscale(Fraction(i, 2), u) for i in range(-6, 7)]
    else:
        grid = [(Fraction(i, 2), Fraction(j, 2)) for i in range(5) for j in range(5)]
    pieces = []
    for _ in range(rng.randint(1, 2)):
        v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        t = Fraction(rng.randint(-2, 2), 2)
        pieces += [AffineFunctional(s, dot(s, v) - t) for s in rng.sample(grid, rng.randint(4, 9))]
    if not line:
        pieces += [AffineFunctional((Q(rng.randint(0, 4), 2), Q(rng.randint(0, 4), 2)),
                                    Q(rng.randint(-8, 8), 4)) for _ in range(rng.randint(0, 4))]
    return pieces


def big_denominator_paraboloid(rng, k):
    """k slopes in [0, 1]^2 with two denominators above 10^6, the four
    corners included, and intercepts |s|^2 / 2: every piece is essential,
    and the vertices X / q have large q."""
    dens = [rng.randint(10**6 + 1, 4 * 10**6) for _ in range(2)]

    def frac():
        den = rng.choice(dens)
        return Fraction(rng.randint(0, den), den)

    slopes = [(Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))]
    slopes += [(frac(), frac()) for _ in range(k - 4)]
    return [AffineFunctional(s, (s[0] ** 2 + s[1] ** 2) / 2) for s in slopes]


FLAT_DELTAS_2D = [DELTAS_2D[-1], RATIONAL_DELTAS_2D[2], RATIONAL_DELTAS_2D[3],
                  Polytope.from_points([(Q(1, 2), Q(1, 3))])]


def check_readers(g, deltas):
    """The integer readers of g's walk against their Fraction forms."""
    assert breakpoints(g) == [v for v, _ in oracle_walk(g.pieces)[0]]
    assert _legendre_integral(g) == fraction_legendre_integral(g)
    assert real_measure(g) == fraction_ma(g)
    for d in deltas:
        assert dual_transform(g, d) == fraction_dual_transform(g, d)


def test_kernel_against_oracle_walk_on_ties_and_lines():
    # many pieces tied at one vertex, collinear slopes, and a segment or a
    # point as delta
    rng = random.Random("subdivision/ties")
    ties = collinear = 0
    for _ in range(80):
        pieces = tied_pieces(rng)
        assert PLConvexFunction.from_pieces(pieces).pieces == oracle_pruned(pieces)
        check_kept_walk(PLConvexFunction.from_pieces(pieces))
        g = pruned_or_not(pieces, rng)
        check_walk(g)
        check_readers(g, [rng.choice(FLAT_DELTAS_2D), rng.choice(FLAT_DELTAS_2D), unit_square()])
        ties += sum(len(g.active_pieces(v)) >= 4 for v in breakpoints(g))
        collinear += len(g.pieces) > 2 and not _spans(g.slopes, 2)
    assert ties > 30 and collinear > 10


def test_kernel_against_oracle_walk_on_large_denominators():
    # k = 64 slopes with denominators above 10^6: the exact vertex order
    # on large X and q
    rng = random.Random("subdivision/large-denominators")
    for _ in range(3):
        pieces = big_denominator_paraboloid(rng, 64)
        g = PLConvexFunction.from_pieces(pieces)
        assert len(g.pieces) == 64
        check_kept_walk(g)
        check_walk(g)
        assert max(q for _, q, _ in g.subdivision[0]) > 10**18
        check_readers(g, [unit_square(), *FLAT_DELTAS_2D])


# ---------------------------------------------------------------------------
# the polytope's integer half-planes against their Fraction forms


def fraction_halfplanes(delta):
    """Per counterclockwise side (a, b) of delta's ring, n = (a1 - b1,
    b0 - a0) and c = <n, a> on Fractions, scaled to integers by the lcm of
    their denominators."""
    ring = fraction_ring(delta)
    out = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        n0, n1 = a[1] - b[1], b[0] - a[0]
        c = n0 * a[0] + n1 * a[1]
        m = math.lcm(n0.denominator, n1.denominator, c.denominator)
        out.append(((int(n0 * m), int(n1 * m)), int(c * m)))
    return out


def fraction_box(delta):
    """delta's bounding box, u_j >= lo_j and -u_j >= -hi_j for each
    coordinate j, on Fractions, each scaled to integers by its
    denominator."""
    out = []
    for j in range(delta.dim):
        xs = [v[j] for v in delta.vertices]
        for x, sign in ((min(xs), 1), (max(xs), -1)):
            n = tuple(sign * x.denominator if i == j else 0 for i in range(delta.dim))
            out.append((n, int(sign * x * x.denominator)))
    return out


def primitive(halfplane):
    n, c = halfplane
    h = math.gcd(*n, c)
    return tuple(x // h for x in n), c // h


def test_halfplanes_from_integer_ring():
    # polygons, segments and points with denominators above 10^6
    rng = random.Random("polytope/halfplanes")

    def frac(lo, hi):
        den = rng.randint(10**6 + 1, 4 * 10**6)
        return Fraction(rng.randint(lo * den, hi * den), den)

    kinds = {1: 0, 2: 0, 3: 0}
    admissible = 0
    for _ in range(120):
        m = rng.choice((1, 2, 3, 3, 5, 9))
        pts = [(frac(-2, 2), frac(-2, 2)) for _ in range(m)]
        if m > 2 and rng.random() < 0.2:
            u = (frac(-1, 1), frac(-1, 1))
            pts = [vadd(pts[0], vscale(frac(-2, 2), u)) for _ in range(m)]
        delta = Polytope.from_points(pts)
        ring = delta.ring()
        assert ring == fraction_ring(delta)
        kinds[min(len(ring), 3)] += 1
        if len(ring) >= 3:
            assert delta._halfplanes == tuple(primitive(h) for h in fraction_halfplanes(delta))
            assert delta.volume() == fraction_shoelace(ring) > 0
        else:
            # a segment is its line, the sides (a, b) and (b, a), plus its
            # bounding box; a point is its bounding box
            line = [primitive(h) for h in fraction_halfplanes(delta)] if len(ring) == 2 else []
            assert sorted(delta._halfplanes) == sorted(line + fraction_box(delta))
            assert delta.volume() == 0
        mids = [vscale(Q(1, 2), vadd(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])]
        probes = ring + mids + [(frac(-2, 2), frac(-2, 2)) for _ in range(6)]
        probes += [vadd(p, (Q(1, 10**7), Q(-1, 10**7))) for p in ring]
        if len(ring) == 2:
            # on the line beyond each end, and the box corners off the line
            a, b = ring
            d = vsub(b, a)
            probes += [vadd(b, vscale(t, d)) for t in (Q(1, 10**7), Q(1, 2))]
            probes += [vsub(a, vscale(t, d)) for t in (Q(1, 10**7), Q(1, 2))]
            probes += [c for c in ((a[0], b[1]), (b[0], a[1])) if cross2(d, vsub(c, a)) != 0]
        elif len(ring) == 1:
            # points that share one coordinate with it
            (x, y), = ring
            for e in (Q(1, 10**7), -Q(1, 10**7), frac(-2, 2)):
                probes += [(x, y + e), (x + e, y)]
        for p in probes:
            inside = fraction_contains(delta, p)
            assert delta.contains(p) == inside
            X, q = _integer_points([p])
            assert delta._contains_scaled(X[0], q) == inside
        for _ in range(3):
            slopes = rng.sample(probes, rng.randint(1, 4))
            if rng.random() < 0.5:
                slopes += [p for p in mids + ring if delta.contains(p)]
            g = PLConvexFunction.from_pieces(AffineFunctional(s, frac(-1, 1)) for s in slopes)
            ok = is_admissible(g, delta)
            assert ok == fraction_is_admissible(g, delta)
            admissible += ok
    assert min(kinds.values()) > 10 and admissible > 20


def test_polytope_is_its_canonical_integer_ring():
    # seeded point sets in 1-D and 2-D with duplicates, interior and
    # collinear points, single points and segments in the plane: the ring
    # R / Q over the least Q, the oracle's hull, and one ring however the
    # polytope is spelled, moved or read back
    rng = random.Random("polytope/canonical-ring")
    kinds = Counter()
    for _ in range(300):
        n, den = rng.choice((1, 2, 2)), rng.choice((1, 2, 6, 35))

        def coord():
            return Fraction(rng.randint(-3 * den, 3 * den), den)

        m = rng.choice((1, 1, 2, 3, 5, 8))
        if n == 2 and m > 1 and rng.random() < 0.3:
            a, d = (coord(), coord()), (coord(), coord())
            pts = [vadd(a, vscale(Fraction(rng.randint(-4, 4), 2), d)) for _ in range(m)]
        else:
            pts = [tuple(coord() for _ in range(n)) for _ in range(m)]
        # convex combinations with finer denominators, and repeats
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(pts), rng.choice(pts)
            w = Fraction(rng.randint(0, 7), 7)
            pts.append(vadd(vscale(w, a), vscale(1 - w, b)))
        pts += rng.sample(pts, rng.randint(0, len(pts)))
        rng.shuffle(pts)
        distinct = sorted(set(pts))
        hull = oracle_ring(distinct) if n == 2 else sorted({distinct[0], distinct[-1]})
        kinds[n, min(len(hull), 3)] += 1

        delta = Polytope.from_points(pts)
        R, Q = delta.integer_ring
        assert Q > 0 and math.gcd(Q, *(x for P in R for x in P)) == 1
        assert delta.ring() == hull == fraction_ring(delta)
        assert delta.vertices == tuple(sorted(hull))
        assert delta.dim == n and delta.is_full_dimensional() == (len(hull) > n)

        P, D = _integer_points(rng.sample(pts, len(pts)))
        k = rng.randint(2, 9)
        spellings = [Polytope.from_points([tuple(map(str, v)) for v in reversed(hull)]),
                     Polytope._from_integer_points([tuple(k * x for x in p) for p in P], k * D),
                     serialize.polytope_from_json(json.loads(serialize.polytope_to_json(delta)))]
        for other in spellings:
            assert other == delta and hash(other) == hash(delta)
            assert other.integer_ring == delta.integer_ring

        t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
        c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        assert delta.translate(t) == Polytope.from_points([vadd(v, t) for v in hull])
        assert delta.dilate(c) == Polytope.from_points([vscale(c, v) for v in hull])
    # points and intervals in 1-D; points, segments and polygons in 2-D
    assert len(kinds) == 5 and min(kinds.values()) > 5


def _spelled_document(rng, pieces):
    """The JSON document of the pieces in a random order, each number
    "p/q" with p and q multiplied by 1, 2 or 3, so not always reduced."""
    def spell(x):
        k = rng.choice((1, 1, 2, 3))
        return f"{x.numerator * k}/{x.denominator * k}" if k > 1 else str(x)

    return {"pieces": [{"slope": [spell(c) for c in p.slope], "intercept": spell(p.intercept)}
                       for p in rng.sample(pieces, len(pieces))]}


def test_read_function_is_the_fraction_path():
    # a function read on integers equals the Fraction path, the pieces
    # pruned by the Fourier-Motzkin oracle and the Fraction pieces through
    # from_pieces: the same pieces, equality, hash, repr, document and walk
    rng = random.Random("subdivision/read")
    draws = [small_pieces(rng, rng.choice((1, 2))) for _ in range(80)]
    draws += [rational_pieces(rng) for _ in range(80)]
    draws += [coprime_pieces(rng, n, rng.choice(RATIONAL_DELTAS_1D if n == 1 else RATIONAL_DELTAS_2D))
              for n in (1, 2) for _ in range(40)]
    for k, grid in ((8, 5), (16, 5), (32, 7), (48, 7)):
        pieces = list(lattice_paraboloid(rng, k, grid).pieces)
        # and pieces that are never the strict maximum
        pieces += [AffineFunctional(p.slope, p.intercept + rng.randint(1, 3)) for p in pieces[:5]]
        draws.append(pieces)
    for pieces in draws:
        doc = _spelled_document(rng, pieces)
        g = serialize.pl_function_from_json(json.loads(json.dumps(doc)))
        old = oracle_pruned(pieces)
        f = PLConvexFunction.from_pieces(pieces)
        assert g.pieces == old == f.pieces
        S, D, C, E = _integer_pieces(old)
        form = (tuple(S), D, C, E)
        assert g == f == canonical_function(old)
        assert g.integer_form == f.integer_form == form
        assert hash(g) == hash(f) == hash((form,))
        assert repr(g) == repr(f) == f"PLConvexFunction(integer_form={form!r})"
        assert serialize.pl_function_to_json(g) == serialize.pl_function_to_json(f)
        assert g.subdivision == f.subdivision


def check_canonical(g):
    """g holds the canonical integer form: tuples, distinct slopes in
    increasing order, D and E least (gcd(D, S) = gcd(E, C) = 1), the
    least form of its Fraction pieces."""
    S, D, C, E = form = g.integer_form
    assert type(S) is tuple and type(C) is tuple and all(type(s) is tuple for s in S)
    assert list(S) == sorted(set(S)) and D > 0 and E > 0
    assert math.gcd(D, *(x for s in S for x in s)) == 1 == math.gcd(E, *C)
    P, L, Y, M = _integer_pieces(g.pieces)
    assert form == (tuple(P), L, Y, M)


@pytest.mark.parametrize("n", [1, 2])
def test_integer_operations_against_fraction_pieces(n):
    # shift, translate and + on the integer form equal the Fraction-piece
    # oracles of conftest, pruned receivers or not, with single pieces,
    # collinear slopes and sums whose pairs prune; every result holds a
    # canonical form
    rng = random.Random(f"operations/{n}")
    single = collinear = pruned = 0
    for _ in range(120):
        draw = rational_pieces if n == 2 and rng.random() < 0.5 else lambda r: small_pieces(r, n)
        f, g = (pruned_or_not(draw(rng), rng) for _ in range(2))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
        for got, want in ((f.shift(c), fraction_shift(f, c)), (f.translate(t), fraction_translate(f, t)),
                          (f + g, fraction_sum(f, g))):
            assert got == want and got.pieces == want.pieces
            check_canonical(got)
        single += len(f.pieces) == 1
        collinear += len(f.pieces) > 2 and not _spans(f.slopes, n)
        pruned += len((f + g).pieces) < len(f.pieces) * len(g.pieces)
    assert single > 2 and pruned > 50 and (n == 1 or collinear > 5)


def test_every_builder_holds_a_canonical_form():
    # the reader of unreduced strings, from_pieces, dual_transform,
    # convex_envelope, a solve_toric solution, support_function, shift,
    # translate and + all give the canonical form; other spellings of one
    # function (unreduced strings, a scaled form, the pieces as they are,
    # a zero shift or translation, the sum with zero) compare, hash and
    # print equal; the constructor refuses pieces
    rng = random.Random("subdivision/canonical")
    for delta in ACCEPTANCE_POLYTOPES + [rational_hexagon()]:
        n = delta.dim
        for _ in range(5):
            pieces = rational_pieces(rng) if n == 2 and rng.random() < 0.5 else small_pieces(rng, n)
            f = PLConvexFunction.from_pieces(pieces)
            g = random_admissible(rng, delta)
            read = serialize.pl_function_from_json(_spelled_document(rng, pieces))
            samples = [(p.slope, p.intercept) for p in small_pieces(rng, n)]
            nu = ma_measure(g, delta).measure_NR
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
            for pieces in (f.pieces, (f.pieces * 4)[:4]):
                with pytest.raises(TypeError):
                    PLConvexFunction(pieces)
            for h in (read, f, dual_transform(f, delta), convex_envelope(samples, delta),
                      solve_toric(delta, nu).solution, support_function(delta), g.shift(c),
                      f.translate(t), f + g):
                check_canonical(h)
            S, D, C, E = f.integer_form
            k, m = rng.randint(2, 9), rng.randint(2, 9)
            spellings = [read, canonical_function(f.pieces),
                         PLConvexFunction.from_form(([vscale(k, s) for s in S], k * D,
                                                     [m * x for x in C], m * E)),
                         f.shift(0), f.translate((0,) * n),
                         f + PLConvexFunction.from_pieces([((0,) * n, 0)])]
            for other in spellings:
                assert other == f and hash(other) == hash(f) and repr(other) == repr(f)
