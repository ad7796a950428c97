import heapq
import random
from fractions import Fraction
from math import factorial

import pytest

from plma import curves
from plma.curves import GraphError, GraphMeasure, MetricGraph
from plma.geometry import AffineFunctional, PLConvexFunction, Polytope
from plma.toric import mixed_ma
from plma.variational import MinOfConvex


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


def unpruned(pieces):
    """The max of the pieces with the lowest intercept per slope and no piece
    dropped, in canonical order for the constructor, so that the kernel also
    runs on pieces that are never the strict maximum."""
    best = {}
    for p in pieces:
        if p.slope not in best or p.intercept < best[p.slope]:
            best[p.slope] = p.intercept
    return PLConvexFunction(tuple(AffineFunctional(s, c) for s, c in sorted(best.items())))


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


def solve_sources(rho, n, edges, pinned):
    """curves.solve_laplacian on the form of zero values with the sources
    rho (a dict node -> rational, 0 where absent) on the nodes 0..n-1:
    the list of the n values as Fractions, 0 on the set `pinned`."""
    form = curves.laplacian_form([0] * n, rho, edges)
    G, d = curves.solve_laplacian(form, pinned)
    return [Fraction(g, d * form[1]) for g in G]


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
