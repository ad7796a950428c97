"""Exact rational convex geometry.

Polytopes in V-representation, finite-max-of-affine convex functions,
subdifferentials, volumes and moments, and Legendre-type transforms over
a polytope.  All coordinates are `fractions.Fraction`.  The predicates
scale them once to integers over a common denominator and run on `int`s,
so every predicate is exact, no floating point enters this module, and
there is one `Fraction` per result (the small-integer exact computation
of Yap, Comput. Geom. 1997).  Each predicate has one routine.  One chain
routine, `_half_chain`, builds every convex hull (`_ccw_ring`: each
cell's, and a polytope's once, in `Polytope.from_points`) and every lower
chain (`_chain_pairs`: the 1-D subdivision and the parallel edges of
collinear slopes).  Every
polytope, a point or a segment in the plane included, has one table of
integer half-planes, and containment is tested on it alone.

A function's integer form, its slopes S_i / D and intercepts C_i / E
over common denominators, is computed at most once and cached beside its
walk (`PLConvexFunction.integer_form`).  The walk runs on it, and so does
every exact reader of the function: evaluation, `is_admissible`,
`dual_transform`, the Monge-Ampere masses, the Legendre integral of the
energy and the envelope's samples.

One kernel, `subdivision`, computes the linearity subdivision of a
max-of-affine function on integers and speaks integers: each vertex is
X / q in lowest terms, with q > 0, beside the indices of the pieces whose
slopes span its cell (the subdifferential), and each edge is the index
pair of the two pieces that tie along it.  A reader builds its one
`Fraction` per result from X, q and the cell's first piece, which is
active at the vertex.  There is one walk per function:
`PLConvexFunction.subdivision` runs the kernel at most once, and
`from_pieces` hands it the walk that pruned the pieces to the essential
ones.  Breakpoints, the Monge-Ampere masses, the toric energy and the
envelopes all read that walk.  So does the Legendre transform
`dual_transform`: it takes F's vertices inside the polytope from F's
walk, and F's breakpoints along each side of the polytope from the 1-D
chain of F restricted to that side, each with its value read off the
cell that found it.  The 2-D walk takes O(k) exact operations per vertex
for k pieces, to find the pieces tied there, and O(k) per edge, to clip
it.  It remembers where each bounded edge leads, so that edge is clipped
once, from the end the walk reaches first, and not again from the other:
O(k*(V + B + U)) in all for V vertices, B bounded and U unbounded edges.

Both atomic measures, DiscreteMeasure here and curves.GraphMeasure, are
an AtomicMeasure: one canonical form (masses summed by location, zero
masses dropped, atoms in the class's order), one mass dict, and one
merge by location behind + and -.

Ambient dimensions 1 and 2 are supported.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key


class DimensionError(ValueError):
    """Raised when ambient dimensions disagree or are unsupported."""


def as_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating-point input rejected; pass Fraction/int/str")
    return Fraction(x)


def as_point(p) -> tuple:
    return tuple(as_fraction(c) for c in p)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _idot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def cross2(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _check_dim(n: int):
    if n not in (1, 2):
        raise DimensionError(f"ambient dimension {n} not supported (use 1 or 2)")


def _hull2(points):
    """Extreme points of a sequence of 2-D rational points, in
    counterclockwise boundary order, found on the integer points over their
    common denominator.  Collapses to 1 or 2 points for degenerate inputs.
    """
    P, _ = _integer_points(points)
    back = dict(zip(P, points))
    return [back[p] for p in _ccw_ring(sorted(back))]


def _ccw_ring(pts):
    """Andrew's monotone chain on lex-sorted distinct 2-D points, with strict
    turns, so collinear points are dropped: the counterclockwise ring from
    the first point, or its two ends when all points are collinear."""
    if len(pts) <= 2:
        return pts
    ring = _half_chain(pts)[:-1] + _half_chain(reversed(pts))[:-1]
    return ring if len(ring) >= 3 else [pts[0], pts[-1]]


def _half_chain(pts):
    """The strict vertices of the lower convex chain of 2-D points (x, y)
    by increasing x, or of the upper chain by decreasing x: a point stays
    only where the chain turns strictly left.  The module's one chain."""
    out = []
    for p in pts:
        x, y = p
        while len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            if (x2 - x1) * (y - y1) > (y2 - y1) * (x - x1):
                break
            out.pop()
        out.append(p)
    return out


def _scaled(xs, D):
    """The integers D * x for rationals x whose denominators divide D."""
    return tuple(x.numerator * (D // x.denominator) for x in xs)


def _integer_points(points):
    """Rational points as integer points P over their common denominator D,
    each point being P / D; returns (P, D)."""
    D = math.lcm(*(c.denominator for p in points for c in p))
    return [_scaled(p, D) for p in points], D


def _integer_pieces(pieces):
    """Slopes S_i / D and intercepts C_i / E of affine pieces over common
    denominators; returns (S, D, C, E)."""
    S, D = _integer_points([p.slope for p in pieces])
    E = math.lcm(*(p.intercept.denominator for p in pieces))
    return S, D, _scaled([p.intercept for p in pieces], E), E


def _point(X, q):
    """The rational point X / q of integers X and q > 0."""
    return tuple(Fraction(x, q) for x in X)


def _vertex_value(form, X, q, a):
    """y with g(X / q) = y / (D E q), for g of integer form (S, D, C, E)
    and a piece a of g active at X / q, such as a cell's first piece."""
    S, D, C, E = form
    return E * _idot(S[a], X) - D * q * C[a]


def cell_sums(ring):
    """(A, M): n! D^n times the volume and (n+1)! D^(n+1) times the first
    moment (the integral of u du) of a cell whose extreme slopes are the
    integer points P / D of ring.  In 1-D, for [a, b], A = b - a and
    M = (b^2 - a^2,).  In 2-D they are the shoelace sums over the
    counterclockwise edges (p, q): A = sum cross(p, q) and
    M = sum (p + q) cross(p, q)."""
    if len(ring[0]) == 1:
        (a,), (b,) = ring
        return b - a, (b * b - a * a,)
    A = M0 = M1 = 0
    for (p0, p1), (q0, q1) in zip(ring, ring[1:] + ring[:1]):
        c = p0 * q1 - p1 * q0
        A += c
        M0 += (p0 + q0) * c
        M1 += (p1 + q1) * c
    return A, (M0, M1)


@dataclass(frozen=True)
class Polytope:
    """Rational polytope, canonically the lex-sorted tuple of extreme points."""

    dim: int
    vertices: tuple

    @staticmethod
    def from_points(points) -> "Polytope":
        pts = [as_point(p) for p in points]
        if not pts:
            raise ValueError("polytope needs at least one point")
        n = len(pts[0])
        _check_dim(n)
        if any(len(p) != n for p in pts):
            raise DimensionError("points of mixed dimension")
        if n == 1:
            lo, hi = min(pts), max(pts)
            hull = [lo] if lo == hi else [lo, hi]
        else:
            hull = _hull2(pts)
        delta = Polytope(n, tuple(sorted(hull)))
        delta.__dict__["_ring"] = tuple(hull)
        return delta

    def ring(self):
        """Boundary vertices in counterclockwise order (2-D), as a new list."""
        return list(self._ring)

    @cached_property
    def _ring(self):
        """`from_points` seeds this with its hull; `translate`, `dilate` and
        the constructor build it here on first use."""
        return self.vertices if self.dim == 1 else tuple(_hull2(self.vertices))

    @cached_property
    def _integer_ring(self):
        """(R, Q): the boundary ring as integer points R over their common
        denominator Q, each vertex being R_j / Q."""
        return _integer_points(self._ring)

    def volume(self) -> Fraction:
        """The length hi - lo in 1-D; in 2-D the shoelace sum of the integer
        ring R / Q, over 2 Q^2.  Both are 0 for a point, and the shoelace
        sum is 0 for a segment too."""
        if self.dim == 1:
            return self.vertices[-1][0] - self.vertices[0][0]
        R, Q = self._integer_ring
        return Fraction(sum(cross2(a, b) for a, b in zip(R, R[1:] + R[:1])), 2 * Q * Q)

    def is_full_dimensional(self) -> bool:
        return self.volume() > 0

    @cached_property
    def _halfplanes(self):
        """Every polytope's one table: primitive integer pairs (n, c) with
        <n, u> >= c exactly on it.  In 2-D, one per counterclockwise side
        A -> B of the integer ring R / Q: n = Q (A1 - B1, B0 - A0), Q times
        the inward normal of B - A, and c = (A1 - B1) A0 + (B0 - A0) A1,
        over their gcd; the side A -> A of a point has gcd 0 and is
        skipped.  A ring of one or two points adds its bounding box.  So an
        interval is its ends, a segment its line (the sides A -> B and
        B -> A) and its box, and a point its box."""
        R, Q = self._integer_ring
        out = []
        if self.dim == 2:
            for (a0, a1), (b0, b1) in zip(R, R[1:] + R[:1]):
                n0, n1 = a1 - b1, b0 - a0
                N0, N1, c = Q * n0, Q * n1, n0 * a0 + n1 * a1
                h = math.gcd(N0, N1, c)
                if h:
                    out.append(((N0 // h, N1 // h), c // h))
        if len(R) < 3:
            for j in range(self.dim):
                e = tuple(int(i == j) for i in range(self.dim))
                lo, hi = min(v[j] for v in self._ring), max(v[j] for v in self._ring)
                out.append((vscale(lo.denominator, e), lo.numerator))
                out.append((vscale(-hi.denominator, e), -hi.numerator))
        return tuple(out)

    def _contains_scaled(self, X, q) -> bool:
        """Whether the point X / q, q > 0, lies in the polytope: on integers,
        <n, X> >= c q for each half-plane (n, c) of its table."""
        return all(_idot(n, X) >= c * q for n, c in self._halfplanes)

    def contains(self, p) -> bool:
        """Whether p lies in the polytope: p = X / q over the lcm q of its
        denominators, tested on integers (`_contains_scaled`), whatever
        the polytope's dimension and number of vertices."""
        p = as_point(p)
        if len(p) != self.dim:
            raise DimensionError("point/polytope dimension mismatch")
        q = math.lcm(*(x.denominator for x in p))
        return self._contains_scaled(_scaled(p, q), q)

    def translate(self, t) -> "Polytope":
        t = as_point(t)
        return Polytope(self.dim, tuple(sorted(vadd(v, t) for v in self.vertices)))

    def dilate(self, c) -> "Polytope":
        c = as_fraction(c)
        if c <= 0:
            raise ValueError("dilation factor must be positive")
        return Polytope(self.dim, tuple(sorted(vscale(c, v) for v in self.vertices)))


@dataclass(frozen=True)
class AffineFunctional:
    """u . v - intercept, with slope u in the dual space."""

    slope: tuple
    intercept: Fraction

    @staticmethod
    def make(slope, intercept) -> "AffineFunctional":
        return AffineFunctional(as_point(slope), as_fraction(intercept))

    def value(self, v) -> Fraction:
        return dot(self.slope, v) - self.intercept


def _chain_pairs(xs, C):
    """The index pairs (a, b) of pieces consecutive on the lower chain of
    the points (x_i, C_i), by increasing x, for distinct integers x_i: the
    1-D cells, and the parallel edges of collinear 2-D slopes."""
    index = {x: i for i, x in enumerate(xs)}
    chain = _half_chain(sorted(zip(xs, C)))
    return [(index[a], index[b]) for (a, _), (b, _) in zip(chain, chain[1:])]


def subdivision(form):
    """Linearity subdivision of g = max(<s_i, .> - c_i), exactly.

    form is the pieces' integer form (S, D, C, E): slopes S_i / D and
    intercepts C_i / E over common denominators, as `_integer_pieces`
    computes it.  Pieces are named by their index i.

    Returns (cells, edges).  cells lists, sorted by the vertex, a triple
    (X, q, ring) for every vertex X / q of the subdivision, in lowest
    terms with q > 0: ring holds the pieces whose slopes are the extreme
    points of the subdifferential at the vertex, counterclockwise from the
    lex-first slope in 2-D, left and right in 1-D.  The subdifferential
    is the convex hull of those slopes, so its volume is the Monge-Ampere
    mass at the vertex, and every piece of ring is active there, so g at
    the vertex is read off ring[0] (`_vertex_value`).

    edges (2-D only) lists, for each edge of the subdivision, the pair
    (a, b) of pieces that are the maximum along it.  A bounded edge
    appears once from each end, as (a, b) and (b, a).

    The vertices are the lower facets of the lifted points (s_i, c_i).  In
    1-D they are read off the lower chain of the integer slopes and
    intercepts (`_chain_pairs`): the pieces a, b consecutive on it meet at
    X / q = D (C_b - C_a) / (E (S_b - S_a)).  In 2-D `_walk` goes from
    vertex to vertex; collinear slopes give no vertex, and their edges are
    the parallel lines of the same chain along the slope line.
    """
    S, D, C, E = form
    if len(S[0]) == 1:
        cells = []
        for a, b in _chain_pairs([s for s, in S], C):
            X, q = D * (C[b] - C[a]), E * (S[b][0] - S[a][0])
            h = math.gcd(X, q)
            cells.append(((X // h,), q // h, (a, b)))
        return cells, []
    return _walk(form)


def _vertex_order(a, b):
    """The lexicographic order of two cells' vertices X / q and Y / r, by
    cross-multiplication: its sign is that of the first nonzero
    X_j r - Y_j q."""
    (X, q, _), (Y, r, _) = a, b
    for x, y in zip(X, Y):
        d = x * r - y * q
        if d:
            return d
    return 0


def _walk(form):
    """The 2-D part of `subdivision`, on the integer form (S, D, C, E).

    A vertex is X / q in lowest terms, where piece i has the value
    (E <S_i, X> - D q C_i) / (D E q); no Fraction is built.  The cell of a
    vertex is the monotone chain of the integer slopes of the pieces tied
    there, counterclockwise from the lex-first.  The walk starts at one
    vertex and leaves each vertex v along the outward normal n of every
    edge (a, b) of its cell: the next vertex is v + t*n for the smallest
    t > 0 at which some piece overtakes a and b, and none means the edge
    is unbounded.  Finding the tied pieces is O(k) exact work per vertex
    and a clip is O(k) per edge, for k pieces.  When the edge (a, b) of v
    leads to w, the edge (b, a) of w leads back to v, and the walk records
    that, so each bounded edge is clipped once and each unbounded edge
    once.  The cells are sorted by their vertices with an exact
    cross-multiplied comparison, whose numbers do not grow with the
    number of vertices.  Slopes that do not span the plane go to
    `_chain_pairs`.
    """
    S, D, C, E = form
    u = vsub(S[-1], S[0])
    if all(cross2(u, vsub(s, S[0])) == 0 for s in S):
        # along the line, the first coordinate that varies orders the slopes
        j = 0 if u[0] else 1
        return [], _chain_pairs([s[j] for s in S], C)
    index = {s: i for i, s in enumerate(S)}

    def values(X, q):
        """The pieces' values at X / q, times D E q, and their max."""
        (X0, X1), Dq = X, D * q
        vals = [E * (s0 * X0 + s1 * X1) - Dq * c for (s0, s1), c in zip(S, C)]
        return vals, max(vals)

    def cell(vals, m):
        return tuple(index[s] for s in _ccw_ring(sorted([s for s, v in zip(S, vals) if v == m])))

    def clip(vals, m, a, N):
        """(G, R): some piece first overtakes piece a at X + G/(E R) * N;
        G is that piece's gap m - v to the max at X."""
        n0, n1 = N
        base = S[a][0] * n0 + S[a][1] * n1
        best = None
        for (s0, s1), v in zip(S, vals):
            rate = s0 * n0 + s1 * n1 - base
            if rate > 0 and (best is None or (m - v) * best[1] < best[0] * rate):
                best = (m - v, rate)
        return best

    def step(X, q, N, clipped):
        G, R = clipped
        X0, X1, q = E * R * X[0] + G * N[0], E * R * X[1] + G * N[1], E * R * q
        h = math.gcd(X0, X1, q)
        return (X0 // h, X1 // h), q // h

    # Start anywhere and move until dim+1 affinely independent pieces tie:
    # off the piece's own region, then along the tie line of two pieces.
    X, q = (0, 0), 1
    vals, m = values(X, q)
    ring = cell(vals, m)
    while len(ring) < 3:
        a = ring[0]
        if len(ring) == 1:
            N = vsub(next(s for s in S if s != S[a]), S[a])
        else:
            u = vsub(S[ring[1]], S[a])
            N = (u[1], -u[0])
            if clip(vals, m, a, N) is None:
                N = (-u[1], u[0])
        X, q = step(X, q, N, clip(vals, m, a, N))
        vals, m = values(X, q)
        ring = cell(vals, m)

    cells, edges = [], []
    todo, seen = [(X, q, vals, m, ring)], {(X, q)}
    reached = set()  # edges (b, a) whose far end was found along (a, b)
    while todo:
        X, q, vals, m, ring = todo.pop()
        cells.append((X, q, ring))
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.append((a, b))
            if (a, b) in reached:
                continue
            u = vsub(S[b], S[a])
            N = (u[1], -u[0])  # outward normal of the CCW edge (a, b)
            clipped = clip(vals, m, a, N)
            if clipped is None:
                continue
            reached.add((b, a))
            w = step(X, q, N, clipped)
            if w not in seen:
                seen.add(w)
                wvals, wm = values(*w)
                todo.append((*w, wvals, wm, cell(wvals, wm)))
    cells.sort(key=cmp_to_key(_vertex_order))
    return cells, edges


@dataclass(frozen=True)
class PLConvexFunction:
    """Finite max of affine functionals; convex and piecewise linear.

    The constructor takes canonical pieces: distinct slopes, in (slope,
    intercept) order.
    """

    pieces: tuple

    @staticmethod
    def from_pieces(pieces) -> "PLConvexFunction":
        """The max of the pieces, on its essential pieces.

        Validates the pieces and computes their integer form (S, D, C, E)
        once.  On it, it keeps the lowest intercept C_i per integer slope
        S_i and orders the pieces by S_i, which is the order of the slopes
        S_i / D.  Then one `subdivision` walk: a piece is kept iff it is in
        some cell or edge of the walk, that is iff it is the strict maximum
        somewhere, and the kept pieces are renumbered in order.  The result
        keeps that walk, on the new numbers, and the integer form it ran
        on, sliced to the kept pieces.  Code that already holds canonical
        pieces calls the constructor instead.
        """
        ps = [p if isinstance(p, AffineFunctional) else AffineFunctional.make(*p) for p in pieces]
        if not ps:
            raise ValueError("need at least one affine piece")
        n = len(ps[0].slope)
        _check_dim(n)
        if any(len(p.slope) != n for p in ps):
            raise DimensionError("pieces of mixed dimension")
        S, D, C, E = _integer_pieces(ps)
        # Same slope: only the lowest intercept (largest value) can matter.
        best = {}
        for i, (s, c) in enumerate(zip(S, C)):
            if s not in best or c < C[best[s]]:
                best[s] = i
        order = [best[s] for s in sorted(best)]
        ps, S, C = [ps[i] for i in order], [S[i] for i in order], [C[i] for i in order]
        g = PLConvexFunction(tuple(ps))
        if len(ps) > 1:
            # A piece is the strict maximum somewhere iff its slope is an
            # extreme point of some cell of the subdivision (or of some
            # parallel edge pair, when the slopes are collinear).
            cells, edges = subdivision((S, D, C, E))
            keep = {i for _, _, ring in cells for i in ring}
            keep.update(i for pair in edges for i in pair)
            if len(keep) < len(ps):
                kept = sorted(keep)
                new = {i: j for j, i in enumerate(kept)}
                cells = [(X, q, tuple(new[i] for i in ring)) for X, q, ring in cells]
                edges = [(new[a], new[b]) for a, b in edges]
                S, C = [S[i] for i in kept], [C[i] for i in kept]
                g = PLConvexFunction(tuple(ps[i] for i in kept))
            g.__dict__["subdivision"] = (cells, edges)
        g.__dict__["integer_form"] = (S, D, C, E)
        return g

    @cached_property
    def integer_form(self):
        """(S, D, C, E): the slopes S_i / D and intercepts C_i / E of the
        pieces, in order, over common denominators; computed at most once
        per function and read by the walk and by every exact reader."""
        return _integer_pieces(self.pieces)

    @cached_property
    def subdivision(self):
        """(cells, edges) of the kernel `subdivision` on the integer form:
        each cell (X, q, ring) a vertex X / q with the indices of its cell's
        pieces, each edge an index pair.  Walked at most once per function;
        every reader shares it and only reads."""
        return subdivision(self.integer_form)

    @property
    def dim(self) -> int:
        return len(self.pieces[0].slope)

    @property
    def slopes(self):
        return tuple(p.slope for p in self.pieces)

    def __call__(self, v) -> Fraction:
        """g(v), on the integer form (S, D, C, E): at v = X / q it is
        max_i (E <S_i, X> - D q C_i) / (D E q), one Fraction."""
        v = as_point(v)
        if len(v) != self.dim:
            raise DimensionError("argument dimension mismatch")
        S, D, C, E = self.integer_form
        q = math.lcm(*(x.denominator for x in v))
        X, Dq = _scaled(v, q), D * q
        return Fraction(max(E * _idot(s, X) - Dq * c for s, c in zip(S, C)), Dq * E)

    def active_pieces(self, v):
        v = as_point(v)
        m = self(v)
        return [p for p in self.pieces if p.value(v) == m]

    def shift(self, c) -> "PLConvexFunction":
        """Pointwise g + c."""
        c = as_fraction(c)
        return PLConvexFunction(
            tuple(AffineFunctional(p.slope, p.intercept - c) for p in self.pieces)
        )

    def translate(self, t) -> "PLConvexFunction":
        """g(. - t)."""
        t = as_point(t)
        return PLConvexFunction(
            tuple(AffineFunctional(p.slope, p.intercept + dot(p.slope, t)) for p in self.pieces)
        )

    def __add__(self, other: "PLConvexFunction") -> "PLConvexFunction":
        if self.dim != other.dim:
            raise DimensionError("dimension mismatch in sum")
        # The sum is the max of all pairwise sums; pruning keeps the pairs
        # that are strictly active together somewhere.
        return PLConvexFunction.from_pieces(
            AffineFunctional(vadd(p.slope, q.slope), p.intercept + q.intercept)
            for p in self.pieces
            for q in other.pieces
        )


@dataclass(frozen=True)
class AtomicMeasure:
    """Signed atomic measure with rational masses, in one canonical form:
    one atom per location, no zero mass, the atoms in the class's order.

    `_order` is that order, a sort key on the (location, mass) pairs; None
    sorts the pairs themselves, that is by location.  DiscreteMeasure
    (points, sorted) and curves.GraphMeasure (graph locations, by repr)
    share everything but how a location is read and ordered: the masses,
    the scaling, and the sum and difference, m + n and m - n, which merge
    two canonical measures by location.
    """

    atoms: tuple  # ((location, mass), ...) in canonical order

    _order = None

    @classmethod
    def _canonical(cls, masses: dict):
        """The measure of a dict of masses by canonical location: zero
        masses dropped, the atoms sorted in the class's order."""
        return cls(tuple(sorted(((k, m) for k, m in masses.items() if m != 0), key=cls._order)))

    @staticmethod
    def _summed(atoms, read) -> dict:
        """The masses of (location, mass) pairs summed by the canonical
        location read(location), for a subclass's from_atoms."""
        acc = {}
        for loc, mass in atoms:
            key = read(loc)
            acc[key] = acc.get(key, Fraction(0)) + as_fraction(mass)
        return acc

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_positive(self) -> bool:
        return all(m > 0 for _, m in self.atoms)

    @cached_property
    def masses(self) -> dict:
        """Mass by location, for the atoms' locations only."""
        return dict(self.atoms)

    def scale(self, c):
        # the atoms stay in order and nonzero unless c is 0
        c = as_fraction(c)
        if c == 0:
            return type(self)(())
        return type(self)(tuple((k, c * m) for k, m in self.atoms))

    def __add__(self, other):
        """Both measures are canonical already, so their masses are merged
        by location, with no location read again."""
        acc = dict(self.atoms)
        for k, m in other.atoms:
            acc[k] = acc[k] + m if k in acc else m
        return self._canonical(acc)

    def __sub__(self, other):
        return self + other.scale(-1)


class DiscreteMeasure(AtomicMeasure):
    """Atomic measure on the points of R^n, its atoms sorted by point.

    Atoms of different dimensions raise DimensionError."""

    @staticmethod
    def from_atoms(atoms) -> "DiscreteMeasure":
        acc = DiscreteMeasure._summed(atoms, as_point)
        if len({len(p) for p in acc}) > 1:
            raise DimensionError("atoms of mixed dimension")
        return DiscreteMeasure._canonical(acc)

    def mass_at(self, loc) -> Fraction:
        return self.masses.get(as_point(loc), Fraction(0))

    def integrate(self, fn) -> Fraction:
        """Pair against a pointwise-evaluable function (exact)."""
        return sum((m * fn(p) for p, m in self.atoms), Fraction(0))


# ---------------------------------------------------------------------------
# operations


def support_function(delta: Polytope) -> PLConvexFunction:
    """max over vertices u of delta of <u, .>."""
    return PLConvexFunction(tuple(AffineFunctional(u, Fraction(0)) for u in delta.vertices))


def is_admissible(g: PLConvexFunction, delta: Polytope) -> bool:
    """True iff all slopes of g lie in delta and every vertex of delta is a slope.

    For piecewise-linear g this is equivalent to g - support_function(delta)
    being bounded on the whole space.

    It runs on g's integer slopes S_i / D: S_i lies in delta iff
    <n, S_i> >= c D for each of delta's integer half-planes (n, c), which
    every polytope has, a point or a segment in the plane included, and a
    vertex u of delta is a slope iff D u is one of the S_i.
    """
    if g.dim != delta.dim:
        raise DimensionError("dimension mismatch")
    S, D, _, _ = g.integer_form
    if not all(_idot(n, s) >= c * D for n, c in delta._halfplanes for s in S):
        return False
    slopes = set(S)
    return all(
        all(D % x.denominator == 0 for x in u) and _scaled(u, D) in slopes
        for u in delta.vertices
    )


def subdifferential(g: PLConvexFunction, v) -> Polytope:
    """Convex hull of the slopes active at v."""
    return Polytope.from_points([p.slope for p in g.active_pieces(v)])


def breakpoints(g: PLConvexFunction):
    """Vertices of the linearity subdivision induced by g.

    These are the points where at least dim+1 pieces are active with
    affinely spanning slopes; they are the only possible atoms of the
    real Monge-Ampere measure of g.  Each is built from the vertex X / q of
    g's walk, in the walk's sorted order.
    """
    return [_point(X, q) for X, q, _ in g.subdivision[0]]


def dual_transform(F: PLConvexFunction, delta: Polytope) -> PLConvexFunction:
    """h(v) = max over u in delta of (<u, v> - F(u)).

    The Legendre-type transform of F restricted to delta.  The maximum,
    for each v, is attained at a vertex of the subdivision of delta
    induced by the linearity regions of F, so h is the max-affine
    function with one piece (u, F(u)) per such vertex.  The candidates
    come from three sources: the vertices of delta, the vertices of F's
    subdivision inside delta, and, in 2-D, the breakpoints of F along each
    side p -> q of delta.  On that side s -> F(p + s*(q - p)) is the 1-D
    max of the pieces with slope <s_i, q - p> and intercept c_i - <s_i, p>,
    and the vertices of its lower chain with 0 < s < 1 are the points where
    an edge of F's subdivision crosses the side.

    It runs on integers, with one Fraction per result.  F's slopes are
    S_i / D and its intercepts C_i / E, and delta's vertices are V / Q.  F
    at a vertex u of delta is F(u), the integer max of
    `PLConvexFunction.__call__`.  A walk vertex X / q is tested against
    delta's integer half-planes, <n, X> >= c q, and only one inside delta
    becomes a point.  On each side P -> P' of delta's ring,
    F((P + s (P' - P)) / Q) has the 1-D integer form of slopes
    <S_i, P' - P> / (D Q) and intercepts (D Q C_i - E <S_i, P>) / (D Q E);
    with the lowest intercept kept per slope, its `subdivision` gives the
    breakpoints s = X / q, kept when 0 < X < q.  The two sides of a segment
    find the same points, a point's one side none.

    Only the vertices of delta pay for a max over all k pieces.  Every
    other value is read off the kernel cell that found it (`_vertex_value`)
    in O(1): every piece of a cell is active at its vertex (Lucet, Numer.
    Algorithms 1997).
    """
    if F.dim != delta.dim:
        raise DimensionError("dimension mismatch")
    S, D, C, E = form = F.integer_form
    values = {u: F(u) for u in delta._ring}
    for X, q, ring in F.subdivision[0]:
        if delta._contains_scaled(X, q):
            values[_point(X, q)] = Fraction(_vertex_value(form, X, q, ring[0]), D * E * q)
    if delta.dim == 2:
        R, Q = delta._integer_ring
        DQ = D * Q
        for P, P1 in zip(R, R[1:] + R[:1]):
            d0, d1 = P1[0] - P[0], P1[1] - P[1]
            # equal restricted slopes: only the lowest intercept can matter
            side = {}
            for (s0, s1), c in zip(S, C):
                x, y = s0 * d0 + s1 * d1, DQ * c - E * (s0 * P[0] + s1 * P[1])
                if x not in side or y < side[x]:
                    side[x] = y
            side_form = ([(x,) for x in side], DQ, list(side.values()), DQ * E)
            for (X,), q, (a, _) in subdivision(side_form)[0]:
                if 0 < X < q:
                    u = (Fraction(q * P[0] + X * d0, q * Q), Fraction(q * P[1] + X * d1, q * Q))
                    values[u] = Fraction(_vertex_value(side_form, (X,), q, a), DQ * DQ * E * q)
    return PLConvexFunction(tuple(AffineFunctional(u, y) for u, y in sorted(values.items())))


def convex_envelope(samples, delta: Polytope) -> PLConvexFunction:
    """Largest convex function with slopes in delta lying below the samples.

    samples: iterable of (point, value) pairs.  The result h satisfies
    h(p) <= y for every sample and no convex minorant with slopes in
    delta exceeds it anywhere.  Samples of mixed dimension, or of another
    dimension than delta, raise DimensionError.

    The sample function is pruned like any other, and `dual_transform`
    reads the walk that pruned it.
    """
    samples = [(as_point(p), as_fraction(y)) for p, y in samples]
    if not samples:
        raise ValueError("empty sample set")
    F = PLConvexFunction.from_pieces(AffineFunctional(p, y) for p, y in samples)
    return dual_transform(F, delta)
