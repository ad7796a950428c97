"""Exact rational convex geometry.

Polytopes in V-representation, finite-max-of-affine convex functions,
subdifferentials, volumes and moments, and Legendre-type transforms over
a polytope.  All coordinates are `fractions.Fraction`.  The predicates
scale them once to integers over a common denominator and then run on
`int`s: the walk, the 1-D chain and the Legendre transform on the slopes
and intercepts of all pieces (the transform also on the vertices of the
polytope), each cell's monotone chain on its tied slopes, the convex hull
on its points, the point-in-polygon test on a table of integer
half-planes, one per side, and the cell volume and moment on the slopes
of the cell.  So every predicate is exact, no floating point enters this
module, and there is one `Fraction` per result (the small-integer exact
computation of Yap, Comput. Geom. 1997).

A function's integer form, its slopes S_i / D and intercepts C_i / E
over common denominators, is computed at most once and cached beside its
walk (`PLConvexFunction.integer_form`).  The walk runs on it, and so does
every exact reader of the function: evaluation, `is_admissible`,
`dual_transform`, and through `PLConvexFunction.integer_cells` the
Monge-Ampere masses, the Legendre integral of the energy and the
envelope's samples.

One kernel, `subdivision`, computes the linearity subdivision of a
max-of-affine function: its vertices, the cell (subdifferential) at each
and the pairs of pieces that tie along its edges.  There is one walk per
function: `PLConvexFunction.subdivision` runs the kernel at most once,
and `from_pieces` hands it the walk that pruned the pieces to the
essential ones.  Breakpoints, the Monge-Ampere masses, the toric energy
and the envelopes all read that walk.  So does the Legendre transform
`dual_transform`: it takes F's vertices inside the polytope from F's
walk, and F's breakpoints along each side of the polytope from the 1-D
chain of F restricted to that side, each with its value read off the
cell that found it.  The walk
takes O(k) exact operations per vertex and per edge for k pieces, O(k*V)
in all for V vertices.

Ambient dimensions 1 and 2 are supported.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


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
    out = []
    for x, y in pts:
        while len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            if (x2 - x1) * (y - y1) > (y2 - y1) * (x - x1):
                break
            out.pop()
        out.append((x, y))
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


def ring_area(ring):
    """Signed area of a polygon given by its boundary points: the shoelace
    sum on the integer points P / D, over 2 D^2."""
    P, D = _integer_points(ring)
    return Fraction(sum(cross2(a, b) for a, b in zip(P, P[1:] + P[:1])), 2 * D * D)


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
        return Polytope(n, tuple(sorted(set(hull))))

    def ring(self):
        """Boundary vertices in counterclockwise order (2-D), as a new list."""
        return list(self._ring)

    @cached_property
    def _ring(self):
        return self.vertices if self.dim == 1 else tuple(_hull2(self.vertices))

    def volume(self) -> Fraction:
        if self.dim == 1:
            if len(self.vertices) < 2:
                return Fraction(0)
            return self.vertices[-1][0] - self.vertices[0][0]
        ring = self.ring()
        if len(ring) < 3:
            return Fraction(0)
        return ring_area(ring)

    def is_full_dimensional(self) -> bool:
        return self.volume() > 0

    @cached_property
    def _halfplanes(self):
        """Integer pairs (n, c) with <n, u> >= c on the polytope: in 1-D
        one per end, in 2-D one per counterclockwise side (a, b) of a ring
        of at least 3 points, n the inward normal of b - a."""
        if self.dim == 1:
            lo, hi = self.vertices[0][0], self.vertices[-1][0]
            return (((lo.denominator,), lo.numerator), ((-hi.denominator,), -hi.numerator))
        out = []
        for a, b in zip(self._ring, self._ring[1:] + self._ring[:1]):
            n0, n1 = a[1] - b[1], b[0] - a[0]
            c = n0 * a[0] + n1 * a[1]
            m = math.lcm(n0.denominator, n1.denominator, c.denominator)
            N0, N1, c = _scaled((n0, n1, c), m)
            out.append(((N0, N1), c))
        return tuple(out)

    def contains(self, p) -> bool:
        """Whether p lies in the polytope.  In 2-D, p = (x0/q0, x1/q1) lies in a
        polygon iff n0 x0 q1 + n1 x1 q0 >= c q0 q1 for every side's integer
        half-plane ((n0, n1), c)."""
        p = as_point(p)
        if len(p) != self.dim:
            raise DimensionError("point/polytope dimension mismatch")
        if self.dim == 1:
            return self.vertices[0][0] <= p[0] <= self.vertices[-1][0]
        ring = self._ring
        if len(ring) == 1:
            return p == ring[0]
        if len(ring) == 2:
            a, b = ring
            if cross2(vsub(b, a), vsub(p, a)) != 0:
                return False
            t = vsub(p, a)
            d = vsub(b, a)
            # p = a + s*d with s in [0,1]
            s = t[0] / d[0] if d[0] != 0 else t[1] / d[1]
            return 0 <= s <= 1
        x0, q0, x1, q1 = p[0].numerator, p[0].denominator, p[1].numerator, p[1].denominator
        return all(n0 * x0 * q1 + n1 * x1 * q0 >= c * q0 * q1 for (n0, n1), c in self._halfplanes)

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


def _lower_chain(lifted):
    """The strict vertices of the lower convex chain of lifted points.

    lifted: (x, c, piece) triples with distinct x; returns the triples at
    the vertices of the chain, by increasing x.  Points lifted onto the
    interior of a chain segment, or above the chain, are dropped.
    """
    out = []
    for x, c, p in sorted(lifted, key=lambda t: t[0]):
        while len(out) >= 2:
            (x1, c1, _), (x2, c2, _) = out[-2], out[-1]
            if (x2 - x1) * (c - c1) - (c2 - c1) * (x - x1) > 0:
                break
            out.pop()
        out.append((x, c, p))
    return out


def subdivision(pieces, form):
    """Linearity subdivision of g = max(<s_i, .> - c_i), exactly.

    form is the pieces' integer form (S, D, C, E), as `_integer_pieces`
    computes it.

    Returns (cells, edges).  cells lists, in sorted order, every vertex v
    of the subdivision with its cell: the pieces whose slopes are the
    extreme points of the subdifferential at v (counterclockwise in 2-D,
    left and right in 1-D).  The subdifferential is the convex hull of
    those slopes, so its volume is the Monge-Ampere mass at v.

    edges (2-D only) lists, for each edge of the subdivision, the pair
    (a, b) of pieces that are the maximum along it.  A bounded edge
    appears once from each end.

    The vertices are the lower facets of the lifted points (s_i, c_i).  In
    1-D they are read off the lower chain of the integer slopes S_i / D and
    intercepts C_i / E: the pieces a, b consecutive on it meet at
    D (C_b - C_a) / (E (S_b - S_a)).  In 2-D the walk starts at one
    vertex and leaves each vertex v along the outward normal n of every
    edge (a, b) of its cell: the next vertex is v + t*n for the smallest
    t > 0 at which some piece overtakes a and b, and none means the edge
    is unbounded.  That is O(k) exact work per vertex and per edge, for k
    pieces.  Collinear slopes in 2-D give no vertex; their edges are the
    parallel lines of the lower chain along the slope line, which an O(k)
    cross-product test on the integer slopes detects.
    """
    pieces = list(pieces)
    if len(pieces[0].slope) == 1:
        S, D, C, E = form
        chain = _lower_chain([(s, c, p) for (s,), c, p in zip(S, C, pieces)])
        cells = [
            ((Fraction(D * (cb - ca), E * (sb - sa)),), (a, b))
            for (sa, ca, a), (sb, cb, b) in zip(chain, chain[1:])
        ]
        return cells, []
    return _walk(pieces, form)


def _parallel_edges(pieces, S, C):
    """Edges of a 2-D subdivision whose integer slopes S lie on one line:
    parallel full lines, one per pair of consecutive pieces of the lower
    chain along the slope line, from its lexicographically first end to
    its last."""
    u = vsub(max(S), min(S))
    chain = [p for _, _, p in _lower_chain(
        [(s0 * u[0] + s1 * u[1], c, p) for (s0, s1), c, p in zip(S, C, pieces)])]
    return list(zip(chain, chain[1:]))


def _walk(pieces, form):
    """The 2-D part of `subdivision`.

    It runs on the integer form: slopes are S_i / D and intercepts C_i / E
    over common denominators, and a vertex is X / q in lowest terms, where
    piece i has the value (E <S_i, X> - D q C_i) / (D E q).  The cell of a vertex
    is the monotone chain of the integer slopes of the pieces tied there,
    counterclockwise from the lex-first.  Slopes that do not span the plane
    go to `_parallel_edges`.
    """
    S, D, C, E = form
    u = vsub(S[-1], S[0])
    if all(cross2(u, vsub(s, S[0])) == 0 for s in S):
        return [], _parallel_edges(pieces, S, C)
    index = {s: i for i, s in enumerate(S)}

    def gaps(X, q):
        vals = [E * (s0 * X[0] + s1 * X[1]) - D * q * c for (s0, s1), c in zip(S, C)]
        m = max(vals)
        return [m - val for val in vals]

    def cell(gap):
        return [index[s] for s in _ccw_ring(sorted(s for s, d in zip(S, gap) if d == 0))]

    def clip(gap, a, N):
        """(G, R): some piece first overtakes piece a at X + G/(E R) * N."""
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

    # Start anywhere and move until dim+1 affinely independent pieces tie:
    # off the piece's own region, then along the tie line of two pieces.
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
            N = (u[1], -u[0])  # outward normal of the CCW edge (a, b)
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

        Validates the pieces, keeps the lowest intercept per slope and
        drops every piece that is never the strict maximum, as read off one
        `subdivision` walk.  The result keeps that walk, whose cells and
        edge pairs its pieces share, and the integer form the walk ran on,
        sliced to the kept pieces.  Code that already holds canonical
        pieces calls the constructor instead.
        """
        ps = [p if isinstance(p, AffineFunctional) else AffineFunctional.make(*p) for p in pieces]
        if not ps:
            raise ValueError("need at least one affine piece")
        n = len(ps[0].slope)
        _check_dim(n)
        if any(len(p.slope) != n for p in ps):
            raise DimensionError("pieces of mixed dimension")
        # Same slope: only the lowest intercept (largest value) can matter.
        best = {}
        for p in ps:
            if p.slope not in best or p.intercept < best[p.slope]:
                best[p.slope] = p.intercept
        ps = [AffineFunctional(s, c) for s, c in sorted(best.items())]
        if len(ps) == 1:
            return PLConvexFunction(tuple(ps))
        # A piece is the strict maximum somewhere iff its slope is an
        # extreme point of some cell of the subdivision (or of some
        # parallel edge pair, when the slopes are collinear).
        S, D, C, E = form = _integer_pieces(ps)
        walk = subdivision(ps, form)
        keep = {id(p) for _, cell in walk[0] for p in cell}
        keep.update(id(p) for pair in walk[1] for p in pair)
        kept = [i for i, p in enumerate(ps) if id(p) in keep]
        g = PLConvexFunction(tuple(ps[i] for i in kept))
        g.__dict__["integer_form"] = ([S[i] for i in kept], D, [C[i] for i in kept], E)
        g.__dict__["subdivision"] = walk
        return g

    @cached_property
    def integer_form(self):
        """(S, D, C, E): the slopes S_i / D and intercepts C_i / E of the
        pieces, in order, over common denominators; computed at most once
        per function and read by the walk and by every exact reader."""
        return _integer_pieces(self.pieces)

    @cached_property
    def subdivision(self):
        """(cells, edges) of the kernel `subdivision` on the pieces, walked
        at most once per function; every reader shares it and only reads."""
        return subdivision(self.pieces, self.integer_form)

    def integer_cells(self):
        """The walk on the integer form (S, D, C, E): for each vertex v of
        the cells of `subdivision`, in order, (v, X, q, ring, y).  v = X / q
        in lowest terms, ring lists the integer slopes (over D) of v's cell
        in the cell's order, and g(v) = y / (D E q), read off the cell's
        first piece, which is active at v."""
        S, D, C, E = self.integer_form
        at = {id(p): i for i, p in enumerate(self.pieces)}
        out = []
        for v, cell in self.subdivision[0]:
            q = math.lcm(*(x.denominator for x in v))
            X = _scaled(v, q)
            ring = [S[at[id(p)]] for p in cell]
            a = at[id(cell[0])]
            out.append((v, X, q, ring, E * _idot(S[a], X) - D * q * C[a]))
        return out

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
class DiscreteMeasure:
    """Atomic measure with rational masses; atoms lex-sorted, zero masses dropped."""

    atoms: tuple  # ((point, mass), ...)

    @staticmethod
    def from_atoms(atoms) -> "DiscreteMeasure":
        acc = {}
        for loc, mass in atoms:
            loc = as_point(loc)
            acc[loc] = acc.get(loc, Fraction(0)) + as_fraction(mass)
        cleaned = sorted((loc, m) for loc, m in acc.items() if m != 0)
        return DiscreteMeasure(tuple(cleaned))

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_positive(self) -> bool:
        return all(m > 0 for _, m in self.atoms)

    def mass_at(self, loc) -> Fraction:
        return self.masses.get(as_point(loc), Fraction(0))

    @cached_property
    def masses(self) -> dict:
        """Mass by location, for the atoms' locations only."""
        return dict(self.atoms)

    def scale(self, c) -> "DiscreteMeasure":
        # the atoms stay sorted and nonzero unless c is 0
        c = as_fraction(c)
        if c == 0:
            return DiscreteMeasure(())
        return DiscreteMeasure(tuple((p, c * m) for p, m in self.atoms))

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return DiscreteMeasure.from_atoms(list(self.atoms) + list(other.atoms))

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + other.scale(-1)

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
    <n, S_i> >= c D for each of delta's integer half-planes (n, c), and a
    vertex u of delta is a slope iff D u is one of the S_i.  A polygon
    ring of one or two points (a point or a segment in the plane) has no
    such half-planes, and there the slopes are tested with `contains`.
    """
    if g.dim != delta.dim:
        raise DimensionError("dimension mismatch")
    if delta.dim == 2 and len(delta._ring) < 3:
        slopes = set(g.slopes)
        return all(map(delta.contains, slopes)) and all(v in slopes for v in delta.vertices)
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
    real Monge-Ampere measure of g.
    """
    return [v for v, _ in g.subdivision[0]]


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
    at a vertex is the integer max of E <S_i, V> - D Q C_i, over D E Q.  On
    a side P -> P' the restricted slopes <S_i, P' - P> (over D Q) and
    intercepts D Q C_i - E <S_i, P> (over D Q E) are integers, and so is
    the test 0 < s < 1.

    Only the vertices of delta pay for a max over all k pieces.  Every
    other value is read off the kernel cell that found the candidate, in
    O(1): every piece of a cell is active at its vertex, and the left piece
    of a side's 1-D cell is F on the side (Lucet, Numer. Algorithms 1997).
    """
    if F.dim != delta.dim:
        raise DimensionError("dimension mismatch")
    S, D, C, E = F.integer_form
    ring = delta.ring()
    R, Q = _integer_points(ring)
    DQ = D * Q
    values = {
        u: Fraction(max(E * _idot(s, V) - DQ * c for s, c in zip(S, C)), DQ * E)
        for u, V in zip(ring, R)
    }
    for v, _, q, _, y in F.integer_cells():
        if delta.contains(v):
            values[v] = Fraction(y, D * E * q)
    if delta.dim == 2 and len(R) >= 2:
        for P, P1 in zip(R, R[1:] + R[:1]) if len(R) >= 3 else [R]:
            d0, d1 = P1[0] - P[0], P1[1] - P[1]
            # equal restricted slopes: only the lowest intercept can matter
            side = {}
            for (s0, s1), c in zip(S, C):
                x, y = s0 * d0 + s1 * d1, DQ * c - E * (s0 * P[0] + s1 * P[1])
                if x not in side or y < side[x]:
                    side[x] = y
            chain = _lower_chain([(x, y, None) for x, y in side.items()])
            for (xa, ya, _), (xb, yb, _) in zip(chain, chain[1:]):
                # consecutive pieces of the chain meet at s = n / m
                n, m = yb - ya, E * (xb - xa)
                if 0 < n < m:
                    u = (Fraction(m * P[0] + n * d0, m * Q), Fraction(m * P[1] + n * d1, m * Q))
                    values[u] = Fraction(E * xa * n - m * ya, DQ * E * m)
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
