"""Exact rational convex geometry.

Polytopes in V-representation, finite-max-of-affine convex functions,
subdifferentials, volumes and moments, and Legendre-type transforms over
a polytope.  The public coordinates are `fractions.Fraction`.  The
predicates run on `int`s, over common denominators, so every predicate is
exact, no floating point enters this module, and a `Fraction` is built
only for a result that is read or printed (the small-integer exact
computation of Yap, Comput. Geom. 1997).  Each predicate has one routine.
One chain routine, `_half_chain`, builds every convex hull (`_ccw_ring`:
each cell's, and a polytope's once, in `Polytope._from_integer_points`)
and every lower chain (`_chain_pairs`: the 1-D subdivision and the
parallel edges of collinear slopes).

A polytope is its integer ring (R, Q): its extreme points R_j / Q over
the least common denominator, counterclockwise from the lex-first in
2-D.  `Polytope._from_integer_points` is its one builder, for
`from_points`, the readers, `translate` and `dilate` alike, and its
`Fraction` vertices are built only when they are read.  Every polytope,
a point or a segment in the plane included, has one table of integer
half-planes, read off the ring, and containment is tested on it alone.

A function is its canonical integer form, its slopes S_i / D and
intercepts C_i / E over their least common denominators, the slopes
distinct and in increasing order (`PLConvexFunction.integer_form`, the
one compared field of a frozen dataclass): equal functions hold equal
forms.  `PLConvexFunction._of_form` is its one builder, for the toric
readers of serialize, `from_form`, `from_pieces`, `dual_transform`,
`support_function` and the solver alike, and `shift`, `translate` and `+`
work on the form.  The walk runs on it, and so does every exact reader of
the function: evaluation, `is_admissible`, `dual_transform`, the
Monge-Ampere masses, the Legendre integral of the energy and the
envelope's samples.  None of them depends on the scale of the form.  The
`Fraction` pieces are built from the form on first read, which in
practice means by the writers and by library callers: Fractions are built
only for what is printed.

One kernel, `subdivision`, computes the linearity subdivision of a
max-of-affine function on integers and speaks integers: each vertex is
X / q in lowest terms, with q > 0, beside the indices of the pieces whose
slopes span its cell (the subdifferential), and each edge is the index
pair of the two pieces that tie along it.  A reader builds its one
`Fraction` per result from X, q and the cell's first piece, which is
active at the vertex.  There is one walk per Legendre pair:
`PLConvexFunction.subdivision` runs the kernel at most once, and
`from_form` hands it the walk that pruned the pieces to the essential
ones.  Breakpoints, the Monge-Ampere masses,
the toric energy and the envelopes all read that walk.  So does the
Legendre transform `dual_transform`: it takes F's vertices inside the polytope from F's
walk, and F's breakpoints along each side of the polytope from the 1-D
chain of F restricted to that side, each with its value read off the
cell that found it.  Those corners, with the pieces of F active at each,
are F's cells in the polytope, and they are the transform's integer
slopes and the cells of its subdivision, so the transform is handed both,
the cells built only when a reader asks for them, and is not walked
again.  The 2-D walk takes O(k) exact operations per
vertex for k pieces, to find the pieces tied there, and O(k) per edge,
to clip it.  It remembers where each bounded edge leads, so that edge is
clipped once, from the end the walk reaches first, and not again from
the other: O(k*(V + B + U)) in all for V vertices, B bounded and U
unbounded edges.

A measure is its canonical integer form as well: `DiscreteMeasure`
holds its points V_i / A and its masses M_i / Dm over their least common
denominators, the points sorted and distinct and no mass zero
(`DiscreteMeasure.integer_form`).  `DiscreteMeasure._of_form` is its one
builder, which sums by point, sorts and reduces, for `from_atoms`, the
reader of serialize, `toric.ma_measure`, the scaling and the sum alike;
the total mass and the positivity test read the integers, and the
`Fraction` atoms are built on first read.  curves.GraphMeasure, whose
locations are graph keys, keeps its Fraction atoms.

Ambient dimensions 1 and 2 are supported.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
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


def without_digit_limit(build):
    """build() with Python's int digit limit lifted, and the limit as it
    was put back after.  The limit guards reading input; a result or a
    message may have more digits than plma reads back."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return build()
    finally:
        sys.set_int_max_str_digits(limit)


def as_point(p) -> tuple:
    return tuple(as_fraction(c) for c in p)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _idot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _dots(S, X):
    """[<S_i, X>] for integer points S_i and X of dimension 1 or 2, in
    one pass with no call per point."""
    if len(X) == 1:
        return [s0 * X[0] for s0, in S]
    x0, x1 = X
    return [s0 * x0 + s1 * x1 for s0, s1 in S]


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


def _one_dim(rows, kind):
    """The common length of a nonempty list of points or slopes, which
    must be 1 or 2: DimensionError otherwise, with `kind` naming them."""
    n = len(rows[0])
    _check_dim(n)
    if any(len(r) != n for r in rows):
        raise DimensionError(f"{kind} of mixed dimension")
    return n


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


def _integer_point(p, n, message):
    """(X, q): the point p of dimension n as the integer point X over the
    lcm q of its denominators; DimensionError(message) for another
    dimension."""
    p = as_point(p)
    if len(p) != n:
        raise DimensionError(message)
    (X,), q = _integer_points([p])
    return X, q


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
    """Rational polytope, canonically its integer ring (R, Q): the extreme
    points R_j / Q, integer points R_j over the least common denominator
    Q > 0, so gcd(Q, every coordinate) = 1.  In 2-D R runs
    counterclockwise from the lex-first vertex, or holds the two ends of a
    segment; in 1-D it holds the two ends; a point is R = (P,).  Equal
    polytopes hold equal rings, so equality and hashing are the ring's.
    `_from_integer_points` is the one builder: `from_points`, `translate`
    and `dilate` all hand it integer points.  The `Fraction` vertices
    (`vertices`, sorted, and `ring()`) are built from R when read."""

    integer_ring: tuple

    @staticmethod
    def from_points(points) -> "Polytope":
        pts = [as_point(p) for p in points]
        if not pts:
            raise ValueError("polytope needs at least one point")
        _one_dim(pts, "points")
        return Polytope._from_integer_points(*_integer_points(pts))

    @staticmethod
    def _from_integer_points(P, Q) -> "Polytope":
        """The hull of the points P_j / Q, for a nonempty list of integer
        point tuples P_j of one dimension, 1 or 2, and Q > 0: the ring of
        its extreme points found on the integers (`_ccw_ring`), over Q
        reduced to the least denominator.  No Fraction is built."""
        if len(P[0]) == 1:
            lo, hi = min(P), max(P)
            R = [lo] if lo == hi else [lo, hi]
        else:
            R = _ccw_ring(sorted(set(P)))
        h = math.gcd(Q, *(x for p in R for x in p))
        return Polytope((tuple([tuple([x // h for x in p]) for p in R]), Q // h))

    @property
    def dim(self) -> int:
        return len(self.integer_ring[0][0])

    @cached_property
    def vertices(self) -> tuple:
        """The extreme points as Fraction points, lex-sorted."""
        R, Q = self.integer_ring
        return tuple(_point(P, Q) for P in sorted(R))

    def ring(self):
        """Boundary vertices in counterclockwise order (2-D), as a new list
        of Fraction points."""
        R, Q = self.integer_ring
        return [_point(P, Q) for P in R]

    def volume(self) -> Fraction:
        """The length (hi - lo) / Q in 1-D; in 2-D the shoelace sum of the
        ring over 2 Q^2.  Both are 0 for a point, and the shoelace sum is 0
        for a segment too."""
        R, Q = self.integer_ring
        if self.dim == 1:
            return Fraction(R[-1][0] - R[0][0], Q)
        return Fraction(sum(cross2(a, b) for a, b in zip(R, R[1:] + R[:1])), 2 * Q * Q)

    def is_full_dimensional(self) -> bool:
        # the ends of an interval, or three vertices with strict turns
        return len(self.integer_ring[0]) > self.dim

    @cached_property
    def _halfplanes(self):
        """Every polytope's one table: primitive integer pairs (n, c) with
        <n, u> >= c exactly on it.  In 2-D, one per counterclockwise side
        A -> B of the integer ring R / Q: n = Q (A1 - B1, B0 - A0), Q times
        the inward normal of B - A, and c = (A1 - B1) A0 + (B0 - A0) A1,
        over their gcd; the side A -> A of a point has gcd 0 and is
        skipped.  A ring of one or two points adds its bounding box, each
        bound L / Q as the row (Q, L) over gcd(Q, L).  So an interval is its
        ends, a segment its line (the sides A -> B and B -> A) and its box,
        and a point its box."""
        R, Q = self.integer_ring
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
                for sign, L in ((1, min(P[j] for P in R)), (-1, max(P[j] for P in R))):
                    h = math.gcd(Q, L)
                    out.append((vscale(sign * Q // h, e), sign * L // h))
        return tuple(out)

    def _contains_scaled(self, X, q) -> bool:
        """Whether the point X / q, q > 0, lies in the polytope: on integers,
        <n, X> >= c q for each half-plane (n, c) of its table."""
        return all(_idot(n, X) >= c * q for n, c in self._halfplanes)

    def contains(self, p) -> bool:
        """Whether p lies in the polytope: p = X / q over the lcm q of its
        denominators, tested on integers (`_contains_scaled`), whatever
        the polytope's dimension and number of vertices."""
        X, q = _integer_point(p, self.dim, "point/polytope dimension mismatch")
        return self._contains_scaled(X, q)

    def translate(self, t) -> "Polytope":
        """The polytope moved by t = T / q: the ring (q R + Q T) / (Q q).  A
        vector of another dimension raises DimensionError."""
        T, q = _integer_point(t, self.dim, "translation dimension mismatch")
        R, Q = self.integer_ring
        return Polytope._from_integer_points(
            [tuple(q * x + Q * s for x, s in zip(P, T)) for P in R], Q * q)

    def dilate(self, c) -> "Polytope":
        """The polytope scaled by c = a / b > 0: the ring a R / (Q b)."""
        c = as_fraction(c)
        if c <= 0:
            raise ValueError("dilation factor must be positive")
        R, Q = self.integer_ring
        return Polytope._from_integer_points(
            [tuple(c.numerator * x for x in P) for P in R], Q * c.denominator)


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
    (E <S_i, X> - D q C_i) / (D E q); no Fraction is built.  The walk runs
    on the pieces in slope order, with the two coordinates of the slopes
    in two flat lists, and numbers the pieces back at the end; a function's
    form is in slope order already.  The cell of a vertex is the monotone
    chain of the integer slopes of the pieces tied there, counterclockwise
    from the lex-first; a cell of three pieces, the usual one, takes its
    order from one cross product of their slopes.  The walk starts at one
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
    u0, u1 = S[-1][0] - S[0][0], S[-1][1] - S[0][1]
    if all(u0 * (s1 - S[0][1]) == u1 * (s0 - S[0][0]) for s0, s1 in S):
        # along the line, the first coordinate that varies orders the slopes
        j = 0 if u0 else 1
        return [], _chain_pairs([s[j] for s in S], C)
    order = sorted(range(len(S)), key=S.__getitem__)
    S0, S1 = [S[i][0] for i in order], [S[i][1] for i in order]
    C = [C[i] for i in order]
    index = {(s0, s1): i for i, (s0, s1) in enumerate(zip(S0, S1))}

    def values(X, q):
        """The pieces' values at X / q, times D E q, and their max."""
        EX0, EX1, Dq = E * X[0], E * X[1], D * q
        vals = [s0 * EX0 + s1 * EX1 - Dq * c for s0, s1, c in zip(S0, S1, C)]
        return vals, max(vals)

    def cell(vals, m):
        tied = [i for i, v in enumerate(vals) if v == m]
        if len(tied) < 3:
            return tuple(tied)
        if len(tied) > 3:
            return tuple(index[s] for s in _ccw_ring([(S0[i], S1[i]) for i in tied]))
        a, b, c = tied
        turn = (S0[b] - S0[a]) * (S1[c] - S1[a]) - (S1[b] - S1[a]) * (S0[c] - S0[a])
        return (a, b, c) if turn > 0 else (a, c, b) if turn else (a, c)

    def clip(vals, m, a, n0, n1):
        """(G, R): some piece first overtakes piece a at X + G/(E R) * N;
        G is that piece's gap m - v to the max at X."""
        base = S0[a] * n0 + S1[a] * n1
        G = R = 0  # R = 0: no piece overtakes a
        for s0, s1, v in zip(S0, S1, vals):
            rate = s0 * n0 + s1 * n1 - base
            if rate > 0 and (not R or (m - v) * R < G * rate):
                G, R = m - v, rate
        return (G, R) if R else None

    def step(X, q, n0, n1, clipped):
        G, R = clipped
        X0, X1, q = E * R * X[0] + G * n0, E * R * X[1] + G * n1, E * R * q
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
            b = 1 if a == 0 else 0
            n0, n1 = S0[b] - S0[a], S1[b] - S1[a]
        else:
            b = ring[1]
            n0, n1 = S1[b] - S1[a], S0[a] - S0[b]
            if clip(vals, m, a, n0, n1) is None:
                n0, n1 = -n0, -n1
        X, q = step(X, q, n0, n1, clip(vals, m, a, n0, n1))
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
            # outward normal of the CCW edge (a, b)
            n0, n1 = S1[b] - S1[a], S0[a] - S0[b]
            clipped = clip(vals, m, a, n0, n1)
            if clipped is None:
                continue
            reached.add((b, a))
            w = step(X, q, n0, n1, clipped)
            if w not in seen:
                seen.add(w)
                wvals, wm = values(*w)
                todo.append((*w, wvals, wm, cell(wvals, wm)))
    cells.sort(key=cmp_to_key(_vertex_order))
    if any(i != j for i, j in enumerate(order)):
        cells = [(X, q, tuple(order[i] for i in ring)) for X, q, ring in cells]
        edges = [(order[a], order[b]) for a, b in edges]
    return cells, edges


@dataclass(frozen=True)
class PLConvexFunction:
    """Finite max of affine functionals; convex and piecewise linear.

    A function is its canonical integer form (S, D, C, E), its one
    compared field: the slopes S_i / D and intercepts C_i / E of its
    pieces over common denominators, S a tuple of distinct integer slope
    tuples in increasing order and C a tuple, with D and E least
    (gcd(D, S) = gcd(E, C) = 1).  Equal functions hold equal forms, so
    equality, hashing and repr are the form's.  The walk and every exact
    reader run on it, and the `Fraction` pieces are built from it on first
    read, which in practice means by the writers and by library callers.
    `_of_form` is the one builder, and the constructor is its private
    step: it refuses anything but an (S, D, C, E) tuple with integer D and
    E.  The public builders `from_form` and `from_pieces` take any form or
    pieces and prune them.  `_diagram`, neither compared nor shown, is a
    zero-argument callable that builds the subdivision, for a function
    handed its cells; None walks the form.
    """

    integer_form: tuple
    _diagram: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        form = self.integer_form
        if not (type(form) is tuple and len(form) == 4
                and isinstance(form[1], int) and isinstance(form[3], int)):
            raise TypeError("PLConvexFunction takes an integer form; use from_pieces or from_form")

    @staticmethod
    def _of_form(form, diagram=None) -> "PLConvexFunction":
        """The function of an integer form whose slopes are distinct and in
        increasing order, with no piece dropped and no walk: D and the S
        coordinates divided by their gcd, and E and the C_i by theirs.  `diagram`, if
        given, builds its subdivision on first read; no reader depends on
        the scale of the form."""
        S, D, C, E = form
        h, k = math.gcd(D, *map(math.gcd, *S)), math.gcd(E, *C)
        if h > 1:
            S, D = [tuple([x // h for x in s]) for s in S], D // h
        if k > 1:
            C, E = [c // k for c in C], E // k
        return PLConvexFunction((tuple(S), D, tuple(C), E), diagram)

    @staticmethod
    def from_form(form) -> "PLConvexFunction":
        """The max of the pieces of an integer form (S, D, C, E), slopes
        S_i / D and intercepts C_i / E with D, E > 0, on its essential
        pieces.

        It keeps the lowest intercept C_i per integer slope S_i and orders
        the pieces by S_i, which is the order of the slopes S_i / D.  Then
        one `subdivision` walk: a piece is kept iff it is in some cell or
        edge of the walk, that is iff it is the strict maximum somewhere,
        and the kept pieces are renumbered in order.  The result, built by
        `_of_form` on the kept pieces, is handed that walk, on the new
        numbers; no Fraction is built.
        """
        S, D, C, E = form
        # Same slope: only the lowest intercept (largest value) can matter.
        best = {}
        for i, (s, c) in enumerate(zip(S, C)):
            if s not in best or c < C[best[s]]:
                best[s] = i
        order = [best[s] for s in sorted(best)]
        S, C = [S[i] for i in order], [C[i] for i in order]
        if len(S) == 1:
            return PLConvexFunction._of_form((S, D, C, E))
        # A piece is the strict maximum somewhere iff its slope is an
        # extreme point of some cell of the subdivision (or of some
        # parallel edge pair, when the slopes are collinear).
        cells, edges = subdivision((S, D, C, E))
        keep = {i for _, _, ring in cells for i in ring}
        keep.update(i for pair in edges for i in pair)
        if len(keep) < len(S):
            kept = sorted(keep)
            new = {i: j for j, i in enumerate(kept)}
            cells = [(X, q, tuple(new[i] for i in ring)) for X, q, ring in cells]
            edges = [(new[a], new[b]) for a, b in edges]
            S, C = [S[i] for i in kept], [C[i] for i in kept]
        return PLConvexFunction._of_form((S, D, C, E), lambda: (cells, edges))

    @staticmethod
    def from_pieces(pieces) -> "PLConvexFunction":
        """The max of the pieces, on its essential pieces: the pieces are
        validated, their integer form computed once (`_integer_pieces`) and
        handed to `from_form`.
        """
        ps = [p if isinstance(p, AffineFunctional) else AffineFunctional.make(*p) for p in pieces]
        if not ps:
            raise ValueError("need at least one affine piece")
        _one_dim([p.slope for p in ps], "pieces")
        return PLConvexFunction.from_form(_integer_pieces(ps))

    @cached_property
    def pieces(self):
        """The pieces as AffineFunctionals of Fractions, in slope order,
        built from the integer form on first read."""
        S, D, C, E = self.integer_form
        return tuple(AffineFunctional(tuple(Fraction(x, D) for x in s), Fraction(c, E))
                     for s, c in zip(S, C))

    @cached_property
    def subdivision(self):
        """(cells, edges) of the kernel `subdivision` on the integer form:
        each cell (X, q, ring) a vertex X / q with the indices of its cell's
        pieces, each edge an index pair.  Walked at most once per function,
        or built once by the function's `_diagram`; every reader shares it
        and only reads."""
        return self._diagram() if self._diagram else subdivision(self.integer_form)

    @property
    def dim(self) -> int:
        return len(self.integer_form[0][0])

    @property
    def slopes(self):
        return tuple(p.slope for p in self.pieces)

    def _values(self, X, q):
        """E <S_i, X> - D q C_i for every piece i of the integer form
        (S, D, C, E): the pieces' values at the integer point X / q, q > 0,
        each times D E q."""
        S, D, C, E = self.integer_form
        Dq = D * q
        return [E * d - Dq * c for d, c in zip(_dots(S, X), C)]

    def __call__(self, v) -> Fraction:
        """g(v) at v = X / q, the integer max of the pieces' values over
        D E q: one Fraction."""
        X, q = _integer_point(v, self.dim, "argument dimension mismatch")
        _, D, _, E = self.integer_form
        return Fraction(max(self._values(X, q)), D * E * q)

    def active_pieces(self, v):
        """The pieces that attain g(v), their values compared on integers."""
        values = self._values(*_integer_point(v, self.dim, "argument dimension mismatch"))
        m = max(values)
        return [p for p, y in zip(self.pieces, values) if y == m]

    def shift(self, c) -> "PLConvexFunction":
        """Pointwise g + c, c = p / r: the intercepts (C_i r - p E) / (E r)."""
        c = as_fraction(c)
        S, D, C, E = self.integer_form
        p, r = c.numerator, c.denominator
        return PLConvexFunction._of_form((S, D, [x * r - p * E for x in C], E * r))

    def translate(self, t) -> "PLConvexFunction":
        """g(. - t), t = T / r: the intercepts (C_i D r + E <S_i, T>) / (E D r).
        A vector of another dimension raises DimensionError."""
        T, r = _integer_point(t, self.dim, "translation dimension mismatch")
        S, D, C, E = self.integer_form
        return PLConvexFunction._of_form(
            (S, D, [c * D * r + E * d for c, d in zip(C, _dots(S, T))], E * D * r))

    def __add__(self, other: "PLConvexFunction") -> "PLConvexFunction":
        """The max of all pairwise sums of pieces, the slopes over
        lcm(D1, D2) and the intercepts over lcm(E1, E2); `from_form` prunes
        them to the pairs that are strictly active together somewhere."""
        if self.dim != other.dim:
            raise DimensionError("dimension mismatch in sum")
        (S1, D1, C1, E1), (S2, D2, C2, E2) = self.integer_form, other.integer_form
        D, E = math.lcm(D1, D2), math.lcm(E1, E2)
        a, b, c, d = D // D1, D // D2, E // E1, E // E2
        return PLConvexFunction.from_form(
            ([tuple([a * x + b * y for x, y in zip(s, t)]) for s in S1 for t in S2], D,
             [c * x + d * y for x in C1 for y in C2], E))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Signed atomic measure on the points of R^n, canonically its integer
    form (V, A, M, Dm), its one compared field: the atoms V_i / A with the
    masses M_i / Dm, V a tuple of distinct integer point tuples in
    increasing order, M a tuple of nonzero integers, and A and Dm least
    (gcd(A, V) = gcd(Dm, M) = 1); the empty measure is ((), 1, (), 1).
    Equal measures hold equal forms, so equality, hashing and repr are the
    form's.  `_of_form` is the one builder, for `from_atoms`, the reader of
    serialize, `ma_measure`, the scaling and the sum alike, and the
    constructor is its private step: it refuses anything but a (V, A, M,
    Dm) tuple with integer A and Dm.  The `Fraction` atoms, sorted by
    point, are built on first read, which in practice means by library
    callers and the CSV rows: the solver and the writer read the form.
    """

    integer_form: tuple

    def __post_init__(self):
        form = self.integer_form
        if not (type(form) is tuple and len(form) == 4
                and isinstance(form[1], int) and isinstance(form[3], int)):
            raise TypeError("DiscreteMeasure takes an integer form; use from_atoms")

    @staticmethod
    def _of_form(V, A, M, Dm) -> "DiscreteMeasure":
        """The measure of the masses M_i / Dm at the points V_i / A, for
        integer point tuples V_i and A, Dm > 0: the masses summed by point,
        zero sums dropped, the points sorted, and A and Dm divided with the
        numerators by their gcd.  Points of different dimensions raise
        DimensionError."""
        if len({len(v) for v in V}) > 1:
            raise DimensionError("atoms of mixed dimension")
        acc = {}
        for v, m in zip(V, M):
            acc[v] = acc.get(v, 0) + m
        V = sorted([v for v, m in acc.items() if m])
        h, k = math.gcd(A, *(x for v in V for x in v)), math.gcd(Dm, *map(acc.get, V))
        return DiscreteMeasure((tuple([tuple([x // h for x in v]) for v in V]), A // h,
                                tuple([acc[v] // k for v in V]), Dm // k))

    @staticmethod
    def from_atoms(atoms) -> "DiscreteMeasure":
        """The measure of (point, mass) pairs, summed by point: the points
        over the lcm of their denominators and the masses over theirs.
        Atoms of different dimensions raise DimensionError."""
        pairs = [(as_point(p), as_fraction(m)) for p, m in atoms]
        (M,), Dm = _integer_points([[m for _, m in pairs]])
        return DiscreteMeasure._of_form(*_integer_points([p for p, _ in pairs]), M, Dm)

    @cached_property
    def atoms(self) -> tuple:
        """((point, mass), ...) as Fractions, sorted by point, built from
        the integer form on first read."""
        V, A, M, Dm = self.integer_form
        return tuple((_point(v, A), Fraction(m, Dm)) for v, m in zip(V, M))

    @cached_property
    def masses(self) -> dict:
        """Mass by point, for the atoms' points only."""
        return dict(self.atoms)

    def total_mass(self) -> Fraction:
        return Fraction(sum(self.integer_form[2]), self.integer_form[3])

    def is_positive(self) -> bool:
        return all(m > 0 for m in self.integer_form[2])

    def mass_at(self, loc) -> Fraction:
        return self.masses.get(as_point(loc), Fraction(0))

    def integrate(self, fn) -> Fraction:
        """Pair against a pointwise-evaluable function (exact)."""
        return sum((m * fn(p) for p, m in self.atoms), Fraction(0))

    def scale(self, c) -> "DiscreteMeasure":
        """c times the measure, c = p / r: the masses p M_i / (r Dm)."""
        c = as_fraction(c)
        V, A, M, Dm = self.integer_form
        return DiscreteMeasure._of_form(V, A, [c.numerator * m for m in M], c.denominator * Dm)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        """Both forms over lcm(A1, A2) and lcm(Dm1, Dm2), summed by point."""
        (V1, A1, M1, D1), (V2, A2, M2, D2) = self.integer_form, other.integer_form
        A, D = math.lcm(A1, A2), math.lcm(D1, D2)
        return DiscreteMeasure._of_form(
            [vscale(A // A1, v) for v in V1] + [vscale(A // A2, v) for v in V2], A,
            [m * (D // D1) for m in M1] + [m * (D // D2) for m in M2], D)

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + other.scale(-1)


# ---------------------------------------------------------------------------
# operations


def support_function(delta: Polytope) -> PLConvexFunction:
    """max over vertices u of delta of <u, .>: the integer form of delta's
    sorted ring R / Q with zero intercepts."""
    R, Q = delta.integer_ring
    return PLConvexFunction._of_form((sorted(R), Q, [0] * len(R), 1))


def is_admissible(g: PLConvexFunction, delta: Polytope) -> bool:
    """True iff all slopes of g lie in delta and every vertex of delta is a slope.

    For piecewise-linear g this is equivalent to g - support_function(delta)
    being bounded on the whole space.

    It runs on g's integer slopes S_i / D: S_i lies in delta iff
    <n, S_i> >= c D for each of delta's integer half-planes (n, c), which
    every polytope has, a point or a segment in the plane included, and a
    vertex R_j / Q of delta's integer ring is a slope iff Q divides D R_j
    and D R_j / Q is one of the S_i.
    """
    if g.dim != delta.dim:
        raise DimensionError("dimension mismatch")
    S, D, _, _ = g.integer_form
    if not all(min(_dots(S, n)) >= c * D for n, c in delta._halfplanes):
        return False
    slopes = set(S)
    R, Q = delta.integer_ring
    return all(
        not any(D * x % Q for x in P) and tuple(D * x // Q for x in P) in slopes for P in R
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

    It runs on integers and builds no Fraction.  F's slopes are S_i / D
    and its intercepts C_i / E, and
    delta's ring is R / Q.  Each corner u is kept as X / q in lowest
    terms, with its value y / z and the pieces of F active at u:
    - at a vertex R_j / Q of delta, the integer max of the pieces'
      values E <S_i, R_j> - D Q C_i over D E Q (`PLConvexFunction._values`),
      and the pieces that reach it;
    - at a walk vertex X / q inside delta (delta's integer half-planes,
      <n, X> >= c q), the value read off its cell and the cell's pieces;
    - on each side P -> P' of the ring, F((P + s (P' - P)) / Q) has the
      1-D integer form of slopes <S_i, P' - P> / (D Q) and intercepts
      (D Q C_i - E <S_i, P>) / (D Q E); with the lowest intercept kept per
      slope, its `subdivision` gives the breakpoints s = X / q, kept when
      0 < X < q, each with the value of its left piece and the two pieces
      that meet there.  The two sides of a segment find the same points,
      a point's one side none.
    Only the vertices of delta pay for a max over all k pieces.  Every
    other value is read off the kernel cell that found it (`_vertex_value`)
    in O(1): every piece of a cell is active at its vertex (Lucet, Numer.
    Algorithms 1997).

    The corners, on their common denominator L, are h's integer slopes,
    sorted as integer tuples, so h is its integer form, and its Fraction
    pieces are built only if something reads them.  It is handed its
    subdivision too, when delta is a full-dimensional polygon, built when
    a reader first asks for it (`_transform_cells`): h's vertices
    are the slopes v_i of F whose cells meet delta in positive volume,
    and the cell of v_i is the counterclockwise ring (`_ccw_ring`) of the
    corners where piece i is active, the vertices of F's cell i in delta.
    The pieces of F active at a corner include every such i: a piece
    active at a point but not an extreme slope of F's subdifferential
    there has a cell of zero area, and at a side breakpoint inside an edge
    of F the subdifferential is the segment of the two pieces that meet.
    So h is not walked: one exact diagram, F's cells in delta, serves the
    transform, its Monge-Ampere masses and the solver's residual.  In 1-D
    h's cells are the consecutive corners, which the kernel's chain
    (`subdivision`) reads off h's form, with no walk.
    """
    if F.dim != delta.dim:
        raise DimensionError("dimension mismatch")
    S, D, C, E = form = F.integer_form
    R, Q = delta.integer_ring
    DQ = D * Q
    corners = {}  # (X, q) in lowest terms -> (y, z, the pieces of F active there)

    def corner(u, y, z, active):
        corners.setdefault(u, (y, z, set()))[2].update(active)

    for P in R:
        vals = F._values(P, Q)
        m = max(vals)
        r = math.gcd(*P, Q)
        corner((tuple(x // r for x in P), Q // r), m, DQ * E,
               [i for i, v in enumerate(vals) if v == m])
    for X, q, ring in F.subdivision[0]:
        if delta._contains_scaled(X, q):
            corner((X, q), _vertex_value(form, X, q, ring[0]), D * E * q, ring)
    if delta.dim == 2:
        for P, P1 in zip(R, R[1:] + R[:1]):
            d0, d1 = P1[0] - P[0], P1[1] - P[1]
            # equal restricted slopes: only the lowest intercept can matter
            side = {}
            for i, ((s0, s1), c) in enumerate(zip(S, C)):
                x, y = s0 * d0 + s1 * d1, DQ * c - E * (s0 * P[0] + s1 * P[1])
                if x not in side or y < side[x][0]:
                    side[x] = (y, i)
            piece = [i for _, i in side.values()]
            side_form = ([(x,) for x in side], DQ, [y for y, _ in side.values()], DQ * E)
            for (X,), q, (a, b) in subdivision(side_form)[0]:
                if 0 < X < q:
                    U = (q * P[0] + X * d0, q * P[1] + X * d1)
                    r = math.gcd(*U, q * Q)
                    corner((tuple(x // r for x in U), q * Q // r),
                           _vertex_value(side_form, (X,), q, a), DQ * DQ * E * q,
                           (piece[a], piece[b]))
    return _from_corners(corners, F, delta)


def _from_corners(corners, F, delta):
    """The function of `dual_transform` from its corners, a dict from each
    corner X / q in lowest terms to (y, z, active): its value y / z, z > 0,
    and the pieces of F active there.  The corners on their common
    denominator L, sorted as integer tuples, and the values in lowest
    terms over their common denominator E are its integer form (S, L, C, E);
    no Fraction is built.  For a full-dimensional 2-D delta it is handed
    its subdivision too, built on first read (`_transform_cells`); in 1-D
    the kernel's chain gives the cells when they are first read."""
    L = math.lcm(*(q for _, q in corners))
    order = sorted((tuple(x * (L // q) for x in X), X, q) for X, q in corners)
    values = []
    for _, X, q in order:
        y, z, _ = corners[X, q]
        r = math.gcd(y, z)
        values.append((y // r, z // r))
    E = math.lcm(*(z for _, z in values))
    form = ([P for P, _, _ in order], L, tuple(y * (E // z) for y, z in values), E)
    if len(delta.integer_ring[0]) < 3:  # 1-D, or a point or a segment in the plane
        return PLConvexFunction._of_form(form)
    return PLConvexFunction._of_form(form, lambda: _transform_cells(order, corners, F))


def _transform_cells(order, corners, F):
    """The subdivision of `dual_transform`'s result h over a
    full-dimensional 2-D delta, from the corners sorted as in h's form:
    h's vertices are the slopes v_i of F whose cells meet delta in
    positive area, and the cell of v_i is the counterclockwise ring
    (`_ccw_ring`) of the corners where piece i is active, in h's numbers,
    with the ring pairs as its edges."""
    index = {P: j for j, (P, _, _) in enumerate(order)}
    active = {}  # piece of F -> the corners where it is active, sorted
    for P, X, q in order:
        for i in corners[X, q][2]:
            active.setdefault(i, []).append(P)
    FS, FD = F.integer_form[:2]
    cells = []
    for i in sorted(active, key=FS.__getitem__):
        ring = _ccw_ring(active[i])
        if len(ring) >= 3:
            r = math.gcd(*FS[i], FD)
            cells.append((tuple(s // r for s in FS[i]), FD // r, tuple(index[P] for P in ring)))
    edges = [(a, b) for _, _, r in cells for a, b in zip(r, r[1:] + r[:1])]
    return cells, edges


def convex_envelope(samples, delta: Polytope) -> PLConvexFunction:
    """Largest convex function with slopes in delta lying below the samples.

    samples: iterable of (point, value) pairs.  The result h satisfies
    h(p) <= y for every sample and no convex minorant with slopes in
    delta exceeds it anywhere.  Samples of mixed dimension, or of another
    dimension than delta, raise DimensionError.  Each sample is read as
    integers, its point X / q over the lcm q of its denominators, for
    `_sample_envelope`.
    """
    quads = []
    for p, y in [(as_point(p), as_fraction(y)) for p, y in samples]:
        q = math.lcm(*(x.denominator for x in p))
        quads.append((_scaled(p, q), q, y.numerator, y.denominator))
    return _sample_envelope(quads, delta)


def _sample_envelope(samples, delta: Polytope) -> PLConvexFunction:
    """`convex_envelope` of integer samples (X, q, y, z), each the point
    X / q with the value y / z, q and z > 0.

    The sample function max(<X / q, .> - y / z) is the integer form of the
    points over their common denominator and the values over theirs.
    `PLConvexFunction.from_form` prunes it, and `dual_transform` reads the
    walk that pruned it.
    """
    if not samples:
        raise ValueError("empty sample set")
    _one_dim([X for X, _, _, _ in samples], "pieces")
    L = math.lcm(*(q for _, q, _, _ in samples))
    E = math.lcm(*(z for _, _, _, z in samples))
    form = ([tuple(x * (L // q) for x in X) for X, q, _, _ in samples], L,
            [y * (E // z) for _, _, y, z in samples], E)
    return dual_transform(PLConvexFunction.from_form(form), delta)
