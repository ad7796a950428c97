"""Potential theory on finite metric graphs.

A location on a graph is a key: ("v", id) for a vertex and ("e", e, off)
for the point at offset off, strictly inside edge e; MetricGraph.point_key
checks a key against the graph and canonicalises an edge end to its
vertex.  The Laplacian of a piecewise-linear function is the atomic
signed measure assigning to each point the sum of its outgoing slopes;
with this convention a local maximum carries negative mass and the total
mass is always zero.  A GraphMeasure is canonical: one atom per
location, no zero mass, the atoms sorted by the repr of their keys.
A function is read between its breakpoints by one routine, _values_at,
in one pass over an edge's sorted breakpoints: eval, _refine (at the
nodes that are not breakpoints), the breakpoint merge of combine and
variational.PiecewiseLinear1D all call it.  There is one node problem,
node_problem below: its nodes are the vertices, a function's interior
breakpoints and a measure's atoms, which _refine numbers once (the
vertices in graph order, then each edge's sorted interior offsets: the
function's breakpoints in the order they come, the few other keys merged
in); it reads the function there as integer numerators over one
denominator and writes the Laplacian of the function plus the measure
with laplacian_form, segment weights included, on integers.
laplacian(f) is its form with no mass, read back at the nodes, whose
keys _node_keys lists in that order; the normalized potential solves its
form with zero values, and the curve envelope of variational its
obstacle problem.  Only node_problem calls _refine.  A solved function is built by one routine,
_function_from_node_values, from integer numerators over one common
denominator: integer slope tests drop the nodes where it does not bend,
and one Fraction is built per value kept.  Every linear solve of the
package is one problem with one entry: laplacian_form writes a weighted
graph on the node numbers 0..n-1 and its sources over common
denominators, and solve_laplacian(form, pinned) solves its Laplacian
with the value 0 on a set of pinned nodes.  The toric Newton step pins
the gauge w_0 = 0, the normalized potential g = 0 at node 0 (the first
vertex) before its shift, and each Howard step of the envelope the gap psi - P(psi) = 0 on
its contact set.  A float form (the Newton step, the envelope's float
guide) is one _eliminate in minimum-degree order and one _substitute
with that factorization.  An integer form goes through
solve_integer, which runs the same two routines modulo a 61-bit prime and
lifts the solution p-adically (Dixon), one _substitute per lift, until it
rebuilds the integer numerators over one common denominator, checked
exactly, or passes a Hadamard bound on their size (ConvergenceError).
One routine, normalized_potential, solves laplacian(f) = mu - omega0 and
shifts f to zero integral against the reference measure omega0, a
positive measure whose mass d_L it reads: solve_poisson(graph, rho, x) is
its case omega0 = delta_x and mu = rho + delta_x (f = 0 at x), green its
case mu = d_L delta_x, and solver.solve_curve its general case.  The
canonical metric of multiplication by m on the circle at step k needs no
solve: its potential is the discrete parabola through the m^k-division
points, in closed form.  canonical_form writes that form once, on
integers, with the reduced string of each division point, and it has two
readers: canonical_metric builds its Fractions, and
serialize.canonical_metric_to_json, which curve-canonical prints, its
document.

A graph has at least one edge; loops and parallel edges are allowed,
and all edge lengths are finite.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, isqrt, lcm, prod
from operator import mul

from .geometry import Record, as_fraction


class GraphError(ValueError):
    pass


class MassBalanceError(ValueError):
    """Source measure does not have the required total mass."""


class SubharmonicityError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """An iterative solve stopped without a verified result (CLI exit 3)."""


class MetricGraph(Record):
    vertex_ids: tuple
    edges: tuple  # ((u, v, length), ...)

    @staticmethod
    def build(vertex_ids, edges) -> "MetricGraph":
        vids = tuple(vertex_ids)
        declared = set(vids)
        if len(declared) != len(vids):
            raise GraphError("duplicate vertex ids")
        es = []
        for u, v, ln in edges:
            ln = as_fraction(ln)
            if ln.numerator <= 0:
                raise GraphError("edge lengths must be positive")
            try:
                known = u in declared and v in declared
            except TypeError:  # an unhashable end
                known = False
            if not known:
                raise GraphError("edge endpoint not a declared vertex")
            es.append((u, v, ln))
        g = MetricGraph(vids, tuple(es))
        if not g.is_connected():
            raise GraphError("graph must be connected")
        if not es:
            raise GraphError("graph must have at least one edge")
        return g

    def is_connected(self) -> bool:
        if not self.vertex_ids:
            return False
        seen = {self.vertex_ids[0]}
        frontier = [self.vertex_ids[0]]
        adj = {v: set() for v in self.vertex_ids}
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == len(self.vertex_ids)

    def edge_length(self, e: int) -> Fraction:
        return self.edges[e][2]

    def point_key(self, key):
        """Canonical form of a location key: ('v', id) for a vertex and
        ('e', e, off) for the point at offset off inside edge e.

        An edge key at either end of its edge becomes the end vertex's key.
        Anything else, and a vertex id, edge index or offset that is not in
        the graph, raises GraphError; an offset must be an int (not a bool)
        or a Fraction.
        """
        if isinstance(key, tuple) and len(key) == 2 and key[0] == "v":
            try:
                known = key[1] in self._vertex_set
            except TypeError:  # an unhashable id
                known = False
            if known:
                return key
            raise GraphError(f"vertex {key[1]!r} is not a vertex of the graph")
        if not (isinstance(key, tuple) and len(key) == 3 and key[0] == "e"):
            raise GraphError(f"{key!r} is not a location key ('v', id) or ('e', edge, offset)")
        _, e, off = key
        if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < len(self.edges):
            raise GraphError(f"edge index {e!r} is not an edge of the graph")
        if isinstance(off, bool) or not isinstance(off, (int, Fraction)):
            raise GraphError(f"offset {off!r} is not an int or a Fraction")
        u, v, ln = self.edges[e]
        if off == 0:
            return ("v", u)
        if off == ln:
            return ("v", v)
        if not 0 < off < ln:
            raise GraphError("offset outside edge")
        return key

    @cached_property
    def _vertex_set(self):
        return frozenset(self.vertex_ids)

    @cached_property
    def _vertex_ends(self):
        ends = {}
        for e, (u, v, _) in enumerate(self.edges):
            ends.setdefault(u, (e, True))
            ends.setdefault(v, (e, False))
        return ends


def vertex_key(vid):
    return ("v", vid)


class GraphPLFunction(Record):
    """Continuous piecewise-linear function, stored per edge as (offset, value) breakpoints.

    The constructor takes one tuple of Fraction pairs per edge as it is,
    unchecked: the package's own routines, which build what they hand it
    valid, call it.  build converts and checks, for every other caller,
    and serialize.graph_function_from_json checks its parsed Fractions
    with build's own checks, _checked."""

    edge_values: tuple  # one tuple of (offset, value) pairs per edge, endpoints included

    @staticmethod
    def build(graph: MetricGraph, edge_values) -> "GraphPLFunction":
        """The function of edge_values, one list of (offset, value) pairs
        per edge of graph, each number converted by as_fraction, then
        checked by _checked."""
        return GraphPLFunction._checked(graph, tuple(
            tuple((as_fraction(o), as_fraction(y)) for o, y in pairs) for pairs in edge_values
        ))

    @staticmethod
    def _checked(graph: MetricGraph, evs) -> "GraphPLFunction":
        """GraphPLFunction(evs), checked: evs holds one tuple of Fraction
        pairs per edge of graph.  In this order: one tuple per edge; on
        each edge the ends (at least two pairs, the first offset 0, the
        last the edge length), then the strict order of the offsets; then,
        edge by edge, one value at each vertex.  Every Fraction is in
        lowest terms, so each check compares integers: o_j < o_{j+1} as
        p_j q_{j+1} < p_{j+1} q_j, equality as equal numerators and
        denominators.  build and serialize.graph_function_from_json call
        it."""
        if len(evs) != len(graph.edges):
            raise GraphError(
                f"expected one breakpoint list per edge ({len(graph.edges)}), got {len(evs)}"
            )
        for e, (pairs, (_, _, ln)) in enumerate(zip(evs, graph.edges)):
            if len(pairs) < 2 or pairs[0][0].numerator or not _same(pairs[-1][0], ln):
                raise GraphError(f"edge {e}: breakpoints must run from 0 to the edge length")
            # with two pairs 0 < length holds already
            p, q = 0, 1
            for o, _ in pairs[1:] if len(pairs) > 2 else ():
                p1, q1 = o.numerator, o.denominator
                if p1 * q <= p * q1:
                    raise GraphError(f"edge {e}: breakpoints must be strictly increasing")
                p, q = p1, q1
        at = {}
        for pairs, (u, v, _) in zip(evs, graph.edges):
            for vid, y in ((u, pairs[0][1]), (v, pairs[-1][1])):
                # the reader parses equal strings to one object
                w = at.setdefault(vid, y)
                if w is not y and not _same(w, y):
                    raise GraphError(f"discontinuity at vertex {vid!r}")
        return GraphPLFunction(evs)

    @staticmethod
    def constant(graph: MetricGraph, c) -> "GraphPLFunction":
        c = as_fraction(c)
        return GraphPLFunction(
            tuple(((Fraction(0), c), (ln, c)) for _, _, ln in graph.edges)
        )

    def vertex_value(self, graph: MetricGraph, vid) -> Fraction:
        return self.eval(graph, ("v", vid))

    def eval(self, graph: MetricGraph, pt) -> Fraction:
        key = graph.point_key(pt)
        if key[0] == "v":
            e, at_start = graph._vertex_ends[key[1]]
            return self.edge_values[e][0 if at_start else -1][1]
        _, e, off = key
        return _values_at(self.edge_values[e], [off])[0]

    def combine(self, other: "GraphPLFunction", a, b) -> "GraphPLFunction":
        """a * self + b * other, breakpoints merged per edge.

        Both functions must live on the same edges: a different edge count,
        or an edge whose breakpoints start or end at different offsets,
        raises GraphError.
        """
        a, b = as_fraction(a), as_fraction(b)
        if len(self.edge_values) != len(other.edge_values):
            raise GraphError(
                f"edge count mismatch: {len(self.edge_values)} and {len(other.edge_values)}"
            )
        return GraphPLFunction(
            tuple(
                _merge(p1, p2, a, b) for p1, p2 in zip(self.edge_values, other.edge_values)
            )
        )

    def __add__(self, other):
        return self.combine(other, 1, 1)

    def __sub__(self, other):
        return self.combine(other, 1, -1)

    def scale(self, c) -> "GraphPLFunction":
        c = as_fraction(c)
        return GraphPLFunction(
            tuple(tuple((o, c * y) for o, y in pairs) for pairs in self.edge_values)
        )

    def simplify(self) -> "GraphPLFunction":
        """Drop breakpoints where the slope does not change."""
        evs = []
        for pairs in self.edge_values:
            kept = [pairs[0]]
            for i in range(1, len(pairs) - 1):
                (o0, y0), (o1, y1), (o2, y2) = kept[-1], pairs[i], pairs[i + 1]
                if (y1 - y0) * (o2 - o1) != (y2 - y1) * (o1 - o0):
                    kept.append(pairs[i])
            kept.append(pairs[-1])
            evs.append(tuple(kept))
        return GraphPLFunction(tuple(evs))


def _same(a, b) -> bool:
    """a == b for two Fractions in lowest terms, on their integers."""
    return a.numerator == b.numerator and a.denominator == b.denominator


def _values_at(pairs, offsets):
    """The piecewise-linear function of the sorted (offset, value) pairs at
    the sorted `offsets`, each within the pairs' range, as a list: one pass
    over the pairs.  An offset on a breakpoint takes its value as is, and
    only one strictly inside a segment is interpolated.  It is the one
    reader of a graph or 1-D function between its breakpoints."""
    out = []
    j = 0
    for o in offsets:
        while pairs[j][0] < o:
            j += 1
        o2, y2 = pairs[j]
        if o2 == o:
            out.append(y2)
        else:
            o1, y1 = pairs[j - 1]
            out.append(y1 + (y2 - y1) * (o - o1) / (o2 - o1))
    return out


def _merge(p1, p2, a, b):
    """The breakpoints of a * f1 + b * f2 on one edge, from those of f1 and
    f2: both read by _values_at at the sorted union of their offsets.
    Breakpoint lists that start or end at different offsets raise
    GraphError."""
    if p1[0][0] != p2[0][0] or p1[-1][0] != p2[-1][0]:
        raise GraphError("edge end offsets differ")
    offs = sorted({o for o, _ in p1} | {o for o, _ in p2})
    ys = zip(_values_at(p1, offs), _values_at(p2, offs))
    return tuple((o, a * y1 + b * y2) for o, (y1, y2) in zip(offs, ys))


class GraphMeasure(Record):
    """Atomic signed measure on a metric graph, keyed by canonical location
    (MetricGraph.point_key), with rational masses, in one canonical form:
    one atom per location, no zero mass, the atoms sorted by the repr of
    their keys, the byte order of every output.  The sum and difference,
    m + n and m - n, merge two canonical measures by location."""

    atoms: tuple  # ((key, mass), ...) in canonical order

    @staticmethod
    def _canonical(masses: dict) -> "GraphMeasure":
        """The measure of a dict of masses by canonical key: zero masses
        dropped, the atoms sorted by the repr of their keys."""
        return GraphMeasure(tuple(sorted(((k, m) for k, m in masses.items() if m != 0),
                                         key=lambda atom: repr(atom[0]))))

    @staticmethod
    def from_atoms(graph: MetricGraph, atoms) -> "GraphMeasure":
        acc = {}
        for loc, mass in atoms:
            key, mass = graph.point_key(loc), as_fraction(mass)
            acc[key] = acc[key] + mass if key in acc else mass
        return GraphMeasure._canonical(acc)

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_positive(self) -> bool:
        return all(m > 0 for _, m in self.atoms)

    @cached_property
    def masses(self) -> dict:
        """Mass by location, for the atoms' locations only."""
        return dict(self.atoms)

    def scale(self, c) -> "GraphMeasure":
        # the atoms stay in order and nonzero unless c is 0
        c = as_fraction(c)
        return GraphMeasure(tuple((k, c * m) for k, m in self.atoms) if c else ())

    def __add__(self, other: "GraphMeasure") -> "GraphMeasure":
        """Both measures are canonical already, so their masses are merged
        by location, with no location read again."""
        acc = dict(self.atoms)
        for k, m in other.atoms:
            acc[k] = acc[k] + m if k in acc else m
        return GraphMeasure._canonical(acc)

    def __sub__(self, other: "GraphMeasure") -> "GraphMeasure":
        return self + other.scale(-1)

    def mass_at(self, graph: MetricGraph, loc) -> Fraction:
        return self.masses.get(graph.point_key(loc), Fraction(0))

    def integrate(self, graph: MetricGraph, f: GraphPLFunction) -> Fraction:
        return sum((m * f.eval(graph, k) for k, m in self.atoms), Fraction(0))


# ---------------------------------------------------------------------------
# Laplacian and Poisson solving


def laplacian(f: GraphPLFunction, graph: MetricGraph) -> GraphMeasure:
    """Atomic measure of outgoing-slope sums; total mass is exactly zero.

    It is the form of node_problem with no mass on f, read back at every
    node: the operator every solve writes."""
    _, edge_offsets, _, (R, Dr, _, _) = node_problem(graph, f, GraphMeasure(()))
    keys = _node_keys(graph, edge_offsets)
    return GraphMeasure._canonical({key: Fraction(r, Dr) for key, r in zip(keys, R) if r})


def node_problem(graph: MetricGraph, f, mass: GraphMeasure, keys=()):
    """The one node problem of the curve Laplacian: laplacian(f) + mass on
    the nodes where f can bend or mass sits.

    The nodes are the vertices, f's interior breakpoints, the atoms of
    mass and the canonical location keys `keys`, numbered by _refine.
    Returns (index, edge_offsets, values, form): index maps each of
    `keys` and the key of each atom of mass to its node number,
    edge_offsets holds each edge's sorted interior offsets, values = (Y,
    Dy) is f at the nodes in their order as integer numerators over one
    common denominator (zeros over 1 when f is None), and form =
    laplacian_form(values, mass, weights) is the problem that
    solve_laplacian takes.  laplacian, normalized_potential and the curve
    envelope all write their problem here, so only this routine numbers
    nodes.
    """
    keys = [*keys, *(k for k, _ in mass.atoms)]
    index, weights, edge_offsets, y = _refine(graph, keys, f)
    if y is None:
        values = ([0] * (len(graph.vertex_ids) + sum(map(len, edge_offsets))), 1)
    else:
        Dy = lcm(*(q.denominator for q in y))
        values = ([q.numerator * (Dy // q.denominator) for q in y], Dy)
    form = laplacian_form(values, {index[k]: m for k, m in mass.atoms}, weights)
    return index, edge_offsets, values, form


def _refine(graph: MetricGraph, keys, f=None):
    """Number the nodes of the refined graph and weigh its segments.

    The nodes are the vertices in graph order, then edge by edge the
    interior offsets in increasing order: the interior breakpoints of f
    (none when f is None) in the order they come, with the offset of each
    key of `keys` inside the edge merged in, unless f breaks there
    already.  keys are canonical location keys, few beside f's
    breakpoints, so that only they are hashed and compared.

    Returns (index, weights, edge_offsets, values): index maps each key
    of `keys` to its node number; weights = (W, Dw) holds one (i, j, W_s)
    per segment on those numbers, the segments of each graph edge in
    order from its first end to its second, of weight W_s / Dw = 1 / its
    length over the least common denominator Dw; edge_offsets holds the
    sorted interior offsets of each edge, and values is f at the nodes in
    their order (None when f is None): f's own values at its breakpoints
    and at the vertices, and _values_at between them.  _eliminate breaks
    its minimum-degree ties in this order.  node_problem is its one
    caller.

    The weights are built on integers: with the offsets 0 < o_1 < ... <
    length of an edge written X_j / L over the lcm L of their
    denominators, segment j weighs L / (X_{j+1} - X_j), reduced by one
    gcd (an edge of length p / q with no interior node weighs q / p).
    """
    number = {vid: i for i, vid in enumerate(graph.vertex_ids)}
    index, extra = {}, {}
    for key in keys:
        if key[0] == "e":
            extra.setdefault(key[1], {})[key[2]] = None
        else:
            index[key] = number[key[1]]
    values = None
    if f is not None:
        ends = graph._vertex_ends
        values = [f.edge_values[e][0 if at_start else -1][1]
                  for e, at_start in map(ends.__getitem__, graph.vertex_ids)]
    segments, edge_offsets = [], []
    first = len(number)  # the number of the next interior node
    breakpoints = repeat(()) if f is None else f.edge_values
    for e, ((u, v, ln), pairs) in enumerate(zip(graph.edges, breakpoints)):
        if len(pairs) < 3 and e not in extra:  # one segment, weight 1 / length
            edge_offsets.append([])
            segments.append((number[u], number[v], ln.denominator, ln.numerator))
            continue
        offs = [o for o, _ in pairs[1:-1]]
        ys = [y for _, y in pairs[1:-1]]
        if e in extra:
            new = []
            for o in sorted(extra[e]):
                j = bisect_left(offs, o)
                if j == len(offs) or offs[j] != o:
                    offs.insert(j, o)
                    new.append(j)
                index[("e", e, o)] = first + j
            if f is not None:
                for j, y in zip(new, _values_at(pairs, [offs[j] for j in new])):
                    ys.insert(j, y)
        if f is not None:
            values += ys
        edge_offsets.append(offs)
        L = lcm(ln.denominator, *(o.denominator for o in offs))
        X = [0, *(o.numerator * (L // o.denominator) for o in offs),
             ln.numerator * (L // ln.denominator)]
        stops = [number[u], *range(first, first + len(offs)), number[v]]
        for a, b, x1, x2 in zip(stops, stops[1:], X, X[1:]):
            g = gcd(L, x2 - x1)
            segments.append((a, b, L // g, (x2 - x1) // g))
        first += len(offs)
    Dw = lcm(*(q for _, _, _, q in segments))
    W = [(a, b, p * (Dw // q)) for a, b, p, q in segments]
    return index, (W, Dw), edge_offsets, values


def _node_keys(graph: MetricGraph, edge_offsets):
    """The location key of each node of _refine, as a list in their order:
    the vertices in graph order, then each edge's interior offsets
    edge_offsets, edge by edge."""
    keys = [("v", vid) for vid in graph.vertex_ids]
    keys += [("e", e, o) for e, offs in enumerate(edge_offsets) for o in offs]
    return keys


# the primes of the exact solve: a zero pivot modulo one moves to the next
PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229)


def laplacian_form(values, mass, weights):
    """The Laplacian problem of solve_laplacian on the nodes 0..n-1 of a
    weighted graph, over common denominators: (R, Dr, W, Dw), where
    weights = (W, Dw) is the list W of the graph's edges (i, j, W_e), of
    weight W_e / Dw, and r = laplacian(y) + m = R[k] / Dr at node k, where
    values = (Y, Dy) holds y = Y / Dy at the n nodes as integer numerators
    over one denominator and m is the dict `mass` (node -> rational, 0
    where absent).  With the masses M / Dm, R_k = Dm sum_j W_kj (Y_j -
    Y_k) + M_k Dw Dy over Dr = Dm Dw Dy, then reduced by the gcd of Dr and
    every R_k, so that Dr is the least common denominator of r.  No
    Fraction is built.  A Poisson solve passes zero values, and the
    envelope the obstacle psi with the masses of omega0."""
    (Y, Dy), (W, Dw) = values, weights
    Dm = lcm(*(m.denominator for m in mass.values()))
    R = [0] * len(Y)
    for k, m in mass.items():
        R[k] = m.numerator * (Dm // m.denominator) * Dw * Dy
    for a, b, w in W:
        t = Dm * w * (Y[b] - Y[a])
        R[a] += t
        R[b] -= t
    h = gcd(Dm * Dw * Dy, *R)
    return [r // h for r in R], Dm * Dw * Dy // h, W, Dw


def solve_laplacian(form, pinned):
    """Solve the Laplacian problem `form` = (R, Dr, W, Dw) with the value 0
    on the set `pinned` of nodes: g with sum_j w_kj (g_j - g_k) = r_k at
    every other node k, where r = R / Dr and each (i, j, W_e) of the list
    W is an undirected edge of weight w = W_e / Dw.  Returns (G, d) with
    g = G / (d Dr), G = 0 on pinned.

    Every linear solve of the package goes through here.  The rows of
    the free nodes are sum_j W_kj (G_j - G_k) = Dw d R_k, one sparse dict
    per node, a pinned column dropped.  A float form (R of floats, Dr =
    Dw = 1) is solved in floats, one _eliminate and one _substitute, and
    d = 1.  An integer form (laplacian_form) is solved exactly by
    solve_integer, d its common denominator.  GraphError is raised for a
    singular system (modulo every prime of PRIMES, when exact); a
    connected graph with a pinned node never is.  ConvergenceError is
    raised only when an exact solve passes its lift bound.
    """
    R, _, W, Dw = form
    rows = [{} for _ in R]
    for a, c, w in W:
        for i, j in ((a, c), (c, a)):
            if i in pinned:
                continue
            row = rows[i]
            row[i] = row.get(i, 0) - w
            if j not in pinned:
                row[j] = row.get(j, 0) + w
    free = [k for k in range(len(R)) if k not in pinned]
    b = [0 if k in pinned else Dw * r for k, r in enumerate(R)]
    if isinstance(R[0], float):
        _substitute(_eliminate(rows, free, None), b, None)
        return b, 1
    return solve_integer(rows, b, free)


def _eliminate(rows, free, p):
    """Factor the rows of the nodes `free`, in place, in floats (p None)
    or over the integers mod the prime p.

    Rows are eliminated in minimum-degree order, ties broken by the node
    number (Rose, Tarjan and Lueker), so a chain or a cycle costs O(n).
    The order and the fill depend on the sparsity pattern only, so both
    arithmetics eliminate in the same order.  Returns one (i, pivot, row,
    multipliers) per eliminated node, in order: row i divided by its
    pivot, less its diagonal, the pivot (inverted mod p) and the multiple
    of row i taken off each later row of its columns, which _substitute
    replays on a source.  A zero pivot raises GraphError.
    """
    heap = [(len(rows[i]), i) for i in free]
    heapq.heapify(heap)
    done = [False] * len(rows)
    factors = []
    while heap:
        size, i = heapq.heappop(heap)
        if done[i] or size != len(rows[i]):
            continue  # stale entry: row i was eliminated or changed size
        done[i] = True
        row = rows[i]
        piv = row.pop(i, 0)
        if p is not None:
            piv %= p
        if piv == 0:
            raise GraphError("singular linear system")
        if p is None:
            for k in row:
                row[k] /= piv
        else:
            piv = pow(piv, -1, p)
            for k, v in row.items():
                row[k] = v * piv % p
        multipliers = []
        for j in row:
            rj = rows[j]
            c = rj.pop(i)
            if p is not None:
                c %= p
            multipliers.append(c)
            for k, v in row.items():
                rj[k] = rj.get(k, 0) - c * v
            heapq.heappush(heap, (len(rj), j))
        factors.append((i, piv, row, multipliers))
    return factors


def _substitute(factors, b, p):
    """Solve with the factors of _eliminate, in place on the list b: the
    forward elimination replayed, then back substitution, in floats (p
    None) or mod p.  Floats are divided by the stored pivot, as in the
    elimination itself.  Mod p, the sums of each node are reduced once,
    where it is multiplied by its inverted pivot, and b becomes the
    solution at the eliminated nodes as residues in (-p/2, p/2]."""
    for i, piv, row, multipliers in factors:
        bi = b[i] = b[i] / piv if p is None else b[i] * piv % p
        for j, c in zip(row, multipliers):
            b[j] -= c * bi
    for i, _, row, _ in reversed(factors):
        y = b[i] - _dot(row, b)
        if p is not None:
            y %= p
            if y > p // 2:
                y -= p
        b[i] = y


def _dot(row, x):
    """The sparse row (a dict column -> coefficient) times the list x."""
    return sum(map(mul, row.values(), map(x.__getitem__, row)))


def solve_integer(rows, b, free):
    """Solve the integer system A x = b at the nodes `free`, exactly, by
    p-adic lifting (Dixon, Numer. Math. 1982).  rows[i] is the sparse
    integer row of node i (a dict column -> coefficient, its columns among
    `free`) and b[i] its integer source.  Returns (X, d) with d > 0 and
    A X = d b; X[i] is set at the nodes of `free` only.

    A is factored once mod a prime p of PRIMES (_eliminate), in the same
    order as in floats.  Each lift is one _substitute: y = A^-1 r mod p,
    in residues of size below p/2, then r <- (r - A y) / p, exactly, so
    that b - A X = p^k r for X = sum of y p^j after k lifts; r = 0 ends
    the solve with the integral solution X.  Otherwise the rational
    solution is rebuilt from X mod p^k after every lift (_reconstruct)
    and returned as soon as it satisfies A X = d b exactly.  The product
    B of (|row i|_1 + |b_i|) over the free rows bounds |det A| and, by
    Cramer's rule, every numerator of x over the common denominator
    (Hadamard's inequality with 1-norms), so the reconstruction succeeds
    once p^k > 2 B^2; a solve that has not ended by then raises
    ConvergenceError.  A zero pivot mod p moves to the next prime;
    GraphError is raised when every prime meets one.
    """
    for p in PRIMES:
        try:
            factors = _eliminate([dict(row) for row in rows], free, p)
        except GraphError:
            continue
        break
    else:
        raise GraphError("singular linear system")
    bound = 2 * prod(sum(map(abs, rows[i].values())) + abs(b[i]) for i in free) ** 2
    r = list(b)
    X = [0] * len(b)
    pk = 1
    while pk <= bound:
        y = list(r)
        _substitute(factors, y, p)
        for i in free:
            X[i] += y[i] * pk
        pk *= p
        for i in free:
            r[i] = (r[i] - _dot(rows[i], y)) // p
        if not any(r[i] for i in free):
            return X, 1
        found = _reconstruct(X, free, pk)
        if found and all(_dot(rows[i], found[0]) == found[1] * b[i] for i in free):
            return found
    raise ConvergenceError("p-adic solve passed its lift bound unreconstructed")


def _reconstruct(X, free, modulus):
    """Rationals N[i] / d congruent to X[i] mod `modulus` at the nodes
    `free`, over one common denominator d at most sqrt(modulus / 2).  Each
    X[i] is first multiplied by the denominator found so far: a product
    within sqrt(modulus / 2) of 0 is its numerator, and a larger one is
    reconstructed (Wang's half extended Euclid, numerator and denominator
    both within that bound), its denominator joining d.  Returns (N, d),
    or None when no such rationals exist."""
    half = modulus // 2
    bound = isqrt(half)
    d = 1
    out = []
    for i in free:
        t = X[i] * d % modulus
        if t > half:
            t -= modulus
        if abs(t) > bound:
            r0, r1, s0, s1 = modulus, t % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 < 0:
                r1, s1 = -r1, -s1
            d *= s1
            if s1 > bound or d > bound:
                return None
            t = r1
        out.append((i, t, d))
    N = [0] * len(X)
    for i, t, di in out:
        N[i] = t * (d // di)
    return N, d


def _function_from_node_values(graph, values, edge_offsets, W):
    """The function, linear between the nodes of _refine, that takes the
    value N[k] / D at node k, where values = (N, D) holds integer
    numerators over one common denominator, simplified: the one routine
    that builds a solved function.

    W is the list of _refine's segments (i, j, W_s), of weight W_s / Dw,
    each graph edge's in order.  An interior node b between the nodes a
    and c stays a breakpoint unless the slopes on its two sides agree,
    (N[b] - N[a]) W_ab = (N[c] - N[b]) W_bc, an integer test that drops
    what GraphPLFunction.simplify drops.  One Fraction is built per
    vertex and per kept breakpoint, the offsets are _refine's own."""
    N, D = values
    at = {vid: Fraction(n, D) for vid, n in zip(graph.vertex_ids, N)}
    zero = Fraction(0)
    evs = []
    s = 0
    for (u, v, ln), offs in zip(graph.edges, edge_offsets):
        if not offs:
            evs.append(((zero, at[u]), (ln, at[v])))
            s += 1
            continue
        segs = W[s:s + len(offs) + 1]
        s += len(offs) + 1
        pairs = [(zero, at[u])]
        for (a, b, wl), (_, c, wr), o in zip(segs, segs[1:], offs):
            if (N[b] - N[a]) * wl != (N[c] - N[b]) * wr:
                pairs.append((o, Fraction(N[b], D)))
        pairs.append((ln, at[v]))
        evs.append(tuple(pairs))
    return GraphPLFunction(tuple(evs))


def solve_poisson(
    graph: MetricGraph, rho: GraphMeasure, normalization
) -> GraphPLFunction:
    """Exact f with laplacian(f) = rho and f(normalization) = 0: the
    normalized potential of mu = rho + delta_x against omega0 = delta_x,
    x the normalization point, on the nodes of rho's atoms and x."""
    if rho.total_mass() != 0:
        raise MassBalanceError("source measure must have total mass zero")
    x = GraphMeasure.from_atoms(graph, [(normalization, 1)])
    return normalized_potential(graph, rho + x, x)


def normalized_potential(
    graph: MetricGraph, mu: GraphMeasure, omega0: GraphMeasure
) -> GraphPLFunction:
    """The one normalized potential: f with laplacian(f) = mu - omega0 and
    zero integral against omega0, whose mass d_L is also mu's.

    One solve of node_problem's form on the nodes of mu's and omega0's
    atoms, pinned at node 0 (the first vertex), gives g = G / (d Dr); then
    f = g - c with c = sum_k omega0(k) G_k / (d Dr d_L), shifted on the
    integer numerators over their one denominator q d Dr (c = p / q), from
    which _function_from_node_values builds it.  The normalized f is
    unique and simplified, so the pin does not show in the result.  solve_poisson,
    green and solver.solve_curve return it, after their own checks.
    """
    # mu - omega0 loses only atoms that omega0 shares, so with omega0's
    # atoms the nodes are the atoms of both
    keys = [k for k, _ in omega0.atoms]
    index, edge_offsets, _, form = node_problem(graph, None, mu - omega0, keys)
    G, d = solve_laplacian(form, {0})
    c = sum(m * G[index[k]] for k, m in omega0.atoms) / omega0.total_mass()
    p, q = c.numerator, c.denominator
    values = ([g * q - p for g in G], q * d * form[1])
    return _function_from_node_values(graph, values, edge_offsets, form[2])


def green(graph: MetricGraph, x, omega0: GraphMeasure) -> GraphPLFunction:
    """Potential with laplacian = d_L delta_x - omega0, normalized so that
    its integral against omega0 vanishes.  d_L is the mass of omega0.  It
    is `normalized_potential` for mu = d_L delta_x."""
    d_L = reference_mass(omega0)
    return normalized_potential(graph, GraphMeasure.from_atoms(graph, [(x, d_L)]), omega0)


def green_value(graph: MetricGraph, x, y, omega0: GraphMeasure) -> Fraction:
    return green(graph, x, omega0).eval(graph, y)


def reference_mass(omega0: GraphMeasure) -> Fraction:
    """The mass d_L of the reference measure omega0, which must be a
    positive measure of positive mass: MassBalanceError otherwise.  green,
    solve_curve and the envelope all check it here."""
    d_L = omega0.total_mass()
    if d_L <= 0 or not omega0.is_positive():
        raise MassBalanceError("reference measure must be positive")
    return d_L


def _check_balance(mu: GraphMeasure, omega0: GraphMeasure) -> Fraction:
    """Check that mu is positive with the mass d_L of the positive reference
    omega0, as laplacian(f) = mu - omega0 requires; return d_L."""
    if mu.total_mass() != omega0.total_mass():
        raise MassBalanceError("mu must have the same mass as the reference measure")
    if not mu.is_positive():
        raise MassBalanceError("mu must be positive")
    return reference_mass(omega0)


def superpose(graph: MetricGraph, mu: GraphMeasure, omega0: GraphMeasure) -> GraphPLFunction:
    """d_L^{-1} sum over atoms x of mu of mass(x) * green(x); solves
    laplacian(f) = mu - omega0 with omega0-integral zero."""
    d_L = _check_balance(mu, omega0)
    out = GraphPLFunction.constant(graph, 0)
    for key, mass in mu.atoms:
        out = out + green(graph, key, omega0).scale(mass / d_L)
    return out.simplify()


def is_subharmonic(f: GraphPLFunction, graph: MetricGraph, omega0: GraphMeasure) -> bool:
    """True iff laplacian(f) + omega0 is a positive measure."""
    return (laplacian(f, graph) + omega0).is_positive()


def ma_curve(f: GraphPLFunction, graph: MetricGraph, omega0: GraphMeasure) -> GraphMeasure:
    """omega0 + laplacian(f); requires subharmonicity, total mass = mass(omega0)."""
    out = laplacian(f, graph) + omega0
    if not out.is_positive():
        raise SubharmonicityError("function is not subharmonic for the reference measure")
    return out


# ---------------------------------------------------------------------------
# dynamics on the circle


def circle_graph(length=1) -> MetricGraph:
    return MetricGraph.build([0], [(0, 0, length)])


CanonicalForm = namedtuple("CanonicalForm", "n p q mass offsets order")
CanonicalForm.__doc__ = """The closed form of canonical_metric on integers, read by
    canonical_metric and by serialize.canonical_metric_to_json.

    n = m^k is the number of arcs; the potential at j/n is p j (j - n) / q
    with q = 2 den(d_L) n^2, p = num(d_L); every atom has the mass d_L / n;
    offsets holds the reduced rational string of j/n, j = 0 .. n ("0" and
    "1" at the ends); order lists the interior division points j = 1 .. n-1
    in the repr order of their keys.  n, p and q are ints, mass a Fraction,
    and offsets and order lists."""


def canonical_form(m: int, iterations: int, d_L=1) -> CanonicalForm:
    """The closed form of the canonical metric at step k = iterations (see
    canonical_metric), on integers.  Each offset string is formatted once,
    with one gcd per pair (j, n - j), since gcd(j, n) = gcd(n - j, n), and
    the order is read off those strings.  Cost O(n log n) for the order."""
    if m < 2:
        raise ValueError("multiplier m must be at least 2")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    d_L = as_fraction(d_L)
    n = m**iterations
    offsets = ["0"] * (n + 1)
    offsets[n] = "1"
    for j in range(1, n // 2 + 1):
        g = gcd(j, n)
        b = n // g
        offsets[j] = "%d/%d" % (j // g, b)
        offsets[n - j] = "%d/%d" % (b - j // g, b)
    # the repr order of the keys: "('e', 0, Fraction(a, b))" with a/b = j/n
    # in lowest terms sorts as (str(a), str(b)), since "," and ")" sort
    # below every digit, and so as the string "a/b" (b > 1 here, and "/"
    # sorts below every digit too); the vertex key "('v', 0)" comes last
    order = sorted(range(1, n), key=offsets.__getitem__)
    return CanonicalForm(n, d_L.numerator, 2 * d_L.denominator * n * n, d_L / n, offsets, order)


def canonical_metric(m: int, iterations: int, d_L=1):
    """Canonical metric of multiplication by m on the unit circle, at step k.

    Returns (potential, measure).  The measure omega_k puts d_L / N on each
    N-division point, N = m^k, and the potential u solves laplacian(u) =
    omega_k - omega0 with u = 0 at the base point, where omega0 = d_L * delta
    at the base point.  On the circle u is the discrete parabola

        u(j/N) = d_L * j * (j - N) / (2 N^2),    j = 0 .. N,

    linear in between: its slope on the j-th arc is s0 + j d_L / N with
    s0 = -d_L (N - 1) / (2 N), so it breaks by d_L / N at every interior
    division point.  This closed form equals both the Poisson solve of that
    problem and the k-th iterate of the pullback u -> h + (u o m) / m^2 from
    u = 0 (Baker and Rumely), which the tests keep as oracles; omega_k
    equidistributes toward d_L times Lebesgue measure.  The form is written
    once, on integers, by canonical_form; this function builds its
    Fractions from it, and serialize.canonical_metric_to_json its document.
    Cost O(N log N).
    """
    n, p, q, mass, _, order = canonical_form(m, iterations, d_L)
    offsets = [Fraction(j, n) for j in range(n)] + [Fraction(1)]
    potential = GraphPLFunction(
        (tuple((o, Fraction(p * j * (j - n), q)) for j, o in enumerate(offsets)),)
    )
    if mass == 0:
        return potential.simplify(), GraphMeasure(())
    keys = [("e", 0, offsets[j]) for j in order] + [("v", 0)]
    return potential, GraphMeasure(tuple((key, mass) for key in keys))
