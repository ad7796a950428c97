"""Potential theory on finite metric graphs.

A location on a graph is a key: ("v", id) for a vertex and ("e", e, off)
for the point at offset off, strictly inside edge e; MetricGraph.point_key
checks a key against the graph and canonicalises an edge end to its
vertex.  The Laplacian of a piecewise-linear function is the atomic
signed measure assigning to each point the sum of its outgoing slopes;
with this convention a local maximum carries negative mass and the total
mass is always zero.  A GraphMeasure has the one canonical form of
geometry.AtomicMeasure, its atoms sorted by the repr of their keys.
Poisson problems are solved exactly on the Laplacian of the vertices and
the atoms.  _refine numbers those nodes once (the vertices in graph
order, then each edge's sorted interior offsets), and only this module
reads that order.  Every linear solve of the package is one problem with
one entry: laplacian_form writes a weighted graph on the node numbers
0..n-1 and its sources over common denominators, and solve_laplacian(form,
pinned) solves its Laplacian with the value 0 on a set of pinned nodes.
The toric Newton step pins the gauge w_0 = 0, a Poisson solve f = 0 at
its normalization point, and each Howard step of the envelope the gap
psi - P(psi) = 0 on its contact set.  A float form (the Newton step, the
envelope's float guide) is one _eliminate in minimum-degree order and one
_substitute with that factorization.  An integer form goes through
solve_integer, which runs the same two routines modulo a 61-bit prime and
lifts the solution p-adically (Dixon), one _substitute per lift, until it
rebuilds the integer numerators over one common denominator, checked
exactly, or passes a Hadamard bound on their size (ConvergenceError).
One routine, normalized_potential, solves laplacian(f) = mu - omega0 and
shifts f to zero integral against the reference measure omega0, which
must be positive with positive mass (reference_mass): green is its case
mu = d_L delta_x, and solver.solve_curve its general case.  The
canonical metric of multiplication by m on the circle at step k needs no
solve: its potential is the discrete parabola through the m^k-division
points, in closed form.

A graph has at least one edge; loops and parallel edges are allowed,
and all edge lengths are finite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from operator import mul

from .geometry import AtomicMeasure, as_fraction


class GraphError(ValueError):
    pass


class MassBalanceError(ValueError):
    """Source measure does not have the required total mass."""


class SubharmonicityError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """An iterative solve stopped without a verified result (CLI exit 3)."""


@dataclass(frozen=True)
class MetricGraph:
    vertex_ids: tuple
    edges: tuple  # ((u, v, length), ...)

    @staticmethod
    def build(vertex_ids, edges) -> "MetricGraph":
        vids = tuple(vertex_ids)
        if len(set(vids)) != len(vids):
            raise GraphError("duplicate vertex ids")
        es = []
        for u, v, ln in edges:
            ln = as_fraction(ln)
            if ln <= 0:
                raise GraphError("edge lengths must be positive")
            if u not in vids or v not in vids:
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


@dataclass(frozen=True)
class GraphPLFunction:
    """Continuous piecewise-linear function, stored per edge as (offset, value) breakpoints."""

    edge_values: tuple  # one tuple of (offset, value) pairs per edge, endpoints included

    @staticmethod
    def build(graph: MetricGraph, edge_values) -> "GraphPLFunction":
        edge_values = tuple(edge_values)
        if len(edge_values) != len(graph.edges):
            raise GraphError(
                f"expected one breakpoint list per edge ({len(graph.edges)}), "
                f"got {len(edge_values)}"
            )
        evs = []
        for e, pairs in enumerate(edge_values):
            ln = graph.edge_length(e)
            pairs = tuple((as_fraction(o), as_fraction(y)) for o, y in pairs)
            if len(pairs) < 2 or pairs[0][0] != 0 or pairs[-1][0] != ln:
                raise GraphError(f"edge {e}: breakpoints must run from 0 to the edge length")
            if any(b[0] <= a[0] for a, b in zip(pairs, pairs[1:])):
                raise GraphError(f"edge {e}: breakpoints must be strictly increasing")
            evs.append(pairs)
        f = GraphPLFunction(tuple(evs))
        # continuity across shared vertices
        vals = {}
        for e, (u, v, ln) in enumerate(graph.edges):
            for vid, val in ((u, evs[e][0][1]), (v, evs[e][-1][1])):
                if vid in vals and vals[vid] != val:
                    raise GraphError(f"discontinuity at vertex {vid!r}")
                vals[vid] = val
        return f

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
        return _interp(self.edge_values[e], off)

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


def _interp(pairs, off):
    for (o1, y1), (o2, y2) in zip(pairs, pairs[1:]):
        if o1 <= off <= o2:
            return y1 + (y2 - y1) * (off - o1) / (o2 - o1)
    raise GraphError("offset outside edge")


def _merge(p1, p2, a, b):
    """The breakpoints of a * f1 + b * f2 on one edge, from those of f1 and f2.

    One pass over both sorted lists: a breakpoint of one function lies on
    the current segment of the other, which is interpolated there, so an
    edge costs O(len(p1) + len(p2)).
    """
    if p1[0][0] != p2[0][0] or p1[-1][0] != p2[-1][0]:
        raise GraphError("edge end offsets differ")
    out = [(p1[0][0], a * p1[0][1] + b * p2[0][1])]
    i = j = 1
    while i < len(p1):
        (o1, y1), (o2, y2) = p1[i], p2[j]
        if o1 == o2:
            out.append((o1, a * y1 + b * y2))
            i += 1
            j += 1
        elif o1 < o2:
            q, z = p2[j - 1]
            out.append((o1, a * y1 + b * (z + (y2 - z) * (o1 - q) / (o2 - q))))
            i += 1
        else:
            q, z = p1[i - 1]
            out.append((o2, a * (z + (y1 - z) * (o2 - q) / (o1 - q)) + b * y2))
            j += 1
    return tuple(out)


class GraphMeasure(AtomicMeasure):
    """Atomic signed measure on a metric graph, keyed by canonical location
    (MetricGraph.point_key).  Its atoms are sorted by the repr of their
    keys, the byte order of every output."""

    _order = staticmethod(lambda atom: repr(atom[0]))

    @staticmethod
    def from_atoms(graph: MetricGraph, atoms) -> "GraphMeasure":
        return GraphMeasure._canonical(GraphMeasure._summed(atoms, graph.point_key))

    def mass_at(self, graph: MetricGraph, loc) -> Fraction:
        return self.masses.get(graph.point_key(loc), Fraction(0))

    def integrate(self, graph: MetricGraph, f: GraphPLFunction) -> Fraction:
        return sum((m * f.eval(graph, k) for k, m in self.atoms), Fraction(0))


# ---------------------------------------------------------------------------
# Laplacian and Poisson solving


def laplacian(f: GraphPLFunction, graph: MetricGraph) -> GraphMeasure:
    """Atomic measure of outgoing-slope sums; total mass is exactly zero.

    f lives on graph, so each interior breakpoint (e, o) has 0 < o < the
    length of e, and ("e", e, o) is its canonical key as it stands."""
    acc = {}

    def put(key, m):
        if m != 0:
            acc[key] = acc.get(key, Fraction(0)) + m

    for e, pairs in enumerate(f.edge_values):
        u, v, ln = graph.edges[e]
        slopes = [
            (y2 - y1) / (o2 - o1) for (o1, y1), (o2, y2) in zip(pairs, pairs[1:])
        ]
        put(("v", u), slopes[0])
        put(("v", v), -slopes[-1])
        for i in range(1, len(pairs) - 1):
            put(("e", e, pairs[i][0]), slopes[i] - slopes[i - 1])
    return GraphMeasure._canonical(acc)


def _refine(graph: MetricGraph, keys):
    """Number the nodes of the refined graph: the vertices in graph order,
    then each edge's sorted interior offsets, edge by edge.

    keys are location keys; those inside an edge become nodes.  Returns
    (index, edges, edge_offsets): index maps each node's key to its
    number, edges holds one (i, j, 1 / length) per segment on those
    numbers, the segments of each graph edge in order, and edge_offsets
    the sorted interior offsets of each edge.  _eliminate breaks its
    minimum-degree ties in this order, and _node_values and
    _function_from_node_values read it.
    """
    interior = {}
    for key in keys:
        if key[0] == "e":
            interior.setdefault(key[1], set()).add(key[2])
    index = {("v", vid): i for i, vid in enumerate(graph.vertex_ids)}
    edges = []
    edge_offsets = []
    for e, (u, v, ln) in enumerate(graph.edges):
        offs = sorted(interior.get(e, ()))
        edge_offsets.append(offs)
        first = len(index)
        index.update((("e", e, o), first + j) for j, o in enumerate(offs))
        stops = [index[("v", u)], *range(first, len(index)), index[("v", v)]]
        offs_full = [Fraction(0)] + offs + [ln]
        edges.extend(
            (a, b, 1 / (o2 - o1))
            for a, b, o1, o2 in zip(stops, stops[1:], offs_full, offs_full[1:])
        )
    return index, edges, edge_offsets


# the primes of the exact solve: a zero pivot modulo one moves to the next
PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229)


def laplacian_form(values, mass, edges):
    """The Laplacian problem of solve_laplacian on the nodes 0..n-1 of a
    weighted graph, over common denominators: (R, Dr, W, Dw), with W the
    list `edges` of (i, j, w), each weight w = W_e / Dw replaced by its
    numerator W_e, and r = laplacian(y) + m = R[k] / Dr at node k, where y
    is the list `values` (n rationals) and m the dict `mass` (node ->
    rational, 0 where absent).  With y = Y / Dy and the masses M / Dm,
    R_k = Dm sum_j W_kj (Y_j - Y_k) + M_k Dw Dy over Dr = Dm Dw Dy, then
    reduced by the gcd of Dr and every R_k, so that Dr is the least common
    denominator of r.  A Poisson solve passes zero values, and the
    envelope the obstacle psi with the masses of omega0."""
    Dy = lcm(*(y.denominator for y in values))
    Dm = lcm(*(m.denominator for m in mass.values()))
    Dw = lcm(*(w.denominator for _, _, w in edges))
    Y = [y.numerator * (Dy // y.denominator) for y in values]
    W = [(a, b, w.numerator * (Dw // w.denominator)) for a, b, w in edges]
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


def _node_values(f, graph, edge_offsets):
    """f at the nodes of _refine, as a list in their order: the vertices,
    then each edge's sorted interior offsets.  One pass over f's
    breakpoints per edge: a node on a breakpoint takes f's value there,
    and only a node strictly inside a segment of f is interpolated.  A
    vertex takes its value from the edge f.eval reads."""
    values = []
    for vid in graph.vertex_ids:
        e, first = graph._vertex_ends[vid]
        values.append(f.edge_values[e][0 if first else -1][1])
    for pairs, offsets in zip(f.edge_values, edge_offsets):
        j = 1
        for o in offsets:
            while pairs[j][0] < o:
                j += 1
            o2, y2 = pairs[j]
            if o2 == o:
                values.append(y2)
            else:
                o1, y1 = pairs[j - 1]
                values.append(y1 + (y2 - y1) * (o - o1) / (o2 - o1))
    return values


def _function_from_node_values(graph, values, edge_offsets):
    """The function, linear between the nodes of _refine, that takes the
    values of the list `values` (in _refine's node order), simplified."""
    at = dict(zip(graph.vertex_ids, values))
    node = len(graph.vertex_ids)
    evs = []
    for (u, v, ln), offs in zip(graph.edges, edge_offsets):
        inner = zip(offs, values[node:node + len(offs)])
        node += len(offs)
        evs.append(((Fraction(0), at[u]), *inner, (ln, at[v])))
    return GraphPLFunction(tuple(evs)).simplify()


def solve_poisson(
    graph: MetricGraph, rho: GraphMeasure, normalization
) -> GraphPLFunction:
    """Exact f with laplacian(f) = rho and f(normalization) = 0."""
    if rho.total_mass() != 0:
        raise MassBalanceError("source measure must have total mass zero")
    norm_key = graph.point_key(normalization)
    index, edges, edge_offsets = _refine(graph, [k for k, _ in rho.atoms] + [norm_key])
    form = laplacian_form([0] * len(index), {index[k]: m for k, m in rho.atoms}, edges)
    G, d = solve_laplacian(form, {index[norm_key]})
    return _function_from_node_values(graph, [Fraction(g, d * form[1]) for g in G], edge_offsets)


def normalized_potential(
    graph: MetricGraph, mu: GraphMeasure, omega0: GraphMeasure, d_L
) -> GraphPLFunction:
    """The one normalized potential: f with laplacian(f) = mu - omega0 and
    zero integral against omega0, whose mass d_L is also mu's.

    One solve on the nodes of mu's and omega0's atoms, pinned at node 0
    (the first vertex), gives g = G / (d Dr); then f = g - c with
    c = sum_k omega0(k) G_k / (d Dr d_L), shifted on the integer
    numerators, one Fraction per node.  The normalized f is unique and
    simplified, so the pin does not show in the result.  Both green and
    solver.solve_curve return it, after their own checks.
    """
    index, edges, edge_offsets = _refine(graph, [k for k, _ in mu.atoms + omega0.atoms])
    form = laplacian_form([0] * len(index), {index[k]: m for k, m in (mu - omega0).atoms}, edges)
    G, d = solve_laplacian(form, {0})
    c = sum(m * G[index[k]] for k, m in omega0.atoms) / d_L
    p, q = c.numerator, c.denominator
    values = [Fraction(g * q - p, q * d * form[1]) for g in G]
    return _function_from_node_values(graph, values, edge_offsets)


def green(graph: MetricGraph, x, omega0: GraphMeasure) -> GraphPLFunction:
    """Potential with laplacian = d_L delta_x - omega0, normalized so that
    its integral against omega0 vanishes.  d_L is the mass of omega0.  It
    is `normalized_potential` for mu = d_L delta_x."""
    d_L = reference_mass(omega0)
    return normalized_potential(graph, GraphMeasure.from_atoms(graph, [(x, d_L)]), omega0, d_L)


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
    equidistributes toward d_L times Lebesgue measure.  Cost O(N).
    """
    if m < 2:
        raise ValueError("multiplier m must be at least 2")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    d_L = as_fraction(d_L)
    n = m**iterations
    offsets = [Fraction(j, n) for j in range(n)] + [Fraction(1)]
    p, q = d_L.numerator, 2 * d_L.denominator * n * n
    potential = GraphPLFunction(
        (tuple((o, Fraction(p * j * (j - n), q)) for j, o in enumerate(offsets)),)
    )
    mass = d_L / n
    if mass == 0:
        return potential.simplify(), GraphMeasure(())
    # the repr order of the keys: "('e', 0, Fraction(a, b))" sorts as
    # (str(a), str(b)), since "," and ")" sort below every digit, and the
    # vertex key "('v', 0)" comes last
    points = sorted(offsets[1:n], key=lambda o: (str(o.numerator), str(o.denominator)))
    keys = [("e", 0, o) for o in points] + [("v", 0)]
    return potential, GraphMeasure(tuple((key, mass) for key in keys))


def arc_masses(measure: GraphMeasure, parts: int):
    """Masses of the arcs [j/parts, (j+1)/parts) of the unit circle.

    An arc with one atom takes its mass as is; only a second atom in the
    same arc costs an addition.
    """
    out = [None] * parts
    for key, mass in measure.atoms:
        if key[0] == "v":
            j = 0
        else:
            # floor(frac(o) * parts) from o's integers, negative o included
            o = key[2]
            j = o.numerator * parts // o.denominator % parts
        out[j] = mass if out[j] is None else out[j] + mass
    return [Fraction(0) if m is None else m for m in out]
