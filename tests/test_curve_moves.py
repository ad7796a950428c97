"""Exact equivariance of the curve kernels under three moves of the graph.

Splitting an edge at a rational point (a new vertex of valence 2),
reversing an edge and relabelling the vertices keep the metric graph, so
every curve output is the same function, read at the moved locations.
The outputs are exact, so the symmetry is a set of equalities: the
potential of solve_curve, the Green function, the envelope and the
orthogonality defect, and the derivative of E(P(phi + t f)) with the
ends of its first chambers.  The moves renumber the nodes, flip offsets
and add nodes where every function is linear, which reaches the node
numbering, the Laplacian form, the pinned solves and the derivative
problem's pinned nodes and ratio test.
"""

import random
from fractions import Fraction

import pytest

from plma.curves import GraphMeasure, GraphPLFunction, MetricGraph, green
from plma.solver import solve_curve
from plma.variational import (
    energy_of_envelope_derivative,
    envelope_subharmonic,
    orthogonality_defect_curve,
)

from conftest import (
    interp,
    random_graph,
    random_graph_function,
    random_graph_point,
    random_positive_measure,
)


class CurveMove:
    """One move of `graph`, its choices drawn with rng: "split" its edge
    e = (u, v, l) at c = l k / 7 into (u, w, c), in its place, and
    (w, v, l - c), appended, w a new vertex; "reverse" edge e into
    (v, u, l); or "relabel" the vertices by a bijection onto new ids,
    listed in a shuffled order.  point carries a canonical location key
    over to the moved graph, and function and measure carry a PL function
    and an atomic measure."""

    def __init__(self, graph, kind, e, rng):
        ids, edges = list(graph.vertex_ids), list(graph.edges)
        self.kind, self.e = kind, e
        u, v, self.length = edges[self.e]
        if kind == "split":
            self.c, self.w = self.length * Fraction(rng.randint(1, 6), 7), max(ids) + 1
            edges[self.e] = (u, self.w, self.c)
            edges.append((self.w, v, self.length - self.c))
            ids.append(self.w)
        elif kind == "reverse":
            edges[self.e] = (v, u, self.length)
        else:
            self.sigma = dict(zip(ids, rng.sample(range(100, 100 + len(ids)), len(ids))))
            edges = [(self.sigma[a], self.sigma[b], ln) for a, b, ln in edges]
            ids = rng.sample(list(self.sigma.values()), len(ids))
        self.graph = MetricGraph.build(ids, edges)

    def point(self, key):
        if key[0] == "v":
            return ("v", self.sigma[key[1]]) if self.kind == "relabel" else key
        _, e, o = key
        if e != self.e or self.kind == "relabel":
            return key
        if self.kind == "reverse":
            return ("e", e, self.length - o)
        if o == self.c:
            return ("v", self.w)
        return key if o < self.c else ("e", len(self.graph.edges) - 1, o - self.c)

    def function(self, f):
        evs = list(f.edge_values)
        pairs = evs[self.e]
        if self.kind == "reverse":
            evs[self.e] = tuple((self.length - o, y) for o, y in reversed(pairs))
        elif self.kind == "split":
            y = interp(pairs, self.c)
            evs[self.e] = (*((o, z) for o, z in pairs if o < self.c), (self.c, y))
            evs.append(((Fraction(0), y), *((o - self.c, z) for o, z in pairs if o > self.c)))
        return GraphPLFunction(tuple(evs))

    def measure(self, mu):
        return GraphMeasure.from_atoms(self.graph, [(self.point(k), m) for k, m in mu.atoms])


@pytest.mark.parametrize("kind", ["split", "reverse", "relabel"])
def test_curve_kernels_commute_with_graph_moves(kind):
    # each output on the moved graph is the moved output, as a function:
    # both simplified, so equal at every point, the moved locations
    # included.  The derivative's exact value, radii and one-sided
    # derivatives are equal too, so the derivative problem and its ratio
    # test do not depend on the numbering or on a node where every
    # function is linear.  Every
    # fourth graph gets a loop edge at vertex 0, and its move takes that edge
    rng = random.Random(f"curve-moves/{kind}")
    inside = 0
    for i in range(24):
        g = random_graph(rng, 3)
        if i % 4 == 0:
            g = MetricGraph.build(g.vertex_ids, [*g.edges, (0, 0, Fraction(rng.randint(1, 6), 2))])
        om = random_positive_measure(rng, g, Fraction(2))
        mu = random_positive_measure(rng, g, Fraction(2))
        x = g.point_key(random_graph_point(rng, g))
        psi, f = random_graph_function(rng, g, 2), random_graph_function(rng, g)
        e = len(g.edges) - 1 if i % 4 == 0 else rng.randrange(len(g.edges))
        T = CurveMove(g, kind, e, rng)
        moved, om2 = T.graph, T.measure(om)

        def same(on_moved, on_graph):
            return on_moved.simplify() == T.function(on_graph).simplify()

        phi = solve_curve(g, mu, om)
        assert same(solve_curve(moved, T.measure(mu), om2), phi)
        assert same(green(moved, T.point(x), om2), green(g, x, om))
        assert same(envelope_subharmonic(T.function(psi), moved, om2),
                    envelope_subharmonic(psi, g, om))
        assert (orthogonality_defect_curve(T.function(psi), moved, om2)
                == orthogonality_defect_curve(psi, g, om))
        derivative = energy_of_envelope_derivative(phi, f, (g, om))
        assert energy_of_envelope_derivative(T.function(phi), T.function(f), (moved, om2)) \
            == derivative
        inside += any(h < 1 for h, _ in derivative[1])
    assert inside > 12
