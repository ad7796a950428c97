"""Counters of the calls that the performance pins count: the rational
strings serialize.parse_rational parses into Fractions and
serialize._rational_pair into integers (every parse, parse_rational's
included), the GraphPLFunction.build calls,
the curves.solve_laplacian calls by kind, a float guide's form or an
exact one, the 2-D walks of geometry._walk, the exact residuals of
solver.residual, the float power-cell evaluations of
solver._power_cells, one per Newton start and per trial step, and their
halfplane clips, the calls of solver._clip_polygon, and the
first builds of the Fraction pieces of a PLConvexFunction and of the
Fraction atoms of a DiscreteMeasure, each built once per object from its
integer form.  tests/test_solve_counts.py pins them, and tests/ladder.py
prints them."""

from functools import cached_property

from plma import curves, geometry, serialize, solver


def count_calls(setattr):
    """Wrap the counted routines with `setattr`, pytest's
    monkeypatch.setattr, which puts them back after; return the dict of
    their calls from now on: "parse_rational", "pair", "build", "float",
    "exact", "walk", "residual", "cells", "clips", "pieces" and
    "atoms"."""
    calls = dict.fromkeys(("parse_rational", "pair", "build", "float", "exact", "walk",
                           "residual", "cells", "clips", "pieces", "atoms"), 0)
    parse, pair = serialize.parse_rational, serialize._rational_pair
    build = curves.GraphPLFunction.build
    solve, walk, residual = curves.solve_laplacian, geometry._walk, solver.residual
    cells, clip = solver._power_cells, solver._clip_polygon

    def parse_rational(s):
        calls["parse_rational"] += 1
        return parse(s)

    def rational_pair(s):
        calls["pair"] += 1
        return pair(s)

    def counted_build(graph, edge_values):
        calls["build"] += 1
        return build(graph, edge_values)

    def solve_laplacian(form, pinned):
        calls["float" if isinstance(form[0][0], float) else "exact"] += 1
        return solve(form, pinned)

    def counted_walk(form):
        calls["walk"] += 1
        return walk(form)

    def counted_residual(g, nu, delta):
        calls["residual"] += 1
        return residual(g, nu, delta)

    def power_cells(ring, atoms, weights, vol):
        calls["cells"] += 1
        return cells(ring, atoms, weights, vol)

    def clip_polygon(cell, a, b, j):
        calls["clips"] += 1
        return clip(cell, a, b, j)

    setattr(serialize, "parse_rational", parse_rational)
    setattr(serialize, "_rational_pair", rational_pair)
    setattr(curves.GraphPLFunction, "build", staticmethod(counted_build))
    setattr(curves, "solve_laplacian", solve_laplacian)
    setattr(geometry, "_walk", counted_walk)
    setattr(solver, "residual", counted_residual)
    setattr(solver, "_power_cells", power_cells)
    setattr(solver, "_clip_polygon", clip_polygon)
    for cls, name in ((geometry.PLConvexFunction, "pieces"), (geometry.DiscreteMeasure, "atoms")):
        setattr(cls, name, _first_builds(cls, name, calls))
    return calls


def _first_builds(cls, name, calls):
    """The cached property `name` of cls, counting in calls[name] each
    time it is built, once per object."""
    build = cls.__dict__[name].func

    def counted(self):
        calls[name] += 1
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    return prop
