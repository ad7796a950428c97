"""Counters of the calls that the performance pins count: the rational
strings serialize.parse_rational parses into Fractions and
serialize._rational_pair into integers (every parse, parse_rational's
included), the GraphPLFunction.build calls,
the curves.solve_laplacian calls by kind, a float guide's form or an
exact one, the 2-D walks of geometry._walk, the exact residuals of
solver.residual and the float power-cell evaluations of
solver._power_cells, one per Newton start and per trial step.
tests/test_solve_counts.py pins them, and tests/ladder.py prints them."""

from plma import curves, geometry, serialize, solver


def count_calls(setattr):
    """Wrap the counted routines with `setattr`, pytest's
    monkeypatch.setattr, which puts them back after; return the dict of
    their calls from now on: "parse_rational", "pair", "build", "float",
    "exact", "walk", "residual" and "cells"."""
    calls = dict.fromkeys(
        ("parse_rational", "pair", "build", "float", "exact", "walk", "residual", "cells"), 0)
    parse, pair = serialize.parse_rational, serialize._rational_pair
    build = curves.GraphPLFunction.build
    solve, walk, residual = curves.solve_laplacian, geometry._walk, solver.residual
    cells = solver._power_cells

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

    def power_cells(ring, atoms, weights):
        calls["cells"] += 1
        return cells(ring, atoms, weights)

    setattr(serialize, "parse_rational", parse_rational)
    setattr(serialize, "_rational_pair", rational_pair)
    setattr(curves.GraphPLFunction, "build", staticmethod(counted_build))
    setattr(curves, "solve_laplacian", solve_laplacian)
    setattr(geometry, "_walk", counted_walk)
    setattr(solver, "residual", counted_residual)
    setattr(solver, "_power_cells", power_cells)
    return calls
