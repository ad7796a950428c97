"""Counters of the calls that the performance pins count: the rational
strings serialize.parse_rational parses, the GraphPLFunction.build calls,
and the curves.solve_laplacian calls by kind, a float guide's form or an
exact one.  tests/test_solve_counts.py pins them, and tests/ladder.py
prints them."""

from plma import curves, serialize


def count_calls(setattr):
    """Wrap the counted routines with `setattr`, pytest's
    monkeypatch.setattr, which puts them back after; return the dict of
    their calls from now on: "parse_rational", "build", "float" and
    "exact"."""
    calls = dict.fromkeys(("parse_rational", "build", "float", "exact"), 0)
    parse, build = serialize.parse_rational, curves.GraphPLFunction.build
    solve = curves.solve_laplacian

    def parse_rational(s):
        calls["parse_rational"] += 1
        return parse(s)

    def counted_build(graph, edge_values):
        calls["build"] += 1
        return build(graph, edge_values)

    def solve_laplacian(form, pinned):
        calls["float" if isinstance(form[0][0], float) else "exact"] += 1
        return solve(form, pinned)

    setattr(serialize, "parse_rational", parse_rational)
    setattr(curves.GraphPLFunction, "build", staticmethod(counted_build))
    setattr(curves, "solve_laplacian", solve_laplacian)
    return calls
