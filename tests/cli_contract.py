"""The plma command line's contract: one row per invocation.

A row holds the argv of one `plma` invocation, the exit code, the error
object's (type, message) or None, and optionally the sha256 of stdout.
Input documents sit inline in the argv, each right after its flag: a
dict or list is written as the JSON file <flag>.json, a Text as it
stands in UTF-8, and bytes as they are.  test_serialize_cli replays every row through cli.run in a
fresh directory and checks it against the same relations, so a row
names no relation: exit code and error, an empty stdout beside every
error, the stdlib's indented encoding of every JSON document, the CSV
of every command but selftest against its JSON, and a zero
orthogonality defect.

The key of a row is the test id pytest prints for it: test_cli_contract[...]
for most rows, and the id of the test a row was once written out as, so
that each such id still names its case.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from plma import serialize
from plma.curves import GraphMeasure, solve_poisson, vertex_key


class Text(str):
    """An input document given as its raw text, written as UTF-8."""


class Prefix(str):
    """An error message of which only the start is pinned: argparse words
    the list of choices after an invalid one differently across Python
    versions."""


class Row(NamedTuple):
    argv: list
    code: int
    error: tuple[str, str] | None = None
    sha256: str | None = None


def _argv(command, documents, options=()):
    return [command, *(x for name, doc in documents.items() for x in ("--" + name, doc)), *options]


def _pieces(pairs):
    return {"pieces": [{"slope": s, "intercept": c} for s, c in pairs]}


def _atoms(pairs):
    return {"atoms": [{"point": p, "mass": m} for p, m in pairs]}


def _shifted_paraboloid(inner, shift):
    """Lattice paraboloid on the 1/3 grid of the unit square: the four corner
    slopes plus `inner`, intercepts |s|^2/2 + <s, shift>."""
    slopes = [(0, 0), (1, 0), (0, 1), (1, 1)] + [(Fraction(i, 3), Fraction(j, 3)) for i, j in inner]
    return _pieces([
        ([str(Fraction(c)) for c in s],
         str((Fraction(s[0]) ** 2 + Fraction(s[1]) ** 2) / 2 + s[0] * shift[0] + s[1] * shift[1]))
        for s in slopes
    ])


def _dented_graph(vertices, edges, omega0, mu, dents):
    """Graph documents with the obstacle psi solving laplacian(psi) = mu -
    dents - omega0/2 (masses 2, 1 and 2), as the benchmark builds them: one
    exact Poisson solve, so psi fails to be subharmonic at the dents."""
    graph = {"vertices": vertices,
             "edges": [{"ends": [u, v], "length": ln} for u, v, ln in edges]}
    g = serialize.graph_from_json(graph)

    def atoms(pairs, c=1):
        return [(serialize.graph_point_from_json(p), c * Fraction(m)) for p, m in pairs]

    rho = GraphMeasure.from_atoms(
        g, atoms(mu) + atoms(dents, -1) + atoms(omega0, Fraction(-1, 2)))
    psi = solve_poisson(g, rho, vertex_key(vertices[0]))
    psi = json.loads(serialize.graph_function_to_json(psi))
    return {"graph": graph, "omega0": _atoms(omega0), "g": psi}


def _subharmonic_graph(vertices, edges, omega0, mu, redundant):
    """Graph documents with a subharmonic obstacle: psi solves laplacian(psi)
    = mu - omega0/2 (masses 1 and 2), and each edge in `redundant` gets one more breakpoint,
    collinear, in the middle of its first segment."""
    documents = _dented_graph(vertices, edges, omega0, mu, [])
    for e in redundant:
        pairs = documents["g"]["edges"][e]
        (o1, y1), (o2, y2) = [[Fraction(c) for c in pair] for pair in pairs[:2]]
        pairs.insert(1, [serialize.rational_str((o1 + o2) / 2), serialize.rational_str((y1 + y2) / 2)])
    return documents


# ---------------------------------------------------------------------------
# toric documents

SQUARE = {"vertices": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]}
INTERVAL = {"vertices": [["0"], ["1"]]}
INTERVAL_11 = {"vertices": [["-1"], ["1"]]}
SIMPLEX = {"vertices": [["0", "0"], ["0", "1"], ["1", "0"]]}
HEXAGON = {"vertices": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"]]}
SEGMENT = {"vertices": [["0", "0"], ["2", "1"]]}
POINT = {"vertices": [["1/2", "1/3"]]}
SUPPORT_SQUARE = _pieces([(["0", "0"], "0"), (["0", "1"], "0"), (["1", "0"], "0"), (["1", "1"], "0")])
SQUARE_G = _pieces([(["0", "0"], "0"), (["1", "0"], "0"), (["0", "1"], "0"), (["1", "1"], "0"),
                    (["1/2", "1/2"], "-1/4")])
INTERVAL_G = _pieces([(["0"], "0"), (["1"], "1/3"), (["1/2"], "-1/5")])
SEGMENT_G = _pieces([(["0", "0"], "0"), (["1", "1/2"], "1/3"), (["2", "1"], "1/2")])
POINT_G = _pieces([(["1/2", "1/3"], "1/5")])
# the lattice paraboloid on the whole 1/3 grid of the unit square, k = 16
PARABOLOID_16 = _shifted_paraboloid(
    [(i, j) for i in range(4) for j in range(4) if {i, j} - {0, 3}], (0, 0))
# the corner slopes plus five interior slopes over the common denominator 6
DENOMINATOR_6 = _pieces([
    (["0", "0"], "1/6"), (["1", "0"], "1/3"), (["0", "1"], "1/2"), (["1", "1"], "5/6"),
    (["1/6", "1/2"], "-1/6"), (["5/6", "1/3"], "1/6"), (["1/2", "5/6"], "1/3"),
    (["1/3", "1/6"], "-1/3"), (["1/2", "1/2"], "-1/2"),
])
# admissible obstacles that lose pieces when loaded: the slope (0, 0) (and
# (0) in 1-D) comes twice, and the slope (1/2, 0) (and (1/2)) is never the
# strict maximum; an admissible obstacle is its own envelope, so envelope
# prints the loaded function's pieces
PRUNED_SQUARE = _pieces([
    (["0", "0"], "0"), (["1", "0"], "1/2"), (["0", "1"], "1/3"), (["1", "1"], "3/2"),
    (["1/2", "1/2"], "-1/4"), (["1/2", "0"], "1"), (["0", "0"], "2"),
])
PRUNED_INTERVAL = _pieces([
    (["0"], "0"), (["1"], "1"), (["1/3"], "-1/4"), (["1/2"], "1"), (["0"], "3"),
])
SQUARE_PRUNED_G = _pieces([
    (["0", "0"], "0"), (["1", "0"], "0"), (["1", "0"], "1/2"), (["0", "1"], "0"), (["1", "1"], "0"),
    (["1/2", "0"], "1"), (["1/2", "1/2"], "-1/4"),
])
MIN_OF_PARABOLOIDS = {"min_of": [
    _shifted_paraboloid([(1, 1), (2, 1), (1, 2), (2, 2)], (Fraction(1, 4), Fraction(-1, 8))),
    _shifted_paraboloid([(1, 0), (0, 2), (2, 3), (3, 1)], (Fraction(-3, 8), Fraction(1, 4))),
]}
SQUARE_MIN_OF = {"min_of": [
    _pieces([(["0", "0"], "1/3"), (["1", "0"], "0"), (["0", "1"], "0"), (["1", "1"], "-1/2")]),
    _pieces([(["0", "0"], "0"), (["1", "0"], "1/4"), (["0", "1"], "-1/5"), (["1", "1"], "0")]),
]}
# a part whose slopes lie on the diagonal of the square: it has no walk
# vertex, and the min decays below the admissible slope range
SQUARE_COLLINEAR_MIN_OF = {"min_of": [
    _pieces([(["0", "0"], "0"), (["1", "1"], "0"), (["1/2", "1/2"], "-1/3")]),
    SUPPORT_SQUARE,
]}
SEGMENT_COLLINEAR_MIN_OF = {"min_of": [
    _pieces([(["0", "0"], "0"), (["2", "1"], "0")]),
    _pieces([(["0", "0"], "1/5"), (["1", "1/2"], "0"), (["2", "1"], "1/3")]),
]}
POINT_AFFINE_MIN_OF = {"min_of": [_pieces([(["1/2", "1/3"], "0")]), _pieces([(["1/2", "1/3"], "1")])]}
# a min of two convex functions on [-1, 1], each with the slopes -1 and 1
ABS_MIN_OF = {"min_of": [_pieces([(["-1"], "-1"), (["1"], "1")]),
                         _pieces([(["-1"], "1"), (["1"], "-1")])]}
# three atoms on the unit square; the start misses them by up to 371/1536
THREE_ATOMS = _atoms([(["0", "0"], "1/3"), (["1", "0"], "1/2"), (["1", "1"], "7/6")])

# ---------------------------------------------------------------------------
# graph documents

ONE_EDGE = {"vertices": [0, 1], "edges": [{"ends": [0, 1], "length": "1"}]}
EDGELESS = {"vertices": [0], "edges": []}
AT_0 = _atoms([({"vertex": 0}, "1")])
EDGE_5 = {"edge": 5, "offset": "1/2"}
# an edge and a loop; omega0 and mu have atoms at a vertex and inside edges
DENTED = {
    "graph": {"vertices": [0, 1], "edges": [{"ends": [0, 1], "length": "1"},
                                            {"ends": [1, 1], "length": "2"}]},
    "omega0": _atoms([({"vertex": 0}, "1"), ({"edge": 1, "offset": "1"}, "1")]),
    "g": {"edges": [[["0", "0"], ["1/2", "-1/2"], ["1", "0"]], [["0", "0"], ["1", "1/4"], ["2", "0"]]]},
    "mu": _atoms([({"edge": 0, "offset": "1/3"}, "3/2"), ({"vertex": 1}, "1/2")]),
    "x": {"edge": 1, "offset": "1/2"},
}
# one loop of length 1, omega0 = 2 delta_0, and an obstacle dented at 1/4
CIRCLE = {"graph": {"vertices": [0], "edges": [{"ends": [0, 0], "length": "1"}]},
          "omega0": _atoms([({"vertex": 0}, "2")]),
          "g": {"edges": [[["0", "0"], ["1/4", "-1/2"], ["1", "0"]]]}}
# vertex ids that need escapes in JSON, one of them not ASCII
ESCAPED = {
    "graph": {"vertices": ['a"b', "é"], "edges": [{"ends": ['a"b', "é"], "length": "1"},
                                                      {"ends": ["é", "é"], "length": "3/2"}]},
    "omega0": _atoms([({"vertex": 'a"b'}, "1"), ({"edge": 1, "offset": "1/2"}, "1")]),
    "mu": _atoms([({"vertex": "é"}, "2")]),
    "x": {"vertex": 'é\\"\t'},
}
CURVE_GOLDEN = {
    # 8 vertices, 10 edges with a loop and a parallel pair, four dents
    "v8": _dented_graph(
        list(range(8)),
        [(0, 1, "3/2"), (1, 2, "1"), (1, 3, "2/3"), (3, 4, "5/2"), (0, 5, "2"),
         (5, 6, "1/3"), (6, 7, "4"), (2, 7, "3"), (4, 4, "2"), (0, 1, "5/3")],
        [({"vertex": 0}, "1/2"), ({"edge": 3, "offset": "5/8"}, "3/2")],
        [({"vertex": 6}, "1/2"), ({"edge": 7, "offset": "3/4"}, "5/6"),
         ({"vertex": 4}, "2/3")],
        [({"edge": 1, "offset": "1/4"}, "1/3"), ({"vertex": 3}, "1/6"),
         ({"edge": 8, "offset": "1/2"}, "1/4"), ({"edge": 5, "offset": "1/6"}, "1/4")],
    ),
    # 14 vertices on a spanning tree plus three chords, seven dents
    "v14": _dented_graph(
        list(range(14)),
        [(0, 1, "2"), (0, 2, "1/3"), (1, 3, "5/2"), (2, 4, "1"), (3, 5, "4/3"),
         (4, 6, "3"), (1, 7, "1/2"), (7, 8, "6"), (8, 9, "2/3"), (2, 10, "5/3"),
         (10, 11, "1"), (6, 12, "3/2"), (12, 13, "2"), (5, 9, "4"), (11, 13, "1/3"),
         (3, 10, "3")],
        [({"edge": 7, "offset": "3/2"}, "5/4"), ({"vertex": 12}, "3/4")],
        [({"vertex": 2}, "1/3"), ({"edge": 13, "offset": "1"}, "1"),
         ({"edge": 4, "offset": "1/3"}, "2/3")],
        [({"vertex": 5}, "1/12"), ({"edge": 0, "offset": "1/2"}, "1/6"),
         ({"edge": 9, "offset": "5/12"}, "1/12"), ({"vertex": 11}, "1/4"),
         ({"edge": 15, "offset": "9/4"}, "1/6"), ({"vertex": 8}, "1/12"),
         ({"edge": 6, "offset": "1/8"}, "1/6")],
    ),
    # 5 vertices, a loop and a cycle: psi is subharmonic, its own envelope,
    # printed with the redundant breakpoints on edges 1 (the loop) and 3
    "subharmonic": _subharmonic_graph(
        list(range(5)),
        [(0, 1, "3/2"), (1, 1, "2"), (1, 2, "1/2"), (2, 3, "5/3"), (0, 3, "1"), (3, 4, "4/3")],
        [({"vertex": 0}, "1/2"), ({"edge": 3, "offset": "2/3"}, "3/2")],
        [({"vertex": 4}, "1/2"), ({"edge": 1, "offset": "1/2"}, "1/4"),
         ({"edge": 0, "offset": "3/4"}, "1/4")],
        [1, 3],
    ),
}
V8_CONTEXT = {"graph": CURVE_GOLDEN["v8"]["graph"], "omega0": CURVE_GOLDEN["v8"]["omega0"]}

# ---------------------------------------------------------------------------
# the rows

CSV = ("--format", "csv")
VALID_DOCUMENTS = {
    "toric-ma": {"delta": SQUARE, "g": SUPPORT_SQUARE},
    "toric-solve": {"delta": SQUARE, "mu": _atoms([(["1/2", "1/2"], "2")])},  # Berkovich mass 2
    "curve-solve": {"graph": ONE_EDGE, "omega0": AT_0, "mu": AT_0},
    "curve-green": {"graph": ONE_EDGE, "omega0": AT_0, "x": {"vertex": 1}},
    "envelope": {"graph": ONE_EDGE, "omega0": AT_0, "g": {"edges": [[["0", "0"], ["1", "1"]]]}},
    "orthogonality": {"graph": ONE_EDGE, "omega0": AT_0, "g": {"edges": [[["0", "0"], ["1", "1"]]]}},
}
SLOPE_RANGE = ("EnvelopeError", "obstacle decays below the admissible slope range")
NOT_POSITIVE = ("MassBalanceError", "reference measure must be positive")


def _graph(documents, role):
    """The graph, omega0 and `role` documents of a graph case."""
    return {name: documents[name] for name in ("graph", "omega0", role)}


# the rows new with the table, under test_cli_contract
CONTRACT = {
    "curve-canonical-m3k4": Row(["curve-canonical", "--m", "3", "--iterations", "4"], 0),
    "curve-canonical-m1": Row(["curve-canonical", "--m", "1", "--iterations", "3"], 2,
                              ("ValueError", "multiplier m must be at least 2")),
    "toric-solve-three-atoms": Row(_argv("toric-solve", {"delta": SQUARE, "mu": THREE_ATOMS}), 0),
    "toric-solve-mass-1": Row(
        _argv("toric-solve", {"delta": SQUARE, "mu": _atoms([(["1/2", "1/2"], "1")])}), 2,
        ("AdmissibilityError", "target mass 1/2 != Vol(delta) = 1")),
    "toric-solve-segment": Row(_argv("toric-solve", {"delta": SEGMENT, "mu": THREE_ATOMS}), 2,
                               ("DegeneratePolytopeError", "polytope must be full-dimensional")),
    "toric-solve-no-atoms": Row(_argv("toric-solve", {"delta": SQUARE, "mu": {"atoms": []}}), 2,
                                ("AdmissibilityError", "target measure must be positive and nonempty")),
    "toric-ma-square": Row(_argv("toric-ma", {"delta": SQUARE, "g": SQUARE_G}), 0),
    "toric-ma-interval": Row(_argv("toric-ma", {"delta": INTERVAL, "g": INTERVAL_G}), 0),
    "toric-ma-square-pruned": Row(_argv("toric-ma", {"delta": SQUARE, "g": SQUARE_PRUNED_G}), 0),
    "toric-ma-segment": Row(_argv("toric-ma", {"delta": SEGMENT, "g": SEGMENT_G}), 0),
    "toric-ma-point": Row(_argv("toric-ma", {"delta": POINT, "g": POINT_G}), 0),
    "toric-ma-not-utf8": Row(_argv("toric-ma", {"delta": b"\xff\xfe", "g": SUPPORT_SQUARE}), 2,
                             ("SchemaError", "delta.json: invalid UTF-8 at byte 0")),
    "toric-ma-nested-too-deeply": Row(
        _argv("toric-ma", {"delta": Text("[" * 100_000), "g": SUPPORT_SQUARE}), 2,
        ("SchemaError", "delta.json: JSON nested too deeply")),
    "toric-ma-exponent-beyond-the-limit": Row(
        _argv("toric-ma", {"delta": {"vertices": [["0", "0"], ["1e20000000", "0"], ["0", "1"]]},
                           "g": SUPPORT_SQUARE}), 2,
        ("SchemaError", "bad rational '1e20000000': exponent beyond the limit of 4300 in magnitude")),
    "toric-energy-square": Row(_argv("toric-energy", {"delta": SQUARE, "g": SQUARE_G}), 0),
    "toric-energy-interval": Row(_argv("toric-energy", {"delta": INTERVAL, "g": INTERVAL_G}), 0),
    "toric-energy-square-pruned": Row(_argv("toric-energy", {"delta": SQUARE, "g": SQUARE_PRUNED_G}), 0),
    "toric-energy-point": Row(_argv("toric-energy", {"delta": POINT, "g": POINT_G}), 0),
    "envelope-square": Row(_argv("envelope", {"delta": SQUARE, "g": SQUARE_MIN_OF}), 0),
    "envelope-square-pruned": Row(_argv("envelope", {"delta": SQUARE, "g": SQUARE_PRUNED_G}), 0),
    "envelope-square-collinear-min-of": Row(
        _argv("envelope", {"delta": SQUARE, "g": SQUARE_COLLINEAR_MIN_OF}), 2, SLOPE_RANGE),
    "envelope-square-min-of-5": Row(_argv("envelope", {"delta": SQUARE, "g": {"min_of": 5}}), 2,
                                    ("SchemaError", 'obstacle must be {"min_of": [function, ...]}')),
    "envelope-interval-abs": Row(_argv("envelope", {"delta": INTERVAL_11, "g": ABS_MIN_OF}), 0),
    "envelope-segment-collinear-min-of": Row(
        _argv("envelope", {"delta": SEGMENT, "g": SEGMENT_COLLINEAR_MIN_OF}), 0),
    "envelope-point": Row(_argv("envelope", {"delta": POINT, "g": SQUARE_MIN_OF}), 0),
    "envelope-point-affine-min-of": Row(_argv("envelope", {"delta": POINT, "g": POINT_AFFINE_MIN_OF}), 0),
    "envelope-point-1d": Row(_argv("envelope", {"delta": {"vertices": [["2/3"]]}, "g": INTERVAL_G}), 0),
    "envelope-dented-graph": Row(_argv("envelope", _graph(DENTED, "g")), 0),
    "envelope-one-edge": Row(_argv("envelope", VALID_DOCUMENTS["envelope"]), 0),
    "envelope-circle": Row(_argv("envelope", CIRCLE), 0),
    "envelope-missing-g": Row(_argv("envelope", {"delta": SQUARE}), 2,
                              ("usage", "the following arguments are required: --g")),
    "orthogonality-square": Row(_argv("orthogonality", {"delta": SQUARE, "g": SQUARE_MIN_OF}), 0),
    "orthogonality-segment": Row(_argv("orthogonality", {"delta": SEGMENT, "g": SEGMENT_G}), 0),
    "orthogonality-point": Row(_argv("orthogonality", {"delta": POINT, "g": SQUARE_MIN_OF}), 0),
    "orthogonality-dented-graph": Row(_argv("orthogonality", _graph(DENTED, "g")), 0),
    "orthogonality-one-edge": Row(_argv("orthogonality", VALID_DOCUMENTS["orthogonality"]), 0),
    "curve-solve-dented-graph": Row(_argv("curve-solve", _graph(DENTED, "mu")), 0),
    "curve-solve-one-edge": Row(_argv("curve-solve", VALID_DOCUMENTS["curve-solve"]), 0),
    "curve-solve-escaped-ids": Row(_argv("curve-solve", _graph(ESCAPED, "mu")), 0),
    # the same documents with the id "é" as raw UTF-8, read as UTF-8 in any
    # locale (RFC 8259), so the output is that of the row above
    "curve-solve-utf8-ids": Row(_argv("curve-solve", {
        name: Text(json.dumps(doc, ensure_ascii=False)) for name, doc in _graph(ESCAPED, "mu").items()
    }), 0, sha256="a3888a1e629029022e2613b71cfc4319261b91762d04cba875bde7bb682dbf1b"),
    "curve-solve-duplicate-vertex": Row(
        _argv("curve-solve", {**_graph(DENTED, "mu"), "graph": {**DENTED["graph"], "vertices": [0, 1, 1]}}),
        2, ("GraphError", "duplicate vertex ids")),
    "curve-green-dented-graph": Row(_argv("curve-green", _graph(DENTED, "x")), 0),
    "curve-green-one-edge": Row(_argv("curve-green", VALID_DOCUMENTS["curve-green"]), 0),
    "curve-green-escaped-ids": Row(
        _argv("curve-green", _graph(ESCAPED, "x")), 2,
        ("GraphError", f"vertex {ESCAPED['x']['vertex']!r} is not a vertex of the graph")),
}
ROWS = {f"test_cli_contract[{case}]": row for case, row in CONTRACT.items()}

# rows once written out as tests of their own, under those tests' ids
ROWS["test_cli_selftest"] = Row(
    ["selftest"], 0, sha256="9516b1bae9a145af63bd5a0af3e7e00e3f2468c537ee8742bb54fc788bed7a18")
ROWS["test_cli_toric_ma"] = Row(
    _argv("toric-ma", VALID_DOCUMENTS["toric-ma"]), 0,
    sha256="d21af9d40a66bb273084b0c566cc0ec0948b362450e77cec3d1720903254f0c4")
ROWS["test_cli_toric_solve_exit_codes"] = Row(
    _argv("toric-solve", VALID_DOCUMENTS["toric-solve"]), 0,
    sha256="7de4669607dce8a42721e4ce826f05ea0d84a6f0132bd5e3fd839f85d0fb9700")
# one Newton step does not converge: exit 3 with the report; a tolerance
# that is not finite is invalid: exit 2 (inf reported the start as
# converged, and nan failed even an exact solve)
for i, (options, code) in enumerate([
    (("--max-iter", "1"), 3), (("--tol", "nan"), 2), (("--tol", "inf"), 2),
]):
    ROWS[f"test_cli_toric_solve_three_atoms_exit_codes[options{i}-{code}]"] = Row(
        _argv("toric-solve", {"delta": SQUARE, "mu": THREE_ATOMS}, options), code,
        None if code == 3 else ("ValueError", "tolerance must be positive and finite"),
        "6c7d5f218532d7f2803cd5013c6d6c35fa18ed9f05816e961f72b931b8a6e975" if code == 3 else None)
ROWS["test_cli_malformed_json"] = Row(
    _argv("toric-ma", {"delta": Text('{"vertices": ['), "g": Text('{"vertices": [')}), 2,
    ("SchemaError", "delta.json: invalid JSON at line 1 column 15"))
for i, (command, role, document, kind, message) in enumerate([
    ("toric-ma", "delta", {"vertices": 5}, "SchemaError", 'polytope must be {"vertices": [...]}'),
    ("toric-ma", "g", {"pieces": 7}, "SchemaError", 'function must be {"pieces": [...]}'),
    ("toric-solve", "mu", {"atoms": 3}, "SchemaError", 'measure must be {"atoms": [...]}'),
    ("curve-solve", "graph", {"vertices": [0, 1], "edges": [{"ends": 5, "length": "1"}]},
     "SchemaError", 'each edge must be {"ends": [i, j], "length": "p/q"}'),
    ("curve-solve", "graph", {"vertices": [[0], 1], "edges": [{"ends": [1, 1], "length": "1"}]},
     "SchemaError", "a vertex id must be a JSON scalar, got [0]"),
    ("curve-green", "x", {"vertex": [0]}, "SchemaError", "a vertex id must be a JSON scalar, got [0]"),
    ("envelope", "g", {"edges": [5]},
     "SchemaError", 'each edge must be a list of ["offset", "value"] pairs'),
    ("curve-green", "x", EDGE_5, "GraphError", "edge index 5 is not an edge of the graph"),
    ("curve-green", "x", {"edge": -1, "offset": "1/2"},
     "GraphError", "edge index -1 is not an edge of the graph"),
    ("curve-green", "x", {"edge": "a", "offset": "1/2"},
     "GraphError", "edge index 'a' is not an edge of the graph"),
    ("curve-green", "omega0", _atoms([(EDGE_5, "1")]),
     "GraphError", "edge index 5 is not an edge of the graph"),
    ("curve-solve", "mu", _atoms([(EDGE_5, "1")]),
     "GraphError", "edge index 5 is not an edge of the graph"),
    ("envelope", "g", {"edges": []}, "GraphError", "expected one breakpoint list per edge (1), got 0"),
    ("envelope", "g", {"edges": [[["0", "0"], ["1", "1"]]] * 2},
     "GraphError", "expected one breakpoint list per edge (1), got 2"),
]):
    ROWS[f"test_cli_malformed_documents_exit_2[{command}-{role}-document{i}-{kind}]"] = Row(
        _argv(command, {**VALID_DOCUMENTS[command], role: document}), 2, (kind, message))
for command, role in [("curve-solve", "mu"), ("curve-solve", "omega0"), ("curve-green", "x"),
                      ("envelope", "omega0"), ("orthogonality", "omega0")]:
    vertex_99 = {"vertex": 99} if role == "x" else _atoms([({"vertex": 99}, "1")])
    ROWS[f"test_cli_vertex_not_in_graph_exit_2[{command}-{role}]"] = Row(
        _argv(command, {**VALID_DOCUMENTS[command], role: vertex_99}), 2,
        ("GraphError", "vertex 99 is not a vertex of the graph"))
# -delta_0, delta_0 - delta_1, the empty measure and 2 delta_0 - delta at
# the middle of edge 0: the graph envelope and orthogonality reject a
# reference measure that is not positive or has no mass, with curve-green's error
for command in ["curve-green", "envelope", "orthogonality"]:
    for i, atoms in enumerate([
        [({"vertex": 0}, "-1")],
        [({"vertex": 0}, "1"), ({"vertex": 1}, "-1")],
        [],
        [({"vertex": 0}, "2"), ({"edge": 0, "offset": "1/2"}, "-1")],
    ]):
        ROWS[f"test_cli_nonpositive_reference_exit_2[{command}-atoms{i}]"] = Row(
            _argv(command, {**VALID_DOCUMENTS[command], "omega0": _atoms(atoms)}), 2, NOT_POSITIVE)
for command, other in [("envelope", {"g": {"edges": []}}), ("orthogonality", {"g": {"edges": []}}),
                       ("curve-solve", {"mu": AT_0}), ("curve-green", {"x": {"vertex": 0}})]:
    ROWS[f"test_cli_edgeless_graph_exit_2[{command}]"] = Row(
        _argv(command, {"graph": EDGELESS, "omega0": AT_0, **other}), 2,
        ("GraphError", "graph must have at least one edge"))
ROWS["test_cli_energy"] = Row(
    _argv("toric-energy", VALID_DOCUMENTS["toric-ma"]), 0,
    sha256="a54ab4301d4f367aae3f99d09ded748c93d519a74ae26e0b59253e379dbd79e6")

# sha256 of the stdout the pullback iteration printed; the closed form
# keeps it byte for byte
for m, k, digest in [
    (2, 6, "15daf5250f48dcc498397198721b44f22b1215a8bc308fd81d642a51c3335fef"),
    (2, 8, "b5c25273f879a474ca67602ab9bc82b38f30a8c57370cda979fdc5110e69e6c5"),
    (2, 10, "0b79ab505012a6885e25f5996d402791b658ab184d79872bfd64ea104399abf8"),
    (3, 5, "4c05028df2ee77a18c1f8676189e301de3e96e896665387189d6c2c49ff6e7d0"),
]:
    ROWS[f"test_cli_canonical_golden_stdout[{m}-{k}-{digest}]"] = Row(
        ["curve-canonical", "--m", str(m), "--iterations", str(k)], 0, sha256=digest)
# sha256 of the stdout the Poisson solve printed (the CSV digest recorded
# again when its cells became the rational strings of the JSON document)
for i, (options, digest) in enumerate([
    (["--m", "2", "--iterations", "12"],
     "a8bb10d643ccb654580cafe3a55e676c4c2201218ddd11be8bd95806f73fae45"),
    (["--m", "3", "--iterations", "5", *CSV],
     "8aca9c132b40c7fb3a731e0d43f43cdde61fcb593ed1286ef4c01d72774d43ff"),
]):
    ROWS[f"test_cli_canonical_golden_stdout_poisson[options{i}-{digest}]"] = Row(
        ["curve-canonical", *options], 0, sha256=digest)
# sha256 of the stdout on fixed toric inputs, pinned before the Legendre
# transform read its breakpoints along the sides of delta off the 1-D chain
# (square-a12-unsnapped: before the transform and the Voronoi start ran on
# integers)
TORIC_GOLDEN = {
    # hexagon, four atoms, one inside the hull of the others; the snap succeeds
    "hexagon-a4i1": _argv("toric-solve", {"delta": HEXAGON, "mu": _atoms([
        (["-1", "-5"], "1"), (["3/2", "-2"], "1"), (["5/3", "-7/3"], "3"), (["3", "-3"], "1")])}),
    # simplex, five atoms; the snap succeeds
    "simplex-a5": _argv("toric-solve", {"delta": SIMPLEX, "mu": _atoms([
        (["-1/2", "1/2"], "1/3"), (["0", "0"], "1/12"), (["1/2", "1"], "1/12"),
        (["5/2", "-5"], "1/4"), (["8", "6"], "1/4")])}),
    "interval-a3": _argv("toric-solve", {"delta": INTERVAL, "mu": _atoms([
        (["-1"], "1/4"), (["1/3"], "1/2"), (["5/2"], "1/4")])}),
    # uniform masses on twelve atoms of the 1/17 grid in the unit square; the
    # snap fails, so the weights on 2^-50 and their exact residual are printed
    "square-a12-unsnapped": _argv("toric-solve", {"delta": SQUARE, "mu": _atoms([
        ([f"{i}/17", f"{j}/17"], "1/6") for i, j in [
            (0, 5), (4, 1), (7, 11), (7, 14), (9, 17), (10, 11),
            (10, 15), (13, 1), (13, 8), (13, 13), (15, 0), (17, 1)]])}),
    "envelope-min-of": _argv("envelope", {"delta": SQUARE, "g": MIN_OF_PARABOLOIDS}),
    "orthogonality-min-of": _argv("orthogonality", {"delta": SQUARE, "g": MIN_OF_PARABOLOIDS}),
}
for case, digest in [
    ("hexagon-a4i1", "6a51fe260009783a1f2dbc5a4ef7662b08a880b415fb1ad5baff47bbe9eb95c8"),
    ("simplex-a5", "e2b77a4032a8066fa43c2909e7da119da00c7aa1ced367c6e1e4cb2513bbe46d"),
    ("interval-a3", "e5297a288f68c36a33b298f93b03d27bab873dfb6d3269cf6d0267ce99ec55f3"),
    ("square-a12-unsnapped", "9e5af46f3d7f111d2ad274a7f0772e902fd47b153d586261613b020b4ebf609e"),
    ("envelope-min-of", "afbbc658bb10f8d6218473a26ca9bcdeda160944aa7f5e2559a2653157200e4c"),
    ("orthogonality-min-of", "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
]:
    ROWS[f"test_cli_toric_golden_stdout[{case}-{digest}]"] = Row(TORIC_GOLDEN[case], 0, sha256=digest)
# sha256 of the stdout of the two commands that run the subdivision kernel
# end to end, pinned before its predicates ran on integers (the CSV digests
# recorded again when their cells became rational strings)
for case, argv, digest in [
    ("ma-square", _argv("toric-ma", {"delta": SQUARE, "g": SUPPORT_SQUARE}),
     "d21af9d40a66bb273084b0c566cc0ec0948b362450e77cec3d1720903254f0c4"),
    ("ma-paraboloid16", _argv("toric-ma", {"delta": SQUARE, "g": PARABOLOID_16}),
     "94bed1a5dc43e8b3b1e3e5f32fd2a1f4ea00309f845d29d482dfc49cb43ffd43"),
    ("ma-denominator6", _argv("toric-ma", {"delta": SQUARE, "g": DENOMINATOR_6}),
     "d722785e8e937b1c704e2913674c709fac7301079269089b7516a0cbc47bd770"),
    ("ma-paraboloid16-csv", _argv("toric-ma", {"delta": SQUARE, "g": PARABOLOID_16}, CSV),
     "60382143f995ad20effc215409316911652ab1ddb39048807237e17f2c043ddc"),
    ("ma-denominator6-csv", _argv("toric-ma", {"delta": SQUARE, "g": DENOMINATOR_6}, CSV),
     "eb200a724aca54947b666e53a8a7087051390c4ad73a6cabb0be48c53a263e3e"),
    ("energy-paraboloid16", _argv("toric-energy", {"delta": SQUARE, "g": PARABOLOID_16}),
     "a0b78a2c3f35e5d47d82d83c6c32b71d5d48607b96b60b81d3580fc502ae96b2"),
    ("energy-denominator6",
     _argv("toric-energy", {"delta": SQUARE, "g": DENOMINATOR_6, "g0": PARABOLOID_16}),
     "45294bd002b287e7a286b4f1c9b4469d9ba3f5d8e272a7b0e189ec380737c136"),
]:
    ROWS[f"test_cli_toric_ma_energy_golden_stdout[{case}-{digest}]"] = Row(argv, 0, sha256=digest)
# sha256 of the stdout on loaded functions that prune, pinned while pruning
# was a flag of from_pieces and its walk was thrown away; the 1-D CSV digest
# was recorded again when its rows became the pieces
for case, argv, digest in [
    ("envelope-square", _argv("envelope", {"delta": SQUARE, "g": PRUNED_SQUARE}),
     "616e4de2a0786a03f48975cd7674e3d937ce60f91dfe212d661f67f2964ed516"),
    ("ma-square", _argv("toric-ma", {"delta": SQUARE, "g": PRUNED_SQUARE}),
     "37da3319ff56c30f86aa7ff518f06f7187c45cff09fd01399fad150bf6aa2aab"),
    ("envelope-interval-csv", _argv("envelope", {"delta": INTERVAL, "g": PRUNED_INTERVAL}, CSV),
     "73e83d3f522006cdf457d92ab3f73d3ac6e63d5cd5056c02170ca23d6a14d46c"),
]:
    ROWS[f"test_cli_pruned_obstacle_golden_stdout[{case}-{digest}]"] = Row(argv, 0, sha256=digest)
# sha256 of the stdout of the graph obstacle problem, pinned while every
# Howard step was an exact solve from the contact set of all nodes; the
# subharmonic case while a test of psi ahead of Howard returned psi (the CSV
# digests recorded again when their cells became rational strings)
for i, (command, case, options, digest) in enumerate([
    ("envelope", "v8", (), "467fdec3c2fddeb8f50a2bcab7203a7540ee437ae1255d1740792efa093a3831"),
    ("envelope", "v8", CSV, "2a0bfab4c39e6b8629ebd6213be62e20285be108076f284db626f1eac32d04fa"),
    ("envelope", "v14", (), "9174c7975d03a587900c3b8fc5681d80b05b8df24f205c8e855ede00a4924924"),
    ("envelope", "v14", CSV, "a9b8f1a7656ae8756d9a82694603ce2dbde19b21ad83fba9e49cb6f77b590399"),
    ("orthogonality", "v8", (), "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
    ("orthogonality", "v8", CSV, "b9c8d4321386a49f2ade74a443892e6a56598dc895fbeb7bbda8d8424111a7a6"),
    ("orthogonality", "v14", (), "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
    ("orthogonality", "v14", CSV, "b9c8d4321386a49f2ade74a443892e6a56598dc895fbeb7bbda8d8424111a7a6"),
    ("envelope", "subharmonic", (), "d72813608d6ff93d8decd9f47d71de129be7c915264765675da2cd7a4cfeac83"),
    ("envelope", "subharmonic", CSV, "86a22d7cad6489218d9b25f4535524f65881f74fe2444d00788c3465e60ede82"),
    ("orthogonality", "subharmonic", (),
     "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
    ("orthogonality", "subharmonic", CSV,
     "b9c8d4321386a49f2ade74a443892e6a56598dc895fbeb7bbda8d8424111a7a6"),
]):
    ROWS[f"test_cli_curve_envelope_golden_stdout[{command}-{case}-options{i}-{digest}]"] = Row(
        _argv(command, CURVE_GOLDEN[case], options), 0, sha256=digest)
ROWS["test_cli_envelope_and_orthogonality"] = Row(
    _argv("orthogonality", {"delta": INTERVAL_11, "g": ABS_MIN_OF}), 0)
# psi = max(u/4 - 1, 3u/4 - 4/3) has slopes in [1/4, 3/4], not all of
# delta = [0, 1], so psi - h_delta is unbounded below; an envelope read off
# its conjugate samples was max(-5/6, u - 3/2), above psi(0) = -1
for command in ["envelope", "orthogonality"]:
    psi = {"min_of": [_pieces([(["1/4"], "1"), (["3/4"], "4/3")])]}
    ROWS[f"test_cli_envelope_slope_range_exit_2[{command}]"] = Row(
        _argv(command, {"delta": INTERVAL, "g": psi}), 2, SLOPE_RANGE)
# the obstacle is loaded through MinOfConvex.build, so an empty min_of names
# the input, not the empty sample set of a later step
for command in ["envelope", "orthogonality"]:
    for i, delta in enumerate([INTERVAL, {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}]):
        ROWS[f"test_cli_empty_min_of_exit_2[{command}-delta{i}]"] = Row(
            _argv(command, {"delta": delta, "g": {"min_of": []}}), 2,
            ("ValueError", "need at least one function"))
# psi = u/2 has its one slope in delta = [0, 1] but not delta in its slope
# hull: psi - h_delta is unbounded below whether psi comes as a convex
# function or as a min of one, and envelope once printed psi for the first
for command in ["envelope", "orthogonality"]:
    half = _pieces([(["1/2"], "0")])
    for spelling, psi in [("convex", half), ("min-of", {"min_of": [half]})]:
        ROWS[f"test_cli_convex_obstacle_slope_range_exit_2[{command}-{spelling}]"] = Row(
            _argv(command, {"delta": INTERVAL, "g": psi}), 2, SLOPE_RANGE)
# an --output path that cannot be written is invalid input, like an input
# path that cannot be read
for unwritable, reason in [("missing/x.json", "No such file or directory"), (".", "Is a directory")]:
    for i, (command, options) in enumerate([("toric-ma", ()), ("toric-ma", CSV), ("selftest", ())]):
        ROWS[f"test_cli_unwritable_output_exit_2[{unwritable}-{reason}-{command}-options{i}]"] = Row(
            _argv(command, VALID_DOCUMENTS.get(command, {}), [*options, "--output", unwritable]), 2,
            ("SchemaError", f"{unwritable}: {reason}"))
# --delta "" is given, so the toric model is chosen and its empty path is an
# input file that cannot be read; it once went to the curve model, which
# opened --graph None
for command in ["envelope", "orthogonality"]:
    for i, options in enumerate([(), CSV]):
        ROWS[f"test_cli_empty_delta_path_exit_2[{command}-fmt{i}]"] = Row(
            [command, "--delta", "", "--g", MIN_OF_PARABOLOIDS, *options], 2,
            ("SchemaError", ": No such file or directory"))
# the masses add up to n! Vol(delta), so only the dimensions are wrong; a
# 1-D atom on the square once raised IndexError in the Voronoi start
for i, options in enumerate([(), CSV]):
    for name, delta, points in [
        ("square-mixed", SQUARE, [["1/2", "1/2"], ["0"]]),
        ("square-1d", SQUARE, [["0"], ["1"]]),
        ("interval-mixed", INTERVAL, [["1/2"], ["0", "1"]]),
        ("interval-2d", INTERVAL, [["0", "0"], ["1", "1"]]),
    ]:
        n = len(delta["vertices"][0])
        mass = str(Fraction(math.factorial(n), n * len(points)))
        message = ("atoms of mixed dimension" if len({len(p) for p in points}) > 1
                   else "target atoms and polytope differ in dimension")
        ROWS[f"test_cli_toric_solve_atom_dimension_exit_2[fmt{i}-{name}]"] = Row(
            _argv("toric-solve", {"delta": delta, "mu": _atoms([(p, mass) for p in points])}, options),
            2, ("DimensionError", message))
# the JSON document whose strings the CSV carries; its digest pins the
# table, one row per atom, residual entry, piece or breakpoint
for case, argv, digest in [
    ("toric-ma-square", _argv("toric-ma", {"delta": SQUARE, "g": DENOMINATOR_6}),
     "d722785e8e937b1c704e2913674c709fac7301079269089b7516a0cbc47bd770"),
    ("toric-ma-interval", _argv("toric-ma", {"delta": INTERVAL, "g": PRUNED_INTERVAL}),
     "a92d418f913e9c92ca99e424b179818d9b715168fedc03f2661ae3afe58d6c97"),
    ("toric-solve-unsnapped", TORIC_GOLDEN["square-a12-unsnapped"],
     "9e5af46f3d7f111d2ad274a7f0772e902fd47b153d586261613b020b4ebf609e"),
    ("toric-solve-interval", TORIC_GOLDEN["interval-a3"],
     "e5297a288f68c36a33b298f93b03d27bab873dfb6d3269cf6d0267ce99ec55f3"),
    ("toric-solve-no-convergence",
     _argv("toric-solve", {"delta": SQUARE, "mu": THREE_ATOMS}, ("--max-iter", "1")),
     "6c7d5f218532d7f2803cd5013c6d6c35fa18ed9f05816e961f72b931b8a6e975"),
    ("toric-energy",
     _argv("toric-energy", {"delta": SQUARE, "g": DENOMINATOR_6, "g0": PARABOLOID_16}),
     "45294bd002b287e7a286b4f1c9b4469d9ba3f5d8e272a7b0e189ec380737c136"),
    ("envelope-square", TORIC_GOLDEN["envelope-min-of"],
     "afbbc658bb10f8d6218473a26ca9bcdeda160944aa7f5e2559a2653157200e4c"),
    ("envelope-interval", _argv("envelope", {"delta": INTERVAL, "g": PRUNED_INTERVAL}),
     "c2db21995d12e0eb3a94e9ec546d6f04ae8525693a483926ba3630473c064e9a"),
    ("envelope-graph", _argv("envelope", CURVE_GOLDEN["v8"]),
     "467fdec3c2fddeb8f50a2bcab7203a7540ee437ae1255d1740792efa093a3831"),
    ("orthogonality-square", TORIC_GOLDEN["orthogonality-min-of"],
     "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
    ("orthogonality-graph", _argv("orthogonality", CURVE_GOLDEN["v14"]),
     "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
    ("curve-solve", _argv("curve-solve", {**V8_CONTEXT, "mu": _atoms([
        ({"vertex": 3}, "1/2"), ({"edge": 2, "offset": "1/3"}, "3/2")])}),
     "d8fbdaed5a5849c033829663eb7dd81b330147115d93ed48c94da999b851ef68"),
    ("curve-green", _argv("curve-green", {**V8_CONTEXT, "x": {"edge": 4, "offset": "1/2"}}),
     "20401d5d1e9b17c059ab487244189f60b8b0d256a085b9e00ec85977aa28534b"),
    ("curve-canonical", ["curve-canonical", "--m", "3", "--iterations", "3"],
     "933a6685eef1b08dc31cf95ab3685dc6719ea2481c85c75c48708d8d2e6ab1b8"),
]:
    ROWS[f"test_cli_csv_cells_are_the_json_strings[{case}]"] = Row(
        argv, 3 if "--max-iter" in argv else 0, sha256=digest)
# --g0 "" is given, so it is read as a path that does not exist; it once fell
# back to the support function without a word
ROWS["test_cli_energy_empty_g0_path_exit_2"] = Row(
    _argv("toric-energy", {"delta": SQUARE, "g": PARABOLOID_16}, ["--g0", ""]), 2,
    ("SchemaError", ": No such file or directory"))
# selftest writes one text output, so --format is a usage error
for fmt in ["csv", "json"]:
    ROWS[f"test_cli_selftest_has_no_format[{fmt}]"] = Row(
        ["selftest", "--format", fmt], 2, ("usage", f"unrecognized arguments: --format {fmt}"))
for i, (argv, message) in enumerate([
    (["toric-ma", "--delta", "d.json"], "the following arguments are required: --g"),
    (["toric-ma", "--delta", "d.json", "--g", "g.json", "--format", "xml"],
     Prefix("argument --format: invalid choice: 'xml'")),
    (["bogus"], Prefix("argument command: invalid choice: 'bogus'")),
    ([], "the following arguments are required: command"),
    (["envelope", "--g", "g.json"], "give either --delta or --graph with --omega0"),
]):
    ROWS[f"test_cli_usage_errors_print_the_error_object[argv{i}-{message}]"] = Row(
        argv, 2, ("usage", message))
