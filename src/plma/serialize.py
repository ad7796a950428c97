"""JSON encoding of the library's types.

All numbers are rational strings "p/q" ("p" when the denominator is 1),
so every file round-trips without loss.  Atom lists are emitted in the
canonical sorted order, which makes output byte-deterministic.

Each `*_to_json` returns the text of its document: the bytes of
json.dumps(doc, indent=2, sort_keys=True), without the trailing newline.
The text is written straight from the object, one %-template per record
(a graph-function pair, a graph-measure atom, a toric piece, atom or
residual entry), and each container nests its records' texts with one
replace, which is exact because an escaped JSON string holds no raw
newline.  json.dumps is not called with `indent`: then CPython before
3.13 skips its C encoder for a pure-Python one, which cost more than the
mathematics of a large curve-canonical.  `json_array` and `json_object`
lay out any other document from already-written values.

`load_path` reads every input file as UTF-8, as RFC 8259 asks, whatever
the locale; bytes that are not UTF-8, like malformed JSON, are a
SchemaError that names the file.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .curves import GraphMeasure, GraphPLFunction, MetricGraph, vertex_key
from .geometry import (
    AffineFunctional,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
)

json_string = json.encoder.encode_basestring_ascii
# vertex ids are JSON scalars; the compact and the indented encoding agree on them
_scalar = json.dumps


class SchemaError(ValueError):
    """Input does not match the expected JSON layout."""


def rational_str(x) -> str:
    return str(x if isinstance(x, Fraction) else Fraction(x))


# the plain form this module writes, "p/q" or "p"
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# the exponent that ends a decimal rational, as Fraction(s) reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(s) -> Fraction:
    """The Fraction of a rational string or an int.  The plain form
    "p/q" or "p", in ASCII digits, is split and converted with int, which
    fails as Fraction(s) does (a zero q, too many digits); everything else
    goes through Fraction(s).  Before that, a string that ends in an
    exponent larger in magnitude than the int digit limit
    (sys.get_int_max_str_digits(), unless it is 0) is rejected: Fraction
    would compute 10 to that power in full, a 14-byte "1e20000000" taking
    most of a minute."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise SchemaError(f"expected a rational string, got {s!r}")
    try:
        plain = _PLAIN_RATIONAL.fullmatch(s) if isinstance(s, str) else None
        if plain:
            return Fraction(int(plain[1]), int(plain[2] or 1))
        exponent = _EXPONENT.search(s) if isinstance(s, str) else None
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent beyond the limit of {limit} in magnitude")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from None


def _has_array(obj, key) -> bool:
    return isinstance(obj, dict) and isinstance(obj.get(key), list)


def _vertex_id(vid):
    if isinstance(vid, (list, dict)):
        raise SchemaError(f"a vertex id must be a JSON scalar, got {vid!r}")
    return vid


def point_from_json(obj):
    if not isinstance(obj, list) or not obj:
        raise SchemaError("a point must be a nonempty array of rationals")
    return tuple(parse_rational(c) for c in obj)


# ---------------------------------------------------------------------------
# layout: values are already-written JSON texts at depth 0


def json_array(values) -> str:
    """The indented JSON array of a list of written values."""
    if not values:
        return "[]"
    return "[\n  " + ",\n".join(values).replace("\n", "\n  ") + "\n]"


def json_object(fields) -> str:
    """The indented JSON object of a dict of written values, keys sorted."""
    if not fields:
        return "{}"
    body = ",\n".join([json_string(k) + ": " + v for k, v in sorted(fields.items())])
    return "{\n  " + body.replace("\n", "\n  ") + "\n}"


def _point(v):
    # a nonempty point's array as a field of a depth-0 record; the library
    # holds Fractions, whose str is the rational string
    return '[\n    "' + '",\n    "'.join(map(str, v)) + '"\n  ]'


# one template per record, at depth 0, keys in sorted order
_PIECE = '{\n  "intercept": "%s",\n  "slope": %s\n}'
_ATOM = '{\n  "mass": "%s",\n  "point": %s\n}'
_ERROR = '{\n  "error": "%s",\n  "point": %s\n}'
_PAIR = '[\n  "%s",\n  "%s"\n]'
_VERTEX_ATOM = '{\n  "mass": "%s",\n  "point": {\n    "vertex": %s\n  }\n}'
_EDGE_ATOM = '{\n  "mass": "%s",\n  "point": {\n    "edge": %d,\n    "offset": "%s"\n  }\n}'


# ---------------------------------------------------------------------------
# toric side


def polytope_to_json(p: Polytope) -> str:
    vertices = [json_array(['"%s"' % c for c in v]) for v in p.vertices]
    return json_object({"vertices": json_array(vertices)})


def polytope_from_json(obj) -> Polytope:
    if not _has_array(obj, "vertices"):
        raise SchemaError('polytope must be {"vertices": [...]}')
    return Polytope.from_points([point_from_json(v) for v in obj["vertices"]])


def pl_function_to_json(g: PLConvexFunction) -> str:
    pieces = sorted(g.pieces, key=lambda f: (f.slope, f.intercept))
    return json_object(
        {"pieces": json_array([_PIECE % (f.intercept, _point(f.slope)) for f in pieces])}
    )


def pl_function_from_json(obj) -> PLConvexFunction:
    if not _has_array(obj, "pieces"):
        raise SchemaError('function must be {"pieces": [...]}')
    pieces = []
    for item in obj["pieces"]:
        if not isinstance(item, dict) or "slope" not in item or "intercept" not in item:
            raise SchemaError('each piece must be {"slope": [...], "intercept": "..."}')
        pieces.append(
            AffineFunctional(point_from_json(item["slope"]), parse_rational(item["intercept"]))
        )
    if not pieces:
        raise SchemaError("function needs at least one piece")
    return PLConvexFunction.from_pieces(pieces)


def _atoms(atoms):
    return json_object({"atoms": json_array([_ATOM % (m, _point(p)) for p, m in atoms])})


def measure_to_json(mu: DiscreteMeasure) -> str:
    return _atoms(mu.atoms)


def measure_from_json(obj) -> DiscreteMeasure:
    if not _has_array(obj, "atoms"):
        raise SchemaError('measure must be {"atoms": [...]}')
    atoms = []
    for item in obj["atoms"]:
        if not isinstance(item, dict) or "point" not in item or "mass" not in item:
            raise SchemaError('each atom must be {"point": [...], "mass": "..."}')
        atoms.append((point_from_json(item["point"]), parse_rational(item["mass"])))
    return DiscreteMeasure.from_atoms(atoms)


def toric_ma_result_to_json(result) -> str:
    return json_object({
        "ma_real": measure_to_json(result.measure_NR),
        "ma_berkovich": _atoms([(mp.v, m) for mp, m in result.measure_an]),
        "degree": '"%s"' % result.degree,
    })


def _residual(entries):
    return json_array([_ERROR % (e, _point(p)) for p, e in entries])


def solve_report_to_json(report) -> str:
    return json_object({
        "solution": pl_function_to_json(report.solution),
        "residual": _residual(report.residual),
        "polished_residual": _residual(report.polished_residual),
        "iterations": "%d" % report.iterations,
        "converged": "true" if report.converged else "false",
    })


# ---------------------------------------------------------------------------
# curve side


def graph_to_json(graph: MetricGraph) -> str:
    edges = [
        json_object({"ends": json_array([_scalar(u), _scalar(v)]), "length": '"%s"' % ln})
        for u, v, ln in graph.edges
    ]
    vertices = [_scalar(vid) for vid in graph.vertex_ids]
    return json_object({"vertices": json_array(vertices), "edges": json_array(edges)})


def graph_from_json(obj) -> MetricGraph:
    if not (_has_array(obj, "vertices") and _has_array(obj, "edges")):
        raise SchemaError('graph must be {"vertices": [...], "edges": [...]}')
    vertex_ids = [_vertex_id(vid) for vid in obj["vertices"]]
    edges = []
    for item in obj["edges"]:
        if not _has_array(item, "ends") or len(item["ends"]) != 2 or "length" not in item:
            raise SchemaError('each edge must be {"ends": [i, j], "length": "p/q"}')
        u, v = item["ends"]
        edges.append((u, v, parse_rational(item["length"])))
    return MetricGraph.build(vertex_ids, edges)


def graph_point_from_json(obj):
    if isinstance(obj, dict) and "vertex" in obj:
        return vertex_key(_vertex_id(obj["vertex"]))
    if isinstance(obj, dict) and "edge" in obj and "offset" in obj:
        return ("e", obj["edge"], parse_rational(obj["offset"]))
    raise SchemaError('graph point must be {"vertex": id} or {"edge": k, "offset": "p/q"}')


def graph_function_to_json(f: GraphPLFunction) -> str:
    edges = [json_array([_PAIR % pair for pair in pairs]) for pairs in f.edge_values]
    return json_object({"edges": json_array(edges)})


def graph_function_from_json(obj, graph: MetricGraph) -> GraphPLFunction:
    if not _has_array(obj, "edges"):
        raise SchemaError('graph function must be {"edges": [...]}')
    values = []
    for pairs in obj["edges"]:
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise SchemaError('each edge must be a list of ["offset", "value"] pairs')
        values.append(tuple((parse_rational(o), parse_rational(y)) for o, y in pairs))
    return GraphPLFunction.build(graph, values)


def graph_measure_to_json(mu: GraphMeasure) -> str:
    # an atom's key is canonical: ("v", id) or ("e", e, offset)
    atoms = [
        _VERTEX_ATOM % (m, _scalar(key[1])) if key[0] == "v"
        else _EDGE_ATOM % (m, key[1], rational_str(key[2]))
        for key, m in mu.atoms
    ]
    return json_object({"atoms": json_array(atoms)})


def graph_measure_from_json(obj, graph: MetricGraph) -> GraphMeasure:
    if not _has_array(obj, "atoms"):
        raise SchemaError('graph measure must be {"atoms": [...]}')
    atoms = []
    for item in obj["atoms"]:
        if not isinstance(item, dict) or "point" not in item or "mass" not in item:
            raise SchemaError('each atom must be {"point": ..., "mass": "..."}')
        atoms.append((graph_point_from_json(item["point"]), parse_rational(item["mass"])))
    return GraphMeasure.from_atoms(graph, atoms)


# ---------------------------------------------------------------------------
# file helpers


def load_path(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: invalid UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
