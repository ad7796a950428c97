"""JSON encoding of the library's types.

All numbers are rational strings "p/q" ("p" when the denominator is 1),
so every file round-trips without loss.  Atom lists are emitted in the
canonical sorted order, which makes output byte-deterministic.

`dumps` writes the bytes of json.dumps(obj, indent=2, sort_keys=True)
plus a newline, but without calling it: with `indent` set, CPython (3.10
to 3.13) skips its C encoder for a generator-based pure-Python one, which
was most of the time of a large curve-canonical.  `dumps` joins each
container in one pass and hands every string to the C escaper.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import GraphMeasure, GraphPLFunction, MetricGraph, vertex_key
from .geometry import (
    AffineFunctional,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
)


class SchemaError(ValueError):
    """Input does not match the expected JSON layout."""


def rational_str(x) -> str:
    return str(x if isinstance(x, Fraction) else Fraction(x))


def parse_rational(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise SchemaError(f"expected a rational string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from None


def _has_array(obj, key) -> bool:
    return isinstance(obj, dict) and isinstance(obj.get(key), list)


def _vertex_id(vid):
    if isinstance(vid, (list, dict)):
        raise SchemaError(f"a vertex id must be a JSON scalar, got {vid!r}")
    return vid


def point_to_json(v):
    return [rational_str(c) for c in v]


def point_from_json(obj):
    if not isinstance(obj, list) or not obj:
        raise SchemaError("a point must be a nonempty array of rationals")
    return tuple(parse_rational(c) for c in obj)


# ---------------------------------------------------------------------------
# toric side


def polytope_to_json(p: Polytope):
    return {"vertices": [point_to_json(v) for v in p.vertices]}


def polytope_from_json(obj) -> Polytope:
    if not _has_array(obj, "vertices"):
        raise SchemaError('polytope must be {"vertices": [...]}')
    return Polytope.from_points([point_from_json(v) for v in obj["vertices"]])


def pl_function_to_json(g: PLConvexFunction):
    pieces = sorted(g.pieces, key=lambda f: (f.slope, f.intercept))
    return {
        "pieces": [
            {"slope": point_to_json(f.slope), "intercept": rational_str(f.intercept)}
            for f in pieces
        ]
    }


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


def measure_to_json(mu: DiscreteMeasure):
    return {
        "atoms": [
            {"point": point_to_json(p), "mass": rational_str(m)} for p, m in mu.atoms
        ]
    }


def measure_from_json(obj) -> DiscreteMeasure:
    if not _has_array(obj, "atoms"):
        raise SchemaError('measure must be {"atoms": [...]}')
    atoms = []
    for item in obj["atoms"]:
        if not isinstance(item, dict) or "point" not in item or "mass" not in item:
            raise SchemaError('each atom must be {"point": [...], "mass": "..."}')
        atoms.append((point_from_json(item["point"]), parse_rational(item["mass"])))
    return DiscreteMeasure.from_atoms(atoms)


def toric_ma_result_to_json(result):
    return {
        "ma_real": measure_to_json(result.measure_NR),
        "ma_berkovich": {
            "atoms": [
                {"point": point_to_json(mp.v), "mass": rational_str(m)}
                for mp, m in result.measure_an
            ]
        },
        "degree": rational_str(result.degree),
    }


def solve_report_to_json(report):
    return {
        "solution": pl_function_to_json(report.solution),
        "residual": [
            {"point": point_to_json(p), "error": rational_str(e)}
            for p, e in report.residual
        ],
        "polished_residual": [
            {"point": point_to_json(p), "error": rational_str(e)}
            for p, e in report.polished_residual
        ],
        "iterations": report.iterations,
        "converged": report.converged,
    }


# ---------------------------------------------------------------------------
# curve side


def graph_to_json(graph: MetricGraph):
    return {
        "vertices": list(graph.vertex_ids),
        "edges": [
            {"ends": [u, v], "length": rational_str(ln)} for u, v, ln in graph.edges
        ],
    }


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


def graph_point_to_json(key):
    """The JSON object of a canonical location key."""
    if key[0] == "v":
        return {"vertex": key[1]}
    return {"edge": key[1], "offset": rational_str(key[2])}


def graph_point_from_json(obj):
    if isinstance(obj, dict) and "vertex" in obj:
        return vertex_key(_vertex_id(obj["vertex"]))
    if isinstance(obj, dict) and "edge" in obj and "offset" in obj:
        return ("e", obj["edge"], parse_rational(obj["offset"]))
    raise SchemaError('graph point must be {"vertex": id} or {"edge": k, "offset": "p/q"}')


def graph_function_to_json(f: GraphPLFunction):
    return {
        "edges": [
            [[rational_str(o), rational_str(y)] for o, y in pairs]
            for pairs in f.edge_values
        ]
    }


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


def graph_measure_to_json(mu: GraphMeasure):
    return {
        "atoms": [
            {"point": graph_point_to_json(key), "mass": rational_str(m)}
            for key, m in mu.atoms
        ]
    }


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


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", byte for byte.

    The stdlib call is not made because its indented encoder is pure
    Python; `_encode` builds the same text with the C string escaper.
    """
    return _encode(obj, "") + "\n"


_escape = json.encoder.encode_basestring_ascii


def _encode(obj, pad):
    # json's own dispatch order: str, None/True/False, int, float, list or
    # tuple, dict; dict items sorted before their keys become strings
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = (",\n" + inner).join([_encode(x, inner) for x in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = (",\n" + inner).join(
            [_escape(_key(k)) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(k):
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def load_path(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
