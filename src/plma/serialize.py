"""JSON encoding of the library's types.

All numbers are rational strings "p/q" ("p" when the denominator is 1),
so every file round-trips without loss.  That plain form, in ASCII digits
with a sign only on p, is also the one grammar `parse_rational` reads: any
other string and a JSON number are a SchemaError.  Atom lists are emitted
in the canonical sorted order, which makes output byte-deterministic.

Each `*_to_json` returns the text of its document: the bytes of
json.dumps(doc, indent=2, sort_keys=True), without the trailing newline.
The text is written straight from the object, one %-template per record
(a graph-measure atom, a toric piece, atom or residual entry), and each
container nests its records' texts with one replace, which is exact
because an escaped JSON string holds no raw newline.  json.dumps is not
called with `indent`: then CPython before 3.13 skips its C encoder for a
pure-Python one, which cost more than the mathematics of a large
curve-canonical.  `json_array` and `json_object` lay out any other
document from already-written values.  The two largest documents are
written in one pass at their final indentation, one template per record
at its depth and no replace: a graph function (`graph_function_to_json`,
which envelope --graph, curve-solve and curve-green print), each value a
Fraction built once, with one gcd, by the routine that built the
function; and curve-canonical's, whose writers `canonical_metric_to_json`
and `canonical_metric_rows` read integers and strings, not library
objects: the closed form of curves.canonical_form, whose offset strings
each are formatted once, filled a column at a time.

The toric readers (`pl_function_from_json`, which also reads each
function of a `min_of` obstacle, `polytope_from_json` and
`measure_from_json`) build no Fraction: each distinct rational string of
a document is parsed once into its integers (`_rational_pair`, through
`_parse_once`), the slopes, the intercepts, the vertices, the points or
the masses are put over the lcm of their denominators (`_over_lcm`), and
that integer form is handed to PLConvexFunction.from_form,
Polytope._from_integer_points or DiscreteMeasure._of_form.  The readers
keep the errors of the Fraction path they replaced, with their messages
and in their order: every SchemaError in document order, then the
dimension checks of from_pieces, from_points and from_atoms.  The toric
writers of a function, a measure and a solve report's solution format
from the integer forms, one gcd per number (`_ratio`), so a toric
function or measure builds its Fractions only for a library caller.

The curve readers check each number of a document once.  Each distinct
rational string of a graph or graph-function document is parsed once
(`_parse_once`), and `graph_function_from_json` hands the parsed pairs
to GraphPLFunction._checked, build's checks of the ends, order and
continuity on the integers of the Fractions, without build's
conversion.

`load_path` reads every input file as UTF-8, as RFC 8259 asks, whatever
the locale; bytes that are not UTF-8, like malformed JSON or a JSON number
past the int digit limit, are a SchemaError that names the file.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial, gcd, lcm

from .curves import CanonicalForm, GraphMeasure, GraphPLFunction, MetricGraph, vertex_key
from .geometry import DiscreteMeasure, PLConvexFunction, Polytope, _one_dim

json_string = json.encoder.encode_basestring_ascii
# vertex ids are JSON scalars; the compact and the indented encoding agree on them
_scalar = json.dumps


class SchemaError(ValueError):
    """Input does not match the expected JSON layout."""


# the one rational grammar, the plain form this module writes: "p/q" or "p"
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational_pair(s):
    """The integers (p, q) of a rational string "p/q" or "p" (q = 1), as
    written, not reduced: ASCII digits, a sign only on p, and no JSON
    number.  p and q are converted with int, which refuses a digit string
    longer than the int digit limit (sys.get_int_max_str_digits()); a zero
    q is refused with Fraction's message."""
    plain = _PLAIN_RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if not plain:
        raise SchemaError(f'bad rational {s!r}: expected a string "p/q" or "p"')
    try:
        p, q = int(plain[1]), int(plain[2] or 1)
    except ValueError as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from None
    if not q:
        raise SchemaError(f"bad rational {s!r}: Fraction({p}, 0)")
    return p, q


def parse_rational(s) -> Fraction:
    """The Fraction of a rational string, read by `_rational_pair`."""
    return _fraction(_rational_pair(s))


def _fraction(pair):
    """The Fraction p / q of a pair (p, q) of `_rational_pair`."""
    p, q = pair
    return Fraction(p) if q == 1 else Fraction(p, q)


def _has_array(obj, key) -> bool:
    return isinstance(obj, dict) and isinstance(obj.get(key), list)


def _records(obj, key, fields, whole, each):
    """The values of `fields` in each record of the array obj[key], yielded
    as each record is read: SchemaError(whole) when obj has no such array,
    SchemaError(each) at the first record that is not a dict with every
    field.  A reader lists them all before it builds anything, so that every
    SchemaError comes before the constructor's own errors."""
    if not _has_array(obj, key):
        raise SchemaError(whole)
    for item in obj[key]:
        if not isinstance(item, dict) or not all(f in item for f in fields):
            raise SchemaError(each)
        yield [item[f] for f in fields]


def _vertex_id(vid):
    if isinstance(vid, (list, dict)):
        raise SchemaError(f"a vertex id must be a JSON scalar, got {vid!r}")
    return vid


def point_from_json(obj):
    """The Fraction point of `_pair_point`'s pairs."""
    return tuple(map(_fraction, _pair_point(obj, {})))


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
_VERTEX_ATOM = '{\n  "mass": "%s",\n  "point": {\n    "vertex": %s\n  }\n}'
_EDGE_ATOM = '{\n  "mass": "%s",\n  "point": {\n    "edge": %d,\n    "offset": "%s"\n  }\n}'


# ---------------------------------------------------------------------------
# toric side


def polytope_to_json(p: Polytope) -> str:
    vertices = [json_array(['"%s"' % c for c in v]) for v in p.vertices]
    return json_object({"vertices": json_array(vertices)})


def polytope_from_json(obj) -> Polytope:
    """The polytope of a document {"vertices": [[...], ...]}, read on
    integers: the checks of Polytope.from_points, with their messages and
    in their order, after every SchemaError, and the hull of the points
    over the lcm of their denominators, as `_over_lcm` writes them."""
    if not _has_array(obj, "vertices"):
        raise SchemaError('polytope must be {"vertices": [...]}')
    parsed = {}
    points = [_pair_point(v, parsed) for v in obj["vertices"]]
    if not points:
        raise ValueError("polytope needs at least one point")
    _one_dim(points, "points")
    return Polytope._from_integer_points(*_over_lcm(points))


def _ratio(p, q):
    """The rational string of p / q, q > 0, with one gcd: "p/q" in lowest
    terms, or "p" when q divides p, as str of the Fraction writes it."""
    h = gcd(p, q)
    return "%d" % (p // h) if h == q else "%d/%d" % (p // h, q // h)


def pl_function_to_json(g: PLConvexFunction) -> str:
    """The document {"pieces": [...]} of g, written from its integer form
    (S, D, C, E) in its (slope, intercept) order, one gcd per number
    (`_ratio`); g's Fraction pieces are not built."""
    S, D, C, E = g.integer_form
    pieces = [_PIECE % (_ratio(c, E), _point([_ratio(x, D) for x in s])) for s, c in zip(S, C)]
    return json_object({"pieces": json_array(pieces)})


def pl_function_from_json(obj) -> PLConvexFunction:
    """The function of a document {"pieces": [{"slope": [...], "intercept":
    "..."}, ...]}, read on integers: every SchemaError first, in the order
    of the pieces, then the dimension checks of PLConvexFunction.from_pieces
    with their messages, and the slopes and the intercepts each over the
    lcm of their denominators (`_over_lcm`), the integer form that
    PLConvexFunction.from_form prunes.  No Fraction is built."""
    records = _records(obj, "pieces", ("slope", "intercept"), 'function must be {"pieces": [...]}',
                       'each piece must be {"slope": [...], "intercept": "..."}')
    parsed, slopes, intercepts = {}, [], []
    for slope, c in records:
        slopes.append(_pair_point(slope, parsed))
        intercepts.append(_parse_once(c, parsed, _rational_pair))
    if not slopes:
        raise SchemaError("function needs at least one piece")
    _one_dim(slopes, "pieces")
    S, D = _over_lcm(slopes)
    E = lcm(*(q for _, q in intercepts))
    return PLConvexFunction.from_form((S, D, [p * (E // q) for p, q in intercepts], E))


def _pair_point(obj, parsed):
    """The one reader of a point: the pair (p, q) of each coordinate, each
    string parsed once per dict `parsed` (`_parse_once`).  The toric
    readers keep the pairs; `point_from_json` and `measure_from_json`
    build one Fraction per coordinate."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("a point must be a nonempty array of rationals")
    return [_parse_once(c, parsed, _rational_pair) for c in obj]


def _over_lcm(rows):
    """(P, D): rows of pairs (p, q), each the rational p / q, as integer
    tuples P_j over the lcm D of all the q."""
    D = lcm(*(q for row in rows for _, q in row))
    return [tuple([p * (D // q) for p, q in row]) for row in rows], D


def _measure_texts(mu: DiscreteMeasure, *factors):
    """The documents {"atoms": [...]} of c mu, one for each integer c of
    factors, written from mu's integer form (V, A, M, Dm): each point's
    text once, and one gcd per number (`_ratio`); no Fraction is built."""
    V, A, M, Dm = mu.integer_form
    points = [_point([_ratio(x, A) for x in v]) for v in V]
    return [json_object({"atoms": json_array([_ATOM % (_ratio(c * m, Dm), p)
                                              for p, m in zip(points, M)])})
            for c in factors]


def measure_to_json(mu: DiscreteMeasure) -> str:
    return _measure_texts(mu, 1)[0]


def measure_from_json(obj) -> DiscreteMeasure:
    """The measure of a document {"atoms": [{"point": [...], "mass":
    "..."}, ...]}, read on integers: every SchemaError first, in the order
    of the atoms, then the points and the masses each over the lcm of
    their denominators (`_over_lcm`), the form that DiscreteMeasure._of_form
    sums by point after its check of mixed dimension, the message of
    from_atoms.  No Fraction is built."""
    records = _records(obj, "atoms", ("point", "mass"), 'measure must be {"atoms": [...]}',
                       'each atom must be {"point": [...], "mass": "..."}')
    parsed = {}  # each distinct string of the document is parsed once
    atoms = [(_pair_point(p, parsed), _parse_once(m, parsed, _rational_pair)) for p, m in records]
    (M,), Dm = _over_lcm([[m for _, m in atoms]])
    return DiscreteMeasure._of_form(*_over_lcm([p for p, _ in atoms]), M, Dm)


def toric_ma_result_to_json(result) -> str:
    """The real measure and the Berkovich one, n! times it at the same
    points (toric.ma_measure), both written from the real measure's
    integer form, each point's text once."""
    V = result.measure_NR.integer_form[0]
    real, berkovich = _measure_texts(result.measure_NR, 1, factorial(len(V[0])) if V else 1)
    return json_object({"ma_real": real, "ma_berkovich": berkovich,
                        "degree": '"%s"' % result.degree})


def _residual(entries):
    return json_array([_ERROR % (e, _point(p)) for p, e in entries])


def solve_report_to_json(report) -> str:
    # one residual twice, unless a snap was checked and failed
    residual = _residual(report.residual)
    return json_object({
        "solution": pl_function_to_json(report.solution),
        "residual": residual,
        "polished_residual": (residual if report.polished_residual is report.residual
                              else _residual(report.polished_residual)),
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
    edges, parsed = [], {}
    for item in obj["edges"]:
        if not _has_array(item, "ends") or len(item["ends"]) != 2 or "length" not in item:
            raise SchemaError('each edge must be {"ends": [i, j], "length": "p/q"}')
        u, v = item["ends"]
        edges.append((u, v, _parse_once(item["length"], parsed, parse_rational)))
    return MetricGraph.build(vertex_ids, edges)


def graph_point_from_json(obj):
    if isinstance(obj, dict) and "vertex" in obj:
        return vertex_key(_vertex_id(obj["vertex"]))
    if isinstance(obj, dict) and "edge" in obj and "offset" in obj:
        return ("e", obj["edge"], parse_rational(obj["offset"]))
    raise SchemaError('graph point must be {"vertex": id} or {"edge": k, "offset": "p/q"}')


# a graph function's (offset, value) pair at its depth in the document
_EDGE_PAIR = '      [\n        "%s",\n        "%s"\n      ]'


def graph_function_to_json(f: GraphPLFunction) -> str:
    """The document {"edges": [[["offset", "value"], ...], ...]} of f,
    written in one pass at its final indentation: one template per pair,
    each Fraction printed by %s, and one join per edge and one for the
    edges.  Every edge of a GraphPLFunction has at least two pairs."""
    edges = [",\n".join([_EDGE_PAIR % pair for pair in pairs]) for pairs in f.edge_values]
    return '{\n  "edges": [\n    [\n' + "\n    ],\n    [\n".join(edges) + "\n    ]\n  ]\n}"


def graph_function_from_json(obj, graph: MetricGraph) -> GraphPLFunction:
    """The function of a document {"edges": [[["offset", "value"], ...],
    ...]} on graph, checked once.

    Every SchemaError comes first: the layout of every edge's pairs, then
    each rational, parsed once per distinct string (_parse_once).  Then
    GraphPLFunction._checked, the checks of GraphPLFunction.build, with
    their messages and in their order, on the integers of the parsed
    Fractions, which are in lowest terms; build's conversion is not
    repeated."""
    if not _has_array(obj, "edges"):
        raise SchemaError('graph function must be {"edges": [...]}')
    values, parsed = [], {}
    for pairs in obj["edges"]:
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise SchemaError('each edge must be a list of ["offset", "value"] pairs')
        values.append(tuple([(_parse_once(o, parsed, parse_rational),
                              _parse_once(y, parsed, parse_rational)) for o, y in pairs]))
    return GraphPLFunction._checked(graph, tuple(values))


def _parse_once(s, parsed, parse):
    """parse(s), parse_rational or _rational_pair, each string parsed once
    per dict `parsed`, which lives for one document and one parse: a graph
    function repeats a vertex value on every edge at the vertex, "0" on
    every edge and each edge length as its end offset, a graph repeats its
    edge lengths, and a toric document its slope coordinates."""
    if not isinstance(s, str):
        return parse(s)
    q = parsed.get(s)
    if q is None:
        q = parsed[s] = parse(s)
    return q


def graph_measure_to_json(mu: GraphMeasure) -> str:
    # an atom's key is canonical: ("v", id) or ("e", e, offset)
    atoms = [
        _VERTEX_ATOM % (m, _scalar(key[1])) if key[0] == "v"
        else _EDGE_ATOM % (m, key[1], key[2])
        for key, m in mu.atoms
    ]
    return json_object({"atoms": json_array(atoms)})


def graph_measure_from_json(obj, graph: MetricGraph) -> GraphMeasure:
    records = _records(obj, "atoms", ("point", "mass"), 'graph measure must be {"atoms": [...]}',
                       'each atom must be {"point": ..., "mass": "..."}')
    atoms = [(graph_point_from_json(p), parse_rational(m)) for p, m in records]
    return GraphMeasure.from_atoms(graph, atoms)


# curve-canonical's document at its final indentation: the records of its
# three arrays at their depth, each with the separator from the next, and
# the text around them; the last arc, the vertex atom and the pair at the
# end of the edge close their arrays
_CANONICAL_ARC = '    "%s",\n'
_CANONICAL_ATOM = (
    '      {\n        "mass": "%s",\n        "point": {\n          "edge": 0,\n'
    '          "offset": "%s"\n        }\n      },\n'
)
_CANONICAL_PAIR = '        [\n          "%s",\n          "%s"\n        ],\n'
_CANONICAL_HEAD = '{\n  "arc_masses": [\n'
_CANONICAL_MEASURE = '    "%s"\n  ],\n  "measure": {\n    "atoms": [\n'
_CANONICAL_POTENTIAL = (
    '      {\n        "mass": "%s",\n        "point": {\n          "vertex": 0\n        }\n'
    '      }\n    ]\n  },\n  "potential": {\n    "edges": [\n      [\n'
)
_CANONICAL_TAIL = '        [\n          "%s",\n          "%s"\n        ]\n      ]\n    ]\n  }\n}'


def _filled(template, *columns):
    """The pieces of template % row for each row of the columns, in order:
    their "".join is the records' text.  The list is filled a column at a
    time, by slice, so no record is formatted on its own."""
    literals = template.split("%s")
    row = [literals[0]]
    for literal in literals[1:]:
        row += [None, literal]
    pieces = row * len(columns[0])
    for i, column in enumerate(columns):
        pieces[2 * i + 1::len(row)] = column
    return pieces


def canonical_metric_to_json(form: CanonicalForm) -> str:
    """The curve-canonical document of the closed form of the canonical
    metric (curves.canonical_form, d_L != 0), written in one pass at its
    final indentation, from the form's integers and offset strings: one
    template per record at its depth, filled by _filled, and one join; no
    Fraction is built.  Each parabola value p j (j - n) / q is reduced once
    per pair (j, n - j), on which it is equal.  The measure's atoms follow
    the form's order, the vertex last; arc j holds exactly the atom at j/n,
    so its mass is the one mass d_L/n."""
    n, p, q, mass, offsets, order = form
    half = [_ratio(p * j * (j - n), q) for j in range(n // 2 + 1)]
    values = half + half[(n - 1) // 2::-1]
    return "".join([
        _CANONICAL_HEAD,
        (_CANONICAL_ARC % mass) * (n - 1),
        _CANONICAL_MEASURE % mass,
        *_filled(_CANONICAL_ATOM % (mass, "%s"), [offsets[j] for j in order]),
        _CANONICAL_POTENTIAL % mass,
        *_filled(_CANONICAL_PAIR, offsets[:n], values[:n]),
        _CANONICAL_TAIL % (offsets[n], values[n]),
    ])


def canonical_metric_rows(form: CanonicalForm):
    """The CSV rows of the same document, read off the form's offset
    strings: j/n, (j+1)/n and the arc's mass d_L/n, j = 0 .. n-1."""
    offsets, mass = form.offsets, str(form.mass)
    for a, b in zip(offsets, offsets[1:]):
        yield [a, b, mass]


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
    except ValueError as exc:
        # a JSON number past the int digit limit
        raise SchemaError(f"{path}: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
