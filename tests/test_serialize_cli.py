import argparse
import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import plma
from plma import cli, curves, geometry, serialize, variational
from plma.curves import (
    GraphMeasure,
    GraphPLFunction,
    circle_graph,
    solve_poisson,
    vertex_key,
)
from plma.geometry import DiscreteMeasure, Polytope, support_function
from plma.serialize import SchemaError
from plma.solver import ConvergenceError, SolveReport, solve_toric
from plma.toric import ma_measure

from cli_contract import (
    CSV,
    CURVE_GOLDEN,
    DENOMINATOR_6,
    INTERVAL,
    MIN_OF_PARABOLOIDS,
    PARABOLOID_16,
    PRUNED_INTERVAL,
    ROWS,
    SQUARE,
    THREE_ATOMS,
    Prefix,
    Text,
)
from conftest import (
    arc_masses,
    fraction_measure,
    fraction_parse_rational,
    fraction_point,
    hexagon,
    interval,
    random_admissible,
    random_graph,
    random_positive_measure,
    simplex2,
    unit_square,
)


def test_rational_strings():
    assert serialize.parse_rational("7/2") == Fraction(7, 2)
    assert serialize.parse_rational("-3") == -3
    with pytest.raises(SchemaError):
        serialize.parse_rational("1.5x")
    with pytest.raises(SchemaError):
        serialize.parse_rational(None)


def test_parse_rational_matches_fraction(rng):
    # the one grammar is the plain form "p/q" or "p", in ASCII digits with
    # a sign only on p: on such a string the result, or the SchemaError
    # text, must be Fraction(s)'s; everything else, another string or a
    # JSON value that is not a string, is the one SchemaError
    def is_digits(t):
        return t != "" and all(c in "0123456789" for c in t)

    def reference(s):
        p, slash, q = s.partition("/") if isinstance(s, str) else ("", "", "")
        if not (is_digits(p[1:] if p.startswith("-") else p) and (not slash or is_digits(q))):
            return f'bad rational {s!r}: expected a string "p/q" or "p"'
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            return f"bad rational {s!r}: {exc}"

    def parsed(s):
        try:
            x = serialize.parse_rational(s)
        except SchemaError as exc:
            return str(exc)
        assert type(x) is Fraction
        return x

    corpus = ["-13/24", "007/010", "-0", "0/5", "-0/7", "0", "12", "-7/1", "1/0", "-1/00",
              "+1", "+1/2", "1 ", " 1/2", "1 /2", "1.5", "-.5", "1e3", "1E-3", "1_000", "1/2_0",
              "1/2/3", "-", "/2", "1/", "1/-2", "--1", "0x10", "", "abc", "\u0663", "1\n",
              "1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000, True, False, 1.5, [1], None,
              {"p": 1}, 7, -3, 10**40, "1e20000000", "-1E-20000000", "1.5e4301", "2e-4300",
              "-.5E+4301", "1e4301 "]
    corpus += [f"{rng.randint(-10**30, 10**30)}/{rng.randint(1, 10**30)}" for _ in range(200)]
    corpus += [str(rng.randint(-10**30, 10**30)) for _ in range(50)]
    for s in corpus:
        assert parsed(s) == reference(s)


ESCAPES = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "€", "\u2028", "\ud800",
           "\U0001F600", "a", "b", " "]


def _random_document(rng, depth=0):
    """A seeded JSON-able tree with str keys, of the shapes json.dumps accepts."""
    def text():
        return "".join(rng.choice(ESCAPES) for _ in range(rng.randint(0, 5)))

    kind = rng.randrange(10) if depth < 4 else rng.randrange(6)
    if kind == 0:
        return text()
    if kind == 1:
        return rng.choice([rng.randint(-9, 9), rng.randint(-10**40, 10**40), -(2**63), 2**64])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([0.0, -0.0, 0.1, -2.5e-310, 1e300, rng.random(), float("nan"),
                           float("inf"), float("-inf")])
    if kind in (4, 5):
        return rng.choice(["", [], (), {}, 0])
    if kind in (6, 7):
        items = [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return items if kind == 6 else tuple(items)
    return {text(): _random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def _write(doc):
    """A document's text through the layout helpers alone."""
    if isinstance(doc, dict):
        return serialize.json_object({k: _write(v) for k, v in doc.items()})
    if isinstance(doc, (list, tuple)):
        return serialize.json_array([_write(v) for v in doc])
    if isinstance(doc, str):
        return serialize.json_string(doc)
    return json.dumps(doc)


def test_layout_helpers_match_stdlib_indented_output(rng):
    for _ in range(400):
        doc = _random_document(rng)
        assert _write(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _parsed(text):
    """The parse of a written document, once its text is checked to be the
    stdlib's indented, key-sorted encoding of that parse."""
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    return doc


def _rational(rng):
    """An integer, negative, large or plain rational."""
    return rng.choice([
        Fraction(rng.randint(-9, 9)),
        Fraction(-rng.randint(1, 10**40)),
        Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**20)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    ])


# one vertex id of each JSON scalar type, pairwise unequal under ==, and
# strings that need every kind of escape
VERTEX_IDS = [False, True, -7, 2**70, None, 1.5, -2.5e-310, "", "/", 'a"b', "a\\b",
              "\n\t\x00\x1f\x7f", "é€\u2028", "\U0001F600"]


def _relabelled_graph(rng):
    """A seeded random graph whose vertex ids are drawn from VERTEX_IDS and
    whose edge lengths are integer, large or plain rationals."""
    g = random_graph(rng)
    ids = rng.sample(VERTEX_IDS, len(g.vertex_ids))
    edges = [(ids[u], ids[v], abs(_rational(rng)) or Fraction(1)) for u, v, _ in g.edges]
    return curves.MetricGraph.build(ids, edges)


def test_polytope_writer(rng):
    for delta in (interval(), unit_square(), hexagon()):
        for _ in range(10):
            scale, shift = abs(_rational(rng)) or Fraction(1), [_rational(rng) for _ in range(2)]
            p = Polytope.from_points(
                [tuple(scale * c + t for c, t in zip(v, shift)) for v in delta.vertices])
            assert serialize.polytope_from_json(_parsed(serialize.polytope_to_json(p))) == p


def test_pl_function_writer(rng):
    for delta in (interval(), unit_square(), hexagon()):
        for _ in range(10):
            g = random_admissible(rng, delta)
            g = geometry.PLConvexFunction.from_pieces([
                geometry.AffineFunctional(f.slope, f.intercept + _rational(rng)) for f in g.pieces
            ])
            assert serialize.pl_function_from_json(_parsed(serialize.pl_function_to_json(g))) == g


def _in_order(g):
    """Whether g holds its pieces in (slope, intercept) order, the order
    pl_function_to_json writes them in, with no sort of its own."""
    pieces = list(g.pieces)
    written = _parsed(serialize.pl_function_to_json(g))["pieces"]
    return (pieces == sorted(pieces, key=lambda f: (f.slope, f.intercept))
            and written == [{"slope": [str(c) for c in f.slope], "intercept": str(f.intercept)}
                            for f in pieces])


def test_every_function_holds_its_pieces_in_order(rng):
    # each path that builds a function: the reader, from_pieces,
    # dual_transform, convex_envelope, a solve_toric solution, shift,
    # translate and support_function, on seeded inputs over each polytope
    for delta in (interval(), unit_square(), simplex2(), hexagon()):
        for _ in range(6):
            pieces = [(tuple(_rational(rng) for _ in range(delta.dim)), _rational(rng))
                      for _ in range(rng.randint(1, 6))]
            rng.shuffle(pieces)
            g = geometry.PLConvexFunction.from_pieces(pieces)
            doc = {"pieces": [{"slope": [_spelled(rng, c) for c in s], "intercept": _spelled(rng, c)}
                              for s, c in reversed(pieces)]}
            F = random_admissible(rng, delta)
            t = tuple(_rational(rng) for _ in range(delta.dim))
            samples = [(tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(delta.dim)),
                        Fraction(rng.randint(-9, 9), 4)) for _ in range(rng.randint(1, 8))]
            rng.shuffle(samples)
            functions = [serialize.pl_function_from_json(doc), g, geometry.dual_transform(g, delta),
                         geometry.convex_envelope(samples, delta), F.shift(_rational(rng)),
                         F.translate(t), support_function(delta), support_function(delta.translate(t))]
            assert all(_in_order(f) for f in functions)
        masses = [Fraction(rng.randint(1, 5)) for _ in range(3)]
        atoms = [tuple(Fraction(rng.randint(0, 4), 4) for _ in range(delta.dim)) for _ in masses]
        vol = delta.volume()
        mu = DiscreteMeasure.from_atoms(
            [(a, m * vol / sum(masses)) for a, m in zip(atoms, masses)])
        assert _in_order(solve_toric(delta, mu).solution)


def test_measure_writer(rng):
    for dim in (1, 2, 2, 2):
        for natoms in (0, 1, 5):
            atoms = [(tuple(_rational(rng) for _ in range(dim)), _rational(rng))
                     for _ in range(natoms)]
            mu = DiscreteMeasure.from_atoms(atoms)
            assert serialize.measure_from_json(_parsed(serialize.measure_to_json(mu))) == mu
    assert serialize.measure_to_json(DiscreteMeasure.from_atoms([])) == '{\n  "atoms": []\n}'
    with pytest.raises(TypeError, match="integer form"):
        DiscreteMeasure(())  # the atoms constructor is gone


def test_toric_ma_result_writer(rng):
    for delta in (interval(), unit_square(), hexagon()):
        for _ in range(5):
            result = ma_measure(random_admissible(rng, delta), delta)
            doc = _parsed(serialize.toric_ma_result_to_json(result))
            assert serialize.measure_from_json(doc["ma_real"]) == result.measure_NR
            berkovich = serialize.measure_from_json(doc["ma_berkovich"])
            assert berkovich.atoms == tuple((mp.v, m) for mp, m in result.measure_an)
            assert serialize.parse_rational(doc["degree"]) == result.degree


def test_solve_report_writer(rng):
    def entries(doc):
        return tuple((serialize.point_from_json(r["point"]), serialize.parse_rational(r["error"]))
                     for r in doc)

    delta = unit_square()
    three = serialize.measure_from_json(THREE_ATOMS).scale(Fraction(1, 2))
    one = DiscreteMeasure.from_atoms([((Fraction(1, 3),), Fraction(1))])
    reports = [solve_toric(delta, three), solve_toric(interval(), one)]
    errors = tuple(((_rational(rng), _rational(rng)), _rational(rng)) for _ in range(4))
    g = random_admissible(rng, delta)
    reports += [SolveReport(g, (), (), 0, False), SolveReport(g, errors, errors[:1], 7, True)]
    for report in reports:
        doc = _parsed(serialize.solve_report_to_json(report))
        assert serialize.pl_function_from_json(doc["solution"]) == report.solution
        assert entries(doc["residual"]) == report.residual
        assert entries(doc["polished_residual"]) == report.polished_residual
        assert doc["iterations"] == report.iterations
        assert doc["converged"] is report.converged


def test_graph_writer(rng):
    for _ in range(20):
        g = _relabelled_graph(rng)
        assert serialize.graph_from_json(_parsed(serialize.graph_to_json(g))) == g


def test_graph_function_writer(rng):
    for _ in range(20):
        g = _relabelled_graph(rng)
        om = random_positive_measure(rng, g, Fraction(2))
        f = solve_poisson(g, random_positive_measure(rng, g, Fraction(2)) - om,
                          vertex_key(g.vertex_ids[0]))
        f = f.scale(_rational(rng)) + GraphPLFunction.constant(g, _rational(rng))
        doc = _parsed(serialize.graph_function_to_json(f))
        assert serialize.graph_function_from_json(doc, g) == f


def test_graph_function_reader_parses_each_string_once_per_document(monkeypatch):
    # each distinct string of a document is parsed once, and again in the
    # next document; the result, or the first bad value's SchemaError, is
    # that of parse_rational on every value in document order
    g = curves.MetricGraph.build([0, 1, 2], [(0, 1, 2), (1, 2, Fraction(1, 3)), (2, 0, 1)])
    parse, parsed = serialize.parse_rational, []

    def counted(s):
        parsed.append(s)
        return parse(s)

    def reference(doc):
        try:
            return GraphPLFunction.build(g, [tuple((parse(o), parse(y)) for o, y in pairs)
                                             for pairs in doc["edges"]])
        except SchemaError as exc:
            return str(exc)

    def read(doc):
        try:
            return serialize.graph_function_from_json(doc, g)
        except SchemaError as exc:
            return str(exc)

    good = {"edges": [[["0", "1/2"], ["1", "-3"], ["2", "7"]], [["0", "7"], ["1/3", "2"]],
                      [["0", "2"], ["1/2", "-3"], ["1", "1/2"]]]}
    monkeypatch.setattr(serialize, "parse_rational", counted)
    for _ in range(2):
        parsed.clear()
        assert read(good) == reference(good)
        assert sorted(parsed) == sorted({s for pairs in good["edges"] for pair in pairs for s in pair})
    for bad in ("1.5", 1, [1], None, "1/0"):
        for e, i, j in ((0, 1, 1), (1, 1, 0), (2, 2, 1)):
            doc = json.loads(json.dumps(good))
            doc["edges"][e][i][j] = bad
            assert read(doc) == reference(doc)
            assert read(doc).startswith(f"bad rational {bad!r}")


def _spelled(rng, q):
    """A rational string of the Fraction q, not always reduced: "2/4" or
    "1/2" for 1/2, "007" or "7" for 7, "-0" or "0/3" for 0."""
    k = rng.choice((1, 1, 2, 3))
    p, d = q.numerator * k, q.denominator * k
    if d == 1 and rng.random() < 0.5:
        return ("-0" if p == 0 and rng.random() < 0.5
                else "-" * (p < 0) + "0" * rng.randint(1, 2) + str(abs(p)))
    return f"{p}/{d}" if d > 1 or rng.random() < 0.5 else str(p)


def _malformed(rng, edges, g):
    """A copy of the document's edges with one defect of the kinds that
    GraphPLFunction.build reports: a wrong edge count, ends that are not 0
    and the length, equal or decreasing offsets, or a discontinuity."""
    edges = [[list(pair) for pair in pairs] for pairs in edges]
    kind = rng.choice(("count", "start", "end", "short", "equal", "decreasing", "jump"))
    e = rng.randrange(len(edges))
    pairs = edges[e]
    ln = g.edge_length(e)
    if kind == "count":
        edges.pop(e) if rng.random() < 0.5 else edges.append(edges[e])
    elif kind == "start":
        pairs[0][0] = _spelled(rng, ln / rng.randint(2, 5))
    elif kind == "end":
        pairs[-1][0] = _spelled(rng, ln * Fraction(rng.choice((1, 3)), 2))
    elif kind == "short":
        del pairs[1:]
    elif kind in ("equal", "decreasing"):
        # a new breakpoint between two, on one of their offsets, or below
        # the first or above the second, the length included
        i = rng.randrange(1, len(pairs))
        lo, hi = Fraction(pairs[i - 1][0]), Fraction(pairs[i][0])
        o = rng.choice((lo, hi) if kind == "equal" else (lo - Fraction(1, 3), hi + Fraction(1, 3)))
        pairs.insert(i, [_spelled(rng, o), "1"])
    else:
        # a vertex value that differs from the one read on another edge
        # end, at random or in its denominator only; on a vertex with one
        # edge end the function stays valid
        pair = pairs[rng.choice((0, -1))]
        y = Fraction(pair[1])
        y = (Fraction(y.numerator or 1, y.denominator * rng.randint(2, 3)) if rng.random() < 0.5
             else Fraction(rng.randint(-9, 9), 7))
        pair[1] = _spelled(rng, y)
    return edges


def fraction_checked(graph, evs):
    """The checks of GraphPLFunction._checked, written on Fractions
    compared as numbers, with its messages and in its order: the oracle of
    its integer checks."""
    if len(evs) != len(graph.edges):
        raise curves.GraphError(
            f"expected one breakpoint list per edge ({len(graph.edges)}), got {len(evs)}")
    for e, pairs in enumerate(evs):
        if len(pairs) < 2 or pairs[0][0] != 0 or pairs[-1][0] != graph.edge_length(e):
            raise curves.GraphError(f"edge {e}: breakpoints must run from 0 to the edge length")
        if any(b[0] <= a[0] for a, b in zip(pairs, pairs[1:])):
            raise curves.GraphError(f"edge {e}: breakpoints must be strictly increasing")
    at = {}
    for pairs, (u, v, _) in zip(evs, graph.edges):
        for vid, y in ((u, pairs[0][1]), (v, pairs[-1][1])):
            if at.setdefault(vid, y) != y:
                raise curves.GraphError(f"discontinuity at vertex {vid!r}")
    return GraphPLFunction(tuple(evs))


def test_graph_function_checks_against_fractions(rng):
    # GraphPLFunction._checked compares the integers of the Fractions that
    # the reader parsed and that build converts: on valid documents and on
    # each kind of defect, spelled with unreduced strings, the reader,
    # build and the checks on Fractions give the same function or the same
    # error type and message
    def outcome(read):
        try:
            return read()
        except curves.GraphError as exc:
            return type(exc).__name__, str(exc)

    kinds = {"valid": 0, "error": 0}
    for _ in range(300):
        g = random_graph(rng, max_extra_edges=4)
        om = random_positive_measure(rng, g, Fraction(2))
        f = solve_poisson(g, random_positive_measure(rng, g, Fraction(2)) - om,
                          vertex_key(g.vertex_ids[0]))
        edges = [[[_spelled(rng, o), _spelled(rng, y)] for o, y in pairs] for pairs in f.edge_values]
        if rng.random() < 0.7:
            edges = _malformed(rng, edges, g)
        doc = {"edges": edges}
        parsed = [tuple((serialize.parse_rational(o), serialize.parse_rational(y)) for o, y in pairs)
                  for pairs in edges]
        expected = outcome(lambda: fraction_checked(g, parsed))
        assert outcome(lambda: serialize.graph_function_from_json(doc, g)) == expected
        assert outcome(lambda: GraphPLFunction.build(g, edges)) == expected
        kinds["error" if isinstance(expected, tuple) else "valid"] += 1
    assert min(kinds.values()) > 50


def fraction_pl_function(obj):
    """The toric function reader's Fraction path: a Fraction per number,
    AffineFunctionals and PLConvexFunction.from_pieces."""
    records = serialize._records(
        obj, "pieces", ("slope", "intercept"), 'function must be {"pieces": [...]}',
        'each piece must be {"slope": [...], "intercept": "..."}')
    pieces = [geometry.AffineFunctional(fraction_point(slope), fraction_parse_rational(c))
              for slope, c in records]
    if not pieces:
        raise SchemaError("function needs at least one piece")
    return geometry.PLConvexFunction.from_pieces(pieces)


def fraction_polytope(obj):
    if not serialize._has_array(obj, "vertices"):
        raise SchemaError('polytope must be {"vertices": [...]}')
    return Polytope.from_points([fraction_point(v) for v in obj["vertices"]])


def fraction_obstacle(obj):
    if isinstance(obj, dict) and "min_of" in obj:
        if not isinstance(obj["min_of"], list):
            raise SchemaError('obstacle must be {"min_of": [function, ...]}')
        return variational.MinOfConvex.build(fraction_pl_function(item) for item in obj["min_of"])
    return fraction_pl_function(obj)


BAD_VALUES = ("1.5", 1, [1], None, "1/0", "-1/00", "1" * 5000, "1/" + "7" * 5000)


def _outcome(read, doc):
    try:
        return read(doc)
    except ValueError as exc:  # SchemaError, DimensionError and the others
        return type(exc).__name__, str(exc)


def _function_doc(rng, n, k):
    return {"pieces": [{"slope": [_spelled(rng, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                                  for _ in range(n)],
                        "intercept": _spelled(rng, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))}
                       for _ in range(k)]}


def _defective(rng, pieces):
    """pieces with one defect: a bad value at a random position, a record
    that is not a piece, a slope that is no nonempty array, or a slope of
    another dimension (3-D, or mixed)."""
    pieces = json.loads(json.dumps(pieces))
    whole = [i for i, p in enumerate(pieces) if isinstance(p, dict) and "intercept" in p
             and isinstance(p.get("slope"), list) and p["slope"]]
    if not whole:
        return pieces
    i = rng.choice(whole)
    kind = rng.choice(("value", "value", "record", "slope", "dimension"))
    if kind == "value":
        where = rng.choice(["intercept"] + list(range(len(pieces[i]["slope"]))))
        target = pieces[i] if where == "intercept" else pieces[i]["slope"]
        target[where] = rng.choice(BAD_VALUES)
    elif kind == "record":
        pieces[i] = rng.choice(({"slope": ["0"]}, ["0"], "piece", {"intercept": "1"}))
    elif kind == "slope":
        pieces[i]["slope"] = rng.choice(([], "0", None, {"0": "1"}))
    else:
        pieces[i]["slope"] = pieces[i]["slope"][:1] if rng.random() < 0.5 else ["1", "2", "3"]
    return pieces


def test_toric_readers_errors_against_fractions(rng):
    # the integer readers of toric functions, polytopes and min_of
    # obstacles, against the Fraction path they replaced: on valid
    # documents, spelled with unreduced strings, and with one or two
    # defects, the same object or the same error type and message,
    # the first defect in reading order reported
    def read_obstacle(doc):
        return cli._load_obstacle_toric(doc)

    kinds = {"valid": 0, "SchemaError": 0, "DimensionError": 0, "ValueError": 0}
    for _ in range(400):
        n = rng.choice((1, 2, 2, 3))
        doc = _function_doc(rng, n, rng.randint(1, 5))
        for _ in range(rng.choice((0, 1, 1, 2))):
            doc["pieces"] = _defective(rng, doc["pieces"])
        if rng.random() < 0.05:
            doc = rng.choice(({"pieces": []}, {"piece": []}, [], {"pieces": "0"}))
        expected = _outcome(fraction_pl_function, doc)
        assert _outcome(serialize.pl_function_from_json, doc) == expected
        kinds[expected[0] if isinstance(expected, tuple) else "valid"] += 1

        vertices = [piece["slope"] if isinstance(piece, dict) and "slope" in piece else piece
                    for piece in doc["pieces"]] if isinstance(doc, dict) and isinstance(
                        doc.get("pieces"), list) else doc
        polytope = {"vertices": vertices} if rng.random() < 0.95 else {"points": vertices}
        expected = _outcome(fraction_polytope, polytope)
        assert _outcome(serialize.polytope_from_json, polytope) == expected
        kinds[expected[0] if isinstance(expected, tuple) else "valid"] += 1

        parts = [doc] + [_function_doc(rng, rng.choice((1, 2)), rng.randint(1, 3))
                         for _ in range(rng.randint(0, 2))]
        rng.shuffle(parts)
        obstacle = rng.choice(({"min_of": parts}, doc, {"min_of": "f"}, {"min_of": []}))
        expected = _outcome(fraction_obstacle, obstacle)
        assert _outcome(read_obstacle, obstacle) == expected
    assert min(kinds.values()) > 5


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_toric_readers_bad_value_at_each_position(bad):
    # one bad value at each position of a function, a polytope and a
    # min_of obstacle: the error of the Fraction path, and it names the
    # value
    good = {"pieces": [{"slope": ["0", "1/2"], "intercept": "1"},
                       {"slope": ["1", "-2/3"], "intercept": "0"},
                       {"slope": ["1/4", "1"], "intercept": "-5/6"}]}
    readers = ((serialize.pl_function_from_json, fraction_pl_function, lambda d: d),
               (serialize.polytope_from_json, fraction_polytope,
                lambda d: {"vertices": [p["slope"] for p in d["pieces"]]}),
               (cli._load_obstacle_toric, fraction_obstacle, lambda d: {"min_of": [good, d]}))
    for i in range(3):
        for where in (0, 1, "intercept"):
            doc = json.loads(json.dumps(good))
            (doc["pieces"][i] if where == "intercept" else doc["pieces"][i]["slope"])[where] = bad
            for read, oracle, wrap in readers:
                if read is serialize.polytope_from_json and where == "intercept":
                    continue
                expected = _outcome(oracle, wrap(doc))
                assert expected[0] == "SchemaError" and expected[1].startswith(
                    f"bad rational {bad!r}"[:40])
                assert _outcome(read, wrap(doc)) == expected


def test_graph_measure_writer(rng):
    measures = []
    for _ in range(20):
        g = _relabelled_graph(rng)
        atoms = [(vertex_key(vid), _rational(rng)) for vid in g.vertex_ids]
        atoms += [(("e", e, ln * Fraction(rng.randint(1, 7), 8)), _rational(rng))
                  for e, (_, _, ln) in enumerate(g.edges)]
        measures += [(g, GraphMeasure.from_atoms(g, atoms)), (g, GraphMeasure.from_atoms(g, []))]
    circle = circle_graph()
    measures += [(circle, curves.canonical_metric(2, 3)[1]),
                 (circle, curves.canonical_metric(3, 2, d_L=0)[1])]
    for g, mu in measures:
        doc = _parsed(serialize.graph_measure_to_json(mu))
        assert serialize.graph_measure_from_json(doc, g) == mu
    assert serialize.graph_measure_to_json(measures[-1][1]) == '{\n  "atoms": []\n}'


@pytest.mark.parametrize("error, code", [(curves.GraphError, 2), (ConvergenceError, 3)])
def test_error_object_writer(error, code, capsys, monkeypatch):
    message = "".join(ESCAPES)
    assert "\ud800" in message  # a lone surrogate

    def fail(*args):
        raise error(message)

    monkeypatch.setattr(curves, "canonical_form", fail)
    assert cli.run(["curve-canonical", "--m", "2", "--iterations", "1"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("}\n")
    doc = _parsed(err[:-1])
    assert doc == {"error": {"type": error.__name__, "message": message}}


def test_measure_reader_against_fractions(rng):
    # measure_from_json parses each distinct string once through
    # _pair_point: on the atoms of function documents, spelled with
    # unreduced and repeated strings and with one or two defects, the
    # measure or the error of the Fraction path, first defect first
    kinds = {"valid": 0, "SchemaError": 0, "DimensionError": 0}
    for _ in range(300):
        doc = _function_doc(rng, rng.choice((1, 2, 2, 3)), rng.randint(1, 5))
        for _ in range(rng.choice((0, 1, 1, 2))):
            doc["pieces"] = _defective(rng, doc["pieces"])
        atoms = [{"point": p["slope"], "mass": p["intercept"]}
                 if isinstance(p, dict) and "slope" in p and "intercept" in p else p
                 for p in doc["pieces"]]
        measure = {"atoms": atoms + atoms[:rng.randint(0, 2)]}
        if rng.random() < 0.05:
            measure = rng.choice(({"atoms": []}, {"atom": []}, [], {"atoms": "0"}))
        expected = _outcome(fraction_measure, measure)
        assert _outcome(lambda doc: serialize.measure_from_json(doc).atoms, measure) == expected
        kinds[expected[0] if expected and isinstance(expected[0], str) else "valid"] += 1
    assert min(kinds.values()) > 5


def _atom_doc(*atoms):
    return {"atoms": [{"point": list(point), "mass": mass} for point, mass in atoms]}


MEASURE_DOCUMENTS = {
    "1/2 and 2/4 merge": _atom_doc((["1/2"], "1"), (["2/4"], "1/3"), (["3/6"], "-2/6")),
    "masses summing to zero dropped": _atom_doc(
        (["1", "2/4"], "1/2"), (["2/2", "1/2"], "-1/2"), (["0", "0"], "3")),
    "every mass dropped": _atom_doc((["1/3"], "0"), (["1/3"], "0/5")),
    "empty atoms": {"atoms": []},
    "mixed dimensions": _atom_doc((["1/3"], "1"), (["1/3", "0"], "1")),
    "mixed dimensions at a zero mass": _atom_doc((["1/3"], "0"), (["1/3", "0"], "1")),
    "three coordinates": _atom_doc((["1", "2", "3/9"], "1"), (["1", "2", "1/3"], "1")),
    "bad rational after mixed dimensions": _atom_doc((["1"], "1"), (["1", "2"], "1"), (["1"], "1/0")),
    "empty point": _atom_doc(([], "1")),
    "JSON number": _atom_doc((["1"], 1)),
    "no mass": {"atoms": [{"point": ["1"]}]},
    "no atoms": {"atom": []},
    "not an object": [],
}


@pytest.mark.parametrize("name", list(MEASURE_DOCUMENTS))
def test_measure_reader_pinned_against_fraction_path(name):
    # the integer reader's atoms, or its error and message, are the
    # Fraction path's: equal points spelled apart merge, a mass that sums
    # to zero goes, every SchemaError comes before the check of mixed
    # dimension, and a 3-D point is read (the solver refuses it)
    doc = MEASURE_DOCUMENTS[name]
    expected = _outcome(fraction_measure, doc)
    assert _outcome(lambda d: serialize.measure_from_json(d).atoms, doc) == expected
    if name == "1/2 and 2/4 merge":
        assert serialize.measure_from_json(doc).integer_form == (((1,),), 2, (1,), 1)
    if name in ("every mass dropped", "empty atoms"):
        assert serialize.measure_from_json(doc).integer_form == ((), 1, (), 1)


def test_polytope_roundtrip(rng):
    for p in (interval(), unit_square()):
        assert serialize.polytope_from_json(json.loads(serialize.polytope_to_json(p))) == p


def test_function_and_measure_roundtrip(rng):
    delta = unit_square()
    g = random_admissible(rng, delta)
    assert serialize.pl_function_from_json(json.loads(serialize.pl_function_to_json(g))) == g
    mu = ma_measure(g, delta).measure_NR
    assert serialize.measure_from_json(json.loads(serialize.measure_to_json(mu))) == mu


def test_graph_roundtrips(rng):
    g = random_graph(rng)
    assert serialize.graph_from_json(json.loads(serialize.graph_to_json(g))) == g
    om = random_positive_measure(rng, g, Fraction(2))
    om_doc = json.loads(serialize.graph_measure_to_json(om))
    assert serialize.graph_measure_from_json(om_doc, g) == om
    from plma.curves import superpose

    f = superpose(g, random_positive_measure(rng, g, Fraction(2)), om)
    f_doc = json.loads(serialize.graph_function_to_json(f))
    assert serialize.graph_function_from_json(f_doc, g) == f


def test_solve_report_serialization():
    delta = interval()
    nu = DiscreteMeasure.from_atoms([((Fraction(1, 3),), Fraction(1))])
    rep = solve_toric(delta, nu)
    obj = json.loads(serialize.solve_report_to_json(rep))
    assert obj["converged"] is True
    assert obj["residual"][0]["error"] == "0"


def test_schema_errors():
    with pytest.raises(SchemaError):
        serialize.polytope_from_json({"points": []})
    with pytest.raises(SchemaError):
        serialize.measure_from_json({"atoms": [{"point": [["0"]], "weight": "1"}]})
    with pytest.raises(SchemaError):
        serialize.graph_point_from_json({"offset": "1/2"})


ONE_LOOP = curves.MetricGraph.build([0], [(0, 0, 1)])
SCHEMA_ERRORS = {
    "empty point": (lambda: serialize.point_from_json([]),
                    "a point must be a nonempty array of rationals"),
    "piece without intercept": (lambda: serialize.pl_function_from_json({"pieces": [{"slope": ["0"]}]}),
                                'each piece must be {"slope": [...], "intercept": "..."}'),
    "no pieces": (lambda: serialize.pl_function_from_json({"pieces": []}),
                  "function needs at least one piece"),
    "graph without edges": (lambda: serialize.graph_from_json({"vertices": [0]}),
                            'graph must be {"vertices": [...], "edges": [...]}'),
    "graph function without edges": (lambda: serialize.graph_function_from_json({"edge": []}, ONE_LOOP),
                                     'graph function must be {"edges": [...]}'),
    "graph measure without atoms": (lambda: serialize.graph_measure_from_json({}, ONE_LOOP),
                                    'graph measure must be {"atoms": [...]}'),
    "graph atom without mass": (
        lambda: serialize.graph_measure_from_json({"atoms": [{"point": {"vertex": 0}}]}, ONE_LOOP),
        'each atom must be {"point": ..., "mass": "..."}'),
}


@pytest.mark.parametrize("case", list(SCHEMA_ERRORS))
def test_serialize_input_errors(case):
    call, message = SCHEMA_ERRORS[case]
    with pytest.raises(SchemaError) as raised:
        call()
    assert type(raised.value) is SchemaError and str(raised.value) == message


# ---------------------------------------------------------------------------
# command line


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def toric_files(tmp_path):
    delta = unit_square()
    d = write(tmp_path, "delta.json", json.loads(serialize.polytope_to_json(delta)))
    g = write(
        tmp_path, "g.json", json.loads(serialize.pl_function_to_json(support_function(delta)))
    )
    return d, g


def test_cli_determinism(toric_files, capsys):
    d, g = toric_files
    cli.run(["toric-ma", "--delta", d, "--g", g])
    first = capsys.readouterr().out
    cli.run(["toric-ma", "--delta", d, "--g", g])
    assert capsys.readouterr().out == first
    # emitted JSON re-parses into equal values
    res = serialize.measure_from_json(json.loads(first)["ma_real"])
    assert res.total_mass() == 1


def test_cli_toric_solve_csv_reports_exact_residual(tmp_path, capsys):
    # irrational optimal weights: the snap fails, and the CSV must show the
    # solution, one row per piece, and then the exact residual of that
    # solution, as the JSON "solution" and "residual" do
    d = write(tmp_path, "delta.json", json.loads(serialize.polytope_to_json(simplex2())))
    corners = (["0", "0"], ["1", "0"], ["0", "1"])  # Berkovich mass 2! * 1/6 each
    mu = write(tmp_path, "mu.json", {"atoms": [{"point": p, "mass": "1/3"} for p in corners]})
    assert cli.run(["toric-solve", "--delta", d, "--mu", mu]) == 0
    document = json.loads(capsys.readouterr().out)
    assert cli.run(["toric-solve", "--delta", d, "--mu", mu, "--format", "csv"]) == 0
    header, *rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")]
    assert header == ["part", "x1", "x2", "value"]
    pieces = document["solution"]["pieces"]
    assert rows[:len(pieces)] == [["solution", *p["slope"], p["intercept"]] for p in pieces]
    residual = rows[len(pieces):]
    assert residual == [["residual", *entry["point"], entry["error"]]
                        for entry in document["residual"]]
    assert pieces and len(residual) == 3 and any(row[3] != "0" for row in residual)


def _run_documents(tmp_path, command, documents, options=()):
    args = [command, *options]
    for name, doc in documents.items():
        args += ["--" + name, write(tmp_path, name + ".json", doc)]
    return cli.run(args)


def test_bad_input_errors_are_value_errors():
    # cli.run maps every ValueError to exit 2 and ConvergenceError to exit
    # 3, so each bad-input error must be a ValueError and ConvergenceError
    # must not be one
    exported = {name for name in plma.__all__
                if isinstance(getattr(plma, name), type) and issubclass(getattr(plma, name), Exception)}
    assert exported == {"AdmissibilityError", "DegeneratePolytopeError", "DimensionError",
                        "GraphError", "MassBalanceError", "SubharmonicityError"}
    for cls in [SchemaError, variational.EnvelopeError, *(getattr(plma, name) for name in exported)]:
        assert issubclass(cls, ValueError), cls
    assert not issubclass(ConvergenceError, ValueError)


def test_cli_curve_commands(tmp_path, capsys):
    graph = write(
        tmp_path,
        "graph.json",
        {"vertices": [0], "edges": [{"ends": [0, 0], "length": "1"}]},
    )
    om = write(tmp_path, "om.json", {"atoms": [{"point": {"vertex": 0}, "mass": "1"}]})
    mu = write(
        tmp_path,
        "mu.json",
        {"atoms": [{"point": {"edge": 0, "offset": "1/2"}, "mass": "1"}]},
    )
    assert cli.run(["curve-solve", "--graph", graph, "--mu", mu, "--omega0", om]) == 0
    out = json.loads(capsys.readouterr().out)
    g = circle_graph()
    f = serialize.graph_function_from_json(out, g)
    assert f.eval(g, ("e", 0, Fraction(1, 2))) == Fraction(-1, 4)

    x = write(tmp_path, "x.json", {"edge": 0, "offset": "1/2"})
    assert cli.run(["curve-green", "--graph", graph, "--x", x, "--omega0", om]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2 == out  # green equals the one-atom superposition


def test_cli_canonical_csv(capsys):
    assert cli.run(["curve-canonical", "--m", "2", "--iterations", "6", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "arc_start,arc_end,mass"
    assert rows[1:] == [f"{Fraction(j, 64)},{Fraction(j + 1, 64)},1/64" for j in range(64)]


def fraction_canonical_output(m, k, fmt):
    """curve-canonical's output as it was written: canonical_metric's
    Fractions through graph_function_to_json, graph_measure_to_json and
    arc_masses, and CSV rows of Fractions."""
    potential, measure = curves.canonical_metric(m, k)
    parts = m**k
    masses = arc_masses(measure, parts)
    if fmt == "csv":
        rows = [["arc_start", "arc_end", "mass"]] + [
            [Fraction(j, parts), Fraction(j + 1, parts), mass] for j, mass in enumerate(masses)]
        return "".join(",".join(map(str, row)) + "\n" for row in rows)
    return serialize.json_object({
        "potential": serialize.graph_function_to_json(potential),
        "measure": serialize.graph_measure_to_json(measure),
        "arc_masses": serialize.json_array(['"%s"' % mass for mass in masses]),
    }) + "\n"


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_cli_canonical_against_fraction_path(m, capsys, tmp_path):
    # every k with m^k <= 4096, k = 0 (one arc, the vertex atom alone)
    # included, on stdout and through --output, in JSON and CSV; m = 6 is
    # the first multiplier whose gcd(j, m^k) mixes two primes
    k = 0
    while m**k <= 4096:
        for fmt in ("json", "csv"):
            expected = fraction_canonical_output(m, k, fmt)
            argv = ["curve-canonical", "--m", str(m), "--iterations", str(k), "--format", fmt]
            assert cli.run(argv) == 0
            assert capsys.readouterr() == (expected, "")
            out = tmp_path / f"{k}.{fmt}"
            assert cli.run([*argv, "--output", str(out)]) == 0
            assert capsys.readouterr() == ("", "")
            assert out.read_bytes() == expected.encode()
        k += 1


@pytest.mark.parametrize(
    "command, documents, walks",
    [
        ("toric-ma", {"delta": SQUARE, "g": PARABOLOID_16}, 1),
        ("toric-energy", {"delta": SQUARE, "g": DENOMINATOR_6, "g0": PARABOLOID_16}, 2),
        ("envelope", {"delta": SQUARE, "g": MIN_OF_PARABOLOIDS}, 3),
        ("orthogonality", {"delta": SQUARE, "g": MIN_OF_PARABOLOIDS}, 3),
    ],
)
def test_cli_one_walk_per_function(tmp_path, command, documents, walks, capsys, monkeypatch):
    # each loaded 2-D function is walked once, when it is built, and the
    # command reads that walk; envelope adds one walk of the sample function,
    # and orthogonality reads the subdivision that dual_transform hands the
    # envelope (one more walk before it did)
    calls = []
    walk = geometry._walk

    def counted(form):
        calls.append(len(form[0]))
        return walk(form)

    monkeypatch.setattr(geometry, "_walk", counted)
    assert _run_documents(tmp_path, command, documents) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == walks


def test_cli_envelope_interval_csv_rows_are_pieces(tmp_path, capsys):
    # a row per piece of the envelope, s2 empty on an interval: the pieces
    # carry the function exactly, and consecutive rows meet at its breakpoints
    documents = {"delta": INTERVAL, "g": PRUNED_INTERVAL}
    assert _run_documents(tmp_path, "envelope", documents, CSV) == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert header == ["s1", "s2", "intercept"]
    g = variational.envelope_toric(serialize.pl_function_from_json(PRUNED_INTERVAL), interval())
    assert rows == [[str(f.slope[0]), "", str(f.intercept)] for f in g.pieces]
    pieces = [(Fraction(s), Fraction(c)) for s, _, c in rows]
    meets = [(c2 - c1) / (s2 - s1) for (s1, c1), (s2, c2) in zip(pieces, pieces[1:])]
    assert meets == [v[0] for v in geometry.breakpoints(g)] == [Fraction(-3, 4), Fraction(15, 8)]


@pytest.mark.parametrize("command", ["envelope", "orthogonality"])
def test_cli_graph_envelope_takes_no_laplacian(tmp_path, command, capsys, monkeypatch):
    # MA(P(psi)) is the exact pass's node masses: no Laplacian is taken,
    # of the obstacle up front or of the envelope afterwards
    calls = []
    laplacian = curves.laplacian

    def counted(f, graph):
        calls.append(f)
        return laplacian(f, graph)

    monkeypatch.setattr(curves, "laplacian", counted)
    assert _run_documents(tmp_path, command, CURVE_GOLDEN["v8"]) == 0
    assert capsys.readouterr().err == ""
    assert calls == []


def test_cli_graph_orthogonality_builds_no_gap(tmp_path, capsys, monkeypatch):
    # psi - P(psi) is read off the nodes, never built as a function
    calls = []
    combine = curves.GraphPLFunction.combine

    def counted(self, other, a, b):
        calls.append((a, b))
        return combine(self, other, a, b)

    monkeypatch.setattr(curves.GraphPLFunction, "combine", counted)
    for case in ("v8", "v14", "subharmonic"):
        assert _run_documents(tmp_path, "orthogonality", CURVE_GOLDEN[case]) == 0
        assert capsys.readouterr().err == ""
    assert calls == []


def test_cli_output_file(tmp_path, toric_files):
    d, g = toric_files
    out = tmp_path / "result.json"
    assert cli.run(["toric-ma", "--delta", d, "--g", g, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["degree"] == "2"


def test_cli_selftest_output_file(tmp_path, capsys):
    out = tmp_path / "selftest.txt"
    assert cli.run(["selftest", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.run(["selftest"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_cli_start_does_not_import_numpy():
    # the package is standard library only, and a command's start loads
    # neither dataclasses nor the modules that it pulls in, nor typing or
    # random, which only selftest draws from: a fresh interpreter shows it.
    # -S keeps site's .pth files, which may load such modules themselves,
    # out of the count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, plma.cli; plma.cli.build_parser(); "
            "print(sorted(set(sys.argv[1:]) & set(sys.modules)))")
    heavy = ["numpy", "dataclasses", "inspect", "ast", "tokenize", "typing", "random"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *heavy], env=env, capture_output=True, text=True,
        timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_envelope_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    # An exact pass with no complementary iterate in its len(nodes) + 1
    # solves is a solver failure: exit 3, not a validation error.  The row
    # exits 0 unpatched.
    howard = variational._howard

    def above_the_obstacle(form, contact):
        # each iterate lifted by 1, its gap lowered by 1: above psi on its
        # nonempty contact set
        for G, d, S, contact in howard(form, contact):
            yield [gk - d * form[1] for gk in G], d, S, contact

    monkeypatch.setattr(variational, "_howard", above_the_obstacle)
    row = ROWS["test_cli_contract[envelope-circle]"]
    error = ("ConvergenceError", "obstacle solve did not stabilize")
    _replay(row._replace(code=3, error=error), tmp_path, capsys, monkeypatch)


def test_cli_curve_solve_past_the_lift_bound_exit_code(tmp_path, capsys, monkeypatch):
    # a p-adic solve whose reconstruction never succeeds stops at its lift
    # bound with ConvergenceError: exit 3, as for any solve that fails.  The
    # row exits 0 unpatched.
    monkeypatch.setattr(curves, "_reconstruct", lambda X, free, modulus: None)
    row = ROWS["test_cli_contract[curve-solve-dented-graph]"]
    error = ("ConvergenceError", "p-adic solve passed its lift bound unreconstructed")
    _replay(row._replace(code=3, error=error), tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("point", ["0", "-3/2", "7/3"])
def test_cli_envelope_csv_on_a_point_interval(tmp_path, point, capsys):
    # over delta = {a} the envelope is the affine function a u - c, with no
    # breakpoint: the CSV prints its one piece
    psi = {"min_of": [
        {"pieces": [{"slope": ["-2"], "intercept": "1"}, {"slope": ["3"], "intercept": "0"}]},
        {"pieces": [{"slope": ["-3"], "intercept": "0"}, {"slope": ["1/2"], "intercept": "1/3"},
                    {"slope": ["5/2"], "intercept": "-1"}]},
    ]}
    documents = {"delta": {"vertices": [[point]]}, "g": psi}
    assert _run_documents(tmp_path, "envelope", documents) == 0
    env = serialize.pl_function_from_json(json.loads(capsys.readouterr().out))
    assert env.slopes == ((Fraction(point),),)
    assert _run_documents(tmp_path, "envelope", documents, CSV) == 0
    assert capsys.readouterr().out == f"s1,s2,intercept\n{point},,{env.pieces[0].intercept}\n"


def _padded(point):
    return [*point, *[""] * (2 - len(point))]


def _edge_rows(document):
    return [["edge", "offset", "value"]] + [
        [str(e), o, y] for e, pairs in enumerate(document["edges"]) for o, y in pairs]


# the CSV table each command writes, read off its JSON document: the same
# rational strings, one row per atom, residual entry, piece or breakpoint
CSV_OF_JSON = {
    "toric-ma": lambda doc: [["side", "x1", "x2", "mass"]] + [
        [side, *_padded(atom["point"]), atom["mass"]]
        for side, key in (("real", "ma_real"), ("berkovich", "ma_berkovich"))
        for atom in doc[key]["atoms"]],
    "toric-solve": lambda doc: [["part", "x1", "x2", "value"]] + [
        ["solution", *_padded(piece["slope"]), piece["intercept"]]
        for piece in doc["solution"]["pieces"]] + [
        ["residual", *_padded(entry["point"]), entry["error"]] for entry in doc["residual"]],
    "toric-energy": lambda doc: [["energy"], [doc["energy"]]],
    "envelope": lambda doc: [["s1", "s2", "intercept"]] + [
        [*_padded(piece["slope"]), piece["intercept"]] for piece in doc["pieces"]]
    if "pieces" in doc else _edge_rows(doc),
    "orthogonality": lambda doc: [["defect"], [doc["defect"]]],
    "curve-solve": _edge_rows,
    "curve-green": _edge_rows,
    "curve-canonical": lambda doc: [["arc_start", "arc_end", "mass"]] + [
        [str(Fraction(j, n)), str(Fraction(j + 1, n)), m]
        for n in [len(doc["arc_masses"])] for j, m in enumerate(doc["arc_masses"])],
}


def _run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _is_indented_json(text):
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _write_documents(argv):
    """argv with each inline document written to <flag>.json in the
    working directory, and its file name in its place."""
    names = []
    for arg in argv:
        if isinstance(arg, (dict, list, Text, bytes)):
            name = names[-1].lstrip("-") + ".json"
            if isinstance(arg, bytes):
                Path(name).write_bytes(arg)
            else:
                Path(name).write_text(arg if isinstance(arg, Text) else json.dumps(arg), encoding="utf-8")
            arg = name
        names.append(arg)
    return names


def _replay(row, tmp_path, capsys, monkeypatch):
    """Run one row of tests/cli_contract.py through cli.run in tmp_path and
    check it: its exit code, error and digest; every command but selftest
    again under --format json and csv, with the same exit code, and its
    CSV read off its JSON document; a zero orthogonality defect; on every
    run, an error object exactly where the row has an error, nothing on
    stdout beside it, and the stdlib's indented encoding of each JSON text."""
    monkeypatch.chdir(tmp_path)
    argv = _write_documents(row.argv)
    capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    runs = [_run(capsys, argv)]
    code, out, _ = runs[0]
    assert code == row.code
    if row.sha256 is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == row.sha256
    command = argv[0] if argv else None
    if command in CSV_OF_JSON:
        as_json, as_csv = (_run(capsys, [*argv, "--format", fmt]) for fmt in ("json", "csv"))
        assert runs[0] in (as_json, as_csv) and as_json[0] == as_csv[0] == code
        runs += [as_json, as_csv]
        if row.error is None:
            assert _is_indented_json(as_json[1])
            document = json.loads(as_json[1])
            with pytest.raises(json.JSONDecodeError):
                json.loads(as_csv[1])
            table = CSV_OF_JSON[command](document)
            assert list(csv.reader(io.StringIO(as_csv[1]))) == table
            assert as_csv[1] == "".join(",".join(cells) + "\n" for cells in table)
            if command == "orthogonality":
                assert document["defect"] == "0"
    # writing lifts the int digit limit and puts it back
    assert sys.get_int_max_str_digits() == limit
    for _, out, err in runs:
        assert bool(err) == (row.error is not None)
        if err:
            assert out == "" and _is_indented_json(err)
            error = json.loads(err)
            assert list(error) == ["error"] and sorted(error["error"]) == ["message", "type"]
            kind, message = row.error
            assert error["error"]["type"] == kind
            if isinstance(message, Prefix):
                assert error["error"]["message"].startswith(message)
            else:
                assert error["error"]["message"] == message


def _contract_test(cases):
    if list(cases) == [""]:
        def test(tmp_path, capsys, monkeypatch):
            _replay(cases[""], tmp_path, capsys, monkeypatch)
        return test

    @pytest.mark.parametrize("row", list(cases.values()), ids=list(cases))
    def test(row, tmp_path, capsys, monkeypatch):
        _replay(row, tmp_path, capsys, monkeypatch)
    return test


# test_cli_contract and each test a row was once written out as, one
# function per name, collected under the ids that key ROWS
_CASES = {}
for _id, _row in ROWS.items():
    _name, _, _case = _id.partition("[")
    _CASES.setdefault(_name, {})[_case[:-1]] = _row
globals().update((_name, _contract_test(_cases)) for _name, _cases in _CASES.items())


@pytest.mark.parametrize("case", [
    "test_cli_contract[curve-solve-escaped-ids]",
    "test_cli_contract[curve-solve-utf8-ids]",
    "test_cli_contract[curve-green-escaped-ids]",
    "test_cli_contract[envelope-missing-g]",
    "test_cli_csv_cells_are_the_json_strings[toric-solve-no-convergence]",
])
def test_cli_main_in_a_subprocess(case, tmp_path, capsys, monkeypatch):
    # exit 0, an input error, a usage error and exit 3 print the same
    # through python -m plma.cli as through cli.run, in ASCII, under the C
    # locale and without UTF-8 mode, so that a file is read as UTF-8 only
    # when plma asks for it; main is sys.exit(run(argv)), so no other row
    # can differ
    monkeypatch.chdir(tmp_path)
    argv = _write_documents(ROWS[case].argv)
    capsys.readouterr()
    expected = _run(capsys, argv)
    assert expected[0] == ROWS[case].code
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "plma.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0"},
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout.decode("ascii"), proc.stderr.decode("ascii")) == expected


def full_parser_run(argv):
    """cli.run as it was: every argv through the full parser."""
    try:
        args = cli._parser().parse_args(argv)
        return args.fn(args)
    except (argparse.ArgumentError, ValueError, ConvergenceError) as exc:
        usage = isinstance(exc, argparse.ArgumentError)
        cli._error("usage" if usage else type(exc).__name__, str(exc))
        return 3 if isinstance(exc, ConvergenceError) else 2


def test_cli_command_subparser_equals_the_full_parser(tmp_path, capsys, monkeypatch):
    # run hands the rest of an argv that starts with a command to that
    # command's subparser: every usage error of the contract, every row
    # with an unknown flag after it and every -h print and exit as they do
    # through the full parser, which still takes no argv, -h and a bogus
    # command
    monkeypatch.chdir(tmp_path)
    commands = cli.COMMANDS
    argvs = [row.argv for row in ROWS.values() if row.error and row.error[0] == "usage"]
    argvs += [[*row.argv, "--no-such-flag"] for row in ROWS.values()]
    argvs += [[command, "-h"] for command in commands] + [["-h"]]
    capsys.readouterr()
    for argv in map(_write_documents, argvs):
        outcomes = []
        for run in (cli.run, full_parser_run):
            try:
                code = run(argv)
            except SystemExit as exit:
                code = exit.code
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (0, 2)
    assert sum(bool(argv) and argv[0] in commands for argv in argvs) > 200


def test_cli_curve_commands_at_960_vertices(tmp_path, monkeypatch):
    # the one run past the benchmark's 40 vertices: a graph, omega0, mu and
    # a dented obstacle drawn by the generators of bench/inputs.py, then
    # curve-solve, envelope --graph and orthogonality --graph through
    # python -m, each under a timeout, checked exactly
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    inputs = importlib.import_module("inputs")
    rng = random.Random(960)
    graph = inputs.random_graph(rng, 960)
    omega0 = inputs.reference_measure(rng, graph, Fraction(2))
    mu = inputs.positive_measure(rng, inputs.distinct_points(rng, graph, 3), Fraction(2))
    psi = inputs.dented_obstacle(rng, graph, omega0, 10)
    documents = {"graph": inputs.graph_json(graph), "omega0": inputs.graph_measure_json(omega0),
                 "mu": inputs.graph_measure_json(mu), "g": inputs.graph_function_json(psi)}
    for name, doc in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))

    def plma(command, role):
        argv = [command, "--graph", "graph.json", "--omega0", "omega0.json",
                f"--{role}", f"{role}.json", "--output", f"{command}.json"]
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "plma.cli", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        return serialize.load_path(tmp_path / f"{command}.json")

    g = serialize.graph_from_json(documents["graph"])
    omega0, mu = (serialize.graph_measure_from_json(documents[name], g) for name in ("omega0", "mu"))
    psi = serialize.graph_function_from_json(documents["g"], g)
    f = serialize.graph_function_from_json(plma("curve-solve", "mu"), g)
    env = serialize.graph_function_from_json(plma("envelope", "g"), g)
    assert curves.laplacian(f, g) == mu - omega0
    assert all(y >= 0 for pairs in (psi - env).edge_values for _, y in pairs)
    assert curves.is_subharmonic(env, g, omega0)
    assert plma("orthogonality", "g")["defect"] == "0"


def test_cli_selftest_failure_exit_1(capsys, monkeypatch):
    # a check that fails prints its FAIL line, and selftest exits 1
    monkeypatch.setattr(variational, "orthogonality_defect_toric", lambda psi, delta: 1)
    assert cli.run(["selftest"]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL toric orthogonality"]
    assert err == ""


def test_cli_contract_is_complete():
    # every command has a row that exits 0 and one that exits 2, every
    # command but selftest writes the CSV that the replay reads off its
    # JSON, and the toric solve has a row that exits 3
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    codes = {}
    for row in ROWS.values():
        codes.setdefault(row.argv[0] if row.argv else None, set()).add(row.code)
    assert all({0, 2} <= codes[command] for command in subparsers.choices)
    assert set(CSV_OF_JSON) == set(subparsers.choices) - {"selftest"}
    assert 3 in codes["toric-solve"]


def test_readme_command_table_matches_the_parser():
    # each row of README's command table names a subcommand and its flags:
    # every flag it shows exists on that subcommand, and every flag of the
    # subcommand is shown, but --output and --format, which README's prose
    # documents for all commands; so a flag that goes leaves no row behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme[readme.index("| Command | Purpose |"):].splitlines()
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[2:]):
        command = re.split(r"(?<!\\)\|", line)[1].strip().strip("`")
        rows[command.split()[0]] = set(re.findall(r"--[a-z0-9-]+", command))
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {flag for action in parser._actions for flag in action.option_strings
                    if flag.startswith("--")} - {"--help", "--output", "--format"}
             for name, parser in subparsers.choices.items()}
    assert rows == flags
