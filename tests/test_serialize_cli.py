import csv
import hashlib
import io
import json
import math
import os
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

from conftest import (
    hexagon,
    interval,
    random_admissible,
    random_graph,
    random_positive_measure,
    simplex2,
    unit_square,
)


def test_rational_strings():
    assert serialize.rational_str(Fraction(3, 4)) == "3/4"
    assert serialize.rational_str(Fraction(-5)) == "-5"
    assert serialize.parse_rational("7/2") == Fraction(7, 2)
    assert serialize.parse_rational("-3") == -3
    with pytest.raises(SchemaError):
        serialize.parse_rational("1.5x")
    with pytest.raises(SchemaError):
        serialize.parse_rational(None)


def test_parse_rational_matches_fraction(rng):
    # the plain "p/q" form is split and converted with int; on every input
    # the result, or the SchemaError text, must be Fraction(s)'s
    def reference(s):
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            return f"expected a rational string, got {s!r}"
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
              {"p": 1}, 7, -3, 10**40]
    corpus += [f"{rng.randint(-10**30, 10**30)}/{rng.randint(1, 10**30)}" for _ in range(200)]
    corpus += [str(rng.randint(-10**30, 10**30)) for _ in range(50)]
    for s in corpus:
        assert parsed(s) == reference(s)


def test_rational_str_matches_numerator_denominator(rng):
    # the reference: the numerator alone when the denominator is 1, else p/q
    def formula(x):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    values = [rng.randint(-10**40, 10**40) for _ in range(100)]
    values += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**12)) for _ in range(300)]
    values += [0, -1, Fraction(0), Fraction(-6, 3), Fraction(4, -6)]
    for x in values:
        assert serialize.rational_str(x) == formula(x)


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


def test_measure_writer(rng):
    for dim in (1, 2, 2, 2):
        for natoms in (0, 1, 5):
            atoms = [(tuple(_rational(rng) for _ in range(dim)), _rational(rng))
                     for _ in range(natoms)]
            mu = DiscreteMeasure.from_atoms(atoms)
            assert serialize.measure_from_json(_parsed(serialize.measure_to_json(mu))) == mu
    assert serialize.measure_to_json(DiscreteMeasure(())) == '{\n  "atoms": []\n}'


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
        f = f.scale(_rational(rng)).add_constant(_rational(rng))
        doc = _parsed(serialize.graph_function_to_json(f))
        assert serialize.graph_function_from_json(doc, g) == f


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

    monkeypatch.setattr(curves, "canonical_metric", fail)
    assert cli.run(["curve-canonical", "--m", "2", "--iterations", "1"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("}\n")
    doc = _parsed(err[:-1])
    assert doc == {"error": {"type": error.__name__, "message": message}}


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


def test_cli_toric_ma(toric_files, capsys):
    d, g = toric_files
    assert cli.run(["toric-ma", "--delta", d, "--g", g]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ma_real"]["atoms"][0]["mass"] == "1"
    assert out["degree"] == "2"


def test_cli_determinism(toric_files, capsys):
    d, g = toric_files
    cli.run(["toric-ma", "--delta", d, "--g", g])
    first = capsys.readouterr().out
    cli.run(["toric-ma", "--delta", d, "--g", g])
    assert capsys.readouterr().out == first
    # emitted JSON re-parses into equal values
    res = serialize.measure_from_json(json.loads(first)["ma_real"])
    assert res.total_mass() == 1


def test_cli_toric_solve_exit_codes(tmp_path, toric_files, capsys):
    d, _ = toric_files
    mu = write(
        tmp_path,
        "mu.json",
        {"atoms": [{"point": ["1/2", "1/2"], "mass": "2"}]},  # Berkovich mass 2
    )
    assert cli.run(["toric-solve", "--delta", d, "--mu", mu]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] and out["polished_residual"][0]["error"] == "0"

    bad = write(tmp_path, "bad.json", {"atoms": [{"point": ["1/2", "1/2"], "mass": "1"}]})
    assert cli.run(["toric-solve", "--delta", d, "--mu", bad]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "AdmissibilityError"


# three atoms on the unit square; the start misses them by up to 371/1536
THREE_ATOMS = {"atoms": [{"point": ["0", "0"], "mass": "1/3"},
                         {"point": ["1", "0"], "mass": "1/2"},
                         {"point": ["1", "1"], "mass": "7/6"}]}


@pytest.mark.parametrize(
    "options, code",
    [(("--max-iter", "1"), 3), (("--tol", "nan"), 2), (("--tol", "inf"), 2)],
)
def test_cli_toric_solve_three_atoms_exit_codes(tmp_path, options, code, capsys):
    # one Newton step does not converge: exit 3 with the report; a tolerance
    # that is not finite is invalid: exit 2 (inf reported the start as
    # converged, and nan failed even an exact solve)
    documents = {"delta": json.loads(serialize.polytope_to_json(unit_square())), "mu": THREE_ATOMS}
    assert _run_documents(tmp_path, "toric-solve", documents, options) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert err == "" and json.loads(out)["converged"] is False
    else:
        assert out == ""
        assert json.loads(err) == {"error": {
            "type": "ValueError", "message": "tolerance must be positive and finite"}}


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


def test_cli_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"vertices": [')
    assert cli.run(["toric-ma", "--delta", str(p), "--g", str(p)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "line" in err["error"]["message"]


ONE_EDGE = {"vertices": [0, 1], "edges": [{"ends": [0, 1], "length": "1"}]}
AT_0 = {"atoms": [{"point": {"vertex": 0}, "mass": "1"}]}
VALID_DOCUMENTS = {
    "toric-ma": {"delta": json.loads(serialize.polytope_to_json(unit_square())),
                 "g": json.loads(serialize.pl_function_to_json(support_function(unit_square())))},
    "toric-solve": {"delta": json.loads(serialize.polytope_to_json(unit_square())),
                    "mu": {"atoms": [{"point": ["1/2", "1/2"], "mass": "2"}]}},
    "curve-solve": {"graph": ONE_EDGE, "omega0": AT_0, "mu": AT_0},
    "curve-green": {"graph": ONE_EDGE, "omega0": AT_0, "x": {"vertex": 1}},
    "envelope": {"graph": ONE_EDGE, "omega0": AT_0, "g": {"edges": [[["0", "0"], ["1", "1"]]]}},
    "orthogonality": {"graph": ONE_EDGE, "omega0": AT_0, "g": {"edges": [[["0", "0"], ["1", "1"]]]}},
}
EDGE_5 = {"edge": 5, "offset": "1/2"}


def _run_documents(tmp_path, command, documents, options=()):
    args = [command, *options]
    for name, doc in documents.items():
        args += ["--" + name, write(tmp_path, name + ".json", doc)]
    return cli.run(args)


@pytest.mark.parametrize(
    "command, role, document, error",
    [
        ("toric-ma", "delta", {"vertices": 5}, "SchemaError"),
        ("toric-ma", "g", {"pieces": 7}, "SchemaError"),
        ("toric-solve", "mu", {"atoms": 3}, "SchemaError"),
        ("curve-solve", "graph",
         {"vertices": [0, 1], "edges": [{"ends": 5, "length": "1"}]}, "SchemaError"),
        ("curve-solve", "graph",
         {"vertices": [[0], 1], "edges": [{"ends": [1, 1], "length": "1"}]}, "SchemaError"),
        ("curve-green", "x", {"vertex": [0]}, "SchemaError"),
        ("envelope", "g", {"edges": [5]}, "SchemaError"),
        ("curve-green", "x", EDGE_5, "GraphError"),
        ("curve-green", "x", {"edge": -1, "offset": "1/2"}, "GraphError"),
        ("curve-green", "x", {"edge": "a", "offset": "1/2"}, "GraphError"),
        ("curve-green", "omega0", {"atoms": [{"point": EDGE_5, "mass": "1"}]}, "GraphError"),
        ("curve-solve", "mu", {"atoms": [{"point": EDGE_5, "mass": "1"}]}, "GraphError"),
        ("envelope", "g", {"edges": []}, "GraphError"),
        ("envelope", "g", {"edges": [[["0", "0"], ["1", "1"]]] * 2}, "GraphError"),
    ],
)
def test_cli_malformed_documents_exit_2(tmp_path, capsys, command, role, document, error):
    documents = VALID_DOCUMENTS[command]
    assert _run_documents(tmp_path, command, documents) == 0
    capsys.readouterr()
    assert _run_documents(tmp_path, command, {**documents, role: document}) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["type"] == error


@pytest.mark.parametrize(
    "command, role",
    [
        ("curve-solve", "mu"),
        ("curve-solve", "omega0"),
        ("curve-green", "x"),
        ("envelope", "omega0"),
        ("orthogonality", "omega0"),
    ],
)
def test_cli_vertex_not_in_graph_exit_2(tmp_path, capsys, command, role):
    documents = VALID_DOCUMENTS[command]
    assert _run_documents(tmp_path, command, documents) == 0
    capsys.readouterr()
    vertex_99 = {"vertex": 99}
    if role != "x":
        vertex_99 = {"atoms": [{"point": vertex_99, "mass": "1"}]}
    assert _run_documents(tmp_path, command, {**documents, role: vertex_99}) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "GraphError", "message": "vertex 99 is not a vertex of the graph"
    }


# -delta_0, delta_0 - delta_1, the empty measure and 2 delta_0 - delta at
# the middle of edge 0
NONPOSITIVE_OMEGA0 = [
    [({"vertex": 0}, "-1")],
    [({"vertex": 0}, "1"), ({"vertex": 1}, "-1")],
    [],
    [({"vertex": 0}, "2"), ({"edge": 0, "offset": "1/2"}, "-1")],
]


@pytest.mark.parametrize("atoms", NONPOSITIVE_OMEGA0)
@pytest.mark.parametrize("command", ["envelope", "orthogonality", "curve-green"])
def test_cli_nonpositive_reference_exit_2(tmp_path, capsys, command, atoms):
    # the graph envelope and orthogonality reject a reference measure that
    # is not positive or has no mass, with curve-green's error
    documents = VALID_DOCUMENTS[command]
    omega0 = {"atoms": [{"point": point, "mass": mass} for point, mass in atoms]}
    assert _run_documents(tmp_path, command, {**documents, "omega0": omega0}) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "MassBalanceError", "message": "reference measure must be positive"
    }


EDGELESS = {"vertices": [0], "edges": []}
EDGELESS_DOCUMENTS = {
    "envelope": {"graph": EDGELESS, "omega0": AT_0, "g": {"edges": []}},
    "orthogonality": {"graph": EDGELESS, "omega0": AT_0, "g": {"edges": []}},
    "curve-solve": {"graph": EDGELESS, "omega0": AT_0, "mu": AT_0},
    "curve-green": {"graph": EDGELESS, "omega0": AT_0, "x": {"vertex": 0}},
}


@pytest.mark.parametrize("command", list(EDGELESS_DOCUMENTS))
def test_cli_edgeless_graph_exit_2(tmp_path, capsys, command):
    assert _run_documents(tmp_path, command, EDGELESS_DOCUMENTS[command]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "GraphError", "message": "graph must have at least one edge"
    }


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


def test_cli_energy(tmp_path, toric_files, capsys):
    d, g = toric_files
    assert cli.run(["toric-energy", "--delta", d, "--g", g]) == 0
    assert json.loads(capsys.readouterr().out)["energy"] == "0"


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


@pytest.mark.parametrize(
    "m, k, digest",
    [
        (2, 6, "15daf5250f48dcc498397198721b44f22b1215a8bc308fd81d642a51c3335fef"),
        (2, 8, "b5c25273f879a474ca67602ab9bc82b38f30a8c57370cda979fdc5110e69e6c5"),
        (2, 10, "0b79ab505012a6885e25f5996d402791b658ab184d79872bfd64ea104399abf8"),
        (3, 5, "4c05028df2ee77a18c1f8676189e301de3e96e896665387189d6c2c49ff6e7d0"),
    ],
)
def test_cli_canonical_golden_stdout(m, k, digest, capsys):
    # sha256 of the stdout the pullback iteration printed; the closed form
    # must keep it byte for byte
    assert cli.run(["curve-canonical", "--m", str(m), "--iterations", str(k)]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


@pytest.mark.parametrize(
    "options, digest",
    [
        (["--m", "2", "--iterations", "12"],
         "a8bb10d643ccb654580cafe3a55e676c4c2201218ddd11be8bd95806f73fae45"),
        (["--m", "3", "--iterations", "5", "--format", "csv"],
         "8aca9c132b40c7fb3a731e0d43f43cdde61fcb593ed1286ef4c01d72774d43ff"),
    ],
)
def test_cli_canonical_golden_stdout_poisson(options, digest, capsys):
    # sha256 of the stdout the Poisson solve printed (the CSV digest recorded
    # again when its cells became the rational strings of the JSON document)
    assert cli.run(["curve-canonical", *options]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


def _shifted_paraboloid(inner, shift):
    """Lattice paraboloid on the 1/3 grid of the unit square: the four corner
    slopes plus `inner`, intercepts |s|^2/2 + <s, shift>."""
    slopes = [(0, 0), (1, 0), (0, 1), (1, 1)] + [(Fraction(i, 3), Fraction(j, 3)) for i, j in inner]
    return {"pieces": [
        {"slope": [str(Fraction(c)) for c in s],
         "intercept": str((Fraction(s[0]) ** 2 + Fraction(s[1]) ** 2) / 2
                          + s[0] * shift[0] + s[1] * shift[1])}
        for s in slopes
    ]}


SQUARE_JSON = json.loads(serialize.polytope_to_json(unit_square()))
INTERVAL_JSON = json.loads(serialize.polytope_to_json(interval()))
MIN_OF_PARABOLOIDS = {"min_of": [
    _shifted_paraboloid([(1, 1), (2, 1), (1, 2), (2, 2)], (Fraction(1, 4), Fraction(-1, 8))),
    _shifted_paraboloid([(1, 0), (0, 2), (2, 3), (3, 1)], (Fraction(-3, 8), Fraction(1, 4))),
]}
TORIC_GOLDEN = {
    # hexagon, four atoms, one inside the hull of the others; the snap succeeds
    "hexagon-a4i1": ("toric-solve", {
        "delta": {"vertices": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"],
                               ["1", "1"], ["-1", "-1"]]},
        "mu": {"atoms": [{"point": ["-1", "-5"], "mass": "1"},
                         {"point": ["3/2", "-2"], "mass": "1"},
                         {"point": ["5/3", "-7/3"], "mass": "3"},
                         {"point": ["3", "-3"], "mass": "1"}]},
    }),
    # simplex, five atoms; the snap succeeds
    "simplex-a5": ("toric-solve", {
        "delta": json.loads(serialize.polytope_to_json(simplex2())),
        "mu": {"atoms": [{"point": ["-1/2", "1/2"], "mass": "1/3"},
                         {"point": ["0", "0"], "mass": "1/12"},
                         {"point": ["1/2", "1"], "mass": "1/12"},
                         {"point": ["5/2", "-5"], "mass": "1/4"},
                         {"point": ["8", "6"], "mass": "1/4"}]},
    }),
    "interval-a3": ("toric-solve", {
        "delta": INTERVAL_JSON,
        "mu": {"atoms": [{"point": ["-1"], "mass": "1/4"},
                         {"point": ["1/3"], "mass": "1/2"},
                         {"point": ["5/2"], "mass": "1/4"}]},
    }),
    # uniform masses on twelve atoms of the 1/17 grid in the unit square; the
    # snap fails, so the weights on 2^-50 and their exact residual are printed
    "square-a12-unsnapped": ("toric-solve", {
        "delta": SQUARE_JSON,
        "mu": {"atoms": [{"point": [f"{i}/17", f"{j}/17"], "mass": "1/6"} for i, j in [
            (0, 5), (4, 1), (7, 11), (7, 14), (9, 17), (10, 11),
            (10, 15), (13, 1), (13, 8), (13, 13), (15, 0), (17, 1)]]},
    }),
    "envelope-min-of": ("envelope", {"delta": SQUARE_JSON, "g": MIN_OF_PARABOLOIDS}),
    "orthogonality-min-of": ("orthogonality", {"delta": SQUARE_JSON, "g": MIN_OF_PARABOLOIDS}),
}


@pytest.mark.parametrize(
    "case, digest",
    [
        ("hexagon-a4i1",
         "6a51fe260009783a1f2dbc5a4ef7662b08a880b415fb1ad5baff47bbe9eb95c8"),
        ("simplex-a5",
         "e2b77a4032a8066fa43c2909e7da119da00c7aa1ced367c6e1e4cb2513bbe46d"),
        ("interval-a3",
         "e5297a288f68c36a33b298f93b03d27bab873dfb6d3269cf6d0267ce99ec55f3"),
        ("square-a12-unsnapped",
         "9e5af46f3d7f111d2ad274a7f0772e902fd47b153d586261613b020b4ebf609e"),
        ("envelope-min-of",
         "afbbc658bb10f8d6218473a26ca9bcdeda160944aa7f5e2559a2653157200e4c"),
        ("orthogonality-min-of",
         "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
    ],
)
def test_cli_toric_golden_stdout(tmp_path, case, digest, capsys):
    # sha256 of the stdout on fixed toric inputs, pinned before the Legendre
    # transform read its breakpoints along the sides of delta off the 1-D chain
    # (square-a12-unsnapped: before the transform and the Voronoi start ran
    # on integers)
    command, documents = TORIC_GOLDEN[case]
    assert _run_documents(tmp_path, command, documents) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


SUPPORT_SQUARE = json.loads(serialize.pl_function_to_json(support_function(unit_square())))
# the lattice paraboloid on the whole 1/3 grid of the unit square, k = 16
PARABOLOID_16 = _shifted_paraboloid(
    [(i, j) for i in range(4) for j in range(4) if {i, j} - {0, 3}], (0, 0))
# the corner slopes plus five interior slopes over the common denominator 6
DENOMINATOR_6 = {"pieces": [
    {"slope": s, "intercept": c} for s, c in [
        (["0", "0"], "1/6"), (["1", "0"], "1/3"), (["0", "1"], "1/2"), (["1", "1"], "5/6"),
        (["1/6", "1/2"], "-1/6"), (["5/6", "1/3"], "1/6"), (["1/2", "5/6"], "1/3"),
        (["1/3", "1/6"], "-1/3"), (["1/2", "1/2"], "-1/2"),
    ]
]}
CSV = ("--format", "csv")
MA_ENERGY_GOLDEN = {
    "ma-square": ("toric-ma", {"delta": SQUARE_JSON, "g": SUPPORT_SQUARE}, ()),
    "ma-paraboloid16": ("toric-ma", {"delta": SQUARE_JSON, "g": PARABOLOID_16}, ()),
    "ma-denominator6": ("toric-ma", {"delta": SQUARE_JSON, "g": DENOMINATOR_6}, ()),
    "ma-paraboloid16-csv": ("toric-ma", {"delta": SQUARE_JSON, "g": PARABOLOID_16}, CSV),
    "ma-denominator6-csv": ("toric-ma", {"delta": SQUARE_JSON, "g": DENOMINATOR_6}, CSV),
    "energy-paraboloid16": ("toric-energy", {"delta": SQUARE_JSON, "g": PARABOLOID_16}, ()),
    "energy-denominator6": ("toric-energy",
                            {"delta": SQUARE_JSON, "g": DENOMINATOR_6, "g0": PARABOLOID_16}, ()),
}


@pytest.mark.parametrize(
    "case, digest",
    [
        ("ma-square",
         "d21af9d40a66bb273084b0c566cc0ec0948b362450e77cec3d1720903254f0c4"),
        ("ma-paraboloid16",
         "94bed1a5dc43e8b3b1e3e5f32fd2a1f4ea00309f845d29d482dfc49cb43ffd43"),
        ("ma-denominator6",
         "d722785e8e937b1c704e2913674c709fac7301079269089b7516a0cbc47bd770"),
        ("ma-paraboloid16-csv",
         "60382143f995ad20effc215409316911652ab1ddb39048807237e17f2c043ddc"),
        ("ma-denominator6-csv",
         "eb200a724aca54947b666e53a8a7087051390c4ad73a6cabb0be48c53a263e3e"),
        ("energy-paraboloid16",
         "a0b78a2c3f35e5d47d82d83c6c32b71d5d48607b96b60b81d3580fc502ae96b2"),
        ("energy-denominator6",
         "45294bd002b287e7a286b4f1c9b4469d9ba3f5d8e272a7b0e189ec380737c136"),
    ],
)
def test_cli_toric_ma_energy_golden_stdout(tmp_path, case, digest, capsys):
    # sha256 of the stdout of the two commands that run the subdivision kernel
    # end to end, pinned before its predicates ran on integers (the CSV
    # digests recorded again when their cells became rational strings)
    command, documents, options = MA_ENERGY_GOLDEN[case]
    assert _run_documents(tmp_path, command, documents, options) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


def _pieces(pairs):
    return {"pieces": [{"slope": s, "intercept": c} for s, c in pairs]}


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
PRUNED_GOLDEN = {
    "envelope-square": ("envelope", {"delta": SQUARE_JSON, "g": PRUNED_SQUARE}, ()),
    "ma-square": ("toric-ma", {"delta": SQUARE_JSON, "g": PRUNED_SQUARE}, ()),
    "envelope-interval-csv": ("envelope", {"delta": INTERVAL_JSON,
                                           "g": PRUNED_INTERVAL}, CSV),
}


@pytest.mark.parametrize(
    "case, digest",
    [
        ("envelope-square",
         "616e4de2a0786a03f48975cd7674e3d937ce60f91dfe212d661f67f2964ed516"),
        ("ma-square",
         "37da3319ff56c30f86aa7ff518f06f7187c45cff09fd01399fad150bf6aa2aab"),
        ("envelope-interval-csv",
         "73e83d3f522006cdf457d92ab3f73d3ac6e63d5cd5056c02170ca23d6a14d46c"),
    ],
)
def test_cli_pruned_obstacle_golden_stdout(tmp_path, case, digest, capsys):
    # sha256 of the stdout on loaded functions that prune, pinned while
    # pruning was a flag of from_pieces and its walk was thrown away; the
    # 1-D CSV digest was recorded again when its rows became the pieces
    command, documents, options = PRUNED_GOLDEN[case]
    assert _run_documents(tmp_path, command, documents, options) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


@pytest.mark.parametrize(
    "command, documents, walks",
    [
        ("toric-ma", {"delta": SQUARE_JSON, "g": PARABOLOID_16}, 1),
        ("toric-energy", {"delta": SQUARE_JSON, "g": DENOMINATOR_6, "g0": PARABOLOID_16}, 2),
        ("envelope", {"delta": SQUARE_JSON, "g": MIN_OF_PARABOLOIDS}, 3),
        ("orthogonality", {"delta": SQUARE_JSON, "g": MIN_OF_PARABOLOIDS}, 4),
    ],
)
def test_cli_one_walk_per_function(tmp_path, command, documents, walks, capsys, monkeypatch):
    # each loaded 2-D function is walked once, when it is built, and the
    # command reads that walk; envelope adds one walk of the sample function
    # and orthogonality one more of the envelope
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
    documents = {"delta": INTERVAL_JSON, "g": PRUNED_INTERVAL}
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
    omega0 = {"atoms": [{"point": p, "mass": m} for p, m in omega0]}
    psi = json.loads(serialize.graph_function_to_json(psi))
    return {"graph": graph, "omega0": omega0, "g": psi}


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
    ),    # 5 vertices, a loop and a cycle: psi is subharmonic, its own envelope,
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


@pytest.mark.parametrize(
    "command, case, options, digest",
    [
        ("envelope", "v8", (),
         "467fdec3c2fddeb8f50a2bcab7203a7540ee437ae1255d1740792efa093a3831"),
        ("envelope", "v8", CSV,
         "2a0bfab4c39e6b8629ebd6213be62e20285be108076f284db626f1eac32d04fa"),
        ("envelope", "v14", (),
         "9174c7975d03a587900c3b8fc5681d80b05b8df24f205c8e855ede00a4924924"),
        ("envelope", "v14", CSV,
         "a9b8f1a7656ae8756d9a82694603ce2dbde19b21ad83fba9e49cb6f77b590399"),
        ("orthogonality", "v8", (),
         "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
        ("orthogonality", "v8", CSV,
         "b9c8d4321386a49f2ade74a443892e6a56598dc895fbeb7bbda8d8424111a7a6"),
        ("orthogonality", "v14", (),
         "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
        ("orthogonality", "v14", CSV,
         "b9c8d4321386a49f2ade74a443892e6a56598dc895fbeb7bbda8d8424111a7a6"),
        ("envelope", "subharmonic", (),
         "d72813608d6ff93d8decd9f47d71de129be7c915264765675da2cd7a4cfeac83"),
        ("envelope", "subharmonic", CSV,
         "86a22d7cad6489218d9b25f4535524f65881f74fe2444d00788c3465e60ede82"),
        ("orthogonality", "subharmonic", (),
         "add2b93667012707d6bddae503e94a2fed54761f85e9948c2a1db2c2da3cedc5"),
        ("orthogonality", "subharmonic", CSV,
         "b9c8d4321386a49f2ade74a443892e6a56598dc895fbeb7bbda8d8424111a7a6"),
    ],
)
def test_cli_curve_envelope_golden_stdout(tmp_path, command, case, options, digest, capsys):
    # sha256 of the stdout of the graph obstacle problem, pinned while every
    # Howard step was an exact solve from the contact set of all nodes; the
    # subharmonic case while a test of psi ahead of Howard returned psi (the
    # CSV digests recorded again when their cells became rational strings)
    assert _run_documents(tmp_path, command, CURVE_GOLDEN[case], options) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


def test_cli_envelope_and_orthogonality(tmp_path, capsys):
    delta = interval(-1, 1)
    d = write(tmp_path, "delta.json", json.loads(serialize.polytope_to_json(delta)))
    obstacle = write(
        tmp_path,
        "obs.json",
        {
            "min_of": [
                {"pieces": [{"slope": ["-1"], "intercept": "-1"}, {"slope": ["1"], "intercept": "1"}]},
                {"pieces": [{"slope": ["-1"], "intercept": "1"}, {"slope": ["1"], "intercept": "-1"}]},
            ]
        },
    )
    assert cli.run(["orthogonality", "--delta", d, "--g", obstacle]) == 0
    assert json.loads(capsys.readouterr().out)["defect"] == "0"
    assert cli.run(["envelope", "--delta", d, "--g", obstacle]) == 0
    json.loads(capsys.readouterr().out)
    # both contexts or neither: usage error
    assert cli.run(["envelope", "--g", obstacle]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["envelope", "orthogonality"])
def test_cli_envelope_slope_range_exit_2(tmp_path, command, capsys):
    # psi = max(u/4 - 1, 3u/4 - 4/3) has slopes in [1/4, 3/4], not all of
    # delta = [0, 1], so psi - h_delta is unbounded below; an envelope read
    # off its conjugate samples was max(-5/6, u - 3/2), above psi(0) = -1
    psi = {"min_of": [{"pieces": [{"slope": ["1/4"], "intercept": "1"},
                                  {"slope": ["3/4"], "intercept": "4/3"}]}]}
    documents = {"delta": INTERVAL_JSON, "g": psi}
    assert _run_documents(tmp_path, command, documents) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {
        "type": "EnvelopeError", "message": "obstacle decays below the admissible slope range"}}


@pytest.mark.parametrize("delta", [INTERVAL_JSON, {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}])
@pytest.mark.parametrize("command", ["envelope", "orthogonality"])
def test_cli_empty_min_of_exit_2(tmp_path, command, delta, capsys):
    # the obstacle is loaded through MinOfConvex.build, so an empty min_of
    # names the input, not the empty sample set of a later step
    documents = {"delta": delta, "g": {"min_of": []}}
    assert _run_documents(tmp_path, command, documents) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {"type": "ValueError", "message": "need at least one function"}}


@pytest.mark.parametrize("spelling", ["convex", "min-of"])
@pytest.mark.parametrize("command", ["envelope", "orthogonality"])
def test_cli_convex_obstacle_slope_range_exit_2(tmp_path, command, spelling, capsys):
    # psi = u/2 has its one slope in delta = [0, 1] but not delta in its slope
    # hull: psi - h_delta is unbounded below whether psi comes as a convex
    # function or as a min of one, and envelope once printed psi for the first
    psi = {"pieces": [{"slope": ["1/2"], "intercept": "0"}]}
    if spelling == "min-of":
        psi = {"min_of": [psi]}
    documents = {"delta": INTERVAL_JSON, "g": psi}
    assert _run_documents(tmp_path, command, documents) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {
        "type": "EnvelopeError", "message": "obstacle decays below the admissible slope range"}}


def test_cli_output_file(tmp_path, toric_files):
    d, g = toric_files
    out = tmp_path / "result.json"
    assert cli.run(["toric-ma", "--delta", d, "--g", g, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["degree"] == "2"


@pytest.mark.parametrize("command, options", [("toric-ma", ()), ("toric-ma", CSV), ("selftest", ())])
@pytest.mark.parametrize("unwritable, reason", [
    ("missing/x.json", "No such file or directory"), (".", "Is a directory")])
def test_cli_unwritable_output_exit_2(tmp_path, capsys, command, options, unwritable, reason):
    # an --output path that cannot be written is invalid input, like an
    # input path that cannot be read: exit 2, the error object on stderr
    # and nothing on stdout
    documents = VALID_DOCUMENTS.get(command, {})
    path = str(tmp_path / unwritable)
    assert _run_documents(tmp_path, command, documents, [*options, "--output", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {"type": "SchemaError", "message": f"{path}: {reason}"}}


def test_cli_selftest(capsys):
    assert cli.run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_cli_selftest_output_file(tmp_path, capsys):
    out = tmp_path / "selftest.txt"
    assert cli.run(["selftest", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.run(["selftest"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_cli_start_does_not_import_numpy():
    # the package is standard library only; a fresh interpreter shows it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, plma.cli; plma.cli.build_parser(); print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_envelope_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    # An exact pass with no complementary iterate in its len(nodes) + 1
    # solves is a solver failure: exit 3, not a validation error.
    g = circle_graph()
    om = GraphMeasure.from_atoms(g, [(vertex_key(0), Fraction(2))])
    psi = GraphPLFunction.build(
        g, [((Fraction(0), Fraction(0)), (Fraction(1, 4), Fraction(-1, 2)), (Fraction(1), Fraction(0)))]
    )
    graph = write(tmp_path, "graph.json", json.loads(serialize.graph_to_json(g)))
    omega0 = write(tmp_path, "om.json", json.loads(serialize.graph_measure_to_json(om)))
    obstacle = write(tmp_path, "psi.json", json.loads(serialize.graph_function_to_json(psi)))
    argv = ["envelope", "--g", obstacle, "--graph", graph, "--omega0", omega0]
    assert cli.run(argv) == 0
    capsys.readouterr()
    howard = variational._howard

    def above_the_obstacle(form, contact):
        # each iterate lifted by 1, above psi on its nonempty contact set
        for X, Dx, S, contact in howard(form, contact):
            yield [xk + Dx for xk in X], Dx, S, contact

    monkeypatch.setattr(variational, "_howard", above_the_obstacle)
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"type": "ConvergenceError", "message": "obstacle solve did not stabilize"}


def test_cli_curve_solve_past_the_lift_bound_exit_code(tmp_path, capsys, monkeypatch):
    # a p-adic solve whose reconstruction never succeeds stops at its lift
    # bound with ConvergenceError: exit 3, as for any solve that fails
    documents = {
        "graph": {"vertices": [0, 1], "edges": [{"ends": [0, 1], "length": "1"},
                                                {"ends": [1, 1], "length": "2"}]},
        "omega0": {"atoms": [{"point": {"vertex": 0}, "mass": "1"},
                             {"point": {"edge": 1, "offset": "1"}, "mass": "1"}]},
        "mu": {"atoms": [{"point": {"edge": 0, "offset": "1/3"}, "mass": "3/2"},
                         {"point": {"vertex": 1}, "mass": "1/2"}]},
    }
    assert _run_documents(tmp_path, "curve-solve", documents) == 0
    capsys.readouterr()
    monkeypatch.setattr(curves, "_reconstruct", lambda X, free, modulus: None)
    assert _run_documents(tmp_path, "curve-solve", documents) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {
        "type": "ConvergenceError", "message": "p-adic solve passed its lift bound unreconstructed"}}


@pytest.mark.parametrize("fmt", [(), CSV])
@pytest.mark.parametrize("command", ["envelope", "orthogonality"])
def test_cli_empty_delta_path_exit_2(tmp_path, command, fmt, capsys):
    # --delta "" is given, so the toric model is chosen and its empty path
    # is an input file that cannot be read; it once went to the curve model,
    # which opened --graph None
    g = write(tmp_path, "g.json", MIN_OF_PARABOLOIDS)
    assert cli.run([command, "--delta", "", "--g", g, *fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {
        "type": "SchemaError", "message": ": No such file or directory"}}


@pytest.mark.parametrize("delta, points", [
    (SQUARE_JSON, [["1/2", "1/2"], ["0"]]),  # mixed atoms
    (SQUARE_JSON, [["0"], ["1"]]),  # 1-D atoms on a square
    (INTERVAL_JSON, [["1/2"], ["0", "1"]]),  # mixed atoms
    (INTERVAL_JSON, [["0", "0"], ["1", "1"]]),  # 2-D atoms on an interval
], ids=["square-mixed", "square-1d", "interval-mixed", "interval-2d"])
@pytest.mark.parametrize("fmt", [(), CSV])
def test_cli_toric_solve_atom_dimension_exit_2(tmp_path, delta, points, fmt, capsys):
    # the masses add up to n! Vol(delta), so only the dimensions are wrong;
    # a 1-D atom on the square once raised IndexError in the Voronoi start
    n = len(delta["vertices"][0])
    mass = str(Fraction(math.factorial(n), n * len(points)))
    mu = {"atoms": [{"point": p, "mass": mass} for p in points]}
    assert _run_documents(tmp_path, "toric-solve", {"delta": delta, "mu": mu}, fmt) == 2
    out, err = capsys.readouterr()
    assert out == ""
    message = ("atoms of mixed dimension" if len({len(p) for p in points}) > 1
               else "target atoms and polytope differ in dimension")
    assert json.loads(err) == {"error": {"type": "DimensionError", "message": message}}


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
V8_CONTEXT = {"graph": CURVE_GOLDEN["v8"]["graph"], "omega0": CURVE_GOLDEN["v8"]["omega0"]}
CSV_TABLE = {
    "toric-ma-square": ("toric-ma", {"delta": SQUARE_JSON, "g": DENOMINATOR_6}, ()),
    "toric-ma-interval": ("toric-ma", {"delta": INTERVAL_JSON, "g": PRUNED_INTERVAL}, ()),
    "toric-solve-unsnapped": TORIC_GOLDEN["square-a12-unsnapped"] + ((),),
    "toric-solve-interval": TORIC_GOLDEN["interval-a3"] + ((),),
    "toric-solve-no-convergence": ("toric-solve", {"delta": SQUARE_JSON, "mu": THREE_ATOMS},
                                   ("--max-iter", "1")),
    "toric-energy": MA_ENERGY_GOLDEN["energy-denominator6"],
    "envelope-square": TORIC_GOLDEN["envelope-min-of"] + ((),),
    "envelope-interval": ("envelope", {"delta": INTERVAL_JSON, "g": PRUNED_INTERVAL}, ()),
    "envelope-graph": ("envelope", CURVE_GOLDEN["v8"], ()),
    "orthogonality-square": TORIC_GOLDEN["orthogonality-min-of"] + ((),),
    "orthogonality-graph": ("orthogonality", CURVE_GOLDEN["v14"], ()),
    "curve-solve": ("curve-solve", {**V8_CONTEXT, "mu": {"atoms": [
        {"point": {"vertex": 3}, "mass": "1/2"},
        {"point": {"edge": 2, "offset": "1/3"}, "mass": "3/2"}]}}, ()),
    "curve-green": ("curve-green", {**V8_CONTEXT, "x": {"edge": 4, "offset": "1/2"}}, ()),
    "curve-canonical": ("curve-canonical", {}, ("--m", "3", "--iterations", "3")),
}


@pytest.mark.parametrize("case", list(CSV_TABLE))
def test_cli_csv_cells_are_the_json_strings(tmp_path, case, capsys):
    # every command but selftest writes CSV: it parses as a table, is not a
    # JSON document, and each cell is the string its JSON document holds
    command, documents, options = CSV_TABLE[case]
    code = _run_documents(tmp_path, command, documents, options)
    document = json.loads(capsys.readouterr().out)
    assert _run_documents(tmp_path, command, documents, [*options, *CSV]) == code
    out, err = capsys.readouterr()
    assert err == ""
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    table = list(csv.reader(io.StringIO(out)))
    assert table == CSV_OF_JSON[command](document)
    assert len(table) > 1 and out == "".join(",".join(row) + "\n" for row in table)


def test_cli_energy_empty_g0_path_exit_2(tmp_path, capsys):
    # --g0 "" is given, so it is read as a path that does not exist; it once
    # fell back to the support function without a word
    documents = {"delta": SQUARE_JSON, "g": PARABOLOID_16}
    assert _run_documents(tmp_path, "toric-energy", documents, ["--g0", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {
        "type": "SchemaError", "message": ": No such file or directory"}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_selftest_has_no_format(fmt, capsys):
    # selftest writes one text output, so --format is a usage error, which
    # prints the JSON error object like every other error
    assert cli.run(["selftest", "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {
        "type": "usage", "message": f"unrecognized arguments: --format {fmt}"}}


@pytest.mark.parametrize("argv, message", [
    (["toric-ma", "--delta", "d.json"], "the following arguments are required: --g"),
    (["toric-ma", "--delta", "d.json", "--g", "g.json", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["envelope", "--g", "g.json"], "give either --delta or --graph with --omega0"),
])
def test_cli_usage_errors_print_the_error_object(argv, message, capsys):
    # argparse's errors take the one usage path of the context check: exit
    # 2, nothing on stdout, the JSON error object on stderr.  The list of
    # choices after an invalid one is worded differently across Python
    # versions, so only the start of that message is pinned
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps(json.loads(err), indent=2, sort_keys=True) + "\n"
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and error["message"].startswith(message)
