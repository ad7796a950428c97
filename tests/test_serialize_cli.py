import argparse
import csv
import hashlib
import io
import json
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
    # the result, or the SchemaError text, must be Fraction(s)'s, except
    # that an exponent beyond the int digit limit in magnitude is rejected
    # before Fraction computes 10 to that power
    limit = sys.get_int_max_str_digits()

    def reference(s):
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            return f"expected a rational string, got {s!r}"
        _, e, exponent = s.lower().rpartition("e") if isinstance(s, str) else ("", "", "")
        if e and exponent.strip().lstrip("+-").isdigit() and abs(int(exponent)) > limit:
            return f"bad rational {s!r}: exponent beyond the limit of {limit} in magnitude"
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
        f = f.scale(_rational(rng)) + GraphPLFunction.constant(g, _rational(rng))
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


@pytest.mark.parametrize(
    "command, documents, walks",
    [
        ("toric-ma", {"delta": SQUARE, "g": PARABOLOID_16}, 1),
        ("toric-energy", {"delta": SQUARE, "g": DENOMINATOR_6, "g0": PARABOLOID_16}, 2),
        ("envelope", {"delta": SQUARE, "g": MIN_OF_PARABOLOIDS}, 3),
        ("orthogonality", {"delta": SQUARE, "g": MIN_OF_PARABOLOIDS}, 4),
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
    "test_cli_toric_solve_three_atoms_exit_codes[options0-3]",
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
