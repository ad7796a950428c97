"""Command-line interface.

Inputs and outputs are the JSON files described in serialize; every
command writes to standard output (or --output) deterministically, so
identical inputs give byte-identical results.  Every command but selftest
also writes CSV (--format csv): a header line, then one row per atom,
piece, residual entry or graph breakpoint, each number the rational
string "p/q" (or "p") that the JSON document carries for it.  Exit codes:
0 success, 1 a selftest check printed FAIL, 2 usage or validation error,
3 solver non-convergence.  Every error, a usage error that argparse finds
included, prints the one machine-readable error object on stderr and
nothing on stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
from fractions import Fraction
from math import factorial

from . import curves, serialize, toric, variational
from .geometry import (
    AffineFunctional, PLConvexFunction, Polytope, support_function, without_digit_limit)
from .serialize import SchemaError, json_object, json_string
from .solver import ConvergenceError, solve_curve, solve_toric


def _emit(text: str, output) -> None:
    """Write the document to the --output path, or else to stdout.  A path
    that cannot be written is invalid input, like one that cannot be read
    (`serialize.load_path`)."""
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"{output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _error(kind: str, message: str) -> None:
    fields = {"type": json_string(kind), "message": json_string(message)}
    print(json_object({"error": json_object(fields)}), file=sys.stderr)


def _output(args, document, header, rows) -> None:
    """Write a command's result: the text of document() under --format
    json, the header and the rows of rows() under --format csv, so that
    each is built only for its format.  A CSV cell is str of its value, so
    a Fraction prints as the string the JSON document holds.  The text is
    built without the int digit limit (without_digit_limit), which guards
    reading only: a result may have more digits than plma reads back."""

    def text():
        if args.format == "csv":
            return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows()])
        return document() + "\n"

    _emit(without_digit_limit(text), args.output)


def _point_rows(pairs, *label):
    """Rows (label..., x1, x2, value) of (point, value) pairs: atoms,
    residual entries, or the slopes and intercepts of pieces.  x2 is empty
    for a 1-D point."""
    return ([*label, *p, *[""] * (2 - len(p)), value] for p, value in pairs)


def _write_graph_function(args, f) -> None:
    _output(args, lambda: serialize.graph_function_to_json(f), ["edge", "offset", "value"],
            lambda: ([e, o, y] for e, pairs in enumerate(f.edge_values) for o, y in pairs))


def _write_value(args, name, value) -> None:
    _output(args, lambda: json_object({name: '"%s"' % value}), [name], lambda: [[value]])


def _load_obstacle_toric(obj):
    if isinstance(obj, dict) and "min_of" in obj:
        if not isinstance(obj["min_of"], list):
            raise SchemaError('obstacle must be {"min_of": [function, ...]}')
        return variational.MinOfConvex.build(
            serialize.pl_function_from_json(item) for item in obj["min_of"])
    return serialize.pl_function_from_json(obj)


def _curve_context(args):
    graph = serialize.graph_from_json(serialize.load_path(args.graph))
    omega0 = serialize.graph_measure_from_json(serialize.load_path(args.omega0), graph)
    return graph, omega0


def _obstacle_and_context(args):
    """(psi, context) of envelope and orthogonality: --delta alone (an
    empty path included) selects the toric model, whose context is the
    polytope, and --graph with --omega0 the curve model, whose context is
    (graph, omega0).  Any other choice of the three flags, a curve flag
    beside --delta included, is a usage error."""
    # --graph and --omega0 are both absent exactly when --delta is given
    if (args.graph is None, args.omega0 is None) != (args.delta is not None,) * 2:
        _parser().error("give either --delta or --graph with --omega0")
    if args.delta is not None:
        delta = serialize.polytope_from_json(serialize.load_path(args.delta))
        return _load_obstacle_toric(serialize.load_path(args.g)), delta
    graph, omega0 = _curve_context(args)
    psi = serialize.graph_function_from_json(serialize.load_path(args.g), graph)
    return psi, (graph, omega0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_toric_ma(args):
    delta = serialize.polytope_from_json(serialize.load_path(args.delta))
    g = serialize.pl_function_from_json(serialize.load_path(args.g))
    result = toric.ma_measure(g, delta)
    _output(args, lambda: serialize.toric_ma_result_to_json(result), ["side", "x1", "x2", "mass"],
            lambda: itertools.chain(
                _point_rows(result.measure_NR.atoms, "real"),
                _point_rows(((mp.v, m) for mp, m in result.measure_an), "berkovich")))
    return 0


def cmd_toric_solve(args):
    delta = serialize.polytope_from_json(serialize.load_path(args.delta))
    mu = serialize.measure_from_json(serialize.load_path(args.mu))
    # inputs carry Berkovich mass n! Vol; the solver works in the real scale
    nu = mu.scale(Fraction(1, factorial(delta.dim)))
    report = solve_toric(delta, nu)
    _output(args, lambda: serialize.solve_report_to_json(report), ["part", "x1", "x2", "value"],
            lambda: itertools.chain(
                _point_rows(((f.slope, f.intercept) for f in report.solution.pieces), "solution"),
                _point_rows(report.residual, "residual")))
    return 0 if report.converged else 3


def cmd_toric_energy(args):
    delta = serialize.polytope_from_json(serialize.load_path(args.delta))
    g = serialize.pl_function_from_json(serialize.load_path(args.g))
    g0 = (support_function(delta) if args.g0 is None
          else serialize.pl_function_from_json(serialize.load_path(args.g0)))
    _write_value(args, "energy", variational.energy_toric(g, g0, delta))
    return 0


def cmd_envelope(args):
    psi, context = _obstacle_and_context(args)
    env = variational.envelope_P(psi, context)
    if isinstance(context, Polytope):
        _output(args, lambda: serialize.pl_function_to_json(env), ["s1", "s2", "intercept"],
                lambda: _point_rows((f.slope, f.intercept) for f in env.pieces))
    else:
        _write_graph_function(args, env)
    return 0


def cmd_orthogonality(args):
    _write_value(args, "defect", variational.orthogonality_defect(*_obstacle_and_context(args)))
    return 0


def cmd_curve_solve(args):
    graph, omega0 = _curve_context(args)
    mu = serialize.graph_measure_from_json(serialize.load_path(args.mu), graph)
    _write_graph_function(args, solve_curve(graph, mu, omega0))
    return 0


def cmd_curve_green(args):
    graph, omega0 = _curve_context(args)
    x = serialize.graph_point_from_json(serialize.load_path(args.x))
    _write_graph_function(args, curves.green(graph, x, omega0))
    return 0


def cmd_curve_canonical(args):
    form = curves.canonical_form(args.m, args.iterations)
    _output(args, lambda: serialize.canonical_metric_to_json(form),
            ["arc_start", "arc_end", "mass"], lambda: serialize.canonical_metric_rows(form))
    return 0


def cmd_selftest(args):
    """Three seeded checks, ten draws each, one PASS or FAIL line per check.
    Each check draws all ten inputs before it checks them, so the draws
    never depend on a result."""
    rng = random.Random(20240)
    square = Polytope.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])

    def convex():
        return PLConvexFunction.from_pieces(
            [AffineFunctional(v, Fraction(rng.randint(-6, 6), 3)) for v in square.vertices])

    def triangle():
        return curves.MetricGraph.build([0, 1, 2], [
            (0, 1, Fraction(rng.randint(1, 4))), (1, 2, Fraction(rng.randint(1, 4))),
            (2, 0, Fraction(rng.randint(1, 4)))])

    def green_symmetric(graph):
        omega0 = curves.GraphMeasure.from_atoms(graph, [(("v", 0), Fraction(1))])
        x, y = ("e", 0, Fraction(1, 3)), ("e", 1, Fraction(1, 2))
        return curves.green_value(graph, x, y, omega0) == curves.green_value(graph, y, x, omega0)

    checks = [
        ("toric mass identity", convex,
         lambda g: toric.ma_measure(g, square).measure_NR.total_mass() == square.volume()),
        ("toric orthogonality", convex, lambda g: variational.orthogonality_defect_toric(
            variational.MinOfConvex((g, support_function(square))), square) == 0),
        ("curve Green symmetry", triangle, green_symmetric),
    ]
    passed = [all(map(check, [draw() for _ in range(10)])) for _, draw, check in checks]
    _emit("".join(f"{'PASS' if ok else 'FAIL'} {name}\n"
                  for ok, (name, _, _) in zip(passed, checks)), args.output)
    return 0 if all(passed) else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise argparse.ArgumentError, which
    `run` prints as the JSON error object of type "usage", not as argparse's
    usage text.  build_parser's parser maps each command to its subparser
    in `commands`."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plma",
        description="Piecewise-linear Monge-Ampere equations on polytopes and metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kw)
        p.add_argument("--output")
        p.set_defaults(fn=fn)

    req = {"required": True}
    # every command but selftest, whose one output is text, writes JSON or CSV
    fmt = {"format": {"choices": ["json", "csv"], "default": "json"}}
    add("toric-ma", cmd_toric_ma, delta=req, g=req, **fmt)
    add("toric-solve", cmd_toric_solve, delta=req, mu=req, **fmt)
    add("toric-energy", cmd_toric_energy, delta=req, g=req, g0={}, **fmt)
    add("envelope", cmd_envelope, delta={}, g=req, graph={}, omega0={}, **fmt)
    add("orthogonality", cmd_orthogonality, delta={}, g=req, graph={}, omega0={}, **fmt)
    add("curve-solve", cmd_curve_solve, graph=req, mu=req, omega0=req, **fmt)
    add("curve-green", cmd_curve_green, graph=req, x=req, omega0=req, **fmt)
    add(
        "curve-canonical",
        cmd_curve_canonical,
        m={"type": int, "required": True},
        iterations={"type": int, "required": True},
        **fmt,
    )
    add("selftest", cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import; no argument has a mutable default
    return build_parser()


def run(argv) -> int:
    # a usage error is an ArgumentError (exit 2), every invalid-input error
    # subclasses ValueError (exit 2), and ConvergenceError, a RuntimeError,
    # is non-convergence (exit 3).  An argv that starts with a command goes
    # straight to its subparser, which parses the rest as the full parser
    # would, in less than half the time; any other argv takes the full one
    try:
        parser = _parser()
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.fn(args)
    except (argparse.ArgumentError, ValueError, ConvergenceError) as exc:
        usage = isinstance(exc, argparse.ArgumentError)
        _error("usage" if usage else type(exc).__name__, str(exc))
        return 3 if isinstance(exc, ConvergenceError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
