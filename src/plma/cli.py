"""Command-line interface.

Inputs and outputs are the JSON files described in serialize; every
command writes to standard output (or --output) deterministically, so
identical inputs give byte-identical results.  Exit codes: 0 success,
2 validation error (with a machine-readable error object), 3 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from math import factorial

from . import curves, serialize, toric, variational
from .geometry import DiscreteMeasure, Polytope, breakpoints, support_function
from .serialize import SchemaError, json_array, json_object, json_string
from .solver import ConvergenceError, SolverOptions, solve_curve, solve_toric


def _dec(x) -> str:
    return f"{float(x):.12g}"


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


def _csv(rows) -> str:
    return "".join(",".join(str(c) for c in row) + "\n" for row in rows)


def _measure_rows(mu, label):
    rows = []
    for p, m in mu.atoms:
        coords = [_dec(c) for c in p] + [""] * (2 - len(p))
        rows.append([label, *coords, _dec(m), "exact"])
    return rows


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
    """(psi, context) of envelope and orthogonality.  --delta, whenever
    given (an empty path included), selects the toric model, whose context
    is the polytope; otherwise the context is (graph, omega0)."""
    if args.delta is not None:
        delta = serialize.polytope_from_json(serialize.load_path(args.delta))
        return _load_obstacle_toric(serialize.load_path(args.g)), delta
    graph, omega0 = _curve_context(args)
    psi = serialize.graph_function_from_json(serialize.load_path(args.g), graph)
    return psi, (graph, omega0)


def _sample_rows_1d(g):
    # g lives on N_R: sample one unit beyond its first and last breakpoints,
    # or around 0 when g is affine, where PiecewiseLinear1D.from_convex puts
    # its one point
    ts = sorted(v[0] for v in breakpoints(g)) or [Fraction(0)]
    lo, hi = ts[0] - 1, ts[-1] + 1
    ts = set(ts) | {lo + Fraction(j, 64) * (hi - lo) for j in range(65)}
    return [[_dec(t), _dec(g((t,))), "exact"] for t in sorted(ts)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_toric_ma(args):
    delta = serialize.polytope_from_json(serialize.load_path(args.delta))
    g = serialize.pl_function_from_json(serialize.load_path(args.g))
    result = toric.ma_measure(g, delta)
    if args.format == "csv":
        rows = [["side", "x1", "x2", "mass", "exactness"]]
        rows += _measure_rows(result.measure_NR, "real")
        berk = DiscreteMeasure.from_atoms([(mp.v, m) for mp, m in result.measure_an])
        rows += _measure_rows(berk, "berkovich")
        _emit(_csv(rows), args.output)
    else:
        _emit(serialize.toric_ma_result_to_json(result) + "\n", args.output)
    return 0


def cmd_toric_solve(args):
    delta = serialize.polytope_from_json(serialize.load_path(args.delta))
    mu = serialize.measure_from_json(serialize.load_path(args.mu))
    # inputs carry Berkovich mass n! Vol; the solver works in the real scale
    nu = mu.scale(Fraction(1, factorial(delta.dim)))
    opts = SolverOptions(tolerance=args.tol, max_iterations=args.max_iter)
    report = solve_toric(delta, nu, opts)
    if args.format == "csv":
        rows = [["x1", "x2", "error", "exactness"]]
        for p, e in report.residual:
            coords = [_dec(c) for c in p] + [""] * (2 - len(p))
            rows.append([*coords, _dec(e), "exact"])
        _emit(_csv(rows), args.output)
    else:
        _emit(serialize.solve_report_to_json(report) + "\n", args.output)
    return 0 if report.converged else 3


def cmd_toric_energy(args):
    delta = serialize.polytope_from_json(serialize.load_path(args.delta))
    g = serialize.pl_function_from_json(serialize.load_path(args.g))
    if args.g0:
        g0 = serialize.pl_function_from_json(serialize.load_path(args.g0))
    else:
        g0 = support_function(delta)
    value = variational.energy_toric(g, g0, delta)
    if args.format == "csv":
        _emit(_csv([["energy", "exactness"], [_dec(value), "exact"]]), args.output)
    else:
        _emit(json_object({"energy": '"%s"' % value}) + "\n", args.output)
    return 0


def cmd_envelope(args):
    psi, context = _obstacle_and_context(args)
    env = variational.envelope_P(psi, context)
    if isinstance(context, Polytope):
        if args.format == "csv" and context.dim == 1:
            text = _csv([["t", "value", "exactness"], *_sample_rows_1d(env)])
        else:
            text = serialize.pl_function_to_json(env) + "\n"
    elif args.format == "csv":
        rows = [["edge", "offset", "value", "exactness"]]
        for e, pairs in enumerate(env.edge_values):
            rows += [[e, _dec(o), _dec(y), "exact"] for o, y in pairs]
        text = _csv(rows)
    else:
        text = serialize.graph_function_to_json(env) + "\n"
    _emit(text, args.output)
    return 0


def cmd_orthogonality(args):
    defect = variational.orthogonality_defect(*_obstacle_and_context(args))
    if args.format == "csv":
        _emit(_csv([["defect", "exactness"], [_dec(defect), "exact"]]), args.output)
    else:
        _emit(json_object({"defect": '"%s"' % defect}) + "\n", args.output)
    return 0


def cmd_curve_solve(args):
    graph, omega0 = _curve_context(args)
    mu = serialize.graph_measure_from_json(serialize.load_path(args.mu), graph)
    phi = solve_curve(graph, mu, omega0)
    _emit(serialize.graph_function_to_json(phi) + "\n", args.output)
    return 0


def cmd_curve_green(args):
    graph, omega0 = _curve_context(args)
    x = serialize.graph_point_from_json(serialize.load_path(args.x))
    phi = curves.green(graph, x, omega0)
    _emit(serialize.graph_function_to_json(phi) + "\n", args.output)
    return 0


def cmd_curve_canonical(args):
    potential, measure = curves.canonical_metric(args.m, args.iterations)
    parts = args.m**args.iterations
    masses = curves.arc_masses(measure, parts)
    if args.format == "csv":
        rows = [["arc_start", "arc_end", "mass", "exactness"]]
        for j, mass in enumerate(masses):
            rows.append(
                [_dec(Fraction(j, parts)), _dec(Fraction(j + 1, parts)), _dec(mass), "exact"]
            )
        _emit(_csv(rows), args.output)
    else:
        document = json_object({
            "potential": serialize.graph_function_to_json(potential),
            "measure": serialize.graph_measure_to_json(measure),
            "arc_masses": json_array(['"%s"' % m for m in masses]),
        })
        _emit(document + "\n", args.output)
    return 0


def cmd_selftest(args):
    from .geometry import AffineFunctional, PLConvexFunction

    rng = random.Random(20240)
    lines = []

    def report(name, passed):
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}\n")

    square = Polytope.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    passed = True
    for _ in range(10):
        pieces = [AffineFunctional(v, Fraction(rng.randint(-6, 6), 3)) for v in square.vertices]
        g = PLConvexFunction.from_pieces(pieces)
        res = toric.ma_measure(g, square)
        passed = passed and res.measure_NR.total_mass() == square.volume()
    report("toric mass identity", passed)

    passed = True
    for _ in range(10):
        pieces = [AffineFunctional(v, Fraction(rng.randint(-6, 6), 3)) for v in square.vertices]
        parts = (PLConvexFunction.from_pieces(pieces), support_function(square))
        psi = variational.MinOfConvex(parts)
        passed = passed and variational.orthogonality_defect_toric(psi, square) == 0
    report("toric orthogonality", passed)

    passed = True
    for _ in range(10):
        graph = curves.MetricGraph.build(
            [0, 1, 2],
            [(0, 1, Fraction(rng.randint(1, 4))), (1, 2, Fraction(rng.randint(1, 4))),
             (2, 0, Fraction(rng.randint(1, 4)))],
        )
        omega0 = curves.GraphMeasure.from_atoms(graph, [(("v", 0), Fraction(1))])
        x = ("e", 0, Fraction(1, 3))
        y = ("e", 1, Fraction(1, 2))
        passed = passed and curves.green_value(graph, x, y, omega0) == curves.green_value(
            graph, y, x, omega0
        )
    report("curve Green symmetry", passed)

    _emit("".join(lines), args.output)
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plma",
        description="Piecewise-linear Monge-Ampere equations on polytopes and metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kw)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output")
        p.set_defaults(fn=fn)
        return p

    req = {"required": True}
    add("toric-ma", cmd_toric_ma, delta=req, g=req)
    add(
        "toric-solve",
        cmd_toric_solve,
        delta=req,
        mu=req,
        tol={"type": float, "default": 1e-10},
        max_iter={"type": int, "default": 200},
    )
    add("toric-energy", cmd_toric_energy, delta=req, g=req, g0={})
    add("envelope", cmd_envelope, delta={}, g=req, graph={}, omega0={})
    add("orthogonality", cmd_orthogonality, delta={}, g=req, graph={}, omega0={})
    add("curve-solve", cmd_curve_solve, graph=req, mu=req, omega0=req)
    add("curve-green", cmd_curve_green, graph=req, x=req, omega0=req)
    add(
        "curve-canonical",
        cmd_curve_canonical,
        m={"type": int, "required": True},
        iterations={"type": int, "required": True},
    )
    add("selftest", cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import; no argument has a mutable default
    return build_parser()


def run(argv) -> int:
    args = _parser().parse_args(argv)
    if args.fn in (cmd_envelope, cmd_orthogonality):
        toric_mode = args.delta is not None
        curve_mode = args.graph is not None and args.omega0 is not None
        if toric_mode == curve_mode:
            _error("usage", "give either --delta or --graph with --omega0")
            return 2
    # every invalid-input error subclasses ValueError (exit 2), and
    # ConvergenceError, a RuntimeError, is non-convergence (exit 3)
    try:
        return args.fn(args)
    except (ValueError, ConvergenceError) as exc:
        _error(type(exc).__name__, str(exc))
        return 3 if isinstance(exc, ConvergenceError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
