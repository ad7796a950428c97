"""The size ladders: the graph commands by graph size, the toric solve by
the number of atoms; the stage split of a benchmark deck; and the start
ladder of spawned interpreters.

Run from the repository root, with the plma to measure on the path:

    PYTHONPATH=src python tests/ladder.py [graph] [walk] [toric]
    PYTHONPATH=src python tests/ladder.py split WORKLOAD
    PYTHONPATH=src python tests/ladder.py start

Naming no set runs all three size ladders.  pytest does not collect this
file.  Each rung's documents are written into a temporary directory, and
each command runs through cli.run there.

The split: the ops of the first SPLIT_ROUNDS rounds of WORKLOAD's seed-1
deck (bench/inputs.py make_deck: 60 toric-solve ops, 72 toric-forward, 80
curve-potential or 78 curve-envelope) run through cli.run, SPLIT_PASSES
passes in one process, each stage timed with time.perf_counter and only
where no other stage is running: the readers (serialize.load_path and
every serialize *_from_json), the float guide (solver._newton and every
float curves.solve_laplacian), the exact stage (solver.dual_transform and
solver.residual, every exact curves.solve_laplacian, and the toric
forward maps toric.ma_measure and variational.energy_toric,
envelope_toric and orthogonality_defect_toric), the writer (every
serialize *_to_json) and argparse (cli's parse_args).  The kernel
geometry.subdivision, the walk, is exact stage too, wherever it runs:
each moment counts to the innermost stage running, so the walk that
prunes a function a reader builds moves its time from the readers to
the exact stage.  It prints
the least time of each stage and of a whole pass over the passes, each
stage's share of that pass, and the rest.

The start ladder: the wall time of spawned interpreters, run one at a
time, round robin over the rows, the least of START_SPAWNS per row.  The
rows are a bare start (`pass`), the stdlib floor (importing STDLIB, the
standard modules that src/plma imports), `import plma.cli`, the same plus
`build_parser()`, and one spawned `plma` command per command family of
the seed-1 decks of bench/inputs.py (make_deck, one round of each
workload), on the family's smallest rung and that task's first argv,
through plma.cli.main as the console script runs it.  Each row runs in
two cache modes, on a copy of the package with no bytecode: "no cache",
with PYTHONDONTWRITEBYTECODE=1, so plma is compiled on every start, and
"warm cache", with the bytecode of every module in a temporary
PYTHONPYCACHEPREFIX that one unmeasured spawn of each row fills.  Each
time is printed with its excess over the bare start of its mode.

The graph set: `envelope --graph` and `curve-solve` at v = 60 to 960, on
BENCH_30.json's recipe, drawn with bench/inputs.py's generators (imported,
not changed) and random.Random(v) at each size v: random_graph(rng, v), a
spanning tree plus v/4 chords; omega0 = reference_measure(rng, graph, 2);
mu = positive_measure(rng, distinct_points(rng, graph, 3), 2); and psi =
dented_obstacle(rng, graph, omega0, 10).

The walk set: `toric-ma` at k = 64, 256, 1 024 and 4 096 on the unit
square, with lattice paraboloids of its own generator: every slope
s = (i/grid, j/grid) of the 1/grid lattice of the square, i and j from 0
to grid = sqrt(k) - 1, in that order, with the intercept
|s|^2/2 + r/(100 grid^2) and r drawn from 0 to 20 by random.Random(k),
slope by slope.  The perturbation, at most 1/(5 grid^2), stays below the
lattice's second difference 1/grid^2 (and below a quarter of it), so
every lifted point is in strictly convex position and all k pieces are
essential; bench/inputs.py's lattice_paraboloid perturbs by up to
2/1 000, which at grid 32 leaves 603 of k = 1 024 pieces.  The row
counts the 2-D walks of geometry._walk: one, the read function's.

The toric set: `toric-solve` at k = 25 to 200 on the generic targets of
ROADMAP's Baseline: the unit square, and uniform masses on k atoms of the
1/17 grid in it, random.Random(k).sample of the grid points (i/17, j/17),
i and j from 0 to 17, in that order.  Their solutions are irrational, so
the snap does not recover them.

For each rung the script prints the CPU seconds (time.process_time, the
least of REPEATS runs) of each command and, for one run of each, the
counts of counting.py, as tests/test_solve_counts.py counts them: the
calls of serialize.parse_rational, of GraphPLFunction.build, of
curves.solve_laplacian by kind (float guide or exact), of geometry._walk,
of solver.residual, of solver._power_cells, the Newton guide's float
cell evaluations, and of solver._clip_polygon, their halfplane clips.  A
toric rung also prints its Newton iterations,
whether the solve converged, whether its snap was checked (two residuals,
or a recovered snap) and the CPU seconds of its exact stage, the calls of
dual_transform and residual that solve_toric makes.  Last comes the
exponent of a least-squares fit of log time on log size for each command.
A rung whose runs take longer than TIMEOUT_S of wall time in all stops
its set there.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from counting import count_calls
from plma import cli, curves, geometry, serialize, solver, toric, variational

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPLIT_ROUNDS = {"toric-solve": 10, "toric-forward": 3, "curve-potential": 10, "curve-envelope": 13}
SPLIT_PASSES = 15
GRAPH_SIZES = (60, 120, 240, 480, 960)
TORIC_SIZES = (25, 50, 100, 200)
WALK_SIZES = (64, 256, 1024, 4096)
REPEATS = 3
TIMEOUT_S = 120
START_SPAWNS = 25
STDLIB = "argparse, bisect, collections, fractions, functools, heapq, itertools, json, math, operator, re"


def graph_documents(inputs, v):
    """The graph, omega0, mu and psi documents of BENCH_30.json's recipe at
    size v."""
    rng = random.Random(v)
    graph = inputs.random_graph(rng, v)
    omega0 = inputs.reference_measure(rng, graph, Fraction(2))
    mu = inputs.positive_measure(rng, inputs.distinct_points(rng, graph, 3), Fraction(2))
    psi = inputs.dented_obstacle(rng, graph, omega0, 10)
    return {"graph": inputs.graph_json(graph), "omega0": inputs.graph_measure_json(omega0),
            "mu": inputs.graph_measure_json(mu), "psi": inputs.graph_function_json(psi)}


def toric_documents(k):
    """The unit square and uniform masses on k points of its 1/17 grid,
    drawn with random.Random(k); the masses are 2/k in the Berkovich
    scale of the command line, 1/k once divided by 2!."""
    grid = [(i, j) for i in range(18) for j in range(18)]
    atoms = random.Random(k).sample(grid, k)
    return {"delta": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
            "mu": {"atoms": [{"point": [f"{i}/17", f"{j}/17"], "mass": str(Fraction(2, k))}
                             for i, j in atoms]}}


def walk_documents(k):
    """The unit square and the lattice paraboloid of k = (grid + 1)^2
    pieces described above."""
    grid, rng = math.isqrt(k) - 1, random.Random(k)
    pieces = [{"slope": [str(Fraction(i, grid)), str(Fraction(j, grid))],
               "intercept": str(Fraction(i * i + j * j, 2 * grid * grid)
                                + Fraction(rng.randint(0, 20), 100 * grid * grid))}
              for i in range(grid + 1) for j in range(grid + 1)]
    return {"delta": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
            "g": {"pieces": pieces}}


ARGV = {
    "toric-ma": ["toric-ma", "--delta", "delta.json", "--g", "g.json"],
    "envelope": ["envelope", "--graph", "graph.json", "--omega0", "omega0.json", "--g", "psi.json"],
    "curve-solve": ["curve-solve", "--graph", "graph.json", "--mu", "mu.json",
                    "--omega0", "omega0.json"],
    "toric-solve": ["toric-solve", "--delta", "delta.json", "--mu", "mu.json"],
}


def run(argv):
    """stdout of the command; exit 3, an unconverged toric solve, is a
    result too."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code not in (0, 3):
        raise RuntimeError(f"{argv[0]} exited {code}")
    return out.getvalue()


def exact_stage(setattr):
    """Wrap the dual_transform and residual of solver with `setattr`;
    return the list whose one entry sums their CPU seconds from now on."""
    spent = [0.0]

    def timed(fn):
        def wrapper(*args):
            start = time.process_time()
            try:
                return fn(*args)
            finally:
                spent[0] += time.process_time() - start
        return wrapper

    setattr(solver, "dual_transform", timed(solver.dual_transform))
    setattr(solver, "residual", timed(solver.residual))
    return spent


def counted(command):
    """One run of the command with its calls counted: the row's words."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch.setattr)
        spent = exact_stage(patch.setattr)
        out = run(ARGV[command])
    if command != "toric-solve":
        return [str(calls)]
    report = json.loads(out)
    recovered = all(Fraction(r["error"]) == 0 for r in report["polished_residual"])
    return [f"iterations {report['iterations']}", f"converged {report['converged']}",
            f"snap checked {calls['residual'] == 2 or recovered}",
            f"exact stage {spent[0]:.4f} s", str(calls)]


def _timeout(signum, frame):
    raise TimeoutError


def exponent(points):
    """The slope of the least-squares line through (log v, log t)."""
    xs = [math.log(v) for v, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def ladder(label, sizes, documents, commands):
    """Run each command at each size on the documents of that size, and
    print a row per size and an exponent per command."""
    times = {command: [] for command in commands}
    for size in sizes:
        for name, doc in documents(size).items():
            Path(f"{name}.json").write_text(json.dumps(doc))
        row = [f"{label}={size}"]
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            for command in commands:
                words = counted(command)
                best = math.inf
                for _ in range(REPEATS):
                    start = time.process_time()
                    run(ARGV[command])
                    best = min(best, time.process_time() - start)
                times[command].append((size, best))
                row += [f"{command} {best:.4f} s", *words]
        except TimeoutError:
            print(*row, f"timeout after {TIMEOUT_S} s", sep="  ")
            break
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(*row, sep="  ")
    for command, points in times.items():
        if len(points) > 1:
            print(f"{command}: exponent {exponent(points):.2f} over {label} = "
                  f"{points[0][0]}..{points[-1][0]}")


def stage_timers(setattr, spent):
    """Wrap the routines of each stage of the split with `setattr`, adding
    their perf_counter seconds to spent[stage]: each moment counts to the
    innermost stage running, so a routine of another stage inside a stage
    moves its time from the enclosing stage to its own."""
    running = []

    def timed(stage_of, fn):
        def wrapper(*args, **kwargs):
            stage = stage_of(*args)
            if running and running[-1] == stage:
                return fn(*args, **kwargs)
            running.append(stage)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                running.pop()
                spent[stage] += elapsed
                if running:  # the enclosing stage's timer counts this call too
                    spent[running[-1]] -= elapsed
        return wrapper

    def stage(name):
        return lambda *args: name

    for name in dir(serialize):
        if name == "load_path" or name.endswith(("_from_json", "_to_json")):
            kind = "writer" if name.endswith("_to_json") else "readers"
            setattr(serialize, name, timed(stage(kind), getattr(serialize, name)))
    setattr(solver, "_newton", timed(stage("float guide"), solver._newton))
    for module, names in ((solver, ("dual_transform", "residual")), (toric, ("ma_measure",)),
                          (variational, ("energy_toric", "envelope_toric",
                                         "orthogonality_defect_toric")),
                          (geometry, ("subdivision",))):
        for name in names:
            setattr(module, name, timed(stage("exact stage"), getattr(module, name)))
    setattr(curves, "solve_laplacian", timed(
        lambda form, pinned: "float guide" if isinstance(form[0][0], float) else "exact stage",
        curves.solve_laplacian))
    setattr(cli._Parser, "parse_args", timed(stage("argparse"), cli._Parser.parse_args))


def split(inputs, workload):
    """Print the stage split of the seed-1 deck of workload, in process."""
    deck = inputs.make_deck(workload, 1, SPLIT_ROUNDS[workload])
    for name, text in deck.files.items():
        Path(name).write_text(text)
    argvs = [argv for tasks in deck.rounds for task in tasks for argv in task.argvs]
    stages = ("readers", "float guide", "exact stage", "writer", "argparse")
    best = dict.fromkeys((*stages, "pass"), math.inf)
    with pytest.MonkeyPatch.context() as patch:
        spent = dict.fromkeys(stages, 0.0)
        stage_timers(patch.setattr, spent)
        for _ in range(SPLIT_PASSES):
            spent.update(dict.fromkeys(stages, 0.0))
            start = time.perf_counter()
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.run(argv) not in (0, 3):
                        raise RuntimeError(f"{argv[0]} failed")
            best["pass"] = min(best["pass"], time.perf_counter() - start)
            for name in stages:
                best[name] = min(best[name], spent[name])
    total = best.pop("pass")
    best["rest"] = total - sum(best.values())
    print(f"split {workload}: seed-1 deck, {SPLIT_ROUNDS[workload]} rounds, {len(argvs)} ops, "
          f"least of {SPLIT_PASSES} passes: {total * 1e3:.2f} ms per pass")
    for name, t in best.items():
        print(f"  {name:<12} {t * 1e3:8.2f} ms {100 * t / total:6.1f} %")


def start_rows(inputs, root):
    """(label, argv, directory) of each row of the start ladder; the decks'
    files are written under root, one directory per workload."""
    py = sys.executable
    rows = [("bare start", [py, "-c", "pass"], root),
            ("stdlib floor", [py, "-c", f"import {STDLIB}"], root),
            ("import plma.cli", [py, "-c", "import plma.cli"], root),
            ("+ build_parser()", [py, "-c", "import plma.cli; plma.cli.build_parser()"], root)]
    for workload in inputs.WORKLOADS:
        deck = inputs.make_deck(workload, 1, 1)
        where = root / workload
        where.mkdir()
        for name, text in deck.files.items():
            (where / name).write_text(text)
        smallest = {}
        for task in deck.rounds[0]:
            family = (task.argvs[0][0], "--graph" in task.argvs[0])
            if family not in smallest or task.size < smallest[family].size:
                smallest[family] = task
        rows += [(task.rung, [py, "-c", "from plma.cli import main; main()", *task.argvs[0]], where)
                 for task in smallest.values()]
    return rows


def start(inputs):
    """Print the start ladder described above."""
    root = Path.cwd()
    shutil.copytree(Path(cli.__file__).parent, root / "src" / "plma",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rows = start_rows(inputs, root)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(root / "src")
    modes = {"no cache": {**env, "PYTHONDONTWRITEBYTECODE": "1"},
             "warm cache": {**env, "PYTHONPYCACHEPREFIX": str(root / "pycache")}}
    best = {mode: [math.inf] * len(rows) for mode in modes}
    for mode, mode_env in modes.items():
        for spawn in range(START_SPAWNS + 1):  # the first, unmeasured, fills the cache
            for i, (label, argv, where) in enumerate(rows):
                begin = time.perf_counter()
                code = subprocess.run(argv, cwd=where, env=mode_env, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
                elapsed = time.perf_counter() - begin
                if code not in (0, 3):
                    raise RuntimeError(f"{label} exited {code}")
                if spawn:
                    best[mode][i] = min(best[mode][i], elapsed)
    print(f"start: wall ms, least of {START_SPAWNS} spawned interpreters per row, "
          "and the excess over the bare start")
    print(f"  {'row':<34}" + "".join(f"{mode:>20}" for mode in modes))
    for i, (label, _, _) in enumerate(rows):
        cells = [f"{t[i] * 1e3:8.1f} ({(t[i] - t[0]) * 1e3:+7.1f})" for t in best.values()]
        print(f"  {label:<34}" + "".join(f"{cell:>20}" for cell in cells))


def main(sets):
    sys.path.insert(0, str(BENCH))
    inputs = importlib.import_module("inputs")
    previous, cwd = signal.signal(signal.SIGALRM, _timeout), os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            if sets[0] == "split":
                split(inputs, sets[1])
            if sets[0] == "start":
                start(inputs)
            if "graph" in sets:
                ladder("v", GRAPH_SIZES, lambda v: graph_documents(inputs, v),
                       ("envelope", "curve-solve"))
            if "walk" in sets:
                ladder("k", WALK_SIZES, walk_documents, ("toric-ma",))
            if "toric" in sets:
                ladder("k", TORIC_SIZES, toric_documents, ("toric-solve",))
            os.chdir(cwd)
    finally:
        os.chdir(cwd)
        signal.signal(signal.SIGALRM, previous)


if __name__ == "__main__":
    main(sys.argv[1:] or ("graph", "walk", "toric"))
