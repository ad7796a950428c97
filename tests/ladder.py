"""The graph ladder: `envelope --graph` and `curve-solve` by graph size.

Run from the repository root, with the plma to measure on the path:

    PYTHONPATH=src python tests/ladder.py

pytest does not collect this file.  The inputs are BENCH_30.json's recipe,
drawn with bench/inputs.py's generators (imported, not changed) and
random.Random(v) at each size v: random_graph(rng, v), a spanning tree
plus v/4 chords; omega0 = reference_measure(rng, graph, 2); mu =
positive_measure(rng, distinct_points(rng, graph, 3), 2); and psi =
dented_obstacle(rng, graph, omega0, 10).  Their documents are written
into a temporary directory, and each command runs through cli.run there.

For each size the script prints the CPU seconds (time.process_time, the
least of REPEATS runs) of each command and, for one run of each, the
calls of serialize.parse_rational, of GraphPLFunction.build and of
curves.solve_laplacian by kind (float guide or exact), counted by
counting.py as tests/test_solve_counts.py counts them, and last the
exponent of a least-squares fit of log time on log v for each command.
A size whose runs take longer than TIMEOUT_S of wall time in all stops
the ladder there.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import signal
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from counting import count_calls
from plma import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SIZES = (60, 120, 240, 480, 960)
REPEATS = 3
TIMEOUT_S = 120
COMMANDS = ("envelope", "curve-solve")


def documents(inputs, v):
    """The graph, omega0, mu and psi documents of BENCH_30.json's recipe at
    size v."""
    rng = random.Random(v)
    graph = inputs.random_graph(rng, v)
    omega0 = inputs.reference_measure(rng, graph, Fraction(2))
    mu = inputs.positive_measure(rng, inputs.distinct_points(rng, graph, 3), Fraction(2))
    psi = inputs.dented_obstacle(rng, graph, omega0, 10)
    return {"graph": inputs.graph_json(graph), "omega0": inputs.graph_measure_json(omega0),
            "mu": inputs.graph_measure_json(mu), "psi": inputs.graph_function_json(psi)}


ARGV = {
    "envelope": ["envelope", "--graph", "graph.json", "--omega0", "omega0.json", "--g", "psi.json"],
    "curve-solve": ["curve-solve", "--graph", "graph.json", "--mu", "mu.json",
                    "--omega0", "omega0.json"],
}


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")


def _timeout(signum, frame):
    raise TimeoutError


def exponent(points):
    """The slope of the least-squares line through (log v, log t)."""
    xs = [math.log(v) for v, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main():
    sys.path.insert(0, str(BENCH))
    inputs = importlib.import_module("inputs")
    times = {command: [] for command in COMMANDS}
    previous, cwd = signal.signal(signal.SIGALRM, _timeout), os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for v in SIZES:
                for name, doc in documents(inputs, v).items():
                    Path(f"{name}.json").write_text(json.dumps(doc))
                row = [f"v={v}"]
                signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
                try:
                    for command in COMMANDS:
                        with pytest.MonkeyPatch.context() as patch:
                            calls = count_calls(patch.setattr)
                            run(ARGV[command])
                        best = math.inf
                        for _ in range(REPEATS):
                            start = time.process_time()
                            run(ARGV[command])
                            best = min(best, time.process_time() - start)
                        times[command].append((v, best))
                        row.append(f"{command} {best:.4f} s {calls}")
                except TimeoutError:
                    print(*row, f"timeout after {TIMEOUT_S} s", sep="  ")
                    break
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                print(*row, sep="  ")
            os.chdir(cwd)
    finally:
        os.chdir(cwd)
        signal.signal(signal.SIGALRM, previous)
    for command, points in times.items():
        if len(points) > 1:
            print(f"{command}: exponent {exponent(points):.2f} over v = "
                  f"{points[0][0]}..{points[-1][0]}")


if __name__ == "__main__":
    main()
