"""plma benchmark: seeded CLI workloads, exact output checks, layer tracing.

    python3 bench/run.py --workload toric-solve --seed 1 --seconds 12 --trace 0

Run from the repository root.  The program is imported from ./src; a child
process generates the inputs from the seed into ./.bench_work, and they
are removed afterwards.

Load model: a closed loop with one client in this process.  An op is one
`plma <command>` invocation through `plma.cli.run`, with stdout and stderr
captured in memory; ops run one after another and nothing else runs but
a 0.3 ms speed probe every 20 ms (see Sampler), left out of the latencies.
A run executes a fixed number of rounds (one task per rung each): --seconds
divided by the workload's nominal round time, so that on the unmodified
program a run measures about --seconds.  The number of rounds does not
depend on how fast the ops run, so a slow instance cannot cut its own run
short and bias the statistics.  Every op is checked exactly, outside the
timing, and every op counts in the metrics, failed ones included.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same rounds
untraced, then replays the ops of the first MIN_ROUNDS rounds (all rounds
of curve-envelope, so that its few failing ops are traced) with every
plma layer wrapped in spans (see tracing.py), checks that the traced ops
printed byte-identical output with identical exit codes and that the spans
account for each op's wall time, and prints the per-layer metrics.  The
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# input hashes of known decks, "<workload>/<seed>/<rounds>" -> hash
RECORDED_HASHES = BENCH / "input_hashes.json"

# Approximate time of one round of each workload on the unmodified program,
# slow instances and failed ops included; a run has --seconds over this
# many rounds.  curve-envelope runs a prefix of one fixed stream of rounds,
# whose failures cluster; its first 16 rounds take about 15 s.
NOMINAL_ROUND_S = {"toric-solve": 0.43, "toric-forward": 5.0, "curve-potential": 2.1,
                   "curve-envelope": 0.94}
MIN_ROUNDS = 3
SUCCEEDED = ("exact", "inexact")  # check statuses; the others are "failed" and "wrong"
SETUP_SPAWNS = 5
# Reported times are scaled to a machine on which probe() takes this long
# (its fast-phase median on the 2-vCPU Xeon VM the benchmark was tuned on).
PROBE_REFERENCE_S = 0.00032
PROBE_EVERY_S = 0.02
# an op's slowdown also counts the probes this close before and after it
PROBE_WINDOW_S = 0.1
# setup_s is scaled to a machine on which an interpreter that imports
# plma's dependencies starts in this long (its fast-phase time on the same VM)
DEPS_START_REFERENCE_S = 0.12
DEPS = "argparse, dataclasses, fractions, itertools, json, math, random, numpy"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p75_ms": "ms",
    "ok_ratio": "ratio",
    "exact_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYERS = {
    "cli.self_s": "s",
    "serialize.self_s": "s",
    "serialize.load_path.calls": "count",
    "serialize.dumps.calls": "count",
    "geometry.self_s": "s",
    "geometry.breakpoints.calls": "count",
    "geometry.breakpoints.self_s": "s",
    "geometry.dual_transform.calls": "count",
    "geometry.dual_transform.self_s": "s",
    "geometry.from_pieces.calls": "count",
    "geometry.from_pieces.self_s": "s",
    "geometry.add.calls": "count",
    "geometry.add.self_s": "s",
    "geometry.subdifferential.calls": "count",
    "toric.self_s": "s",
    "toric.ma_measure.calls": "count",
    "toric.mixed_ma.calls": "count",
    "solver.self_s": "s",
    "solver.solve_toric.calls": "count",
    "solver.newton_iterations": "count",
    "solver.exact_ratio": "ratio",
    "curves.self_s": "s",
    "curves.solve_poisson.calls": "count",
    "curves.solve_poisson.self_s": "s",
    "curves.green.calls": "count",
    "curves.superpose.calls": "count",
    "curves.canonical_metric.self_s": "s",
    "variational.self_s": "s",
    "variational.energy_toric.self_s": "s",
    "variational.envelope_subharmonic.calls": "count",
    "variational.envelope_subharmonic.self_s": "s",
    "variational.envelope_subharmonic.failed": "count",
    "variational.envelope_attempts": "count",
    "trace.overhead_ratio": "ratio",
}


class Op:
    __slots__ = ("rung", "argv", "latency", "slowdown", "rc", "out", "err", "status")

    def __init__(self, rung, argv):
        self.rung, self.argv = rung, argv
        self.latency, self.slowdown = 0.0, 1.0
        self.rc, self.out, self.err, self.status = None, "", "", "failed"


def invoke(run, argv, traced=None):
    """One CLI invocation with stdout and stderr captured in memory; returns
    (start, end, exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = run(argv) if traced is None else traced(run, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        end = time.perf_counter()
    return start, end, rc, out.getvalue(), err.getvalue()


def probe():
    """A fixed pure-Python computation of the kind plma does (rational
    arithmetic, dict stores), about 0.3 ms long."""
    s = Fraction(0)
    acc = {}
    for i in range(1, 150):
        s += Fraction(i % 13 + 1, i % 97 + 1)
        acc[i % 64] = s
    return s


class Sampler:
    """Times probe() every PROBE_EVERY_S from a SIGALRM handler, during the
    ops and between them.  The speed a shared machine gives this process
    swings by up to 2x within seconds, so probes taken only between ops say
    little about the speed during an op of several seconds; probes taken
    during it do.  A handler runs in this thread, between two bytecodes of
    whatever runs, so an op's latency must leave out the probes it ran."""

    def __init__(self):
        self.ends, self.durations = [], []
        self.previous = None

    def tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        time.sleep(PROBE_WINDOW_S)  # probes before the first op
        return self

    def __exit__(self, *exc):
        time.sleep(PROBE_WINDOW_S)  # probes after the last op
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def scale(self, op, start, end):
        """Set op's latency (probes it ran left out) and its slowdown: the
        mean probe time within PROBE_WINDOW_S of it over PROBE_REFERENCE_S."""
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_right(self.ends, end)
        op.latency = end - start - sum(self.durations[first:last])
        lo = bisect.bisect_left(self.ends, start - PROBE_WINDOW_S)
        hi = max(bisect.bisect_right(self.ends, end + PROBE_WINDOW_S), lo + 1)
        op.slowdown = statistics.fmean(self.durations[lo:hi]) / PROBE_REFERENCE_S


def measure_setup():
    """Median over fresh interpreters of the time to start, import plma and
    build the CLI parser, each over the time of an interpreter that only
    imports plma's dependencies (DEPS), started just before it, times
    DEPS_START_REFERENCE_S.  Process start-up slows with a loaded machine in
    ways the probe does not follow, and most of it is numpy's import, which
    slows more than a bare start does; the reference start follows both.
    One unmeasured pair first fills the bytecode cache."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import plma.cli; plma.cli.build_parser()"
    setup = [sys.executable, "-c", code, str(SRC)]
    deps = [sys.executable, "-c", f"import {DEPS}"]

    def spawn(cmd):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        return time.perf_counter() - start

    spawn(deps)
    spawn(setup)
    ratios = []
    for _ in range(SETUP_SPAWNS):
        reference = spawn(deps)
        ratios.append(spawn(setup) / reference)
    return statistics.median(ratios) * DEPS_START_REFERENCE_S


def generate(workload, seed, rounds, workdir):
    """Write the deck's files into workdir from a child process; returns
    (rounds of tasks, file names, input hash)."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import inputs; "
            "inputs.main(sys.argv[3:])")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(BENCH), workload, str(seed), str(rounds),
         str(workdir)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True)
    return pickle.loads(proc.stdout)


def hash_note(workload, seed, rounds, digest):
    """Whether the inputs match the ones recorded for this deck."""
    key = f"{workload}/{seed}/{rounds}"
    recorded = json.loads(RECORDED_HASHES.read_text()).get(key)
    if recorded is None:
        return "no recorded hash"
    if recorded == digest:
        return "matches the recorded hash"
    return f"WARNING: differs from the recorded {recorded}; generator or plma changed"


def run_window(run, rounds, files, workdir):
    """Untraced closed loop over the deck, with the Sampler running; returns
    the checked ops and the reasons of failed ops."""
    from checks import check_task

    ops, messages, timed = [], [], []
    with Sampler() as sampler:
        for tasks in rounds:
            for task in tasks:
                batch = []
                for argv in task.argvs:
                    op = Op(task.rung, [str(workdir / a) if a in files else a for a in argv])
                    start, end, op.rc, op.out, op.err = invoke(run, op.argv)
                    timed.append((op, start, end))
                    batch.append(op)
                statuses, msg = check_task(task, [(op.rc, op.out) for op in batch])
                for op, status in zip(batch, statuses):
                    op.status = status
                if msg:
                    messages.append(msg)
                ops.extend(batch)
    for op, start, end in timed:
        sampler.scale(op, start, end)
    return ops, messages


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def rung_latencies(ops):
    """Latencies of all ops, failed ones included, each divided by its
    slowdown, by rung."""
    by_rung = {}
    for op in ops:
        by_rung.setdefault(op.rung, []).append(op.latency / op.slowdown)
    return by_rung


def end_to_end(ops, setup_s):
    """End-to-end metrics over every attempted op.  ops_per_s counts the
    time of every op, failed ones included.  The latency percentiles are
    summarised per rung first and the rungs then weigh the same, so that
    one slow instance moves only its own rung."""
    by_rung = rung_latencies(ops)
    med = {r: statistics.median(lat) for r, lat in by_rung.items()}
    # latency over its rung's median, pooled over all rungs.  p75 is the
    # highest percentile with ten samples beyond it on every workload; p90
    # would also sit on the edge of toric-solve's slow tenth of instances.
    tail = quantile([x / med[r] for r, lat in by_rung.items() for x in lat], 75)
    n = len(ops)
    p50 = geomean(med.values())
    return {
        "setup_s": setup_s,
        "ops_per_s": n / sum(op.latency / op.slowdown for op in ops),
        "op_p50_ms": 1000 * p50,
        "op_p75_ms": 1000 * p50 * tail,
        "ok_ratio": sum(op.status in SUCCEEDED for op in ops) / n,
        "exact_ratio": sum(op.status == "exact" for op in ops) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ladder_metrics(ops, rungs):
    """Median latency of every rung of every workload (0 where this
    workload has no such rung) and the fitted exponent of every ladder (0
    where it has fewer than two of its rungs).  rungs maps each rung to
    its (ladder, size)."""
    by_rung = rung_latencies(ops)
    out = {f"cli.{rung}.p50_ms": 1000 * statistics.median(by_rung[rung]) if rung in by_rung
           else 0.0 for rung in rungs}
    ladders = {}
    for rung, (ladder, size) in rungs.items():
        if ladder is not None:
            ladders.setdefault(f"cli.{ladder}-exponent", {})[rung] = size
    for name, sizes in ladders.items():
        pts = [(math.log(size), math.log(statistics.median(by_rung[rung])))
               for rung, size in sizes.items() if rung in by_rung]
        if len(pts) < 2:
            out[name] = 0.0
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        out[name] = (sum((x - mx) * (y - my) for x, y in pts)
                     / sum((x - mx) ** 2 for x, _ in pts))
    return out


def elapsed(result):
    return result[1] - result[0]


def traced_replay(run, ops):
    """Replay each op twice, untraced and with the layer wrappers installed.
    Returns the per-layer metrics and the reasons the trace is not
    faithful: an op whose traced output or exit code differs from the
    measured window's, or whose layer self times do not add up to its
    traced wall time within the tracing overhead."""
    from tracing import Tracer, layer_metrics, self_times

    tracer = Tracer()
    plain, walls, problems = 0.0, [], []
    for i, op in enumerate(ops):
        # alternate which pass goes first: a repeated op tends to run faster
        if i % 2:
            plain += elapsed(invoke(run, op.argv))
        tracer.install()
        try:
            result = invoke(run, op.argv, traced=lambda fn, argv: tracer.run_op(i, fn, argv))
        finally:
            tracer.uninstall()
        if not i % 2:
            plain += elapsed(invoke(run, op.argv))
        walls.append(elapsed(result))
        if result[2:] != (op.rc, op.out, op.err):
            problems.append(f"{op.rung}: traced output differs")
    spans = tracer.spans
    overhead = sum(walls) / plain
    accounted = [0.0] * len(ops)
    for span, own in zip(spans, self_times(spans)):
        accounted[span.op] += own
    # the spans must cover each op's wall time: allow the tracing overhead
    # (at least 1 %) and 0.1 ms for the call into the root span
    tolerance = max(abs(overhead - 1), 0.01)
    for op, wall, own in zip(ops, walls, accounted):
        if abs(wall - own) > tolerance * wall + 1e-4:
            problems.append(f"{op.rung}: layer self times {own:.6f} s, traced wall {wall:.6f} s")
    metrics = layer_metrics(spans)
    calls = metrics.get("solver.solve_toric.calls", 0)
    metrics["solver.exact_ratio"] = metrics.get("solver.exact_solves", 0) / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = overhead
    return {name: float(metrics.get(name, 0)) for name in LAYERS}, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plma" / "cli.py").is_file():
        print(f"plma sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import plma.cli
    if Path(plma.cli.__file__).resolve().parent != (SRC / "plma").resolve():
        print(f"imported plma from {plma.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from inputs import FIXED, WORKLOADS, catalogue

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_s = measure_setup() if args.trace == 0 else None
    n_rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        rounds, files, digest = generate(args.workload, args.seed, n_rounds, workdir)
        # check data live for the whole run; keep them out of the
        # collector's scans so that ops pay only for their own garbage
        gc.collect()
        gc.freeze()
        ops, messages = run_window(plma.cli.run, rounds, set(files), workdir)
        if args.trace:
            # the fixed stream's failing ops may sit in any round
            replayed = rounds if args.workload == FIXED else rounds[:MIN_ROUNDS]
            first = sum(len(t.argvs) for tasks in replayed for t in tasks)
            metrics, problems = traced_replay(plma.cli.run, ops[:first])
            rungs = catalogue()
            metrics.update(ladder_metrics(ops, rungs))
            units = dict(LAYERS)
            units.update({f"cli.{rung}.p50_ms": "ms" for rung in rungs})
            units.update({name: "exponent" for name in metrics if name.endswith("-exponent")})
        else:
            metrics, problems = end_to_end(ops, setup_s), []
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = sum(op.status not in SUCCEEDED for op in ops)
    print(f"workload {args.workload} seed {args.seed}: inputs sha256:{digest} "
          f"({hash_note(args.workload, args.seed, n_rounds, digest)}), {n_rounds} rounds, "
          f"{len(ops)} ops, {failed} failed, "
          f"slowdown {statistics.median(op.slowdown for op in ops):.3f}")
    for rung, lat in rung_latencies(ops).items():
        ok = sum(op.status in SUCCEEDED for op in ops if op.rung == rung)
        print(f"  {rung}: {len(lat)} ops, {ok} ok, median {1000 * statistics.median(lat):.1f} ms, "
              f"max {1000 * max(lat):.1f} ms")
    for msg in messages[:10]:
        print(f"  {msg}")
    for msg in problems[:10]:
        print(f"  {msg}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not problems and all(op.status != "wrong" for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
