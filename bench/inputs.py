"""Seeded inputs for the benchmark workloads.

Everything here is built from `random.Random` alone, so one seed always
gives the same JSON files.  The seed draws the instances, except for the
FIXED workload, where it only orders them.  A workload is a list of
rounds; a round holds one task per rung (problem size), and a task is one
or more CLI invocations plus the data its exact check needs.  The benchmark runs whole
rounds, so every run sees the same mix of rungs whatever its seed.

Instances are never dropped because of how the program behaves on them.
Where a generator retries a draw, it does so on a property of the input
alone (the atom counts of a solve target), before plma runs it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import factorial

from plma import curves
from plma.geometry import AffineFunctional, PLConvexFunction, Polytope, breakpoints
from plma.toric import ma_measure

INTERVAL = ((Q(0),), (Q(1),))
SQUARE = ((Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(1)))
SIMPLEX = ((Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1)))
HEXAGON = (
    (Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)), (Q(1), Q(1)), (Q(-1), Q(-1)),
)
POLYTOPES = {"square": SQUARE, "simplex": SIMPLEX, "hexagon": HEXAGON}


@dataclass
class Task:
    """One rung of a round: CLI argument lists plus what the check needs."""

    rung: str  # "<command>.<size>", reported as cli.<rung>.p50_ms
    argvs: list  # one argv per op, file arguments as relative names
    kind: str  # selects the exact check
    data: dict = field(default_factory=dict)
    ladder: str | None = None  # scaling ladder, reported as cli.<ladder>-exponent
    size: int = 0  # problem size on the ladder


@dataclass
class Deck:
    rounds: list  # list of lists of Task
    files: dict  # relative name -> JSON text


def qs(x) -> str:
    """Rational string "p/q", or "p" for integers."""
    return str(Q(x))


class FileSet:
    """Collects the files of one deck under stable, seed-independent names."""

    def __init__(self):
        self.files = {}

    def put(self, stem: str, obj) -> str:
        name = f"{stem}-{len(self.files)}.json"
        self.files[name] = json.dumps(obj, sort_keys=True)
        return name


# ---------------------------------------------------------------------------
# toric objects


def polytope_json(verts):
    return {"vertices": [[qs(c) for c in v] for v in verts]}


def pieces_json(pieces):
    return {"pieces": [{"slope": [qs(c) for c in s], "intercept": qs(c)} for s, c in pieces]}


def toric_measure_json(atoms):
    return {"atoms": [{"point": [qs(c) for c in p], "mass": qs(m)} for p, m in atoms]}


def admissible_pieces(rng, verts, extra):
    """Random admissible function: every vertex slope plus interior slopes,
    intercepts with denominator 6 (so exact recovery is possible)."""
    n = len(verts[0])
    pieces = [(v, Q(rng.randint(-12, 12), 6)) for v in verts]
    for _ in range(extra):
        ws = [rng.randint(0, 3) for _ in verts]
        s = sum(ws)
        if s == 0:
            continue
        slope = tuple(sum(w * v[i] for w, v in zip(ws, verts)) / s for i in range(n))
        pieces.append((slope, Q(rng.randint(-12, 12), 6)))
    return pieces


def lattice_paraboloid(rng, k, grid=5, shift=(Q(0), Q(0))):
    """k slopes on the 1/grid lattice of the unit square (all four corners
    included), intercepts on a perturbed paraboloid.  The lifted points are
    in strictly convex position, so all k pieces are essential."""
    cells = [(Q(i, grid), Q(j, grid)) for i in range(grid + 1) for j in range(grid + 1)]
    corners = [c for c in cells if c in SQUARE]
    inner = [c for c in cells if c not in SQUARE]
    slopes = corners + rng.sample(inner, k - len(corners))
    return [
        (s, (s[0] ** 2 + s[1] ** 2) / 2 + s[0] * shift[0] + s[1] * shift[1]
         + Q(rng.randint(0, 20), 10000))
        for s in slopes
    ]


def _function(pieces):
    return PLConvexFunction.from_pieces([AffineFunctional(s, c) for s, c in pieces])


def toric_target(rng, verts, atoms, interior, extra):
    """Berkovich-scale MA measure of a random admissible function with
    `extra` interior slopes, drawn until it has exactly `atoms` atoms,
    `interior` of them inside the convex hull of the others.  Both are
    properties of the input: the solver starts from zero weights, so each
    interior atom starts with an empty cell, and they set most of a
    solve's cost."""
    delta = Polytope.from_points(verts)
    while True:
        nu = ma_measure(_function(admissible_pieces(rng, verts, extra)), delta).measure_NR
        pts = [p for p, _ in nu.atoms]
        if len(pts) == atoms and atoms - len(Polytope.from_points(pts).vertices) == interior:
            scale = factorial(delta.dim)
            return [(p, scale * m) for p, m in nu.atoms]


# ---------------------------------------------------------------------------
# metric graphs


def random_graph(rng, nv):
    """Connected graph: a random spanning tree plus nv // 4 extra edges."""
    edges = []
    for v in range(1, nv):
        edges.append((rng.randrange(v), v, Q(rng.randint(1, 6), rng.randint(1, 3))))
    for _ in range(nv // 4):
        u, v = rng.sample(range(nv), 2)
        edges.append((u, v, Q(rng.randint(1, 6), rng.randint(1, 3))))
    return list(range(nv)), edges


def graph_json(graph):
    vids, edges = graph
    return {"vertices": vids, "edges": [{"ends": [u, v], "length": qs(ln)} for u, v, ln in edges]}


def point_json(pt):
    if pt[0] == "v":
        return {"vertex": pt[1]}
    return {"edge": pt[1], "offset": qs(pt[2])}


def graph_measure_json(atoms):
    return {"atoms": [{"point": point_json(p), "mass": qs(m)} for p, m in atoms]}


def random_point(rng, graph):
    """A vertex or an interior quarter point of a random edge."""
    vids, edges = graph
    if rng.random() < 0.5:
        return ("v", rng.choice(vids))
    e = rng.randrange(len(edges))
    return ("e", e, edges[e][2] * Q(rng.randint(1, 3), 4))


def positive_measure(rng, points, total):
    cuts = sorted(rng.sample(range(1, 12), len(points) - 1))
    bounds = [0] + cuts + [12]
    return [(p, total * Q(b - a, 12)) for p, a, b in zip(points, bounds, bounds[1:])]


def distinct_points(rng, graph, count):
    out = []
    while len(out) < count:
        p = random_point(rng, graph)
        if p not in out:
            out.append(p)
    return out


def reference_measure(rng, graph, total):
    """omega0: positive mass `total` on two distinct points."""
    return positive_measure(rng, distinct_points(rng, graph, 2), total)


def dented_obstacle(rng, graph, omega0, dents):
    """Potential of a positive measure minus Green bumps at `dents` points:
    the solution of laplacian(psi) = mu - dent - omega0/2 (omega0 of mass 2,
    mu of mass 2, dent of mass 1), so psi fails to be omega0-subharmonic at
    the dents.  Built with one exact Poisson solve, outside every timed op."""
    G = curves.MetricGraph.build(*graph)
    mu = positive_measure(rng, distinct_points(rng, graph, 3), Q(2))
    dent = positive_measure(rng, distinct_points(rng, graph, dents), Q(1))
    rho = mu + [(p, -m) for p, m in dent] + [(p, -m / 2) for p, m in omega0]
    psi = curves.solve_poisson(G, curves.GraphMeasure.from_atoms(G, rho), ("v", graph[0][0]))
    return [list(pairs) for pairs in psi.edge_values]


def graph_function_json(edge_values):
    return {"edges": [[[qs(o), qs(y)] for o, y in pairs] for pairs in edge_values]}


# ---------------------------------------------------------------------------
# workloads


# (polytope, atoms, interior atoms, interior slopes drawn); the last is
# the count under which such targets come up most often.
TORIC_SOLVE_RUNGS = (
    ("simplex", 3, 0, 1), ("simplex", 4, 1, 3), ("square", 4, 1, 2), ("hexagon", 4, 0, 0),
    ("hexagon", 4, 1, 0),
)


def toric_solve_round(rng, b: FileSet):
    """A 1-D closed-form instance with 12 atoms plus 2-D instances on the
    three polytopes."""
    pts = sorted(rng.sample(range(-48, 49), 12))
    target = positive_measure(rng, [(Q(p, 24),) for p in pts], Q(1))
    strata = [("interval-a12", INTERVAL, target)]
    for name, atoms, interior, extra in TORIC_SOLVE_RUNGS:
        verts = POLYTOPES[name]
        strata.append((f"{name}-a{atoms}i{interior}", verts,
                       toric_target(rng, verts, atoms, interior, extra)))
    tasks = []
    for rung, verts, target in strata:
        d = b.put("delta", polytope_json(verts))
        m = b.put("mu", toric_measure_json(target))
        tasks.append(Task(f"toric-solve.{rung}", [["toric-solve", "--delta", d, "--mu", m]],
                          "toric-solve", {"verts": verts, "target": target}))
    return tasks


def toric_forward_round(rng, b: FileSet):
    tasks = []
    d = b.put("delta", polytope_json(SQUARE))
    for k in (8, 16, 24, 32):
        g = b.put("g", pieces_json(lattice_paraboloid(rng, k)))
        tasks.append(Task(f"toric-ma.k{k}", [["toric-ma", "--delta", d, "--g", g]],
                          "toric-ma", {"verts": SQUARE}, "toric-ma.k", k))
    for k in (4, 5, 6):
        names = [b.put("g", pieces_json(lattice_paraboloid(rng, k))) for _ in range(3)]
        g, h, kk = names
        pairs = [(g, h), (h, kk), (g, kk), (h, g), (kk, h), (kk, g)]
        tasks.append(Task(f"toric-energy.k{k}",
                          [["toric-energy", "--delta", d, "--g", x, "--g0", y] for x, y in pairs],
                          "toric-energy", ladder="toric-energy.k", size=k))
    parts = []
    for _ in range(2):
        shift = (Q(rng.randint(-4, 4), 8), Q(rng.randint(-4, 4), 8))
        parts.append(lattice_paraboloid(rng, 8, grid=3, shift=shift))
    psi = b.put("psi", {"min_of": [pieces_json(p) for p in parts]})
    bps = [breakpoints(_function(p)) for p in parts]
    data = {"verts": SQUARE, "parts": parts, "breakpoints": bps}
    tasks.append(Task("envelope.toric", [["envelope", "--delta", d, "--g", psi]],
                      "envelope-toric", data))
    tasks.append(Task("orthogonality.toric", [["orthogonality", "--delta", d, "--g", psi]],
                      "orthogonality"))
    return tasks


def curve_potential_round(rng, b: FileSet):
    tasks = []
    for nv in (10, 20, 40):
        graph = random_graph(rng, nv)
        omega0 = reference_measure(rng, graph, Q(1))
        mu = positive_measure(rng, distinct_points(rng, graph, 3), Q(1))
        names = [b.put("graph", graph_json(graph)), b.put("mu", graph_measure_json(mu)),
                 b.put("omega0", graph_measure_json(omega0))]
        tasks.append(Task(f"curve-solve.v{nv}",
                          [["curve-solve", "--graph", names[0], "--mu", names[1],
                            "--omega0", names[2]]],
                          "curve-potential", {"graph": graph, "omega0": omega0, "mu": mu},
                          "curve-solve.v", nv))
        if nv == 20:
            x = random_point(rng, graph)
            xn = b.put("x", point_json(x))
            tasks.append(Task(f"curve-green.v{nv}",
                              [["curve-green", "--graph", names[0], "--x", xn,
                                "--omega0", names[2]]],
                              "curve-potential",
                              {"graph": graph, "omega0": omega0, "mu": [(x, Q(1))]}))
    # the work grows with the m^k arcs, so m=2 is laddered against 2^k
    for m, k in ((2, 6), (2, 8), (2, 10), (3, 5)):
        tasks.append(Task(f"curve-canonical.m{m}k{k}",
                          [["curve-canonical", "--m", str(m), "--iterations", str(k)]],
                          "curve-canonical", {"m": m, "k": k},
                          "curve-canonical.parts" if m == 2 else None, m**k))
    return tasks


def curve_envelope_round(rng, b: FileSet):
    """envelope on every rung, orthogonality on the two smallest.  An
    obstacle the sweep cannot settle costs seconds per op, and
    orthogonality repeats its envelope's work, so running it on the large
    rungs too would leave room for few rounds."""
    tasks = []
    for nv, dents in ((8, 3), (15, 5), (20, 6), (30, 8)):
        graph = random_graph(rng, nv)
        omega0 = reference_measure(rng, graph, Q(2))
        psi = dented_obstacle(rng, graph, omega0, dents)
        gn, on, pn = (b.put("graph", graph_json(graph)), b.put("omega0", graph_measure_json(omega0)),
                      b.put("psi", graph_function_json(psi)))
        data = {"graph": graph, "omega0": omega0, "psi": psi}
        common = ["--graph", gn, "--omega0", on, "--g", pn]
        tasks.append(Task(f"envelope.graph-v{nv}", [["envelope", *common]], "envelope-graph", data,
                          "envelope.graph-v", nv))
        if nv <= 15:
            tasks.append(Task(f"orthogonality.graph-v{nv}", [["orthogonality", *common]],
                              "orthogonality"))
    return tasks


WORKLOADS = {
    "toric-solve": toric_solve_round,
    "toric-forward": toric_forward_round,
    "curve-potential": curve_potential_round,
    "curve-envelope": curve_envelope_round,
}
# The workload whose instances come from one fixed stream, whatever the
# seed; the seed only orders the ops.  curve-envelope fails on few
# obstacles (1-25 % per rung) and a failure costs 50-250 times a solve, so
# a seeded draw would make its throughput depend on how many failing
# obstacles the seed happens to draw.  The stream is not chosen by outcome:
# its obstacles are kept whether the program solves them or not.
FIXED = "curve-envelope"


def make_deck(workload: str, seed: int, rounds: int) -> Deck:
    rng = random.Random(f"{workload}/corpus" if workload == FIXED else f"{workload}/{seed}")
    b = FileSet()
    deck = [WORKLOADS[workload](rng, b) for _ in range(rounds)]
    if workload == FIXED:
        order = random.Random(f"{workload}/{seed}")
        order.shuffle(deck)
        for tasks in deck:
            order.shuffle(tasks)
    return Deck(deck, b.files)


def deck_hash(deck: Deck) -> str:
    """sha256 prefix over every argument list and file of the deck."""
    h = hashlib.sha256()
    for tasks in deck.rounds:
        for task in tasks:
            h.update(json.dumps([task.rung, task.argvs]).encode())
    for name in sorted(deck.files):
        h.update(name.encode() + b"\0" + deck.files[name].encode() + b"\0")
    return h.hexdigest()[:16]


def catalogue() -> dict:
    """Every rung of every workload: rung -> (ladder or None, size)."""
    out = {}
    for make_round in WORKLOADS.values():
        for task in make_round(random.Random("catalogue"), FileSet()):
            out[task.rung] = (task.ladder, task.size)
    return out


def main(argv):
    """Arguments WORKLOAD SEED ROUNDS DIR: write the deck's files into DIR
    and print (rounds of tasks, file names, hash) pickled on stdout.  run.py
    calls this in a child process, so that generation stays out of the peak
    memory of the process that runs the ops."""
    workload, seed, rounds, outdir = argv
    deck = make_deck(workload, int(seed), int(rounds))
    for name, text in deck.files.items():
        with open(f"{outdir}/{name}", "w") as f:
            f.write(text)
    sys.stdout.buffer.write(pickle.dumps((deck.rounds, sorted(deck.files), deck_hash(deck))))

