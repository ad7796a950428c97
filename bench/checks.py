"""Exact checks of CLI outputs.

Each check reads the JSON a command printed and tests an identity that
any correct implementation satisfies, never the bytes, so that later
changes may alter representations.  Checks run outside the timed region
and outside the traced spans.

A check returns one status per op: "exact" (verified exactly), "inexact"
(a converged toric-solve whose polished residual is not zero), "failed"
(nonzero exit code) or "wrong" (an identity does not hold, or an exception
escaped plma.cli.run, which turns every error it expects into exit code 2).
Failed and wrong ops both count as failed; a wrong op also makes the run
incorrect.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q
from math import factorial

from plma.geometry import Polytope
from plma.serialize import pl_function_from_json
from plma.toric import ma_measure


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def point(obj):
    return tuple(Q(c) for c in obj)


def volume(verts):
    return Polytope.from_points(verts).volume()


# ---------------------------------------------------------------------------
# toric


def check_toric_ma(task, out):
    verts = task.data["verts"]
    n = len(verts[0])
    real = {point(a["point"]): Q(a["mass"]) for a in out["ma_real"]["atoms"]}
    berk = {point(a["point"]): Q(a["mass"]) for a in out["ma_berkovich"]["atoms"]}
    require(all(m > 0 for m in real.values()), "nonpositive real mass")
    require(sum(real.values()) == volume(verts), "real mass != Vol(delta)")
    require(berk == {p: factorial(n) * m for p, m in real.items()}, "berkovich != n! real")
    require(Q(out["degree"]) == factorial(n) * volume(verts), "degree != n! Vol(delta)")
    return "exact"


def check_toric_solve(task, out):
    verts, target = task.data["verts"], task.data["target"]
    vol = volume(verts)
    require(out["converged"] is True, "not converged")
    tol = Q(1, 10**10) * vol
    require(all(abs(Q(r["error"])) <= tol for r in out["residual"]), "residual above tolerance")
    if any(Q(r["error"]) != 0 for r in out["polished_residual"]):
        return "inexact"
    delta = Polytope.from_points(verts)
    got = ma_measure(pl_function_from_json(out["solution"]), delta).measure_NR
    want = {p: m / factorial(delta.dim) for p, m in target}
    require(dict(got.atoms) == want, "MA(solution) != target")
    return "exact"


def check_toric_energy(task, outs):
    """Outputs of E(g,h), E(h,k), E(g,k), E(h,g), E(k,h), E(k,g)."""
    gh, hk, gk, hg, kh, kg = (Q(o["energy"]) for o in outs)
    require(hg == -gh and kh == -hk and kg == -gk, "energy not antisymmetric")
    require(gh + hk == gk, "energy cocycle identity fails")
    return "exact"


def check_envelope_toric(task, out):
    delta = Polytope.from_points(task.data["verts"])
    pieces = [(point(p["slope"]), Q(p["intercept"])) for p in out["pieces"]]
    slopes = {s for s, _ in pieces}
    require(all(delta.contains(s) for s in slopes), "slope outside delta")
    require(all(v in slopes for v in delta.vertices), "vertex slope missing")
    # With both sides admissible, env <= part everywhere iff it holds at the
    # breakpoints of the part: beyond them the part grows at least as fast.
    for part, bps in zip(task.data["parts"], task.data["breakpoints"]):
        for v in bps:
            bound = max(sum(a * b for a, b in zip(s, v)) - c for s, c in part)
            top = max(sum(a * b for a, b in zip(s, v)) - c for s, c in pieces)
            require(top <= bound, "envelope above the obstacle")
    return "exact"


def check_orthogonality(task, out):
    require(Q(out["defect"]) == 0, "orthogonality defect is not zero")
    return "exact"


# ---------------------------------------------------------------------------
# metric graphs


def edge_pairs(out):
    return [[(Q(o), Q(y)) for o, y in pairs] for pairs in out["edges"]]


def graph_point(obj):
    if "vertex" in obj:
        return ("v", obj["vertex"])
    return ("e", obj["edge"], Q(obj["offset"]))


def laplacian(graph, pairs_by_edge):
    """Outgoing-slope sums, as a dict from location key to nonzero mass."""
    acc = {}

    def put(key, m):
        acc[key] = acc.get(key, 0) + m

    for e, ((u, v, ln), pairs) in enumerate(zip(graph[1], pairs_by_edge)):
        require(pairs[0][0] == 0 and pairs[-1][0] == ln, "edge breakpoints do not span the edge")
        slopes = [(y2 - y1) / (o2 - o1) for (o1, y1), (o2, y2) in zip(pairs, pairs[1:])]
        put(("v", u), slopes[0])
        put(("v", v), -slopes[-1])
        for (o, _), s0, s1 in zip(pairs[1:-1], slopes, slopes[1:]):
            put(("e", e, o), s1 - s0)
    return {k: m for k, m in acc.items() if m != 0}


def add_measure(acc, atoms, sign=1):
    out = dict(acc)
    for k, m in atoms:
        out[k] = out.get(k, 0) + sign * m
    return {k: m for k, m in out.items() if m != 0}


def evaluate(graph, pairs_by_edge, key):
    if key[0] == "v":
        for (u, v, _), pairs in zip(graph[1], pairs_by_edge):
            if u == key[1]:
                return pairs[0][1]
            if v == key[1]:
                return pairs[-1][1]
        raise CheckFailed("vertex not on any edge")
    return interpolate(pairs_by_edge[key[1]], key[2])


def interpolate(pairs, off):
    for (o1, y1), (o2, y2) in zip(pairs, pairs[1:]):
        if o1 <= off <= o2:
            return y1 + (y2 - y1) * (off - o1) / (o2 - o1)
    raise CheckFailed("offset outside edge")


def check_curve_potential(task, out):
    """curve-solve and curve-green: laplacian = mu - omega0, omega0-integral 0."""
    graph, omega0 = task.data["graph"], task.data["omega0"]
    f = edge_pairs(out)
    want = add_measure(add_measure({}, task.data["mu"]), omega0, -1)
    require(laplacian(graph, f) == want, "laplacian != source")
    require(sum(m * evaluate(graph, f, k) for k, m in omega0) == 0, "omega0-integral != 0")
    return "exact"


def check_envelope_graph(task, out):
    graph, omega0, psi = task.data["graph"], task.data["omega0"], task.data["psi"]
    env = edge_pairs(out)
    for p_edge, e_edge in zip(psi, env):
        for off in {o for o, _ in p_edge} | {o for o, _ in e_edge}:
            require(interpolate(e_edge, off) <= interpolate(p_edge, off),
                    "envelope above the obstacle")
    measure = add_measure(laplacian(graph, env), omega0)
    require(all(m > 0 for m in measure.values()), "envelope not omega0-subharmonic")
    return "exact"


def check_curve_canonical(task, out):
    m, k = task.data["m"], task.data["k"]
    parts = m**k
    masses = [Q(x) for x in out["arc_masses"]]
    require(masses == [Q(1, parts)] * parts, "arc masses not uniform")
    circle = ([0], [(0, 0, Q(1))])
    measure = add_measure(laplacian(circle, edge_pairs(out["potential"])), [(("v", 0), Q(1))])
    printed = {graph_point(a["point"]): Q(a["mass"]) for a in out["measure"]["atoms"]}
    require(measure == printed, "measure != omega0 + laplacian(potential)")
    return "exact"


SINGLE = {
    "toric-ma": check_toric_ma,
    "toric-solve": check_toric_solve,
    "envelope-toric": check_envelope_toric,
    "orthogonality": check_orthogonality,
    "curve-potential": check_curve_potential,
    "envelope-graph": check_envelope_graph,
    "curve-canonical": check_curve_canonical,
}


def check_task(task, results):
    """results: one (exit code, stdout) per op; exit code None on exception.

    Returns (statuses, message): one status per op, and the first reason
    an op failed, or None.
    """
    if any(rc is None for rc, _ in results):
        return (["wrong" if rc is None else "failed" for rc, _ in results],
                f"{task.rung}: uncaught exception")
    codes = [rc for rc, _ in results if rc != 0]
    if codes:
        # a task with several ops (the energy triple) needs all of them
        return ["failed"] * len(results), f"{task.rung}: exit code {codes[0]}"
    try:
        outs = [json.loads(text) for _, text in results]
        if task.kind == "toric-energy":
            return [check_toric_energy(task, outs)] * len(outs), None
        return [SINGLE[task.kind](task, out) for out in outs], None
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        return ["wrong"] * len(results), f"{task.rung}: check failed: {exc}"
