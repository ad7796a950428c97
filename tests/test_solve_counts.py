"""Solve counts as a deterministic performance gate.

Timings vary between processes; the number of linear solves does not.
These tests count the calls of curves.solve_laplacian, the package's one
linear solve, by kind (float guide or exact pass) on the benchmark's
curve-envelope corpus and on the graph ladder of BENCH_30.json, and pin
them.  A change that moves a count on purpose pins it again and says why.
bench/inputs.py is imported, not changed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from plma import cli, curves, serialize
from plma.variational import envelope_subharmonic

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("inputs")


@pytest.fixture
def solves(monkeypatch):
    """{"float": n, "exact": m}, counting the solve_laplacian calls from now on."""
    counts = {"float": 0, "exact": 0}
    solve = curves.solve_laplacian

    def counted(form, pinned):
        counts["float" if isinstance(form[0][0], float) else "exact"] += 1
        return solve(form, pinned)

    monkeypatch.setattr(curves, "solve_laplacian", counted)
    return counts


def test_curve_envelope_corpus_solve_counts(inputs, solves, tmp_path, monkeypatch):
    # the 78 ops of the first 13 rounds of the curve-envelope corpus, one
    # envelope each: the float guide starts at the nodes of positive
    # r = laplacian(psi) + omega0 (404 float solves when it started at
    # every node), and every exact pass takes one solve
    deck = inputs.make_deck("curve-envelope", 1, 13)
    monkeypatch.chdir(tmp_path)
    for name, text in deck.files.items():
        (tmp_path / name).write_text(text)
    solves.update(float=0, exact=0)  # the deck's obstacles took a solve each
    ops = 0
    for tasks in deck.rounds:
        for task in tasks:
            for argv in task.argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(argv) == 0
                ops += 1
    assert ops == 78
    assert solves == {"float": 170, "exact": 78}


@pytest.mark.parametrize("nv", [60, 240])
def test_graph_ladder_envelope_solve_counts(inputs, solves, nv):
    # BENCH_30.json's recipe: 7 and 9 float solves when the guide started
    # at every node
    rng = random.Random(nv)
    graph = inputs.random_graph(rng, nv)
    omega0 = inputs.reference_measure(rng, graph, Fraction(2))
    inputs.positive_measure(rng, inputs.distinct_points(rng, graph, 3), Fraction(2))  # mu
    psi = inputs.dented_obstacle(rng, graph, omega0, 10)
    g = serialize.graph_from_json(inputs.graph_json(graph))
    om = serialize.graph_measure_from_json(inputs.graph_measure_json(omega0), g)
    f = serialize.graph_function_from_json(inputs.graph_function_json(psi), g)
    solves.update(float=0, exact=0)
    envelope_subharmonic(f, g, om)
    assert solves == {"float": 2, "exact": 1}
