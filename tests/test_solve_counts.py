"""Solve counts as a deterministic performance gate.

Timings vary between processes; the number of linear solves does not.
These tests count the calls of curves.solve_laplacian, the package's one
linear solve, by kind (float guide or exact pass) on the benchmark's
curve-envelope corpus and on the graph ladder of BENCH_30.json, and the
rational strings the curve readers parse and the GraphPLFunction.build
calls they make on that corpus, with the counters of counting.py, and
pin them.  On the benchmark's toric-solve corpus they pin the 2-D walks
of geometry._walk, the exact residuals of solver.residual, the float
power-cell evaluations of solver._power_cells with the Newton iterations
they serve, and their halfplane clips, the calls of solver._clip_polygon;
on its toric-forward corpus the walks and the rational strings the toric
readers parse; and on criterion 5's instances the node
problems and exact solves of variational.energy_of_envelope_derivative.
A change that moves a count on purpose pins it again and says why.
bench/inputs.py is imported, not changed.  So is bench/tracing.py, whose
Tracer must find, wrap and restore every name it traces.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from plma import cli, geometry, serialize, variational
from plma.variational import energy_of_envelope_derivative, envelope_subharmonic

from conftest import differentiability_instances
from counting import count_calls

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("inputs")


@pytest.fixture
def calls(monkeypatch):
    """counting.count_calls from now on: the calls of parse_rational,
    GraphPLFunction.build and solve_laplacian by kind."""
    return count_calls(monkeypatch.setattr)


def _run_corpus(inputs, tmp_path, monkeypatch, before=lambda: None,
                workload="curve-envelope", rounds=13, expected=78):
    """Run the ops of the first `rounds` rounds of a workload's seed-1
    corpus through cli.run in tmp_path, each exiting 0, check that there
    were `expected` of them and return their stdouts; `before` runs once
    the deck is built, so that counts start there."""
    deck = inputs.make_deck(workload, 1, rounds)
    monkeypatch.chdir(tmp_path)
    for name, text in deck.files.items():
        (tmp_path / name).write_text(text)
    before()
    outs = []
    for tasks in deck.rounds:
        for task in tasks:
            for argv in task.argvs:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert cli.run(argv) == 0
                outs.append(out.getvalue())
    assert len(outs) == expected
    return outs


def test_curve_envelope_corpus_solve_counts(inputs, calls, tmp_path, monkeypatch):
    # one envelope per op: the float guide starts at the nodes of positive
    # r = laplacian(psi) + omega0 (404 float solves when it started at
    # every node), and every exact pass takes one solve.  The readers
    # parse each distinct string of a document once, edge lengths included
    # (3 897 parses when every length was parsed on its own), and check
    # the graph function they read without GraphPLFunction.build
    _run_corpus(inputs, tmp_path, monkeypatch,
                lambda: calls.update(dict.fromkeys(calls, 0)))  # the deck took solves
    assert calls == {"parse_rational": 3124, "pair": 3124, "build": 0, "float": 170,
                     "exact": 78, "walk": 0, "residual": 0, "cells": 0, "clips": 0,
                     "pieces": 0, "atoms": 0}


def test_toric_forward_corpus_walk_counts(inputs, calls, tmp_path, monkeypatch):
    # the first 3 rounds of the seed-1 toric-forward deck, 72 ops: one walk
    # per function read and one per convex envelope of samples.  The toric
    # readers parse each distinct string of a document once into integers
    # and build no Fraction (3 204 parse_rational calls when they read
    # every number into a Fraction)
    _run_corpus(inputs, tmp_path, monkeypatch,
                lambda: calls.update(dict.fromkeys(calls, 0)), "toric-forward", 3, 72)
    assert (calls["walk"], calls["parse_rational"], calls["pair"]) == (138, 0, 1478)


def test_toric_solve_corpus_walk_counts(inputs, calls, tmp_path, monkeypatch):
    # 60 solves, 50 of them in 2-D: each walks its F_w once, and the
    # solution and its residual read the diagram that dual_transform hands
    # over (two walks per 2-D solve when the residual walked the solution
    # again).  Every snap of the corpus passes the gate and is recovered,
    # so each solve checks one residual.  The Newton guide of a 2-D solve
    # evaluates its float power cells once at its start and once per trial
    # step: 290 evaluations for 225 Newton iterations, the 1-D solves none.
    # An evaluation clips only the cells 0..k-2, the last being their
    # complement: 2 352 clips (3 171 when it clipped all k cells).
    # Under --format json the solve runs from the reader to the writer on
    # integer forms: no function builds its Fraction pieces and no measure
    # its Fraction atoms (one of each per op when the reader, the scaling,
    # the solver and the writer read them)
    outs = _run_corpus(inputs, tmp_path, monkeypatch,
                       lambda: calls.update(dict.fromkeys(calls, 0)), "toric-solve", 10, 60)
    iterations = sum(json.loads(out)["iterations"] for out in outs)
    assert (calls["walk"], calls["residual"], calls["cells"], iterations) == (50, 60, 290, 225)
    assert calls["clips"] == 2352
    assert (calls["pieces"], calls["atoms"]) == (0, 0)


@pytest.mark.parametrize("nv", [60, 240])
def test_graph_ladder_envelope_solve_counts(inputs, calls, nv):
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
    calls.update(float=0, exact=0)
    envelope_subharmonic(f, g, om)
    assert (calls["float"], calls["exact"]) == (2, 1)


def test_differentiability_solve_counts(calls, monkeypatch):
    # criterion 5's 20 derivatives: per side, one node problem per radius
    # tried from 1 down (58 radii, 18 of them halvings; radii 1/8 to 1),
    # and each radius tried one pinned solve at t = 0.  The derivative is
    # read off the certified radius's node problem and its pinned solve in
    # closed form: 58 node problems (98 when the energy at t / 2 took a
    # node problem of its own, 138 when the one at t did too).  Each node
    # problem takes one exact solve: 58 + 58 exact solves (156 with the
    # solves at t / 2)
    nodes = 0
    solve = variational._envelope_nodes

    def counted(psi, graph, omega0):
        nonlocal nodes
        nodes += 1
        return solve(psi, graph, omega0)

    instances = list(differentiability_instances(random.Random(105)))
    monkeypatch.setattr(variational, "_envelope_nodes", counted)
    calls.update(dict.fromkeys(calls, 0))  # the instances took solves
    radii = set()
    for phi, f, context, _ in instances:
        radii |= {h for h, _ in energy_of_envelope_derivative(phi, f, context)[1]}
    assert min(radii) == Fraction(1, 8) and max(radii) == 1
    assert (nodes, calls["exact"]) == (58, 116)


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    # bench/run.py --trace rebinds these names; one renamed in plma would
    # otherwise fail only a traced benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    modules = {layer: importlib.import_module(f"plma.{layer}") for layer in tracing.FUNCTIONS}
    functions = {(layer, name): getattr(modules[layer], name)
                 for layer, names in tracing.FUNCTIONS.items() for name in names}
    cls = geometry.PLConvexFunction
    methods = {attr: cls.__dict__[attr] for attr in tracing.METHODS}
    assert len(methods) == 2
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (layer, name), fn in functions.items():
            assert getattr(modules[layer], name).__wrapped__ is fn
        for attr, raw in methods.items():
            assert cls.__dict__[attr] is not raw
    finally:
        tracer.uninstall()
    assert all(getattr(modules[layer], name) is fn for (layer, name), fn in functions.items())
    assert all(cls.__dict__[attr] is raw for attr, raw in methods.items())
