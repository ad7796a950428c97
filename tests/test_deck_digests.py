"""Byte identity of the command line on the benchmark's decks.

Every op of the four decks of bench/inputs.py (make_deck, seeds 1-3, 3
rounds each) runs in process through cli.run, under --format json and
under --format csv, in a directory that holds the deck's files under
their relative names.  The sha256 prefix of each op's (exit code,
stdout, stderr) must equal the one recorded in deck_digests.json, and a
failure lists every op that differs.  bench/inputs.py is imported, not
changed.

A change that alters these bytes on purpose records the digests again,
from the repository root, and names every changed op:

    PYTHONPATH=src python tests/test_deck_digests.py --record

A change compares its bytes with those of a revision REV of this
repository, from the repository root:

    PYTHONPATH=src python tests/test_deck_digests.py --against REV

This writes REV's src/ into a temporary directory with git archive (no
network and no worktree), replays the same decks there in a subprocess
that imports plma from that directory, prints every op whose digest
differs from the working tree's and exits 1 if any op differs.  The decks
are built once, by the working tree, and handed to the subprocess as
data, so both sides run the same files and arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from plma import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("deck_digests.json")
WORKLOADS = ("toric-solve", "toric-forward", "curve-potential", "curve-envelope")
SEEDS = (1, 2, 3)
ROUNDS = 3
FORMATS = ("json", "csv")


def _digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]


def make_decks(inputs):
    """Every deck as JSON data: [workload, seed, files, [[r, rung,
    argvs], ...]], one entry per task of each round r."""
    decks = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            deck = inputs.make_deck(workload, seed, ROUNDS)
            tasks = [[r, task.rung, task.argvs]
                     for r, round_tasks in enumerate(deck.rounds) for task in round_tasks]
            decks.append([workload, seed, deck.files, tasks])
    return decks


def deck_digests(decks, workdir):
    """The digest of every op of the decks, keyed "workload seed/round
    rung#op format", each deck's files written into workdir, which must
    be the working directory."""
    digests = {}
    for workload, seed, files, tasks in decks:
        for name, text in files.items():
            (workdir / name).write_text(text)
        for r, rung, argvs in tasks:
            for j, argv in enumerate(argvs):
                for fmt in FORMATS:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.run([*argv, "--format", fmt])
                    key = f"{workload} {seed}/{r} {rung}#{j} {fmt}"
                    digests[key] = _digest(code, out.getvalue(), err.getvalue())
    return digests


def differing(want, got):
    """The keys, sorted, whose digests differ or that one side lacks."""
    return [key for key in sorted(want.keys() | got.keys()) if got.get(key) != want.get(key)]


def _bench_inputs():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return importlib.import_module("inputs")
    finally:
        sys.path.remove(str(ROOT / "bench"))


def replay(decks):
    """deck_digests of the decks in a temporary working directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return deck_digests(decks, Path(tmp))
        finally:
            os.chdir(here)


def digests_at(rev, decks):
    """The digests of the decks at revision rev: rev's src/ is written
    into a temporary directory by git archive, and a subprocess with only
    that directory on PYTHONPATH replays the decks (the --replay mode of
    this file).  RuntimeError if it imported plma from anywhere else."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        decks_file = Path(tmp) / "decks.json"
        decks_file.write_text(json.dumps(decks))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        done = subprocess.run([sys.executable, __file__, "--replay", str(decks_file)], env=env,
                              cwd=tmp, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout)
        if not Path(result["plma"]).is_relative_to(tmp):
            raise RuntimeError(f"the replay of {rev} imported plma from {result['plma']}")
    return result["digests"]


def test_deck_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = deck_digests(make_decks(_bench_inputs()), tmp_path)
    want = json.loads(DIGESTS.read_text())
    assert len(want) == 792
    differ = differing(want, got)
    assert not differ, f"{len(differ)} ops differ:\n" + "\n".join(differ)


def in_git_checkout():
    """Whether ROOT is the top of a git checkout with a HEAD, as `git
    rev-parse` finds it."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return False
    return done.returncode == 0 and Path(done.stdout.splitlines()[0]).resolve() == ROOT


def test_against_replays_the_revision_in_its_own_tree():
    # HEAD's src/, replayed in a subprocess that imports plma from the
    # archive, runs every op of the decks; a source export has no HEAD
    if not in_git_checkout():
        pytest.skip("not a git checkout: git rev-parse finds no HEAD here")
    digests = digests_at("HEAD", make_decks(_bench_inputs()))
    assert digests.keys() == json.loads(DIGESTS.read_text()).keys()


def test_differing_lists_every_op_that_differs():
    want = {"a": "1", "b": "2", "c": "3"}
    assert differing(want, dict(want)) == []
    assert differing(want, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]


def main(argv):
    if argv == ["--record"]:
        recorded = replay(make_decks(_bench_inputs()))
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"{len(recorded)} digests written to {DIGESTS}")
        return 0
    if len(argv) == 2 and argv[0] == "--replay":
        decks = json.loads(Path(argv[1]).read_text())
        print(json.dumps({"plma": cli.__file__, "digests": replay(decks)}))
        return 0
    if len(argv) == 2 and argv[0] == "--against":
        decks = make_decks(_bench_inputs())
        theirs = digests_at(argv[1], decks)
        differ = differing(theirs, replay(decks))
        for key in differ:
            print(key)
        print(f"{len(differ)} of {len(theirs)} ops differ from {argv[1]}")
        return 1 if differ else 0
    print("usage: test_deck_digests.py --record | --against REV", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
