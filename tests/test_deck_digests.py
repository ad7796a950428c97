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
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
from pathlib import Path

from plma import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("deck_digests.json")
WORKLOADS = ("toric-solve", "toric-forward", "curve-potential", "curve-envelope")
SEEDS = (1, 2, 3)
ROUNDS = 3
FORMATS = ("json", "csv")


def _digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]


def deck_digests(inputs, workdir):
    """The digest of every op of every deck, keyed "workload seed/round
    rung#op format", each deck's files written into workdir, which must
    be the working directory."""
    digests = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            deck = inputs.make_deck(workload, seed, ROUNDS)
            for name, text in deck.files.items():
                (workdir / name).write_text(text)
            for r, tasks in enumerate(deck.rounds):
                for task in tasks:
                    for j, argv in enumerate(task.argvs):
                        for fmt in FORMATS:
                            out, err = io.StringIO(), io.StringIO()
                            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                                code = cli.run([*argv, "--format", fmt])
                            key = f"{workload} {seed}/{r} {task.rung}#{j} {fmt}"
                            digests[key] = _digest(code, out.getvalue(), err.getvalue())
    return digests


def test_deck_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(tmp_path)
    got = deck_digests(importlib.import_module("inputs"), tmp_path)
    want = json.loads(DIGESTS.read_text())
    assert len(want) == 792
    differ = [key for key in sorted(want.keys() | got.keys()) if got.get(key) != want.get(key)]
    assert not differ, f"{len(differ)} ops differ:\n" + "\n".join(differ)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    sys.path.insert(0, str(ROOT / "bench"))
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            recorded = deck_digests(importlib.import_module("inputs"), Path(tmp))
        finally:
            os.chdir(here)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"{len(recorded)} digests written to {DIGESTS}")
