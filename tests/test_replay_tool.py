"""`tests/replay_jobs.py --calls` replays recorded CLI calls and prints one
digest of their results; a change that keeps every output byte is shown
by the same digest in both checkouts.  So the digest must repeat from run
to run, and a call whose result differs must change it."""

import io
import json
import os
import pathlib
import subprocess
import sys

from qmalcev import cli

REPLAY = pathlib.Path(__file__).with_name("replay_jobs.py")


def _catalog_text(name):
    out, saved = io.StringIO(), sys.stdout
    sys.stdout = out
    try:
        assert cli.run(["catalog", name]) == 0
    finally:
        sys.stdout = saved
    return out.getvalue()


def _replay(tmp_path, calls):
    """The lines that one replay of the calls prints."""
    path = tmp_path / "calls.jsonl"
    path.write_text("".join(json.dumps(
        {"argv": argv, "stdin": stdin, "files": {}, "report": None}) + "\n"
        for argv, stdin in calls))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QMALCEV_")}
    done = subprocess.run([sys.executable, str(REPLAY), "--calls", str(path)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return done.stdout.splitlines()


def test_replayed_calls_give_one_repeatable_digest(tmp_path):
    doc = _catalog_text("sl2")
    calls = [(["catalog", "sl2"], None), (["check", "-"], doc)]
    first = _replay(tmp_path, calls)
    assert len(first) == 1 and first[0].startswith("calls=2 sha256=")
    assert _replay(tmp_path, calls) == first
    renamed = doc.replace('"name":"sl2"', '"name":"sl2b"')
    assert renamed != doc
    changed = _replay(tmp_path, [(["catalog", "sl2"], None),
                                 (["check", "-"], renamed)])
    assert len(changed) == 1 and changed != first
