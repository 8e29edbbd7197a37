"""Replay the stored mutants and report the survivors.

    python tests/mutants/run.py [NAME ...]

`mutants.json` maps each mutant's name to four fields: `file`, a path
from the repository root; `old`, a text that occurs exactly once in it;
`new`, its replacement; and `tests`, the ids of the tests that kill the
mutant.  For each mutant, or each one named, `src/`, `tests/`,
`perfbench/`, `pyproject.toml` and `BENCHMARK.json` are copied into a
fresh temporary directory, the text is replaced there, and pytest runs
the mutant's tests in that copy.  The mutant is killed when pytest exits
with a failure or an error, and survives when every test passes.  One
line is printed per mutant; the exit status is 1 when any survived.  The
working tree is never changed.  Only the standard library and pytest are
used.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
MUTANTS = pathlib.Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                 ".pytest_cache", "results")


def load():
    return json.loads(MUTANTS.read_text())


def apply(copy, mutant):
    """Replace the mutant's text in the copy; ValueError unless the text
    occurs exactly once."""
    path = copy / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        raise ValueError("%s: the text occurs %d times"
                         % (mutant["file"], text.count(mutant["old"])))
    path.write_text(text.replace(mutant["old"], mutant["new"]))


def replay(mutant):
    """(killed, pytest's exit code, seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for part in COPIED:
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, copy / part, ignore=IGNORED)
            else:
                shutil.copy(src, copy / part)
        apply(copy, mutant)
        argv = [sys.executable, "-m", "pytest", "-q", "-x",
                "-p", "no:cacheprovider", *mutant["tests"]]
        start = time.monotonic()
        done = subprocess.run(argv, cwd=copy, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT,
                              env={**os.environ,
                                   "PYTHONDONTWRITEBYTECODE": "1"})
        return done.returncode != 0, done.returncode, time.monotonic() - start


def main(argv):
    names, mutants = argv, load()
    unknown = sorted(set(names) - set(mutants))
    if unknown:
        print("unknown mutants: %s" % ", ".join(unknown))
        return 2
    survivors = []
    for name in names or list(mutants):
        killed, code, seconds = replay(mutants[name])
        print("%-28s %s (pytest exit %d, %.1f s)"
              % (name, "killed" if killed else "SURVIVED", code, seconds),
              flush=True)
        if not killed:
            survivors.append(name)
    print("%d mutants, %d survived%s" % (
        len(names or mutants), len(survivors),
        ": " + ", ".join(survivors) if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
