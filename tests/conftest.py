import base64
import io
import json
import math
import os
import pathlib
import sys
from collections import Counter

import pytest

import qmalcev.cli
from qmalcev import catalog_get
from qmalcev import core


def _recording(run, path):
    """run, wrapped to append each call to the file at path as one JSON
    line: the argv, the stdin text when argv reads "-", QMALCEV_REPORT, and
    the bytes, base64, of each file that argv names, null for one that is
    not a file.  The arguments after a file command (`cli.FILE_COMMANDS`)
    that are not options or "-" name files.  `python tests/replay_jobs.py
    --calls <path>` replays the calls."""

    def recorded(argv):
        argv, stdin, saved = list(argv), None, sys.stdin
        if "-" in argv:
            stdin = sys.stdin.read()
            sys.stdin = io.StringIO(stdin)
        files = {}
        if argv and argv[0] in qmalcev.cli.FILE_COMMANDS:
            for arg in argv[1:]:
                if not arg.startswith("-"):
                    files[arg] = (base64.b64encode(
                        pathlib.Path(arg).read_bytes()).decode()
                        if os.path.isfile(arg) else None)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "argv": argv, "stdin": stdin, "files": files,
                "report": os.environ.get("QMALCEV_REPORT")}) + "\n")
        try:
            return run(argv)
        finally:
            sys.stdin = saved

    return recorded


# Off unless set; wrapped here, before the test modules bind `run`.
if os.environ.get("QMALCEV_RECORD_CLI"):
    qmalcev.cli.run = _recording(qmalcev.cli.run,
                                 os.environ["QMALCEV_RECORD_CLI"])


def slot_bound(a):
    """5 s^2 A^3 from the Fraction constants of a: A is the largest
    |constant| times D, the lcm of their denominators, and s the most
    constants that one basis pair has.  A final Malcev or Jacobi sum of the
    scan kernel is at most this in absolute value, coordinate by
    coordinate."""
    if not a.constants:
        return 0
    d = math.lcm(*(c.denominator for c in a.constants.values()))
    top = max(int(abs(c) * d) for c in a.constants.values())
    width = max(Counter((i, j) for i, j, _k in a.constants).values())
    return 5 * width ** 2 * top ** 3


@pytest.fixture(autouse=True, scope="session")
def _slot_width_checked():
    """Every scan kernel that the suite builds, in any test, has slots wide
    enough for the bound: 2^(bits-1) > slot_bound(a)."""
    real = core._ScanKernel.__init__

    def init(self, a):
        real(self, a)
        assert 2 ** (self.bits - 1) > slot_bound(a), (a, self.bits)

    core._ScanKernel.__init__ = init
    yield
    core._ScanKernel.__init__ = real


@pytest.fixture(scope="session")
def sl2():
    return catalog_get("sl2").algebra


@pytest.fixture(scope="session")
def m7():
    return catalog_get("m7").algebra


@pytest.fixture(scope="session")
def osp12():
    return catalog_get("osp12").algebra


@pytest.fixture(scope="session")
def k21():
    """The (1|6) extension of the n=2 example family with m = (1, 2)."""
    return catalog_get("example_gde", n=2, m=(1, 2)).algebra


@pytest.fixture(scope="session")
def m2():
    """The (1|4) base family member with n = 2, m = (1, 2)."""
    return catalog_get("example_M", n=2, m=(1, 2))
