"""Replay the benchmark job lists, or recorded CLI calls, and print digests.

    python tests/replay_jobs.py [SEED ...]       (default seeds: 1 2 3 7)
    python tests/replay_jobs.py --calls PATH

For each seed, the `check`, `decompose` and `rebuild` job lists are built
with `perfbench/workloads.py` and every job is run through
`qmalcev.cli.run` in this process, its stdin the job's text.  One line is
printed per list: workload, seed, job count, and the sha256 of every job's
exit code, stdout and stderr in turn.  Run it in two checkouts and compare
the lines to show that a change keeps every output byte.

With `--calls`, PATH holds the calls that a test run recorded, one JSON
line each (`QMALCEV_RECORD_CLI=PATH python -m pytest`; see
`tests/conftest.py`).  Each call runs with its stdin and QMALCEV_REPORT,
from a fresh temporary directory, where every file that its argv names is
written as `calls/<position in argv>/<file name>`, or left absent as it
was; so a message that names a file reads the same in every replay.  One
line is printed: the call count and the sha256 of the results, as above.

The checkout that holds this file is put first on `sys.path`, its `src/`
and `perfbench/`, so the replay tests that checkout whatever PYTHONPATH
says.  pytest does not collect this file.
"""

import base64
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from qmalcev import cli  # noqa: E402


def run_into(digest, argv, stdin):
    """Run one CLI call with the given stdin text and add its exit code,
    stdout and stderr, each length-prefixed, to the digest."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = cli.run(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    for part in (str(code), out.getvalue(), err.getvalue()):
        data = part.encode()
        digest.update(b"%d:" % len(data) + data)


def replay(workload, seed):
    """(job count, sha256 hex digest) of one job list."""
    jobs = workloads.build_jobs(workload, seed)
    digest = hashlib.sha256()
    for job in jobs:
        run_into(digest, job.argv, job.stdin)
    return len(jobs), digest.hexdigest()


def replay_calls(path):
    """(call count, sha256 hex digest) of the calls recorded in path."""
    digest, count = hashlib.sha256(), 0
    cwd, report = os.getcwd(), os.environ.pop("QMALCEV_REPORT", None)
    with open(path, encoding="utf-8") as fh, \
            tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in fh:
                call = json.loads(line)
                shutil.rmtree("calls", ignore_errors=True)
                argv = list(call["argv"])
                for k, arg in enumerate(argv):
                    if arg in call["files"]:
                        argv[k] = os.path.join("calls", str(k),
                                               os.path.basename(arg))
                        data = call["files"][arg]
                        if data is not None:
                            os.makedirs(os.path.dirname(argv[k]))
                            pathlib.Path(argv[k]).write_bytes(
                                base64.b64decode(data))
                if call["report"] is None:
                    os.environ.pop("QMALCEV_REPORT", None)
                else:
                    os.environ["QMALCEV_REPORT"] = call["report"]
                run_into(digest, argv, call["stdin"] or "")
                count += 1
        finally:
            os.chdir(cwd)
            os.environ.pop("QMALCEV_REPORT", None)
            if report is not None:
                os.environ["QMALCEV_REPORT"] = report
    return count, digest.hexdigest()


def main(argv):
    if argv[:1] == ["--calls"]:
        count, digest = replay_calls(argv[1])
        print("calls=%d sha256=%s" % (count, digest))
        return
    for seed in [int(s) for s in argv] or [1, 2, 3, 7]:
        for workload in workloads.WORKLOADS:
            count, digest = replay(workload, seed)
            print("%s seed=%d jobs=%d sha256=%s"
                  % (workload, seed, count, digest))


if __name__ == "__main__":
    main(sys.argv[1:])
