"""Replay the benchmark job lists and print one digest per list.

    python tests/replay_jobs.py [SEED ...]       (default seeds: 1 2 3 7)

For each seed, the `check`, `decompose` and `rebuild` job lists are built
with `perfbench/workloads.py` and every job is run through
`qmalcev.cli.run` in this process, its stdin the job's text.  One line is
printed per list: workload, seed, job count, and the sha256 of every job's
exit code, stdout and stderr in turn.  Run it in two checkouts and compare
the lines to show that a change keeps every output byte.

The checkout that holds this file is put first on `sys.path`, its `src/`
and `perfbench/`, so the replay tests that checkout whatever PYTHONPATH
says.  pytest does not collect this file.
"""

import hashlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from qmalcev import cli  # noqa: E402


def replay(workload, seed):
    """(job count, sha256 hex digest) of one job list."""
    jobs = workloads.build_jobs(workload, seed)
    digest = hashlib.sha256()
    saved = sys.stdin, sys.stdout, sys.stderr
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin), out, err
        try:
            code = cli.run(list(job.argv))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        for part in (str(code), out.getvalue(), err.getvalue()):
            data = part.encode()
            digest.update(b"%d:" % len(data) + data)
    return len(jobs), digest.hexdigest()


def main(argv):
    for seed in [int(s) for s in argv] or [1, 2, 3, 7]:
        for workload in workloads.WORKLOADS:
            count, digest = replay(workload, seed)
            print("%s seed=%d jobs=%d sha256=%s"
                  % (workload, seed, count, digest))


if __name__ == "__main__":
    main(sys.argv[1:])
