"""One workload in its own process: set up, run the timed jobs, report.

Run by perfbench/run.py as
    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--smoke]
                                 [--setup-only]
from the repository root with src on PYTHONPATH.  Prints one JSON object
on stdout.

Every job calls `qmalcev.cli.run(argv)` in this process with the input on
stdin and stdout captured: one client, closed loop, no threads.  The job
list is run in whole passes for as long as another pass fits in SECONDS.
Each job is timed between two runs of the yardstick in reference.py; a
job's time is the median over the passes of its time in yardstick units.
Each job's best wall-clock time is reported too.  With TRACE=1 one
untraced pass is followed by one pass under the tracer.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import tracer as tracing
import workloads
from reference import AROUND_SETUP, yardstick, yardsticks


def _setup(workload, seed, smoke):
    """The job list and a digest of its inputs; also imports the CLI, so
    everything before the first timed job counts as set-up."""
    import qmalcev.cli  # noqa: F401

    jobs = workloads.build_jobs(workload, seed, smoke=smoke)
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(("%s\n%s\n" % (" ".join(job.argv), job.stdin))
                      .encode())
    return jobs, digest.hexdigest()


def _call(cli, job):
    """Run one job; returns (seconds, exit code or None, stdout, error)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = (io.StringIO(job.stdin), out,
                                         io.StringIO())
    error = None
    code = None
    start = time.perf_counter()
    try:
        code = cli.run(list(job.argv))
    except Exception as exc:  # a crash is a failed job, never a stop
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return elapsed, code, out.getvalue(), error


def _verify(cli, workload, job, code, out):
    """None when the job's result is right, else what is wrong."""
    if code != job.expect_exit:
        return "exit %r, expected %d" % (code, job.expect_exit)
    if workload == "check":
        report = json.loads(out)
        if report["passed"] != (job.expect_exit == 0):
            return "verdict %r" % report["passed"]
        anti = report["checks"]["anticommutativity"]
        if job.dropped is None:
            if not report["checks"]["malcev"]["passed"]:
                return "clean input failed the Malcev scan"
        elif (anti["failures"] != 1
              or anti["witnesses"][0]["index"] != list(job.dropped)):
            return "defect not witnessed at %r" % (job.dropped,)
        return None
    if workload == "decompose":
        rebuilt = workloads.Job(("rebuild", "-"), out, 0, job.dim, job.nnz)
        _t, rcode, rout, error = _call(cli, rebuilt)
        if error or rcode != 0 or rout != job.stdin:
            return "tree does not rebuild to the input (%s)" % (error or rcode)
        return None
    if out != job.expect_stdout:
        return "rebuilt document differs from the source"
    return None


def _run_pass(cli, workload, jobs, first):
    """One pass over the job list.  The first pass's results are checked
    and become the reference that later passes must repeat byte for byte.
    Returns (job times, job times in yardstick units, yardstick times,
    failure per job or None, results)."""
    times, ratios, refs, failures, results = [], [], [], [], []
    for idx, job in enumerate(jobs):
        gc.collect()
        before = yardstick()
        elapsed, code, out, error = _call(cli, job)
        after = yardstick()
        times.append(elapsed)
        ratios.append(2.0 * elapsed / (before + after))
        refs.extend((before, after))
        results.append((code, out))
        if error is None:
            if first is None:
                try:
                    error = _verify(cli, workload, job, code, out)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    error = "unreadable output: %s" % exc
            elif (code, out) != first[idx]:
                error = "output differs from the first pass"
        failures.append(error)
    return times, ratios, refs, failures, results


def main(argv):
    workload, seed, seconds, trace = (argv[0], int(argv[1]),
                                      float(argv[2]), int(argv[3]))
    smoke = "--smoke" in argv
    jobs, inputs_sha = _setup(workload, seed, smoke)
    setup_done = time.monotonic()
    # the yardstick right after set-up; run.py times it right before
    setup_refs = yardsticks(AROUND_SETUP)
    if "--setup-only" in argv:
        print(json.dumps({"setup_done": setup_done,
                          "setup_refs_s": setup_refs,
                          "inputs_sha256": inputs_sha}))
        return 0

    import qmalcev.cli as cli

    start = time.monotonic()
    times, ratios, refs, failures, first = _run_pass(cli, workload, jobs,
                                                     None)
    passes, ratio_passes = [times], [ratios]
    failed = [f for f in failures if f]
    digest = hashlib.sha256()
    for idx, (code, out) in enumerate(first):
        digest.update(("%d\t%r\n" % (idx, code)).encode())
        digest.update(out.encode())

    trace_report = None
    if trace:
        # one traced pass after the untraced one
        tracer = tracing.Tracer().install()
        tracer.active = True
        _times, traced, _refs, failures, _results = _run_pass(
            cli, workload, jobs, first)
        tracer.active = False
        failed.extend(f for f in failures if f)
        values, shares = tracer.summary(len(jobs))
        # traced / untraced jobs per second over the same job list, from
        # the times in yardstick units
        values["trace.overhead_ratio"] = sum(ratios) / sum(traced)
        trace_report = {"metrics": values, "shares": shares}
        runs = 2
    else:
        # another pass only while it still fits in SECONDS
        last = time.monotonic() - start
        while time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            times, ratios, more, failures, _results = _run_pass(
                cli, workload, jobs, first)
            last = time.monotonic() - began
            passes.append(times)
            ratio_passes.append(ratios)
            refs.extend(more)
            failed.extend(f for f in failures if f)
        runs = len(passes)

    n = len(jobs)
    print(json.dumps({
        "setup_done": setup_done,
        "setup_refs_s": setup_refs,
        "inputs_sha256": inputs_sha,
        "outputs_sha256": digest.hexdigest(),
        "jobs": n,
        "passes": runs,
        "attempted": n * runs,
        "failed": len(failed),
        "failures": failed[:8],
        "yardstick_median_s": statistics.median(refs),
        "job_units": [statistics.median(p[i] for p in ratio_passes)
                      for i in range(n)],
        "job_best_raw_s": [min(p[i] for p in passes) for i in range(n)],
        "dims": [j.dim for j in jobs],
        "nnz": [j.nnz for j in jobs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trace": trace_report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
