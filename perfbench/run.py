"""qmalcev benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): `check`, `decompose` and
`rebuild`, each a seeded list of CLI jobs whose outputs are checked.  The
workload runs in a child process of its own (perfbench/worker.py) with
src on PYTHONPATH and every QMALCEV_* variable removed from its
environment, so no knob can change the work measured.  Four more children
only set up, so set-up time is the median of five.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The end-to-end times are corrected for the load other tenants put on a
shared host by the yardstick in reference.py: they are close to seconds
on the undisturbed host that the yardstick was calibrated on.  The line before
the result is a JSON record with the same times as the wall clock read
them (`wall_clock`), the host load during the run, the machine, Python,
commit, job-count, dimension and nnz ranges, the failure rate and the
sha256 of all job outputs; the same record is written to
perfbench/results/.

--smoke runs toy-size job lists and sets up once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import AROUND_SETUP, YARDSTICK_S, yardsticks  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("check", "decompose", "rebuild")
SETUPS = 5             # set-up time is the median over this many processes
CHILD_TIMEOUT_S = 170  # the whole call must end within 180 s

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QMALCEV_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _child(args, extra, deadline):
    """Run worker.py to completion; returns (spawn time, yardstick times
    right before the spawn, its JSON report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)] + extra
    if args.smoke:
        cmd.append("--smoke")
    before = yardsticks(AROUND_SETUP)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError("workload process exited with %d"
                         % proc.returncode)
    try:
        return spawned, before, json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError("workload process printed no report") from exc


def tail(times):
    """(value, percentile): the highest percentile that still has at
    least ten jobs above it, or the largest time when there are fewer
    than eleven jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _times(jobs, setups):
    """The timing metrics from per-job and per-set-up seconds."""
    return {"jobs_per_s": len(jobs) / sum(jobs),
            "job_p50_s": statistics.median(jobs),
            "job_tail_s": tail(jobs)[0],
            "setup_s": statistics.median(setups)}


def _commit():
    """HEAD of the checkout, read without running git; None outside one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "qmalcev")):
        raise BenchError("no src/qmalcev under %s" % ROOT)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups, inputs = [], set()
    for _ in range(0 if args.smoke else SETUPS - 1):
        setups.append(_child(args, ["--setup-only"], deadline))
    setups.append(_child(args, [], deadline))
    rep = setups[-1][2]
    for _spawned, _before, child in setups:
        inputs.add(child["inputs_sha256"])

    # every time in yardstick units, reported as seconds on the host that
    # YARDSTICK_S was measured on (see reference.py)
    setup_raw = [child["setup_done"] - spawned
                 for spawned, _before, child in setups]
    setup_units = [raw / statistics.mean(before + child["setup_refs_s"])
                   for raw, (_s, before, child) in zip(setup_raw, setups)]
    job_s = [u * YARDSTICK_S for u in rep["job_units"]]
    raw = _times(rep["job_best_raw_s"], setup_raw)
    tail_pct = tail(job_s)[1]
    correct = rep["failed"] == 0 and len(inputs) == 1
    if args.trace:
        metrics = {name: {"value": rep["trace"]["metrics"][name],
                          "unit": unit}
                   for name, unit, _better in LAYER_METRICS}
    else:
        values = _times(job_s, [u * YARDSTICK_S for u in setup_units])
        values["peak_rss_mb"] = rep["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "jobs": rep["jobs"],
        "passes": rep["passes"],
        "dim_range": [min(rep["dims"]), max(rep["dims"])],
        "nnz_range": [min(rep["nnz"]), max(rep["nnz"])],
        "job_tail_percentile": tail_pct,
        "job_tail_jobs": len(job_s),
        "wall_clock": raw,
        "yardstick_median_s": rep["yardstick_median_s"],
        "host_load": rep["yardstick_median_s"] / YARDSTICK_S,
        "error_rate": rep["failed"] / rep["attempted"],
        "failures": rep["failures"],
        "setup_runs_s": setup_raw,
        "inputs_sha256": sorted(inputs),
        "outputs_sha256": rep["outputs_sha256"],
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "commit": _commit(),
    }
    if args.trace:
        record["trace_shares"] = rep["trace"]["shares"]
    result = {"correct": correct, "attempted": rep["attempted"],
              "failed": rep["failed"], "metrics": metrics}
    record["result"] = result
    return record, result


def _write_record(record):
    outdir = os.path.join(HERE, "results")
    os.makedirs(outdir, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (
        record["workload"], record["seed"], record["trace"],
        "-smoke" if record["smoke"] else "")
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size job lists, for the benchmark's tests")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the workload process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        record, result = run(args)
    except BenchError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    _write_record(record)
    summary = {k: v for k, v in record.items() if k != "result"}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
