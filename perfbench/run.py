"""fptcert benchmark: three workloads of CLI jobs, checked outputs,
end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload certify --seed 7 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
``src``).  Workloads (see ``jobs.py``):

* ``certify``  -- prime sweeps of fpt-bound, fvol-bound and verify-prime
  plus one classify per seeded generator tuple; LP-bound (simplex).
* ``oracle``   -- the ROADMAP oracle cases plus seeded nu, witness and
  fvol-count e-ladders; polynomial-multiplication-bound (polyring).
* ``enumerate`` -- the N=9 polytope, the 716,539-position carry scan
  and the period of 1/1000003, plus seeded polytope vertex listings,
  carry scans and long periods (geometry.vertices, basep).

Each job is one call of ``fptcert.cli.main(argv)`` in a worker process,
with stdout captured and checked (``checks.py``); the jobs form a closed
loop with one client.

``--trace 0`` measures ``setup_s`` (median time of a fresh
``python3 -m fptcert --version``: interpreter start, import and parser,
paid once per CLI call), then runs the first jobs of the seeded list in
one fresh worker, about ``--seconds`` of job time on the seed code:
jobs_per_s, job_p50_ms, job_p90_ms and the worker's peak_rss_mb.  All
times are converted to reference seconds against the host's current
speed (``hostspeed.py``); the report also prints the raw wall times.

``--trace 1`` runs a third as many jobs three times in fresh workers:
once untraced, then twice with spans around every layer
(``tracing.py``).  It reports the per-layer metrics of the faster traced
pass and the tracing overhead, and is not correct unless every count
repeats exactly in both traced passes.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock
from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Jobs per second of job time on the seed code (a 2-vCPU Xeon VM).  A
# run with --seconds S runs this rate times S jobs: a count fixed by S
# alone, so runs of one seed do the same work whatever the host's speed.
JOBS_PER_SECOND = {"certify": 70, "oracle": 75, "enumerate": 14}
SETUP_SAMPLES = 21
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, how it is read from the traced pass).
PER_LAYER = {
    "cli.self_s": ("s", "cli.main.self_s"),
    "polyring.parse_polynomial.calls": ("count", None),
    "polyring.parse_polynomial.self_s": ("s", None),
    "simplex.solve_lp.calls": ("count", None),
    "simplex.solve_lp.cells": ("count", None),
    "simplex.solve_lp.self_s": ("s", None),
    "geometry.maximal_point.calls": ("count", None),
    "geometry.maximal_point.self_s": ("s", None),
    "geometry.newton_min_diagonal.calls": ("count", None),
    "geometry.newton_min_diagonal.self_s": ("s", None),
    "geometry.vertices.calls": ("count", None),
    "geometry.vertices.bases": ("count", None),
    "geometry.vertices.yield": ("ratio", ("geometry.vertices.found", "geometry.vertices.bases")),
    "geometry.vertices.self_s": ("s", None),
    "basep.carry_horizon.calls": ("count", None),
    "basep.carry_horizon.positions": ("count", None),
    "basep.carry_horizon.self_s": ("s", None),
    "basep.digits.calls": ("count", None),
    "basep.digits.states": ("count", None),
    "basep.digits.self_s": ("s", None),
    "polyring.mul.calls": ("count", None),
    "polyring.mul.term_ops": ("count", None),
    "polyring.mul.self_s": ("s", None),
    "polyring.in_frobenius_power.calls": ("count", None),
    "polyring.in_frobenius_power.escape_share": (
        "ratio", ("polyring.in_frobenius_power.escapes", "polyring.in_frobenius_power.calls")),
    "polyring.in_frobenius_power.self_s": ("s", None),
    "thresholds.nu.calls": ("count", None),
    "thresholds.nu.self_s": ("s", None),
    "thresholds.coefficient_witness.self_s": ("s", None),
    "fvolume.fvolume_points.calls": ("count", None),
    "fvolume.fvolume_points.points": ("count", None),
    "fvolume.fvolume_points.self_s": ("s", None),
    "thresholds.fpt_bound.self_s": ("s", None),
    "fvolume.fvolume_lower_bound.self_s": ("s", None),
    "budgets.term_ops": ("count", None),
    "budgets.multisets": ("count", None),
}


class BenchmarkError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FPTCERT_MAX_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(samples=SETUP_SAMPLES):
    """Median (reference, wall) time of ``python3 -m fptcert --version``
    in a fresh interpreter, after one unmeasured call that writes the
    bytecode cache."""
    cmd = [sys.executable, "-m", "fptcert", "--version"]
    clock = HostClock()
    times, wall = [], []
    for i in range(samples + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchmarkError("fptcert --version failed: %s" % proc.stderr.decode()[-300:])
        if i:
            wall.append(elapsed)
            times.append(clock.scale(elapsed))
    return statistics.median(times), statistics.median(wall)


def run_worker(workload, seed, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + [str(x) for x in extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker %s timed out" % " ".join(extra))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError("worker failed: %s" % proc.stderr[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report_common(workload, result):
    n = len(result["latencies"])
    print("# %s: %d jobs, %d failed (failed_share %.4f), %d typed refusals (%.1f%%)" % (
        workload, n, result["failed"], result["failed"] / n,
        result["refused"], 100.0 * result["refused"] / n))
    for failure in result["failures"]:
        print("#   FAILED %s" % failure)
    print("# %s input properties: %s" % (workload, json.dumps(result["properties"])))
    for row in result["named"]:
        work = " ".join("%s=%s" % kv for kv in sorted(row.get("work", {}).items()))
        print("# %s named: %-36s %8.3f s %s" % (workload, row["name"], row["seconds"], work))


def run_jobs(workload, seconds):
    return max(1, round(JOBS_PER_SECOND[workload] * seconds))


def _quantiles(latencies):
    return statistics.median(latencies) * 1000, statistics.quantiles(latencies, n=10)[8] * 1000


def timed_run(workload, seed, seconds):
    """One fresh worker runs the jobs; it stops early if they take more
    than twice ``seconds`` of wall time."""
    setup_s, setup_wall = measure_setup()
    result = run_worker(workload, seed, "--jobs", run_jobs(workload, seconds),
                        "--max-seconds", 2 * seconds)
    latencies = result["latencies"]
    n = len(latencies)
    p50, p90 = _quantiles(latencies)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": n / sum(latencies),
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    _report_common(workload, result)
    wall = result["wall_latencies"]
    print("# %s wall clock: setup_s %.4f, jobs_per_s %.3f, job_p50_ms %.3f, job_p90_ms %.3f" % (
        (workload, setup_wall, n / sum(wall)) + _quantiles(wall)))
    samples = {"setup_s": SETUP_SAMPLES, "peak_rss_mb": 1}
    for name, value in metrics.items():
        print("# %s %-12s %12.4f %-4s (n=%d)" % (
            workload, name, value, END_TO_END_UNITS[name], samples.get(name, n)))
    if n < 100:
        print("# %s WARNING: %d jobs leave fewer than 10 samples beyond p90" % (workload, n))
    return n, result["failed"], {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()
    }


def _is_count(name):
    return name.endswith((".calls", "term_ops", "cells", "bases", "found", "positions",
                          "states", "points", "escapes", "multisets"))


def traced_run(workload, seed, seconds):
    plain = run_worker(workload, seed, "--jobs", run_jobs(workload, seconds / 3),
                       "--max-seconds", seconds)
    jobs = len(plain["latencies"])
    traced = [run_worker(workload, seed, "--jobs", jobs, "--trace") for _ in range(2)]
    traced.sort(key=lambda t: sum(t["latencies"]))
    raw = traced[0]["metrics"]
    # span times are wall seconds; convert them like the job times
    scale = sum(traced[0]["latencies"]) / sum(traced[0]["wall_latencies"])
    raw = {k: v * scale if k.endswith(".self_s") else v for k, v in raw.items()}
    counts = [{k: v for k, v in t["metrics"].items() if _is_count(k)} for t in traced]
    drift = sorted(k for k in set(counts[0]) | set(counts[1])
                   if counts[0].get(k) != counts[1].get(k))

    _report_common(workload, traced[0])
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        if isinstance(source, tuple):
            base = raw.get(source[1], 0)
            value = raw.get(source[0], 0) / base if base else 0.0
        else:
            value = raw.get(source or name, 0)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_share"] = {
        "value": 1 - sum(plain["latencies"]) / sum(traced[0]["latencies"]), "unit": "ratio"}

    self_times = {k[:-len(".self_s")]: v for k, v in raw.items() if k.endswith(".self_s")}
    total = sum(self_times.values())
    split = {}
    for span, spent in self_times.items():
        module = span.split(".")[0]
        split[module] = split.get(module, 0.0) + spent
    print("# %s self time by module: %s" % (workload, ", ".join(
        "%s %.1f%%" % (m, 100 * s / total) for m, s in sorted(split.items(), key=lambda kv: -kv[1]))))
    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:5]
    print("# %s largest self time: %s" % (workload, ", ".join(
        "%s %.3f s" % kv for kv in top)))
    for name, metric in metrics.items():
        print("# %s %-44s %14.6g %s" % (workload, name, metric["value"], metric["unit"]))
    if drift:
        print("# %s COUNTS DIFFER between traced passes: %s" % (workload, ", ".join(drift)))
    failed = plain["failed"] + traced[0]["failed"] + traced[1]["failed"]
    return 3 * jobs, failed, not drift, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the worker it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fptcert" / "cli.py").is_file():
        print("error: no fptcert sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, steady, metrics = traced_run(args.workload, args.seed, args.seconds)
        else:
            attempted, failed, metrics = timed_run(args.workload, args.seed, args.seconds)
            steady = True
    except BenchmarkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
