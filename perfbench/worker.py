"""Run the jobs of one workload through ``fptcert.cli.main`` in this
process, one after another (a closed loop with one client), and print
one JSON line with what happened.

    python3 perfbench/worker.py --workload W --seed N --jobs K [--max-seconds S] [--trace]
    python3 perfbench/worker.py --workload W --seed 1 --jobs K --record

The worker runs the first K jobs of the seeded list, traced or not,
and stops early once the jobs' own wall time passes S seconds;
``--record`` prints the stdout digests of the first K jobs instead.  Each
job's time is also converted to reference seconds (``hostspeed.py``).
Each job's stdout is captured and checked after its clock stops, so
checks never count as job time.  FPTCERT_MAX_* variables are cleared, so every job runs
with the default budgets.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs as joblists  # noqa: E402
from checks import Checker  # noqa: E402
from hostspeed import HostClock  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"
WARMUP = (
    ["fpt-bound", "--vars", "x,y,z", "--gens", "x^2+x*y^2,y*z^3", "--p", "2"],
    ["nu", "--vars", "x,y", "--gens", "x^2+y^3", "--p", "2", "--e", "2"],
    ["digits", "--alpha", "1/7", "--p", "2"],
)


def clear_budget_env(environ):
    for key in [k for k in environ if k.startswith("FPTCERT_MAX_")]:
        del environ[key]


def run_cli(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception is a failed job, not a crash
            code = -1
            out.write(traceback.format_exc(limit=-1))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _spread(values):
    if not values:
        return None
    values = sorted(values)
    return [values[0], values[len(values) // 2], values[-1]]


def input_properties(executed):
    """Share of jobs whose exponent matrix appeared earlier in the run,
    and the min/median/max of N, q = p^e and the carry or period
    window over the jobs run."""
    seen, with_matrix, repeats = set(), 0, 0
    for job in executed:
        key = job.props.get("matrix")
        if key is None:
            continue
        with_matrix += 1
        repeats += key in seen
        seen.add(key)
    return {
        "matrix_jobs": with_matrix,
        "repeat_share": repeats / with_matrix if with_matrix else None,
        "N": _spread([j.props["N"] for j in executed if "N" in j.props]),
        "q": _spread([j.props["q"] for j in executed if "q" in j.props]),
        "window": _spread([j.props["window"] for j in executed if "window" in j.props]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--max-seconds", type=float, default=float("inf"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    clear_budget_env(os.environ)
    import fptcert.cli as cli

    joblist = joblists.job_list(args.workload, args.seed)
    if args.record:
        print(json.dumps([digest(run_cli(cli, job.argv)[1]) for job in joblist[:args.jobs]]))
        return 0

    for argv_ in WARMUP:
        run_cli(cli, argv_)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    recorded = None
    if args.seed == DEFAULT_SEED and DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload)

    checker = Checker()
    clock = HostClock()
    latencies, wall, failures, executed, named = [], [], [], [], []
    index = refused = 0
    spent = 0.0
    while index < args.jobs and spent < args.max_seconds:
        job = joblist[index % len(joblist)]
        before = tracer.metrics() if tracer and "named" in job.props else None
        code, out, elapsed = run_cli(cli, job.argv)
        spent += elapsed
        wall.append(elapsed)
        latencies.append(clock.scale(elapsed))
        executed.append(job)
        reason = checker.check(job, code, out)
        refused += code != 0 and reason is None
        if reason is None and recorded is not None and index < len(recorded):
            if digest(out) != recorded[index]:
                reason = "stdout digest differs from the recorded one"
        if reason is not None:
            failures.append("%s: %s" % (" ".join(job.argv)[:120], reason))
        if "named" in job.props:
            row = {"name": job.props["named"], "seconds": latencies[-1]}
            if before is not None:
                after = tracer.metrics()
                row["work"] = {k: after[k] - before.get(k, 0) for k in after
                               if k.endswith((".calls", "bases", "positions", "term_ops", "states"))
                               and after[k] != before.get(k, 0)}
            named.append(row)
        index += 1

    result = {
        "latencies": latencies,
        "wall_latencies": wall,
        "failed": len(failures),
        "refused": refused,
        "failures": failures[:5],
        "named": named,
        "properties": input_properties(executed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
