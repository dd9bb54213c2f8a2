"""Tests of the benchmark's own code: the seeded job lists, the
independent references the checker uses, and the checker itself on
real and tampered outputs.

    python3 -m pytest perfbench -q
"""

import json

import pytest

import jobs
import worker
from checks import Checker, horizon, volume_count

import fptcert.cli as cli


COMMANDS = {"polytope", "digits", "carry", "fpt-bound", "nu", "fpt-estimate", "classify",
            "verify-prime", "fvol-bound", "fvol-count", "fvol-estimate", "witness"}


def argvs(workload, seed, length=300):
    return [job.argv for job in jobs.job_list(workload, seed, length)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert argvs(workload, 3) == argvs(workload, 3)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_other_jobs(workload):
    assert argvs(workload, 3) != argvs(workload, 4)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_jobs_are_argv_lists_of_strings(workload):
    for argv in argvs(workload, 1):
        assert argv[0] in COMMANDS
        assert all(isinstance(a, str) for a in argv)


def test_named_cases_lead_their_lists():
    oracle = argvs("oracle", 8)
    assert oracle[0][-4:] == ["--p", "5", "--e", "3"]
    enumerate_ = argvs("enumerate", 8)
    assert [a[0] for a in enumerate_[:3]] == ["polytope", "carry", "digits"]


def test_budget_environment_is_cleared():
    environ = {"FPTCERT_MAX_TERMS": "5", "FPTCERT_MAX_DIMENSION": "x", "HOME": "/h"}
    worker.clear_budget_env(environ)
    assert environ == {"HOME": "/h"}


def test_volume_count_closed_form():
    assert [volume_count(1, 2, 2, e) for e in range(1, 8)] == [3 * 4 ** (e - 1) for e in range(1, 8)]


def test_carry_block_horizon_from_construction():
    _, first_carry = jobs.carry_block(3, (97, 89, 83))
    assert first_carry + 1 == 716539
    assert jobs.carry_block(2, (5, 7, 11))[1] == 34


def test_horizon_reference():
    from fractions import Fraction as F

    assert horizon([F(1, 3), F(1, 3)], 2) == 1
    assert horizon([F(1, 3)], 7) == "inf"


def run(argv):
    code, out, _ = worker.run_cli(cli, argv)
    return code, out


@pytest.mark.parametrize("workload,count", [("certify", 60), ("oracle", 40), ("enumerate", 12)])
def test_checker_accepts_the_program(workload, count):
    checker = Checker()
    job_list = jobs.job_list(workload, 2, 400)
    if workload != "certify":
        job_list = job_list[3:]  # skip the slow named cases
    for job in job_list[:count]:
        assert checker.check(job, *run(job.argv)) is None, job


def test_checker_rejects_tampered_outputs():
    job_list = jobs.job_list("enumerate", 2, 400)
    carry = next(j for j in job_list[3:] if j.check == "carry")
    code, out = run(carry.argv)
    payload = json.loads(out)
    payload["result"]["S"] += 1
    assert Checker().check(carry, code, json.dumps(payload)) is not None

    certify = jobs.job_list("certify", 2, 19)
    checker = Checker()
    for job in certify:
        code, out = run(job.argv)
        if job.check == "fpt-bound" and code == 0:
            payload = json.loads(out)
            payload["result"]["value"] = "1/1000"
            assert checker.check(job, code, json.dumps(payload)) is not None
            break
        assert checker.check(job, code, out) is None
    else:
        pytest.fail("no certified fpt-bound job in the first tuple")

    assert Checker().check(carry, 4, '{"error": {"kind": "BudgetExceeded"}}') is not None


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    per_layer["trace.overhead_share"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
