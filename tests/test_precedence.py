"""Where the CLI takes each input from: flag over job file over
environment over default, and the order in which a bad source is
reported.

The matrix crosses an environment budget, a job file and flags, and
checks every run against ``expected``, the rule as README states it:
the job's command, then the environment, then the job's budgets object,
then each budget in field order, then each input, and the format last.
"""

import itertools
import json

import pytest

from fptcert.cli import main

COMMAND = "fpt-bound"
ARGV = [COMMAND, "--vars", "x,y", "--gens", "x^2+y^3"]
DEFAULTS = {"max_multisets": 10**6, "max_terms": 10**7, "max_dimension": 12}
VARIABLE = "FPTCERT_MAX_DIMENSION"
ABSENT = object()  # a key the job file leaves out

ENVS = [None, "50", "abc", "0"]
JOB_BUDGETS = [
    ABSENT,
    {"max_dimension": 30},
    {"max_dimension": 0},
    {"max_dimension": "30"},
    {"max_dimension": None},
    [],
    {"max_nothing": 1},
    {"max_dimension": 0, "max_multisets": "5"},  # the first field is reported
]
JOB_FORMATS = [ABSENT, "text", None, "", "xml"]
JOB_PS = [ABSENT, 3, 0]
JOB_COMMANDS = [ABSENT, COMMAND, "nu"]


def _job(command=ABSENT, budgets=ABSENT, format=ABSENT, p=ABSENT):
    keys = {"command": command, "budgets": budgets, "format": format, "p": p}
    return {key: value for key, value in keys.items() if value is not ABSENT}


def _jobs():
    """No job file; each job key on its own at every value; and every
    mix of a mismatched command, a bad budget, a bad or set format and
    a bad or set input."""
    jobs = [None]
    for key, values in (("command", JOB_COMMANDS), ("budgets", JOB_BUDGETS),
                        ("format", JOB_FORMATS), ("p", JOB_PS)):
        jobs += [_job(**{key: value}) for value in values]
    for mix in itertools.product([ABSENT, "nu"], [ABSENT, {"max_dimension": 0}, []],
                                 [ABSENT, "xml", "text"], [ABSENT, 0, 3]):
        jobs.append(_job(*mix))
    return jobs


FLAGS = [
    dict(zip(("max_dimension", "format", "p"), values))
    for values in itertools.product([None, 40, 0], [None, "json", "text"], [None, 5])
]


def _argv(flags, job_path):
    argv = list(ARGV)
    if flags["max_dimension"] is not None:
        argv += ["--max-dimension", str(flags["max_dimension"])]
    if flags["format"] is not None:
        argv += ["--format", flags["format"]]
    if flags["p"] is not None:
        argv += ["--p", str(flags["p"])]
    if job_path is not None:
        argv += ["--job", job_path]
    return argv


def expected(env, job, flags):
    """(exit code, error kind, message) for a refused run, or (0, the
    resolved budgets, p, output format) for an answered one."""
    job = {} if job is None else job
    if job.get("command", COMMAND) != COMMAND:
        return 2, "InputError", "job file is for command %r, invoked as %r" % (
            job["command"], COMMAND)
    if env == "abc":
        return 4, "BudgetExceeded", "environment variable %s='abc' is not an integer" % VARIABLE
    if env == "0":
        return 4, "BudgetExceeded", "environment variable %s must be positive" % VARIABLE
    budgets = dict(DEFAULTS, **({"max_dimension": int(env)} if env else {}))
    job_budgets = job.get("budgets", {})
    if not isinstance(job_budgets, dict):
        return 2, "InputError", "job budgets must be an object"
    for key in job_budgets:
        if key not in DEFAULTS:
            return 2, "InputError", "unknown budget %r in job file" % key
    for field in DEFAULTS:
        value = flags.get(field)
        if value is None:
            value = job_budgets.get(field)
        if value is None:
            continue
        if type(value) is not int:
            return 2, "InputError", "%s must be an integer" % field
        if value <= 0:
            return 2, "InputError", "%s must be positive" % field
        budgets[field] = value
    p = flags["p"] if flags["p"] is not None else job.get("p")
    if p is None:
        return 2, "InputError", "missing required input --p"
    if p < 2:
        return 2, "InputError", "--p must be at least 2"
    out_format = flags["format"] or job.get("format")
    if out_format not in (None, "json", "text"):
        return 2, "InputError", "job format must be 'json' or 'text'"
    return 0, budgets, p, out_format or "json"


def _outcome(capsys, argv):
    """expected's tuple, read off what main(argv) prints and returns."""
    code = main(argv)
    out, err = capsys.readouterr()
    if code:
        error = json.loads(out)["error"]
        assert err == "error: %s\n" % error["message"]
        return code, error["kind"], error["message"]
    assert err == ""
    if out.startswith("{"):
        echo = json.loads(out)["input"]
        assert list(echo) == ["variables", "generators", "p", "budgets"]
        return 0, echo["budgets"], echo["p"], "json"
    lines = out.splitlines()
    assert lines[:3] == ["command: " + COMMAND, 'input.variables: ["x","y"]',
                         'input.generators: ["x^2+y^3"]']
    p = int(lines[3].removeprefix("input.p: "))
    budgets = {}
    for line in lines[4:7]:
        key, value = line.removeprefix("input.budgets.").split(": ")
        budgets[key] = int(value)
    return 0, budgets, p, "text"


@pytest.mark.parametrize("env", ENVS, ids=lambda env: "env-%s" % env)
def test_precedence_matrix(tmp_path, capsys, monkeypatch, env):
    for name in DEFAULTS:
        monkeypatch.delenv("FPTCERT_" + name.upper(), raising=False)
    if env is not None:
        monkeypatch.setenv(VARIABLE, env)
    jobs = _jobs()
    paths = []
    for i, job in enumerate(jobs):
        if job is None:
            paths.append(None)
            continue
        path = tmp_path / ("job%d.json" % i)
        path.write_text(json.dumps(job))
        paths.append(str(path))
    outcomes = set()
    for (job, path), flags in itertools.product(zip(jobs, paths), FLAGS):
        want = expected(env, job, flags)
        assert _outcome(capsys, _argv(flags, path)) == want, (job, flags)
        outcomes.add(want[0] if want[0] else want[3])
    # a bad environment refuses every run but a mismatched command's;
    # otherwise the matrix reaches both refusals and both formats
    assert outcomes == ({2, 4} if env in ("abc", "0") else {2, "json", "text"})


@pytest.mark.parametrize("env,message", [
    ("abc", "environment variable %s='abc' is not an integer" % VARIABLE),
    ("0", "environment variable %s must be positive" % VARIABLE),
])
def test_environment_error_beats_a_flag_error(capsys, monkeypatch, env, message):
    """A bad environment budget is reported before a bad budget flag."""
    monkeypatch.setenv(VARIABLE, env)
    code = main(ARGV + ["--p", "5", "--max-dimension", "0"])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "BudgetExceeded", "message": message}
