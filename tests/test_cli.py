"""Command-line driver: JSON envelope, job files, formats, exit codes."""

import argparse
import importlib.metadata
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fptcert
from fptcert import cli
from fptcert.budgets import Budgets
from fptcert.cli import (
    _COMMANDS,
    _FLAGS,
    _build_parser,
    _flag,
    _norm_fraction,
    _parse_args,
    main,
)
from fptcert.errors import BudgetExceeded, InputError
from test_parse_differential import random_text

REPO_ROOT = Path(__file__).resolve().parents[1]

PAIR = ["--vars", "x,y,z", "--gens", "x^2+x*y^2,y*z^3"]
FERMAT6 = [
    "--vars",
    "x1,x2,x3,x4,x5,x6",
    "--gens",
    "x1^2+x2^3+x3^4,x4^2+x5^3+x6^4",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_envelope_shape_and_version(capsys):
    code, payload, err = run_json(capsys, "fpt-bound", *PAIR, "--p", "2")
    assert code == 0
    assert err == ""
    assert list(payload) == ["command", "input", "result", "version"]
    assert payload["command"] == "fpt-bound"
    assert payload["version"] == "0.1.0"
    assert payload["input"]["generators"] == ["x^2+x*y^2", "y*z^3"]
    assert payload["input"]["p"] == 2
    assert set(payload["input"]["budgets"]) == {
        "max_multisets",
        "max_terms",
        "max_dimension",
    }


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "polytope", *PAIR)
    _, second, _ = run(capsys, "polytope", *PAIR)
    assert first == second


def test_fpt_bound_result(capsys):
    _, payload, _ = run_json(capsys, "fpt-bound", *PAIR, "--p", "2")
    assert payload["result"] == {
        "p": 2,
        "kind": "lower_bound",
        "value": "5/6",
        "upper_bound": "1",
        "rho": [["1/3", "1/3"], ["1/3"]],
        "S": [1, "inf"],
        "I": [0],
    }


def test_polytope_result(capsys):
    _, payload, _ = run_json(capsys, "polytope", *PAIR)
    result = payload["result"]
    assert result["block_sizes"] == [2, 1]
    assert result["matrix"] == [[2, 1, 0], [0, 2, 1], [0, 0, 3]]
    assert result["M"] == "1"
    assert result["rho"] == [["1/3", "1/3"], ["1/3"]]
    assert result["unique"] is True
    assert result["coordinate_ranges"] is None
    assert len(result["vertices"]) == 8
    assert ["1/3", "1/3", "1/3"] in result["vertices"]


def test_polytope_non_unique(capsys):
    code, payload, _ = run_json(
        capsys, "polytope", "--vars", "x,y,z", "--gens", "x+x*y^2,y*z^2"
    )
    assert code == 0
    result = payload["result"]
    assert result["unique"] is False
    assert result["rho"] is None
    assert result["M"] == "3/2"
    assert result["coordinate_ranges"] == [
        ["3/4", "1"],
        ["0", "1/4"],
        ["1/2", "1/2"],
    ]


def test_digits(capsys):
    _, payload, _ = run_json(
        capsys, "digits", "--alpha", "1/3", "--p", "2", "--count", "6"
    )
    assert payload["result"] == {
        "alpha": "1/3",
        "p": 2,
        "preperiod": [],
        "period": [0, 1],
        "prefix": [0, 1, 0, 1, 0, 1],
    }
    _, payload, _ = run_json(capsys, "digits", "--alpha", "1/3", "--p", "2")
    assert len(payload["result"]["prefix"]) == 12


def test_digits_count_budget(capsys):
    """The prefix is charged one multiset per digit before it is built,
    so a huge --count is refused instead of allocated."""
    argv = ["digits", "--alpha", "1/3", "--p", "2", "--max-multisets", "5"]
    code, payload, _ = run_json(capsys, *argv, "--count", "5")
    assert code == 0
    assert payload["result"]["prefix"] == [0, 1, 0, 1, 0]
    code, payload, _ = run_json(capsys, *argv, "--count", "6")
    assert code == 4
    assert payload["error"] == {
        "kind": "BudgetExceeded",
        "message": "multiset budget exhausted (6 > 5)",
    }
    code, payload, _ = run_json(capsys, *argv[:-1], "1000", "--count", "1000000000")
    assert code == 4
    assert payload["error"]["message"] == "multiset budget exhausted (1001 > 1000)"


def test_carry(capsys):
    _, payload, _ = run_json(capsys, "carry", "--block", "1/3,1/3", "--p", "2")
    assert payload["result"] == {"block": ["1/3", "1/3"], "p": 2, "S": 1}
    _, payload, _ = run_json(capsys, "carry", "--block", "1/3,1/3", "--p", "7")
    assert payload["result"]["S"] == "inf"
    # the residue search is charged to the multiset budget: 29 classes
    # for 1/(2^L - 1), L = 19, 17, 5
    block = ["--block", "1/524287,1/131071,1/31", "--p", "2"]
    _, payload, _ = run_json(capsys, "carry", *block, "--max-multisets", "29")
    assert payload["result"]["S"] == 84
    code, payload, _ = run_json(capsys, "carry", *block, "--max-multisets", "28")
    assert code == 4
    assert payload["error"]["kind"] == "BudgetExceeded"


def test_nu_and_estimate(capsys):
    _, payload, _ = run_json(capsys, "nu", *PAIR, "--p", "2", "--e", "2")
    assert payload["result"] == {"p": 2, "e": 2, "nu": 2, "ratio": "1/2"}
    _, payload, _ = run_json(
        capsys, "fpt-estimate", *PAIR, "--p", "2", "--e-max", "3"
    )
    assert payload["result"]["rows"] == [
        [1, 0, "0", "0.000000"],
        [2, 2, "1/2", "0.500000"],
        [3, 5, "5/8", "0.625000"],
    ]


def test_classify_and_verify_prime(capsys):
    _, payload, _ = run_json(capsys, "classify", *FERMAT6)
    result = payload["result"]
    assert result["case"] == "diagonal_above_t"
    assert result["value"] == "2"
    assert result["t"] == 2
    assert result["checked_primes"] == []
    assert result["failed_hypothesis"] is None

    _, payload, _ = run_json(capsys, "verify-prime", *FERMAT6, "--p", "5")
    verdict = payload["result"]["verdict"]
    check = payload["result"]["check"]
    assert verdict["checked_primes"] == [[5, True]]
    assert check["holds"] is True
    assert check["predicate_member"] is False
    assert check["newton_preserved"] is True
    assert check["certificate_value"] == "2"
    assert check["big_enough_caveat"] is True


def test_fvol_bound(capsys):
    _, payload, _ = run_json(
        capsys, "fvol-bound", "--vars", "x,y", "--gens", "x,x+y^2", "--p", "2"
    )
    assert payload["result"] == {"p": 2, "bound": "1/2", "counts": []}
    _, payload, _ = run_json(
        capsys,
        "fvol-bound",
        "--vars",
        "x,y",
        "--gens",
        "x,x+y^2",
        "--p",
        "2",
        "--counts-e-max",
        "2",
    )
    assert payload["result"]["counts"] == [[1, 3, "3/4"], [2, 12, "3/4"]]


def test_fvol_count_and_estimate(capsys):
    _, payload, _ = run_json(
        capsys,
        "fvol-count",
        "--vars",
        "x,y",
        "--ideals",
        "x;x+y^2",
        "--p",
        "2",
        "--e",
        "1",
    )
    assert payload["result"] == {"p": 2, "e": 1, "count": 3}
    assert payload["input"]["ideals"] == [["x"], ["x+y^2"]]
    _, payload, _ = run_json(
        capsys,
        "fvol-estimate",
        "--vars",
        "x,y",
        "--ideals",
        "x;x+y^2",
        "--p",
        "2",
        "--e-max",
        "2",
    )
    assert payload["result"]["rows"] == [
        [1, 3, "3/4", "0.750000"],
        [2, 12, "3/4", "0.750000"],
    ]


def test_witness(capsys):
    _, payload, _ = run_json(capsys, "witness", *PAIR, "--p", "7", "--e", "1")
    result = payload["result"]
    assert result["match"] is True
    assert result["expected"] == 6
    assert result["actual"] == 6
    assert result["target"] == [6, 6, 6]
    assert result["blocks"][0] == {
        "Q": 4,
        "parts": [2, 2],
        "multinomial_mod_p": 6,
        "coefficient_power_mod_p": 1,
    }


def test_witness_digit_near_2_31_under_a_memory_cap():
    """At p = 2^31 - 1 a base-p digit of the exponents is near 2^31.  The
    witness used to build a list of one reference per unit of that digit,
    which exited 1 with a MemoryError traceback under a 1 GiB address
    space.  It now stops at the term cap with the JSON error (exit 4).
    The cap is set in the child only."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from fptcert.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["witness", "--vars", "x,y", "--gens", "x^2+y^3", "--p", "2147483647",
            "--e", "1", "--max-terms", "100000"]
    package_root = Path(fptcert.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    message = "term-operation budget exhausted (100172 > 100000)"
    assert (proc.returncode, proc.stderr) == (4, "error: %s\n" % message)
    assert json.loads(proc.stdout)["error"] == {"kind": "BudgetExceeded", "message": message}


DEFAULT_BUDGETS ={"max_multisets": 10**6, "max_terms": 10**7, "max_dimension": 12}
PAIR_ECHO = {"variables": ["x", "y", "z"], "generators": ["x^2+x*y^2", "y*z^3"]}
FERMAT6_ECHO = {
    "variables": ["x1", "x2", "x3", "x4", "x5", "x6"],
    "generators": ["x1^2+x2^3+x3^4", "x4^2+x5^3+x6^4"],
}
LINE_PARABOLA = ["--vars", "x,y", "--gens", "x, x+y^2"]
LINE_PARABOLA_ECHO = {"variables": ["x", "y"], "generators": ["x", "x+y^2"]}
IDEALS = ["--vars", "x,y", "--ideals", "x;x+y^2"]
IDEALS_ECHO = {"variables": ["x", "y"], "ideals": [["x"], ["x+y^2"]]}

INPUT_ECHO = [
    (["polytope", *PAIR], {**PAIR_ECHO, "p": None}),
    (["digits", "--alpha", " 2/6", "--p", "2"], {"alpha": "1/3", "p": 2, "count": 12}),
    (["carry", "--block", "1/3, 2/6", "--p", "2"], {"block": ["1/3", "1/3"], "p": 2}),
    (["fpt-bound", *PAIR, "--p", "2"], {**PAIR_ECHO, "p": 2}),
    (["nu", *PAIR, "--p", "2", "--e", "1"], {**PAIR_ECHO, "p": 2, "e": 1}),
    (
        ["fpt-estimate", *PAIR, "--p", "2", "--e-max", "1"],
        {**PAIR_ECHO, "p": 2, "e_max": 1},
    ),
    (["classify", *FERMAT6], FERMAT6_ECHO),
    (["verify-prime", *FERMAT6, "--p", "5"], {**FERMAT6_ECHO, "p": 5}),
    (
        ["fvol-bound", *LINE_PARABOLA, "--p", "2"],
        {**LINE_PARABOLA_ECHO, "p": 2, "counts_e_max": None},
    ),
    (
        ["fvol-count", *IDEALS, "--p", "2", "--e", "1"],
        {**IDEALS_ECHO, "p": 2, "e": 1},
    ),
    (
        ["fvol-estimate", *IDEALS, "--p", "2", "--e-max", "1"],
        {**IDEALS_ECHO, "p": 2, "e_max": 1},
    ),
    (["witness", *PAIR, "--p", "7", "--e", "1"], {**PAIR_ECHO, "p": 7, "e": 1}),
]


@pytest.mark.parametrize(
    "argv,expected", INPUT_ECHO, ids=[argv[0] for argv, _ in INPUT_ECHO]
)
def test_input_echo(capsys, monkeypatch, argv, expected):
    """The input echo lists the normalized inputs in a fixed order, with
    resolved defaults, nulls for absent optional inputs, and budgets last."""
    for name in ("FPTCERT_MAX_MULTISETS", "FPTCERT_MAX_TERMS", "FPTCERT_MAX_DIMENSION"):
        monkeypatch.delenv(name, raising=False)
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert list(payload["input"]) == [*expected, "budgets"]
    assert payload["input"] == {**expected, "budgets": DEFAULT_BUDGETS}


def test_rationals_round_trip(capsys):
    from fractions import Fraction

    _, payload, _ = run_json(capsys, "fpt-bound", *PAIR, "--p", "5")
    assert Fraction(payload["result"]["value"]) == Fraction(14, 15)
    for block in payload["result"]["rho"]:
        for entry in block:
            Fraction(entry)


def test_missing_input_exit_two(capsys):
    code, payload, err = run_json(capsys, "fpt-bound", *PAIR)
    assert code == 2
    assert payload == {
        "error": {"kind": "InputError", "message": "missing required input --p"}
    }
    assert err.startswith("error: missing required input --p")


def test_parse_error_exit_two(capsys):
    code, payload, _ = run_json(
        capsys, "fpt-bound", "--vars", "x,y", "--gens", "x^", "--p", "2"
    )
    assert code == 2
    assert payload["error"]["kind"] == "ParseError"


def test_polynomial_text_never_crashes(capsys):
    """Seeded random --gens text, a digit that int() rejects and an
    exponent past the int string-conversion limit: every run exits 0, 2
    or 3 and prints exactly one JSON document."""
    rng = random.Random(12)
    texts = [random_text(rng) for _ in range(600)]
    for text in texts + ["x^\u00b2+y", "x^" + "1" * 4301 + "+y"]:
        code, out, _ = run(capsys, "classify", "--vars", "x,y,z", "--gens=" + text)
        assert code in (0, 2, 3), text
        json.loads(out)
    for text in ("x^\u00b2+y", "x^" + "1" * 4301 + "+y"):
        code, payload, _ = run_json(
            capsys, "fpt-bound", "--vars", "x,y", "--gens", text, "--p", "2"
        )
        assert code == 2
        assert payload["error"]["kind"] == "ParseError"
        assert payload["error"]["message"].endswith("(at position 2)")


def test_composite_p_exit_two(capsys):
    code, payload, _ = run_json(capsys, "fpt-bound", *PAIR, "--p", "6")
    assert code == 2
    assert payload["error"]["kind"] == "InputError"


def test_alpha_range_exit_two(capsys):
    for alpha in ("0", "3/2"):
        code, payload, _ = run_json(
            capsys, "digits", "--alpha", alpha, "--p", "2"
        )
        assert code == 2
    code, payload, _ = run_json(capsys, "digits", "--alpha=-1/3", "--p", "2")
    assert code == 2
    code, payload, _ = run_json(capsys, "digits", "--alpha", "1/0", "--p", "2")
    assert code == 2


def test_hypothesis_exit_three(capsys):
    code, payload, _ = run_json(
        capsys, "fpt-bound", "--vars", "x,y,z", "--gens", "x+x*y^2,y*z^2",
        "--p", "2"
    )
    assert code == 3
    assert payload["error"]["kind"] == "NonUniqueMaximalPoint"


def test_budget_exit_four(capsys):
    code, payload, _ = run_json(
        capsys, "nu", *PAIR, "--p", "2", "--e", "2", "--max-multisets", "2"
    )
    assert code == 4
    assert payload["error"]["kind"] == "BudgetExceeded"
    code, payload, _ = run_json(
        capsys, "nu", *PAIR, "--p", "2", "--e", "2", "--max-multisets", "0"
    )
    assert code == 2


def test_deep_climb_exit_four(capsys):
    # a level's box is built only when the climb reaches it, so a huge e
    # stops at the multiset cap after a few cheap levels
    code, payload, _ = run_json(
        capsys, "nu", "--vars", "x", "--gens", "x", "--p", "2", "--e", "12000",
        "--max-multisets", "1000"
    )
    assert code == 4
    assert payload["error"]["kind"] == "BudgetExceeded"


def test_count_past_an_index(capsys):
    # V(2^63) of (x) is {0, ..., 2^63 - 1}: 2^63 points, one more than
    # len() can return
    cap = ["--p", "2", "--e", "63", "--max-multisets", str(10**23)]
    code, payload, _ = run_json(capsys, "nu", "--vars", "x", "--gens", "x", *cap)
    assert code == 0
    assert payload["result"]["nu"] == 2**63 - 1
    code, payload, _ = run_json(capsys, "fvol-count", "--vars", "x", "--ideals", "x", *cap)
    assert code == 0
    assert payload["result"]["count"] == 2**63


# Exponents 2^127 - 1 and 2^131 - 1: the carry horizon is 16,636, so the
# certificate's denominators have over 5,000 digits.
MERSENNE = [
    "--vars", "x,y", "--gens", "x^%d+y^%d" % (2**127 - 1, 2**131 - 1), "--p", "2"
]


@pytest.fixture
def int_text_limit():
    """sys.set_int_max_str_digits, the default limit set first and the
    caller's restored after the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ["fpt-bound", *MERSENNE],
        ["fvol-bound", *MERSENNE],
        ["verify-prime", *MERSENNE],
        ["witness", "--vars", "x", "--gens", "x", "--p", "2", "--e", "15000"],
        # M = 1/a + 1/b has a denominator of 4,401 digits
        ["polytope", "--vars", "x,y",
         "--gens", "x^%d+y^%d" % (10**2200 + 1, 10**2200 + 3)],
    ],
    ids=lambda argv: argv[0],
)
def test_int_text_limit_exit_four(capsys, int_text_limit, argv):
    code, payload, err = run_json(capsys, *argv)
    assert code == 4
    assert payload["error"]["kind"] == "BudgetExceeded"
    message = payload["error"]["message"]
    assert "4300" in message and "PYTHONINTMAXSTRDIGITS" in message
    assert err == "error: %s\n" % message


def test_int_text_limit_lifted(capsys, int_text_limit):
    int_text_limit(0)
    code, out, err = run(capsys, "fpt-bound", *MERSENNE)
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["S"] == [16636]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b'{"p": ' + b"7" * 5000 + b"}"],
    ids=["not-utf8", "int-past-text-limit"],
)
def test_job_file_unreadable_json(tmp_path, capsys, int_text_limit, content):
    job = tmp_path / "job.json"
    job.write_bytes(content)
    code, payload, err = run_json(capsys, "fpt-bound", *PAIR, "--job", str(job))
    assert code == 2
    assert payload["error"]["kind"] == "InputError"
    assert payload["error"]["message"].startswith("job file is not valid JSON: ")
    assert err == "error: %s\n" % payload["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["digits", "--alpha", "1e-30000000", "--p", "2"],
        ["digits", "--alpha", "2.5E+30000000", "--p", "2"],
        ["carry", "--block", "1e-30000000,1/2", "--p", "2"],
    ],
)
def test_exponent_past_int_text_limit_is_refused_fast(capsys, int_text_limit, argv):
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, *argv)
    assert time.perf_counter() - start < 5  # well under the time to build 10**30000000
    assert code == 4
    assert payload["error"] == {
        "kind": "BudgetExceeded",
        "message": "a result integer has more than 4300 digits, the int-to-text "
                   "limit (PYTHONINTMAXSTRDIGITS)",
    }


def test_exponent_notation_within_the_limit_or_zero(capsys, int_text_limit):
    for zero in ("0e-5000", "0.00E+5000", "0e-30000000", "0E+30000000"):
        start = time.perf_counter()
        out = run(capsys, "carry", "--block", zero + ",1/2", "--p", "2")
        assert time.perf_counter() - start < 5  # as fast as the refusals above
        assert out == run(capsys, "carry", "--block", "0,1/2", "--p", "2")
    # the refusal needs a part past the limit: 1000e-4302 is 1/10**4299
    assert _norm_fraction("1000e-4302", "--alpha") == Fraction(1, 10**4299)
    assert _norm_fraction("1_0e-1_0", "--alpha") == Fraction(1, 10**9)
    with pytest.raises(BudgetExceeded, match="4300 digits"):
        _norm_fraction("1e-4302", "--alpha")
    for text in ("1/2e9999", "1e 99999999", "e99999999", "1e99999999_"):
        with pytest.raises(InputError, match="Invalid literal for Fraction: '%s'" % text):
            _norm_fraction(text, "--alpha")


def test_env_budgets(capsys, monkeypatch):
    monkeypatch.setenv("FPTCERT_MAX_MULTISETS", "2")
    code, _, _ = run_json(capsys, "nu", *PAIR, "--p", "2", "--e", "2")
    assert code == 4
    # an explicit flag overrides the environment
    code, payload, _ = run_json(
        capsys, "nu", *PAIR, "--p", "2", "--e", "2", "--max-multisets", "100000"
    )
    assert code == 0
    assert payload["result"]["nu"] == 2
    monkeypatch.setenv("FPTCERT_MAX_TERMS", "not a number")
    code, payload, _ = run_json(
        capsys, "nu", *PAIR, "--p", "2", "--e", "2", "--max-multisets", "100000"
    )
    assert code == 4


def test_env_budget_must_be_positive():
    with pytest.raises(BudgetExceeded, match="must be positive"):
        Budgets.from_env({"FPTCERT_MAX_TERMS": "0"})


def test_certificate_budgets(tmp_path, capsys, monkeypatch):
    """fpt-bound, fvol-bound and verify-prime charge their first-carry
    searches to the resolved budgets: x^2+y^3 at p=5 has rho = (1/2,
    1/3), whose search takes 2 classes; verify-prime runs it once and
    reads the carry-free predicate off the certificate's horizons."""
    gens = ["--vars", "x,y", "--gens", "x^2+y^3", "--p", "5"]
    for command, edge in (("fpt-bound", 2), ("fvol-bound", 2), ("verify-prime", 2)):
        code, payload, _ = run_json(capsys, command, *gens, "--max-multisets", str(edge))
        assert code == 0
        assert payload["input"]["budgets"]["max_multisets"] == edge
        code, payload, _ = run_json(capsys, command, *gens, "--max-multisets", str(edge - 1))
        assert code == 4
        assert payload["error"] == {
            "kind": "BudgetExceeded",
            "message": "multiset budget exhausted (%d > %d)" % (edge, edge - 1),
        }
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "fpt-bound", "vars": "x,y", "gens": "x^2+y^3",
                               "p": 5, "budgets": {"max_multisets": 1}}))
    assert run_json(capsys, "fpt-bound", "--job", str(job))[0] == 4
    # the flag beats the environment
    monkeypatch.setenv("FPTCERT_MAX_MULTISETS", "1")
    assert run_json(capsys, "fpt-bound", *gens)[0] == 4
    code, payload, _ = run_json(capsys, "fpt-bound", *gens, "--max-multisets", "100")
    assert code == 0
    assert payload["result"]["S"] == [1]


ORACLE_EDGES = [
    (["nu", *PAIR, "--e", "2"], "max_multisets", 3),
    (["nu", *PAIR, "--e", "2"], "max_terms", 2),
    (["fvol-count", *IDEALS, "--e", "2"], "max_multisets", 13),
    (["fvol-count", *IDEALS, "--e", "2"], "max_terms", 13),
]


@pytest.mark.parametrize(
    "argv,field,total",
    ORACLE_EDGES,
    ids=["%s-%s-%d" % (argv[0], field, total) for argv, field, total in ORACLE_EDGES],
)
def test_oracle_command_budgets(capsys, argv, field, total):
    """nu and fvol-count spend exactly the totals of the library calls
    (tests/test_budgets.py EDGES): a cap at the total finishes and a cap
    one below it exits 4."""
    flag = "--" + field.replace("_", "-")
    code, payload, _ = run_json(capsys, *argv, "--p", "2", flag, str(total))
    assert code == 0
    assert payload["input"]["budgets"][field] == total
    code, payload, _ = run_json(capsys, *argv, "--p", "2", flag, str(total - 1))
    assert code == 4
    assert payload["error"]["kind"] == "BudgetExceeded"


def test_job_file(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "command": "fpt-bound",
                "vars": "x,y,z",
                "gens": ["x^2+x*y^2", "y*z^3"],
                "p": 2,
            }
        )
    )
    code, payload, _ = run_json(capsys, "fpt-bound", "--job", str(job))
    assert code == 0
    assert payload["result"]["value"] == "5/6"
    # flags win over the job file
    code, payload, _ = run_json(
        capsys, "fpt-bound", "--job", str(job), "--p", "3"
    )
    assert payload["result"]["value"] == "2/3"


def test_job_file_errors(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "fpt-bound", "p": 2}))
    code, payload, _ = run_json(capsys, "nu", "--job", str(job))
    assert code == 2
    assert "job file is for command" in payload["error"]["message"]

    job.write_text("{not json")
    code, payload, _ = run_json(capsys, "fpt-bound", "--job", str(job))
    assert code == 2
    assert payload["error"]["kind"] == "InputError"

    code, payload, _ = run_json(
        capsys, "fpt-bound", "--job", str(tmp_path / "absent.json")
    )
    assert code == 2

    job.write_text(
        json.dumps({"command": "fpt-bound", "budgets": {"max_spoons": 1}})
    )
    code, payload, _ = run_json(capsys, "fpt-bound", "--job", str(job))
    assert code == 2
    assert "unknown budget" in payload["error"]["message"]


@pytest.mark.parametrize("command,level", [("fvol-count", "e"), ("fvol-estimate", "e_max")])
def test_job_file_empty_ideals(tmp_path, capsys, command, level):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps({"command": command, "vars": "x,y", "ideals": [], "p": 2, level: 1})
    )
    code, payload, _ = run_json(capsys, command, "--job", str(job))
    assert code == 2
    assert payload["error"] == {"kind": "InputError", "message": "--ideals is empty"}


def test_job_budgets_and_format(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "command": "nu",
                "vars": "x,y,z",
                "gens": "x^2+x*y^2,y*z^3",
                "p": 2,
                "e": 2,
                "budgets": {"max_multisets": 2},
            }
        )
    )
    code, payload, _ = run_json(capsys, "nu", "--job", str(job))
    assert code == 4

    job.write_text(
        json.dumps(
            {
                "command": "carry",
                "block": "1/3,1/3",
                "p": 2,
                "format": "text",
            }
        )
    )
    code, out, _ = run(capsys, "carry", "--job", str(job))
    assert code == 0
    assert "command: carry" in out
    assert "result.S: 1" in out
    # an explicit flag beats the job's format choice
    code, payload, _ = run_json(
        capsys, "carry", "--job", str(job), "--format", "json"
    )
    assert payload["result"]["S"] == 1


# (argv, job file contents or None, message): each exits 2 with an InputError
INPUT_ERRORS = [
    (["nu", "--vars", "x,y", "--gens", "x^2+y^3", "--p", "2", "--e", "0"], None,
     "--e must be at least 1"),
    (["fpt-bound", "--vars", "x,y", "--gens", "x^2+y^3", "--p", "1"], None,
     "--p must be at least 2"),
    (["fpt-bound"], [1], "job file must hold a JSON object"),
    (["fpt-bound"], {"budgets": 5}, "job budgets must be an object"),
    (["fpt-bound"], {"vars": "x", "gens": "x", "p": 2, "format": "xml"},
     "job format must be 'json' or 'text'"),
    (["fpt-bound"], {"vars": "x", "gens": "x", "p": "5"}, "--p must be an integer"),
    (["fpt-bound"], {"vars": 5, "gens": "x", "p": 2},
     "variables must be a comma-separated string or a list"),
    (["fvol-count"], {"vars": "x,y", "ideals": 5, "p": 2, "e": 1},
     "ideals must be ';'-separated groups or a list of lists"),
    (["fvol-count", "--vars", "x,y", "--ideals", "x;;y", "--p", "2", "--e", "1"], None,
     "ideal list has an empty entry"),
    (["carry"], {"block": [], "p": 2}, "--block is empty"),
    (["digits"], {"alpha": True, "p": 2}, "--alpha must be a rational number"),
    (["digits"], {"alpha": 0.5, "p": 2}, "--alpha must be a rational number"),
    (["carry"], {"block": 5, "p": 2}, "--block must be a comma-separated string or a list"),
    # a zero denominator used to leak the repr Fraction(1, 0)
    (["digits", "--alpha", "1/0", "--p", "2"], None,
     "--alpha is not a rational number: zero denominator"),
    (["carry", "--block", "1/2,1/0", "--p", "2"], None,
     "--block is not a rational number: zero denominator"),
    (["digits", "--alpha", "abc", "--p", "2"], None,
     "--alpha is not a rational number: Invalid literal for Fraction: 'abc'"),
    (["carry", "--block", "1/2,x", "--p", "2"], None,
     "--block is not a rational number: Invalid literal for Fraction: 'x'"),
    # a misspelt key used to be dropped: fvol-bound then ran without its counts
    (["fvol-bound"], {"vars": "x,y", "gens": "x,y", "p": 2, "count_e_max": 3},
     "unknown key 'count_e_max' in job file for fvol-bound"),
    (["carry"], {"block": "1/2", "p": 2, "gens": "x"},
     "unknown key 'gens' in job file for carry"),
    (["fpt-bound"], {"vars": "x", "gens": "x", "p": 2, "max_terms": 5},
     "unknown key 'max_terms' in job file for fpt-bound"),
    (["digits"], {"alpha": "1/2", "p": 2, "job": "other.json"},
     "unknown key 'job' in job file for digits"),
]


@pytest.mark.parametrize("argv,job,message", INPUT_ERRORS)
def test_input_errors(tmp_path, capsys, argv, job, message):
    if job is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        argv = argv + ["--job", str(path)]
    code, payload, _ = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"] == {"kind": "InputError", "message": message}


def test_job_values_of_other_json_types(tmp_path, capsys):
    job = tmp_path / "job.json"
    # a block may mix rational strings and ints
    job.write_text(json.dumps({"block": ["1/3", 1], "p": 2}))
    code, payload, _ = run_json(capsys, "carry", "--job", str(job))
    assert code == 0
    assert payload["result"]["S"] == 1
    job.write_text(json.dumps({"alpha": 1, "p": 2}))
    code, payload, _ = run_json(capsys, "digits", "--job", str(job))
    assert code == 0
    assert payload["result"]["preperiod"] == []
    assert payload["result"]["period"] == [1]


def test_polytope_over_gf_p_and_vertex_cap(capsys):
    # over GF(2) the term 2y^3 vanishes, so the generators are x^2 and y
    code, payload, _ = run_json(
        capsys, "polytope", "--vars", "x,y", "--gens", "x^2+2y^3,y", "--p", "2"
    )
    assert code == 0
    assert payload["result"]["matrix"] == [[2, 0], [0, 1]]
    # seven columns against a dimension cap of 2: the vertex list is dropped
    code, payload, _ = run_json(
        capsys, "polytope", "--vars", "x,y,z", "--gens", "x+y+z+x*y,y*z+x*z+x*y*z",
        "--max-dimension", "2",
    )
    assert code == 0
    assert payload["result"]["block_sizes"] == [4, 3]
    assert payload["result"]["vertices"] is None


def test_text_format(capsys):
    code, out, _ = run(capsys, "fpt-bound", *PAIR, "--p", "2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: fpt-bound"
    assert "result.value: 5/6" in lines
    assert "result.kind: lower_bound" in lines
    assert 'result.rho: [["1/3","1/3"],["1/3"]]' in lines
    assert lines[-1] == "version: 0.1.0"


def test_version_and_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "fptcert 0.1.0"
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["fpt-bound", "--no-such-flag"])
    assert info.value.code == 2


def _dispatch_argvs():
    """Top-level argvs, and per subcommand each argv shape: flag and value,
    flag=value, abbreviated and ambiguous flags, help, an unknown flag, a
    flag with no value, --version after the command, '--' and a negative
    value; then the shapes the option table reads or hands on: an empty
    explicit value, a leading minus after '=', a bad int, --format choices,
    a repeated flag, an empty-string value, a flag of another command, a
    value that starts with '-', a token the top-level parser finds ambiguous
    ('--=5') and the same token after '--'."""
    argvs = [[], ["--version"], ["-h"], ["no-such-command"], ["--version", "nu"]]
    for command, (_, flags, _) in _COMMANDS.items():
        every = [arg for name, _ in flags for arg in (_flag(name), "5")]
        first, last = _flag(flags[0][0]), _flag(flags[-1][0])
        number = "--p" if "p" in dict(flags) else "--max-terms"
        other = next(_flag(name) for name in _FLAGS if name not in dict(flags))
        argvs += [[command, *shape] for shape in (
            every + ["--job", "j.json", "--format", "text", "--max-terms", "9"],
            [first + "=5"],
            [first[:4], "5"],
            ["--max", "5"],
            ["-h"],
            ["--no-such-flag", "5"],
            [last],
            [first, "5", "--version"],
            ["--", "5"],
            [last, "-3"],
            [number + "="],
            [first + "="],
            [first + "=-x^2+y", number, "5"],
            [number, "x"],
            [number + "=x"],
            [number, "5", "--format", "xml"],
            ["--format=text", number + "=5"],
            ["--format=xml"],
            [first, "a", first + "=b", number, "5", number, "7"],
            [first, ""],
            [first, "5", other, "5"],
            [first, "5", "--job", "-j.json"],
            ["--=5"],
            [first, "5", "--", "--=5"],
            [arg.replace(" ", "=") for arg in (
                *(_flag(name) + " 5" for name, _ in flags), "--job j.json",
                "--format json", "--max-multisets 3", "--max-dimension 4")],
        )]
    return argvs


def _outcome(capsys, parse, argv):
    """parse(argv)'s Namespace, or the code of the exit it makes, with the
    text it printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", _dispatch_argvs(), ids=" ".join)
def test_dispatch_matches_the_top_level_parser(capsys, argv):
    expected = _outcome(capsys, _build_parser().parse_args, argv)
    assert _outcome(capsys, _parse_args, argv) == expected
    if argv[:1] == ["--version"]:
        assert expected == (0, "fptcert 0.1.0\n", "")


# Every option string of every command, written out by hand like
# PARSER_ACTIONS below, so an edit to the CLI's option table leaves the
# seeded argvs as they are.
EVERY_OPTION = ("--vars", "--gens", "--ideals", "--p", "--e", "--e-max", "--alpha", "--block",
                "--count", "--counts-e-max", "--job", "--format", "--max-multisets",
                "--max-terms", "--max-dimension")


def _seeded_argvs(rng, count):
    """Argvs of one command drawn from its option strings, their prefixes,
    options of other commands and stray tokens, each option as --flag=value
    or followed by a value, a value that may be empty, start with '-', hold
    '=' or name a --format choice."""
    values = ("5", "-5", "", "x", "json", "text", "xml", "a=b", "-x", "5e", " 7", "0")
    argvs = []
    for _ in range(count):
        command = rng.choice(sorted(PARSER_ACTIONS))
        own = [option for strings, *_ in (*PARSER_ACTIONS[command], *_SHARED)
               for option in strings]
        options = own + list(EVERY_OPTION)
        argv = [command]
        for _ in range(rng.randint(0, 5)):
            option = rng.choice(options)
            shape = rng.randrange(8)
            if shape == 0:
                option = option[:rng.randint(2, len(option))]
            elif shape == 1:
                option = rng.choice(("-h", "--", "--version", "stray", "-p"))
            if rng.random() < 0.4:
                argv.append(option + "=" + rng.choice(values))
            else:
                argv += [option] + [rng.choice(values)] * (rng.random() < 0.9)
        argvs.append(argv)
    return argvs


def test_seeded_argvs_match_the_top_level_parser(capsys):
    argvs = _seeded_argvs(random.Random(42), 3000)
    read = 0
    for argv in argvs:
        expected = _outcome(capsys, _build_parser().parse_args, argv)
        assert _outcome(capsys, _parse_args, argv) == expected, argv
        read += cli._canonical(argv) is not None
    # both kinds of argv are drawn often
    assert 300 < read < len(argvs) - 300


def test_a_canonical_call_builds_no_parser(capsys):
    _build_parser.cache_clear()
    assert main(["fpt-bound", *PAIR, "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == "5/6"
    assert _build_parser.cache_info().currsize == 0
    with pytest.raises(SystemExit):
        main(["fpt-bound", *PAIR, "--p", "x"])  # argparse words the refusal
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert _build_parser.cache_info().currsize == 1


# Each subcommand parser's actions as (option strings, dest, type, choices,
# help), written out by hand: the parser and the canonical reader are both
# built from the CLI's option table, so only a literal pin sees an option
# of that table lost, reordered or re-typed.
_HELP = (("-h", "--help"), "help", None, None, "show this help message and exit")
_VARS = (("--vars",), "vars", str, None, "comma-separated variable names")
_GENS = (("--gens",), "gens", str, None, "comma-separated polynomial generators")
_IDEALS = (("--ideals",), "ideals", str, None,
           "';'-separated ideals, each a comma-separated list")
_P = (("--p",), "p", int, None, "prime characteristic")
_E = (("--e",), "e", int, None, "Frobenius exponent")
_E_MAX = (("--e-max",), "e_max", int, None, "largest exponent")
_SHARED = (
    (("--job",), "job", None, None, "JSON job file; flags win on conflict"),
    (("--format",), "format", None, ("json", "text"), "output format (default json)"),
    (("--max-multisets",), "max_multisets", int, None, None),
    (("--max-terms",), "max_terms", int, None, None),
    (("--max-dimension",), "max_dimension", int, None, None),
)
PARSER_ACTIONS = {
    "polytope": (_VARS, _GENS, _P),
    "digits": ((("--alpha",), "alpha", str, None, "rational in (0, 1]"), _P,
               (("--count",), "count", int, None, "digits to print (default 12)")),
    "carry": ((("--block",), "block", str, None, "comma-separated rationals"), _P),
    "fpt-bound": (_VARS, _GENS, _P),
    "nu": (_VARS, _GENS, _P, _E),
    "fpt-estimate": (_VARS, _GENS, _P, _E_MAX),
    "classify": (_VARS, _GENS),
    "verify-prime": (_VARS, _GENS, _P),
    "fvol-bound": (_VARS, _GENS, _P, (
        ("--counts-e-max",), "counts_e_max", int, None,
        "also run the brute-force counter up to this exponent")),
    "fvol-count": (_VARS, _IDEALS, _P, _E),
    "fvol-estimate": (_VARS, _IDEALS, _P, _E_MAX),
    "witness": (_VARS, _GENS, _P, _E),
}


def test_subcommand_parsers_hold_the_pinned_actions():
    (commands,) = (action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert list(commands.choices) == list(PARSER_ACTIONS)
    for command, own in PARSER_ACTIONS.items():
        actions = [(tuple(action.option_strings), action.dest, action.type,
                    action.choices, action.help)
                   for action in commands.choices[command]._actions]
        assert actions == [_HELP, *own, *_SHARED], command


def test_console_script_runs(tmp_path):
    """The declared ``fptcert`` console script runs as its own process.

    The entry is read from metadata that the build backend generates into
    ``tmp_path``, so the check needs no installed package and writes nothing
    into the checkout.  The child runs it as pip's generated wrapper does.
    """
    pytest.importorskip("setuptools")
    egg_info = subprocess.run(
        [
            sys.executable,
            "-c",
            "import setuptools; setuptools.setup()",
            "-q",
            "egg_info",
            "--egg-base",
            str(tmp_path),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert egg_info.returncode == 0, egg_info.stderr
    dist = importlib.metadata.PathDistribution(tmp_path / "fptcert.egg-info")
    (entry,) = dist.entry_points.select(group="console_scripts", name="fptcert")
    wrapper = (
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "sys.argv[0] = 'fptcert'\n"
        f"sys.exit({entry.attr}())\n"
    )
    package_root = Path(fptcert.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "fpt-bound", *PAIR, "--p", "2"],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == "5/6"
