"""One routine per computation: the Lucas multinomial shared by the
carry test and the coefficient witness, the single block loop of
``basep.digits``, the estimate ladder, and the CLI's one parse."""

import json
import math
import random
from fractions import Fraction

import pytest

from fptcert import cli
from fptcert.basep import _lucas, digits, multinomial_nonzero_mod_p
from fptcert.budgets import Budgets, Meter
from fptcert.cli import main
from fptcert.errors import InputError
from fptcert.fvolume import fvolume_estimate
from fptcert.polyring import parse_polynomial
from fptcert.thresholds import coefficient_witness, fpt_estimate
from test_digit_walk import dict_walk


def comb_chain(parts, p):
    """The multinomial mod p as the witness once computed it: exact
    binomials of the running sums."""
    multi = 1
    running = 0
    for part in parts:
        running += part
        multi = multi * math.comb(running, part) % p
    return multi


def lucas_value(parts, p):
    columns = _lucas(parts, p)
    return 0 if columns is None else math.prod(columns) % p


def test_lucas_matches_comb_chain():
    rng = random.Random(15)
    for _ in range(20000):
        p = rng.choice((2, 3, 5, 7, 11, 13, 101))
        parts = [rng.randint(0, 300) for _ in range(rng.randint(1, 4))]
        assert lucas_value(parts, p) == comb_chain(parts, p), (parts, p)


def test_lucas_edges():
    assert lucas_value([], 5) == 1
    assert lucas_value([0, 0], 5) == 1
    assert _lucas([1, 1], 2) is None  # 1 + 1 carries in base 2
    assert lucas_value([2, 2], 7) == 6


def test_multinomial_reads_carries_in_composite_base():
    # 1 + 1 + 1 does not carry in base 6, though (3; 1, 1, 1) = 6 = 0 mod 6
    assert multinomial_nonzero_mod_p(3, [1, 1, 1], 6)
    assert not multinomial_nonzero_mod_p(6, [3, 3], 6)


def test_multinomial_large_base_computes_no_binomial():
    # a binomial of this size would take seconds; the carry test needs none
    p = 2**31 - 1
    assert multinomial_nonzero_mod_p(10**9, [5 * 10**8] * 2, p)
    assert not multinomial_nonzero_mod_p(2 * p - 2, [p - 1] * 2, p)


def test_witness_at_e30():
    f = parse_polynomial("x^2+y^3", ("x", "y"))
    report = coefficient_witness([f], 2, 30)
    assert report.match
    # the parts 2^30 <1/2>_30 and 2^30 <1/3>_30 carry in base 2
    assert report.expected == report.actual == 0
    assert report.per_block[0][1:3] == ((2**29 - 1, 2**30 // 3), 0)


def test_witness_cli_at_e30(capsys):
    argv = ["witness", "--vars", "x,y", "--gens", "x^2+y^3", "--p", "2", "--e", "30"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["match"] is True


@pytest.mark.parametrize("p", [2, 3, 4, 6, 10, 101, 4099])
def test_digits_one_block_loop_ends_at_rest_one(p):
    # alpha = 1 and a/p^e reach the state 1 of rest = 1; the walk must
    # end there, and the budget turns a walk that does not into a failure
    for alpha in (Fraction(1), Fraction(1, p), Fraction(p - 1, p**3), Fraction(1, 2 * p)):
        stream = digits(alpha, p, Meter(Budgets(max_multisets=10**4)))
        assert (stream.preperiod, stream.period) == dict_walk(alpha, p)
    assert digits(Fraction(1), p).period == (p - 1,)


def test_estimates_check_e_max_first():
    f = parse_polynomial("x^2+y^3", ("x", "y"))
    for call in (
        lambda: fpt_estimate([f], 4, 0),
        lambda: fvolume_estimate([[f]], 4, 0),
    ):
        with pytest.raises(InputError, match="e_max must be a positive integer"):
            call()
    with pytest.raises(InputError, match="p must be a prime number"):
        fvolume_estimate([[f]], 4, 1)
    assert fvolume_estimate([[f]], 2, 2) == [(1, 1, Fraction(1, 2)), (2, 2, Fraction(1, 2))]
    assert fpt_estimate([f], 2, 2) == [(1, 0, Fraction(0)), (2, 1, Fraction(1, 4))]


def test_digits_prefix_charged_in_one_call(monkeypatch, capsys):
    calls = []

    class Counting(Meter):
        def charge_multisets(self, count=1):
            calls.append(count)
            super().charge_multisets(count)

    monkeypatch.setattr(cli, "Meter", Counting)
    argv = ["digits", "--alpha", "1/3", "--p", "2", "--max-multisets", "1000"]
    assert main(argv + ["--count", "1000000000"]) == 4
    assert calls == [2, 1000000000]  # the period's two one-digit steps, then the prefix
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "multiset budget exhausted (1001 > 1000)"
    )


# Every subcommand that reads polynomials: its polynomial flag and the
# other inputs it needs.
PARSING = {
    "polytope": ["--gens"],
    "fpt-bound": ["--gens", "--p", "2"],
    "nu": ["--gens", "--p", "2", "--e", "1"],
    "fpt-estimate": ["--gens", "--p", "2", "--e-max", "1"],
    "classify": ["--gens"],
    "verify-prime": ["--gens", "--p", "2"],
    "fvol-bound": ["--gens", "--p", "2"],
    "witness": ["--gens", "--p", "2", "--e", "1"],
    "fvol-count": ["--ideals", "--p", "2", "--e", "1"],
    "fvol-estimate": ["--ideals", "--p", "2", "--e-max", "1"],
}


def test_parsing_commands_cover_the_flag_table():
    taking = {
        name: "--" + flag
        for name, (_, flags, _) in cli._COMMANDS.items()
        for flag, _ in flags
        if flag in ("gens", "ideals")
    }
    assert taking == {name: argv[0] for name, argv in PARSING.items()}


@pytest.mark.parametrize("command", sorted(PARSING))
def test_malformed_polynomial_refused_alike(command, capsys):
    flag, *rest = PARSING[command]
    code = main([command, "--vars", "x,y", flag, "x+y,x^", *rest])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload == {
        "error": {
            "kind": "ParseError",
            "message": "expected an unsigned integer (at position 2)",
        }
    }
