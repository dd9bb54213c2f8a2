"""One JSON form for every result: each ``to_json_dict`` and the budget
echo render through ``thresholds._json_fields``, and write the same
text, key order included, as the bodies that spelled every key out by
hand (kept below as the reference)."""

import json
import random
import re
import sys
from dataclasses import asdict, replace
from fractions import Fraction

import pytest

from fptcert.basep import INFINITY, CarryHorizon
from fptcert.budgets import Budgets, Meter
from fptcert.cli import main
from fptcert.errors import BudgetExceeded, FptcertError
from fptcert.fvolume import fvolume_estimate, fvolume_lower_bound
from fptcert.polyring import QQ, Polynomial
from fptcert.thresholds import (
    _json_fields,
    _jsonable,
    coefficient_witness,
    fpt_bound,
    lct_fpt_classifier,
    verify_prime,
)

PRIMES = (2, 3, 5, 7, 11, 13)
SMALL = Budgets(max_multisets=20_000, max_terms=200_000)


def _fpt_reference(cert):
    return {
        "p": cert.p,
        "kind": cert.kind,
        "value": str(cert.value),
        "upper_bound": str(cert.upper_bound),
        "rho": [[str(x) for x in block] for block in cert.rho_blocks],
        "S": [h.to_json_value() for h in cert.horizons],
        "I": list(cert.finite_indices),
    }


def _witness_reference(report):
    return {
        "p": report.p,
        "e": report.e,
        "match": report.match,
        "expected": report.expected,
        "actual": report.actual,
        "exponents": list(report.exponents),
        "target": list(report.target),
        "blocks": [
            {
                "Q": q,
                "parts": list(parts),
                "multinomial_mod_p": multi,
                "coefficient_power_mod_p": cpow,
            }
            for q, parts, multi, cpow in report.per_block
        ],
    }


def _verdict_reference(verdict):
    return {
        "case": verdict.case,
        "value": None if verdict.value is None else str(verdict.value),
        "t": verdict.t,
        "rho": [[str(x) for x in block] for block in verdict.rho_blocks],
        "block_sums": [str(s) for s in verdict.block_sums],
        "prime_predicate": verdict.prime_predicate,
        "checked_primes": [[p, ok] for p, ok in verdict.checked_primes],
        "failed_hypothesis": verdict.failed_hypothesis,
    }


def _check_reference(check):
    return {
        "p": check.p,
        "case": check.case,
        "target_value": str(check.target_value),
        "newton_preserved": check.newton_preserved,
        "predicate_member": check.predicate_member,
        "certificate_kind": check.certificate_kind,
        "certificate_value": (
            None if check.certificate_value is None else str(check.certificate_value)
        ),
        "holds": check.holds,
        "big_enough_caveat": check.big_enough_caveat,
    }


def _fvolume_reference(cert):
    return {
        "p": cert.p,
        "bound": str(cert.bound),
        "counts": [[e, card, str(ratio)] for e, card, ratio in cert.counts],
    }


def _same_text(result, reference):
    # json.dumps, not ==: dict equality ignores key order
    assert json.dumps(result.to_json_dict()) == json.dumps(reference(result)), result


def _random_tuples(seed, count):
    """Generators over QQ in 2-4 variables, 1-3 per tuple, each a
    member of the maximal ideal with coefficients from {1, -1, 2, 3}."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 4)
        tuple_ = []
        for _ in range(rng.randint(1, 3)):
            terms, size = {}, rng.randint(1, 3)
            while len(terms) < size:
                monomial = tuple(rng.randint(0, 3) for _ in range(m))
                if any(monomial):
                    terms[monomial] = rng.choice((1, -1, 2, 3))
            tuple_.append(Polynomial(QQ, m, terms))
        yield tuple_


def test_certificates_render_as_before():
    seen = {"fpt": 0, "counts": 0}
    for generators in _random_tuples(21, 120):
        for p in PRIMES:
            try:
                cert = fpt_bound(generators, p, Meter(SMALL))
                fvol = fvolume_lower_bound(generators, p, Meter(SMALL))
            except FptcertError:
                continue
            _same_text(cert, _fpt_reference)
            _same_text(fvol, _fvolume_reference)
            seen["fpt"] += 1
            if p <= 3 and len(generators) <= 2:
                try:
                    rows = fvolume_estimate([[g] for g in generators], p, 2, SMALL)
                except FptcertError:
                    continue
                fvol = replace(fvol, counts=tuple(rows))
                _same_text(fvol, _fvolume_reference)
                seen["counts"] += 1
    assert seen["fpt"] >= 300 and seen["counts"] >= 50, seen


def test_verdicts_and_checks_render_as_before():
    seen = {"verdict": 0, "check": 0}
    for generators in _random_tuples(22, 120):
        try:
            verdict = lct_fpt_classifier(generators)
        except FptcertError:
            continue
        _same_text(verdict, _verdict_reference)
        seen["verdict"] += 1
        if not verdict.conclusive:
            continue
        for p in PRIMES:
            try:
                check = verify_prime(generators, p, verdict, Meter(SMALL))
            except FptcertError:
                continue
            _same_text(check, _check_reference)
            verdict = verdict.with_checked(p, check.holds)
            _same_text(verdict, _verdict_reference)
            seen["check"] += 1
    assert seen["verdict"] >= 60 and seen["check"] >= 300, seen


def test_witness_reports_render_as_before():
    seen = 0
    for generators in _random_tuples(23, 40):
        for p in (2, 3, 5, 7):
            for e in (1, 2, 3):
                try:
                    report = coefficient_witness(generators, p, e, SMALL)
                except FptcertError:
                    continue
                _same_text(report, _witness_reference)
                seen += 1
    assert seen >= 200, seen


def test_budget_echo_renders_as_asdict():
    for budgets in (Budgets(), Budgets(1, 2, 3)):
        assert json.dumps(_json_fields(budgets)) == json.dumps(asdict(budgets))


def test_jsonable_values():
    assert _jsonable(((1, (Fraction(1, 3), 2)), [])) == [[1, ["1/3", 2]], []]
    assert _jsonable(Fraction(-5, 6)) == "-5/6"
    assert _jsonable(Fraction(4)) == "4"
    assert _jsonable(CarryHorizon(INFINITY)) == "inf"
    assert _jsonable((CarryHorizon(0), CarryHorizon(3))) == [0, 3]
    assert _jsonable(None) is None
    assert _jsonable(True) is True and _jsonable(False) is False
    assert _jsonable(((5, True), (7, False))) == [[5, True], [7, False]]


@pytest.fixture(params=[640, 4300])
def text_limit(request):
    """The int-to-text limit set to 640 digits (the least Python allows) or
    4,300 (its default), and the caller's restored after the test."""
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(caller)


def test_jsonable_text_limit_edge(text_limit):
    """At the limit a number renders; one digit past it, as an int of either
    sign, a Fraction's numerator or denominator, or nested in vertex-like
    tuples, it is refused with the int-to-text message."""
    refusal = re.escape("a result integer has more than %d digits, the int-to-text "
                        "limit (PYTHONINTMAXSTRDIGITS)" % text_limit)
    for sign in (1, -1):
        fits, over = sign * (10**text_limit - 1), sign * 10**text_limit
        assert _jsonable(fits) == fits
        assert _jsonable([(Fraction(fits, 2), Fraction(2, fits))]) == [
            ["%d/2" % fits, "%d/%d" % (2 * sign, abs(fits))]
        ]
        assert _jsonable(((0, fits), (True, 1))) == [[0, fits], [True, 1]]
        for value in (over, Fraction(over, 3), Fraction(3, over),
                      ((Fraction(1, 2), over),), [(Fraction(0), Fraction(1, over))]):
            with pytest.raises(BudgetExceeded, match=refusal):
                _jsonable(value)
    for small in (True, False, 0, -7, 2**1920 - 1):
        assert _jsonable(small) is small


# x^(10^100) at p = 2 and e = 2200: nu and its ratio have about 560 and 660
# digits.  A cap of 640 nines fits the least limit, and cap + 1 does not.
BIG = "x^1" + "0" * 100
CAP = ["--max-multisets", "1" + "0" * 639]
NINES = ["--max-multisets", "9" * 640]


@pytest.mark.parametrize("text_limit", [640], indirect=True)
@pytest.mark.parametrize(
    "argv",
    [
        ["nu", "--vars", "x", "--gens", BIG, "--p", "2", "--e", "2200", *CAP],
        ["fpt-estimate", "--vars", "x", "--gens", BIG, "--p", "2", "--e-max", "2200", *CAP],
        ["fvol-estimate", "--vars", "x", "--ideals", BIG, "--p", "2", "--e-max", "2200", *CAP],
        ["nu", "--vars", "x", "--gens", "x", "--p", "2", "--e", "3000", *NINES],
        ["fvol-count", "--vars", "x", "--ideals", "x", "--p", "2", "--e", "3000", *NINES],
    ],
    ids=["nu-ratio", "fpt-estimate-ratio", "fvol-estimate-ratio", "nu-cap", "fvol-count-cap"],
)
def test_oracle_text_limit_exit_four(capsys, text_limit, argv):
    """An oracle ratio or count, or a refused cap + 1, past the limit is
    refused with exit 4 and the int-to-text message, not a ValueError."""
    assert main(argv) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "BudgetExceeded"
    assert "more than 640 digits" in error["message"]


@pytest.mark.parametrize("text_limit", [640], indirect=True)
def test_meter_refusal_past_text_limit(text_limit):
    """A cap whose refusal would print a number past the limit is refused
    with the int-to-text message; a cap below it keeps its own."""
    cap = 10**640 - 1
    meter = Meter(Budgets(max_multisets=cap, max_terms=cap))
    for charge in (meter.charge_multisets, meter.charge_terms):
        with pytest.raises(BudgetExceeded, match="more than 640 digits"):
            charge(cap + 1)
    meter = Meter(Budgets(max_multisets=cap - 1, max_terms=cap - 1))
    with pytest.raises(BudgetExceeded, match=r"^multiset budget exhausted \(9+ > 9+8\)$"):
        meter.charge_multisets(cap)
    with pytest.raises(BudgetExceeded, match=r"^term-operation budget exhausted \(9+ > 9+8\)$"):
        meter.charge_terms(cap)
