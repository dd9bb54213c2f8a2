"""The k-digit period walk of ``basep.digits`` against the state-dict
walk it replaced, the one charge per walk against the walk that charged
every step, and the multiset budget on the period."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from fptcert import basep
from fptcert.basep import digits
from fptcert.budgets import Budgets, Meter
from fptcert.cli import main
from fptcert.errors import BudgetExceeded


def dict_walk(alpha, p):
    """(preperiod, period) by the state walk that remembers every state."""
    num, den = alpha.numerator, alpha.denominator
    seen = {}
    sequence = []
    r = num
    while r not in seen:
        seen[r] = len(sequence)
        d = -((-p * r) // den) - 1
        sequence.append(d)
        r = p * r - d * den
    start = seen[r]
    return tuple(sequence[:start]), tuple(sequence[start:])


def per_step_walk(alpha, p, meter):
    """(preperiod, period) by the k-digit walk that charged ``meter`` k
    multisets at the top of every step."""
    num, den = alpha.numerator, alpha.denominator
    rest, sequence, r = den, [], num
    while (g := math.gcd(rest, p)) > 1:
        rest //= g
        d = -((-p * r) // den) - 1
        sequence.append(d)
        r = p * r - d * den
    first = r = r // (den // rest)
    k, step = 1, p
    while step * p <= min(rest, 4096):
        k, step = k + 1, step * p
    table = basep._digit_table(p, k) if k > 1 else None
    back = {(first * pow(p, -i, rest) - 1) % rest + 1: i for i in range(1, k + 1)}
    period = []
    while True:
        meter.charge_multisets(k)
        d = -((-step * r) // rest) - 1
        block = table[d] if k > 1 else (d,)
        if r in back:
            period += block[: back[r]]
            break
        period += block
        r = step * r - d * rest
    return tuple(sequence), tuple(period)


def _cases():
    rng = random.Random(20240614)
    bases = (2, 3, 4, 5, 6, 7, 10, 11, 13, 16, 64, 65, 101, 4099)
    cases = []
    for _ in range(4000):
        p = rng.choice(bases)
        shape = rng.randrange(4)
        if shape == 0:
            den = rng.randint(1, 60)
        elif shape == 1:
            den = rng.randint(1, 20000)
        elif shape == 2:  # a power of p, at times with a cofactor
            den = p ** rng.randint(0, 6) * rng.choice((1, 1, rng.randint(2, 500)))
        else:  # a power of a factor of p times a denominator prime to it
            q = rng.choice([q for q in (2, 3, 5, 13, 4099) if p % q == 0] or [p])
            den = q ** rng.randint(1, 8) * rng.randint(1, 3000)
        cases.append((rng.randint(1, den), den, p))
    cases += [(1, 1, p) for p in (2, 3, 4, 6, 10, 101)]
    cases += [(1, 40637, 2), (1, 1000003, 3), (7, 1000003, 3), (1, 2**20, 2), (5, 6**7, 6)]
    return cases


@pytest.fixture
def table_sizes(monkeypatch):
    sizes = []
    build = basep._digit_table

    def recording(p, k):
        table = build(p, k)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(basep, "_digit_table", recording)
    return sizes


def test_matches_dict_walk(table_sizes):
    for num, den, p in _cases():
        alpha = Fraction(num, den)
        stream = digits(alpha, p)
        assert (stream.preperiod, stream.period) == dict_walk(alpha, p), (num, den, p)
    assert table_sizes and max(table_sizes) <= 4096


def _charged(walk, cap, spent):
    """What a walk on a meter of cap ``cap`` already charged ``spent``
    leaves: its result or its BudgetExceeded message, and the total."""
    meter = Meter(Budgets(max_multisets=cap))
    meter.multisets = spent
    try:
        outcome = walk(meter)
    except BudgetExceeded as exc:
        outcome = str(exc)
    return outcome, meter.multisets


def test_one_charge_matches_per_step_charges():
    rng = random.Random(19)
    cases = rng.sample(_cases()[:4000], 600) + _cases()[-5:]
    for num, den, p in cases:
        alpha = Fraction(num, den)
        for cap in (1, 5, 37, 200, Budgets().max_multisets):
            for spent in (0, max(cap - 3, 0), cap + 1):
                def walk(meter):
                    stream = digits(alpha, p, meter)
                    return stream.preperiod, stream.period

                expected = _charged(lambda meter: per_step_walk(alpha, p, meter), cap, spent)
                assert _charged(walk, cap, spent) == expected, (num, den, p, cap, spent)


def test_period_charged_per_digit():
    # 1/40637 in base 2 walks 12 digits per step: 3,387 steps for its
    # 40,636 period digits
    meter = Meter(Budgets(max_multisets=40644))
    assert len(digits(Fraction(1, 40637), 2, meter).period) == 40636
    assert meter.multisets == 40644
    with pytest.raises(BudgetExceeded):
        digits(Fraction(1, 40637), 2, Meter(Budgets(max_multisets=40643)))
    # a preperiod is not charged; a one-digit step is charged one
    meter = Meter()
    assert digits(Fraction(1, 12), 2, meter).period == (0, 1)
    assert meter.multisets == 2


def test_long_periods_under_default_budget(capsys):
    code = main(["digits", "--alpha", "1/10000019", "--p", "2", "--count", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"]["kind"] == "BudgetExceeded"
    assert main(["digits", "--alpha", "1/1000003", "--p", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["result"]["period"]) == 333334


def test_walk_memory():
    tracemalloc.start()
    try:
        stream = digits(Fraction(1, 1000003), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream.period) == 333334
    assert peak <= 10 * 2**20


def test_one_digit_step_memory():
    # p = 101 > 64 walks one digit per step; the period of 1/100019
    # (101 is a primitive root) still grows a byte per digit: a list of
    # ints copied into the tuple peaks at 1.5 MiB here
    tracemalloc.start()
    try:
        stream = digits(Fraction(1, 100019), 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream.period) == 100018
    assert peak <= 2**20
