"""The half-period walk of ``basep._walk``: once the walk reaches the
state rest - first, the complement of its first state, the rest of the
period is the (p - 1)-complement of the digits walked.  Checked against
the state-dict walk, and the meter against the walk that charged k
multisets at the top of every step of the whole period."""

import math
import random
from fractions import Fraction

import pytest

from fptcert import basep
from fptcert.budgets import Budgets
from test_digit_walk import _charged, dict_walk, per_step_walk


def shape(alpha, p):
    """(rest, k): the part of the denominator prime to p, and the digits
    the walk takes per step."""
    rest = alpha.denominator
    while (g := math.gcd(rest, p)) > 1:
        rest //= g
    k = 1
    while p ** (k + 1) <= min(rest, 4096):
        k += 1
    return rest, k


def halved(alpha, p, length):
    """Whether the period of ``length`` digits ends in the complement of
    its first half: -1 is a power of p mod rest, and rest > 2."""
    rest, _ = shape(alpha, p)
    return rest > 2 and length % 2 == 0 and pow(p, length // 2, rest) == rest - 1


def _cases():
    rng = random.Random(40)
    bases = (2, 3, 5, 6, 7, 10, 11, 13, 64, 101, 251, 257, 65537)
    cases = []
    for _ in range(2500):
        p = rng.choice(bases)
        den = rng.choice((rng.randint(1, 60), rng.randint(1, 20000),
                          rng.randint(1, 300) * p ** rng.randint(1, 3)))
        cases.append((Fraction(rng.randint(1, den), den), p))
    named = [
        (1, 1, 2), (1, 1, 257), (1, 8, 2), (2, 3, 3),  # rest = 1
        (1, 2, 3), (1, 2, 257), (7, 18, 3), (5, 98, 7), (3, 2 * 65537, 65537),  # rest = 2
        (1, 3, 2), (1, 11, 2), (1, 13, 2), (1, 1000003, 3), (7, 1000003, 3),  # halves
        (5, 44, 2), (7, 4 * 13, 2), (11, 27 * 17, 3), (3, 65537 * 5, 65537),  # after a preperiod
        (1, 7, 2), (1, 31, 2), (1, 73, 2), (1, 40637, 2), (1, 13, 3),  # odd orders
        (1, 3, 257), (1, 5, 257), (2, 7, 65537), (1, 100019, 101),
    ]
    return cases + [(Fraction(n, d), p) for n, d, p in named]


class _Reads:
    """A digit table that counts the blocks read from it."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, d):
        self.reads += 1
        return self.table[d]


@pytest.fixture
def tables(monkeypatch):
    made = []
    build = basep._digit_table

    def counting(p, k):
        made.append(_Reads(build(p, k)))
        return made[-1]

    monkeypatch.setattr(basep, "_digit_table", counting)
    return made


def test_half_walk_matches_dict_walk(tables):
    paths, ends, rests = set(), set(), set()
    for alpha, p in _cases():
        preperiod, period = basep._walk(alpha, p)
        assert (preperiod, tuple(period)) == dict_walk(alpha, p), (alpha, p)
        assert type(period) is (bytes if p <= 256 else list)
        # the walk reads one block per step, of the half or of the whole period
        rest, k = shape(alpha, p)
        half = halved(alpha, p, len(period))
        walked = len(period) // 2 if half else len(period)
        assert tables[-1].reads == -(-walked // k), (alpha, p)
        paths.add((half, p > 256))
        rests.add(rest)
        if half and k > 1:
            ends.add(walked % k == 0)
    assert paths == {(True, True), (True, False), (False, True), (False, False)}
    assert ends == {True, False}  # halves reached at a step boundary and inside a step
    assert {1, 2} <= rests


def test_half_walk_charges_the_whole_period():
    rng = random.Random(41)
    cases = rng.sample(_cases()[:2500], 300) + _cases()[2500:]
    for alpha, p in cases:
        length = len(dict_walk(alpha, p)[1])
        _, k = shape(alpha, p)
        steps = -(-length // k)
        # caps around the charge of the half walked and of the whole period
        caps = {1, k * steps - 1, k * steps, k * -(-steps // 2), Budgets().max_multisets}
        for cap in sorted(c for c in caps if c > 0):
            for spent in (0, max(cap - 3, 0), cap + 1):
                def walk(meter):
                    preperiod, period = basep._walk(alpha, p, meter)
                    return preperiod, tuple(period)

                expected = _charged(lambda meter: per_step_walk(alpha, p, meter), cap, spent)
                assert _charged(walk, cap, spent) == expected, (alpha, p, cap, spent)


@pytest.mark.parametrize("p", [3, 5, 251, 257, 65537])
def test_complement_is_p_minus_one_minus_the_digit(p):
    # 1/(p + 1): p = -1 mod p + 1, so the period is the two digits 0, p - 1
    assert basep._walk(Fraction(1, p + 1), p) == ((), bytes([0, p - 1]) if p <= 256 else [0, p - 1])
