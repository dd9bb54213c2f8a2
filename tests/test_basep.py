"""Base-p digit streams, truncations, carry horizons, and the
digit-wise multinomial test of ``_lucas``."""

import collections
import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest

from fptcert import basep
from fptcert.basep import (
    INFINITY,
    CarryHorizon,
    adds_without_carrying,
    carry_horizon,
    digit_at,
    digits,
    in_P_rho_0,
    in_P_rho_inf,
    is_prime,
    truncation,
)
from fptcert.budgets import Budgets, Meter
from fptcert.errors import BudgetExceeded, InputError


def test_is_prime_small_and_pseudoprimes():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for n in range(-2, 45):
        assert is_prime(n) == (n in primes)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(341)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


@pytest.mark.parametrize(
    "alpha,p,pre,per",
    [
        (Fraction(1, 3), 2, (), (0, 1)),
        (Fraction(1, 2), 2, (0,), (1,)),
        (Fraction(1), 2, (), (1,)),
        (Fraction(1, 3), 3, (0,), (2,)),
        (Fraction(1, 3), 5, (), (1, 3)),
        (Fraction(1, 4), 5, (), (1,)),
        (Fraction(1, 2), 5, (), (2,)),
        (Fraction(1, 5), 2, (), (0, 0, 1, 1)),
        (Fraction(1, 5), 5, (0,), (4,)),
        (Fraction(1, 4), 7, (), (1, 5)),
    ],
)
def test_digit_streams_frozen(alpha, p, pre, per):
    stream = digits(alpha, p)
    assert stream.preperiod == pre
    assert stream.period == per


def test_expansion_is_nonterminating():
    # terminating representations are replaced by the tail of maximal
    # digits: 1/2 in base 2 is 0.0111..., not 0.1000...
    stream = digits(Fraction(1, 2), 2)
    assert stream.digits_prefix(5) == [0, 1, 1, 1, 1]
    assert digits(Fraction(1), 3).digits_prefix(4) == [2, 2, 2, 2]


def test_stream_minimality():
    rng = random.Random(11)
    for _ in range(120):
        den = rng.randint(1, 60)
        num = rng.randint(1, den)
        p = rng.choice([2, 3, 5, 7, 11])
        stream = digits(Fraction(num, den), p)
        assert len(stream.period) >= 1
        # a shorter preperiod would merge its last digit into the cycle
        if stream.preperiod:
            assert stream.preperiod[-1] != stream.period[-1]


def test_digit_at_matches_stream():
    rng = random.Random(13)
    for _ in range(100):
        den = rng.randint(1, 40)
        num = rng.randint(1, den)
        alpha = Fraction(num, den)
        p = rng.choice([2, 3, 5, 7])
        stream = digits(alpha, p)
        for k in range(1, 12):
            assert digit_at(alpha, p, k) == stream.digit(k)


def test_digit_at_zero_and_bounds():
    assert digit_at(Fraction(0), 5, 3) == 0
    with pytest.raises(InputError):
        digit_at(Fraction(1, 2), 5, 0)
    with pytest.raises(InputError):
        digit_at(Fraction(3, 2), 5, 1)
    with pytest.raises(InputError):
        digits(Fraction(0), 5)


@pytest.mark.parametrize("call", [
    lambda: digits(True, 2),
    lambda: truncation(True, 3, 2),
    lambda: carry_horizon([True, False], 2),
    lambda: digit_at(True, 2, 1),
])
def test_bool_is_not_a_rational(call):
    # True used to read as 1: the expansion of 1, the truncation 8/9, horizon inf
    with pytest.raises(InputError, match="expected an exact rational, got True"):
        call()


@pytest.mark.parametrize("k", [1.5, 2.0, True, "1", None])
def test_digit_positions_must_be_ints(k):
    # a float position used to give digit 0 from digit_at and a raw
    # TypeError from DigitStream.digit
    with pytest.raises(InputError):
        digit_at(Fraction(1, 3), 2, k)
    with pytest.raises(InputError):
        digits(Fraction(1, 3), 2).digit(k)


@pytest.mark.parametrize("e", [True, False, -1, 2.0, 0.5, "3", None])
def test_prefix_length_must_be_an_int(e):
    # True used to give [1], -1 gave [], and 2.0 raised a raw TypeError
    with pytest.raises(InputError, match="prefix length must be a nonnegative integer"):
        digits(Fraction(2, 3), 2).digits_prefix(e)


def test_prefix_matches_digits():
    rng = random.Random(19)
    for _ in range(300):
        den = rng.randint(1, 400)
        p = rng.choice([2, 3, 4, 5, 6, 7, 10, 12])
        stream = digits(Fraction(rng.randint(1, den), den), p)
        for e in (0, 1, len(stream.preperiod), rng.randint(0, 3 * den)):
            assert stream.digits_prefix(e) == [stream.digit(k) for k in range(1, e + 1)]


def test_truncation_identities():
    alpha = Fraction(5, 6)
    assert truncation(alpha, 7, 0) == 0
    assert truncation(Fraction(0), 7, 4) == 0
    assert truncation(alpha, 7, INFINITY) == alpha
    assert truncation(Fraction(1), 2, 3) == Fraction(7, 8)
    # the truncation collects exactly the digit prefix
    for e in range(1, 8):
        total = sum(
            Fraction(digit_at(alpha, 7, k), 7**k) for k in range(1, e + 1)
        )
        assert truncation(alpha, 7, e) == total
    with pytest.raises(InputError):
        truncation(alpha, 7, -1)


def test_truncation_rejects_alpha_above_one():
    with pytest.raises(InputError, match=r"alpha must lie in \[0, 1\], got 3/2"):
        truncation(Fraction(3, 2), 2, 1)


def test_truncation_monotone_with_small_remainder():
    rng = random.Random(17)
    for _ in range(60):
        den = rng.randint(1, 30)
        alpha = Fraction(rng.randint(1, den), den)
        p = rng.choice([2, 3, 5])
        last = Fraction(0)
        for e in range(1, 9):
            t = truncation(alpha, p, e)
            assert last <= t < alpha  # strict: expansion never terminates
            assert alpha - t <= Fraction(1, p**e)
            last = t


def test_infinity_ordering():
    assert INFINITY > 10**9
    assert INFINITY >= INFINITY
    assert not INFINITY < 10**9
    assert INFINITY == INFINITY
    assert INFINITY != 5
    assert hash(INFINITY) == hash(INFINITY)


def test_adds_without_carrying_frozen():
    third = Fraction(1, 3)
    assert not adds_without_carrying([third, third], 2)
    assert adds_without_carrying([third, third], 7)
    assert adds_without_carrying([third], 2)
    # (1/2, 1/3, 1/4): first digits in base 13 are 6, 4, 3 and already carry
    block = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    assert not adds_without_carrying(block, 13)
    assert not adds_without_carrying(block, 7)  # level 2: 3 + 2 + 5


def test_adds_without_carrying_window_stability():
    # One window (max preperiod + lcm of periods) decides every
    # position: a scan of two full windows finds the same answer.
    rng = random.Random(19)
    for _ in range(80):
        k = rng.randint(1, 4)
        block = []
        for _ in range(k):
            den = rng.randint(1, 20)
            block.append(Fraction(rng.randint(0, den), den))
        p = rng.choice([2, 3, 5, 7, 11])
        streams = [digits(a, p) for a in block if a > 0]
        window = 0
        if streams:
            window = max(len(s.preperiod) for s in streams) + math.lcm(
                *[len(s.period) for s in streams]
            )
        two_windows = all(
            sum(s.digit(pos) for s in streams) <= p - 1
            for pos in range(1, 2 * window + 1)
        )
        assert adds_without_carrying(block, p) == two_windows


def test_carry_horizon_frozen():
    third = Fraction(1, 3)
    assert carry_horizon([third, third], 2) == CarryHorizon(1)
    assert carry_horizon([third], 2) == CarryHorizon(INFINITY)
    # 1/3 in base 3 is 0.0222...; the twos collide at level 2
    assert carry_horizon([third, third], 3) == CarryHorizon(1)
    block = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    assert carry_horizon(block, 13) == CarryHorizon(0)
    assert carry_horizon(block, 7) == CarryHorizon(1)
    assert carry_horizon(block, 5) == CarryHorizon(1)
    assert carry_horizon([Fraction(1)], 5) == CarryHorizon(INFINITY)


def test_carry_horizon_ignores_zero_entries():
    block = [Fraction(0), Fraction(1, 2)]
    assert carry_horizon(block, 2) == carry_horizon([Fraction(1, 2)], 2)
    assert carry_horizon([Fraction(0)], 2) == CarryHorizon(INFINITY)


def _scan_horizon(block, p):
    """The position-by-position scan of one full window (max preperiod
    plus the lcm of the periods), kept as the reference for the residue
    search."""
    streams = [digits(a, p) for a in block if a > 0]
    window = 0
    if streams:
        window = max(len(s.preperiod) for s in streams) + math.lcm(
            *[len(s.period) for s in streams]
        )
    for k in range(1, window + 1):
        if sum(s.digit(k) for s in streams) > p - 1:
            return CarryHorizon(k - 1)
    return CarryHorizon(INFINITY)


def _seeded_block(rng, p):
    shape = rng.choice(["random", "preperiod", "shared", "unit", "mixed"])
    if shape == "unit":
        # 1/(p^L - 1): digit 1 at the multiples of L; p of them must meet
        periods = rng.sample(range(1, 10), p if p < 4 else rng.randint(2, 3))
        block = [Fraction(1, p**L - 1) for L in periods]
        if rng.random() < 0.5:
            block.append(Fraction(1, p ** rng.randint(1, 3) - 1))  # short extra period
        return block
    block = []
    for _ in range(rng.randint(1, 4)):
        if shape == "shared":
            # equal and shared-factor periods: denominators p^L - 1 with L | 12
            den = p ** rng.choice([1, 2, 3, 4, 6, 12]) - 1
            block.append(Fraction(rng.randint(1, min(den, 3)), den))
        elif shape == "preperiod":
            den = rng.randint(1, 9) * p ** rng.randint(1, 3)
            block.append(Fraction(rng.randint(1, den), den))
        else:
            den = rng.randint(1, 30)
            block.append(Fraction(rng.randint(0, den), den))
    if shape == "mixed":
        block += [Fraction(0), Fraction(1)][: rng.randint(1, 2)]
    return block


def test_carry_horizon_matches_position_scan():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(1500):
        p = rng.choice([2, 3, 5, 7])
        block = _seeded_block(rng, p)
        expected = _scan_horizon(block, p)
        assert carry_horizon(block, p) == expected, (block, p)
        outcomes.add(expected.finite)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "periods,horizon",
    [((97, 89, 83), 716538), ((997, 991, 983), 971230540)],
)
def test_carry_horizon_long_windows(periods, horizon):
    # 1/(3^L - 1) has digit 1 at the multiples of L, so the first carry
    # of three such entries in base 3 is at lcm(L) = prod(L); the search
    # must not walk that window (about 9.7e8 levels for the second).
    block = [Fraction(1, 3**L - 1) for L in periods]
    meter = Meter(Budgets(max_multisets=10**4))
    assert carry_horizon(block, 3, meter) == CarryHorizon(horizon)


def test_carry_horizon_budget_edge():
    # (19, 17, 5) in base 2: the first pair to meet is 17 and 5, at
    # level 85; the search takes 29 classes off its heap
    block = [Fraction(1, 2**L - 1) for L in (19, 17, 5)]
    assert carry_horizon(block, 2, Meter(Budgets(max_multisets=29))) == CarryHorizon(84)
    with pytest.raises(BudgetExceeded):
        carry_horizon(block, 2, Meter(Budgets(max_multisets=28)))


def test_carry_horizon_prunes_by_shared_factor():
    # periods 2*1201 and 2*1193 in base 2 with their ones on opposite
    # parities never meet: every class fixes the parity of j, so the
    # search ends without the 1,200 classes a global row maximum keeps
    def parity_entry(half, parity):
        bits = [int(j % 2 == parity) for j in range(2 * half)]
        bits[parity] = 0  # makes 2 * half the least period
        return Fraction(int("".join(map(str, bits)), 2), 2 ** (2 * half) - 1)

    block = [parity_entry(1201, 0), parity_entry(1193, 1)]
    assert [len(digits(a, 2).period) for a in block] == [2402, 2386]
    meter = Meter(Budgets(max_multisets=10))
    assert carry_horizon(block, 2, meter) == CarryHorizon(INFINITY)
    assert meter.multisets <= 2


def _scan_first_carry(rows, p, meter):
    """``basep._first_carry`` with the plain scan only: every
    refinement's digit is read from its row, one period position at a
    time.  The reference for the line search."""
    t = len(rows)
    need = [p - 1 - sum(max(row) for row in rows[d:]) for d in range(t + 1)]
    moduli = list(itertools.accumulate((len(row) for row in rows), math.lcm, initial=1))
    tops = [[(g, [max(row[r::g]) for r in range(g)]) for row in rows[d:]
             for g in [math.gcd(moduli[d], len(row))]] for d in range(t + 1)]
    heap = []

    def push(c, total, d, first):
        row, step, later, slack = rows[d], moduli[d], tops[d + 1], need[d + 1] - total
        length = len(row)
        for j in range(c + step * first, c + moduli[d + 1], step):
            digit = row[j % length]
            if digit > slack and total + digit + sum(top[j % g] for g, top in later) > p - 1:
                heapq.heappush(heap, (j, -d - 1, (j - c) // step, c, total, total + digit))
                return

    if need[0] < 0:
        push(0, 0, 0, 0)
    while heap:
        j, depth, x, c, total, refined = heapq.heappop(heap)
        meter.charge_multisets()
        if -depth == t:
            return j
        push(c, total, -depth - 1, x + 1)
        push(j, refined, -depth, 0)
    return INFINITY


def _seeded_rows(rng, p):
    """Period rows for ``_first_carry``: the enumerate shapes (one
    nonzero digit per row, as in 1/(p^L - 1), two or three rows, with or
    without a short extra period), periods sharing a factor (so
    gcd(M_d, L_d) > 1), and sparse or dense rows of free lengths."""
    shape = rng.choice(["unit", "shared", "free"])
    if shape == "unit":
        lengths = rng.sample(range(2, 48), rng.randint(2, 3))
        if rng.random() < 0.5:
            lengths.append(rng.randint(1, 3))
        rows = []
        for L in lengths:
            row = [0] * L
            row[rng.randrange(L) if rng.random() < 0.3 else L - 1] = (
                1 if p < 5 else rng.randint(1, p - 1))
            rows.append(row)
        return [tuple(row) for row in rows]
    if shape == "shared":
        factor = rng.randint(2, 6)
        lengths = [factor * rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
    else:
        lengths = [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]
    density = rng.choice([0.05, 0.2, 0.5, 1.0])
    return [tuple(rng.randint(0, p - 1) if rng.random() < density else 0 for _ in range(L))
            for L in lengths]


def _first_carry_outcome(search, rows, p):
    meter = Meter(Budgets(max_multisets=20000))
    try:
        return search(rows, p, meter), meter.multisets
    except BudgetExceeded:
        return "budget", meter.multisets


def test_line_search_matches_scan(monkeypatch):
    """Seeded row sets: the line search of ``_first_carry`` finds the
    same first carry as the plain scan and takes the same classes off
    its heap (or stops at the same class on the budget)."""
    built = collections.Counter()

    def counted_line(row, step, r, cycle, slack):
        built["lines"] += 1
        built["off residue 0"] += r > 0
        built["scaled"] += step % len(row) > 1
        return line(row, step, r, cycle, slack)

    line = basep._line
    monkeypatch.setattr(basep, "_line", counted_line)
    rng = random.Random(27)
    outcomes = collections.Counter()
    for _ in range(1200):
        p = rng.choice([2, 3, 5, 7, 257])
        rows = _seeded_rows(rng, p)
        expected = _first_carry_outcome(_scan_first_carry, rows, p)
        before = built["lines"]
        assert _first_carry_outcome(basep._first_carry, rows, p) == expected, (rows, p)
        outcomes["finite" if expected[0] != INFINITY else "infinite"] += 1
        outcomes["built a line"] += built["lines"] > before
    assert min(outcomes.values()) >= 20, outcomes
    assert min(built.values()) >= 20, built


def test_carry_horizon_validation():
    with pytest.raises(InputError):
        carry_horizon(3, 2)  # not a sequence
    with pytest.raises(InputError):
        carry_horizon([Fraction(3, 2)], 2)
    with pytest.raises(InputError):
        carry_horizon([Fraction(1, 2)], 1)


def test_carry_horizon_json_value():
    assert CarryHorizon(3).to_json_value() == 3
    assert CarryHorizon(INFINITY).to_json_value() == "inf"
    assert CarryHorizon(3).finite
    assert not CarryHorizon(INFINITY).finite


def multinomial_nonzero_mod_p(parts, p):
    """Whether (sum(parts); parts) is a unit mod p, by Lucas: adding the
    parts in base p carries exactly when p divides it."""
    return basep._lucas(parts, p) is not None


def test_multinomial_nonzero_frozen():
    assert multinomial_nonzero_mod_p([2, 2], 7)  # C(4,2) = 6
    assert not multinomial_nonzero_mod_p([1, 1], 2)  # C(2,1) = 2
    assert multinomial_nonzero_mod_p([0, 0], 5)


def _exact_multinomial(parts):
    value = 1
    running = 0
    for part in parts:
        running += part
        value *= math.comb(running, part)
    return value


def test_multinomial_matches_exact_arithmetic():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        parts = [rng.randint(0, 40) for _ in range(rng.randint(2, 4))]
        expected = _exact_multinomial(parts) % p != 0
        assert multinomial_nonzero_mod_p(parts, p) == expected


def test_first_digit_criterion():
    blocks = [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]] * 2
    for p in (5, 7, 11):
        assert not in_P_rho_0(blocks, p)
    assert in_P_rho_0(blocks, 13)
    with pytest.raises(InputError):
        in_P_rho_0([[Fraction(1, 2)]], 5)  # block sum must exceed 1


def test_carry_free_criterion():
    blocks = [[Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3)]]
    assert in_P_rho_inf(blocks, 7)
    assert not in_P_rho_inf(blocks, 2)
    curve = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(1, 4)]]
    assert in_P_rho_inf(curve, 43)
