"""Nonterminating base-p expansions of rationals in (0, 1].

Every alpha in (0, 1] has a unique expansion alpha = sum d_k / p**k
whose digit tail is not eventually zero; rationals of the form a/p**e
get trailing digits p-1.  Digits are indexed from 1.  The convention
for truncation is <alpha>_0 = 0 and <0>_e = 0.
"""

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .budgets import Meter
from .errors import InputError


# The infinite carry horizon and truncation level: it compares above
# every int, and no function that takes it returns a float.
INFINITY = math.inf


def is_prime(n):
    """Deterministic Miller-Rabin, exact for every n < 3.3e24."""
    if not isinstance(n, int) or n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p):
    if not is_prime(p):
        raise InputError("p must be a prime number, got %r" % (p,))
    if p > 2**31 - 1:
        raise InputError("p must fit in 31 bits")


def _check_base(p):
    if not isinstance(p, int) or p < 2:
        raise InputError("base must be an integer >= 2, got %r" % (p,))


def _check_int(value, name, low=1):
    """Raise unless ``value`` is an int >= ``low`` (1 or 0) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InputError("%s must be a %s integer, got %r"
                         % (name, "positive" if low else "nonnegative", value))


def _sequence(items, name):
    """``items`` as a tuple, or InputError when it is not iterable."""
    try:
        iterator = iter(items)
    except TypeError:
        raise InputError("%s %r is not a sequence" % (name, items)) from None
    return tuple(iterator)


def _as_fraction(alpha):
    if isinstance(alpha, (Fraction, int)) and not isinstance(alpha, bool):
        return Fraction(alpha)
    raise InputError("expected an exact rational, got %r" % (alpha,))


@dataclass(frozen=True)
class DigitStream:
    """Eventually periodic digit sequence of a rational in (0, 1]."""

    base: int
    preperiod: tuple
    period: tuple
    value: Fraction

    def digit(self, k):
        """The k-th digit, k >= 1."""
        _check_int(k, "digit position")
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        return self.period[(k - len(self.preperiod) - 1) % len(self.period)]

    def digits_prefix(self, e):
        _check_int(e, "prefix length", 0)
        expansion = itertools.chain(self.preperiod, itertools.cycle(self.period))
        return list(itertools.islice(expansion, e))  # no copy of a long period

    def to_json_dict(self):
        return {"preperiod": self.preperiod, "period": self.period}  # tuples render as lists


class _Singles(dict):
    """d -> (d,): the one-digit blocks of a base past 256, none kept."""

    def __missing__(self, d):
        return (d,)


_SINGLES = _Singles()  # the digit table of every base past 256


def _digit_table(p, k):
    """Block b in 0..p**k - 1 -> its k base-p digits: for p <= 256 the
    memoized ``_byte_table``, which keeps the 16 most recently used; past
    256, k = 1 and every base shares _SINGLES, so a sweep over large primes
    keeps nothing."""
    return _byte_table(p, k) if p <= 256 else _SINGLES


@functools.lru_cache(maxsize=16)
def _byte_table(p, k):
    """Block b in 0..p**k - 1 -> its k base-p digits as bytes (p <= 256,
    and k > 1 only when p <= 64), leading digit first."""
    return list(map(bytes, itertools.product(range(p), repeat=k)))


@functools.cache
def _complement(p):
    """The translate table of byte b < p to p - 1 - b."""
    return bytes(range(p - 1, -1, -1)).ljust(256, b"\0")


def digits(alpha, p, meter=None):
    """DigitStream of alpha in (0, 1] in base p, with minimal preperiod.

    The expansion is the nonterminating one: digit k is
    ceil(p**k * alpha) - 1 - p * (ceil(p**(k-1) * alpha) - 1).  Each
    period digit costs one multiset on ``meter``, if given, whether walked
    or read as the complement of the first half, in one charge when the
    walk ends or at the step that would pass the cap.
    """
    preperiod, period = _walk(alpha, p, meter)
    return DigitStream(p, preperiod, tuple(period), _as_fraction(alpha))


def _walk(alpha, p, meter=None):
    """(preperiod, period) of ``digits``: the preperiod a tuple, the
    period the bytes it was walked in when p <= 256, else a list."""
    _check_base(p)
    alpha = _as_fraction(alpha)
    if not (0 < alpha <= 1):
        raise InputError("alpha must lie in (0, 1], got %s" % alpha)
    num, den = alpha.numerator, alpha.denominator
    # State r encodes the remaining value r/den in (0, 1]; the digit
    # emitted from state r is ceil(p*r/den) - 1, the next state p*r - d*den.
    # The preperiod lasts while den shares a prime with p (state j: num p^(j-1) % den).
    rest, sequence, r = den, [], num
    while (g := math.gcd(rest, p)) > 1:
        rest //= g
        d = -((-p * r) // den) - 1
        sequence.append(d)
        r = p * r - d * den
    # Then r/den = first/rest, rest prime to p, walked one block of k digits
    # per step.  As p**k <= rest < p**period, the period ends i <= k digits into
    # the step from state first * p**-i, taken in (0, rest] as the states are.
    # From state rest - r the digits are the (p - 1)-complements of those from
    # r, so if the walk reaches rest - first after h digits (when -1 is a power
    # of p mod rest), the period is those h digits and their complements.
    # back maps the state at the top of a step to i if the period ends i
    # digits into the step, or to -i if its first half does (the complement
    # rest - s of a state s that ends it); only rest = 2 has a state that
    # does both, and the period's end wins.
    first = r = r // (den // rest)
    k, step = 1, p
    while step * p <= min(rest, 4096):
        k, step = k + 1, step * p
    table = _digit_table(p, k)
    ends = {(first * pow(p, -i, rest) - 1) % rest + 1: i for i in range(1, k + 1)}
    back = {rest - state: -i for state, i in ends.items()} | ends
    period = bytearray() if p <= 256 else []  # a byte per digit
    limit = None if meter is None else max(
        (meter.budgets.max_multisets - meter.multisets) // k + 1, 1)
    for _ in itertools.count() if meter is None else range(1, limit):
        if r in back:
            break
        x = step * r - 1  # d = ceil(step r / rest) - 1 = x // rest, next state x % rest + 1
        d = x // rest
        period += table[d]
        r = x % rest + 1
    else:
        meter.charge_multisets(k * limit)  # step limit passes the cap: it raises
    i = back[r]
    period += table[(step * r - 1) // rest][:abs(i)]
    if i < 0:
        period += period.translate(_complement(p)) if p <= 256 else [p - 1 - d for d in period]
    if meter is not None:  # k digits per step of the whole period
        meter.charge_multisets(k * -(-len(period) // k))
    return tuple(sequence), bytes(period) if p <= 256 else period


def digit_at(alpha, p, k):
    """The k-th digit of the nonterminating expansion: p**k times the step
    from <alpha>_(k-1) to <alpha>_k; digit_at(0, p, k) is 0."""
    _check_int(k, "digit position")
    _check_base(p)
    return int(p**k * (truncation(alpha, p, k) - truncation(alpha, p, k - 1)))


def truncation(alpha, p, e):
    """The e-th truncation <alpha>_e of the nonterminating expansion.

    <alpha>_0 = 0, <0>_e = 0, <alpha>_INFINITY = alpha, and otherwise
    <alpha>_e = (ceil(p**e * alpha) - 1) / p**e.
    """
    _check_base(p)
    alpha = _as_fraction(alpha)
    if not (0 <= alpha <= 1):
        raise InputError("alpha must lie in [0, 1], got %s" % alpha)
    if e == INFINITY:
        return alpha
    _check_int(e, "truncation level", 0)
    if e == 0 or alpha == 0:
        return Fraction(0)
    return Fraction(math.ceil(p**e * alpha) - 1, p**e)


@dataclass(frozen=True)
class CarryHorizon:
    """Largest level through which a block of digit streams adds
    without carrying; ``value`` is an int >= 0 or INFINITY."""

    value: object

    @property
    def finite(self):
        return self.value != INFINITY

    def to_json_value(self):
        return self.value if self.finite else "inf"


def carry_horizon(block, p, meter=None):
    """CarryHorizon of one block: the largest S such that the digit sums
    stay <= p - 1 at every level 1..S (level 0 never violates).  If no
    level violates, the horizon is INFINITY.

    Levels up to the longest preperiod A are scanned one by one.  Past
    A the joint digits are periodic, and the first carry is found from
    residue classes (``_first_carry``) without walking the lcm of the
    periods.  Each class taken off its heap is charged to ``meter``'s
    multiset budget (a fresh ``Meter()`` when None)."""
    _check_base(p)
    streams = []
    for alpha in _sequence(block, "block"):
        alpha = _as_fraction(alpha)
        if not (0 <= alpha <= 1):
            raise InputError("entries must lie in [0, 1], got %s" % alpha)
        if alpha > 0:
            streams.append(_walk(alpha, p))
    if not streams:
        return CarryHorizon(INFINITY)
    start = max(len(preperiod) for preperiod, _ in streams)
    heads = [itertools.islice(itertools.chain(preperiod, itertools.cycle(period)), start)
             for preperiod, period in streams]
    for k, column in enumerate(zip(*heads)):
        if sum(column) > p - 1:
            return CarryHorizon(k)
    # past the preperiods, row i holds the digit of stream i at level
    # start + 1 + j at index j mod its period length (bytes when p <= 256)
    rows = []
    for preperiod, period in streams:
        shift = (start - len(preperiod)) % len(period)
        rows.append(period[shift:] + period[:shift])
    meter = meter if meter is not None else Meter()
    return CarryHorizon(start + _first_carry(rows, p, meter))


def _first_carry(rows, p, meter):
    """The least j >= 0 with sum_d rows[d][j mod len(rows[d])] > p - 1,
    or INFINITY.

    A class j = c (mod M_d), 0 <= c < M_d, M_d the lcm of the first d
    row lengths, fixes the first d rows and j mod gcd(M_d, L_k) for each
    later row k of length L_k.  By the CRT its refinements by row d are
    the L_d / gcd(M_d, L_d) classes c + M_d x mod M_{d+1}, in increasing
    order of x and of c + M_d x.  A class survives while its sum so far
    plus the largest entry of every later row at the residues it fixes
    exceeds p - 1 (the sum exceeding need[d], p - 1 minus the largest
    entry of every later row, is the cheap first test).  Classes leave a
    heap smallest c first, and each pushes only its own first surviving
    refinement and its parent's next one, so the heap holds at most one
    entry more than the classes taken off it, every class taken off has
    c <= j, and the first one that fixes every row gives the least j.

    With g = gcd(M_d, L_d) and cycle = L_d / g, the refinements of c
    read row d at r + g y mod L_d, r = c mod g, y = q + (M_d / g) x mod
    cycle and q = (c mod L_d) // g.  The line of (d, slack, r) holds at
    byte i whether row d's digit at r + M_d i mod L_d passes the cheap
    test, written twice, so refinement x is byte at + x with at = q
    (M_d / g)^-1 mod cycle, and ``bytes.find`` jumps to the next
    candidate.  A key gets its line only once its scans have read as
    many digits as the line holds, 2 cycle, and never for a negative
    slack, which every digit passes, so building lines adds at most
    half to the digits a plain scan reads."""
    t = len(rows)
    highs = [max(row) for row in rows]
    need = [p - 1 - sum(highs[d:]) for d in range(t + 1)]
    if need[0] >= 0:  # not even the largest digits of all rows together carry
        return INFINITY
    moduli = list(itertools.accumulate((len(row) for row in rows), math.lcm, initial=1))
    # tops[d]: for every row k > d, g = gcd(M_{d+1}, L_k) and the largest
    # entry of the row at each residue mod g
    tops = [[(g, [max(row[r::g]) for r in range(g)]) for row in rows[d:]
             for g in [math.gcd(moduli[d], len(row))]] for d in range(1, t + 1)]
    shapes = [(g, len(row) // g, pow(step // g, -1, len(row) // g))
              for row, step in zip(rows, moduli) for g in [math.gcd(step, len(row))]]
    lines = {}  # (d, slack, r) -> its line, or the digits its scans have read
    heap = []

    def push(c, total, d, first):
        # the first surviving refinement c + M_d x, x >= first, of class c at depth d
        row, step, later, slack = rows[d], moduli[d], tops[d], need[d + 1] - total
        length, (share, cycle, inverse) = len(row), shapes[d]
        key = (d, slack, c % share)
        line = lines.get(key, 0)
        if type(line) is int:
            x = cycle - 1
            for j in range(c + step * first, c + moduli[d + 1], step):
                digit = row[j % length]
                if digit > slack and total + digit + sum(top[j % g] for g, top in later) > p - 1:
                    x = (j - c) // step
                    heapq.heappush(heap, (j, -d - 1, x, c, total, total + digit))
                    break
            if slack >= 0:
                line += x + 1 - first
                lines[key] = line if line < 2 * cycle else _line(row, step, key[2], cycle, slack)
            return
        at = c % length // share * inverse % cycle
        i = line.find(1, at + first, at + cycle)
        while i >= 0:
            j = c + step * (i - at)
            digit = row[j % length]
            if total + digit + sum(top[j % g] for g, top in later) > p - 1:
                heapq.heappush(heap, (j, -d - 1, i - at, c, total, total + digit))
                return
            i = line.find(1, i + 1, at + cycle)

    push(0, 0, 0, 0)  # the class of every j, 0 mod 1
    while heap:
        j, depth, x, c, total, refined = heapq.heappop(heap)
        meter.charge_multisets()
        if -depth == t:
            return j
        push(c, total, -depth - 1, x + 1)
        push(j, refined, -depth, 0)
    return INFINITY


def _line(row, step, r, cycle, slack):
    """Byte i, for 0 <= i < 2 cycle: whether row[(r + step i) mod
    len(row)] exceeds ``slack`` (the line of ``_first_carry``)."""
    length = len(row)
    step = step % length or length  # a step of 0 mod length leaves cycle = 1
    line = bytes([row[k % length] > slack for k in range(r, r + step * cycle, step)])
    return line + line


def adds_without_carrying(alphas, p, meter=None):
    """True when at every digit position the digits of the given
    rationals sum to at most p - 1 (``carry_horizon`` on ``meter``)."""
    return not carry_horizon(alphas, p, meter).finite


def _lucas(parts, p):
    """Lucas: None when adding the parts in base p carries, else the
    multinomials mod p of their digits, position by position, whose
    product is (sum(parts); parts) mod p when p is prime.  Every carry
    is read before any binomial is computed."""
    columns = []
    while any(parts):
        column = [x % p for x in parts]
        if sum(column) > p - 1:
            return None
        columns.append(column)
        parts = [x // p for x in parts]
    return (math.prod(map(math.comb, itertools.accumulate(c), c)) % p for c in columns)


def in_P_rho_0(blocks, p):
    """First-digit criterion: every block's first digits sum to at
    least p.  Each block must have coordinate sum exceeding 1, which
    guarantees membership for all large p."""
    _check_base(p)
    results = []
    for block in _sequence(blocks, "blocks"):
        entries = [_as_fraction(x) for x in _sequence(block, "block")]
        if sum(entries) <= 1:
            raise InputError(
                "first-digit criterion needs each block sum > 1, got %s"
                % sum(entries)
            )
        results.append(sum(digit_at(x, p, 1) for x in entries) >= p)
    return all(results)


def in_P_rho_inf(blocks, p, meter=None):
    """Carry-free criterion: every block adds without carrying in
    base p, all charged to one ``meter`` (a fresh ``Meter()`` if None)."""
    _check_base(p)
    meter = meter if meter is not None else Meter()
    return all(adds_without_carrying(block, p, meter) for block in _sequence(blocks, "blocks"))
