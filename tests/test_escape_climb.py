"""The level climb of the escape search against the per-level search it
replaced.

The earlier search looked for each V(p^e) from scratch, tried the
escaping vector of a member parent first and kept every power f^k; it
is kept below as the reference.  On seeded random tuples of ideals over
GF(p) every level of the climb must be the reference's escape set at
that level, and the vector kept for each member must split its
entries among the ideals as the member does.
"""

import collections
import functools
import itertools
import random

from fptcert.budgets import Budgets, Meter
from fptcert.errors import FptcertError, InputError, RingMismatch
from fptcert.geometry import _check_generators
from fptcert.polyring import IntegersMod, Polynomial, _Box
from fptcert.thresholds import _check_prime, _escape_sets

# --- reference: one search per level --------------------------------------


def _compositions(total, parts):
    """Nonnegative integer vectors with the given sum, in colex order."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in _compositions(total - last, parts - 1):
            yield rest + (last,)


class _PowerCache:
    """Lazily extended powers f**k of one packed polynomial, each formed
    by the metered truncated product ``mul``."""

    def __init__(self, poly, mul):
        self.poly = poly
        self.mul = mul
        self.cache = [{0: 1}, poly]

    def power(self, k):
        while len(self.cache) <= k:
            self.cache.append(self.mul(self.cache[-1], self.poly))
        return self.cache[k]


def _escape_set(ideals, e, budgets=None):
    ideals = [tuple(gens) for gens in ideals]
    generators = _check_generators([g for gens in ideals for g in gens])
    if not all(ideals):
        raise InputError("every ideal needs at least one generator")
    ring = generators[0].ring
    if not isinstance(ring, IntegersMod):
        raise RingMismatch("the Frobenius oracles need generators over GF(p)")
    _check_prime(ring.p)
    if not isinstance(e, int) or e < 1:
        raise InputError("e must be a positive integer")

    meter = Meter(budgets)
    box = _Box([ring.p**e] * generators[0].varcount, ring.p)
    mul = functools.partial(meter.mul, box)
    powers = [_PowerCache(box.pack(g), mul) for g in generators]
    sizes = [len(gens) for gens in ideals]
    offsets = list(itertools.accumulate(sizes, initial=0))
    t = len(ideals)

    def escapes(vector):
        product = None
        for power, k in zip(powers, vector):
            if k:
                factor = power.power(k)
                product = factor if product is None else mul(product, factor)
                if not product:
                    return False
        return True

    def candidates(point, witness, grown):
        tried = set()
        if witness is not None:
            for j in range(offsets[grown], offsets[grown + 1]):
                vector = witness[:j] + (witness[j] + 1,) + witness[j + 1:]
                tried.add(vector)
                yield vector
        for parts in itertools.product(*map(_compositions, point, sizes)):
            vector = sum(parts, ())
            if vector not in tried:
                yield vector

    def successors(point):
        return [point[:i] + (point[i] + 1,) + point[i + 1:] for i in range(t)]

    origin = (0,) * t
    members = {origin: None}
    seen = {origin}
    queue = collections.deque(successors(origin))
    while queue:
        point = queue.popleft()
        if point in seen:
            continue
        seen.add(point)
        parents = [
            (i, point[:i] + (point[i] - 1,) + point[i + 1:])
            for i in range(t)
            if point[i]
        ]
        grown, parent = next((i, q) for i, q in parents if q in members)
        for vector in candidates(point, members[parent], grown):
            meter.charge_multisets()
            if escapes(vector):
                break
        else:
            continue
        if any(q not in members for _, q in parents):
            raise FptcertError(
                "internal: escape set not downward closed at %r" % (point,)
            )
        members[point] = vector
        queue.extend(successors(point))
    return members


# --- seeded random tuples ---------------------------------------------------

PRIMES = (2, 3, 5, 7)
CASES = 320
# V(p^e) of t ideals has on the order of p^(e t) points, and the
# reference walks it from scratch at every level; drawn levels are
# lowered until p^(e t) stays within this many.  Past it, one ideal of
# three dense generators at p = 7, e = 3 can take 10^8 term operations
# or more in either search, beyond the default budget.
MAX_VOLUME = 256


def _random_generator(rng, p, m):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        monomial = tuple(rng.randint(0, 3) for _ in range(m))
        if any(monomial):
            terms[monomial] = rng.randint(1, p - 1)
    if not terms:
        terms[tuple(int(i == 0) for i in range(m))] = 1
    return Polynomial(IntegersMod(p), m, terms)


def _random_case(rng):
    p = rng.choice(PRIMES)
    m = rng.randint(1, 3)
    t = rng.randint(1, 3)
    e = rng.randint(1, 3)
    while e > 1 and p ** (e * t) > MAX_VOLUME:
        e -= 1
    ideals = [
        [_random_generator(rng, p, m) for _ in range(rng.randint(1, 3))]
        for _ in range(t)
    ]
    return ideals, e


def test_climb_matches_the_per_level_search():
    rng = random.Random(20261018)
    budgets = Budgets()
    levels_checked = 0
    for _ in range(CASES):
        ideals, e = _random_case(rng)
        offsets = list(itertools.accumulate(map(len, ideals), initial=0))
        climb = list(_escape_sets(ideals, e, budgets))
        assert len(climb) == e
        for level, members in enumerate(climb, 1):
            reference = _escape_set(ideals, level, budgets)
            assert set(members) == set(reference), (ideals, level)
            for point, vector in members.items():
                sums = [sum(vector[a:b]) for a, b in zip(offsets, offsets[1:])]
                assert tuple(sums) == point, (ideals, level, point)
            levels_checked += 1
    assert levels_checked > CASES
