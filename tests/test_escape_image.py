"""The escape search that reads each level off column heights against the
climb it replaced, which visited every point of each level one at a time.

The earlier climb is kept below verbatim as the reference.  On seeded
random tuples of ideals over GF(p) every level must hold the same
members with the same escaping vectors.  The column search climbs or
bisects only inside bounds that the level below and the columns next to
it set, so it must spend no more multisets than the reference after any
level, and where some ideal has two or more generators no more term
operations either.  A cap at either of its totals lets it finish, and a
cap one below stops it.
"""

import collections
import functools
import itertools
import random
import sys
import tracemalloc

import pytest

import fptcert.budgets
from fptcert import thresholds
from fptcert.budgets import Budgets, Meter
from fptcert.errors import BudgetExceeded, FptcertError, InputError, RingMismatch
from fptcert.geometry import _check_generators
from fptcert.polyring import IntegersMod, Polynomial, _Box
from fptcert.thresholds import _check_prime, _escape_sets
from test_escape_climb import _random_case

# --- reference: the one-point-at-a-time climb -------------------------------


def _reference(ideals, e, budgets=None):
    """Yield the escape sets V(p), ..., V(p^e) of a tuple of ideals
    a_1, ..., a_t over GF(p), level by level: V(q) holds the tuples
    (n_1, ..., n_t) with a_1**n_1 ... a_t**n_t not inside
    (x_1**q, ..., x_m**q).  Each level is a dict from a member to an
    escaping generator exponent vector, whose entries over the
    generators of a_i (listed last to first) sum to n_i.

    Each level is a breadth-first search from the origin.  A point n is
    a member, at the cost of one multiset, when m = ceil(n / p) is a
    member one level down (V(1) is the origin): the p-th power of an
    escaping product escapes one level up, and so does each product
    dividing it, so p times the vector of m, lowered to the sums n_i,
    escapes.  At any other point the vector of the first member parent,
    grown by one in each generator slot of the ideal that grew, is
    tried first, one multiset each.  If none escapes, all vectors are
    walked depth first, ideal by ideal and each ideal's generators last
    to first.  Vectors sharing a prefix share its product, and a prefix
    whose product is empty ends its loop, since a larger last exponent
    leaves it empty.  No exponent is tried that leaves more to place in
    its ideal than the later slots can take, each at most its top: the
    largest k with g**k nonempty in the box, at least p times its top
    one level down.  Each full vector tried and each prefix cut off
    costs one multiset.  The vectors only order the search: a member
    not read off the level below is confirmed by a product.

    Powers and products are truncated to the box below (q, ..., q)
    (``polyring._Box``): a term with some exponent >= q lies in the
    Frobenius power and so does every multiple of it, so a product
    escapes exactly when its truncation is nonzero.  Over GF(p),
    trunc_l(g**k) = Frob(trunc_(l-1)(g**(k div p))) trunc_l(g**(k mod p)),
    where Frob multiplies each exponent by p and keeps each coefficient
    (c**p = c); all levels pack a monomial alike, so Frob multiplies the
    packed keys by p.  The search asserts that every level is downward
    closed, as the containment order forces.
    """
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

    # slots list each ideal's generators last to first, so that the walk
    # below meets vectors in colex order within each ideal
    generators = [g for gens in ideals for g in reversed(gens)]
    p, t, r = ring.p, len(ideals), len(generators)
    meter = Meter(budgets)
    offsets = list(itertools.accumulate(map(len, ideals), initial=0))
    owner = [i for i, gens in enumerate(ideals) for _ in gens]
    one = {0: 1}
    # levels[l]: the metered product of the level-l box, the powers
    # trunc_l(g_j**k) for k < p (every k at level 1) in one list per
    # generator, and those for k >= p keyed by (j, k).  A level-l power
    # may read any level below through k div p**i; the lower levels
    # together hold far fewer terms than the top one.
    levels = [None]

    def power(level, j, k):
        mul, rows, high = levels[level]
        if k < p or level == 1:
            row = rows[j]
            while len(row) <= k:
                row.append(mul(row[-1], row[1]))
            return row[k]
        if (j, k) not in high:
            frob = {key * p: c for key, c in power(level - 1, j, k // p).items()}
            high[j, k] = mul(frob, power(level, j, k % p)) if k % p else frob
        return high[j, k]

    def escapes(level, vector):
        mul = levels[level][0]
        product = one
        for j, k in enumerate(vector):
            if k:
                factor = power(level, j, k)
                product = factor if product is one else mul(product, factor)
                if not product:
                    return False
        return True

    def walk(level, point):
        # Frames (j, rest, product, k): exponent k of generator j after
        # ``product``, the powers of vector[:j], with ``rest`` still to
        # place in its ideal.
        mul = levels[level][0]
        vector = [0] * r
        stack = [(0, point[0], one, 0)]
        while stack:
            j, rest, product, k = stack.pop()
            i = owner[j]
            last = j + 1 == offsets[i + 1]
            if last:
                k = rest
            else:
                k = max(k, rest - room[j + 1])
                if k > rest:
                    continue
            vector[j] = k
            factor = product
            if k:
                factor = power(level, j, k)
                factor = factor if product is one else mul(product, factor)
            if not factor or j + 1 == r:
                meter.charge_multisets()
                if factor:
                    return tuple(vector)
                continue
            if not last:
                stack.append((j, rest, product, k + 1))
            rest = point[i + 1] if last else rest - k
            stack.append((j + 1, rest, factor, 0))
        return None

    def lowered(vector, point):
        # p * vector, each ideal's entries lowered in slot order to the
        # sum point[i]
        out = [p * k for k in vector]
        for i, n in enumerate(point):
            extra = sum(out[offsets[i]:offsets[i + 1]]) - n
            for j in range(offsets[i], offsets[i + 1]):
                cut = min(extra, out[j])
                out[j] -= cut
                extra -= cut
        return tuple(out)

    def successors(point):
        return [point[:i] + (point[i] + 1,) + point[i + 1:] for i in range(t)]

    origin = (0,) * t
    below = {origin: (0,) * r}
    tops = [0] * r
    for level in range(1, e + 1):
        box = _Box([p**level] * generators[0].varcount, p, p**e)
        rows = [[one, box.pack(g)] for g in generators]
        levels.append((functools.partial(meter.mul, box), rows, {}))
        # tops[j]: the largest k with trunc_l(g_j**k) nonempty, at least
        # p times its value one level down, since Frob keeps g**(p k)
        # nonempty; room[j]: the sum of tops over slots j, j+1, ... of
        # its ideal
        tops = [p * k for k in tops]
        room = [0] * (r + 1)
        for j in reversed(range(r)):
            while power(level, j, tops[j] + 1):
                tops[j] += 1
            room[j] = tops[j]
            if j + 1 < offsets[owner[j] + 1]:
                room[j] += room[j + 1]
        members = {origin: below[origin]}
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
            # with one generator per ideal (r == t) a point's only
            # vector is the point, so the grown vector is the whole search
            up = tuple(-(-n // p) for n in point)
            if up in below:
                meter.charge_multisets()
                vector = lowered(below[up], point) if r > t else point
            else:
                grown, parent = next((i, q) for i, q in parents if q in members)
                witness = members[parent]
                for j in range(offsets[grown], offsets[grown + 1]):
                    vector = witness[:j] + (witness[j] + 1,) + witness[j + 1:]
                    meter.charge_multisets()
                    if escapes(level, vector):
                        break
                else:
                    vector = walk(level, point) if r > t else None
                    if vector is None:
                        continue
            if any(q not in members for _, q in parents):
                raise FptcertError(
                    "internal: escape set not downward closed at %r" % (point,)
                )
            members[point] = vector
            queue.extend(successors(point))
        yield members
        below = members


# --- differential test --------------------------------------------------------

CASES = 320
# every CAP_STRIDE-th case also runs the column search with each cap at
# its total and one below
CAP_STRIDE = 10


def _metered(monkeypatch, module):
    """Make ``module`` build its Meter through a factory that keeps
    every meter it makes in the returned list.  The factory reaches the
    class through its own module, as the name ``Meter`` here is replaced
    too."""
    meters = []

    def make(budgets=None):
        meters.append(fptcert.budgets.Meter(budgets))
        return meters[-1]

    monkeypatch.setattr(module, "Meter", make)
    return meters


def _outcome(search, ideals, e, budgets):
    try:
        return list(search(ideals, e, budgets))
    except FptcertError as exc:
        return type(exc), str(exc)


def test_image_and_shell_match_the_point_by_point_climb(monkeypatch):
    rng = random.Random(20261019)
    budgets = Budgets()
    shapes = collections.Counter()
    capped = 0
    for case in range(CASES):
        ideals, e = _random_case(rng)
        shapes["r > t"] += sum(map(len, ideals)) > len(ideals)
        shapes["t = 3"] += len(ideals) == 3
        old = _metered(monkeypatch, sys.modules[__name__])
        new = _metered(monkeypatch, thresholds)
        principal = all(len(gens) == 1 for gens in ideals)
        levels = zip(_reference(ideals, e, budgets), _escape_sets(ideals, e, budgets))
        for level, (expected, members) in enumerate(levels, 1):
            assert members == expected, (ideals, level)
            assert new[0].multisets <= old[0].multisets, (ideals, level)
            if not principal:
                assert new[0].term_ops <= old[0].term_ops, (ideals, level)
        assert level == e
        if case % CAP_STRIDE:
            continue
        for field, total in (
            ("max_multisets", new[0].multisets),
            ("max_terms", new[0].term_ops),
        ):
            answered = _outcome(_escape_sets, ideals, e, Budgets(**{field: total}))
            assert answered == list(_reference(ideals, e, budgets)), (ideals, field)
            outcome = _outcome(_escape_sets, ideals, e, Budgets(**{field: total - 1}))
            assert outcome[0] is BudgetExceeded, (ideals, field)
            capped += 1
    assert shapes["r > t"] > 50 and shapes["t = 3"] > 50, shapes
    assert capped == 2 * CASES // CAP_STRIDE


def test_image_is_charged_before_it_is_built():
    # V(2^l) of (x) is {0, ..., 2^l - 1}: levels 1..12 charge 8190
    # multisets, and the image of level 13 would charge 8190 more
    x = Polynomial(IntegersMod(2), 1, {(1,): 1})
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as caught:
            thresholds.nu([x], 20, Budgets(max_multisets=10**4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == "multiset budget exhausted (10001 > 10000)"
    assert peak < 2 * 2**20
