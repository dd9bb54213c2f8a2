"""The column-height search against the image and shell search it
replaced.

The climb finds each level from the height of each column of V(p^e)
along the last coordinate, between the image of the level below (the
floor) and the least of the inclusion bound and the heights of the
columns next to it (the ceiling): by bisection where every ideal is
principal, otherwise by climbing the column a point at a time.  The
image and shell search is kept below verbatim as the reference.  On
seeded random tuples, under budgets tight enough that the reference
refuses some of them, every level must hold the same members with the
same vectors wherever the reference answers, and the new search must
answer there too, spending no more multisets after any level, and where
some ideal has two or more generators no more term operations either.
"""

import collections
import functools
import itertools
import random
import sys
import tracemalloc

from fptcert import thresholds
from fptcert.basep import _check_int
from fptcert.budgets import Budgets, Meter
from fptcert.errors import BudgetExceeded, FptcertError, InputError, RingMismatch
from fptcert.fvolume import fvolume_count
from fptcert.geometry import _check_generators, _sequence
from fptcert.polyring import IntegersMod, _Box, parse_polynomial, reduce_mod_p
from fptcert.thresholds import _escape_sets
from test_escape_climb import _random_case, _random_generator
from test_escape_image import _metered

# --- reference: the image and shell search ----------------------------------


def _reference(ideals, e, budgets=None):
    """Yield the escape sets V(p), ..., V(p^e) of a tuple of ideals
    a_1, ..., a_t over GF(p), level by level: V(q) holds the tuples
    (n_1, ..., n_t) with a_1**n_1 ... a_t**n_t not inside
    (x_1**q, ..., x_m**q).  Each level is a dict from a member to an
    escaping generator exponent vector, whose entries over the
    generators of a_i (listed last to first) sum to n_i.

    A level's image, the n with m = ceil(n / p) a member one level down
    (V(1) is the origin), lies inside it: the p-th power of an escaping
    product escapes one level up, and so does each product dividing it, so p
    times the vector of m, lowered to the sums n_i, escapes.  It is charged,
    a multiset per point but the origin, then built a box per m.  The shell,
    the other members and the non-members next to them, is searched by |n|,
    parents first, from the frontier: the points past a top face n_i = p m_i
    of a box whose m + e_i is no member one level down.  At each point the
    vector of the first member parent, grown by one in each generator slot
    of the ideal that grew, is tried first, one multiset each.  If none
    escapes, all vectors are walked depth first, ideal by ideal and each
    ideal's generators last to first.  Vectors sharing a prefix share its
    product, and a prefix whose product is empty ends its loop, since a
    larger last exponent leaves it empty.  No exponent is tried that leaves
    more to place in its ideal than the later slots can take, each at most
    its top: the largest k with g**k nonempty in the box, at least p times
    its top one level down.  Each full vector tried and each prefix cut off
    costs one multiset.  The vectors only order the search: a member not
    read off the level below is confirmed by a product.

    Powers and products are truncated to the box below (q, ..., q)
    (``polyring._Box``): a term with some exponent >= q lies in the
    Frobenius power and so does every multiple of it, so a product
    escapes exactly when its truncation is nonzero.  Over GF(p),
    trunc_l(g**k) = Frob(trunc_(l-1)(g**(k div p))) trunc_l(g**(k mod p)),
    where Frob multiplies each exponent by p and keeps each coefficient
    (c**p = c); all levels pack a monomial alike, so Frob multiplies the
    packed keys by p.  Every level is downward closed, as the containment
    order forces: the image by construction, the shell as the search asserts.
    """
    ideals = [_sequence(gens, "generators") for gens in _sequence(ideals, "ideals")]
    generators = _check_generators([g for gens in ideals for g in gens])
    if not all(ideals):
        raise InputError("every ideal needs at least one generator")
    ring = generators[0].ring
    if not isinstance(ring, IntegersMod):
        raise RingMismatch("the Frobenius oracles need generators over GF(p)")
    _check_int(e, "e")

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
        # the image, charged before it is built
        meter.charge_multisets(sum(p ** sum(map(bool, m)) for m in below) - 1)
        members = {}
        layers = collections.defaultdict(set)
        for m, vector in below.items():
            ranges = [range(p * k - p + 1 if k else 0, p * k + 1) for k in m]
            for point in itertools.product(*ranges):
                members[point] = lowered(vector, point) if r > t else point
            # past the top face n_i = p m_i lies the box of m + e_i
            for i, up in enumerate(successors(m)):
                if up not in below:
                    face = ranges[:i] + [(p * m[i] + 1,)] + ranges[i + 1:]
                    for point in itertools.product(*face):
                        layers[sum(point)].add(point)
        # the shell, one layer |n| = depth at a time, all outside the image
        depth = min(layers)
        while layers:
            for point in layers.pop(depth, ()):
                parents = [
                    (i, point[:i] + (point[i] - 1,) + point[i + 1:])
                    for i in range(t)
                    if point[i]
                ]
                # with one generator per ideal (r == t) a point's only
                # vector is the point, so the grown vector is the whole search
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
                layers[depth + 1].update(successors(point))
            depth += 1
        yield members
        below = members



# --- differential test --------------------------------------------------------

CASES = 600
# e is drawn up to the top of the oracle workload's e-ladder at p
LADDER_TOP = {2: 4, 3: 3, 5: 2, 7: 2}
# tight enough that the reference runs out on some of the cases
BUDGETS = Budgets(max_terms=50000, max_multisets=5000)


def _random_principal_case(rng):
    p = rng.choice(tuple(LADDER_TOP))
    m = rng.randint(1, 3)
    t = rng.randint(1, 3)
    e = rng.randint(1, LADDER_TOP[p])
    return [[_random_generator(rng, p, m)] for _ in range(t)], e


def _levels(search, ideals, e, meters):
    """The levels of one search, each with the multisets and the term
    operations spent so far, or the error that stopped it."""
    levels = []
    try:
        for members in search(ideals, e, BUDGETS):
            levels.append((members, meters[-1].multisets, meters[-1].term_ops))
    except FptcertError as exc:
        return type(exc), str(exc)
    return levels


def test_column_heights_match_the_image_and_shell_search(monkeypatch):
    rng = random.Random(20261020)
    shapes = collections.Counter()
    for _ in range(CASES):
        ideals, e = _random_principal_case(rng)
        shapes["t = %d" % len(ideals)] += 1
        old = _metered(monkeypatch, sys.modules[__name__])
        new = _metered(monkeypatch, thresholds)
        expected = _levels(_reference, ideals, e, old)
        if isinstance(expected, tuple):
            assert expected[0] is BudgetExceeded, (ideals, e, expected)
            shapes["refused"] += 1
            continue
        found = _levels(_escape_sets, ideals, e, new)
        assert isinstance(found, list), (ideals, e, found)
        assert len(found) == e
        for level, ((members, spent, _), (reference, reference_spent, _)) in enumerate(
            zip(found, expected), 1
        ):
            assert members == reference, (ideals, level)
            assert spent <= reference_spent, (ideals, level)
        shapes["e = %d" % e] += 1
    assert min(shapes["t = %d" % t] for t in (1, 2, 3)) > 100, shapes
    assert shapes["e = 3"] + shapes["e = 4"] > 50, shapes
    assert 0 < shapes["refused"] <= CASES - 500, shapes


IDEAL_CASES = 400


def test_column_climb_matches_the_image_and_shell_search_for_ideals(monkeypatch):
    rng = random.Random(20261021)
    shapes = collections.Counter()
    for _ in range(IDEAL_CASES):
        ideals, e = _random_case(rng)
        if all(len(gens) == 1 for gens in ideals):
            continue
        shapes["t = %d" % len(ideals)] += 1
        old = _metered(monkeypatch, sys.modules[__name__])
        new = _metered(monkeypatch, thresholds)
        expected = _levels(_reference, ideals, e, old)
        if isinstance(expected, tuple):
            assert expected[0] is BudgetExceeded, (ideals, e, expected)
            shapes["refused"] += 1
            continue
        found = _levels(_escape_sets, ideals, e, new)
        assert isinstance(found, list), (ideals, e, found)
        assert len(found) == e
        for level, (now, before) in enumerate(zip(found, expected), 1):
            assert now[0] == before[0], (ideals, level)
            assert now[1] <= before[1] and now[2] <= before[2], (ideals, level)
        shapes["fewer multisets"] += found[-1][1] < expected[-1][1]
        shapes["e > 1"] += e > 1
    assert min(shapes["t = %d" % t] for t in (1, 2, 3)) > 50, shapes
    assert shapes["e > 1"] > 100 and shapes["fewer multisets"] > 50, shapes
    assert 0 < shapes["refused"] <= 50, shapes


def test_fvolume_count_of_two_cusps_at_depth():
    xyz = ("x", "y", "z")
    ideals = [
        [reduce_mod_p(parse_polynomial(text, xyz), 2)] for text in ("x^2+y^3", "y^2+z^3")
    ]
    tracemalloc.start()
    try:
        assert fvolume_count(ideals, 9) == 65536
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20  # the column heights, not the 65,536 members
