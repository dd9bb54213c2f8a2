"""Threshold certificates in prime characteristic.

For an ideal generated by polynomials f_1, ..., f_t whose splitting
polytope has a unique coordinate-sum maximizer rho, the base-p carry
horizons of the blocks of rho yield either the exact threshold
lim nu(p^e)/p^e or a certified lower bound, together with the upper
bound min(t, |rho|).  A brute-force Frobenius membership scan provides
the independent oracle nu, and a digit-truncation witness checks the
predicted coefficient of the escaping monomial.
"""

import collections
import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .basep import (
    INFINITY,
    CarryHorizon,
    _check_int,
    _check_prime,
    _lucas,
    _sequence,
    carry_horizon,
    in_P_rho_0,
    in_P_rho_inf,
    truncation,
)
from .budgets import Meter, _check_text_digits
from .errors import (
    BudgetExceeded,
    FptcertError,
    InputError,
    NonUniqueMaximalPoint,
    RingMismatch,
)
from .geometry import (
    _check_generators,
    _polynomials,
    _solved,
    exponent_matrix,
    reduce_generators,
)
from .polyring import (
    QQ,
    IntegersMod,
    Polynomial,
    _Box,
    reduce_mod_p,
)

KIND_EXACT = "exact"
KIND_LOWER_BOUND = "lower_bound"

CASE_DIAGONAL_ABOVE_T = "diagonal_above_t"
CASE_DIAGONAL_AT_MOST_T = "diagonal_at_most_t"
CASE_INCONCLUSIVE = "inconclusive"


def _to_fp_generators(generators, p):
    """Reduce rational generators mod p, or validate that generators
    already over GF(p) match the requested prime."""
    _check_prime(p)
    out = []
    for i, g in enumerate(_polynomials(generators)):
        if g.ring == QQ:
            reduced = reduce_mod_p(g, p)
            if reduced.is_zero():
                raise InputError("generator %d reduces to zero mod %d" % (i, p))
            out.append(reduced)
        elif isinstance(g.ring, IntegersMod):
            if g.ring.p != p:
                raise RingMismatch(
                    "generator %d lives over GF(%d), expected GF(%d)"
                    % (i, g.ring.p, p)
                )
            out.append(g)
        else:
            raise RingMismatch("unsupported coefficient ring %r" % (g.ring,))
    return tuple(out)


def _unique_rho(generators, p=None):
    """Shared pipeline: reduce mod p (unless p is None), build the
    exponent matrix, and demand a unique maximal point.  Returns
    (mapping, matrix, cert)."""
    if p is not None:
        generators = _to_fp_generators(generators, p)
    mapping = reduce_generators(generators)
    matrix = exponent_matrix(mapping)
    cert = _solved(matrix)
    if not cert.unique:
        free = cert.free_coordinates
        raise NonUniqueMaximalPoint(
            "the maximal face is not a point: %d coordinate(s) remain free" % len(free)
            + ("" if p is None else ", so the face has dimension between 1 and %d" % len(free)),
            free_coordinates=free,
            coordinate_ranges=cert.coordinate_ranges,
        )
    return mapping, matrix, cert


def _jsonable(value):
    """JSON form of a value: rationals as strings, tuples as lists, carry
    horizons as an int or "inf"; a number too long for text is refused."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, CarryHorizon):
        return value.to_json_value()
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:  # str() refuses it: the check words the refusal
            _check_text_digits(value.numerator, value.denominator)
            raise
    if isinstance(value, int) and value.bit_length() > 1920:
        _check_text_digits(value)  # under 2**1920 < 10**640, the least limit, it fits
    return value


def _json_fields(result, **keys):
    """A result dataclass's fields in declaration order through _jsonable, each
    under its own name or the key given for it (a key of None leaves it out)."""
    return {
        key: _jsonable(getattr(result, field.name))
        for field in fields(result)
        if (key := keys.get(field.name, field.name)) is not None
    }


@dataclass(frozen=True)
class FptCertificate:
    """Exact value or certified lower bound for the limiting ratio
    nu(p^e)/p^e, together with the upper bound min(t, |rho|)."""

    p: int
    kind: str
    value: Fraction
    upper_bound: Fraction
    rho_blocks: tuple
    horizons: tuple  # CarryHorizon per block
    finite_indices: tuple  # 0-based block indices with finite horizon
    floors: tuple  # block floors at level INFINITY, summing to value

    @property
    def t(self):
        return len(self.rho_blocks)

    @property
    def block_sums(self):
        return tuple(sum(block, Fraction(0)) for block in self.rho_blocks)

    def to_json_dict(self):
        return _json_fields(self, rho_blocks="rho", horizons="S", finite_indices="I",
                            floors=None)


def _block_floors(p, rho_blocks, horizons, level):
    """Per-block floors of the digit construction at ``level``, a
    positive integer or INFINITY.

    A block whose horizon S_i < level contributes
    |<rho_i>_{S_i}| + p**-S_i - p**-level; any other block contributes
    |<rho_i>_level|.  The threshold bounds are sums of these floors and
    the volume bounds their products.
    """
    if level == INFINITY:
        tail = 0
    else:
        _check_int(level, "scan level")
        tail = Fraction(1, p**level)
    floors = []
    for block, horizon in zip(rho_blocks, horizons):
        s = horizon.value
        if s < level:
            floor = sum(truncation(a, p, s) for a in block) + Fraction(1, p**s)
            floors.append(floor - tail)
        else:
            floors.append(sum(truncation(a, p, level) for a in block))
    return floors


@functools.lru_cache(maxsize=256)
def _certified(generators, p, budgets):
    """(multisets charged, certificate) of a generator tuple over GF(p), the carry
    searches run on a fresh ``Meter(budgets)``; bounded like geometry._solved."""
    _, _, cert = _unique_rho(generators, p)
    rho_blocks = cert.blocks_of_rho
    meter = Meter(budgets)
    horizons = tuple(carry_horizon(block, p, meter) for block in rho_blocks)
    finite_indices = tuple(i for i, h in enumerate(horizons) if h.finite)
    floors = tuple(_block_floors(p, rho_blocks, horizons, INFINITY))
    return meter.multisets, FptCertificate(
        p=p,
        kind=KIND_LOWER_BOUND if finite_indices else KIND_EXACT,
        value=sum(floors),
        upper_bound=min(Fraction(len(rho_blocks)), cert.M),
        rho_blocks=rho_blocks,
        horizons=horizons,
        finite_indices=finite_indices,
        floors=floors,
    )


def fpt_bound(generators, p, meter=None):
    """Certificate for the threshold of the ideal the generators span,
    over GF(p).  Rational generators are reduced mod p first.  Every
    block's carry search is charged to ``meter`` (``Meter()`` if None).

    Each (generator tuple, p, budgets) is certified once per process
    (``_certified``): every call returns the same frozen certificate and
    charges ``meter`` the multisets of the search in one charge, so the
    totals and the refusal are those of the search.  A search its own
    meter refuses is charged past the caller's cap, with the same message.

    When every block of rho adds without carrying in base p the value
    is exact (it equals |rho|); otherwise the finite carry horizons
    S_i produce the certified lower bound
    sum_{i not in I} |rho_i| + sum_{i in I} (|<rho_i>_{S_i}| + p**-S_i),
    the sum of the block floors at level INFINITY.
    """
    _check_prime(p)
    generators = _polynomials(generators)
    meter = meter if meter is not None else Meter()
    try:
        charged, certificate = _certified(generators, p, meter.budgets)
    except BudgetExceeded:  # the search passed the cap: the charge below raises too
        charged, certificate = meter.budgets.max_multisets + 1, None
    meter.charge_multisets(charged)
    return certificate


def witness_floor(certificate, scan_level):
    """Per-level floor certified by the digit construction behind the
    bound: nu(p**E) >= p**E * witness_floor(cert, E) for E >= 1.

    Blocks still carry-free at level E contribute |<rho_i>_E|; a block
    with horizon S_i < E contributes |<rho_i>_{S_i}| plus the tail
    (p**(E - S_i) - 1) / p**E made of maximal digits past the horizon.
    """
    return sum(
        _block_floors(
            certificate.p, certificate.rho_blocks, certificate.horizons, scan_level
        )
    )


class _Columns(Mapping):
    """A level held as its column heights {n': h}: the points n' + (k,),
    0 <= k <= h, column by column.  A point maps to its escaping vector,
    kept in ``vectors`` when some ideal has two or more generators and
    otherwise the point itself.  ``size`` counts the points; len() is it
    while it fits an index."""

    def __init__(self, heights, vectors=None):
        self.heights = heights
        self.vectors = vectors
        self.size = sum(heights.values()) + len(heights)

    def __getitem__(self, point):
        if type(point) is tuple and point:
            if 0 <= point[-1] <= self.heights.get(point[:-1], -1):
                return point if self.vectors is None else self.vectors[point]
        raise KeyError(point)

    def __iter__(self):
        for prefix, height in self.heights.items():
            for k in range(height + 1):
                yield prefix + (k,)

    def __len__(self):
        return self.size


def _escape_sets(ideals, e, budgets=None):
    """Yield the escape sets V(p), ..., V(p^e) of a tuple of ideals
    a_1, ..., a_t over GF(p), level by level: V(q) holds the tuples
    (n_1, ..., n_t) with a_1**n_1 ... a_t**n_t not inside
    (x_1**q, ..., x_m**q).  Each level is a mapping from a member to an
    escaping generator exponent vector, whose entries over the
    generators of a_i (listed last to first) sum to n_i.

    A level is read off its column heights h(n') = max{n_t : (n', n_t)
    in V(q)}, one per prefix n' of the other t - 1 entries, visited by
    |n'|, and yielded as a view of them (``_Columns``).  A level's image,
    the n with m = ceil(n / p) a member one level down (V(1) is the
    origin), lies inside it: the p-th power of an escaping product
    escapes one level up, and so does each product dividing it, so p
    times the vector of m, lowered to the sums n_i, escapes.  So h(n') is
    at least p h'(ceil(n' / p)), h' the heights one level down.  The
    image is charged before the level is built, a multiset per point but
    the origin, per column of the level below: p**|supp n'| (1 + h p).

    The height is at most each h(n' - e_i), by downward closure, and at
    most the room of a_t, the sum of its generators' tops: the largest k
    with g**k nonempty in the box, at least p times its top one level
    down.  A prefix past the room of its ideal has no members.  With
    c_i generators, a_i**n lies in (a_i**d)^[p] for
    d = max(0, ceil((n - c_i (p - 1)) / p)), as the exponents k of each
    product of n generators have quotients k div p summing to at least
    d.  So a product outside the Frobenius power at q puts d, taken
    entry by entry, inside V(q / p): the height is at most
    p h'(d') + c_t (p - 1), and the column is empty when d' has no
    column one level down.  Bounds that cross are an internal error;
    between them every member has its parents in the level, so every
    level is downward closed.

    Where every ideal is principal a point is its own vector, and the
    height is bisected between the bounds, one product and one multiset
    per probe.  Otherwise the column keeps its image points, each with
    the lowered vector, then climbs a point at a time up to the ceiling
    until a point does not escape.  At each point the vector of the first
    parent, grown by one in each generator slot of the ideal that grew,
    is tried first, one multiset each.  If none escapes, all vectors are
    walked depth first, ideal by ideal and each ideal's generators last
    to first.  Vectors sharing a prefix share its product, and a prefix
    whose product is empty ends its loop, since a larger last exponent
    leaves it empty.  No exponent is tried that leaves more to place in
    its ideal than the later slots can take, each at most its top.  Each
    full vector tried and each prefix cut off costs one multiset.

    Powers and products are truncated to the box below (q, ..., q)
    (``polyring._Box``): a term with some exponent >= q lies in the
    Frobenius power and so does every multiple of it, so a product
    escapes exactly when its truncation is nonzero.  Over GF(p),
    trunc_l(g**k) = Frob(trunc_(l-1)(g**(k div p))) trunc_l(g**(k mod p)),
    where Frob multiplies each exponent by p and keeps each coefficient
    (c**p = c); all levels pack a monomial alike, so Frob multiplies the
    packed keys by p.
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
    sizes = list(map(len, ideals))
    offsets = list(itertools.accumulate(sizes, initial=0))
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
        return [point[:i] + (point[i] + 1,) + point[i + 1:] for i in range(len(point))]

    def escaping(level, point, vectors):
        # the vector of the first parent grown in the ideal that grew,
        # else the walk; None if the point does not escape
        i = next(i for i, n in enumerate(point) if n)
        witness = vectors[point[:i] + (point[i] - 1,) + point[i + 1:]]
        for j in range(offsets[i], offsets[i + 1]):
            vector = witness[:j] + (witness[j] + 1,) + witness[j + 1:]
            meter.charge_multisets()
            if escapes(level, vector):
                return vector
        return walk(level, point)

    def columns(level, lower):
        # V(p^level) from the level below, one layer |n'| at a time; a
        # bound of -1 is an empty column, and empty columns are not kept
        below, found = lower.heights, {}
        vectors = None if r == t else {}
        layer = {(0,) * (t - 1)}
        while layer:
            grown = set()
            for prefix in layer:
                up = tuple(-(-n // p) for n in prefix)
                lo = p * below[up] if up in below else -1
                # d_i = max(0, ceil((n_i - c_i (p - 1)) / p))
                down = tuple(
                    max(0, (n - (c - 1) * (p - 1)) // p) for n, c in zip(prefix, sizes)
                )
                hi = p * below[down] + sizes[-1] * (p - 1) if down in below else -1
                hi = min(hi, room[offsets[-2]])
                for i, n in enumerate(prefix):
                    if n:
                        q = prefix[:i] + (n - 1,) + prefix[i + 1:]
                        hi = min(hi, found.get(q, -1) if n <= room[offsets[i]] else -1)
                if lo > hi:
                    raise FptcertError(
                        "internal: column bounds crossed at %r" % (prefix,)
                    )
                if vectors is None:
                    while lo < hi:
                        mid = (lo + hi + 1) // 2
                        meter.charge_multisets()
                        if escapes(level, prefix + (mid,)):
                            lo = mid
                        else:
                            hi = mid - 1
                else:
                    for k in range(lo + 1):
                        point = prefix + (k,)
                        vectors[point] = lowered(lower[up + (-(-k // p),)], point)
                    while lo < hi and (vector := escaping(level, prefix + (lo + 1,), vectors)):
                        lo += 1
                        vectors[prefix + (lo,)] = vector
                if lo >= 0:
                    found[prefix] = lo
                    grown.update(successors(prefix))
            layer = grown
        return _Columns(found, vectors)

    origin = (0,) * t
    members = _Columns({origin[1:]: 0}, {origin: (0,) * r})
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
        # the image, charged before it is built; a column's points (n', k),
        # k = 0..h, have supports |supp n'| + [k > 0]
        meter.charge_multisets(
            sum(p ** sum(map(bool, n)) * (1 + h * p) for n, h in members.heights.items()) - 1
        )
        members = columns(level, members)
        yield members


def _escape_set(ideals, e, budgets=None):
    """V(p^e), the last level of _escape_sets."""
    return collections.deque(_escape_sets(ideals, e, budgets), maxlen=1).pop()


def nu(generators, e, budgets=None):
    """max{c : (f_1, ..., f_t)**c is not inside (x_1**q, ..., x_m**q)}
    for q = p**e.  Generators must be nonzero members of the maximal
    ideal over GF(p).  For one ideal the escape set is {0, ..., nu}, so
    this is Card V(p^e) - 1 (see _escape_sets).
    """
    return _escape_set([generators], e, budgets).size - 1


def _ladder(ideals, p, e_max, budgets):
    """Yield (e, Card V(p^e), p**(e t)) for e = 1..e_max, all read from
    one climb (_escape_sets) over the t ideals and one meter.  Rational
    generators are reduced mod p first."""
    _check_int(e_max, "e_max")
    fp_ideals = [_to_fp_generators(gens, p) for gens in _sequence(ideals, "ideals")]
    for e, level in enumerate(_escape_sets(fp_ideals, e_max, budgets), 1):
        yield e, level.size, p ** (e * len(fp_ideals))


def fpt_estimate(generators, p, e_max, budgets=None):
    """Rows (e, nu(p**e), nu(p**e)/p**e) for e = 1..e_max (_ladder)."""
    rows = _ladder([generators], p, e_max, budgets)
    return [(e, n - 1, Fraction(n - 1, q)) for e, n, q in rows]


@dataclass(frozen=True)
class WitnessReport:
    """Comparison of the predicted and the expanded coefficient of the
    escaping monomial x**(p**e E <rho>_e) in prod f_i**(p**e |<rho_i>_e|)."""

    p: int
    e: int
    match: bool
    expected: int
    actual: int
    exponents: tuple  # Q_i = p**e |<rho_i>_e| per block
    target: tuple  # exponent vector of the escaping monomial
    per_block: tuple  # (Q_i, parts, multinomial mod p, coefficient power mod p)

    def to_json_dict(self):
        return {
            **_json_fields(self, per_block=None),
            "blocks": [
                {
                    "Q": q,
                    "parts": list(parts),
                    "multinomial_mod_p": multi,
                    "coefficient_power_mod_p": cpow,
                }
                for q, parts, multi, cpow in self.per_block
            ],
        }


def coefficient_witness(generators, p, e, budgets=None):
    """Expand g = prod f_i**(p**e |<rho_i>_e|) over GF(p) below the target,
    one base-p digit of the exponents at a time, and compare the coefficient of
    x**(p**e E <rho>_e) with the digit prediction:
    the product over blocks of the multinomial (Q_i; p**e <rho_i>_e)
    times the matching powers of the retained coefficients."""
    _check_int(e, "e")
    _check_prime(p)  # p=None would be _unique_rho's classifier mode
    mapping, matrix, cert = _unique_rho(generators, p)
    meter = Meter(budgets)
    parts_per_block = [
        [int(p**e * truncation(a, p, e)) for a in block] for block in cert.blocks_of_rho
    ]
    exponents = [sum(parts) for parts in parts_per_block]
    flat_parts = [x for parts in parts_per_block for x in parts]
    target = tuple(
        sum(col[i] * k for col, k in zip(matrix.columns, flat_parts))
        for i in range(matrix.varcount)
    )
    _check_text_digits(*exponents, *target)
    # P_k = prod f_i**(Q_i div p**k) is Frob(P_(k+1)) prod f_i**(digit k of
    # Q_i), kept below target div p**k: only those terms reach the target.
    # All levels pack alike (one room), so Frob multiplies the keys by p.
    scale, product = 1, {0: 1}
    while scale * p <= max(exponents):
        scale *= p
    while scale:  # scale = p**k, from the top digit k down
        box = _Box([x // scale + 1 for x in target], p, max(target) + 1)
        product = {key * p: c for key, c in product.items()}
        for g, q_i in zip(mapping.original_generators, exponents):
            for packed in itertools.repeat(box.pack(g), q_i // scale % p):  # digit k of Q_i
                product = meter.mul(box, product, packed)
        scale //= p
    actual = product.get(box.key(target), 0)

    expected = 1
    per_block = []
    for parts, q, coeffs in zip(parts_per_block, exponents, mapping.coeff_columns):
        columns = _lucas(parts, p)  # None: a carry, so p divides the multinomial
        multi = 0 if columns is None else math.prod(columns) % p
        cpow = math.prod(pow(c, k, p) for c, k in zip(coeffs, parts)) % p
        per_block.append((q, tuple(parts), multi, cpow))
        expected = expected * multi * cpow % p

    return WitnessReport(
        p=p,
        e=e,
        exponents=tuple(exponents),
        target=target,
        expected=expected,
        actual=actual,
        match=expected == actual,
        per_block=tuple(per_block),
    )


@dataclass(frozen=True)
class LctVerdict:
    """Outcome of the characteristic-zero comparison: which side of t
    the diagonal threshold falls on, and what equality to expect for
    good primes."""

    case: str
    value: object  # Fraction, or None when inconclusive
    t: int
    rho_blocks: tuple
    block_sums: tuple
    prime_predicate: str
    checked_primes: tuple
    failed_hypothesis: object  # str or None

    @property
    def conclusive(self):
        return self.case != CASE_INCONCLUSIVE

    def with_checked(self, p, holds):
        return replace(self, checked_primes=self.checked_primes + ((p, holds),))

    def to_json_dict(self):
        return _json_fields(self, rho_blocks="rho")


def lct_fpt_classifier(generators):
    """Classify rational generators by the block sums of rho.

    All block sums above 1: for good primes the positive-characteristic
    threshold equals the number of generators t.  All block sums at
    most 1: for good primes it equals |rho|, the common threshold of
    the term ideal (for rational rho the carry-free prime set is
    automatically infinite: it contains every p = 1 mod the lcm of the
    denominators).  Mixed sums: inconclusive.

    Each generator tuple is classified once per process (``_classified``):
    every call returns the same frozen verdict.
    """
    generators = _sequence(generators, "generators")
    for i, g in enumerate(generators):
        if not isinstance(g, Polynomial) or g.ring != QQ:
            raise RingMismatch(
                "classifier expects rational generators (generator %d)" % i
            )
    return _classified(generators)


@functools.lru_cache(maxsize=256)
def _classified(generators):
    """The LctVerdict of a tuple of rational generators, bounded like
    _certified; a refusal is not kept, so it is raised on every call."""
    cert = _unique_rho(generators)[2]
    rho_blocks = cert.blocks_of_rho
    sums = tuple(sum(block, Fraction(0)) for block in rho_blocks)
    t = len(generators)
    newton_clause = (
        "p preserves the Newton polyhedron (sufficient check: after "
        "clearing denominators no generator coefficient is divisible by p)"
    )
    verdict = functools.partial(
        LctVerdict, t=t, rho_blocks=rho_blocks, block_sums=sums, checked_primes=(),
        failed_hypothesis=None,
    )
    if all(s > 1 for s in sums):
        return verdict(
            case=CASE_DIAGONAL_ABOVE_T,
            value=Fraction(t),
            prime_predicate=(
                "the first base-p digits of every block sum to at least p, and "
                + newton_clause
            ),
        )
    if all(s <= 1 for s in sums):
        return verdict(
            case=CASE_DIAGONAL_AT_MOST_T,
            value=cert.M,
            prime_predicate=(
                "every block adds without carrying in base p, and "
                + newton_clause
            ),
        )
    return verdict(
        case=CASE_INCONCLUSIVE,
        value=None,
        prime_predicate="",
        failed_hypothesis=(
            "mixed block coordinate sums (%s): some exceed 1 and some do not"
            % ", ".join(str(s) for s in sums)
        ),
    )


def newton_polyhedron_preserved(generators, p):
    """Sufficient check for the reduction mod p keeping the Newton
    polyhedron: after scaling each generator by the lcm of its
    coefficient denominators, no coefficient is divisible by p."""
    _check_prime(p)
    for g in _polynomials(generators):
        if g.ring != QQ:
            raise RingMismatch("the check applies to rational generators")
        if g.is_zero():
            return False
        scale = math.lcm(*[c.denominator for c in g.terms.values()])
        if scale % p == 0 or any(int(c * scale) % p == 0 for c in g.terms.values()):
            return False
    return True


@dataclass(frozen=True)
class PrimeCheck:
    """Verification of a classifier verdict at one concrete prime.

    ``holds`` certifies that the mod-p threshold equals the verdict
    value at this p.  ``big_enough_caveat`` stays True because the
    identification with the characteristic-zero threshold rests on an
    asymptotic comparison with no effective bound; it is reported
    separately and never folded into ``holds``.
    """

    p: int
    case: str
    target_value: Fraction
    newton_preserved: bool
    predicate_member: bool
    certificate_kind: object  # str or None when not computed
    certificate_value: object  # Fraction or None
    holds: bool
    big_enough_caveat: bool

    def __bool__(self):
        return self.holds

    def to_json_dict(self):
        return _json_fields(self)


def verify_prime(generators, p, verdict, meter=None):
    """Check a conclusive verdict at one prime.

    The sufficient Newton polyhedron check must pass, and the mod-p
    certificate must pin the verdict value: in the above-t case the
    bound must reach t (the upper bound min(t, |rho|) is then also t);
    in the at-most-t case the certificate must be exact with value
    |rho|.  Predicate membership is evaluated and reported but the
    decision rests on the certificate.  In the at-most-t case the
    carry-free predicate is read off the certificate's horizons when
    the certificate has the verdict's rho (it has when the verdict came
    from these generators and p preserves the Newton polyhedron), so
    the carry search runs once.  Every carry search is charged to the
    one ``meter`` (a fresh ``Meter()`` when None).
    """
    _check_prime(p)
    if not isinstance(verdict, LctVerdict):
        raise InputError("verify_prime needs the verdict of the classifier")
    if not verdict.conclusive:
        raise InputError("the verdict is inconclusive; nothing to verify")
    generators = _polynomials(generators)
    meter = meter if meter is not None else Meter()
    preserved = newton_polyhedron_preserved(generators, p)
    certificate = fpt_bound(generators, p, meter) if preserved else None
    kind, value = (certificate.kind, certificate.value) if certificate else (None, None)
    above_t = verdict.case == CASE_DIAGONAL_ABOVE_T
    if above_t:
        predicate_member = in_P_rho_0(verdict.rho_blocks, p)
    elif certificate is not None and certificate.rho_blocks == verdict.rho_blocks:
        predicate_member = not certificate.finite_indices
    else:
        predicate_member = in_P_rho_inf(verdict.rho_blocks, p, meter)
    return PrimeCheck(
        p=p,
        case=verdict.case,
        target_value=verdict.value,
        newton_preserved=preserved,
        predicate_member=predicate_member,
        certificate_kind=kind,
        certificate_value=value,
        holds=value == verdict.value and (above_t or kind == KIND_EXACT),
        big_enough_caveat=True,
    )
