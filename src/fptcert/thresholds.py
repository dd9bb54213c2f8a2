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
from dataclasses import dataclass, replace
from fractions import Fraction

from .basep import (
    INFINITY,
    carry_horizon,
    in_P_rho_0,
    in_P_rho_inf,
    is_prime,
    truncation,
)
from .budgets import Meter
from .errors import (
    FptcertError,
    InputError,
    NonUniqueMaximalPoint,
    RingMismatch,
)
from .geometry import (
    _check_generators,
    exponent_matrix,
    maximal_point,
    newton_min_diagonal,
    reduce_generators,
)
from .polyring import (
    QQ,
    IntegersMod,
    Polynomial,
    _Box,
    _power,
    reduce_mod_p,
)

KIND_EXACT = "exact"
KIND_LOWER_BOUND = "lower_bound"

CASE_DIAGONAL_ABOVE_T = "diagonal_above_t"
CASE_DIAGONAL_AT_MOST_T = "diagonal_at_most_t"
CASE_INCONCLUSIVE = "inconclusive"


def _check_prime(p):
    if not is_prime(p):
        raise InputError("p must be a prime number, got %r" % (p,))
    if p > 2**31 - 1:
        raise InputError("p must fit in 31 bits")


def _to_fp_generators(generators, p):
    """Reduce rational generators mod p, or validate that generators
    already over GF(p) match the requested prime."""
    _check_prime(p)
    generators = tuple(generators)
    if not generators:
        raise InputError("at least one generator is required")
    out = []
    for i, g in enumerate(generators):
        if not isinstance(g, Polynomial):
            raise InputError("generator %d is not a polynomial" % i)
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


def _unique_rho(generators, p):
    """Shared pipeline: reduce mod p, build the exponent matrix, and
    demand a unique maximal point.  Returns (mapping, matrix, cert)."""
    fp_gens = _to_fp_generators(generators, p)
    mapping = reduce_generators(fp_gens)
    matrix = exponent_matrix(mapping)
    cert = maximal_point(matrix)
    if not cert.unique:
        free = cert.free_coordinates
        raise NonUniqueMaximalPoint(
            "the maximal face is not a point: %d coordinate(s) remain free, "
            "so the face has dimension between 1 and %d" % (len(free), len(free)),
            free_coordinates=free,
            coordinate_ranges=cert.coordinate_ranges,
        )
    return mapping, matrix, cert


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
    truncations: tuple  # truncated blocks, aligned with finite_indices

    @property
    def t(self):
        return len(self.rho_blocks)

    @property
    def block_sums(self):
        return tuple(sum(block, Fraction(0)) for block in self.rho_blocks)

    def to_json_dict(self):
        return {
            "p": self.p,
            "kind": self.kind,
            "value": str(self.value),
            "upper_bound": str(self.upper_bound),
            "rho": [[str(x) for x in block] for block in self.rho_blocks],
            "S": [h.to_json_value() for h in self.horizons],
            "I": list(self.finite_indices),
        }


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
    elif isinstance(level, int) and level >= 1:
        tail = Fraction(1, p**level)
    else:
        raise InputError("scan level must be a positive integer")
    floors = []
    for block, horizon in zip(rho_blocks, horizons):
        s = horizon.value
        if s < level:
            floor = sum(truncation(a, p, s) for a in block) + Fraction(1, p**s)
            floors.append(floor - tail)
        else:
            floors.append(sum(truncation(a, p, level) for a in block))
    return floors


def fpt_bound(generators, p, meter=None):
    """Certificate for the threshold of the ideal the generators span,
    over GF(p).  Rational generators are reduced mod p first.  Every
    block's carry search is charged to ``meter`` (``Meter()`` if None).

    When every block of rho adds without carrying in base p the value
    is exact (it equals |rho|); otherwise the finite carry horizons
    S_i produce the certified lower bound
    sum_{i not in I} |rho_i| + sum_{i in I} (|<rho_i>_{S_i}| + p**-S_i),
    the sum of the block floors at level INFINITY.
    """
    _, _, cert = _unique_rho(generators, p)
    rho_blocks = cert.blocks_of_rho
    meter = meter if meter is not None else Meter()
    horizons = tuple(carry_horizon(block, p, meter) for block in rho_blocks)
    finite_indices = tuple(i for i, h in enumerate(horizons) if h.finite)
    truncations = tuple(
        tuple(truncation(a, p, horizons[i].value) for a in rho_blocks[i])
        for i in finite_indices
    )
    return FptCertificate(
        p=p,
        kind=KIND_LOWER_BOUND if finite_indices else KIND_EXACT,
        value=sum(_block_floors(p, rho_blocks, horizons, INFINITY)),
        upper_bound=min(Fraction(len(rho_blocks)), cert.M),
        rho_blocks=rho_blocks,
        horizons=horizons,
        finite_indices=finite_indices,
        truncations=truncations,
    )


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


def _escape_sets(ideals, e, budgets=None):
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


def _escape_set(ideals, e, budgets=None):
    """V(p^e), the last level of _escape_sets."""
    return collections.deque(_escape_sets(ideals, e, budgets), maxlen=1).pop()


def nu(generators, e, budgets=None):
    """max{c : (f_1, ..., f_t)**c is not inside (x_1**q, ..., x_m**q)}
    for q = p**e.  Generators must be nonzero members of the maximal
    ideal over GF(p).  For one ideal the escape set is {0, ..., nu}, so
    this is Card V(p^e) - 1 (see _escape_sets).
    """
    return len(_escape_set([generators], e, budgets)) - 1


def fpt_estimate(generators, p, e_max, budgets=None):
    """Rows (e, nu(p**e), nu(p**e)/p**e) for e = 1..e_max, all read
    from one climb (_escape_sets) and one meter."""
    if not isinstance(e_max, int) or e_max < 1:
        raise InputError("e_max must be a positive integer")
    fp_gens = _to_fp_generators(generators, p)
    levels = enumerate(_escape_sets([fp_gens], e_max, budgets), 1)
    return [(e, len(v) - 1, Fraction(len(v) - 1, p**e)) for e, v in levels]


@dataclass(frozen=True)
class WitnessReport:
    """Comparison of the predicted and the expanded coefficient of the
    escaping monomial x**(p**e E <rho>_e) in prod f_i**(p**e |<rho_i>_e|)."""

    p: int
    e: int
    exponents: tuple  # Q_i = p**e |<rho_i>_e| per block
    target: tuple  # exponent vector of the escaping monomial
    expected: int
    actual: int
    match: bool
    per_block: tuple  # (Q_i, parts, multinomial mod p, coefficient power mod p)

    def to_json_dict(self):
        return {
            "p": self.p,
            "e": self.e,
            "match": self.match,
            "expected": self.expected,
            "actual": self.actual,
            "exponents": list(self.exponents),
            "target": list(self.target),
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
    """Expand g = prod f_i**(p**e |<rho_i>_e|) over GF(p), truncated to
    the box below the target, and compare the coefficient of
    x**(p**e E <rho>_e) with the digit prediction:
    the product over blocks of the multinomial (Q_i; p**e <rho_i>_e)
    times the matching powers of the retained coefficients."""
    if not isinstance(e, int) or e < 1:
        raise InputError("e must be a positive integer")
    mapping, matrix, cert = _unique_rho(generators, p)
    meter = Meter(budgets)
    rho_blocks = cert.blocks_of_rho
    truncated = [
        [truncation(a, p, e) for a in block] for block in rho_blocks
    ]
    q_scale = p**e
    exponents = []
    parts_per_block = []
    for block in truncated:
        parts = [int(q_scale * a) for a in block]
        parts_per_block.append(parts)
        exponents.append(sum(parts))

    flat_parts = [x for parts in parts_per_block for x in parts]
    target = tuple(
        sum(col[i] * k for col, k in zip(matrix.columns, flat_parts))
        for i in range(matrix.varcount)
    )
    # Only terms below the target can reach it in a product.
    box = _Box([x + 1 for x in target], p)
    mul = functools.partial(meter.mul, box)
    product = {0: 1}
    for g, q_i in zip(mapping.original_generators, exponents):
        product = mul(product, _power(box.pack(g), q_i, mul, {0: 1}))
    actual = product.get(box.key(target), 0)

    expected = 1
    per_block = []
    for i, parts in enumerate(parts_per_block):
        multi = 1
        running = 0
        for part in parts:
            running += part
            multi = multi * math.comb(running, part) % p
        cpow = 1
        for coeff, part in zip(mapping.coeff_columns[i], parts):
            cpow = cpow * pow(coeff, part, p) % p
        per_block.append((exponents[i], tuple(parts), multi, cpow))
        expected = expected * multi % p
        expected = expected * cpow % p

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


def monomial_fpt(supports):
    """Threshold of the monomial ideal spanned by the given exponent
    vectors: the largest tau with (1, ..., 1) in tau times the Newton
    polyhedron, i.e. the reciprocal of the diagonal entry point."""
    return Fraction(1) / newton_min_diagonal(supports)


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
        return {
            "case": self.case,
            "value": None if self.value is None else str(self.value),
            "t": self.t,
            "rho": [[str(x) for x in block] for block in self.rho_blocks],
            "block_sums": [str(s) for s in self.block_sums],
            "prime_predicate": self.prime_predicate,
            "checked_primes": [[p, ok] for p, ok in self.checked_primes],
            "failed_hypothesis": self.failed_hypothesis,
        }


def lct_fpt_classifier(generators):
    """Classify rational generators by the block sums of rho.

    All block sums above 1: for good primes the positive-characteristic
    threshold equals the number of generators t.  All block sums at
    most 1: for good primes it equals |rho|, the common threshold of
    the term ideal (for rational rho the carry-free prime set is
    automatically infinite: it contains every p = 1 mod the lcm of the
    denominators).  Mixed sums: inconclusive.
    """
    generators = tuple(generators)
    for i, g in enumerate(generators):
        if not isinstance(g, Polynomial) or g.ring != QQ:
            raise RingMismatch(
                "classifier expects rational generators (generator %d)" % i
            )
    mapping = reduce_generators(generators)
    matrix = exponent_matrix(mapping)
    cert = maximal_point(matrix)
    if not cert.unique:
        free = cert.free_coordinates
        raise NonUniqueMaximalPoint(
            "the maximal face is not a point: %d coordinate(s) remain free"
            % len(free),
            free_coordinates=free,
            coordinate_ranges=cert.coordinate_ranges,
        )
    rho_blocks = cert.blocks_of_rho
    sums = tuple(sum(block, Fraction(0)) for block in rho_blocks)
    t = len(generators)
    newton_clause = (
        "p preserves the Newton polyhedron (sufficient check: after "
        "clearing denominators no generator coefficient is divisible by p)"
    )
    verdict = functools.partial(
        LctVerdict, t=t, rho_blocks=rho_blocks, block_sums=sums, checked_primes=()
    )
    if all(s > 1 for s in sums):
        return verdict(
            case=CASE_DIAGONAL_ABOVE_T,
            value=Fraction(t),
            prime_predicate=(
                "the first base-p digits of every block sum to at least p, and "
                + newton_clause
            ),
            failed_hypothesis=None,
        )
    if all(s <= 1 for s in sums):
        return verdict(
            case=CASE_DIAGONAL_AT_MOST_T,
            value=cert.M,
            prime_predicate=(
                "every block adds without carrying in base p, and "
                + newton_clause
            ),
            failed_hypothesis=None,
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
    for g in generators:
        if g.ring != QQ:
            raise RingMismatch("the check applies to rational generators")
        if g.is_zero():
            return False
        scale = math.lcm(*[c.denominator for c in g.terms.values()])
        if scale % p == 0:
            return False
        for c in g.terms.values():
            if int(c * scale) % p == 0:
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
        return {
            "p": self.p,
            "case": self.case,
            "target_value": str(self.target_value),
            "newton_preserved": self.newton_preserved,
            "predicate_member": self.predicate_member,
            "certificate_kind": self.certificate_kind,
            "certificate_value": (
                None if self.certificate_value is None else str(self.certificate_value)
            ),
            "holds": self.holds,
            "big_enough_caveat": self.big_enough_caveat,
        }


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
    generators = tuple(generators)
    meter = meter if meter is not None else Meter()
    preserved = newton_polyhedron_preserved(generators, p)
    if verdict.case == CASE_DIAGONAL_ABOVE_T:
        predicate_member = in_P_rho_0(verdict.rho_blocks, p)
    certificate = fpt_bound(generators, p, meter) if preserved else None
    if verdict.case != CASE_DIAGONAL_ABOVE_T:
        if certificate is not None and certificate.rho_blocks == verdict.rho_blocks:
            predicate_member = not certificate.finite_indices
        else:
            predicate_member = in_P_rho_inf(verdict.rho_blocks, p, meter)
    certificate_kind = None
    certificate_value = None
    holds = False
    if preserved:
        certificate_kind = certificate.kind
        certificate_value = certificate.value
        if verdict.case == CASE_DIAGONAL_ABOVE_T:
            holds = certificate.value == verdict.value
        else:
            holds = (
                certificate.kind == KIND_EXACT
                and certificate.value == verdict.value
            )
    return PrimeCheck(
        p=p,
        case=verdict.case,
        target_value=verdict.value,
        newton_preserved=preserved,
        predicate_member=predicate_member,
        certificate_kind=certificate_kind,
        certificate_value=certificate_value,
        holds=holds,
        big_enough_caveat=True,
    )
