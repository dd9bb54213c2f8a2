"""Escape-set counting, volume lower bounds, and their agreement."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from fptcert.budgets import Budgets
from fptcert.errors import (
    BudgetExceeded,
    DimensionTooLarge,
    InputError,
    RingMismatch,
)
from fptcert.fvolume import (
    fvolume_count,
    fvolume_estimate,
    fvolume_lower_bound,
    fvolume_points,
)
from fptcert.geometry import exponent_matrix, reduce_generators, vertices
from fptcert.polyring import IntegersMod, Polynomial, parse_polynomial, reduce_mod_p
from fptcert.thresholds import _block_floors, fpt_bound, nu

XYZ = ("x", "y", "z")


def gens(*texts, variables=XYZ):
    return [parse_polynomial(t, variables) for t in texts]


def pair():
    return gens("x^2+x*y^2", "y*z^3")


def line_parabola():
    return gens("x", "x+y^2", variables=("x", "y"))


def fp_ideals(generators, p):
    """One principal ideal per generator, reduced mod p."""
    return [[reduce_mod_p(g, p)] for g in generators]


BOUNDS = [
    (7, Fraction(2, 9)),
    (2, Fraction(1, 6)),
    (3, Fraction(1, 9)),
    # S_1 = 1: (2 <1/3>_1 + 1/5) * 1/3 = (3/5) * (1/3)
    (5, Fraction(1, 5)),
]


@pytest.mark.parametrize("p,bound", BOUNDS)
def test_fvolume_lower_bound_pair(p, bound):
    cert = fvolume_lower_bound(pair(), p)
    assert cert.bound == bound
    assert cert.p == p
    assert cert.counts == ()


def test_fvolume_lower_bound_line_parabola():
    cert = fvolume_lower_bound(line_parabola(), 2)
    assert cert.bound == Fraction(1, 2)
    assert cert.rho_blocks == ((Fraction(1),), (Fraction(1, 2),))
    assert cert.finite_indices == ()


def test_fvolume_json_shape():
    payload = fvolume_lower_bound(pair(), 2).to_json_dict()
    assert set(payload) == {"p", "bound", "counts"}
    assert payload["bound"] == "1/6"
    assert payload["counts"] == []


def test_single_ideal_degenerates_to_threshold_bound():
    for text, p in (("x^2+x*y^2", 2), ("x^2+x*y^2", 7), ("y*z^3", 3)):
        g = gens(text)
        assert fvolume_lower_bound(g, p).bound == fpt_bound(g, p).value


def test_fvolume_points_frozen():
    points = fvolume_points(fp_ideals(line_parabola(), 2), 1)
    assert points == [(0, 0), (0, 1), (1, 0)]


def test_fvolume_points_downward_closed():
    members = set(fvolume_points(fp_ideals(line_parabola(), 2), 2))
    assert len(members) == 12
    for point in members:
        for i in range(2):
            if point[i]:
                assert point[:i] + (point[i] - 1,) + point[i + 1:] in members


def test_fvolume_count_origin_only():
    ideals = fp_ideals(pair(), 2)
    # both generators already sit inside (x^2, y^2, z^2)
    assert fvolume_points(ideals, 1) == [(0, 0)]
    assert fvolume_count(ideals, 1) == 1


def test_fvolume_count_coordinate_axes():
    ideals = fp_ideals(gens("x", "y", variables=("x", "y")), 2)
    for e in (1, 2):
        assert fvolume_count(ideals, e) == (2**e) ** 2
    rows = fvolume_estimate([[g] for g in gens("x", "y", variables=("x", "y"))], 2, 2)
    assert [ratio for _, _, ratio in rows] == [Fraction(1), Fraction(1)]


def test_single_ideal_count_is_nu_plus_one():
    generators = [reduce_mod_p(g, 2) for g in gens("x", "y", variables=("x", "y"))]
    assert fvolume_points([generators], 1) == [(0,), (1,), (2,)]
    assert fvolume_count([generators], 1) == nu(generators, 1) + 1

    fp_pair = [reduce_mod_p(g, 2) for g in pair()]
    assert fvolume_count([fp_pair], 2) == nu(fp_pair, 2) + 1


def reference_points(ideals, e):
    """V(p^e) by exhaustion: every point of the box [0, m(q-1)]^t (a
    product of more than m(q-1) generators lies in m^[q]), every
    multiset of generators per ideal, each product expanded in full."""
    ring, m = ideals[0][0].ring, ideals[0][0].varcount
    q = ring.p**e
    top = m * (q - 1)
    one = Polynomial(ring, m, {(0,) * m: 1})

    def expand(factors):
        return functools.reduce(operator.mul, factors, one)

    levels = [
        [
            [expand(c) for c in itertools.combinations_with_replacement(gens, n)]
            for n in range(top + 1)
        ]
        for gens in ideals
    ]
    return [
        point
        for point in itertools.product(range(top + 1), repeat=len(ideals))
        if any(
            any(max(mon) < q for mon in expand(choice).terms)
            for choice in itertools.product(*[lv[n] for lv, n in zip(levels, point)])
        )
    ]


def random_ideals(seed):
    """1-2 ideals of 1-2 generators in GF(p)[x, y], each a sum of 1-3
    terms of degree 1-2, with p in {2, 3} and e <= 2 (e = 1 for p = 3)."""
    rng = random.Random(seed)
    p = rng.choice((2, 3))
    e = rng.randint(1, 2) if p == 2 else 1
    monomials = [(a, b) for a in range(3) for b in range(3) if 1 <= a + b <= 2]
    ideals = [
        [
            Polynomial(
                IntegersMod(p),
                2,
                {mon: rng.randrange(1, p) for mon in rng.sample(monomials, rng.randint(1, 3))},
            )
            for _ in range(rng.randint(1, 2))
        ]
        for _ in range(rng.randint(1, 2))
    ]
    return ideals, e


@pytest.mark.parametrize("seed", range(40))
def test_escape_search_matches_exhaustion(seed):
    ideals, e = random_ideals(seed)
    expected = reference_points(ideals, e)
    assert fvolume_points(ideals, e) == expected
    if len(ideals) == 1:
        assert nu(ideals[0], e) == len(expected) - 1


def test_fvolume_estimate_frozen():
    rows = fvolume_estimate([[g] for g in line_parabola()], 2, 3)
    assert rows == [
        (1, 3, Fraction(3, 4)),
        (2, 12, Fraction(3, 4)),
        (3, 48, Fraction(3, 4)),
    ]


def test_fvolume_estimate_rows_match_count():
    # one climb yields every level; each row is the count at that e
    ideals = fp_ideals(line_parabola(), 2)
    rows = fvolume_estimate(ideals, 2, 4)
    assert [e for e, _, _ in rows] == [1, 2, 3, 4]
    for e, card, ratio in rows:
        assert card == fvolume_count(ideals, e)
        assert ratio == Fraction(card, 2 ** (2 * e))


def volume_witness_floor(certificate, level):
    """The product of the block floors at ``level``: the box below the
    witness tuple of the digit construction lies inside V(p**level), so
    Card V(p**level) >= p**(level t) times this floor."""
    return math.prod(
        _block_floors(certificate.p, certificate.rho_blocks, certificate.horizons, level)
    )


def test_volume_witness_floor():
    cert = fvolume_lower_bound(line_parabola(), 2)
    assert volume_witness_floor(cert, 1) == 0
    assert volume_witness_floor(cert, 2) == Fraction(3, 16)
    assert volume_witness_floor(cert, 3) == Fraction(21, 64)
    with pytest.raises(InputError):
        volume_witness_floor(cert, 0)
    rows = fvolume_estimate([[g] for g in line_parabola()], 2, 3)
    for e, card, _ in rows:
        assert 2 ** (2 * e) * volume_witness_floor(cert, e) <= card


def test_volume_witness_floor_past_horizon():
    cert = fvolume_lower_bound(pair(), 2)
    # block 1 horizon is 1; maximal digits fill levels 2 and 3
    assert volume_witness_floor(cert, 2) == Fraction(1, 4) * Fraction(1, 4)
    counts = fvolume_estimate([[g] for g in pair()], 2, 2)
    for e, card, _ in counts:
        assert 2 ** (2 * e) * volume_witness_floor(cert, e) <= card


def test_bound_against_boundary_slices():
    # the bound can exceed the finite-e ratio only through tuples on
    # the outer boundary of the escape set
    ideals = fp_ideals(line_parabola(), 2)
    bound = fvolume_lower_bound(line_parabola(), 2).bound
    for e in (2, 3):
        members = fvolume_points(ideals, e)
        axis_max = [max(point[i] for point in members) for i in range(2)]
        boundary = sum(
            1
            for point in members
            if any(point[i] == axis_max[i] for i in range(2))
        )
        scale = Fraction(1, 2 ** (2 * e))
        assert bound <= len(members) * scale + boundary * scale


def test_fvolume_budgets():
    ideals = fp_ideals(line_parabola(), 2)
    with pytest.raises(BudgetExceeded):
        fvolume_count(ideals, 1, Budgets(max_terms=1))
    with pytest.raises(BudgetExceeded):
        fvolume_count(ideals, 2, Budgets(max_multisets=2))


def test_fvolume_count_many_generators():
    # the depth-first walk keeps its own stack, so twelve hundred
    # generators across the ideals stay clear of the recursion limit
    x = reduce_mod_p(parse_polynomial("x", ("x",)), 2)
    assert fvolume_count([[x] * 600, [x] * 600], 1) == 3


def test_fvolume_validation():
    with pytest.raises(RingMismatch):
        fvolume_count([[g] for g in line_parabola()], 1)
    with pytest.raises(InputError):
        fvolume_count([], 1)
    with pytest.raises(InputError):
        fvolume_count([[]], 1)
    zero = reduce_mod_p(parse_polynomial("2*x", ("x", "y")), 2)
    good = reduce_mod_p(parse_polynomial("x", ("x", "y")), 2)
    with pytest.raises(InputError):
        fvolume_count([[zero]], 1)
    constant = reduce_mod_p(parse_polynomial("x+1", ("x", "y")), 2)
    with pytest.raises(InputError, match="maximal ideal"):
        fvolume_count([[constant]], 1)
    with pytest.raises(InputError):
        fvolume_count([[good]], 0)
    other = reduce_mod_p(parse_polynomial("x", ("x",)), 2)
    with pytest.raises(RingMismatch):
        fvolume_count([[good], [other]], 1)
    with pytest.raises(InputError):
        fvolume_estimate([], 2, 1)
    with pytest.raises(InputError):
        fvolume_estimate([[g] for g in line_parabola()], 2, 0)


def test_fvolume_count_empty_ideal_among_others():
    # [[]] alone fails earlier, as a list with no generator at all
    good = reduce_mod_p(parse_polynomial("x", ("x", "y")), 2)
    with pytest.raises(InputError, match="^every ideal needs at least one generator$"):
        fvolume_count([[good], []], 1)


def term_ideal_volume_bound(generators, budgets=None):
    """(bound, witness): the best product of block sums over the
    polytope's vertices, a lower bound for the volume of the tuple of
    term ideals spanned by the blocks."""
    matrix = exponent_matrix(reduce_generators(generators))

    def value(point):
        return math.prod(sum(block) for block in matrix.split(point))

    witness = max(vertices(matrix, budgets), key=value)  # the first best vertex
    return value(witness), witness


def test_term_ideal_volume_bound():
    best, witness = term_ideal_volume_bound(pair())
    assert best == Fraction(2, 9)
    assert witness == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    best, witness = term_ideal_volume_bound(line_parabola())
    assert best == Fraction(1, 2)
    assert witness == (Fraction(1), Fraction(1, 2))

    # carry-free primes: the polytope bound for the polynomials is
    # dominated by the term-ideal candidate at the same point
    assert fvolume_lower_bound(pair(), 7).bound <= Fraction(2, 9)

    with pytest.raises(DimensionTooLarge):
        term_ideal_volume_bound(pair(), Budgets(max_dimension=2))
