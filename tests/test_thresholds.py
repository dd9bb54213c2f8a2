"""Threshold certificates, the brute-force containment oracle, digit
witnesses, and the characteristic-zero comparison."""

from fractions import Fraction

import pytest

from fptcert.basep import (
    INFINITY,
    CarryHorizon,
    digit_at,
    digits,
    in_P_rho_0,
    in_P_rho_inf,
    multinomial_nonzero_mod_p,
    truncation,
)
from fptcert.budgets import Budgets
from fptcert.errors import (
    BudgetExceeded,
    DenominatorDivisibleByP,
    InputError,
    NonUniqueMaximalPoint,
    RingMismatch,
)
from fptcert.fvolume import (
    fvolume_count,
    fvolume_estimate,
    fvolume_lower_bound,
    fvolume_points,
    term_ideal_volume_bound,
    volume_witness_floor,
)
from fptcert.geometry import diagonal_position, newton_min_diagonal
from fptcert.polyring import (
    QQ,
    Polynomial,
    in_frobenius_power,
    parse_polynomial,
    poly_pow,
    reduce_mod_p,
)
from fptcert.thresholds import (
    CASE_DIAGONAL_ABOVE_T,
    CASE_DIAGONAL_AT_MOST_T,
    CASE_INCONCLUSIVE,
    KIND_EXACT,
    KIND_LOWER_BOUND,
    coefficient_witness,
    fpt_bound,
    fpt_estimate,
    lct_fpt_classifier,
    monomial_fpt,
    newton_polyhedron_preserved,
    nu,
    verify_prime,
    witness_floor,
)

XYZ = ("x", "y", "z")


def gens(*texts, variables=XYZ):
    return [parse_polynomial(t, variables) for t in texts]


def pair():
    return gens("x^2+x*y^2", "y*z^3")


def fp_pair(p):
    return [reduce_mod_p(g, p) for g in pair()]


# block 1 carries iff p = 2 mod 3 (then S = 1); the bound there is
# 2 <1/3>_1 + 1/p + 1/3 = 1 - 1/(3p)
PRIME_TABLE = [
    (2, KIND_LOWER_BOUND, Fraction(5, 6)),
    (3, KIND_LOWER_BOUND, Fraction(2, 3)),
    (5, KIND_LOWER_BOUND, Fraction(14, 15)),
    (7, KIND_EXACT, Fraction(1)),
    (11, KIND_LOWER_BOUND, Fraction(32, 33)),
    (13, KIND_EXACT, Fraction(1)),
    (19, KIND_EXACT, Fraction(1)),
]


@pytest.mark.parametrize("p,kind,value", PRIME_TABLE)
def test_fpt_bound_prime_table(p, kind, value):
    cert = fpt_bound(pair(), p)
    assert cert.p == p
    assert cert.kind == kind
    assert cert.value == value
    assert cert.upper_bound == 1
    assert cert.value <= cert.upper_bound
    assert (cert.kind == KIND_EXACT) == (cert.finite_indices == ())


def test_fpt_bound_structure_at_two():
    cert = fpt_bound(pair(), 2)
    assert cert.rho_blocks == (
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 3),),
    )
    assert cert.horizons == (CarryHorizon(1), CarryHorizon(INFINITY))
    assert cert.finite_indices == (0,)
    assert cert.floors == (Fraction(1, 2), Fraction(1, 3))
    assert cert.t == 2
    assert cert.block_sums == (Fraction(2, 3), Fraction(1, 3))
    assert cert.to_json_dict() == {
        "p": 2,
        "kind": "lower_bound",
        "value": "5/6",
        "upper_bound": "1",
        "rho": [["1/3", "1/3"], ["1/3"]],
        "S": [1, "inf"],
        "I": [0],
    }


@pytest.mark.parametrize("p", [2, 7])  # block 1 carries at 2, nothing at 7
def test_infinite_level_results_are_fractions(p):
    # INFINITY is math.inf; a float result would still compare equal
    # to the frozen Fractions (1.0 == Fraction(1)), so check the types.
    cert = fpt_bound(pair(), p)
    assert isinstance(cert.value, Fraction)
    assert isinstance(witness_floor(cert, INFINITY), Fraction)
    assert isinstance(fvolume_lower_bound(pair(), p).bound, Fraction)
    for block in cert.rho_blocks:
        for a in block:
            assert isinstance(truncation(a, p, INFINITY), Fraction)


def test_fpt_bound_accepts_prime_field_generators():
    assert fpt_bound(fp_pair(2), 2) == fpt_bound(pair(), 2)


def test_fpt_bound_input_validation():
    with pytest.raises(RingMismatch):
        fpt_bound(fp_pair(2), 3)
    for bad in (6, 1, 0, -3):
        with pytest.raises(InputError):
            fpt_bound(pair(), bad)
    with pytest.raises(InputError):
        fpt_bound([], 2)
    half_x_squared = Polynomial(QQ, 1, {(2,): Fraction(1, 2)})
    with pytest.raises(DenominatorDivisibleByP):
        fpt_bound([half_x_squared], 2)
    assert fpt_bound([half_x_squared], 3).value == Fraction(1, 2)
    two_x = Polynomial(QQ, 1, {(1,): Fraction(2)})
    with pytest.raises(InputError, match="reduces to zero"):
        fpt_bound([two_x], 2)


def test_fpt_bound_prime_must_fit_in_31_bits():
    with pytest.raises(InputError, match="p must fit in 31 bits"):
        fpt_bound(pair(), 2_147_483_659)  # a prime


class _Integers:
    """A coefficient ring that is neither QQ nor GF(p)."""

    def coerce(self, value):
        return value


def test_reduction_mod_p_checks_each_generator():
    with pytest.raises(InputError, match="generator 1 is not a polynomial"):
        fpt_bound([pair()[0], "y*z^3"], 2)
    with pytest.raises(RingMismatch, match="unsupported coefficient ring"):
        fpt_bound([Polynomial(_Integers(), 1, {(1,): 1})], 2)


def test_fpt_bound_non_unique_maximal_point():
    with pytest.raises(NonUniqueMaximalPoint) as info:
        fpt_bound(gens("x+x*y^2", "y*z^2"), 2)
    assert info.value.exit_code == 3
    assert info.value.free_coordinates == (0, 1)
    assert info.value.coordinate_ranges[2] == (Fraction(1, 2), Fraction(1, 2))


def test_witness_floor_frozen():
    cert = fpt_bound(pair(), 2)
    assert witness_floor(cert, 1) == 0
    assert witness_floor(cert, 2) == Fraction(1, 2)
    assert witness_floor(cert, 3) == Fraction(5, 8)
    with pytest.raises(InputError):
        witness_floor(cert, 0)


def test_witness_floor_brackets_oracle():
    for p, e_list in ((2, (1, 2, 3)), (3, (1, 2))):
        cert = fpt_bound(pair(), p)
        generators = fp_pair(p)
        for e in e_list:
            value = nu(generators, e)
            assert p**e * witness_floor(cert, e) <= value
            assert value <= p**e * cert.upper_bound


NU_TABLE = [
    # crossing the carry horizon doubles then refines the count
    ("pair", 2, 1, 0),
    ("pair", 2, 2, 2),
    ("pair", 2, 3, 5),
    ("pair", 3, 1, 1),
    ("pair", 3, 2, 7),
    ("pair", 7, 1, 6),
]


@pytest.mark.parametrize("tag,p,e,expected", NU_TABLE)
def test_nu_frozen(tag, p, e, expected):
    del tag
    assert nu(fp_pair(p), e) == expected



def test_nu_cubic_p7_e3_default_budgets():
    # the truncated products fit the default term-operation budget
    f = reduce_mod_p(parse_polynomial("x^3+y^3+z^3+x*y*z", XYZ), 7)
    assert nu([f], 3, Budgets()) == 342


# Rows under the default budgets.  The first three ran out of them while
# every level was searched from scratch; the climb reads most points off
# the level below.
CLIMB_TABLE = [
    ("x^3+y^3+z^3+x*y*z", XYZ, 5, 4, 499),
    ("x^3+y^3+z^3+x*y*z", XYZ, 11, 3, 1209),
    # fpt(x^2+y^3) = 5/6 - 1/(6p) = 84/101 at p = 101, so nu = 84 p - 1
    ("x^2+y^3", ("x", "y"), 101, 2, 8483),
    # the maximal ideal (x, y), nu = 2 (p^e - 1), with a redundant
    # quintic listed first: the depth-first walk cuts off each prefix
    # whose product is empty instead of trying every composition
    ("x^3*y^2+x^2*y^3,y,x", ("x", "y"), 7, 3, 684),
    # three dense generators: the points above p nu(p^(e-1)) are found
    # by growing a member parent's vector, not by walking every vector
    ("x^2*y+4*x*y^2,x^2*y^2+x*y^3+x^2*y^3,4*x^2*y+3*x*y^3", ("x", "y"), 5, 3, 82),
]


@pytest.mark.parametrize("text,variables,p,e,expected", CLIMB_TABLE)
def test_nu_climb_default_budgets(text, variables, p, e, expected):
    generators = [reduce_mod_p(g, p) for g in gens(*text.split(","), variables=variables)]
    assert nu(generators, e, Budgets()) == expected


def test_nu_climb_is_metered():
    # every point accepted from the level below costs a multiset, so a
    # deep climb of (x) stops at the cap
    x = reduce_mod_p(parse_polynomial("x", ("x",)), 2)
    with pytest.raises(BudgetExceeded, match="multiset"):
        nu([x], 20, Budgets(max_multisets=10**4))


def test_nu_monomial_identities():
    # (x): nu = q - 1
    for p, e in ((2, 3), (3, 2), (5, 1)):
        g = reduce_mod_p(parse_polynomial("x", ("x",)), p)
        assert nu([g], e) == p**e - 1
    # (x*y): a single cross term also gives q - 1
    for e in (1, 2):
        g = reduce_mod_p(parse_polynomial("x*y", ("x", "y")), 3)
        assert nu([g], e) == 3**e - 1
    # (x + y) over GF(2): fpt 1, nu(q) = q - 1
    g = reduce_mod_p(parse_polynomial("x+y", ("x", "y")), 2)
    assert nu([g], 2) == 3


def test_nu_validation():
    with pytest.raises(InputError):
        nu([], 1)
    with pytest.raises(RingMismatch):
        nu(pair(), 1)
    zero = Polynomial.zero(reduce_mod_p(pair()[0], 2).ring, 3)
    with pytest.raises(InputError):
        nu([zero], 1)
    constant = reduce_mod_p(parse_polynomial("x+1", XYZ), 2)
    with pytest.raises(InputError, match="maximal ideal"):
        nu([constant], 1)
    with pytest.raises(InputError):
        nu(fp_pair(2), 0)



BOOL_EXPONENT_CALLS = {
    "nu": lambda e: nu(fp_pair(2), e),
    "fvolume_count": lambda e: fvolume_count([fp_pair(2)], e),
    "fvolume_points": lambda e: fvolume_points([fp_pair(2)], e),
    "fpt_estimate": lambda e: fpt_estimate(pair(), 2, e),
    "fvolume_estimate": lambda e: fvolume_estimate([pair()], 2, e),
    "coefficient_witness": lambda e: coefficient_witness(pair(), 2, e),
    "truncation": lambda e: truncation(Fraction(2, 3), 2, e),
    "in_frobenius_power": lambda e: in_frobenius_power(
        reduce_mod_p(parse_polynomial("x^2", ("x",)), 2), e
    ),
    "poly_pow": lambda e: poly_pow(parse_polynomial("x^2", ("x",)), e),
    "witness_floor": lambda e: witness_floor(fpt_bound(pair(), 2), e),
    "volume_witness_floor": lambda e: volume_witness_floor(
        fvolume_lower_bound(pair(), 2), e
    ),
    "digit_at": lambda k: digit_at(Fraction(2, 3), 2, k),
    "DigitStream.digit": lambda k: digits(Fraction(2, 3), 2).digit(k),
}


@pytest.mark.parametrize("name", sorted(BOOL_EXPONENT_CALLS))
def test_bool_exponents_are_rejected(name):
    # True == 1, so without the check a bool answers as e = 1
    call = BOOL_EXPONENT_CALLS[name]
    call(1)
    for e in (True, False):
        with pytest.raises(InputError):
            call(e)


def test_nu_budgets():
    with pytest.raises(BudgetExceeded, match="multiset"):
        nu(fp_pair(2), 2, Budgets(max_multisets=2))
    with pytest.raises(BudgetExceeded, match="term-operation"):
        nu(fp_pair(2), 2, Budgets(max_terms=1))


def test_fpt_estimate_monomial():
    rows = fpt_estimate([parse_polynomial("x", ("x",))], 2, 3)
    assert rows == [
        (1, 1, Fraction(1, 2)),
        (2, 3, Fraction(3, 4)),
        (3, 7, Fraction(7, 8)),
    ]


def test_fpt_estimate_pair_monotone():
    cert = fpt_bound(pair(), 2)
    rows = fpt_estimate(pair(), 2, 3)
    assert rows == [
        (1, 0, Fraction(0)),
        (2, 2, Fraction(1, 2)),
        (3, 5, Fraction(5, 8)),
    ]
    ratios = [ratio for _, _, ratio in rows]
    assert ratios == sorted(ratios)
    for e, _, ratio in rows:
        assert witness_floor(cert, e) <= ratio <= cert.upper_bound
    with pytest.raises(InputError):
        fpt_estimate(pair(), 2, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_fpt_estimate_rows_match_nu(p):
    # one climb yields every level; each row is the oracle at that e
    rows = fpt_estimate(pair(), p, 4)
    assert [e for e, _, _ in rows] == [1, 2, 3, 4]
    for e, value, ratio in rows:
        assert value == nu(fp_pair(p), e)
        assert ratio == Fraction(value, p**e)


def test_coefficient_witness_carry_free():
    report = coefficient_witness(pair(), 7, 1)
    assert report.match
    assert report.exponents == (4, 2)
    assert report.target == (6, 6, 6)
    assert report.expected == 6
    assert report.actual == 6
    assert report.per_block == ((4, (2, 2), 6, 1), (2, (2,), 1, 1))


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
def test_coefficient_witness_vanishing_multinomial(p, e):
    # past the carry horizon the multinomial vanishes mod p, and so
    # does the coefficient itself
    report = coefficient_witness(pair(), p, e)
    assert report.match
    assert report.expected == 0
    assert report.actual == 0


def test_coefficient_witness_principal():
    report = coefficient_witness([parse_polynomial("x", ("x",))], 5, 1)
    assert report.match
    assert report.exponents == (4,)
    assert report.target == (4,)
    assert report.expected == 1
    # a unit coefficient enters through its power
    scaled = coefficient_witness([parse_polynomial("2*x", ("x",))], 5, 1)
    assert scaled.match
    assert scaled.expected == pow(2, 4, 5)
    with pytest.raises(InputError):
        coefficient_witness(pair(), 7, 0)


def test_monomial_fpt_frozen():
    from fptcert.polyring import support

    union = set()
    for g in pair():
        union |= set(support(g))
    assert monomial_fpt(union) == 1
    assert monomial_fpt({(2, 0), (0, 3)}) == Fraction(5, 6)
    assert monomial_fpt({(1, 0, 0)}) == 1
    assert monomial_fpt({(2, 1)}) == Fraction(1, 2)


VARS6 = ("x1", "x2", "x3", "x4", "x5", "x6")


def two_fermat_blocks(a, b, c):
    return gens(
        "x1^%d+x2^%d+x3^%d" % (a, b, c),
        "x4^%d+x5^%d+x6^%d" % (a, b, c),
        variables=VARS6,
    )


def test_classifier_diagonal_above_t():
    verdict = lct_fpt_classifier(two_fermat_blocks(2, 3, 4))
    assert verdict.case == CASE_DIAGONAL_ABOVE_T
    assert verdict.conclusive
    assert verdict.value == 2
    assert verdict.t == 2
    assert verdict.block_sums == (Fraction(13, 12), Fraction(13, 12))
    assert verdict.checked_primes == ()
    assert verdict.failed_hypothesis is None
    assert "base-p digits" in verdict.prime_predicate


def test_classifier_diagonal_at_most_t():
    verdict = lct_fpt_classifier(two_fermat_blocks(2, 3, 7))
    assert verdict.case == CASE_DIAGONAL_AT_MOST_T
    assert verdict.value == Fraction(41, 21)
    assert verdict.block_sums == (Fraction(41, 42), Fraction(41, 42))
    assert "without carrying" in verdict.prime_predicate

    curve = lct_fpt_classifier(gens("x^2-y^3", "z^4-x^3"))
    assert curve.case == CASE_DIAGONAL_AT_MOST_T
    assert curve.value == Fraction(13, 12)
    assert curve.rho_blocks == (
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 4)),
    )


def test_classifier_inconclusive():
    verdict = lct_fpt_classifier(
        gens("x1^2+x2^3+x3^4", "x4^2", variables=("x1", "x2", "x3", "x4"))
    )
    assert verdict.case == CASE_INCONCLUSIVE
    assert not verdict.conclusive
    assert verdict.value is None
    assert verdict.block_sums == (Fraction(13, 12), Fraction(1, 2))
    assert "mixed" in verdict.failed_hypothesis


def test_classifier_rejects_prime_field_input():
    with pytest.raises(RingMismatch):
        lct_fpt_classifier(fp_pair(2))


def test_with_checked_appends():
    verdict = lct_fpt_classifier(two_fermat_blocks(2, 3, 4))
    assert verdict.with_checked(5, True).checked_primes == ((5, True),)


def test_newton_polyhedron_preserved():
    six = gens("6*x+y")
    assert not newton_polyhedron_preserved(six, 2)
    assert not newton_polyhedron_preserved(six, 3)
    assert newton_polyhedron_preserved(six, 5)
    sixth = [Polynomial(QQ, 1, {(1,): Fraction(1, 6)})]
    assert not newton_polyhedron_preserved(sixth, 2)
    assert not newton_polyhedron_preserved(sixth, 3)
    assert newton_polyhedron_preserved(sixth, 5)
    assert newton_polyhedron_preserved(sixth, 7)
    with pytest.raises(RingMismatch):
        newton_polyhedron_preserved(fp_pair(2), 2)


def test_newton_polyhedron_not_preserved_for_a_zero_generator():
    assert not newton_polyhedron_preserved([pair()[0], Polynomial(QQ, 3, {})], 5)


def test_newton_polyhedron_preserved_needs_a_generator():
    # no generators at all used to answer True
    with pytest.raises(InputError, match="at least one generator is required"):
        newton_polyhedron_preserved([], 5)


def test_newton_polyhedron_preserved_needs_polynomials():
    # a string used to raise a raw AttributeError
    with pytest.raises(InputError, match="generator 0 is not a polynomial"):
        newton_polyhedron_preserved(["x"], 5)


NON_ITERABLE_CALLS = {
    "fpt_bound": lambda: fpt_bound(None, 5),
    "nu": lambda: nu(None, 1),
    "fpt_estimate": lambda: fpt_estimate(None, 5, 1),
    "coefficient_witness": lambda: coefficient_witness(None, 5, 1),
    "lct_fpt_classifier": lambda: lct_fpt_classifier(None),
    "newton_polyhedron_preserved": lambda: newton_polyhedron_preserved(None, 5),
    "verify_prime": lambda: verify_prime(
        None, 5, lct_fpt_classifier(two_fermat_blocks(2, 3, 4))),
    "fvolume_lower_bound": lambda: fvolume_lower_bound(None, 5),
    "fvolume_count": lambda: fvolume_count([None], 1),
    "fvolume_count of no sequence": lambda: fvolume_count(None, 1),
    "fvolume_points": lambda: fvolume_points([None], 1),
    "fvolume_estimate": lambda: fvolume_estimate([None], 5, 1),
    "fvolume_estimate of no sequence": lambda: fvolume_estimate(None, 5, 1),
    "term_ideal_volume_bound": lambda: term_ideal_volume_bound(None),
}


@pytest.mark.parametrize("name", sorted(NON_ITERABLE_CALLS))
def test_non_iterable_generators_are_input_errors(name):
    # each raised a raw TypeError ('NoneType' object is not iterable)
    with pytest.raises(InputError, match="^(generators|ideals) None is not a sequence$"):
        NON_ITERABLE_CALLS[name]()


# (call, its message): each raised a raw TypeError ('int' object is not iterable)
NON_SEQUENCE_CALLS = {
    "in_P_rho_0": (lambda: in_P_rho_0(5, 2), "blocks 5 is not a sequence"),
    "in_P_rho_0 block": (lambda: in_P_rho_0([5], 2), "block 5 is not a sequence"),
    "in_P_rho_inf": (lambda: in_P_rho_inf(5, 2), "blocks 5 is not a sequence"),
    "multinomial_nonzero_mod_p": (
        lambda: multinomial_nonzero_mod_p(3, 5, 2), "parts 5 is not a sequence"),
    "newton_min_diagonal": (lambda: newton_min_diagonal(5), "supports 5 is not a sequence"),
    "diagonal_position": (lambda: diagonal_position(5), "supports 5 is not a sequence"),
    "monomial_fpt": (lambda: monomial_fpt(5), "supports 5 is not a sequence"),
    # these two returned True: with no blocks p was never checked
    "in_P_rho_inf of no blocks, p None": (
        lambda: in_P_rho_inf([], None), "base must be an integer >= 2, got None"),
    "in_P_rho_inf of no blocks, p 1": (
        lambda: in_P_rho_inf([], 1), "base must be an integer >= 2, got 1"),
    "in_P_rho_0 of no blocks, p 1": (
        lambda: in_P_rho_0([], 1), "base must be an integer >= 2, got 1"),
}


@pytest.mark.parametrize("name", sorted(NON_SEQUENCE_CALLS))
def test_non_iterable_sequences_are_input_errors(name):
    call, message = NON_SEQUENCE_CALLS[name]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_a_prime_is_checked_before_it_is_used():
    """p=None used to reach p**e (a raw TypeError); for the witness it
    also ran the rational pipeline, _unique_rho's classifier mode."""
    with pytest.raises(InputError, match=r"^p must be a prime number, got None$"):
        coefficient_witness(pair(), None, 1)
    with pytest.raises(InputError, match=r"^base must be an integer >= 2, got None$"):
        digit_at(Fraction(1, 2), None, 1)


def test_verify_prime_above_t():
    verdict = lct_fpt_classifier(two_fermat_blocks(2, 3, 4))
    for p in (5, 7, 11):
        check = verify_prime(two_fermat_blocks(2, 3, 4), p, verdict)
        assert check.holds
        assert bool(check)
        assert check.newton_preserved
        assert check.certificate_value == 2
        assert check.big_enough_caveat
        # the first-digit criterion is strictly stronger than the
        # certificate reaching t, and fails at these primes
        assert not check.predicate_member
    at_13 = verify_prime(two_fermat_blocks(2, 3, 4), 13, verdict)
    assert at_13.holds
    assert at_13.predicate_member
    at_2 = verify_prime(two_fermat_blocks(2, 3, 4), 2, verdict)
    assert not at_2.holds
    assert at_2.newton_preserved
    assert at_2.certificate_value == 1


def test_verify_prime_at_most_t():
    generators = two_fermat_blocks(2, 3, 7)
    verdict = lct_fpt_classifier(generators)
    check = verify_prime(generators, 43, verdict)
    assert check.holds
    assert check.predicate_member
    assert check.certificate_kind == KIND_EXACT
    assert check.certificate_value == Fraction(41, 21)


def test_verify_prime_bad_coefficient():
    generators = gens(
        "x1^2+5*x2^3+x3^4",
        "x4^2+x5^3+x6^4",
        variables=VARS6,
    )
    verdict = lct_fpt_classifier(generators)
    check = verify_prime(generators, 5, verdict)
    assert not check.newton_preserved
    assert check.certificate_kind is None
    assert check.certificate_value is None
    assert not check.holds


def test_verify_prime_validation():
    generators = two_fermat_blocks(2, 3, 4)
    verdict = lct_fpt_classifier(generators)
    with pytest.raises(InputError):
        verify_prime(generators, 4, verdict)
    with pytest.raises(InputError):
        verify_prime(generators, 5, "not a verdict")
    inconclusive = lct_fpt_classifier(
        gens("x1^2+x2^3+x3^4", "x4^2", variables=("x1", "x2", "x3", "x4"))
    )
    with pytest.raises(InputError):
        verify_prime(generators, 5, inconclusive)
