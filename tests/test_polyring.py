"""Polynomial products, the text grammar, and the truncated products
of the box kernel."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from fptcert.errors import (
    DenominatorDivisibleByP,
    InputError,
    ParseError,
    RingMismatch,
)
from fptcert.polyring import (
    QQ,
    IntegersMod,
    Polynomial,
    _Box,
    grlex_key,
    parse_polynomial,
    reduce_mod_p,
)

XYZ = ("x", "y", "z")


def parse(text, variables=XYZ):
    return parse_polynomial(text, variables)


def test_parse_basic_terms():
    f = parse("x^2+x*y^2")
    assert f.terms == {(2, 0, 0): Fraction(1), (1, 2, 0): Fraction(1)}
    g = parse("3/4*x*y - 2*z")
    assert g.terms == {(1, 1, 0): Fraction(3, 4), (0, 0, 1): Fraction(-2)}
    assert parse("5").terms == {(0, 0, 0): Fraction(5)}


def test_parse_implicit_multiplication_and_whitespace():
    assert parse("2x") == parse("2*x")
    assert parse("x y z") == parse("x*y*z")
    assert parse("  x ^ 2 +  y") == parse("x^2+y")


def test_parse_repeated_factors_multiply():
    assert parse("x*x") == parse("x^2")
    assert parse("x^2*x^3*y") == parse("x^5*y")


def test_parse_signs_and_cancellation():
    assert parse("-x^2+y").terms == {(2, 0, 0): Fraction(-1), (0, 1, 0): Fraction(1)}
    assert parse("x-x").is_zero()
    assert parse("x+y-y") == parse("x")
    assert parse("2*x - 3*x").terms == {(1, 0, 0): Fraction(-1)}


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty polynomial"),
        ("+x", "cannot start with '+'"),
        ("x++y", "expected a term"),
        ("x^2+", "expected a term"),
        ("*x", "expected a term"),
        ("x+*y", "expected a term"),
        ("x^-2", "negative exponent"),
        ("w", "unknown variable 'w'"),
        ("1/0", "zero denominator"),
        ("x%y", "unexpected character"),
        ("x^", "expected an unsigned integer"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert message in str(info.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse("x^2+")
    assert info.value.position == 4
    assert "(at position 4)" in str(info.value)
    assert info.value.exit_code == 2


def test_parse_error_positions():
    cases = [
        ("x^\u00b2+y", "expected an unsigned integer", 2),  # isdigit, not decimal
        ("x^" + "1" * 4301, "integer is too long", 2),  # past int's digit limit
        ("1/ 0", "zero denominator", 2),  # just after '/', before the space
        ("x+ ", "expected a term", 3),  # end of text
        ("2 x 3", "unexpected character '3'", 4),
    ]
    for text, message, position in cases:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == "%s (at position %d)" % (message, position)
        assert info.value.position == position


def test_variable_list_validation():
    with pytest.raises(InputError):
        parse_polynomial("x", [])
    with pytest.raises(InputError):
        parse_polynomial("x", ["x", "x"])
    with pytest.raises(InputError):
        parse_polynomial("x", ["2bad"])


def test_grlex_key_orders_by_degree_then_descending_lex():
    monomials = [(0, 2), (2, 0), (1, 1), (0, 0), (1, 0)]
    assert sorted(monomials, key=grlex_key) == [
        (0, 0),
        (1, 0),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_arithmetic_identities():
    f = parse("x+y")
    g = parse("x-y")
    assert f * g == parse("x^2-y^2")
    assert f * g == g * f
    assert (f * g) * f == f * (g * f)
    assert (f * f) * (f * f) == parse("x^4+4*x^3*y+6*x^2*y^2+4*x*y^3+y^4")


def assert_normalized(a):
    """GF(p) coefficients are ints in [1, p-1], QQ ones nonzero Fractions."""
    for c in a.terms.values():
        if a.ring == QQ:
            assert isinstance(c, Fraction) and c != 0
        else:
            assert type(c) is int and 1 <= c <= a.ring.p - 1


def _sum(a, b):
    """a + b through the constructor, which reduces the coefficients."""
    terms = dict(a.terms)
    for mon, c in b.terms.items():
        terms[mon] = terms.get(mon, 0) + c
    return Polynomial(a.ring, a.varcount, terms)


def test_random_ring_laws():
    rng = random.Random(7)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mon = tuple(rng.randint(0, 3) for _ in range(2))
            terms[mon] = Fraction(rng.randint(-4, 4), rng.choice([1, 7]))
        return Polynomial(QQ, 2, terms)

    for ring in (QQ, IntegersMod(2), IntegersMod(3), IntegersMod(5)):
        for _ in range(40):
            rational = [random_poly(), random_poly(), random_poly()]
            a, b, c = rational
            if ring != QQ:
                a, b, c = (reduce_mod_p(f, ring.p) for f in rational)
                f, g = rational[:2]
                assert reduce_mod_p(f * g, ring.p) == a * b
            assert a * _sum(b, c) == _sum(a * b, a * c)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            for result in (a * b, a * _sum(b, c)):
                assert_normalized(result)


def test_integers_mod_coercion():
    gf5 = IntegersMod(5)
    assert gf5.coerce(7) == 2
    assert gf5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert gf5.coerce(Fraction(-1, 3)) == 3
    with pytest.raises(DenominatorDivisibleByP):
        gf5.coerce(Fraction(1, 10))
    with pytest.raises(InputError):
        IntegersMod(1)


def test_ring_tags_are_frozen_values():
    assert IntegersMod(5) == IntegersMod(5)
    assert hash(IntegersMod(5)) == hash(IntegersMod(5))
    assert IntegersMod(5) != IntegersMod(7)
    assert QQ != IntegersMod(5)
    assert len({IntegersMod(5), IntegersMod(5), IntegersMod(7), QQ}) == 3
    for tag in (QQ, IntegersMod(5)):
        assert pickle.loads(pickle.dumps(tag)) == copy.deepcopy(tag) == tag
    # assigning p used to move every polynomial over the tag to GF(7)
    with pytest.raises(AttributeError):
        IntegersMod(5).p = 7


def test_integers_mod_needs_a_prime():
    # a composite modulus used to be accepted, and its coercion of 1/2
    # raised a raw ValueError
    with pytest.raises(InputError, match="^p must be a prime number, got 4$"):
        IntegersMod(4)
    with pytest.raises(InputError, match="^p must be a prime number, got 6$"):
        reduce_mod_p(parse_polynomial("1/2*x+y", ("x", "y")), 6)
    with pytest.raises(InputError, match="^p must fit in 31 bits$"):
        IntegersMod(2_147_483_659)


def test_coercion_rejects_non_numbers_and_bools():
    with pytest.raises(InputError, match="mod-5 coefficient expected, got '1'"):
        IntegersMod(5).coerce("1")
    # a bool used to read as the coefficient 1 (or 0)
    with pytest.raises(InputError, match="mod-5 coefficient expected, got True"):
        IntegersMod(5).coerce(True)
    with pytest.raises(InputError, match="rational coefficient expected, got True"):
        QQ.coerce(True)
    with pytest.raises(InputError, match="rational coefficient expected, got True"):
        Polynomial(QQ, 1, {(1,): True})
    with pytest.raises(InputError, match="mod-5 coefficient expected, got False"):
        Polynomial(IntegersMod(5), 1, {(1,): False})


def test_reduce_mod_p_drops_vanishing_terms():
    f = parse("4*x+6*y+3*z")
    assert reduce_mod_p(f, 2).terms == {(0, 0, 1): 1}
    assert reduce_mod_p(f, 3).terms == {(1, 0, 0): 1}
    g = parse("1/2*x")
    assert reduce_mod_p(g, 3).terms == {(1, 0, 0): 2}
    with pytest.raises(DenominatorDivisibleByP):
        reduce_mod_p(g, 2)
    fp = reduce_mod_p(f, 5)
    with pytest.raises(RingMismatch):
        reduce_mod_p(fp, 5)


def test_ring_mismatch_on_mixed_arithmetic():
    f = parse("x")
    g = reduce_mod_p(parse("y"), 3)
    with pytest.raises(RingMismatch):
        f * g
    h = parse_polynomial("a", ["a"])
    with pytest.raises(RingMismatch):
        f * h


def test_product_with_a_non_polynomial():
    with pytest.raises(RingMismatch, match="expected a polynomial, got 3"):
        parse("x") * 3


def test_polynomial_validation():
    with pytest.raises(InputError):
        Polynomial(QQ, 2, {(1,): Fraction(1)})
    with pytest.raises(InputError):
        Polynomial(QQ, 2, {(-1, 0): Fraction(1)})
    with pytest.raises(InputError):
        Polynomial(QQ, 2, {(0, 0): 0.5})
    # zero coefficients are dropped on construction
    assert Polynomial(QQ, 2, {(1, 0): Fraction(0)}).is_zero()


def test_polynomial_terms_must_be_a_mapping():
    # a list of pairs used to raise a raw AttributeError
    with pytest.raises(InputError, match="terms must map monomials to coefficients"):
        Polynomial(QQ, 1, [((1,), 1)])


def test_polynomial_varcount_must_be_nonnegative():
    with pytest.raises(InputError, match="varcount must be nonnegative"):
        Polynomial(QQ, -1, {})


@pytest.mark.parametrize("varcount", [2.0, True])
def test_polynomial_varcount_must_be_an_int(varcount):
    # 2.0 used to be accepted, and True kept as the variable count
    with pytest.raises(InputError, match="varcount must be nonnegative and an int"):
        Polynomial(QQ, varcount, {(1,) * int(varcount): 1})


@pytest.mark.parametrize("monomial", [(True,), (False,), (1.0,), (Fraction(1),)])
def test_polynomial_exponents_must_be_ints(monomial):
    # (True,) used to build x1 with the key (True,)
    with pytest.raises(InputError, match="exponents must be nonnegative integers"):
        Polynomial(QQ, 1, {monomial: 1})


def test_polynomial_hash_consistency():
    a = parse("x+2*y")
    b = parse("2*y+x")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_polynomial_hash_is_computed_once():
    # memo keys hash their generators on every call; after the first
    # hash the terms are not read again
    g = parse("x+2*y")
    first = hash(g)

    class Unread(dict):
        def items(self):
            raise AssertionError("the terms were read again")

    g.terms = Unread(g.terms)
    assert hash(g) == first


def random_box_case(seed):
    """A seeded box over GF(p), p in {2, 3, 5, 7}, and two polynomials
    with terms on both sides of its bounds.  Boxes cycle through equal
    power-of-two bounds (each bound is then exactly H), bounds that are
    mostly 1 (a target exponent of 0) and arbitrary bounds; an operand
    is empty one time in eight."""
    rng = random.Random(seed)
    p = (2, 3, 5, 7)[seed % 4]
    m = rng.randint(1, 3)
    shape = seed // 4 % 3
    if shape == 0:
        bounds = [2 ** rng.randint(0, 3)] * m
    elif shape == 1:
        bounds = [rng.choice((1, 1, rng.randint(2, 5))) for _ in range(m)]
    else:
        bounds = [rng.randint(1, 9) for _ in range(m)]
    ring = IntegersMod(p)

    def poly():
        size = 0 if rng.random() < 1 / 8 else rng.randint(1, 8)
        terms = {
            tuple(rng.randint(0, b) for b in bounds): rng.randrange(1, p)
            for _ in range(size)
        }
        return Polynomial(ring, m, terms)

    return _Box(bounds, p), poly(), poly()


@pytest.mark.parametrize("seed", range(120))
def test_box_product_matches_truncated_product(seed):
    box, a, b = random_box_case(seed)
    assert box.mul(box.pack(a), box.pack(b)) == box.pack(a * b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_box_product_cancellation(p):
    ring = IntegersMod(p)
    xy = ("x", "y")
    box = _Box([p + 1, p + 1], p)
    f = reduce_mod_p(parse("x+y", xy), p)
    g = reduce_mod_p(parse("x-y", xy), p)
    # the cross terms of (x+y)(x-y) cancel mod p
    assert box.mul(box.pack(f), box.pack(g)) == box.pack(
        Polynomial(ring, 2, {(2, 0): 1, (0, 2): -1})
    )
    # (x+y)**p = x**p + y**p: every middle binomial vanishes mod p
    power = {0: 1}
    for _ in range(p):
        power = box.mul(power, box.pack(f))
    assert power == {box.key((p, 0)): 1, box.key((0, p)): 1}
    # a bound of 1 on y (a target exponent of 0) drops every term with y
    thin = _Box([3, 1], p)
    assert thin.pack(f) == {thin.key((1, 0)): 1}
    assert thin.mul(thin.pack(f), thin.pack(f)) == {thin.key((2, 0)): 1}
    assert thin.mul({}, thin.pack(f)) == {}
