"""Sparse multivariate polynomials over the rationals and over prime fields.

A polynomial is a term map: exponent tuple -> nonzero coefficient.  Two
coefficient rings are supported, the rationals (Fraction coefficients)
and the integers mod a prime p (int coefficients in [1, p-1]).
"""

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .basep import _check_int, _check_prime
from .errors import (
    DenominatorDivisibleByP,
    InputError,
    ParseError,
    RingMismatch,
)


@dataclass(frozen=True, slots=True)
class Rationals:
    """Coefficient ring tag for exact rational arithmetic."""

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise InputError("rational coefficient expected, got %r" % (value,))

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True, slots=True)
class IntegersMod:
    """Coefficient ring tag for GF(p), p a prime below 2**31
    (``basep._check_prime``), so every denominator prime to p inverts."""

    p: int

    def __post_init__(self):
        _check_prime(self.p)

    def coerce(self, value):
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            if den % self.p == 0:
                raise DenominatorDivisibleByP(
                    "denominator of %s is divisible by %d" % (value, self.p)
                )
            return num * pow(den, -1, self.p) % self.p
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        raise InputError("mod-%d coefficient expected, got %r" % (self.p, value))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def grlex_key(monomial):
    """Sort key: ascending total degree, ties broken by descending
    lexicographic order on the exponent tuple."""
    return (sum(monomial), tuple(-e for e in monomial))


def _check_monomial(monomial, varcount):
    """``monomial`` as a tuple of ``varcount`` nonnegative ints."""
    monomial = tuple(monomial)
    if len(monomial) != varcount:
        raise InputError(
            "monomial %r has %d entries, expected %d" % (monomial, len(monomial), varcount)
        )
    if any(type(e) is not int or e < 0 for e in monomial):
        raise InputError("exponents must be nonnegative integers")
    return monomial


class Polynomial:
    """Immutable-by-convention sparse polynomial.

    The constructor is the one place that normalizes coefficients: it
    coerces each through ``ring.coerce`` and drops the zeros, so the
    arithmetic passes it plain, unreduced ints or Fractions."""

    __slots__ = ("ring", "varcount", "terms", "_hash")

    def __init__(self, ring, varcount, terms):
        if type(varcount) is not int or varcount < 0:
            raise InputError("varcount must be nonnegative and an int, got %r" % (varcount,))
        if not isinstance(terms, Mapping):
            raise InputError("terms must map monomials to coefficients, got %r" % (terms,))
        clean = {}
        for monomial, coeff in terms.items():
            monomial = _check_monomial(monomial, varcount)
            c = ring.coerce(coeff)
            if c:
                clean[monomial] = c
        self.ring = ring
        self.varcount = varcount
        self.terms = clean
        self._hash = None

    @classmethod
    def zero(cls, ring, varcount):
        return cls(ring, varcount, {})

    @classmethod
    def one(cls, ring, varcount):
        return cls(ring, varcount, {(0,) * varcount: 1})

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if not isinstance(other, Polynomial):
            raise RingMismatch("expected a polynomial, got %r" % (other,))
        if self.ring != other.ring:
            raise RingMismatch(
                "coefficient rings differ: %r vs %r" % (self.ring, other.ring)
            )
        if self.varcount != other.varcount:
            raise RingMismatch(
                "variable counts differ: %d vs %d" % (self.varcount, other.varcount)
            )

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            terms[mon] = terms.get(mon, 0) + c
        return Polynomial(self.ring, self.varcount, terms)

    def __neg__(self):
        return Polynomial(
            self.ring, self.varcount, {mon: -c for mon, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        terms = {}
        for mon1, c1 in self.terms.items():
            for mon2, c2 in other.terms.items():
                mon = tuple(a + b for a, b in zip(mon1, mon2))
                terms[mon] = terms.get(mon, 0) + c1 * c2
        return Polynomial(self.ring, self.varcount, terms)

    def __pow__(self, n):
        return poly_pow(self, n)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.varcount == other.varcount
            and self.terms == other.terms
        )

    def __hash__(self):
        # the terms are immutable by convention, so hash them once
        if self._hash is None:
            self._hash = hash((self.ring, self.varcount, frozenset(self.terms.items())))
        return self._hash

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(mon) for mon in self.terms)

    def __repr__(self):
        return "Polynomial(%r, %s)" % (self.ring, format_polynomial(self))


def poly_pow(a, n):
    """a**n for an integer n >= 0; a**0 is the constant 1."""
    _check_int(n, "exponent", 0)
    result = Polynomial.one(a.ring, a.varcount)
    while n:  # repeated squaring
        if n & 1:
            result = result * a
        n >>= 1
        if n:
            a = a * a
    return result


class _Box:
    """Truncated products over GF(p) inside a box of exponents.

    A term is kept only while every exponent e_i stays below the
    exclusive bound b_i of its variable.  A polynomial in the box is a
    dict from a packed monomial to a coefficient in [1, p-1]; the
    constant 1 is {0: 1}.  Exponent e_i sits in field i of radix 2H,
    where H is the least power of two >= ``room`` (max(bounds) by
    default), so the sum of two packed monomials of the box never
    carries from one field into the next, and boxes of one room pack a
    monomial alike.  Adding the bias sum (H - b_i) (2H)**i sets bit H of
    field i exactly when e_i reaches b_i, so one AND with the guard mask
    sum H (2H)**i drops every term that leaves the box.
    """

    __slots__ = ("bounds", "p", "shift", "bias", "guard")

    def __init__(self, bounds, p, room=None):
        self.bounds = tuple(bounds)
        self.p = p
        half = 1 << ((room or max(self.bounds)) - 1).bit_length()
        self.shift = half.bit_length()
        self.bias = self.key([half - b for b in self.bounds])
        self.guard = self.key([half] * len(self.bounds))

    def key(self, monomial):
        """The packed form of an exponent tuple inside the box."""
        shift = self.shift
        return sum(e << (shift * i) for i, e in enumerate(monomial))

    def pack(self, a):
        """The terms of a polynomial over GF(p) that lie in the box."""
        bounds = self.bounds
        return {
            self.key(mon): c
            for mon, c in a.terms.items()
            if all(e < b for e, b in zip(mon, bounds))
        }

    def mul(self, a, b):
        """The product of two packed polynomials, truncated to the box.
        Coefficients are summed as integers and reduced mod p at the
        end, where the terms that cancel are dropped."""
        if len(a) > len(b):  # the longer operand runs in the inner loop
            a, b = b, a
        bias, guard, p = self.bias, self.guard, self.p
        out = {}
        get = out.get
        for ka, ca in a.items():
            ka += bias
            for s, cb in b.items():
                s += ka
                if not s & guard:
                    out[s] = get(s, 0) + ca * cb
        return {s - bias: c % p for s, c in out.items() if c % p}


def reduce_mod_p(a, p):
    """Image of a rational-coefficient polynomial in GF(p)[x].

    Terms whose coefficients reduce to zero are dropped.  Raises
    DenominatorDivisibleByP when some denominator is divisible by p.
    """
    if a.ring != QQ:
        raise RingMismatch("reduce_mod_p expects rational coefficients")
    return Polynomial(IntegersMod(p), a.varcount, a.terms)


def support(a):
    """The set of exponent tuples with nonzero coefficient."""
    return frozenset(a.terms)


def coefficient_of(a, monomial):
    """Coefficient of the given exponent tuple (ring zero if absent)."""
    return a.terms.get(_check_monomial(monomial, a.varcount), a.ring.coerce(0))


def in_frobenius_power(a, e):
    """True when every term of ``a`` lies in (x_1**q, ..., x_m**q) for
    q = p**e, i.e. each monomial has some exponent >= q.  The zero
    polynomial is contained in every ideal."""
    if not isinstance(a.ring, IntegersMod):
        raise RingMismatch("Frobenius powers are tested over GF(p)")
    _check_int(e, "e")
    q = a.ring.p**e
    return all(any(exp >= q for exp in mon) for mon in a.terms)


# --- parsing -------------------------------------------------------------
#
# poly   := ['-'] term (('+' | '-') term)*
# term   := (coeff | factor) ('*'? factor)*
# factor := VAR ('^' UINT)?
# coeff  := UINT | UINT '/' UINT
#
# VAR is a name [A-Za-z_][A-Za-z0-9_]*, UINT a run of decimal digits.
# Juxtaposed factors multiply ("2x y" is 2*x*y); a term cannot start
# with '*'.  Whitespace between tokens is insignificant.  No parentheses.

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# One token per match, after optional whitespace: group 1 an unsigned
# integer, group 2 a name, group 3 any other single character.
_TOKEN = re.compile(r"\s*(?:(\d+)|(%s)|(\S))" % _NAME.pattern)
_UINT, _VAR = 1, 2


def parse_polynomial(text, variables):
    """Parse ``text`` into a Polynomial over the rationals.

    ``variables`` fixes both the variable names and their order (that
    is, the interpretation of exponent tuples).  Malformed text raises
    ParseError with the 0-based offset of the offending token.
    """
    variables = tuple(variables)
    if not variables:
        raise InputError("at least one variable is required")
    if len(set(variables)) != len(variables):
        raise InputError("duplicate variable name in %r" % (variables,))
    for name in variables:
        if not name or not _NAME.fullmatch(name):
            raise InputError("invalid variable name %r" % name)
    index = {name: i for i, name in enumerate(variables)}

    # (token, offset, kind) triples with the next token last; kind None
    # marks the end of the text, which every rule stops at.
    tokens = [("", len(text), None)] + [
        (t[t.lastindex], t.start(t.lastindex), t.lastindex)
        for t in reversed(list(_TOKEN.finditer(text)))
    ]

    def uint():
        token, start, kind = tokens.pop()
        if kind != _UINT:
            raise ParseError("expected an unsigned integer", start)
        try:
            return int(token)
        except ValueError:  # longer than the int string-conversion limit
            raise ParseError("integer is too long", start) from None

    def term():
        coeff, exponents = Fraction(1), [0] * len(variables)
        token, start, kind = tokens[-1]
        if kind == _UINT:
            coeff = Fraction(uint())
            if tokens[-1][0] == "/":
                after_slash = tokens.pop()[1] + 1
                den = uint()
                if den == 0:
                    raise ParseError("zero denominator", after_slash)
                coeff /= den
        elif kind != _VAR:
            raise ParseError("expected a term", start)
        while tokens[-1][0] == "*" or tokens[-1][2] == _VAR:
            if tokens[-1][0] == "*":
                tokens.pop()
            name, start, kind = tokens.pop()
            if kind != _VAR:
                raise ParseError("expected a variable name", start)
            if name not in index:
                raise ParseError("unknown variable '%s'" % name, start)
            power = 1
            if tokens[-1][0] == "^":
                tokens.pop()
                if tokens[-1][0] == "-":
                    raise ParseError("negative exponent", tokens[-1][1])
                power = uint()
            exponents[index[name]] += power
        return coeff, tuple(exponents)

    token, start, kind = tokens[-1]
    if kind is None:
        raise ParseError("empty polynomial", start)
    if token == "+":
        raise ParseError("a polynomial cannot start with '+'", start)
    sign = tokens.pop()[0] if token == "-" else "+"
    terms = {}
    while True:
        coeff, mon = term()
        terms[mon] = terms.get(mon, 0) + (coeff if sign == "+" else -coeff)
        sign, start, kind = tokens.pop()
        if kind is None:
            return Polynomial(QQ, len(variables), terms)
        if sign not in ("+", "-"):
            raise ParseError("unexpected character %r" % sign[0], start)


def format_polynomial(a, variables=None):
    """Deterministic text form.

    Terms are ordered by ascending total degree with descending
    lexicographic tie-break, matching the column order used for
    exponent matrices.  ``parse_polynomial`` accepts the output.
    """
    if variables is None:
        variables = tuple("x%d" % (i + 1) for i in range(a.varcount))
    else:
        variables = tuple(variables)
        if len(variables) != a.varcount:
            raise InputError(
                "%d variable names supplied for %d variables"
                % (len(variables), a.varcount)
            )
    if not a.terms:
        return "0"

    def render(mon, coeff):
        factors = []
        for name, exp in zip(variables, mon):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append("%s^%d" % (name, exp))
        body = "*".join(factors)
        if not body:
            return str(coeff)
        if coeff == 1:
            return body
        return "%s*%s" % (coeff, body)

    pieces = []
    for mon in sorted(a.terms, key=grlex_key):
        coeff = a.terms[mon]
        negative = isinstance(coeff, Fraction) and coeff < 0
        text = render(mon, -coeff if negative else coeff)
        if not pieces:
            pieces.append("-" + text if negative else text)
        else:
            pieces.append(("- " if negative else "+ ") + text)
    return " ".join(pieces)
