"""The token-regex parser against the character scanner it replaced.

The scanner is kept below as the reference.  Every text must give the
same polynomial, or the same exception type, message and position.
The one allowed divergence: text the scanner crashed on with a raw
ValueError (a character that ``str.isdigit`` accepts but ``int``
rejects, or an integer past the string-conversion digit limit) is now
a ParseError.
"""

import random
from fractions import Fraction

from fptcert.errors import InputError, ParseError
from fptcert.polyring import QQ, Polynomial, parse_polynomial

# --- reference: the character scanner --------------------------------------

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take_uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.text[start : self.pos])

    def take_name(self):
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_START:
            raise ParseError("expected a variable name", start)
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start : self.pos], start


def _parse_factor(scanner, index, exponents):
    name, start = scanner.take_name()
    if name not in index:
        raise ParseError("unknown variable '%s'" % name, start)
    power = 1
    if scanner.peek() == "^":
        scanner.pos += 1
        ch = scanner.peek()
        if ch == "-":
            raise ParseError("negative exponent", scanner.pos)
        power = scanner.take_uint()
    exponents[index[name]] += power


def _parse_term(scanner, index, varcount):
    coeff = Fraction(1)
    exponents = [0] * varcount
    saw_anything = False
    ch = scanner.peek()
    if ch.isdigit():
        num = scanner.take_uint()
        if scanner.peek() == "/":
            scanner.pos += 1
            at = scanner.pos
            den = scanner.take_uint()
            if den == 0:
                raise ParseError("zero denominator", at)
            coeff = Fraction(num, den)
        else:
            coeff = Fraction(num)
        saw_anything = True
    while True:
        ch = scanner.peek()
        if ch == "*":
            if not saw_anything:
                raise ParseError("expected a term", scanner.pos)
            scanner.pos += 1
            _parse_factor(scanner, index, exponents)
            saw_anything = True
        elif ch in _IDENT_START:
            _parse_factor(scanner, index, exponents)
            saw_anything = True
        else:
            break
    if not saw_anything:
        raise ParseError("expected a term", scanner.pos)
    return coeff, tuple(exponents)


def reference_parse(text, variables):
    variables = tuple(variables)
    if not variables:
        raise InputError("at least one variable is required")
    if len(set(variables)) != len(variables):
        raise InputError("duplicate variable name in %r" % (variables,))
    for name in variables:
        if not name or name[0] not in _IDENT_START or any(
            c not in _IDENT_CONT for c in name
        ):
            raise InputError("invalid variable name %r" % name)
    index = {name: i for i, name in enumerate(variables)}
    m = len(variables)

    scanner = _Scanner(text)
    if scanner.peek() == "":
        raise ParseError("empty polynomial", scanner.pos)
    terms = {}

    def accumulate(sign):
        coeff, mon = _parse_term(scanner, index, m)
        terms[mon] = terms.get(mon, 0) + sign * coeff

    sign = 1
    if scanner.peek() == "-":
        scanner.pos += 1
        sign = -1
    elif scanner.peek() == "+":
        raise ParseError("a polynomial cannot start with '+'", scanner.pos)
    accumulate(sign)
    while True:
        ch = scanner.peek()
        if ch == "":
            break
        if ch == "+":
            scanner.pos += 1
            accumulate(1)
        elif ch == "-":
            scanner.pos += 1
            accumulate(-1)
        else:
            raise ParseError("unexpected character %r" % ch, scanner.pos)
    return Polynomial(QQ, m, terms)


# --- inputs ----------------------------------------------------------------

VARIABLES = ("x", "y", "z", "x1", "_t")

# ASCII pieces of the grammar and its near misses, plus Unicode edge
# characters: digits that ``isdigit`` accepts but ``int`` rejects (², ①),
# decimal digits of other scripts (٣, １), Unicode whitespace (NBSP,
# U+2028, U+3000) and a letter outside ASCII.
ALPHABET = (
    list("xyzw_t1") + ["x1", "x2"] + list("0123456789") + list("+-*/^")
    + list(" \t\n") + list("%().,=")
    + ["²", "①", "٣", "１", "\u00a0", "\u2028", "\u3000", "é"]
)


def random_text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(13)))


def _space(rng):
    return rng.choice(["", "", "", " ", "  ", "\t", "\n", "\u00a0", "\u3000"])


def structured_text(rng):
    """A polynomial in the grammar with random spacing, coefficients,
    leading zeros and exponents, then sometimes one character deleted,
    inserted or replaced so that the errors fall at interesting offsets."""
    pieces = []
    for i in range(rng.randrange(1, 5)):
        if i or rng.random() < 0.3:
            pieces.append(rng.choice("+-") if i else "-")
        pieces.append(_space(rng))
        factors = []
        if rng.random() < 0.5:
            coeff = str(rng.choice([0, 1, 2, 7, 10, 12345678901234567890]))
            if rng.random() < 0.2:
                coeff = "0" + coeff
            if rng.random() < 0.3:
                coeff += _space(rng) + "/" + _space(rng) + str(rng.choice([0, 1, 3, 10]))
            factors.append(coeff)
        for _ in range(rng.randrange(0 if factors else 1, 4)):
            name = rng.choice(VARIABLES + ("w",))
            if rng.random() < 0.4:
                name += _space(rng) + "^" + _space(rng) + str(rng.choice([0, 1, 2, 15]))
            factors.append(name)
        glue = [rng.choice(["*", " * ", " ", "*" + _space(rng)]) for _ in factors]
        pieces.append(
            "".join(g + f if j else f for j, (g, f) in enumerate(zip(glue, factors)))
        )
        pieces.append(_space(rng))
    text = "".join(pieces)
    roll = rng.random()
    if text and roll < 0.4:
        k = rng.randrange(len(text))
        change = rng.choice(["delete", "insert", "replace"])
        extra = rng.choice(ALPHABET)
        if change == "delete":
            text = text[:k] + text[k + 1 :]
        elif change == "insert":
            text = text[:k] + extra + text[k:]
        else:
            text = text[:k] + extra + text[k + 1 :]
    return text


def outcome(parse, text):
    try:
        return parse(text, VARIABLES)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)
    except ValueError as exc:
        return ("ValueError", str(exc), None)


def compare(texts):
    """Check every text; return how many ValueErrors became ParseErrors
    and how many texts parsed."""
    converted = parsed = 0
    for text in texts:
        expected = outcome(reference_parse, text)
        got = outcome(parse_polynomial, text)
        if isinstance(expected, tuple) and expected[0] == "ValueError":
            assert isinstance(got, tuple) and got[0] == "ParseError", text
            converted += 1
            continue
        assert got == expected, text
        parsed += isinstance(expected, Polynomial)
    return converted, parsed


def test_random_strings_match_scanner():
    rng = random.Random(20231)
    texts = [random_text(rng) for _ in range(20000)]
    converted, parsed = compare(texts)
    assert converted >= 100
    assert parsed >= 1000


def test_structured_polynomials_match_scanner():
    rng = random.Random(20232)
    texts = [structured_text(rng) for _ in range(10000)]
    converted, parsed = compare(texts)
    assert parsed >= 3000


def test_fixed_texts_match_scanner():
    texts = [
        "", " ", "\u3000\n", "x", " x ", "-x", "--x", "+x", "x+", "x+ ",
        "1/0", "1/ 0", "1 /0", "1 / 0 ", "1/", "1/ ", "1/x", "3/4x y",
        "x^", "x^ ", "x^-1", "x^ -1", "x ^ 2", "x*", "x* ", "*x", "x**y",
        "2 3", "x 2", "2x3", "x٣", "٣x", "１/２ x", "x²", "x^²+y", "²",
        "x^1²", "w", "x1x", "x + y - z", "x +y", " - x",
        "0x", "007*x^007", "x%y", "x^" + "1" * 4301, "1" * 4301 + "x",
    ]
    compare(texts)


def test_variable_names_match_scanner():
    for variables in [("x",), ("x1", "_t"), ("2bad",), ("x-y",), ("",),
                      ("x", "x"), (), ("é",), ("x\n",), ("x", None)]:
        try:
            expected = reference_parse("x", variables)
        except InputError as exc:
            expected = (type(exc), str(exc))
        try:
            got = parse_polynomial("x", variables)
        except InputError as exc:
            got = (type(exc), str(exc))
        assert got == expected, variables
