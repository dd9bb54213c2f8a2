"""Acceptance suite: end-to-end desk-scale checks of the certificates,
the oracles that validate them, and the command-line surface."""

import json
import math
import random
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

from fptcert.basep import _lucas, digit_at
from fptcert.cli import main
from fptcert.geometry import ExponentMatrix, maximal_point
from fptcert.errors import InputError, NonUniqueMaximalPoint
from fptcert.polyring import QQ, Polynomial, parse_polynomial, reduce_mod_p
from fptcert.fvolume import fvolume_count, fvolume_estimate
from fptcert.thresholds import (
    CASE_DIAGONAL_ABOVE_T,
    CASE_DIAGONAL_AT_MOST_T,
    KIND_EXACT,
    coefficient_witness,
    fpt_bound,
    lct_fpt_classifier,
    nu,
    verify_prime,
    witness_floor,
)

XYZ = ("x", "y", "z")
PAIR_ARGS = ["--vars", "x,y,z", "--gens", "x^2+x*y^2,y*z^3"]


def gens(*texts, variables=XYZ):
    return [parse_polynomial(t, variables) for t in texts]


def pair():
    return gens("x^2+x*y^2", "y*z^3")


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_c01_threshold_prime_table_cli(capsys):
    # p = 1 mod 6: exact 1; p = 5 mod 6: bound 1 - 1/(3p); p = 2, 3 special
    expected = {
        2: ("lower_bound", Fraction(5, 6)),
        3: ("lower_bound", Fraction(2, 3)),
        5: ("lower_bound", Fraction(14, 15)),
        7: ("exact", Fraction(1)),
        11: ("lower_bound", Fraction(32, 33)),
        13: ("exact", Fraction(1)),
        19: ("exact", Fraction(1)),
    }
    for p, (kind, value) in expected.items():
        started = time.monotonic()
        code, payload = run_json(capsys, "fpt-bound", *PAIR_ARGS, "--p", str(p))
        elapsed = time.monotonic() - started
        assert code == 0
        assert payload["result"]["kind"] == kind
        assert Fraction(payload["result"]["value"]) == value
        assert elapsed < 1.0
    for p in (5, 11):
        assert expected[p][1] == 1 - Fraction(1, 3 * p)


def test_c02_binomial_times_power_maximal_point(capsys):
    argv = [
        "--vars",
        "x,y",
        "--gens",
        "y^5*x^4+4*y^6*x^3+6*y^7*x^2+4*y^8*x+y^9,x^10",
    ]
    code, payload = run_json(capsys, "polytope", *argv)
    assert code == 0
    assert payload["result"]["rho"] == [["1/5", "0", "0", "0", "0"], ["1/50"]]
    assert payload["result"]["unique"] is True
    for p in (2, 3, 5, 7):
        code, payload = run_json(capsys, "fpt-bound", *argv, "--p", str(p))
        assert code == 0
        assert payload["result"]["kind"] == "exact"
        assert Fraction(payload["result"]["value"]) == Fraction(11, 50)


def test_c03_vertex_enumeration(capsys):
    code, payload = run_json(capsys, "polytope", *PAIR_ARGS)
    assert code == 0
    listed = {
        tuple(Fraction(x) for x in vertex)
        for vertex in payload["result"]["vertices"]
    }
    F = Fraction
    assert listed == {
        (F(0), F(0), F(0)),
        (F(1, 2), F(0), F(0)),
        (F(1, 2), F(0), F(1, 3)),
        (F(0), F(0), F(1, 3)),
        (F(0), F(1, 3), F(1, 3)),
        (F(1, 3), F(1, 3), F(1, 3)),
        (F(0), F(1, 2), F(0)),
        (F(1, 4), F(1, 2), F(0)),
    }


def test_c04_duality_suite():
    started = time.monotonic()
    examples = [
        pair(),
        gens("x^2+y^3+z^4", "-x^2+x*y*z+x^2*y^2*z^2", "y^3+x*y*z+x^3*y^2"),
        gens("x", "x+y^2", variables=("x", "y")),
        gens("x^2-y^3", "z^4-x^3"),
        gens(
            "y^5*x^4+4*y^6*x^3+6*y^7*x^2+4*y^8*x+y^9",
            "x^10",
            variables=("x", "y"),
        ),
    ]
    from fptcert.geometry import exponent_matrix, reduce_generators
    from test_geometry import _reference_min_diagonal

    for generators in examples:
        matrix = exponent_matrix(reduce_generators(generators))
        union = set()
        for g in generators:
            union |= set(g.terms)
        assert maximal_point(matrix).M == 1 / _reference_min_diagonal(union)

    rng = random.Random(20260816)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        columns = set()
        while len(columns) < n:
            col = tuple(rng.randint(0, 6) for _ in range(m))
            if any(col):
                columns.add(col)
        matrix = ExponentMatrix(
            varcount=m, columns=tuple(sorted(columns)), block_sizes=(n,)
        )
        assert maximal_point(matrix).M == 1 / _reference_min_diagonal(columns)
    assert time.monotonic() - started < 30


def test_c05_oracle_bracket():
    started = time.monotonic()
    observed = {}
    for p, e in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (7, 1)):
        cert = fpt_bound(pair(), p)
        fp_gens = [reduce_mod_p(g, p) for g in pair()]
        value = nu(fp_gens, e)
        observed[(p, e)] = value
        # at a finite carry horizon the certified per-level floor
        # replaces the plain truncation sum
        assert p**e * witness_floor(cert, e) <= value
        if cert.finite_indices == ():
            truncated = sum(
                sum(math.ceil(a * p**e) - 1 for a in block)
                for block in cert.rho_blocks
            )
            assert truncated <= value
        assert value <= p**e * min(cert.t, cert.upper_bound)
    assert observed == {
        (2, 1): 0,
        (2, 2): 2,
        (2, 3): 5,
        (3, 1): 1,
        (3, 2): 7,
        (7, 1): 6,
    }
    for p, e in ((2, 1), (2, 2), (3, 1)):
        assert observed[(p, e + 1)] >= p * observed[(p, e)]
    assert time.monotonic() - started < 120


def test_c06_coefficient_witness():
    for p, e in ((7, 1), (2, 2), (3, 2)):
        assert coefficient_witness(pair(), p, e).match

    rng = random.Random(1729)
    cases = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))
    successes = 0
    attempts = 0
    while successes < 50:
        attempts += 1
        assert attempts <= 600
        m = rng.randint(1, 3)
        generators = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                while True:
                    vector = tuple(rng.randint(0, 4) for _ in range(m))
                    if 1 <= sum(vector) <= 4:
                        break
                coeff = Fraction(rng.randint(1, 4))
                terms[vector] = terms.get(vector, Fraction(0)) + coeff
            generators.append(Polynomial(QQ, m, terms))
        p, e = rng.choice(cases)
        try:
            report = coefficient_witness(generators, p, e)
        except (NonUniqueMaximalPoint, InputError):
            continue
        assert report.match
        successes += 1


def fermat_pair(a, b, c):
    return gens(
        "x1^%d+x2^%d+x3^%d" % (a, b, c),
        "x4^%d+x5^%d+x6^%d" % (a, b, c),
        variables=("x1", "x2", "x3", "x4", "x5", "x6"),
    )


def test_c07_classifier_and_prime_checks():
    above = lct_fpt_classifier(fermat_pair(2, 3, 4))
    assert above.case == CASE_DIAGONAL_ABOVE_T
    assert above.value == 2
    for p in (5, 7, 11):
        assert verify_prime(fermat_pair(2, 3, 4), p, above).holds
    # cross-check at a verified prime: the certificate reaches t exactly
    assert fpt_bound(fermat_pair(2, 3, 4), 5).value == 2

    at_most = lct_fpt_classifier(fermat_pair(2, 3, 7))
    assert at_most.case == CASE_DIAGONAL_AT_MOST_T
    assert at_most.value == Fraction(41, 21)
    assert verify_prime(fermat_pair(2, 3, 7), 43, at_most).holds
    cert = fpt_bound(fermat_pair(2, 3, 7), 43)
    assert cert.kind == KIND_EXACT
    assert cert.value == Fraction(41, 21)

    curve = lct_fpt_classifier(gens("x^2-y^3", "z^4-x^3"))
    assert curve.case == CASE_DIAGONAL_AT_MOST_T
    assert curve.value == Fraction(13, 12)


def test_c08_volume_bounds_cli(capsys):
    for p, bound in ((7, Fraction(2, 9)), (2, Fraction(1, 6)), (3, Fraction(1, 9))):
        code, payload = run_json(
            capsys, "fvol-bound", *PAIR_ARGS, "--p", str(p)
        )
        assert code == 0
        assert Fraction(payload["result"]["bound"]) == bound
    # p = 2 mod 3: the general closed form is 2/9 - 1/(9p)
    code, payload = run_json(capsys, "fvol-bound", *PAIR_ARGS, "--p", "5")
    assert code == 0
    assert Fraction(payload["result"]["bound"]) == Fraction(2, 9) - Fraction(1, 45)
    code, payload = run_json(
        capsys, "fvol-bound", "--vars", "x,y", "--gens", "x,x+y^2", "--p", "2"
    )
    assert code == 0
    assert Fraction(payload["result"]["bound"]) == Fraction(1, 2)


def test_c09_volume_oracle():
    started = time.monotonic()
    ideals = [
        [reduce_mod_p(g, 2)]
        for g in gens("x", "x+y^2", variables=("x", "y"))
    ]
    assert fvolume_count(ideals, 1) == 3
    rows = fvolume_estimate(ideals, 2, 6)
    for _, _, ratio in rows:
        assert Fraction(1, 2) <= ratio <= 1
    final = rows[-1][2]
    assert abs(final - Fraction(3, 4)) <= Fraction(1, 20)
    assert time.monotonic() - started < 300


def test_c10_lucas_equivalence():
    rng = random.Random(300)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(300):
        length = rng.randint(1, 4)
        vector = []
        for _ in range(length):
            den = rng.randint(1, 30)
            vector.append(Fraction(rng.randint(1, den), den))
        p = rng.choice(primes)
        e = rng.randint(1, 8)
        while p**e > 10**4:
            e -= 1
        q = p**e
        parts = [math.ceil(a * q) - 1 for a in vector]

        multi = 1
        running = 0
        for part in parts:
            running += part
            multi = multi * math.comb(running, part) % p
        exact_nonzero = multi != 0

        lucas = _lucas(parts, p) is not None

        carry_free = all(
            sum(digit_at(a, p, k) for a in vector) <= p - 1
            for k in range(1, e + 1)
        )
        assert exact_nonzero == lucas == carry_free


def test_readme_library_example():
    # the Python example of the README's Library section runs as printed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "nu(" in example
    exec(compile(example, "README.md", "exec"), {})


def test_readme_command_line_examples(capsys):
    # each `$ fptcert ...` example of the README's Command line section
    # prints the result shown under it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n### ", 1)[0]
    examples = re.findall(r"^\$ fptcert ([^\n]*)\n(.*?)(?=^\$|^```)", section,
                          re.M | re.S)
    assert [line.split()[0] for line, _ in examples] == [
        "fpt-bound", "nu", "carry", "fvol-count"]
    for line, shown in examples:
        start = shown.index('"result": ') + len('"result": ')
        expected, _ = json.JSONDecoder().raw_decode(shown, start)
        code, payload = run_json(capsys, *shlex.split(line))
        assert code == 0, line
        assert payload["result"] == expected, line
