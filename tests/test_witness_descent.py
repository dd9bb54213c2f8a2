"""The witness's Frobenius descent against the repeated squaring it
replaced.

``coefficient_witness`` once powered each generator by repeated squaring
inside one ``_Box`` below the target; that expansion is kept below as
the reference.  On seeded generator tuples over QQ, at every e the
reference finishes under its own term cap, the descent must read the
same coefficient under the default budgets, and both must refuse the
same inputs with the same error.
"""

import functools
import random
import time
import tracemalloc
from fractions import Fraction

from fptcert.basep import truncation
from fptcert.budgets import Budgets, Meter
from fptcert.errors import BudgetExceeded, FptcertError
from fptcert.polyring import QQ, Polynomial, _Box, parse_polynomial
from fptcert.thresholds import _unique_rho, coefficient_witness

PRIMES = (2, 3, 5, 7, 11)
CASES = 1000
E_MAX = 12
# The reference's term cap: each tuple's e ladder stops at the first e
# the reference cannot finish under it.  It is below the default cap, so
# every e compared is one the reference answers under the default budgets.
REFERENCE_TERMS = 20000

# --- reference: repeated squaring in one box below the target ------------


def _power(base, n, mul, one):
    """base**n by repeated squaring, every product formed by ``mul``."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def reference_actual(generators, p, e, budgets):
    """The coefficient of the escaping monomial, as the witness expanded it
    before the descent."""
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
    # Only terms below the target can reach it in a product.
    box = _Box([x + 1 for x in target], p)
    mul = functools.partial(meter.mul, box)
    product = {0: 1}
    for g, q_i in zip(mapping.original_generators, exponents):
        product = mul(product, _power(box.pack(g), q_i, mul, {0: 1}))
    return product.get(box.key(target), 0)


# --- seeded tuples ---------------------------------------------------------


def _random_generator(rng, m):
    """1-4 terms of degree 1-4 in m variables; now and then a constant term
    or a coefficient with denominator 2, so that some tuples are refused."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        monomial = tuple(rng.randint(0, 3) for _ in range(m))
        if sum(monomial) <= 4 and (any(monomial) or rng.random() < 0.02):
            coeff = Fraction(rng.choice((1, -1, 2, 3)), 2 if rng.random() < 0.03 else 1)
            terms[monomial] = terms.get(monomial, 0) + coeff
    if not any(map(any, terms)):
        terms[tuple(int(i == 0) for i in range(m))] = 1
    return Polynomial(QQ, m, terms)


def _random_tuple(rng):
    m = rng.randint(1, 3)
    generators = [_random_generator(rng, m) for _ in range(rng.randint(1, 3))]
    return generators, rng.choice(PRIMES)


def _outcome(call):
    """call()'s value, or the type and message of the error it raises; a
    BudgetExceeded propagates."""
    try:
        return call()
    except BudgetExceeded:
        raise
    except FptcertError as exc:
        return type(exc), str(exc)


def test_descent_matches_repeated_squaring():
    rng = random.Random(20261019)
    reference_budgets = Budgets(max_terms=REFERENCE_TERMS)
    compared = refused = 0
    for _ in range(CASES):
        generators, p = _random_tuple(rng)
        for e in range(1, E_MAX + 1):
            try:
                expected = _outcome(
                    lambda: reference_actual(generators, p, e, reference_budgets)
                )
            except BudgetExceeded:
                break
            actual = _outcome(lambda: coefficient_witness(generators, p, e).actual)
            assert actual == expected, (generators, p, e)
            if isinstance(expected, tuple):
                refused += 1
                break
            compared += 1
    # the sample reaches both answers and refusals, at depth
    assert compared >= 2000
    assert refused >= 100


def _deep(generators, variables, p, e):
    polys = [parse_polynomial(g, variables) for g in generators]
    tracemalloc.start()
    started = time.perf_counter()
    try:
        report = coefficient_witness(polys, p, e)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, seconds, peak


def test_witness_at_e1000_x2_y3_p2():
    report, seconds, peak = _deep(["x^2+y^3"], ("x", "y"), 2, 1000)
    assert (report.expected, report.actual, report.match) == (0, 0, True)
    assert peak < 10**6
    assert seconds < 10


def test_witness_at_e1000_readme_pair_p7():
    report, seconds, peak = _deep(["x^2+x*y^2", "y*z^3"], ("x", "y", "z"), 7, 1000)
    assert (report.expected, report.actual, report.match) == (1, 1, True)
    assert peak < 10**6
    assert seconds < 10
