"""Exact budget edges of the metered oracles.

Every product inside a Frobenius box is charged len(a) * len(b) term
operations of its truncated operands before it is formed.  The escape
search charges one multiset for every point it accepts from the level
below and, for every other point, one for each grown vector of a member
parent it tries and, in the walk after them, one for each exponent
vector it tries in full and each prefix it cuts off at an empty
product.  So a fixed input spends a fixed total: a cap equal to that
total lets the call finish and a cap one below it stops the call.
"""

import pytest

from fptcert.budgets import Budgets
from fptcert.errors import BudgetExceeded
from fptcert.fvolume import fvolume_count
from fptcert.polyring import parse_polynomial, reduce_mod_p
from fptcert.thresholds import coefficient_witness, nu

XYZ = ("x", "y", "z")
PAIR = [parse_polynomial(s, XYZ) for s in ("x^2+x*y^2", "y*z^3")]
FP_PAIR = [reduce_mod_p(g, 2) for g in PAIR]
LINE_PARABOLA = [
    [reduce_mod_p(parse_polynomial(s, ("x", "y")), 2)] for s in ("x", "x+y^2")
]

CALLS = {
    "nu": (lambda budgets: nu(FP_PAIR, 2, budgets), 2),
    "fvolume_count": (lambda budgets: fvolume_count(LINE_PARABOLA, 2, budgets), 12),
    "coefficient_witness": (
        lambda budgets: coefficient_witness(PAIR, 7, 1, budgets).actual,
        6,
    ),
}

# (call, budget field, earlier cap, exact total). The earlier cap is
# the total the call spent when products were charged on whole
# polynomials; a budget that let the call finish then must still let it
# finish. The exact total is what the call spends now.
EDGES = [
    ("nu", "max_terms", 38, 2),
    ("nu", "max_multisets", 9, 9),
    ("fvolume_count", "max_terms", 86, 19),
    ("fvolume_count", "max_multisets", 25, 23),
    ("coefficient_witness", "max_terms", 30, 21),
]


@pytest.mark.parametrize(
    "name,field,cap,total",
    EDGES,
    ids=[f"{name}-{field}-{cap}" for name, field, cap, _ in EDGES],
)
def test_budget_edge(name, field, cap, total):
    call, expected = CALLS[name]
    assert call(Budgets(**{field: cap})) == expected
    assert call(Budgets(**{field: total})) == expected
    with pytest.raises(BudgetExceeded):
        call(Budgets(**{field: total - 1}))


def test_coefficient_witness_charges_no_multisets():
    call, expected = CALLS["coefficient_witness"]
    assert call(Budgets(max_multisets=0)) == expected
