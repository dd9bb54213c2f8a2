"""Exact budget edges of the metered oracles.

Every product inside a Frobenius box is charged len(a) * len(b) term
operations of its truncated operands before it is formed.  The escape
search charges one multiset for every point it accepts from the level
below.  Where every ideal is principal it then charges one for each
probe of the bisection of a column height; otherwise, for every point
it climbs to above those, one for each grown vector of a parent it
tries and, in the walk after them, one for each exponent vector it
tries in full and each prefix it cuts off at an empty product.  So a
fixed input spends a fixed total: a cap equal to that total lets the
call finish and a cap one below it stops the call.
"""

from dataclasses import fields
from pathlib import Path

import pytest

from fptcert import cli
from fptcert.budgets import Budgets, Meter
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
    ("nu", "max_multisets", 9, 3),
    ("fvolume_count", "max_terms", 86, 13),
    ("fvolume_count", "max_multisets", 25, 13),
    ("coefficient_witness", "max_terms", 30, 23),
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


@pytest.mark.parametrize("field", [field.name for field in fields(Budgets)])
def test_each_budget_is_named_by_its_field(field):
    """A budget field max_x is read from FPTCERT_MAX_X, taken by every
    subcommand as --max-x, and named both ways in README's table."""
    variable, flag = "FPTCERT_" + field.upper(), "--" + field.replace("_", "-")
    budgets = Budgets.from_env({variable: "7"})
    assert budgets == Budgets(**{field: 7})
    parser = cli._build_parser()
    for command in cli._COMMANDS:
        assert getattr(parser.parse_args([command, flag, "7"]), field) == 7
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert any(
        line.startswith("|") and "`%s`" % flag in line and "`%s`" % variable in line
        for line in readme.splitlines()
    )


@pytest.mark.parametrize("spent", [0, 3, 10])
def test_a_charge_past_the_cap_reads_one_past_it(spent):
    """Within the cap a charge adds exactly its count; past it the
    meter reads and refuses cap + 1, however large the count."""
    meter = Meter(Budgets(max_multisets=10))
    meter.charge_multisets(spent)
    meter.charge_multisets(0)
    assert meter.multisets == spent
    if spent < 10:
        meter.charge_multisets(10 - spent)
        assert meter.multisets == 10
    for count in (1, 2, 10**30):
        with pytest.raises(BudgetExceeded, match=r"^multiset budget exhausted \(11 > 10\)$"):
            meter.charge_multisets(count)
        assert meter.multisets == 11
    fresh = Meter(Budgets(max_multisets=10))
    with pytest.raises(BudgetExceeded, match=r"\(11 > 10\)"):
        fresh.charge_multisets(10**30 + spent)
    assert fresh.multisets == 11
