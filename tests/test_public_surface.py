"""The package's public surface is a reviewed list: ``fptcert.__all__``
equals the names below, which the README's Library section lists too."""

import re
from pathlib import Path

import fptcert

README = Path(__file__).resolve().parents[1] / "README.md"

SURFACE = [
    "BudgetExceeded", "Budgets", "CarryHorizon", "DenominatorDivisibleByP", "DigitStream",
    "DimensionTooLarge", "EmptyBlock", "ExponentMatrix", "FVolumeCertificate",
    "FptCertificate", "FptcertError", "HypothesisError", "INFINITY", "InputError",
    "IntegersMod", "LctVerdict", "LpUnbounded", "MaximalPointCert", "Meter",
    "NonUniqueMaximalPoint", "NotInMaximalIdeal", "ParseError", "Polynomial", "PrimeCheck",
    "QQ", "Rationals", "ReducedMapping", "RingMismatch", "WitnessReport", "__version__",
    "adds_without_carrying", "carry_horizon", "coefficient_witness", "digit_at", "digits",
    "exponent_matrix", "fpt_bound", "fpt_estimate", "fvolume_count", "fvolume_estimate",
    "fvolume_lower_bound", "fvolume_points", "in_P_rho_0", "in_P_rho_inf", "is_prime",
    "lct_fpt_classifier", "maximal_point", "newton_polyhedron_preserved", "nu",
    "parse_polynomial", "reduce_generators", "reduce_mod_p", "truncation", "verify_prime",
    "vertices", "witness_floor",
]


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's exports changes this list
    assert sorted(fptcert.__all__) == SURFACE
    assert all(hasattr(fptcert, name) for name in SURFACE)


def test_readme_lists_the_public_surface():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"The supported surface is `fptcert.__all__`.*?```text\n(.*?)```",
                      text, re.S)
    assert block is not None
    assert block.group(1).split() == SURFACE
