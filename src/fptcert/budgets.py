"""Work budgets for the brute-force oracles and enumerations.

The expensive operations (Frobenius-power membership scans, staircase
counts, vertex enumeration, the first-carry search) are metered.  Caps
can be raised or lowered per call, through the CLI, or through
environment variables:

    FPTCERT_MAX_MULTISETS   escape-search points and vectors tried / feasible
                            bases visited / residue classes for a first carry
    FPTCERT_MAX_TERMS       pairwise term multiplications performed
    FPTCERT_MAX_DIMENSION   polytope dimension accepted by vertex listing
"""

import os
from dataclasses import dataclass

from .errors import BudgetExceeded

ENV_MAX_MULTISETS = "FPTCERT_MAX_MULTISETS"
ENV_MAX_TERMS = "FPTCERT_MAX_TERMS"
ENV_MAX_DIMENSION = "FPTCERT_MAX_DIMENSION"


@dataclass(frozen=True)
class Budgets:
    max_multisets: int = 10**6
    max_terms: int = 10**7
    max_dimension: int = 12

    @classmethod
    def from_env(cls, environ=None):
        """Defaults overridden by the FPTCERT_MAX_* environment variables."""
        environ = os.environ if environ is None else environ

        def pick(name, fallback):
            raw = environ.get(name)
            if raw is None or raw == "":
                return fallback
            try:
                value = int(raw)
            except ValueError:
                raise BudgetExceeded(
                    "environment variable %s=%r is not an integer" % (name, raw)
                )
            if value <= 0:
                raise BudgetExceeded("environment variable %s must be positive" % name)
            return value

        return cls(
            max_multisets=pick(ENV_MAX_MULTISETS, cls.max_multisets),
            max_terms=pick(ENV_MAX_TERMS, cls.max_terms),
            max_dimension=pick(ENV_MAX_DIMENSION, cls.max_dimension),
        )


class Meter:
    """Running counters charged against a Budgets instance."""

    def __init__(self, budgets=None):
        self.budgets = budgets if budgets is not None else Budgets.from_env()
        self.multisets = 0
        self.term_ops = 0

    def charge_multisets(self):
        self.multisets += 1
        if self.multisets > self.budgets.max_multisets:
            raise BudgetExceeded(
                "multiset budget exhausted (%d > %d)"
                % (self.multisets, self.budgets.max_multisets)
            )

    def charge_terms(self, n):
        self.term_ops += n
        if self.term_ops > self.budgets.max_terms:
            raise BudgetExceeded(
                "term-operation budget exhausted (%d > %d)"
                % (self.term_ops, self.budgets.max_terms)
            )

    def mul(self, box, a, b):
        """The truncated product box.mul(a, b) of two packed
        polynomials (``polyring._Box``), charged as len(a) * len(b)
        term operations before it is formed."""
        self.charge_terms(len(a) * len(b))
        return box.mul(a, b)
