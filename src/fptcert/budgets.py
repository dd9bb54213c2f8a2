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

import functools
import os
import sys
from dataclasses import dataclass, fields

from .errors import BudgetExceeded


@dataclass(frozen=True)
class Budgets:
    max_multisets: int = 10**6
    max_terms: int = 10**7
    max_dimension: int = 12

    @classmethod
    def from_env(cls, environ=None):
        """Defaults overridden by the FPTCERT_<FIELD> environment variables.
        The texts are read on every call and parsed once per distinct tuple
        of them (``_parsed_env``), so a changed environment counts at once."""
        environ = os.environ if environ is None else environ
        return _parsed_env(cls, tuple(map(environ.get, _VARIABLES)))


_VARIABLES = tuple("FPTCERT_" + field.name.upper() for field in fields(Budgets))


@functools.lru_cache(maxsize=16)
def _parsed_env(cls, texts):
    """``cls`` with each field set from its FPTCERT_* text in ``texts``
    (None or "" keeps the default); a malformed text is refused on every
    call, as nothing is kept for it, and every call shares the instance."""
    values = {}
    for field, name, raw in zip(fields(cls), _VARIABLES, texts):
        if raw is None or raw == "":
            continue
        try:
            value = int(raw)
        except ValueError:
            raise BudgetExceeded(
                "environment variable %s=%r is not an integer" % (name, raw)
            )
        if value <= 0:
            raise BudgetExceeded("environment variable %s must be positive" % name)
        values[field.name] = value
    return cls(**values)


def _check_text_digits(*numbers, digits=0):
    """BudgetExceeded if an int in ``numbers``, or a number of ``digits``
    digits, is too long for str() to write: over sys.get_int_max_str_digits()
    digits (0, or no such function, is no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # |n| < 2**(3 limit) < 10**limit needs no power of ten
    if limit and (digits > limit or any(
            n.bit_length() > 3 * limit and abs(n) >= 10**limit for n in numbers)):
        raise BudgetExceeded("a result integer has more than %d digits, the "
                             "int-to-text limit (PYTHONINTMAXSTRDIGITS)" % limit)


class Meter:
    """Running counters charged against a Budgets instance."""

    def __init__(self, budgets=None):
        self.budgets = budgets if budgets is not None else Budgets.from_env()
        self.multisets = 0
        self.term_ops = 0

    def charge_multisets(self, count=1):
        """Add ``count``; a total past the cap reads, and is refused as, cap + 1."""
        cap = self.budgets.max_multisets
        self.multisets += count
        if self.multisets > cap:
            self.multisets = cap + 1
            _check_text_digits(cap + 1)
            raise BudgetExceeded("multiset budget exhausted (%d > %d)" % (cap + 1, cap))

    def charge_terms(self, n):
        self.term_ops += n
        if self.term_ops > self.budgets.max_terms:
            _check_text_digits(self.term_ops)
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
