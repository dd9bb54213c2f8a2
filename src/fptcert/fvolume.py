"""Volume-type invariants for tuples of ideals in prime characteristic.

For ideals a_1, ..., a_t inside the maximal ideal, the escape set
V(p^e) collects the exponent tuples (n_1, ..., n_t) with
a_1**n_1 ... a_t**n_t not inside (x_1**q, ..., x_m**q), q = p**e.  Its
normalized count Card V(p^e) / p**(e t) converges; the limit admits a
certified lower bound built from the same digit data as the threshold
certificate, and a brute-force counter provides the oracle.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .thresholds import _escape_set, _json_fields, _ladder, fpt_bound


@dataclass(frozen=True)
class FVolumeCertificate:
    """Certified lower bound for the limiting normalized count, with
    optional brute-force counts at small e for comparison."""

    p: int
    bound: Fraction
    rho_blocks: tuple
    horizons: tuple
    finite_indices: tuple
    counts: tuple  # rows (e, card, normalized) or empty

    def to_json_dict(self):
        return _json_fields(self, rho_blocks=None, horizons=None, finite_indices=None)


def fvolume_lower_bound(generators, p, meter=None):
    """Lower bound for the volume of the tuple of principal ideals
    (f_1), ..., (f_t): the product over blocks of |rho_i| when the
    block adds without carrying, and |<rho_i>_{S_i}| + p**-S_i at a
    finite carry horizon S_i.  These are the block floors that the
    certificate of ``fpt_bound`` carries and sums to its threshold bound;
    its carry searches are charged to ``meter``."""
    cert = fpt_bound(generators, p, meter)
    return FVolumeCertificate(
        p=p,
        bound=math.prod(cert.floors),
        rho_blocks=cert.rho_blocks,
        horizons=cert.horizons,
        finite_indices=cert.finite_indices,
        counts=(),
    )


def fvolume_points(ideals, e, budgets=None):
    """The escape set V(p^e) itself, sorted: all (n_1, ..., n_t) with
    a_1**n_1 ... a_t**n_t not inside the e-th Frobenius power of the
    maximal ideal.  Read off the column heights of the last level of the
    climb shared with nu (thresholds._escape_sets), each bounded by its
    neighbours, so every level is downward closed.
    """
    return sorted(_escape_set(ideals, e, budgets))


def fvolume_count(ideals, e, budgets=None):
    """Card V(p^e), the size of the set fvolume_points sorts."""
    return _escape_set(ideals, e, budgets).size


def fvolume_estimate(ideals, p, e_max, budgets=None):
    """Rows (e, Card V(p^e), Card V(p^e) / p**(e t)) for e = 1..e_max
    (thresholds._ladder)."""
    return [(e, n, Fraction(n, q)) for e, n, q in _ladder(ideals, p, e_max, budgets)]

