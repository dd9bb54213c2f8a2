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

from .basep import INFINITY
from .errors import InputError
from .geometry import exponent_matrix, reduce_generators, vertices
from .thresholds import (
    _block_floors,
    _escape_set,
    _escape_sets,
    _to_fp_generators,
    fpt_bound,
)


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
        return {
            "p": self.p,
            "bound": str(self.bound),
            "counts": [[e, card, str(ratio)] for e, card, ratio in self.counts],
        }


def fvolume_lower_bound(generators, p, meter=None):
    """Lower bound for the volume of the tuple of principal ideals
    (f_1), ..., (f_t): the product over blocks of |rho_i| when the
    block adds without carrying, and |<rho_i>_{S_i}| + p**-S_i at a
    finite carry horizon S_i.  These are the block floors at level
    INFINITY whose sum is the threshold bound of ``fpt_bound``, whose
    carry searches are charged to ``meter``."""
    cert = fpt_bound(generators, p, meter)
    return FVolumeCertificate(
        p=p,
        bound=math.prod(_block_floors(p, cert.rho_blocks, cert.horizons, INFINITY)),
        rho_blocks=cert.rho_blocks,
        horizons=cert.horizons,
        finite_indices=cert.finite_indices,
        counts=(),
    )


def fvolume_points(ideals, e, budgets=None):
    """The escape set V(p^e) itself, sorted: all (n_1, ..., n_t) with
    a_1**n_1 ... a_t**n_t not inside the e-th Frobenius power of the
    maximal ideal.  Read off the last level of the climb shared with nu
    (thresholds._escape_sets), which asserts that every level is
    downward closed, as the containment order forces.
    """
    return sorted(_escape_set(ideals, e, budgets))


def fvolume_count(ideals, e, budgets=None):
    """Card V(p^e); see fvolume_points."""
    return len(fvolume_points(ideals, e, budgets))


def volume_witness_floor(certificate, scan_level):
    """Per-level floor certified by the digit construction behind the
    bound: Card V(p**E) >= p**(E t) * volume_witness_floor(cert, E).

    Per block the factor is |<rho_i>_E| while still carry-free at E,
    and |<rho_i>_{S_i}| + (p**(E - S_i) - 1) / p**E past a finite
    horizon; the box below the witness tuple lies inside V(p**E) by
    downward closure.
    """
    return math.prod(
        _block_floors(
            certificate.p, certificate.rho_blocks, certificate.horizons, scan_level
        )
    )


def fvolume_estimate(ideals, p, e_max, budgets=None):
    """Rows (e, Card V(p^e), Card V(p^e) / p**(e t)) for e = 1..e_max,
    all read from one climb (thresholds._escape_sets) and one meter.
    Rational generators are reduced mod p first."""
    if not isinstance(e_max, int) or e_max < 1:
        raise InputError("e_max must be a positive integer")
    fp_ideals = [_to_fp_generators(gens, p) for gens in ideals]
    t = len(fp_ideals)
    levels = enumerate(_escape_sets(fp_ideals, e_max, budgets), 1)
    return [(e, len(v), Fraction(len(v), p ** (e * t))) for e, v in levels]


def term_ideal_volume_bound(generators, budgets=None):
    """Candidate bound for the volume of the tuple of term ideals
    spanned by the blocks: the best product of block sums over the
    polytope vertices, which include a unique maximal point.  The true value
    maximizes the product over the whole polytope, so this is a lower
    bound certified only at the evaluated points.

    Returns (bound, witness point).
    """
    generators = tuple(generators)
    mapping = reduce_generators(generators)
    matrix = exponent_matrix(mapping)
    best = None
    witness = None
    for point in vertices(matrix, budgets):
        value = math.prod(sum(block) for block in matrix.split(point))
        if best is None or value > best:
            best = value
            witness = point
    return best, witness
