"""Exact simplex over the rationals, one phase from the feasible origin.

Solves max c.x subject to A x <= b, x >= 0, b >= 0, on a fraction-free
dictionary: int rows over one common denominator, the basis determinant
(integer-preserving elimination, Bareiss 1968).  Bland's rule is used
for both the entering and the leaving variable, so the method terminates
on degenerate problems.  The returned point is always a vertex (basic
feasible solution).
"""

import math
from fractions import Fraction

from .errors import FptcertError, InputError


class LpUnbounded(FptcertError):
    """The objective is unbounded above on the feasible region."""


class _Dictionary:
    """Simplex dictionary: d * basic[i] = rows[i][0] + sum_j rows[i][1+j]
    * x_{nonbasic[j]} in ints, d = |det B| > 0 for the basis B, and the
    objective row z of the same shape over scale * d, scale the lcm of
    the objective's denominators.  Each row of A x <= b is scaled to ints
    by the lcm k of its denominators, so its slack id stands for k times
    the slack, k = units[id] (1 for the x ids).  Fractions are built only
    for the values, duals and optima read off the dictionary."""

    def __init__(self, nonbasic, basic, rows, d=1, z=None, scale=1, units=None):
        self.nonbasic = nonbasic
        self.basic = basic
        self.rows = rows
        self.d = d
        self.z = z if z is not None else [0] * (1 + len(nonbasic))
        self.scale = scale
        self.units = units or {}

    @property
    def optimum(self):
        """The objective value at the basic solution."""
        return Fraction(self.z[0], self.scale * self.d)

    def pivot(self, row_index, col_index):
        # The entering variable through the leaving one, over the new
        # denominator |a|: from d x_l = r0 + a x_e + sum_j r_j x_j,
        # |a| x_e = sign(a) (d x_l - r0 - sum_j r_j x_j).  Every other row
        # becomes (|a| t + t_c new) / d off the pivot column, an exact
        # division since each entry is an integer over |det B|.
        d, rows = self.d, self.rows
        a = rows[row_index][1 + col_index]
        new = list(rows[row_index]) if a < 0 else [-v for v in rows[row_index]]
        new[1 + col_index] = -d if a < 0 else d
        for i, target in enumerate(rows):
            rows[i] = new if i == row_index else _eliminate(target, new, col_index, d, abs(a))
        if any(self.z):  # a zero objective row stays zero
            self.z = _eliminate(self.z, new, col_index, d, abs(a))
        self.d = abs(a)
        self.basic[row_index], self.nonbasic[col_index] = (
            self.nonbasic[col_index],
            self.basic[row_index],
        )

    def optimize(self):
        while True:
            z = self.z
            entering = [(vid, q) for q, vid in enumerate(self.nonbasic) if z[1 + q] > 0]
            if not entering:
                return
            enter = min(entering)[1]
            tied = _tied([row[0] for row in self.rows], [row[1 + enter] for row in self.rows])
            if not tied:
                raise LpUnbounded("objective is unbounded")
            self.pivot(min(tied, key=self.basic.__getitem__), enter)

    def maximize(self, c):
        """Optimize sum c[v] x_v (c: variable id -> int or Fraction
        coefficient; a dropped column counts as 0) from the current
        feasible basis, and return the optimum."""
        column = {vid: j for j, vid in enumerate(self.nonbasic)}
        row_of = dict(zip(self.basic, self.rows))
        self.scale = scale = math.lcm(*(v.denominator for v in c.values()))
        self.z = z = [0] * (1 + len(self.nonbasic))
        for vid, coeff in c.items():
            k = coeff.numerator * (scale // coeff.denominator)
            if vid in column:
                z[1 + column[vid]] += k * self.d
            elif k and vid in row_of:
                for j, a in enumerate(row_of[vid]):
                    z[j] += k * a
        self.optimize()
        return self.optimum

    def restrict(self, keep):
        """Fix the nonbasic variables outside ``keep`` at 0 (drop them)."""
        cols = [0] + [1 + j for j, vid in enumerate(self.nonbasic) if vid in keep]
        self.nonbasic = [self.nonbasic[j - 1] for j in cols[1:]]
        self.rows = [[row[j] for j in cols] for row in self.rows]
        self.z = [self.z[j] for j in cols]

    def copy(self):
        # pivot, maximize and restrict build new row lists and a new z rather
        # than edit them: share them
        return _Dictionary(list(self.nonbasic), list(self.basic), list(self.rows), self.d,
                           self.z, self.scale, self.units)

    def values(self, vids):
        """Values of the given variables at the basic solution."""
        at = {vid: row[0] for vid, row in zip(self.basic, self.rows)}
        return [Fraction(at.get(vid, 0), self.d * self.units.get(vid, 1)) for vid in vids]

    def duals(self, vids):
        """Negated reduced costs (0 when basic); on slacks, the row duals."""
        cost = dict(zip(self.nonbasic, self.z[1:]))
        unit = self.scale * self.d
        return [Fraction(-cost.get(vid, 0) * self.units.get(vid, 1), unit) for vid in vids]


def _tied(rhs, column):
    """The rows tied at the least ratio rhs[i] / -column[i], column[i] < 0."""
    tied, b, a = [], 1, 0  # the least ratio so far is b / -a (none: 1 / 0)
    for i, entry in enumerate(column):
        if entry < 0:
            gap = b * entry - rhs[i] * a
            if gap < 0:
                tied, b, a = [i], rhs[i], entry
            elif gap == 0:
                tied.append(i)
    return tied


def _eliminate(target, new, col, d, pivot_d):
    """Row ``target`` after a pivot on column ``col`` gave row ``new``."""
    f = target[1 + col]
    if f == 0:
        return target if pivot_d == d else [pivot_d * v // d for v in target]
    out = [(pivot_d * v + f * w) // d for v, w in zip(target, new)]
    out[1 + col] = f * new[1 + col] // d
    return out


def _rational(v):
    """An LP entry, which must be an int (not a bool) or a Fraction."""
    if type(v) is int or isinstance(v, Fraction):
        return v
    raise InputError("LP entries must be ints or Fractions, got %r" % (v,))


def _optimal_dictionary(objective, lhs, rhs):
    """Optimal dictionary of max objective.x subject to lhs x <= rhs,
    x >= 0, for rhs >= 0, so that the slack basis at the origin is
    feasible.  Variable ids 0..n-1 are x and n..n+m-1 the row slacks."""
    n = len(objective)
    c = [_rational(v) for v in objective]
    if len(rhs) != len(lhs) or any(len(row) != n for row in lhs):
        raise FptcertError("constraint rows do not match the objective and right-hand side")
    rows, units = [], {}
    for i, (row, b) in enumerate(zip(lhs, rhs)):
        entries = [_rational(b)] + [-_rational(v) for v in row]
        units[n + i] = k = math.lcm(*(v.denominator for v in entries))
        rows.append([v.numerator * (k // v.denominator) for v in entries])
    if any(row[0] < 0 for row in rows):
        raise FptcertError("a negative right-hand side leaves the origin infeasible")
    dictionary = _Dictionary(list(range(n)), list(range(n, n + len(rows))), rows, units=units)
    dictionary.maximize(dict(enumerate(c)))
    return dictionary
