"""Exact two-phase simplex over the rationals.

Solves max c.x subject to A x <= b, x >= 0 with Fraction arithmetic
throughout.  Bland's rule is used for both the entering and the leaving
variable, so the method terminates on degenerate problems.  The
returned point is always a vertex (basic feasible solution).
"""

from fractions import Fraction

from .errors import FptcertError


class LpInfeasible(FptcertError):
    """The constraint system has no nonnegative solution."""


class LpUnbounded(FptcertError):
    """The objective is unbounded above on the feasible region."""


class _Dictionary:
    """Simplex dictionary: basic[i] = rows[i][0] + sum_j rows[i][1+j] *
    x_{nonbasic[j]}, plus an objective row of the same shape."""

    def __init__(self, nonbasic, basic, rows, obj):
        self.nonbasic = nonbasic
        self.basic = basic
        self.rows = rows
        self.obj = obj

    def pivot(self, row_index, col_index):
        row = self.rows[row_index]
        a = row[1 + col_index]
        # Express the entering variable through the leaving one:
        # x_l = c0 + a x_e + sum_j a_j x_j  implies
        # x_e = -c0/a + (1/a) x_l + sum_j (-a_j/a) x_j.
        width = len(row)
        new = [Fraction(0)] * width
        new[0] = -row[0] / a
        for j in range(width - 1):
            if j == col_index:
                new[1 + j] = Fraction(1) / a
            else:
                new[1 + j] = -row[1 + j] / a
        self.rows[row_index] = new
        self.basic[row_index], self.nonbasic[col_index] = (
            self.nonbasic[col_index],
            self.basic[row_index],
        )
        for target in self.rows + [self.obj]:
            if target is new:
                continue
            coef = target[1 + col_index]
            if coef == 0:
                continue
            target[1 + col_index] = Fraction(0)
            target[0] += coef * new[0]
            for j in range(width - 1):
                target[1 + j] += coef * new[1 + j]

    def optimize(self):
        while True:
            enter = None
            for pos in sorted(range(len(self.nonbasic)), key=lambda q: self.nonbasic[q]):
                if self.obj[1 + pos] > 0:
                    enter = pos
                    break
            if enter is None:
                return
            best = None  # (limit, basic id, row index)
            for i, row in enumerate(self.rows):
                a = row[1 + enter]
                if a < 0:
                    limit = -row[0] / a
                    key = (limit, self.basic[i])
                    if best is None or key < (best[0], best[1]):
                        best = (limit, self.basic[i], i)
            if best is None:
                raise LpUnbounded("objective is unbounded")
            self.pivot(best[2], enter)

    def maximize(self, c):
        """Optimize sum c[v] x_v (c: variable id -> coefficient; a dropped
        column counts as 0) from the current feasible basis."""
        column = {vid: j for j, vid in enumerate(self.nonbasic)}
        row_of = dict(zip(self.basic, self.rows))
        self.obj = obj = [Fraction(0)] * (1 + len(self.nonbasic))
        for vid, coeff in c.items():
            if vid in column:
                obj[1 + column[vid]] += coeff
            elif coeff and vid in row_of:
                for j, a in enumerate(row_of[vid]):
                    obj[j] += coeff * a
        self.optimize()
        return self.obj[0]

    def restrict(self, keep):
        """Fix the nonbasic variables outside ``keep`` at 0 (drop them)."""
        cols = [j for j, vid in enumerate(self.nonbasic) if vid in keep]
        self.nonbasic = [self.nonbasic[j] for j in cols]
        self.rows = [[row[0]] + [row[1 + j] for j in cols] for row in self.rows]
        self.obj = [self.obj[0]] + [self.obj[1 + j] for j in cols]

    def copy(self):
        return _Dictionary(
            list(self.nonbasic), list(self.basic), [list(r) for r in self.rows], list(self.obj)
        )

    def values(self, vids):
        """Values of the given variables at the basic solution."""
        at = {vid: row[0] for vid, row in zip(self.basic, self.rows)}
        return [at.get(vid, Fraction(0)) for vid in vids]

    def duals(self, vids):
        """Negated reduced costs (0 when basic); on slacks, the row duals."""
        cost = dict(zip(self.nonbasic, self.obj[1:]))
        return [-cost.get(vid, Fraction(0)) for vid in vids]


def solve_lp(objective, lhs, rhs):
    """Maximize objective.x subject to lhs x <= rhs, x >= 0.

    Returns (optimal value, x) as Fractions.  Raises LpInfeasible or
    LpUnbounded when appropriate.
    """
    dictionary = _optimal_dictionary(objective, lhs, rhs)
    return dictionary.obj[0], dictionary.values(range(len(objective)))


def _optimal_dictionary(objective, lhs, rhs):
    """Optimal dictionary of max objective.x subject to lhs x <= rhs,
    x >= 0.  Variable ids 0..n-1 are x and n..n+m-1 the row slacks."""
    n = len(objective)
    m = len(lhs)
    c = [Fraction(v) for v in objective]
    A = [[Fraction(v) for v in row] for row in lhs]
    if any(len(row) != n for row in A):
        raise FptcertError("constraint row width does not match the objective")
    b = [Fraction(v) for v in rhs]

    nonbasic = list(range(n))
    basic = list(range(n, n + m))
    rows = [[b[i]] + [-A[i][j] for j in range(n)] for i in range(m)]

    if any(v < 0 for v in b):
        _phase_one(nonbasic, basic, rows, n, m)

    dictionary = _Dictionary(nonbasic, basic, rows, None)
    dictionary.maximize(dict(enumerate(c)))
    return dictionary


def _phase_one(nonbasic, basic, rows, n, m):
    """Make the dictionary feasible with one auxiliary variable, or
    raise LpInfeasible."""
    aux = n + m
    nonbasic.append(aux)
    for row in rows:
        row.append(Fraction(1))
    dictionary = _Dictionary(nonbasic, basic, rows, [Fraction(0)] * (1 + len(nonbasic)))
    worst = min(range(m), key=lambda i: (rows[i][0], basic[i]))
    dictionary.pivot(worst, len(nonbasic) - 1)
    if dictionary.maximize({aux: -1}) != 0:
        raise LpInfeasible("constraints admit no nonnegative solution")

    if aux in basic:
        # Degenerate optimum: drive the auxiliary variable out.
        r = basic.index(aux)
        row = rows[r]
        col = None
        for pos in sorted(range(len(nonbasic)), key=lambda q: nonbasic[q]):
            if row[1 + pos] != 0:
                col = pos
                break
        if col is None:
            del rows[r]
            del basic[r]
        else:
            dictionary.pivot(r, col)

    drop = nonbasic.index(aux)
    del nonbasic[drop]
    for row in rows:
        del row[1 + drop]
