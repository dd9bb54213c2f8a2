"""The fraction-free simplex dictionary against the Fraction dictionary
it replaced, kept here as the reference: the same pivots, optima,
values, duals, maximal-point decisions and vertex lists, and after every
pivot the Bareiss invariant d = |det B| that makes its divisions exact."""

import collections
import math
import random
from fractions import Fraction

import pytest

from fptcert import simplex
from fptcert.geometry import maximal_point, vertices
from fptcert.simplex import LpInfeasible, LpUnbounded, _optimal_dictionary

from test_geometry import _random_matrix
from test_simplex import _random_programs


# --- the reference: the Fraction dictionary, as it was ----------------------


class _FractionDictionary:
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
        cols = [j for j, vid in enumerate(self.nonbasic) if vid in keep]
        self.nonbasic = [self.nonbasic[j] for j in cols]
        self.rows = [[row[0]] + [row[1 + j] for j in cols] for row in self.rows]
        self.obj = [self.obj[0]] + [self.obj[1 + j] for j in cols]

    def copy(self):
        return _FractionDictionary(
            list(self.nonbasic), list(self.basic), [list(r) for r in self.rows], list(self.obj)
        )

    def values(self, vids):
        at = {vid: row[0] for vid, row in zip(self.basic, self.rows)}
        return [at.get(vid, Fraction(0)) for vid in vids]

    def duals(self, vids):
        cost = dict(zip(self.nonbasic, self.obj[1:]))
        return [-cost.get(vid, Fraction(0)) for vid in vids]


def _reference_optimal_dictionary(objective, lhs, rhs):
    n = len(objective)
    m = len(lhs)
    c = [Fraction(v) for v in objective]
    A = [[Fraction(v) for v in row] for row in lhs]
    b = [Fraction(v) for v in rhs]
    nonbasic = list(range(n))
    basic = list(range(n, n + m))
    rows = [[b[i]] + [-A[i][j] for j in range(n)] for i in range(m)]
    if any(v < 0 for v in b):
        _reference_phase_one(nonbasic, basic, rows, n, m)
    dictionary = _FractionDictionary(nonbasic, basic, rows, None)
    dictionary.maximize(dict(enumerate(c)))
    return dictionary


def _reference_phase_one(nonbasic, basic, rows, n, m):
    aux = n + m
    nonbasic.append(aux)
    for row in rows:
        row.append(Fraction(1))
    dictionary = _FractionDictionary(nonbasic, basic, rows, [Fraction(0)] * (1 + len(nonbasic)))
    worst = min(range(m), key=lambda i: (rows[i][0], basic[i]))
    dictionary.pivot(worst, len(nonbasic) - 1)
    if dictionary.maximize({aux: -1}) != 0:
        raise LpInfeasible("constraints admit no nonnegative solution")
    if aux in basic:
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


def _reference_maximal_point(matrix):
    """(M, rho, unique, coordinate_ranges, dual) as ``maximal_point``
    decided them on the Fraction dictionary."""
    N, rows = matrix.width, matrix.rows
    face = _reference_optimal_dictionary([1] * N, rows, [1] * len(rows))
    M = face.obj[0]
    point = tuple(face.values(range(N)))
    reduced = face.duals(range(N + len(rows)))
    face.restrict({v for v in face.nonbasic if reduced[v] == 0})
    unique = not face.nonbasic or face.maximize(dict.fromkeys(face.nonbasic, 1)) == 0
    if unique:
        ranges = tuple((v, v) for v in point)
    else:
        ranges = tuple((-face.maximize({j: -1}), face.maximize({j: 1})) for j in range(N))
    return M, point if unique else None, unique, ranges, tuple(reduced[N:])


def _reference_vertices(matrix):
    N = matrix.width
    start = _reference_optimal_dictionary([0] * N, matrix.rows, [1] * matrix.varcount)
    seen = {frozenset(start.basic)}
    queue = collections.deque([start])
    found = set()
    while queue:
        dictionary = queue.popleft()
        found.add(tuple(dictionary.values(range(N))))
        for col, entering in enumerate(dictionary.nonbasic):
            ratios = {
                i: -row[0] / row[1 + col]
                for i, row in enumerate(dictionary.rows)
                if row[1 + col] < 0
            }
            least = min(ratios.values(), default=None)
            for i, ratio in ratios.items():
                basis = frozenset(dictionary.basic) - {dictionary.basic[i]} | {entering}
                if ratio == least and basis not in seen:
                    seen.add(basis)
                    neighbour = dictionary.copy()
                    neighbour.pivot(i, col)
                    queue.append(neighbour)
    return sorted(found)


# --- recording pivots and checking the invariant -----------------------------


def _det(square):
    """Determinant of a small rational matrix by Gaussian elimination."""
    a = [[Fraction(v) for v in row] for row in square]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            factor = a[r][col] / a[col][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det


class _Recorder:
    """Patches ``pivot`` of the fraction-free and the reference
    dictionary to log (leaving id, entering id) per pivot.  After every
    fraction-free pivot it checks that the rows and the objective hold
    ints and that d = |det B|, B the basis columns of [A | -k | I] for
    the integer rows A and row scales k set in ``program`` (the -k
    column is the phase-one auxiliary variable)."""

    def __init__(self, monkeypatch):
        self.logs = {"new": [], "ref": []}
        self.program = None
        self.checked = 0
        for key, cls in (("new", simplex._Dictionary), ("ref", _FractionDictionary)):
            monkeypatch.setattr(cls, "pivot", self._wrap(key, cls.pivot))

    def _wrap(self, key, pivot):
        def recorded(dictionary, row_index, col_index):
            self.logs[key].append(
                (dictionary.basic[row_index], dictionary.nonbasic[col_index])
            )
            pivot(dictionary, row_index, col_index)
            if key == "new":
                self._check(dictionary)

        return recorded

    def _check(self, dictionary):
        entries = [v for row in dictionary.rows for v in row] + list(dictionary.z)
        assert all(type(v) is int for v in entries + [dictionary.d, dictionary.scale])
        assert dictionary.d > 0
        lhs, scales = self.program
        n, m = len(lhs[0]), len(lhs)
        if len(dictionary.basic) < m:  # phase one dropped a redundant row
            return
        columns = [[row[j] for row in lhs] for j in range(n)]
        columns += [[int(i == k) for i in range(m)] for k in range(m)]
        columns.append([-k for k in scales])
        basis = [columns[vid] for vid in dictionary.basic]
        assert dictionary.d == abs(_det(list(zip(*basis))))
        self.checked += 1

    def take(self):
        logs = (self.logs["new"], self.logs["ref"])
        self.logs = {"new": [], "ref": []}
        return logs


def _integer_program(lhs, rhs):
    """Each row of lhs x <= rhs times the lcm k of its denominators, and
    the k."""
    rows, scales = [], []
    for row, b in zip(lhs, rhs):
        k = math.lcm(*(Fraction(v).denominator for v in [b, *row]))
        rows.append([int(v * k) for v in row])
        scales.append(k)
    return rows, scales


def _solve_both(objective, lhs, rhs):
    """The fraction-free and the reference dictionary, or the exception
    class each raised."""
    out = []
    for solve in (_optimal_dictionary, _reference_optimal_dictionary):
        try:
            out.append(solve(objective, lhs, rhs))
        except (LpInfeasible, LpUnbounded) as exc:
            out.append(type(exc))
    return out


def _rescaled(programs, seed):
    """The programs with each row, and the objective, divided by a
    random positive int, so rows scale back to ints by different lcms."""
    rng = random.Random(seed)
    for objective, lhs, rhs in programs:
        q = rng.randint(1, 5)
        scaled_rows, scaled_rhs = [], []
        for row, b in zip(lhs, rhs):
            k = rng.randint(1, 6)
            scaled_rows.append([Fraction(v) / k for v in row])
            scaled_rhs.append(Fraction(b) / k)
        yield [Fraction(v) / q for v in objective], scaled_rows, scaled_rhs


def test_random_programs_match_fraction_dictionary(monkeypatch):
    recorder = _Recorder(monkeypatch)
    outcomes = collections.Counter()
    for objective, lhs, rhs in _random_programs(20260816, 200):
        recorder.program = _integer_program(lhs, rhs)
        new, ref = _solve_both(objective, lhs, rhs)
        new_log, ref_log = recorder.take()
        assert new_log == ref_log
        if isinstance(ref, type):
            assert new is ref
            outcomes[ref.__name__] += 1
            continue
        ids = range(len(objective) + len(lhs))
        assert new.optimum == ref.obj[0]
        assert new.values(ids) == ref.values(ids)
        assert new.duals(ids) == ref.duals(ids)
        outcomes["phase one" if min(rhs) < 0 else "optimal"] += 1
    assert min(outcomes.values()) >= 5 and len(outcomes) == 3, outcomes
    assert recorder.checked > 300


def test_rescaled_programs_match_fraction_dictionary(monkeypatch):
    """Rational rows: each is scaled by the lcm of its denominators, and
    the slack values and duals are scaled back."""
    recorder = _Recorder(monkeypatch)
    solved = 0
    programs = _rescaled(_random_programs(20260816, 200), 7)
    for objective, lhs, rhs in programs:
        recorder.program = _integer_program(lhs, rhs)
        new, ref = _solve_both(objective, lhs, rhs)
        new_log, ref_log = recorder.take()
        assert new_log == ref_log
        if isinstance(ref, type):
            assert new is ref
            continue
        ids = range(len(objective) + len(lhs))
        assert new.optimum == ref.obj[0]
        assert new.values(ids) == ref.values(ids)
        assert new.duals(ids) == ref.duals(ids)
        solved += 1
    assert solved >= 100
    assert recorder.checked > 300


def test_polytopes_match_fraction_dictionary(monkeypatch):
    """Seeded splitting polytopes: the pivots and the outcome of
    ``maximal_point`` (M, rho, uniqueness, ranges, dual) and of
    ``vertices`` against the reference."""
    recorder = _Recorder(monkeypatch)
    rng = random.Random(20261018)
    decisions = collections.Counter()
    for index in range(300):
        matrix = _random_matrix(rng)
        recorder.program = matrix.rows, [1] * matrix.varcount
        cert = maximal_point(matrix)
        got = (cert.M, cert.rho, cert.unique, cert.coordinate_ranges, cert.dual)
        new_log, _ = recorder.take()
        expected = _reference_maximal_point(matrix)
        _, ref_log = recorder.take()
        assert got == expected, matrix
        assert new_log == ref_log
        decisions[cert.unique] += 1
        if index % 3 == 0:
            listed = vertices(matrix)
            new_log, _ = recorder.take()
            assert listed == _reference_vertices(matrix), matrix
            assert new_log == recorder.take()[1]
    assert min(decisions[True], decisions[False]) >= 20, decisions
    assert recorder.checked > 1000


@pytest.mark.parametrize("a", [-3, -1, 1, 2])
def test_pivot_keeps_denominator_positive(a):
    # d x_1 = 4 + a x_0 over d = 1: the pivot row's sign follows a
    dictionary = simplex._Dictionary([0], [1], [[4, a]])
    dictionary.pivot(0, 0)
    assert dictionary.d == abs(a)
    assert dictionary.values([0, 1]) == [Fraction(-4, a), 0]
