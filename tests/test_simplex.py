"""Exact simplex solver: known optima, failure modes, and a brute-force
vertex cross-check on random bounded programs whose origin is feasible."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from fptcert import simplex
from fptcert.errors import FptcertError
from fptcert.simplex import LpUnbounded, _optimal_dictionary, _tied


def F(x):
    return Fraction(x)


def solve(objective, lhs, rhs):
    """(optimum, x) of max objective.x subject to lhs x <= rhs, x >= 0,
    read off the optimal dictionary."""
    dictionary = _optimal_dictionary(objective, lhs, rhs)
    return dictionary.optimum, dictionary.values(range(len(objective)))


def test_box_maximum():
    value, x = solve([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert value == 2
    assert x == [1, 1]


def test_weighted_objective():
    # max 3x + 2y st x + y <= 4, x <= 2
    value, x = solve(
        [F(3), F(2)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)]
    )
    assert value == 10
    assert x == [2, 2]


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve([F(1), F(1)], [[F(1), F(-1)]], [F(1)])
    with pytest.raises(LpUnbounded):
        solve([F(1)], [], [])


def test_negative_rhs_is_refused():
    # the origin must be feasible: there is no phase one
    with pytest.raises(FptcertError, match="negative right-hand side"):
        solve([F(-1)], [[F(-1)], [F(1)]], [Fraction(-1, 2), F(1)])


def test_degenerate_vertex():
    # three constraints meet at (1, 0); Bland's rule must terminate
    value, _ = solve(
        [F(1), F(1)],
        [[F(1), F(0)], [F(1), F(1)], [F(0), F(1)]],
        [F(1), F(1), F(1)],
    )
    assert value == 1


def test_constraint_shape_must_match():
    with pytest.raises(FptcertError, match="constraint rows do not match"):
        solve([1, 1], [[1]], [1])


def test_zero_objective_feasibility_probe():
    value, x = solve([F(0), F(0)], [[F(1), F(2)]], [F(2)])
    assert value == 0
    assert all(v >= 0 for v in x)


def _gauss_solve(rows, rhs):
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _brute_force_max(objective, lhs, rhs):
    """Best objective over all vertices of {Ax <= b, x >= 0}, or None
    when no basic feasible point exists."""
    n = len(objective)
    constraints = [(row, b) for row, b in zip(lhs, rhs)]
    for j in range(n):
        unit = [F(0)] * n
        unit[j] = F(-1)
        constraints.append((unit, F(0)))
    best = None
    for combo in itertools.combinations(range(len(constraints)), n):
        point = _gauss_solve(
            [constraints[k][0] for k in combo],
            [constraints[k][1] for k in combo],
        )
        if point is None:
            continue
        if any(v < 0 for v in point):
            continue
        if any(
            sum(c * v for c, v in zip(row, point)) > b for row, b in zip(lhs, rhs)
        ):
            continue
        value = sum(c * v for c, v in zip(objective, point))
        if best is None or value > best:
            best = value
    return best


def _random_programs(seed, count):
    """Seeded (objective, lhs, rhs) with 1-3 variables and 1-3 random
    rows; box rows keep every instance bounded."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        lhs = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-2, 4)) for _ in range(m)]
        for j in range(n):
            unit = [F(0)] * n
            unit[j] = F(1)
            lhs.append(unit)
            rhs.append(F(5))
        objective = [F(rng.randint(-3, 3)) for _ in range(n)]
        yield objective, lhs, rhs


def _degenerate_programs(seed, count):
    """Seeded (objective, lhs, rhs) with fractional rows, each repeated
    at 1-2 positive scales and sometimes with its reverse inequality too
    (an equality, feasible at the origin when its right-hand side is 0),
    and negative right-hand sides.  Box rows keep every instance
    bounded."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        lhs, rhs = [], []
        for _ in range(rng.randint(1, 3)):
            row = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 2)):
                k = Fraction(rng.randint(1, 3), rng.randint(1, 2))
                lhs.append([k * v for v in row])
                rhs.append(k * b)
                if rng.random() < 0.4:
                    lhs.append([-k * v for v in row])
                    rhs.append(-k * b)
        for j in range(n):
            unit = [F(0)] * n
            unit[j] = F(1)
            lhs.append(unit)
            rhs.append(F(5))
        objective = [F(rng.randint(-3, 3)) for _ in range(n)]
        yield objective, lhs, rhs


@pytest.mark.parametrize(
    "programs, seed",
    [(_random_programs, 20260816), (_degenerate_programs, 20261018)],
    ids=["random", "degenerate"],
)
def test_random_programs_match_vertex_enumeration(programs, seed):
    checked = 0
    for objective, lhs, rhs in programs(seed, 400):
        if any(b < 0 for b in rhs):
            continue
        value, x = solve(objective, lhs, rhs)
        assert value == _brute_force_max(objective, lhs, rhs)
        assert all(v >= 0 for v in x)
        for row, b in zip(lhs, rhs):
            assert sum(c * v for c, v in zip(row, x)) <= b
        assert sum(c * v for c, v in zip(objective, x)) == value
        checked += 1
    assert checked >= 60


def test_random_programs_dual_from_optimal_dictionary():
    """The negated reduced costs of the slack columns in the optimal
    dictionary are an optimal dual: y >= 0, A^T y >= c, b.y = max."""
    checked = 0
    # the programs of the vertex-enumeration test above
    for objective, lhs, rhs in _random_programs(20260816, 200):
        if any(b < 0 for b in rhs):
            continue
        n, m = len(objective), len(lhs)
        dictionary = _optimal_dictionary(objective, lhs, rhs)
        y = dictionary.duals(range(n, n + m))
        assert all(v >= 0 for v in y)
        for j in range(n):
            assert sum(row[j] * v for row, v in zip(lhs, y)) >= objective[j]
        value = sum(b * v for b, v in zip(rhs, y))
        assert value == dictionary.optimum == _brute_force_max(objective, lhs, rhs)
        checked += 1
    assert checked >= 60


# --- the ratio test, against the two loops it replaced ----------------------


def _reference_bland_row(rows, basic, enter):
    """The leaving row ``_Dictionary.optimize`` picked with its own loop:
    the least ratio row[0] / -row[1 + enter], ties to the least basic id."""
    best = None  # the row of the least ratio row[0] / -row[1 + enter]
    for i, row in enumerate(rows):
        a = row[1 + enter]
        if a < 0:
            b = rows[best] if best is not None else None
            gap = -1 if b is None else b[0] * a - row[0] * b[1 + enter]
            if gap < 0 or gap == 0 and basic[i] < basic[best]:
                best = i
    return best


def _reference_vertex_ties(rhs, column):
    """The tie list ``vertices`` built with its own loop."""
    # the rows tied at the least ratio rhs[i] / -column[i], column[i] < 0
    tied, b, a = [], 1, 0  # the least ratio so far is b / -a (none: 1 / 0)
    for i, entry in enumerate(column):
        if entry < 0:
            gap = b * entry - rhs[i] * a
            if gap < 0:
                tied, b, a = [i], rhs[i], entry
            elif gap == 0:
                tied.append(i)
    return tied


def _ratio_cases(seed, count):
    """Seeded (rhs, column, basic): rhs >= 0 in int dictionary rows, the
    column's entries from -4 to 3, so some columns have no negative entry,
    many rows tie at ratio 0 (zero rhs) and many at a positive ratio (rhs
    a multiple of -entry); ``basic`` are distinct ids from 1 up."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(0, 7)
        column = [rng.randint(-4, 3) for _ in range(m)]
        shape = rng.randrange(3)
        rhs = [
            0 if shape == 0 and rng.random() < 0.5
            else -a * rng.randint(1, 2) if shape == 1 and a < 0
            else rng.randint(0, 9)
            for a in column
        ]
        yield rhs, column, rng.sample(range(1, 3 * m + 2), m)


def test_ratio_test_matches_both_loops_it_replaced(monkeypatch):
    class Picked(Exception):
        pass

    def pivot(dictionary, row_index, col_index):
        raise Picked(row_index)

    monkeypatch.setattr(simplex._Dictionary, "pivot", pivot)
    seen = collections.Counter()
    for rhs, column, basic in _ratio_cases(20261022, 3000):
        tied = _tied(rhs, column)
        assert tied == _reference_vertex_ties(rhs, column)
        rows = [[b, a] for b, a in zip(rhs, column)]
        expected = _reference_bland_row(rows, basic, 0)
        # optimize enters id 0, the only nonbasic column, and leaves on the
        # least basic id among the tied rows
        dictionary = simplex._Dictionary([0], list(basic), rows, z=[0, 1])
        if expected is None:
            with pytest.raises(LpUnbounded):
                dictionary.optimize()
            assert tied == []
            seen["unbounded"] += 1
            continue
        with pytest.raises(Picked) as picked:
            dictionary.optimize()
        assert picked.value.args == (expected,)
        assert expected == min(tied, key=basic.__getitem__)
        if len(tied) > 1:
            seen["tie at 0" if rhs[tied[0]] == 0 else "tie above 0"] += 1
        seen["bounded"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 4, seen
