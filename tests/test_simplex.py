"""Exact simplex solver: known optima, failure modes, and a brute-force
vertex cross-check on random bounded programs."""

import itertools
import random
from fractions import Fraction

import pytest

from fptcert.errors import FptcertError
from fptcert.simplex import LpInfeasible, LpUnbounded, _optimal_dictionary, solve_lp


def F(x):
    return Fraction(x)


def test_box_maximum():
    value, x = solve_lp([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert value == 2
    assert x == [1, 1]


def test_weighted_objective():
    # max 3x + 2y st x + y <= 4, x <= 2
    value, x = solve_lp(
        [F(3), F(2)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)]
    )
    assert value == 10
    assert x == [2, 2]


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve_lp([F(1), F(1)], [[F(1), F(-1)]], [F(1)])
    with pytest.raises(LpUnbounded):
        solve_lp([F(1)], [], [])


def test_infeasible():
    with pytest.raises(LpInfeasible):
        solve_lp([F(1)], [[F(1)]], [F(-1)])  # x <= -1 against x >= 0
    with pytest.raises(LpInfeasible):
        # x + y <= 1 and x + y >= 3
        solve_lp(
            [F(0), F(0)],
            [[F(1), F(1)], [F(-1), F(-1)]],
            [F(1), F(-3)],
        )


def test_negative_rhs_needs_phase_one():
    # x >= 1/2 encoded as -x <= -1/2
    value, x = solve_lp(
        [F(-1)], [[F(-1)], [F(1)]], [Fraction(-1, 2), F(1)]
    )
    assert value == Fraction(-1, 2)
    assert x == [Fraction(1, 2)]


def test_equality_via_inequality_pair():
    value, x = solve_lp(
        [F(1), F(0)],
        [[F(1), F(1)], [F(-1), F(-1)]],
        [F(1), F(-1)],
    )
    assert value == 1
    assert x == [1, 0]


def test_degenerate_vertex():
    # three constraints meet at (1, 0); Bland's rule must terminate
    value, _ = solve_lp(
        [F(1), F(1)],
        [[F(1), F(0)], [F(1), F(1)], [F(0), F(1)]],
        [F(1), F(1), F(1)],
    )
    assert value == 1


def test_constraint_shape_must_match():
    with pytest.raises(FptcertError, match="constraint rows do not match"):
        solve_lp([1, 1], [[1]], [1])


def test_zero_objective_feasibility_probe():
    value, x = solve_lp([F(0), F(0)], [[F(1), F(2)]], [F(2)])
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
    (an equality), and negative right-hand sides: phase one often ends
    degenerate, with the auxiliary variable basic at 0.  Box rows keep
    every instance bounded."""
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
    for objective, lhs, rhs in programs(seed, 60):
        expected = _brute_force_max(objective, lhs, rhs)
        if expected is None:
            with pytest.raises(LpInfeasible):
                solve_lp(objective, lhs, rhs)
            continue
        value, x = solve_lp(objective, lhs, rhs)
        assert value == expected
        assert all(v >= 0 for v in x)
        for row, b in zip(lhs, rhs):
            assert sum(c * v for c, v in zip(row, x)) <= b
        assert sum(c * v for c, v in zip(objective, x)) == value


def test_random_programs_dual_from_optimal_dictionary():
    """The negated reduced costs of the slack columns in the optimal
    dictionary are an optimal dual: y >= 0, A^T y >= c, b.y = max."""
    checked = 0
    # the first 60 are the programs of the vertex-enumeration test above
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
        assert value == dictionary.obj[0] == _brute_force_max(objective, lhs, rhs)
        assert (value, dictionary.values(range(n))) == solve_lp(objective, lhs, rhs)
        checked += 1
    assert checked >= 60
