"""The vertex walk of ``geometry.vertices`` (column views of each basis,
bases keyed by the bitmask of their ids) against the Fraction-dictionary
walk it replaced: the vertex list, the pivot log, and the multiset edge
at F, the number of feasible bases the walk visits."""

import collections
import random

import pytest

from fptcert.budgets import Budgets
from fptcert.errors import BudgetExceeded
from fptcert.geometry import ExponentMatrix, vertices

from test_fraction_free import _Recorder, _reference_vertices


def _walk_matrix(rng):
    """m <= 4 rows and N <= 10 columns with entries in 0..top; about half
    the matrices copy one row onto another, so their ratio tests tie at
    positive ratios, and about a third zero a column, which never enters."""
    m, n, top = rng.randint(1, 4), rng.randint(1, 10), rng.choice((1, 2, 3))
    rows = [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]
    kinds = set()
    if m > 1 and rng.random() < 0.5:
        source, target = rng.sample(range(m), 2)
        rows[target] = list(rows[source])
        kinds.add("repeated row")
    if rng.random() < 0.3:
        zero = rng.randrange(n)
        for row in rows:
            row[zero] = 0
        kinds.add("zero column")
    cut = rng.randint(1, n)
    sizes = (cut, n - cut) if cut < n else (n,)
    return ExponentMatrix(varcount=m, columns=tuple(zip(*rows)), block_sizes=sizes), kinds


def test_walk_matches_reference(monkeypatch):
    """300 seeded matrices: the same vertices, the same pivots in the same
    order, and the multiset budget met at F and exceeded at F - 1, where
    F is one more than the reference's pivots (the slack basis)."""
    recorder = _Recorder(monkeypatch)
    rng = random.Random(20261019)
    seen = collections.Counter()
    for _ in range(300):
        matrix, kinds = _walk_matrix(rng)
        recorder.program = matrix.rows
        listed = vertices(matrix)
        new_log, _ = recorder.take()
        expected = _reference_vertices(matrix)
        _, ref_log = recorder.take()
        assert listed == expected, matrix
        assert new_log == ref_log, matrix
        feasible = 1 + len(ref_log)
        assert vertices(matrix, Budgets(max_multisets=feasible)) == expected
        with pytest.raises(BudgetExceeded):
            vertices(matrix, Budgets(max_multisets=feasible - 1))
        recorder.take()
        seen.update(kinds)
        seen["degenerate"] += feasible > len(expected)  # a vertex with two bases
    assert min(seen["repeated row"], seen["zero column"], seen["degenerate"]) >= 50, seen


def test_matrix_without_rows_has_the_origin_alone():
    """No constraint row: the slack basis is empty, no column can enter,
    and the origin is the one vertex, visited for one multiset."""
    matrix = ExponentMatrix(varcount=0, columns=((), ()), block_sizes=(2,))
    assert vertices(matrix) == [(0, 0)]
    assert vertices(matrix, Budgets(max_multisets=1)) == [(0, 0)]
