"""Reduced support lists, exponent matrices, the splitting polytope,
and the diagonal of the Newton polyhedron."""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from fptcert.budgets import Budgets
from fptcert.errors import (
    BudgetExceeded,
    DimensionTooLarge,
    EmptyBlock,
    FptcertError,
    InputError,
    NotDiagonal,
    NotInMaximalIdeal,
    RingMismatch,
)
from fptcert.geometry import (
    ExponentMatrix,
    _check_dual_certificate,
    diagonal_face_columns,
    diagonal_position,
    exponent_matrix,
    lp_maximize,
    maximal_point,
    newton_min_diagonal,
    reduce_generators,
    vertices,
)
from fptcert.polyring import parse_polynomial, reduce_mod_p, support
from fptcert.simplex import LpInfeasible, _optimal_dictionary, solve_lp
from fptcert.thresholds import monomial_fpt

XYZ = ("x", "y", "z")


def gens(*texts, variables=XYZ):
    return [parse_polynomial(t, variables) for t in texts]


def pair():
    # running example: threshold certificates at small primes, exact 1
    # when p = 1 mod 6
    return gens("x^2+x*y^2", "y*z^3")


def matrix_of(generators):
    return exponent_matrix(reduce_generators(generators))


def test_reduce_generators_blocks_and_coefficients():
    mapping = reduce_generators(pair())
    assert mapping.varcount == 3
    assert mapping.blocks == (((2, 0, 0), (1, 2, 0)), ((0, 1, 3),))
    assert mapping.coeff_columns == ((Fraction(1), Fraction(1)), (Fraction(1),))
    assert mapping.block_sizes == (2, 1)


def test_reduce_generators_deduplicates_across_earlier_generators():
    mapping = reduce_generators(gens("x^2+x*y^2", "7*x*y^2+y*z^3"))
    # x*y^2 already appeared, so the second block keeps only y*z^3
    assert mapping.blocks[1] == ((0, 1, 3),)
    assert mapping.coeff_columns[1] == (Fraction(1),)


def test_reduce_generators_dedupe_ignores_coefficients():
    mapping = reduce_generators(gens("2*x^2", "5*x^2+y"))
    assert mapping.blocks == (((2, 0, 0),), ((0, 1, 0),))
    # retained coefficients come from the generator that owns the block
    assert mapping.coeff_columns == ((Fraction(2),), (Fraction(1),))


def test_three_generator_matrix():
    f = gens(
        "x^2+y^3+z^4",
        "-x^2+x*y*z+x^2*y^2*z^2",
        "y^3+x*y*z+x^3*y^2",
    )
    matrix = matrix_of(f)
    assert matrix.rows == (
        (2, 0, 0, 1, 2, 3),
        (0, 3, 0, 1, 2, 2),
        (0, 0, 4, 1, 2, 0),
    )
    assert matrix.block_sizes == (3, 2, 1)
    assert matrix.block_boundaries == (0, 3, 5, 6)


def test_reduce_generators_rejects_bad_input():
    with pytest.raises(InputError):
        reduce_generators([])
    with pytest.raises(InputError):
        reduce_generators(gens("x-x"))
    with pytest.raises(NotInMaximalIdeal):
        reduce_generators(gens("x+1"))
    with pytest.raises(EmptyBlock):
        reduce_generators(gens("x", "2*x"))
    with pytest.raises(RingMismatch):
        reduce_generators([pair()[0], reduce_mod_p(pair()[1], 5)])
    with pytest.raises(RingMismatch):
        reduce_generators(
            [parse_polynomial("x", ["x"]), parse_polynomial("x+y", ["x", "y"])]
        )


def test_reduce_generators_rejects_a_non_polynomial():
    with pytest.raises(InputError, match="generator 1 is not a polynomial"):
        reduce_generators([pair()[0], "y*z^3"])


def test_exponent_matrix_rejects_zero_column():
    from fptcert.geometry import ReducedMapping

    mapping = ReducedMapping(
        varcount=1,
        blocks=(((0,),),),
        coeff_columns=((Fraction(1),),),
        original_generators=(),
    )
    with pytest.raises(NotInMaximalIdeal):
        exponent_matrix(mapping)


def test_split():
    matrix = matrix_of(pair())
    assert matrix.split((1, 2, 3)) == ((1, 2), (3,))
    with pytest.raises(InputError):
        matrix.split((1, 2))


def test_maximal_point_unique():
    cert = maximal_point(matrix_of(pair()))
    assert cert.M == 1
    assert cert.unique
    assert cert.rho == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert cert.blocks_of_rho == (
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 3),),
    )
    assert cert.free_coordinates == ()
    assert all(lo == hi for lo, hi in cert.coordinate_ranges)


def test_maximal_point_feasible_and_tight():
    matrix = matrix_of(pair())
    cert = maximal_point(matrix)
    for row in matrix.rows:
        assert sum(c * g for c, g in zip(row, cert.rho)) == 1


def test_maximal_point_non_unique_edge():
    cert = maximal_point(matrix_of(gens("x+x*y^2", "y*z^2")))
    assert cert.M == Fraction(3, 2)
    assert not cert.unique
    assert cert.rho is None
    assert cert.blocks_of_rho is None
    assert cert.free_coordinates == (0, 1)
    assert cert.coordinate_ranges == (
        (Fraction(3, 4), Fraction(1)),
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 2)),
    )


def test_polytope_sits_inside_unit_cube():
    for generators in (pair(), gens("x^2+y^3+z^4", "x*y*z+y^3")):
        matrix = matrix_of(generators)
        for vertex in vertices(matrix):
            assert all(0 <= c <= 1 for c in vertex)
            for row in matrix.rows:
                assert sum(a * b for a, b in zip(row, vertex)) <= 1


def test_vertices_frozen_set():
    listed = vertices(matrix_of(pair()))
    expected = {
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 2), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 2), Fraction(0)),
    }
    assert set(listed) == expected
    assert listed == sorted(listed)


def test_vertices_budgets():
    matrix = matrix_of(pair())
    with pytest.raises(DimensionTooLarge):
        vertices(matrix, Budgets(max_dimension=2))
    with pytest.raises(BudgetExceeded):
        vertices(matrix, Budgets(max_multisets=3))


def test_vertex_sum_never_beats_maximum():
    matrix = matrix_of(gens("x^2+y^3+z^4", "x*y*z+y^3"))
    cert = maximal_point(matrix)
    assert max(sum(v) for v in vertices(matrix)) == cert.M


def test_lp_maximize_single_coordinate():
    matrix = matrix_of(pair())
    value, gamma = lp_maximize(
        [Fraction(1), Fraction(0), Fraction(0)], matrix
    )
    assert value == Fraction(1, 2)
    assert sum(a * b for a, b in zip(matrix.rows[0], gamma)) <= 1
    with pytest.raises(InputError):
        lp_maximize([Fraction(1)], matrix)


@pytest.mark.parametrize(
    "solve",
    [
        lambda m: lp_maximize([0.1, 1], m),  # used to optimize the binary value of 0.1
        lambda m: lp_maximize(["1/2", 1], m),  # used to answer 7/12
        lambda m: lp_maximize([True, 1], m),  # used to read True as 1
        lambda m: lp_maximize([True, "x"], m),  # used to raise a raw ValueError
        lambda m: solve_lp([1.5], [[1]], [1]),  # used to answer 3/2
    ],
    ids=["float", "string", "bool", "bool-and-text", "solve-lp-float"],
)
def test_lp_entries_must_be_ints_or_fractions(solve):
    matrix = matrix_of(gens("x^2+y^3", variables=("x", "y")))
    with pytest.raises(InputError, match="LP entries must be ints or Fractions"):
        solve(matrix)


def test_newton_min_diagonal_frozen():
    assert newton_min_diagonal({(2, 0), (0, 3)}) == Fraction(6, 5)
    assert newton_min_diagonal({(1, 0, 0)}) == 1
    assert newton_min_diagonal({(2, 1)}) == 2
    big = {(4, 5), (3, 6), (2, 7), (1, 8), (0, 9), (10, 0)}
    assert newton_min_diagonal(big) == Fraction(50, 11)


def test_newton_min_diagonal_validation():
    with pytest.raises(InputError):
        newton_min_diagonal(set())
    with pytest.raises(NotInMaximalIdeal):
        newton_min_diagonal({(0, 0)})
    with pytest.raises(InputError):
        newton_min_diagonal({(1, 0), (1, 0, 0)})
    for bad in ((1.5, 2), (Fraction(1, 2), 1), ("3", 1), (2.0, 1)):
        with pytest.raises(InputError):
            newton_min_diagonal({bad})
    with pytest.raises(InputError):
        newton_min_diagonal([1])
    # a bool entry used to read as 1: this set answered 1
    for bad in ([(True, 1), (1, 0)], [(0, False), (2, 0)]):
        with pytest.raises(InputError, match="nonnegative integer entries"):
            newton_min_diagonal(bad)
        with pytest.raises(InputError, match="nonnegative integer entries"):
            monomial_fpt(bad)
    with pytest.raises(InputError):
        monomial_fpt([None])


def test_diagonal_position():
    union = set()
    for g in pair():
        union |= set(support(g))
    assert diagonal_position(union)
    # a single off-diagonal point: the ray only meets the unbounded part
    assert not diagonal_position({(2, 1)})


def test_diagonal_face_columns():
    assert diagonal_face_columns(matrix_of(pair())) == (0, 1, 2)
    with pytest.raises(NotDiagonal):
        assert diagonal_face_columns(
            ExponentMatrix(varcount=2, columns=((2, 1),), block_sizes=(1,))
        )


def test_diagonal_face_columns_rejects_repeated_columns():
    matrix = ExponentMatrix(varcount=2, columns=((1, 1), (1, 1)), block_sizes=(2,))
    with pytest.raises(InputError, match="exponent matrix columns must be distinct"):
        diagonal_face_columns(matrix)


def test_diagonal_face_columns_drops_slack_directions():
    f = gens(
        "y^5*x^4+4*y^6*x^3+6*y^7*x^2+4*y^8*x+y^9",
        "x^10",
        variables=("x", "y"),
    )
    matrix = matrix_of(f)
    assert diagonal_face_columns(matrix) == (0, 5)
    cert = maximal_point(matrix)
    assert cert.M == Fraction(11, 50)
    assert cert.rho == (
        Fraction(1, 5),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(1, 50),
    )


def test_duality_on_worked_examples():
    examples = [
        pair(),
        gens("x^2+y^3+z^4", "-x^2+x*y*z+x^2*y^2*z^2", "y^3+x*y*z+x^3*y^2"),
        gens("x", "x+y^2", variables=("x", "y")),
        gens("x^2-y^3", "z^4-x^3"),
        gens(
            "y^5*x^4+4*y^6*x^3+6*y^7*x^2+4*y^8*x+y^9",
            "x^10",
            variables=("x", "y"),
        ),
    ]
    for generators in examples:
        matrix = matrix_of(generators)
        union = set()
        for g in generators:
            union |= set(support(g))
        assert maximal_point(matrix).M == 1 / newton_min_diagonal(union)


def test_duality_on_random_matrices():
    rng = random.Random(97)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        columns = set()
        while len(columns) < n:
            col = tuple(rng.randint(0, 5) for _ in range(m))
            if any(col):
                columns.add(col)
        matrix = ExponentMatrix(
            varcount=m, columns=tuple(sorted(columns)), block_sizes=(n,)
        )
        assert maximal_point(matrix).M == 1 / newton_min_diagonal(columns)


def _face_sweep(matrix):
    """Reference maximal point: one cold solve for M, then a cold
    minimum and maximum of every coordinate over the optimal face
    {E gamma <= 1, gamma >= 0, |gamma| >= M}.  Returns (M, rho, unique,
    coordinate_ranges)."""
    N = matrix.width
    base_rows = [list(r) for r in matrix.rows]
    base_rhs = [Fraction(1)] * matrix.varcount
    M, _ = solve_lp([Fraction(1)] * N, base_rows, base_rhs)
    face_rows = base_rows + [[Fraction(-1)] * N]
    face_rhs = base_rhs + [-M]
    ranges = []
    for j in range(N):
        obj = [Fraction(0)] * N
        obj[j] = Fraction(1)
        high, _ = solve_lp(obj, face_rows, face_rhs)
        obj[j] = Fraction(-1)
        negated_low, _ = solve_lp(obj, face_rows, face_rhs)
        ranges.append((-negated_low, high))
    unique = all(lo == hi for lo, hi in ranges)
    rho = tuple(hi for _, hi in ranges) if unique else None
    return M, rho, unique, tuple(ranges)


def _random_matrix(rng):
    """Distinct nonzero columns with entries in 0..top and random block
    cuts.  A quarter of the matrices repeat a row, which leaves
    (top+1)^(m-1) - 1 possible columns; N is capped by that count."""
    m = rng.randint(1, 4)
    repeat = rng.sample(range(m), 2) if m > 1 and rng.random() < 0.25 else None
    top = rng.choice((1, 3, 3))
    n = rng.randint(1, min(7, (top + 1) ** (m - (repeat is not None)) - 1))
    columns = []
    while len(columns) < n:
        col = [rng.randint(0, top) for _ in range(m)]
        if repeat:
            col[repeat[1]] = col[repeat[0]]
        if any(col) and tuple(col) not in columns:
            columns.append(tuple(col))
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return ExponentMatrix(varcount=m, columns=tuple(columns), block_sizes=sizes)


def test_maximal_point_matches_face_sweep():
    """The one-dictionary decision against the 2N-solve face sweep, on
    seeded matrices that reach every branch: Z (the nonbasic variables
    with zero reduced cost) empty, only slacks, or holding a
    coordinate, with unique and non-unique faces."""
    rng = random.Random(20261018)
    kinds = collections.Counter()
    for _ in range(500):
        matrix = _random_matrix(rng)
        cert = maximal_point(matrix)
        assert (cert.M, cert.rho, cert.unique, cert.coordinate_ranges) == _face_sweep(
            matrix
        ), matrix
        N, m = matrix.width, matrix.varcount
        dictionary = _optimal_dictionary([1] * N, matrix.rows, [1] * m)
        reduced = dictionary.duals(range(N + m))
        zero = [v for v in dictionary.nonbasic if reduced[v] == 0]
        z_kind = "empty" if not zero else "slacks" if min(zero) >= N else "mixed"
        kinds[z_kind, cert.unique] += 1
    assert kinds["empty", False] == 0
    for key in (("empty", True), ("slacks", True), ("slacks", False),
                ("mixed", True), ("mixed", False)):
        assert kinds[key] >= 5, kinds


def n9():
    return gens(
        "x^2+y^3+z*w", "y^2+z^3+x*w", "z^2+w^3+x*y", variables=("x", "y", "z", "w")
    )


def test_dual_certificate_accepts_frozen_examples():
    for generators in (pair(), n9()):
        matrix = matrix_of(generators)
        cert = maximal_point(matrix)
        value, vertex = lp_maximize((1,) * matrix.width, matrix)
        assert value == cert.M and len(cert.dual) == matrix.varcount
        rho = cert.rho if cert.unique else vertex
        _check_dual_certificate(matrix.rows, rho, cert.dual, cert.M)


def test_dual_certificate_rejects_perturbations():
    matrix = matrix_of(pair())
    cert = maximal_point(matrix)
    rho, y, M, eps = cert.rho, cert.dual, cert.M, Fraction(1, 97)

    def moved(vector, i, j=None):
        out = list(vector)
        out[i] += eps
        if j is not None:
            out[j] -= eps  # keeps the sum, so only feasibility can fail
        return tuple(out)

    bad = [(moved(rho, i), y, M) for i in range(3)]
    bad += [(moved(rho, i, j), y, M) for i in range(3) for j in range(3) if i != j]
    bad += [(rho, moved(y, i), M) for i in range(3)]
    bad += [(rho, moved(y, i, j), M) for i in range(3) for j in range(3) if i != j]
    bad += [(rho, y, M + eps), (rho, y, M - eps), (rho, y, 2 * M)]
    for gamma, dual, value in bad:
        with pytest.raises(FptcertError, match="internal"):
            _check_dual_certificate(matrix.rows, gamma, dual, value)


def _diagonal_system(points, scale):
    """Constraint rows for {lambda >= 0 : sum lambda = 1,
    sum lambda_a a = scale * 1} written as inequality pairs."""
    m = len(points[0])
    k = len(points)
    rows = []
    rhs = []
    for i in range(m):
        coords = [Fraction(a[i]) for a in points]
        rows.append(coords)
        rhs.append(Fraction(scale))
        rows.append([-c for c in coords])
        rhs.append(-Fraction(scale))
    rows.append([Fraction(1)] * k)
    rhs.append(Fraction(1))
    rows.append([Fraction(-1)] * k)
    rhs.append(Fraction(-1))
    return rows, rhs


def _phase_one_newton(columns):
    """Reference Newton side on distinct nonzero columns, in the
    lambda form with phase-one programs: s* minimizes s over convex
    combinations dominated by s (1, ..., 1), then one cold solve per
    point of {sum lambda = 1, sum lambda_a a = s* (1, ..., 1)} gives
    its largest weight.  Returns (s*, diagonal, face columns or None)."""
    points = sorted(set(columns))
    k = len(points)
    m = len(points[0])
    rows = []
    rhs = []
    for i in range(m):
        rows.append([Fraction(a[i]) for a in points] + [Fraction(-1)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * k + [Fraction(0)])
    rhs.append(Fraction(1))
    rows.append([Fraction(-1)] * k + [Fraction(0)])
    rhs.append(Fraction(-1))
    objective = [Fraction(0)] * k + [Fraction(-1)]
    value, _ = solve_lp(objective, rows, rhs)
    s_star = -value
    rows, rhs = _diagonal_system(points, s_star)
    weights = {}
    try:
        for idx, point in enumerate(points):
            objective = [Fraction(0)] * k
            objective[idx] = Fraction(1)
            weights[point], _ = solve_lp(objective, rows, rhs)
    except LpInfeasible:
        return s_star, False, None
    return s_star, True, tuple(j for j, col in enumerate(columns) if weights[col] > 0)


def test_newton_side_matches_phase_one_programs():
    """newton_min_diagonal, diagonal_position and diagonal_face_columns,
    read off the optimal face of max |mu| over {mu >= 0 : E mu <= 1},
    against the lambda-form phase-one programs, on seeded column sets
    that are diagonal with all or only some columns on the face, and
    not diagonal."""
    rng = random.Random(20261019)
    kinds = collections.Counter()
    for _ in range(300):
        matrix = _random_matrix(rng)
        columns = matrix.columns
        s_star, diagonal, face = _phase_one_newton(columns)
        assert newton_min_diagonal(columns) == s_star, matrix
        assert diagonal_position(columns) == diagonal, matrix
        if diagonal:
            assert diagonal_face_columns(matrix) == face, matrix
            kinds["subset" if len(face) < len(columns) else "all"] += 1
        else:
            with pytest.raises(NotDiagonal):
                diagonal_face_columns(matrix)
            kinds["not diagonal"] += 1
    for key in ("all", "subset", "not diagonal"):
        assert kinds[key] >= 5, kinds


def _solve_square(rows, rhs):
    """Solve a square rational system by Gauss-Jordan elimination;
    returns None when singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _constraint_sweep(matrix):
    """Reference vertex list: every choice of N tight constraints among
    the m rows of E gamma <= 1 and the N sign conditions, solved as an
    N x N system and kept when the point lies in the polytope."""
    N = matrix.width
    m = matrix.varcount
    rows = [list(r) for r in matrix.rows]
    constraints = [(rows[i], Fraction(1)) for i in range(m)]
    for j in range(N):
        unit = [Fraction(0)] * N
        unit[j] = Fraction(-1)
        constraints.append((unit, Fraction(0)))
    found = {}
    for combo in itertools.combinations(range(len(constraints)), N):
        system = [constraints[k][0] for k in combo]
        rhs = [constraints[k][1] for k in combo]
        point = _solve_square(system, rhs)
        if point is None:
            continue
        if any(v < 0 for v in point):
            continue
        if any(sum(c * v for c, v in zip(rows[i], point)) > 1 for i in range(m)):
            continue
        found[tuple(point)] = True
    return sorted(found)


def _feasible_bases(matrix):
    """Count the feasible bases of {z >= 0 : [E | I] z = 1}: the choices
    of m of the N + m columns forming an invertible m x m system whose
    solution is nonnegative."""
    m = matrix.varcount
    augmented = [
        row + tuple(int(i == r) for r in range(m)) for i, row in enumerate(matrix.rows)
    ]
    count = 0
    for basis in itertools.combinations(range(matrix.width + m), m):
        z = _solve_square([[row[j] for j in basis] for row in augmented], [1] * m)
        count += z is not None and min(z) >= 0
    return count


def test_vertices_match_constraint_sweep():
    """The pivot walk over feasible bases against the N x N sweep of
    tight constraints, with the multiset edge pinned at the number F of
    feasible bases, on the first 100 matrices of the Newton-side seed
    (the reference sweep makes the full 300 take about 9 s), the N=9
    polytope and hand-built matrices with a zero column, which never
    enters a basis.  The earlier cap, one multiset per each of the
    C(N + m, m) candidate bases, still suffices."""
    rng = random.Random(20261019)
    zero_columns = [
        ExponentMatrix(varcount=2, columns=((1, 0), (0, 0), (0, 1)), block_sizes=(3,)),
        ExponentMatrix(varcount=1, columns=((0,), (2,)), block_sizes=(1, 1)),
    ]
    matrices = zero_columns + [_random_matrix(rng) for _ in range(100)] + [matrix_of(n9())]
    for matrix in matrices:
        feasible = _feasible_bases(matrix)
        listed = vertices(matrix, Budgets(max_multisets=feasible))
        assert listed == _constraint_sweep(matrix), matrix
        with pytest.raises(BudgetExceeded):
            vertices(matrix, Budgets(max_multisets=feasible - 1))
        bases = math.comb(matrix.width + matrix.varcount, matrix.varcount)
        assert vertices(matrix, Budgets(max_multisets=bases)) == listed
    assert vertices(zero_columns[0]) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    assert vertices(zero_columns[1]) == [(0, 0), (0, Fraction(1, 2))]
    # the last matrix is the N=9 polytope
    assert len(listed) == 58 and feasible == 197 and bases == 715
