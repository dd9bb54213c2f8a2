"""Splitting polytopes, exponent matrices, and Newton polyhedron duality.

The reduced support list of generators (f_1, ..., f_t) drops from each
f_i every monomial that already appeared in an earlier generator,
regardless of coefficients.  The surviving exponent vectors, in block
order, are the columns of the exponent matrix E, and the splitting
polytope is {gamma >= 0 : E gamma <= 1}.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .basep import _sequence
from .budgets import Meter
from .errors import (
    DimensionTooLarge,
    EmptyBlock,
    FptcertError,
    InputError,
    NotDiagonal,
    NotInMaximalIdeal,
    RingMismatch,
)
from .polyring import Polynomial, grlex_key
from .simplex import _Dictionary, _optimal_dictionary, _tied, solve_lp

@dataclass(frozen=True)
class ReducedMapping:
    """Deduplicated support lists of a generator sequence."""

    varcount: int
    blocks: tuple  # tuple of tuples of exponent tuples, grlex-sorted
    coeff_columns: tuple  # original coefficients, aligned with blocks
    original_generators: tuple

    @property
    def block_sizes(self):
        return tuple(len(block) for block in self.blocks)


@dataclass(frozen=True)
class ExponentMatrix:
    """Columns are exponent vectors grouped into blocks."""

    varcount: int
    columns: tuple  # tuple of exponent tuples, concatenated block order
    block_sizes: tuple

    @property
    def width(self):
        return len(self.columns)

    @property
    def block_boundaries(self):
        """Start offsets of each block plus the final end offset."""
        return tuple(itertools.accumulate(self.block_sizes, initial=0))

    @property
    def rows(self):
        """Row-major m x N integer entries."""
        return tuple(
            tuple(col[i] for col in self.columns) for i in range(self.varcount)
        )

    def split(self, vector):
        """Cut a length-N vector into per-block tuples."""
        if len(vector) != self.width:
            raise InputError("vector length %d does not match width %d"
                             % (len(vector), self.width))
        return _split_blocks(vector, self.block_sizes)


def _split_blocks(vector, block_sizes):
    """Cut a vector into consecutive per-block tuples."""
    bounds = tuple(itertools.accumulate(block_sizes, initial=0))
    return tuple(tuple(vector[a:b]) for a, b in zip(bounds, bounds[1:]))


def _polynomials(generators):
    """A generator sequence as a non-empty tuple of polynomials."""
    generators = _sequence(generators, "generators")
    if not generators:
        raise InputError("at least one generator is required")
    for i, g in enumerate(generators):
        if not isinstance(g, Polynomial):
            raise InputError("generator %d is not a polynomial" % i)
    return generators


def _check_generators(generators):
    """Validate a generator sequence and return it as a tuple: it must
    be non-empty (``_polynomials``), and its members nonzero polynomials
    without constant term over one common ring and variable count."""
    generators = _polynomials(generators)
    first = generators[0]
    for i, g in enumerate(generators):
        if g.ring != first.ring or g.varcount != first.varcount:
            raise RingMismatch("generator %d lives in a different ring" % i)
        if g.is_zero():
            raise InputError("generator %d is zero" % i)
        if (0,) * g.varcount in g.terms:
            raise NotInMaximalIdeal(
                "generator %d has a constant term, so it is not in the "
                "maximal ideal" % i
            )
    return generators


def reduce_generators(generators):
    """Build the ReducedMapping of a generator sequence.

    Every generator must be a nonzero polynomial without constant term,
    over one common ring (``_check_generators``).  Raises EmptyBlock
    when a generator's support is exhausted by earlier generators,
    NotInMaximalIdeal on a constant term.
    """
    generators = _check_generators(generators)
    seen = set()
    blocks = []
    coeff_columns = []
    for i, g in enumerate(generators):
        fresh = set(g.terms) - seen
        if not fresh:
            raise EmptyBlock(
                "generator %d contributes no new monomials" % i
            )
        ordered = tuple(sorted(fresh, key=grlex_key))
        blocks.append(ordered)
        coeff_columns.append(tuple(g.terms[mon] for mon in ordered))
        seen |= set(g.terms)
    return ReducedMapping(
        varcount=generators[0].varcount,
        blocks=tuple(blocks),
        coeff_columns=tuple(coeff_columns),
        original_generators=generators,
    )


def exponent_matrix(mapping):
    """ExponentMatrix of a ReducedMapping; columns keep block order and
    the grlex order inside each block."""
    columns = tuple(itertools.chain.from_iterable(mapping.blocks))
    for col in columns:
        if not any(col):
            raise NotInMaximalIdeal("zero column: a support vector is constant")
    return ExponentMatrix(
        varcount=mapping.varcount,
        columns=columns,
        block_sizes=mapping.block_sizes,
    )


def lp_maximize(objective, matrix):
    """Maximize objective.gamma over the splitting polytope of
    ``matrix``.  Returns (value, gamma) at a vertex."""
    if len(objective) != matrix.width:
        raise InputError("objective length does not match the matrix width")
    value, gamma = solve_lp(objective, matrix.rows, [1] * matrix.varcount)
    return value, tuple(gamma)


@dataclass(frozen=True)
class MaximalPointCert:
    """Outcome of maximizing the coordinate sum over the polytope."""

    M: Fraction
    rho: tuple  # None when the maximal face is not a single point
    unique: bool
    block_sizes: tuple
    coordinate_ranges: tuple  # (low, high) per coordinate on the face
    dual: tuple  # row weights y with E^T y >= 1, y >= 0, |y| = M

    @property
    def blocks_of_rho(self):
        if self.rho is None:
            return None
        return _split_blocks(self.rho, self.block_sizes)

    @property
    def free_coordinates(self):
        return tuple(
            j for j, (lo, hi) in enumerate(self.coordinate_ranges) if lo != hi
        )


def _optimal_face(rows, width):
    """Solve max |mu| over {mu >= 0 : E mu <= 1} once (E: the m ``rows``
    of ``width`` columns) and restrict the optimal dictionary to its
    optimal face.  Nonbasic variables with a negative reduced cost
    vanish on that face, so only those with a zero reduced cost stay
    nonbasic.  Returns (face dictionary, M, vertex, dual); the dual
    read off the slack columns certifies M."""
    dictionary = _optimal_dictionary([1] * width, rows, [1] * len(rows))
    M = dictionary.optimum
    vertex = tuple(dictionary.values(range(width)))
    reduced = dictionary.duals(range(width + len(rows)))
    dual = tuple(reduced[width:])
    _check_dual_certificate(rows, vertex, dual, M)
    dictionary.restrict({v for v in dictionary.nonbasic if reduced[v] == 0})
    return dictionary, M, vertex, dual


def maximal_point(matrix):
    """Maximize |gamma| over the polytope and decide the optimal face
    from one optimal dictionary (``_optimal_face``).  The face is one
    point exactly when the nonbasic variables with a zero reduced cost
    (Z) vanish on all of it: one LP over the Z columns, warm-started.
    Only a face that is not a point needs coordinate ranges, LPs over
    the same columns."""
    N = matrix.width
    face, M, point, dual = _optimal_face(matrix.rows, N)
    unique = not face.nonbasic or face.maximize(dict.fromkeys(face.nonbasic, 1)) == 0
    if unique:
        ranges = tuple((v, v) for v in point)
    else:
        ranges = tuple(
            (-face.maximize({j: -1}), face.maximize({j: 1})) for j in range(N)
        )
    return MaximalPointCert(
        M=M,
        rho=point if unique else None,
        unique=unique,
        block_sizes=matrix.block_sizes,
        coordinate_ranges=ranges,
        dual=dual,
    )


@functools.lru_cache(maxsize=256)
def _solved(matrix):
    """``maximal_point`` of an exponent matrix, solved once per matrix
    for the certificate pipeline: the polytope does not depend on p.
    The memo is bounded, keeps no exceptions, and calls the module's
    ``maximal_point``, whose dual check runs on every miss."""
    return maximal_point(matrix)


def _check_dual_certificate(rows, gamma, y, M):
    """Raise unless E gamma <= 1, gamma >= 0, E^T y >= 1, y >= 0 and
    |gamma| = |y| = M, so that M is the maximum by weak duality."""
    # Scaled by the lcm of the denominators, the sums are exact int sums.
    scale = math.lcm(*(v.denominator for v in gamma + y))
    G, Y = ([v.numerator * (scale // v.denominator) for v in vec] for vec in (gamma, y))
    feasible = (
        min(G) >= 0 and min(Y) >= 0
        and all(sum(a * g for a, g in zip(row, G)) <= scale for row in rows)
        and all(sum(a * v for a, v in zip(col, Y)) >= scale for col in zip(*rows))
    )
    if not feasible or sum(G) != M * scale or sum(Y) != M * scale:
        raise FptcertError("internal: the dual certificate of M = %s fails" % M)


def vertices(matrix, budgets=None):
    """All vertices of the splitting polytope, sorted lexicographically.

    A breadth-first walk over the feasible bases of the dictionary of
    E gamma <= 1 from the slack basis, pivoting each column on every row
    that ties in its ratio test.  The origin is nondegenerate, so the
    slack basis is its only basis; Bland's rule on max -|gamma| reaches
    it from any feasible basis by ratio-test pivots, whose reverses are
    ratio-test pivots, so every feasible basis is visited.  A column
    without a negative entry (a zero column of E) never enters.  Each
    basis is read through the column views of its rows and keyed by the
    bitmask of its basic ids.  The cap on N comes from the dimension
    budget; each feasible basis visited is charged against the multiset
    budget.
    """
    meter = Meter(budgets)
    N, cap = matrix.width, meter.budgets.max_dimension
    if N > cap:
        raise DimensionTooLarge("polytope dimension %d exceeds the cap %d" % (N, cap))
    rows = [[1, *(-a for a in row)] for row in matrix.rows]  # the slack basis, at gamma = 0
    start = _Dictionary(list(range(N)), list(range(N, N + len(rows))), rows)
    key = sum(1 << vid for vid in start.basic)  # a basis as the bitmask of its ids
    seen = {key}
    queue = collections.deque([(start, key)])
    found = set()  # each basic solution gamma as (d, *d gamma), d its basis's determinant
    while queue:
        meter.charge_multisets()
        dictionary, key = queue.popleft()
        basic = dictionary.basic
        rhs, *columns = list(zip(*dictionary.rows)) or [()] * (1 + N)  # no rows: the origin
        point = [0] * N
        for vid, b in zip(basic, rhs):
            if vid < N:
                point[vid] = b
        found.add((dictionary.d, *point))
        for col, (entering, column) in enumerate(zip(dictionary.nonbasic, columns)):
            for i in _tied(rhs, column):
                basis = key ^ 1 << basic[i] ^ 1 << entering
                if basis not in seen:
                    seen.add(basis)
                    neighbour = dictionary.copy()
                    neighbour.pivot(i, col)
                    queue.append((neighbour, basis))
    common = math.lcm(*(d for d, *_ in found))  # every point as ints over one denominator
    order = sorted({tuple(map((common // d).__mul__, point)) for d, *point in found})
    fraction = {n: Fraction(n, common) for n in set(itertools.chain(*order))}  # one per value
    return [tuple(map(fraction.get, point)) for point in order]


def _support_rows(supports):
    """Validate a support set and return (rows, width) of E, whose
    columns are its distinct points in sorted order."""
    cleaned = set()
    for vector in _sequence(supports, "supports"):
        vector = _sequence(vector, "support vector")
        if any(type(v) is not int or v < 0 for v in vector):
            raise InputError("support vectors must have nonnegative integer entries")
        if not any(vector):
            raise NotInMaximalIdeal("support contains the zero vector")
        cleaned.add(vector)
    if not cleaned:
        raise InputError("at least one support vector is required")
    lengths = {len(v) for v in cleaned}
    if len(lengths) != 1:
        raise InputError("support vectors have mixed lengths")
    return tuple(zip(*sorted(cleaned))), len(cleaned)


def _diagonal_face(rows, width):
    """The optimal points mu of ``_optimal_face`` with every row tight,
    E mu = 1: those are M times the convex combinations of the columns
    equal to (1/M, ..., 1/M) (``newton_min_diagonal``).  Returns the face
    dictionary restricted to them, or None when there are none."""
    face = _optimal_face(rows, width)[0]
    if face.maximize(dict.fromkeys(range(width, width + len(rows)), -1)) != 0:
        return None
    reduced = face.duals(face.nonbasic)
    face.restrict({v for v, r in zip(face.nonbasic, reduced) if r == 0})
    return face


def newton_min_diagonal(supports):
    """The smallest s with (s, ..., s) inside the Newton polyhedron of
    the support set, 1 / M for the maximum M of |mu| over
    {mu >= 0 : E mu <= 1}, the points the columns of E: writing
    mu = lambda / s turns {lambda >= 0 : sum lambda = 1,
    sum lambda_a a <= s (1, ..., 1)} into that polytope with |mu| = 1 / s."""
    return 1 / _optimal_face(*_support_rows(supports))[1]


def diagonal_position(supports):
    """Whether the diagonal ray meets a compact face of the Newton
    polyhedron: the point s* (1, ..., 1) must be a convex combination
    of the support vectors themselves, with no recession part."""
    return _diagonal_face(*_support_rows(supports)) is not None


def diagonal_face_columns(matrix):
    """Indices (0-based) of the columns lying on the face cut out by
    the diagonal ray.  Column j belongs to the face exactly when some
    convex combination hitting s* (1, ..., 1) gives it positive weight,
    an LP optimum over the matrix's own rows.
    Raises NotDiagonal when the ray meets no compact face."""
    if len(set(matrix.columns)) != matrix.width:
        raise InputError("exponent matrix columns must be distinct")
    _support_rows(matrix.columns)
    face = _diagonal_face(matrix.rows, matrix.width)
    if face is None:
        raise NotDiagonal(
            "the diagonal ray misses every compact face of the Newton polyhedron"
        )
    return tuple(j for j in range(matrix.width) if face.maximize({j: 1}) > 0)
