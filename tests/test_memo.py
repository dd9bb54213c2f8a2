"""The certificate pipeline's memo of maximal points: ``geometry._solved``
answers every repeat of an exponent matrix from one solve, bounded, and
the output is the same as with a fresh solve on every call."""

import random
from fractions import Fraction

import pytest

from fptcert import geometry
from fptcert.cli import main
from fptcert.errors import FptcertError, NonUniqueMaximalPoint
from fptcert.geometry import ExponentMatrix, _solved, maximal_point
from fptcert.thresholds import _unique_rho, lct_fpt_classifier
from test_geometry import _random_matrix, gens, matrix_of

PAIR = ["--vars", "x,y,z", "--gens", "x^2+x*y^2,y*z^3"]
PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.fixture(autouse=True)
def empty_memo():
    _solved.cache_clear()
    yield
    _solved.cache_clear()


def _fields(cert):
    return (cert.M, cert.rho, cert.unique, cert.coordinate_ranges, cert.dual,
            cert.block_sizes)


def _recording(monkeypatch, name):
    """Replace ``geometry.<name>`` by a wrapper that records its first
    argument; returns the list of recorded arguments."""
    calls, original = [], getattr(geometry, name)

    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(geometry, name, wrapper)
    return calls


def test_memo_matches_fresh_solves():
    rng = random.Random(16)
    matrices = [_random_matrix(rng) for _ in range(300)]
    expected = {matrix: _fields(maximal_point(matrix)) for matrix in matrices}
    queries = [m for m in matrices for _ in range(rng.choice((2, 3)))]
    rng.shuffle(queries)
    for matrix in queries:
        assert _fields(_solved(matrix)) == expected[matrix], matrix
    info = _solved.cache_info()
    assert info.hits + info.misses == len(queries)
    assert info.misses == len(expected) <= info.maxsize


def test_block_sizes_are_part_of_the_key():
    columns = ((2, 0, 0), (1, 2, 0), (0, 1, 3))
    joined = ExponentMatrix(varcount=3, columns=columns, block_sizes=(3,))
    split = ExponentMatrix(varcount=3, columns=columns, block_sizes=(2, 1))
    assert _solved(joined).block_sizes == (3,)
    assert _solved(split).block_sizes == (2, 1)
    assert _solved(joined).blocks_of_rho != _solved(split).blocks_of_rho
    info = _solved.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2)


@pytest.mark.parametrize("call", [
    lambda g: _unique_rho(g, 5),
    lambda g: lct_fpt_classifier(g),
], ids=["unique_rho", "classifier"])
def test_non_unique_face_raises_the_same_on_repeats(call):
    generators = gens("x+x*y^2", "y*z^2")
    raised = []
    for _ in range(2):
        with pytest.raises(NonUniqueMaximalPoint) as info:
            call(generators)
        exc = info.value
        raised.append((str(exc), exc.free_coordinates, exc.coordinate_ranges))
    assert raised[0] == raised[1]
    assert raised[0][1] and raised[0][2] is not None
    assert _solved.cache_info().hits == 1


def test_failed_solve_is_not_cached(monkeypatch):
    matrix = matrix_of(gens("x^2+x*y^2", "y*z^3"))
    calls, real = [], maximal_point

    def fails_once(m):
        calls.append(m)
        if len(calls) == 1:
            raise FptcertError("internal: the dual certificate of M = 1 fails")
        return real(m)

    monkeypatch.setattr(geometry, "maximal_point", fails_once)
    with pytest.raises(FptcertError, match="dual certificate"):
        _solved(matrix)
    assert _fields(_solved(matrix)) == _fields(real(matrix))  # solved again
    assert _fields(_solved(matrix)) == _fields(real(matrix))  # now a hit
    assert len(calls) == 2
    info = _solved.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 2, 1)


def test_verify_prime_solves_its_polytope_once(monkeypatch, capsys):
    faces = _recording(monkeypatch, "_optimal_face")
    assert main(["verify-prime", *PAIR, "--p", "5"]) == 0
    capsys.readouterr()
    assert len(faces) == 1


def _sweep(capsys, gens_text, clear):
    argvs = [["classify", "--vars", "x,y,z", "--gens", gens_text]]
    for command in ("fpt-bound", "fvol-bound", "verify-prime"):
        argvs += [[command, "--vars", "x,y,z", "--gens", gens_text, "--p", str(p)]
                  for p in PRIMES]
    out = []
    for argv in argvs:
        if clear:
            _solved.cache_clear()
        code = main(argv)
        out.append((argv, code, capsys.readouterr().out))
    return out


def test_prime_sweep_solves_once_per_matrix(monkeypatch, capsys):
    # 3*x*y^2 vanishes mod 3, so the sweep meets two exponent matrices
    text = "x^2+3*x*y^2,y*z^3"
    solves = _recording(monkeypatch, "maximal_point")
    memoized = _sweep(capsys, text, clear=False)
    assert len(solves) == len(set(solves)) == 2
    over_qq = matrix_of(gens("x^2+3*x*y^2", "y*z^3"))
    over_gf3 = matrix_of(gens("x^2", "y*z^3"))
    assert set(solves) == {over_qq, over_gf3}
    assert [code for _, code, _ in memoized] == [0] * len(memoized)
    assert memoized == _sweep(capsys, text, clear=True)
    # cleared before each call, each call solves once: verify-prime's
    # classifier and fpt_bound share the matrix, or fpt_bound is skipped
    assert len(solves) == 2 + len(memoized)


def test_memo_is_bounded():
    maxsize = _solved.cache_info().maxsize
    assert isinstance(maxsize, int)
    matrices = [ExponentMatrix(varcount=1, columns=((k,),), block_sizes=(1,))
                for k in range(1, maxsize + 2)]
    for matrix in matrices:
        assert _solved(matrix).M == Fraction(1, matrix.columns[0][0])
    assert _solved.cache_info().currsize == maxsize
    misses = _solved.cache_info().misses
    _solved(matrices[-1])
    assert _solved.cache_info().misses == misses
    _solved(matrices[0])
    assert _solved.cache_info().misses == misses + 1
