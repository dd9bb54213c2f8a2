"""The certificate pipeline's memos: ``geometry._solved`` answers every
repeat of an exponent matrix from one solve, and ``cli._parsed`` every
repeat of a generator text from one parse; both are bounded, and the
output is the same as with a fresh solve and parse on every call."""

import random
from fractions import Fraction

import pytest

from fptcert import cli, geometry
from fptcert.cli import _parsed, main
from fptcert.errors import FptcertError, InputError, NonUniqueMaximalPoint, ParseError
from fptcert.geometry import ExponentMatrix, _solved, maximal_point
from fptcert.polyring import parse_polynomial
from fptcert.thresholds import _unique_rho, lct_fpt_classifier
from test_geometry import _random_matrix, gens, matrix_of

PAIR = ["--vars", "x,y,z", "--gens", "x^2+x*y^2,y*z^3"]
PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.fixture(autouse=True)
def empty_memo():
    _solved.cache_clear()
    yield
    _solved.cache_clear()


@pytest.fixture(autouse=True)
def empty_parse_memo():
    _parsed.cache_clear()
    yield
    _parsed.cache_clear()


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


def test_parse_memo_hits_repeats_within_its_bound():
    xy = ("x", "y")
    first = _parsed("x^2+y^3", xy)
    assert _parsed("x^2+y^3", xy) is first
    assert _parsed("x^2+y^3", ("y", "x")) != first  # the variables are part of the key
    info = _parsed.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 1)
    assert info.maxsize == _solved.cache_info().maxsize
    for k in range(1, info.maxsize + 2):
        _parsed("x^%d" % k, xy)
    info = _parsed.cache_info()
    assert info.currsize == info.maxsize
    assert info.misses == 2 + info.maxsize + 1


@pytest.mark.parametrize("text,variables,error", [
    ("x^^2", ("x",), ParseError),
    ("x+1/0", ("x",), ParseError),
    ("x", ("x", "x"), InputError),
    ("x", ("1x",), InputError),
])
def test_parse_errors_are_raised_on_every_call(text, variables, error):
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            _parsed(text, variables)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    info = _parsed.cache_info()
    assert (info.currsize, info.misses, info.hits) == (0, 3, 0)


def test_parse_memo_calls_the_parser_on_misses_only(monkeypatch, capsys):
    calls = []

    def recorder(text, variables):
        calls.append((text, variables))
        return parse_polynomial(text, variables)

    monkeypatch.setattr(cli, "parse_polynomial", recorder)
    _parsed("x^2+y^3", ("x", "y"))
    assert calls == [("x^2+y^3", ("x", "y"))]
    _parsed("x^2+y^3", ("x", "y"))
    assert len(calls) == 1
    calls.clear()
    assert main(["fpt-bound", *PAIR, "--p", "5"]) == 0
    assert calls == [("x^2+x*y^2", ("x", "y", "z")), ("y*z^3", ("x", "y", "z"))]
    calls.clear()
    for p in PRIMES:
        assert main(["verify-prime", *PAIR, "--p", str(p)]) == 0
    assert calls == []
    capsys.readouterr()


def _seeded_tuples(rng, count):
    """Generator texts in x, y, z: one to three generators, each one to
    three terms with small coefficients and exponents, no constant term."""
    tuples = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = set()
            while len(terms) < rng.randint(1, 3):
                exps = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                if any(exps):
                    terms.add(exps)
            gens.append("+".join(
                "%d*x^%d*y^%d*z^%d" % (rng.randint(1, 6), *exps) for exps in sorted(terms)))
        tuples.append(",".join(gens))
    return tuples


def test_prime_sweep_output_does_not_depend_on_the_parse_memo(capsys):
    texts = [PAIR[3], *_seeded_tuples(random.Random(26), 3)]
    argvs = [[command, "--vars", "x,y,z", "--gens", text, "--p", str(p), *extra]
             for text in texts for p in PRIMES
             for command, extra in (("fpt-bound", []), ("fvol-bound", []),
                                    ("verify-prime", []), ("nu", ["--e", "1"]),
                                    ("witness", ["--e", "1"]))]

    def sweep(clear):
        out = []
        for argv in argvs:
            if clear:
                _parsed.cache_clear()
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    fresh = sweep(clear=True)
    _parsed.cache_clear()
    assert sweep(clear=False) == fresh
    assert {code for code, _ in fresh} <= {0, 2, 3}
    info = _parsed.cache_info()
    keys = {(t, ("x", "y", "z")) for text in texts for t in text.split(",")}
    assert info.misses == info.currsize == len(keys)
    assert info.hits == sum(len(argv[4].split(",")) for argv in argvs) - len(keys)
    # the memo hands one Polynomial to every job: no handler changed it
    for key in keys:
        cached, again = _parsed(*key), parse_polynomial(*key)
        assert (cached.ring, cached.varcount, list(cached.terms.items())) == (
            again.ring, again.varcount, list(again.terms.items()))
    assert _parsed.cache_info().misses == len(keys)
