"""The certificate pipeline's memos: ``geometry._solved`` answers every
repeat of an exponent matrix from one solve, ``cli._parsed`` every
repeat of a generator text from one parse, and ``thresholds._certified``
every repeat of a (generator tuple, p, budgets) from one search, whose
multisets every ``fpt_bound`` call charges; the certificate carries its block floors, so
``fvolume_lower_bound`` multiplies them without rebuilding;
``thresholds._classified`` answers every repeat of a rational generator
tuple from one classification, and ``budgets._parsed_env`` every repeat
of the FPTCERT_* texts from one parse; all are bounded, refusals are
raised on every call, and the output and the meter totals are the same
as with a fresh solve, parse and certificate on every call."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from fptcert import cli, geometry, thresholds
from fptcert.basep import INFINITY, _byte_table, _walk, is_prime
from fptcert.budgets import Budgets, Meter, _parsed_env
from fptcert.cli import _parsed, main
from fptcert.errors import (
    BudgetExceeded,
    EmptyBlock,
    FptcertError,
    InputError,
    NonUniqueMaximalPoint,
    ParseError,
    RingMismatch,
)
from fptcert.fvolume import fvolume_lower_bound
from fptcert.geometry import ExponentMatrix, _solved, maximal_point
from fptcert.polyring import parse_polynomial
from fptcert.thresholds import (
    _block_floors,
    _certified,
    _classified,
    _unique_rho,
    fpt_bound,
    lct_fpt_classifier,
)
from test_fraction_free import _random_matrix
from test_geometry import gens, matrix_of

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


@pytest.fixture(autouse=True)
def empty_certificate_memo():
    _certified.cache_clear()
    yield
    _certified.cache_clear()


@pytest.fixture(autouse=True)
def empty_classifier_memo():
    _classified.cache_clear()
    yield
    _classified.cache_clear()


def _fields(cert):
    return (cert.M, cert.rho, cert.unique, cert.coordinate_ranges, cert.dual,
            cert.block_sizes)


def _recording(monkeypatch, name, module=geometry):
    """Replace ``module.<name>`` by a wrapper that records its first
    argument; returns the list of recorded arguments."""
    calls, original = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
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
            _certified.cache_clear()
            _classified.cache_clear()
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
    # every other memo keyed by user input keeps its bound too
    fills = {
        _parsed: lambda k: _parsed("x^%d" % k, ("x",)),
        _certified: lambda k: fpt_bound(gens("x^%d+y" % k), 5),
        _classified: lambda k: lct_fpt_classifier(gens("x^%d+y" % k)),
        _parsed_env: lambda k: Budgets.from_env({"FPTCERT_MAX_TERMS": str(k)}),
    }
    for memo, fill in fills.items():
        memo.cache_clear()
        size = memo.cache_info().maxsize
        assert isinstance(size, int) and size <= maxsize
        for k in range(1, size + 2):
            fill(k)
        info = memo.cache_info()
        assert (info.currsize, info.misses) == (size, size + 1), memo
    # the digit tables are kept only for bases up to 256: a walk at a
    # prime past 256 reads the one shared table and keeps nothing
    kept = _byte_table.cache_info().currsize
    primes = [q for q in range(257, 10**5) if is_prime(q)][:1000]
    assert len(primes) == 1000
    for q in primes:
        period = [(q - 1) // 3] if q % 3 == 1 else [(q - 2) // 3, (2 * q - 1) // 3]
        assert _walk(Fraction(1, 3), q) == ((), period)
    assert _byte_table.cache_info().currsize == kept
    # of the bases up to 256 it keeps the 16 tables used last: a sweep of
    # three long periods over every base reads 255 of them.  Each walk stops
    # on its budget right after reading its table, so the sweep builds the
    # tables of the whole walks without paying for those under tracemalloc
    _byte_table.cache_clear()
    tracemalloc.start()
    try:
        for q in range(2, 257):
            for d in (5003, 12297, 8209):
                with pytest.raises(BudgetExceeded):
                    _walk(Fraction(1, d), q, Meter(Budgets(max_multisets=1)))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _byte_table.cache_info()[1:] == (255, 16, 16)  # misses, maxsize, currsize
    assert held < 2**20  # 6.6 MiB when every table is kept


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


CERTIFYING = ("fpt-bound", "fvol-bound", "verify-prime")


def _certify_argvs(texts):
    """Each text at each prime through the three commands that call
    fpt_bound, in the order of a prime sweep."""
    return [[command, "--vars", "x,y,z", "--gens", text, "--p", str(p)]
            for text in texts for p in PRIMES for command in CERTIFYING]


@pytest.fixture
def meters(monkeypatch):
    """The meters the CLI handlers make, in order of making."""
    made = []

    class Recording(Meter):
        def __init__(self, budgets=None):
            super().__init__(budgets)
            made.append(self)

    monkeypatch.setattr(cli, "Meter", Recording)
    return made


def _job(capsys, meters, argv, clear=False):
    """(exit code, stdout, stderr, multisets charged) of one CLI call, with
    the certificate memo emptied first when ``clear``."""
    if clear:
        _certified.cache_clear()
    meters.clear()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, sum(m.multisets for m in meters)


def test_prime_sweep_matches_cold_certificates(monkeypatch, capsys, meters):
    argvs = _certify_argvs(_seeded_tuples(random.Random(30), 100))
    solves = _recording(monkeypatch, "_unique_rho", thresholds)
    cold = [_job(capsys, meters, argv, clear=True) for argv in argvs]
    cold_solves = len(solves)
    assert {code for code, *_ in cold} == {0, 2, 3}
    assert sum(charged >= 2 for *_, charged in cold) >= 100
    warm = [_job(capsys, meters, argv) for argv in argvs]
    assert warm == cold
    # a repeat of (tuple, p) is answered from the memo, so fewer solves
    assert len(solves) - cold_solves < cold_solves
    order = list(range(len(argvs)))
    random.Random(31).shuffle(order)
    shuffled = {i: _job(capsys, meters, argvs[i]) for i in order}
    assert [shuffled[i] for i in range(len(argvs))] == cold
    assert _certified.cache_info().currsize == 256


def test_budget_edge_is_the_same_warm_and_cold(capsys, meters):
    """At a charge c the budget c passes and c - 1 exits 4; budget 1 is
    met one past the cap.  A refused call leaves nothing in the memo."""
    argvs = _certify_argvs(_seeded_tuples(random.Random(30), 100))
    cases = [(argv, charged) for argv in argvs
             for code, _, _, charged in [_job(capsys, meters, argv, clear=True)]
             if code == 0 and charged >= 2]
    assert sum(charged >= 3 for _, charged in cases) >= 10
    for argv, charged in cases:
        for budget in {charged, charged - 1, 1}:
            edged = argv + ["--max-multisets", str(budget)]
            cold = _job(capsys, meters, edged, clear=True)
            if budget < charged:
                assert cold[0] == 4 and not _certified.cache_info().currsize
                assert "multiset budget exhausted (%d > %d)" % (budget + 1, budget) in cold[2]
            else:
                assert cold[0] == 0
            _job(capsys, meters, argv)
            assert _job(capsys, meters, edged) == cold, edged



def test_spent_meters_at_the_budget_edge_cold_and_warm():
    """Library calls on meters already spent s, at caps around each
    seeded charge c: cold and warm give the same certificate or the same
    refusal, a refusal exactly when s + c passes the cap, and a refused
    meter reads cap + 1, whether the search or the caller's charge passed it."""
    cases = []
    for text in _seeded_tuples(random.Random(30), 100):
        generators = gens(*text.split(","))
        for p in PRIMES:
            meter = Meter()
            try:
                fpt_bound(generators, p, meter)
            except FptcertError:
                continue
            if meter.multisets >= 2:
                cases.append((generators, p, meter.multisets))
    assert len(cases) >= 50 and any(charged >= 3 for *_, charged in cases)

    def call(generators, p, cap, spent):
        meter = Meter(Budgets(max_multisets=cap))
        meter.charge_multisets(spent)
        try:
            outcome = fpt_bound(generators, p, meter)
        except BudgetExceeded as exc:
            outcome = str(exc)
        return outcome, meter.multisets

    for generators, p, charged in cases:
        for cap in (charged - 1, charged, charged + 1):
            for spent in sorted({0, 1, cap - charged, cap} - {-1}):
                _certified.cache_clear()
                cold = call(generators, p, cap, spent)
                assert call(generators, p, cap, spent) == cold, (generators, p, cap, spent)
                if spent + charged > cap:
                    assert cold == ("multiset budget exhausted (%d > %d)" % (cap + 1, cap),
                                    cap + 1)
                else:
                    assert cold[1] == spent + charged
                    assert cold[0] == fpt_bound(generators, p)

@pytest.mark.parametrize("texts,p,error", [
    (("x+x*y^2", "y*z^2"), 5, NonUniqueMaximalPoint),
    (("x+y", "y"), 5, EmptyBlock),
    (("3*x", "y"), 3, InputError),  # reduces to zero mod 3
])
def test_certificate_errors_are_raised_on_every_call(monkeypatch, texts, p, error):
    generators = gens(*texts)
    solves = _recording(monkeypatch, "_unique_rho", thresholds)
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            fpt_bound(generators, p)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert len(solves) == 3 and not _certified.cache_info().currsize


def test_certificate_memo_keeps_the_256_most_recently_used():
    generators = [tuple(gens("x^%d+y" % k)) for k in range(1, 258)]
    first = fpt_bound(generators[0], 5)
    assert fpt_bound(list(generators[0]), 5) is first  # keyed on the gate's tuple
    assert fpt_bound(generators[0], 7) is not first  # and on p
    _certified.cache_clear()
    for g in generators[:256]:
        fpt_bound(g, 5)
    assert _certified.cache_info().currsize == 256
    fpt_bound(generators[0], 5)  # a hit makes it the most recently used
    fpt_bound(generators[256], 5)
    assert _certified.cache_info().currsize == 256
    hits, misses = _certified.cache_info()[:2]
    fpt_bound(generators[0], 5)
    assert _certified.cache_info()[:2] == (hits + 1, misses)
    fpt_bound(generators[1], 5)
    assert _certified.cache_info()[:2] == (hits + 1, misses + 1)


def test_certificate_floors_are_the_block_floors_cold_and_warm(monkeypatch):
    """The floors a certificate carries are the block floors at level
    INFINITY; the threshold bound is their sum and the volume bound their
    product, and a warm ``fvolume_lower_bound`` builds no floor."""
    cases = []
    for text in _seeded_tuples(random.Random(32), 100):
        generators = gens(*text.split(","))
        for p in PRIMES:
            try:
                fpt_bound(generators, p)
            except FptcertError:
                continue
            cases.append((generators, p))
    assert len(cases) >= 200
    calls = _recording(monkeypatch, "_block_floors", thresholds)
    deep = 0
    for generators, p in cases:
        _certified.cache_clear()
        for warm in (False, True):
            cert = fpt_bound(generators, p)
            expected = tuple(_block_floors(p, cert.rho_blocks, cert.horizons, INFINITY))
            assert cert.floors == expected, (generators, p)
            assert cert.value == sum(cert.floors)
            calls.clear()
            assert fvolume_lower_bound(generators, p).bound == math.prod(cert.floors)
            assert not (warm and calls), (generators, p)
        deep += expected != tuple(_block_floors(p, cert.rho_blocks, cert.horizons, 1))
    # so floors taken at a finite level would fail the checks above
    assert deep >= 100


CLASSIFIED = ("x^2+x*y^2,y*z^3", "x^2+y^3,y^2+z^3", "x^3+y^3+z^3", "x^2+y^3+z^5")


def test_verify_prime_sweep_classifies_each_tuple_once(monkeypatch, capsys):
    """verify-prime at the six primes runs the classifier's own solve
    (``_unique_rho`` with no p) once per tuple; each job reports only its
    own prime, so no job changed the verdict the memo hands out."""
    calls, original = [], thresholds._unique_rho

    def recording(generators, p=None):
        calls.append(p)
        return original(generators, p)

    monkeypatch.setattr(thresholds, "_unique_rho", recording)
    for text in CLASSIFIED:
        for p in PRIMES:
            assert main(["verify-prime", "--vars", "x,y,z", "--gens", text,
                         "--p", str(p)]) == 0
            verdict = json.loads(capsys.readouterr().out)["result"]["verdict"]
            assert [q for q, _ in verdict["checked_primes"]] == [p]
    assert calls.count(None) == len(CLASSIFIED)
    info = _classified.cache_info()
    assert (info.misses, info.hits) == (len(CLASSIFIED), 5 * len(CLASSIFIED))


def test_the_shared_verdict_is_frozen():
    verdict = lct_fpt_classifier(gens("x^2+y^3", "y^2+z^3"))
    assert lct_fpt_classifier([*gens("x^2+y^3", "y^2+z^3")]) is verdict
    checked = verdict.with_checked(5, True)
    assert (verdict.checked_primes, checked.checked_primes) == ((), ((5, True),))
    with pytest.raises(AttributeError):
        verdict.checked_primes = ((7, True),)


@pytest.mark.parametrize("texts,error", [
    (("x+x*y^2", "y*z^2"), NonUniqueMaximalPoint),
    (("x+y", "y"), EmptyBlock),
])
def test_classifier_refusals_are_raised_on_every_call(monkeypatch, texts, error):
    generators = gens(*texts)
    solves = _recording(monkeypatch, "_unique_rho", thresholds)
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            lct_fpt_classifier(generators)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert len(solves) == 3 and not _classified.cache_info().currsize


def test_classifier_checks_the_ring_before_its_memo():
    # a list is no key of the memo: checked first, it is a RingMismatch
    with pytest.raises(RingMismatch, match=r"^classifier expects rational "
                                           r"generators \(generator 0\)$"):
        lct_fpt_classifier([[1]])
    with pytest.raises(RingMismatch, match=r"\(generator 1\)$"):
        lct_fpt_classifier([*gens("x^2"), *thresholds._to_fp_generators(gens("y^3"), 5)])
    assert _classified.cache_info().misses == 0


def test_a_changed_environment_counts_on_the_next_call(monkeypatch, capsys):
    def echoed():
        code = main(["fpt-bound", *PAIR, "--p", "5"])
        payload = json.loads(capsys.readouterr().out)
        return code, payload.get("input", {}).get("budgets", {}).get("max_multisets")

    _parsed_env.cache_clear()
    monkeypatch.delenv("FPTCERT_MAX_MULTISETS", raising=False)
    monkeypatch.delenv("FPTCERT_MAX_TERMS", raising=False)
    monkeypatch.delenv("FPTCERT_MAX_DIMENSION", raising=False)
    assert echoed() == (0, 10**6)
    monkeypatch.setenv("FPTCERT_MAX_MULTISETS", "1000")
    assert echoed() == (0, 1000)
    monkeypatch.setenv("FPTCERT_MAX_MULTISETS", "2000")
    assert echoed() == (0, 2000)
    monkeypatch.setenv("FPTCERT_MAX_MULTISETS", "x")
    assert echoed() == echoed() == (4, None)  # refused on every call
    monkeypatch.setenv("FPTCERT_MAX_MULTISETS", "1000")
    assert echoed() == (0, 1000)
    # parsed once per distinct tuple of texts: the unset one, 1000, 2000
    assert _parsed_env.cache_info().misses == 3 + 2
