"""Seeded job lists for the three benchmark workloads.

A job is one command line for ``fptcert.cli.main`` plus what the output
checker needs to know about it.  Everything here is plain stdlib code
that never imports ``fptcert``: the expected matrices, carry horizons,
periods and counts are worked out from the construction of each input,
so the program under test never chooses or describes its own inputs.

The oracle and enumerate lists start with their named cases (the ROADMAP
baseline rows), which therefore run in every timed run and every traced
pass.  Seeded jobs follow, drawn in a fixed rotation of shapes so that
any prefix of a list holds a balanced mix.
"""

import itertools
import math
import random

WORKLOADS = ("certify", "oracle", "enumerate")
VARIABLES = ("x", "y", "z", "w")
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)
CERTIFY_COEFFS = (1, 1, 1, 1, -1, -1, 2, -2, 3, 4, 5, 6)
# Highest Frobenius exponent per prime in the oracle e-ladders.
LADDER_TOP = {2: 4, 3: 3, 5: 2, 7: 2}
ACCEPTANCE_PAIR = "x^2+x*y^2,y*z^3"

# Jobs generated per workload: enough for a run of --seconds 60, so a run
# never wraps around its list.
LIST_LENGTH = {"certify": 4500, "oracle": 5000, "enumerate": 1200}


class Job:
    """One CLI invocation: ``argv`` for ``fptcert.cli.main``, the
    ``check`` kind and its ``data`` for the checker, and ``props`` (input
    properties: exponent-matrix key, N, q, window)."""

    __slots__ = ("argv", "check", "data", "props")

    def __init__(self, argv, check, data=None, props=None):
        self.argv = list(argv)
        self.check = check
        self.data = data or {}
        self.props = props or {}

    def __repr__(self):
        return "Job(%r)" % (self.argv,)


def grlex_key(monomial):
    return (sum(monomial), tuple(-e for e in monomial))


def poly_text(terms, names):
    """Parser syntax for {exponent tuple: integer coefficient}."""
    out = ""
    for exps, coeff in terms.items():
        factors = [
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in zip(names, exps)
            if e
        ]
        body = "*".join(factors)
        text = body if abs(coeff) == 1 else "%d*%s" % (abs(coeff), body)
        out += ("-" if coeff < 0 else "+" if out else "") + text
    return out


def reduced_blocks(gens, p=None):
    """Exponent-matrix blocks of integer-coefficient generators over QQ
    (p None) or GF(p): per generator, the monomials with nonzero
    coefficient that no earlier generator has, grlex-sorted.

    Returns ("zero", i) when generator i vanishes mod p, ("empty", i)
    when generator i contributes no new monomial, else ("ok", blocks).
    """
    reduced = []
    for i, terms in enumerate(gens):
        kept = {mon: c for mon, c in terms.items() if p is None or c % p}
        if not kept:
            return ("zero", i)
        reduced.append(kept)
    seen = set()
    blocks = []
    for i, terms in enumerate(reduced):
        fresh = set(terms) - seen
        if not fresh:
            return ("empty", i)
        blocks.append(tuple(sorted(fresh, key=grlex_key)))
        seen |= set(terms)
    return ("ok", tuple(blocks))


def _matrix_props(outcome):
    if outcome[0] != "ok":
        return {}
    blocks = outcome[1]
    return {"matrix": blocks, "N": sum(len(b) for b in blocks)}


def _monomial(rng, m, top=3, degree=4):
    while True:
        exps = tuple(rng.randint(0, top) for _ in range(m))
        if 1 <= sum(exps) <= degree:
            return exps


# --- certify ---------------------------------------------------------------

# (variables, terms per generator) of each slot in the rotation; the
# monomials of one tuple are distinct, except in the last slot, whose
# second generator repeats monomials of the first (an EmptyBlock input).
# Fixing the sizes keeps the cost of a rotation nearly seed-independent.
CERTIFY_SHAPES = (
    (2, (3,)), (3, (4,)), (4, (4,)),
    (2, (2, 3)), (3, (3, 3)), (4, (3, 3)),
    (2, (2, 2, 2)), (3, (2, 3, 2)), (3, (3, 2)),
)


def _certify_jobs(rng, length):
    jobs = []
    for index in itertools.count():
        if len(jobs) >= length:
            break
        m, sizes = CERTIFY_SHAPES[index % len(CERTIFY_SHAPES)]
        repeat = index % len(CERTIFY_SHAPES) == len(CERTIFY_SHAPES) - 1
        pool = set()
        while len(pool) < sum(sizes):
            pool.add(_monomial(rng, m))
        pool = sorted(pool)
        rng.shuffle(pool)
        gens, start = [], 0
        for size in sizes:
            gens.append({mon: rng.choice(CERTIFY_COEFFS) for mon in pool[start:start + size]})
            start += size
        if repeat:
            gens[1] = {mon: rng.choice(CERTIFY_COEFFS) for mon in pool[:sizes[1]]}
        names = VARIABLES[:m]
        poly_args = [
            "--vars=" + ",".join(names),
            # "=" keeps a leading minus sign from reading as a flag
            "--gens=" + ",".join(poly_text(g, names) for g in gens),
        ]
        data = {"gens": gens, "group": index}
        qq = reduced_blocks(gens)
        jobs.append(Job(["classify"] + poly_args, "classify",
                        dict(data, outcome=qq), _matrix_props(qq)))
        for p in SWEEP_PRIMES:
            outcome = reduced_blocks(gens, p)
            props = dict(_matrix_props(outcome), q=p)
            job_data = dict(data, p=p, outcome=outcome, qq=qq)
            for command in ("fpt-bound", "fvol-bound", "verify-prime"):
                jobs.append(Job([command] + poly_args + ["--p", str(p)],
                                command, job_data, props))
    return jobs[:length]


# --- oracle ----------------------------------------------------------------

def _oracle_named():
    cubic = ["--vars", "x,y,z", "--gens", "x^3+y^3+z^3+x*y*z"]
    triple = ["--vars", "x,y,z", "--gens", "x^2+y^3,y^2+z^3,z^2+x^3"]
    pair = ["--vars", "x,y,z", "--gens", ACCEPTANCE_PAIR]
    pair_terms = [{(2, 0, 0): 1, (1, 2, 0): 1}, {(0, 1, 3): 1}]
    jobs = [
        Job(["nu"] + cubic + ["--p", "5", "--e", "3"], "nu",
            {"frozen": 99, "p": 5, "e": 3}, {"q": 125, "named": "nu cubic p=5 e=3"}),
        Job(["nu"] + triple + ["--p", "5", "--e", "2"], "nu",
            {"frozen": 36, "p": 5, "e": 2}, {"q": 25, "named": "nu triple p=5 e=2"}),
        Job(["fvol-estimate", "--vars", "x,y", "--ideals", "x;x+y^2",
             "--p", "2", "--e-max", "7"], "fvol-estimate",
            {"a": 1, "b": 2, "frozen": 12288},
            {"q": 128, "named": "fvol-estimate (x; x+y^2) p=2 e<=7"}),
    ]
    for p, frozen in ((2, [0, 2, 5]), (3, [1, 7])):
        jobs.append(Job(
            ["fpt-estimate"] + pair + ["--p", str(p), "--e-max", str(len(frozen))],
            "fpt-estimate", {"gens": pair_terms, "m": 3, "frozen": frozen},
            {"q": p ** len(frozen), "named": "fpt-estimate pair p=%d" % p}))
    for p, e in ((7, 1), (2, 2), (3, 2)):
        jobs.append(Job(["witness"] + pair + ["--p", str(p), "--e", str(e)],
                        "witness", {}, {"q": p**e, "named": "witness pair"}))
    return jobs


def _diagonal(rng, names, p):
    """c_1 x_1^a_1 + ... with exponents 2..4 and units mod p."""
    terms = {}
    for i in range(len(names)):
        exps = [0] * len(names)
        exps[i] = rng.randint(2, 4)
        terms[tuple(exps)] = rng.randint(1, p - 1)
    return terms


ORACLE_SHAPES = tuple(
    (family, p) for p in (2, 3, 5, 7) for family in ("curve", "surface", "pair", "volume")
)


def _oracle_jobs(rng, length):
    jobs = _oracle_named()
    for index in itertools.count():
        if len(jobs) >= length:
            break
        family, p = ORACLE_SHAPES[index % len(ORACLE_SHAPES)]
        ladder = range(1, LADDER_TOP[p] + 1)
        if family == "volume":
            a, b = rng.randint(1, 2), rng.randint(2, 3)
            c = rng.randint(1, p - 1)
            ideals = "%s;%s" % (poly_text({(a, 0): 1}, "xy"),
                                poly_text({(a, 0): 1, (0, b): c}, "xy"))
            for e in ladder:
                jobs.append(Job(
                    ["fvol-count", "--vars", "x,y", "--ideals", ideals,
                     "--p", str(p), "--e", str(e)],
                    "fvol-count", {"a": a, "b": b, "p": p, "e": e},
                    {"q": p**e, "matrix": ((a, 0), (0, b))}))
            continue
        if family in ("curve", "surface"):
            names = VARIABLES[:2 if family == "curve" else 3]
            gens = [_diagonal(rng, names, p)]
        else:
            names = VARIABLES
            first = _diagonal(rng, names[:2], p)
            second = _diagonal(rng, names[2:], p)
            gens = [{k + (0, 0): v for k, v in first.items()},
                    {(0, 0) + k: v for k, v in second.items()}]
        poly_args = ["--vars", ",".join(names),
                     "--gens", ",".join(poly_text(g, names) for g in gens)]
        outcome = reduced_blocks(gens, p)
        for e in ladder:
            props = dict(_matrix_props(outcome), q=p**e)
            data = {"gens": gens, "m": len(names), "p": p, "e": e}
            jobs.append(Job(["nu"] + poly_args + ["--p", str(p), "--e", str(e)],
                            "nu", data, props))
            jobs.append(Job(["witness"] + poly_args + ["--p", str(p), "--e", str(e)],
                            "witness", data, props))
    return jobs[:length]


# --- enumerate -------------------------------------------------------------

def is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def multiplicative_order(p, q):
    """Order of p modulo the prime q (the period of 1/q in base p)."""
    order = q - 1
    n, d = q - 1, 2
    factors = set()
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for f in factors:
        while order % f == 0 and pow(p, order // f, q) == 1:
            order //= f
    return order


def carry_block(p, periods):
    """The block 1/(p^L - 1) per period L: base-p digit 1 at the
    multiples of L and 0 elsewhere, so the first carry comes at the
    first level divisible by p of the periods."""
    first = min(math.lcm(*c) for c in itertools.combinations(periods, p))
    return ",".join("1/%d" % (p**L - 1) for L in periods), first - 1


def _carry_job(p, periods, props=None):
    block, horizon = carry_block(p, periods)
    props = dict(props or {}, window=horizon + 1)
    return Job(["carry", "--block", block, "--p", str(p)], "carry",
               {"p": p, "periods": tuple(periods), "horizon": horizon}, props)


def _digits_job(p, q, props=None):
    period = multiplicative_order(p, q)
    props = dict(props or {}, window=period)
    return Job(["digits", "--alpha", "1/%d" % q, "--p", str(p)], "digits",
               {"p": p, "q": q, "period": period}, props)


def _polytope_job(gens, names, props=None):
    outcome = reduced_blocks(gens)
    props = dict(props or {}, **_matrix_props(outcome))
    args = ["polytope", "--vars", ",".join(names),
            "--gens", ",".join(poly_text(g, names) for g in gens)]
    return Job(args, "polytope", {"outcome": outcome}, props)


N9_GENERATORS = (
    {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 1, 1): 1},
    {(0, 2, 0, 0): 1, (0, 0, 3, 0): 1, (1, 0, 0, 1): 1},
    {(0, 0, 2, 0): 1, (0, 0, 0, 3): 1, (1, 1, 0, 0): 1},
)

# (p, window) of the seeded carry scans: about 0.13 s each on the seed
# code, more than any seeded polytope, so that the sixth of the jobs that
# are full carry scans hold the p90 latency in a narrow band.
CARRY_SHAPES = ((2, 150000), (3, 110000))

# (m, N) pairs of the seeded polytopes; C(m + N, N) bases stays at most 210.
POLYTOPE_SHAPES = ((2, 8), (3, 6), (4, 5), (2, 10), (3, 8), (4, 6), (2, 6), (3, 7), (4, 5))


def _random_polytope(rng, m, width):
    pool = set()
    while len(pool) < width:
        pool.add(_monomial(rng, m))
    pool = sorted(pool)
    rng.shuffle(pool)
    t = rng.randint(1, min(3, width))
    cuts = sorted(rng.sample(range(1, width), t - 1))
    bounds = [0] + cuts + [width]
    return [
        {mon: 1 for mon in pool[bounds[i]:bounds[i + 1]]} for i in range(t)
    ]


def _enumerate_jobs(rng, length):
    jobs = [
        _polytope_job(N9_GENERATORS, VARIABLES, {"named": "polytope N=9"}),
        _carry_job(3, (97, 89, 83), {"named": "carry p=3 L=97,89,83"}),
        _digits_job(3, 1000003, {"named": "digits 1/1000003 p=3"}),
    ]
    for index in itertools.count():
        if len(jobs) >= length:
            break
        kind = index % 3
        if kind == 0:
            m, width = POLYTOPE_SHAPES[(index // 3) % len(POLYTOPE_SHAPES)]
            jobs.append(_polytope_job(_random_polytope(rng, m, width), VARIABLES[:m]))
        elif kind == 1:
            # p periods whose product lands within 5% of the window, and
            # every other time one short period that ends the scan early
            slot = index // 3
            p, window = CARRY_SHAPES[slot % len(CARRY_SHAPES)]
            low = 300 if p == 2 else 17
            periods = [next_prime(rng.randint(low, 2 * low + 13)) for _ in range(p - 1)]
            periods.append(next_prime(rng.randint(window, window * 21 // 20) // math.prod(periods)))
            if (slot // len(CARRY_SHAPES)) % 2:
                periods.append(next_prime(rng.randint(5, 13)))
            for i in range(1, len(periods)):
                while periods[i] in periods[:i]:
                    periods[i] = next_prime(periods[i] + 1)
            jobs.append(_carry_job(p, periods))
        else:
            # 1/q with p a primitive root mod q, so the period is q - 1
            p = (2, 3, 5, 7)[(index // 3) % 4]
            q = next_prime(rng.randint(40000, 44000))
            while multiplicative_order(p, q) != q - 1:
                q = next_prime(q + 1)
            jobs.append(_digits_job(p, q))
    return jobs[:length]


_GENERATORS = {
    "certify": _certify_jobs,
    "oracle": _oracle_jobs,
    "enumerate": _enumerate_jobs,
}


def job_list(workload, seed, length=None):
    """The seeded job list of a workload; the same seed gives the same
    list."""
    if workload not in _GENERATORS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    return _GENERATORS[workload](rng, length or LIST_LENGTH[workload])
