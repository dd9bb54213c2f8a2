"""Output checks for benchmark jobs.

``Checker.check(job, code, out)`` returns None when the output of one
CLI call is correct, else a one-line reason.  A job fails when it exits
with a budget error (exit 4), an unexpected code or error kind, or an
output that fails its check.  A typed refusal (exit 2 or 3) counts as an
answer only where the checker expects that kind for that input.

The checks re-derive what they can from the construction of the input
with their own arithmetic (digits, carry horizons, Lucas counts,
polytope feasibility).  Only the oracle bracket ``p^e * witness_floor
<= nu <= p^e * min(t, upper_bound)`` calls the library, as the
acceptance tests do: the certificate path it uses shares no code with
the brute-force oracle it checks.
"""

import json
import math
from fractions import Fraction

BUDGET_EXIT = 4


def _fractions(values):
    return [Fraction(v) for v in values]


def _flat(blocks):
    return [x for block in blocks for x in block]


def _feasible(blocks, rho_blocks):
    """rho >= 0 and E rho <= 1 for the matrix whose columns are the
    exponent tuples of ``blocks``, in order."""
    columns = _flat(blocks)
    rho = _flat(rho_blocks)
    if [len(b) for b in blocks] != [len(b) for b in rho_blocks]:
        return False
    if any(v < 0 for v in rho):
        return False
    varcount = len(columns[0])
    return all(
        sum(col[i] * v for col, v in zip(columns, rho)) <= 1 for i in range(varcount)
    )


def _digit_cycle(alpha, p):
    """Nonterminating base-p digits of alpha in (0, 1] as (preperiod,
    period): state n/d emits ceil(p n / d) - 1."""
    num, den = alpha.numerator, alpha.denominator
    seen, out = {}, []
    while num not in seen:
        seen[num] = len(out)
        digit = -((-p * num) // den) - 1
        out.append(digit)
        num = p * num - digit * den
    start = seen[num]
    return out[:start], out[start:]


def _digit(cycle, k):
    pre, period = cycle
    if k <= len(pre):
        return pre[k - 1]
    return period[(k - len(pre) - 1) % len(period)]


def horizon(block, p):
    """Last level through which the digits of ``block`` sum to at most
    p - 1 at every position, or "inf"."""
    cycles = [_digit_cycle(a, p) for a in block if a > 0]
    if not cycles:
        return "inf"
    window = max(len(c[0]) for c in cycles) + math.lcm(*[len(c[1]) for c in cycles])
    for k in range(1, window + 1):
        if sum(_digit(c, k) for c in cycles) > p - 1:
            return k - 1
    return "inf"


def _truncated_sum(block, p, s):
    """|<block>_s| + p^-s with integer ceilings."""
    scale = p**s
    total = sum(
        Fraction(-((-scale * a.numerator) // a.denominator) - 1, scale)
        for a in block
        if a > 0
    )
    return total + Fraction(1, scale)


def volume_count(a, b, p, e):
    """Card V(p^e) for the principal ideals (x^a), (x^a + c y^b), c a
    unit mod p: (n1, n2) escapes when some j <= n2 has C(n2, j) nonzero
    mod p (Lucas: every base-p digit of j at most that of n2),
    a (n1 + j) < q and b (n2 - j) < q."""
    q = p**e
    top_a, top_b = (q - 1) // a, (q - 1) // b

    def lucas(n, j):
        while n or j:
            if j % p > n % p:
                return False
            n, j = n // p, j // p
        return True

    count = 0
    for n2 in range(top_a + top_b + 1):
        for j in range(max(0, n2 - top_b), min(n2, top_a) + 1):
            if lucas(n2, j):
                count += top_a - j + 1
                break
    return count


def _first_digits_reach_p(block, p):
    """The first-digit predicate of the above-t case."""
    return sum(_digit(_digit_cycle(a, p), 1) for a in block if a > 0) >= p


class Checker:
    """Checks outputs in job order; certify jobs of one generator tuple
    are checked against each other (classify first, then per prime
    fpt-bound, fvol-bound and verify-prime)."""

    def __init__(self):
        self._group_id = None
        self._group = {}  # outcomes of the current tuple's jobs so far
        self._brackets = {}

    def _outcomes(self, job):
        """Outcomes recorded for the job's tuple; only the current tuple
        is kept, so memory does not grow with the number of jobs run."""
        if job.data["group"] != self._group_id:
            self._group_id, self._group = job.data["group"], {}
        return self._group

    def check(self, job, code, out):
        if code == BUDGET_EXIT:
            return "budget error: " + out.strip()[-200:]
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not one JSON document"
        if code != 0:
            kind = payload.get("error", {}).get("kind")
            expected = self._expected_refusal(job)
            if kind in expected:
                self._record(job, ("refused", kind))
                return None
            return "exit %d with %s, expected %s" % (code, kind, sorted(expected) or "success")
        if list(payload) != ["command", "input", "result", "version"]:
            return "payload keys %s" % list(payload)
        if payload["command"] != job.argv[0]:
            return "command echo %r" % payload["command"]
        result = payload["result"]
        handler = getattr(self, "_check_" + job.check.replace("-", "_"))
        reason = handler(job, result)
        if reason is None:
            self._record(job, ("ok", result))
        return reason

    # --- refusals -----------------------------------------------------------

    def _expected_refusal(self, job):
        if job.check == "classify":
            if job.data["outcome"][0] == "empty":
                return {"EmptyBlock"}
            return {"NonUniqueMaximalPoint"}
        if job.check in ("fpt-bound", "fvol-bound"):
            outcome = job.data["outcome"]
            if outcome[0] == "zero":
                return {"InputError"}
            if outcome[0] == "empty":
                return {"EmptyBlock"}
            group = self._outcomes(job)
            if job.check == "fvol-bound" and ("fpt-bound", job.data["p"]) in group:
                state, value = group[("fpt-bound", job.data["p"])]
                return {value} if state == "refused" else set()
            classify = group.get("classify")
            if classify is not None and outcome[1] == job.data["qq"][1]:
                state, value = classify
                unique = state == "ok"
                return set() if unique else {value}
            return {"NonUniqueMaximalPoint"}
        if job.check == "verify-prime":
            classify = self._outcomes(job).get("classify")
            if classify is None:
                return {"EmptyBlock", "NonUniqueMaximalPoint", "InputError"}
            state, value = classify
            if state == "refused":
                return {value}
            return {"InputError"} if value["case"] == "inconclusive" else set()
        return set()

    def _record(self, job, outcome):
        if "group" not in job.data:
            return
        group = self._outcomes(job)
        key = job.check if job.check == "classify" else (job.check, job.data["p"])
        group[key] = outcome

    # --- certify ------------------------------------------------------------

    def _check_classify(self, job, result):
        blocks = job.data["outcome"][1]
        rho = [_fractions(b) for b in result["rho"]]
        if not _feasible(blocks, rho):
            return "rho is not in the splitting polytope"
        sums = [sum(b, Fraction(0)) for b in rho]
        if _fractions(result["block_sums"]) != sums:
            return "block sums do not add up"
        t = len(job.data["gens"])
        if result["t"] != t:
            return "t = %r" % result["t"]
        if all(s > 1 for s in sums):
            case, value = "diagonal_above_t", Fraction(t)
        elif all(s <= 1 for s in sums):
            case, value = "diagonal_at_most_t", sum(sums)
        else:
            case, value = "inconclusive", None
        if result["case"] != case:
            return "case %s, expected %s" % (result["case"], case)
        got = None if result["value"] is None else Fraction(result["value"])
        if got != value:
            return "value %s, expected %s" % (got, value)
        return None

    def _check_fpt_bound(self, job, result):
        p = job.data["p"]
        if result["p"] != p:
            return "p echo"
        rho = [_fractions(b) for b in result["rho"]]
        if not _feasible(job.data["outcome"][1], rho):
            return "rho is not in the splitting polytope"
        classify = self._outcomes(job).get("classify")
        if (job.data["outcome"] == job.data["qq"] and classify
                and classify[0] == "ok" and classify[1]["rho"] != result["rho"]):
            return "rho differs from the classifier's over the same matrix"
        sums = [sum(b, Fraction(0)) for b in rho]
        value = Fraction(result["value"])
        upper = Fraction(result["upper_bound"])
        if upper != min(Fraction(len(rho)), sum(sums)):
            return "upper bound %s is not min(t, |rho|)" % upper
        if value > upper:
            return "value %s above the upper bound %s" % (value, upper)
        horizons = [horizon(b, p) for b in rho]
        if result["S"] != horizons:
            return "horizons %s, expected %s" % (result["S"], horizons)
        finite = [i for i, s in enumerate(horizons) if s != "inf"]
        if result["I"] != finite:
            return "finite indices %s" % result["I"]
        if not finite:
            expected_kind, expected = "exact", sum(sums)
        else:
            expected_kind = "lower_bound"
            expected = sum(
                _truncated_sum(b, p, horizons[i]) if i in finite else sums[i]
                for i, b in enumerate(rho)
            )
        if (result["kind"], value) != (expected_kind, expected):
            return "%s %s, expected %s %s" % (result["kind"], value, expected_kind, expected)
        return None

    def _check_fvol_bound(self, job, result):
        p = job.data["p"]
        if result["p"] != p or result["counts"] != []:
            return "p or counts echo"
        bound = Fraction(result["bound"])
        fpt = self._outcomes(job).get(("fpt-bound", p))
        if fpt is None:
            return None
        if fpt[0] != "ok":
            return "succeeded where fpt-bound refused"
        rho = [_fractions(b) for b in fpt[1]["rho"]]
        expected = Fraction(1)
        for block, s in zip(rho, fpt[1]["S"]):
            expected *= sum(block, Fraction(0)) if s == "inf" else _truncated_sum(block, p, s)
        if bound != expected:
            return "bound %s, expected %s" % (bound, expected)
        return None

    def _check_verify_prime(self, job, result):
        p = job.data["p"]
        group = self._outcomes(job)
        verdict, check = result["verdict"], result["check"]
        holds = check["holds"]
        classify = group.get("classify")
        if classify is not None:
            expected = dict(classify[1], checked_primes=[[p, holds]])
            if verdict != expected:
                return "verdict differs from the classifier's"
        if check["p"] != p or check["case"] != verdict["case"]:
            return "p or case echo"
        if Fraction(check["target_value"]) != Fraction(verdict["value"]):
            return "target value echo"
        preserved = all(c % p for g in job.data["gens"] for c in g.values())
        if check["newton_preserved"] != preserved:
            return "newton_preserved %s, expected %s" % (check["newton_preserved"], preserved)
        rho = [_fractions(b) for b in verdict["rho"]]
        if verdict["case"] == "diagonal_above_t":
            member = all(_first_digits_reach_p(b, p) for b in rho)
        else:
            member = all(horizon(b, p) == "inf" for b in rho)
        if check["predicate_member"] != member:
            return "predicate_member %s, expected %s" % (check["predicate_member"], member)
        if not preserved:
            if holds or check["certificate_kind"] is not None:
                return "certificate used although p changes the Newton polyhedron"
            return None
        kind, value = check["certificate_kind"], Fraction(check["certificate_value"])
        fpt = group.get(("fpt-bound", p))
        if fpt is not None and (fpt[0] != "ok" or (fpt[1]["kind"], Fraction(fpt[1]["value"])) != (kind, value)):
            return "certificate differs from fpt-bound at p"
        target = Fraction(verdict["value"])
        if verdict["case"] == "diagonal_above_t":
            expected_holds = value == target
        else:
            expected_holds = kind == "exact" and value == target
        if holds != expected_holds:
            return "holds %s, expected %s" % (holds, expected_holds)
        return None

    # --- oracle -------------------------------------------------------------

    def _bracket(self, gens, m, p, e):
        """(low, high) for nu(p^e) from the threshold certificate."""
        from fptcert.polyring import QQ, Polynomial
        from fptcert.thresholds import fpt_bound, witness_floor

        key = (json.dumps([sorted(g.items()) for g in gens]), p)
        if key not in self._brackets:
            polys = [Polynomial(QQ, m, {k: Fraction(v) for k, v in g.items()}) for g in gens]
            self._brackets[key] = fpt_bound(polys, p)
        cert = self._brackets[key]
        return p**e * witness_floor(cert, e), p**e * min(cert.t, cert.upper_bound)

    def _check_nu(self, job, result):
        p, e = job.data["p"], job.data["e"]
        value = result["nu"]
        if (result["p"], result["e"]) != (p, e) or Fraction(result["ratio"]) != Fraction(value, p**e):
            return "p, e or ratio echo"
        if "frozen" in job.data:
            return None if value == job.data["frozen"] else "nu %d, frozen %d" % (value, job.data["frozen"])
        low, high = self._bracket(job.data["gens"], job.data["m"], p, e)
        if not low <= value <= high:
            return "nu %d outside the bracket [%s, %s]" % (value, low, high)
        return None

    def _check_fpt_estimate(self, job, result):
        p = result["p"]
        values = [row[1] for row in result["rows"]]
        if values != job.data["frozen"]:
            return "rows %s, frozen %s" % (values, job.data["frozen"])
        for e, value, ratio, _ in result["rows"]:
            if Fraction(ratio) != Fraction(value, p**e):
                return "ratio at e=%d" % e
            low, high = self._bracket(job.data["gens"], job.data["m"], p, e)
            if not low <= value <= high:
                return "nu %d outside the bracket at e=%d" % (value, e)
        return None

    def _check_witness(self, job, result):
        if result["match"] is not True:
            return "witness coefficient mismatch"
        return None

    def _check_fvol_count(self, job, result):
        d = job.data
        expected = volume_count(d["a"], d["b"], d["p"], d["e"])
        if result["count"] != expected:
            return "count %s, expected %s" % (result["count"], expected)
        return None

    def _check_fvol_estimate(self, job, result):
        d = job.data
        p = result["p"]
        for e, count, ratio, _ in result["rows"]:
            if count != volume_count(d["a"], d["b"], p, e):
                return "count %s at e=%d" % (count, e)
            if Fraction(ratio) != Fraction(count, p ** (2 * e)):
                return "ratio at e=%d" % e
        if result["rows"][-1][1] != d["frozen"]:
            return "final count %s, frozen %s" % (result["rows"][-1][1], d["frozen"])
        return None

    # --- enumerate ----------------------------------------------------------

    def _check_polytope(self, job, result):
        blocks = job.data["outcome"][1]
        columns = _flat(blocks)
        rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
        if result["matrix"] != rows or result["block_sizes"] != [len(b) for b in blocks]:
            return "matrix differs from the generators' reduced supports"
        if result["vertices"] is None:
            return "vertices not listed"
        vertices = [_fractions(v) for v in result["vertices"]]
        for v in vertices:
            if len(v) != len(columns) or not _feasible([columns], [v]):
                return "vertex %s is not in the polytope" % (result["vertices"][0],)
        top = max(sum(v) for v in vertices)
        if Fraction(result["M"]) != top:
            return "M %s, largest vertex sum %s" % (result["M"], top)
        if result["unique"]:
            rho = _fractions(_flat(result["rho"]))
            if rho not in vertices or sum(rho) != top:
                return "rho is not a vertex of sum M"
        return None

    def _check_carry(self, job, result):
        if result["p"] != job.data["p"] or result["S"] != job.data["horizon"]:
            return "S %s, expected %s" % (result["S"], job.data["horizon"])
        return None

    def _check_digits(self, job, result):
        p, q, period = job.data["p"], job.data["q"], job.data["period"]
        if result["preperiod"] != [] or len(result["period"]) != period:
            return "period length %d, expected %d" % (len(result["period"]), period)
        # digit k of 1/q is floor(p * (p^(k-1) mod q) / q)
        step = max(1, period // 61)
        for k in range(1, period + 1, step):
            if result["period"][k - 1] != p * pow(p, k - 1, q) // q:
                return "period digit %d" % k
        for k, digit in enumerate(result["prefix"], 1):
            if digit != p * pow(p, k - 1, q) // q:
                return "prefix digit %d" % k
        return None
