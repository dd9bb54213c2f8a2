"""Spans around the calls into each fptcert layer, installed from
outside the package.

Most public functions are bound by name in the modules that use them
(``from .simplex import solve_lp`` in geometry, ``maximal_point`` in
thresholds, fvolume and cli, ...), so each wrapper replaces the function
at every binding site in every ``fptcert`` module, including its home
module so that calls inside that module are seen too.
``Polynomial.__mul__`` is wrapped on the class, and meters are counted
through a ``Meter`` subclass put wherever the original class is bound.
Names that a later version of the package no longer has are skipped and
read as zero.

Spans are aggregated in memory per name: calls, self time (span time
minus the time of the wrapped spans it encloses) and work counts.
"""

import functools
import math
import sys
import time

MODULES = ("cli", "polyring", "simplex", "geometry", "basep", "thresholds", "fvolume", "budgets")

# (span name, module, attribute) of every wrapped function.
SPANS = (
    ("cli.main", "cli", "main"),
    ("polyring.parse_polynomial", "polyring", "parse_polynomial"),
    ("polyring.reduce_mod_p", "polyring", "reduce_mod_p"),
    ("polyring.in_frobenius_power", "polyring", "in_frobenius_power"),
    ("polyring.coefficient_of", "polyring", "coefficient_of"),
    ("simplex.solve_lp", "simplex", "solve_lp"),
    ("geometry.reduce_generators", "geometry", "reduce_generators"),
    ("geometry.exponent_matrix", "geometry", "exponent_matrix"),
    ("geometry.maximal_point", "geometry", "maximal_point"),
    ("geometry.vertices", "geometry", "vertices"),
    ("geometry.newton_min_diagonal", "geometry", "newton_min_diagonal"),
    ("basep.digits", "basep", "digits"),
    ("basep.carry_horizon", "basep", "carry_horizon"),
    ("basep.adds_without_carrying", "basep", "adds_without_carrying"),
    ("basep.truncation", "basep", "truncation"),
    ("basep.in_P_rho_0", "basep", "in_P_rho_0"),
    ("basep.in_P_rho_inf", "basep", "in_P_rho_inf"),
    ("thresholds.to_fp_generators", "thresholds", "_to_fp_generators"),
    ("thresholds.unique_rho", "thresholds", "_unique_rho"),
    ("thresholds.fpt_bound", "thresholds", "fpt_bound"),
    ("thresholds.nu", "thresholds", "nu"),
    ("thresholds.fpt_estimate", "thresholds", "fpt_estimate"),
    ("thresholds.coefficient_witness", "thresholds", "coefficient_witness"),
    ("thresholds.lct_fpt_classifier", "thresholds", "lct_fpt_classifier"),
    ("thresholds.verify_prime", "thresholds", "verify_prime"),
    ("thresholds.monomial_fpt", "thresholds", "monomial_fpt"),
    ("thresholds.newton_polyhedron_preserved", "thresholds", "newton_polyhedron_preserved"),
    ("fvolume.fvolume_lower_bound", "fvolume", "fvolume_lower_bound"),
    ("fvolume.fvolume_points", "fvolume", "fvolume_points"),
    ("fvolume.fvolume_count", "fvolume", "fvolume_count"),
    ("fvolume.fvolume_estimate", "fvolume", "fvolume_estimate"),
)


class Tracer:
    """Aggregated spans and counts of one traced process."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self.counts = {}  # count name -> total
        self.meters = []
        self._stack = []  # time covered by child spans, one entry per open span
        self._streams = None  # digit streams built inside the open carry_horizon

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` runs after
        a call that returned."""
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(args, result)
            return result

        return wrapper

    # --- work counts at the span boundaries ---------------------------------

    def _count_cells(self, args, result):
        objective, lhs = args[0], args[1]
        self.add("simplex.solve_lp.cells", len(lhs) * len(objective))

    def _count_bases(self, args, result):
        matrix = args[0]
        self.add("geometry.vertices.bases", math.comb(matrix.varcount + matrix.width, matrix.width))
        self.add("geometry.vertices.found", len(result))

    def _count_states(self, args, result):
        self.add("basep.digits.states", len(result.preperiod) + len(result.period))
        if self._streams is not None:
            self._streams.append(result)

    def _count_term_ops(self, args, result):
        self.add("polyring.mul.term_ops", len(args[0].terms) * len(args[1].terms))

    def _count_escapes(self, args, result):
        self.add("polyring.in_frobenius_power.escapes", result is False)

    def _count_points(self, args, result):
        self.add("fvolume.fvolume_points.points", len(result))

    def _carry_span(self, fn):
        """carry_horizon scans S + 1 positions when S is finite, else the
        window max preperiod + lcm(periods) of the streams it built."""
        inner = self.span("basep.carry_horizon", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self._streams = self._streams, []
            try:
                result = inner(*args, **kwargs)
                streams = self._streams
            finally:
                self._streams = outer
            if result.finite:
                positions = result.value + 1
            elif streams:
                positions = max(len(s.preperiod) for s in streams) + math.lcm(
                    *[len(s.period) for s in streams])
            else:
                positions = 0
            self.add("basep.carry_horizon.positions", positions)
            return result

        return wrapper

    # --- installation --------------------------------------------------------

    def install(self):
        """Wrap every span of SPANS at all its binding sites."""
        modules = {name: sys.modules.get("fptcert." + name) for name in MODULES}
        sites = [m for m in list(sys.modules.values())
                 if m is not None and m.__name__.split(".")[0] == "fptcert"]
        counters = {
            "simplex.solve_lp": self._count_cells,
            "geometry.vertices": self._count_bases,
            "basep.digits": self._count_states,
            "polyring.in_frobenius_power": self._count_escapes,
            "fvolume.fvolume_points": self._count_points,
        }
        for name, module_name, attr in SPANS:
            original = getattr(modules[module_name], attr, None)
            if original is None:
                continue
            if name == "basep.carry_horizon":
                wrapped = self._carry_span(original)
            else:
                wrapped = self.span(name, original, counters.get(name))
            _rebind(sites, original, wrapped)

        polynomial = getattr(modules["polyring"], "Polynomial", None)
        if polynomial is not None:
            polynomial.__mul__ = self.span("polyring.mul", polynomial.__mul__, self._count_term_ops)

        meter = getattr(modules["budgets"], "Meter", None)
        if meter is not None:
            _rebind(sites, meter, self._meter_class(meter))

    def _meter_class(self, base):
        tracer = self

        class TracedMeter(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.meters.append(self)

        for method in ("charge_multisets", "charge_terms"):
            if hasattr(base, method):
                setattr(TracedMeter, method,
                        self.span("budgets." + method, getattr(base, method)))
        return TracedMeter

    # --- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer values: ``<span>.calls`` and ``<span>.self_s`` for
        every span, the work counts, and the meter totals."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out.update(self.counts)
        out["budgets.term_ops"] = sum(getattr(m, "term_ops", 0) for m in self.meters)
        out["budgets.multisets"] = sum(getattr(m, "multisets", 0) for m in self.meters)
        return out


def _rebind(sites, original, wrapped):
    for module in sites:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
