"""Per-layer tracing of periodjet from the benchmark's side of the calls.

Tracer.install() replaces every public function of the periodjet modules,
in every module namespace that binds it (`from .hodge import reduce_O`
binds reduce_O in period and cli as well), by one shared wrapper that
records a span [name, start, end, parent span, job id]. It also wraps
LaurentSeries.__mul__ and the two CurveExpansion.element_of_pole_*
methods, and counts LaurentSeries.__init__ calls without a span: that
constructor runs for nearly every operation, and a span per call would
dominate both the overhead and the span file. Spans stay in memory until
write_spans().

A span's self time is its duration minus the durations of its direct
child spans.
"""

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("laurent", "witt", "curve", "hodge", "period", "linalg", "cli")
PERIOD_FNS = ("nu1", "ell2", "ell2_via_lie", "nu2", "ell1_n",
              "ell1_n_contraction", "ell_k_n")


def coeff_bits(series):
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coeffs.values()), default=0)


class Tracer(object):

    def __init__(self):
        self.spans = []
        self.job = -1
        self.series_built = 0
        self.pole_hits = 0
        self.coeff_bits_max = 0
        self._duality_exps = {}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock, tracer = self.spans, self._stack, \
            time.perf_counter, self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _seen_duality(self, args):
        exp = args[0]
        self._duality_exps[id(exp)] = exp  # held, so ids stay distinct

    def _expanded(self, exp):
        self.coeff_bits_max = max(self.coeff_bits_max,
                                  coeff_bits(exp.y_series))

    def _pole_hit(self, cache_attr):
        def before(args):
            if args[1] in getattr(args[0], cache_attr):
                self.pole_hits += 1
        return before

    def install(self):
        mods = [importlib.import_module("periodjet." + m) for m in MODULES]
        hooks = {"hodge.duality_matrix": (self._seen_duality, None),
                 "curve.expand_curve": (None, self._expanded)}
        wrappers = {}
        for mod in mods:
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("periodjet.")):
                    continue
                if id(obj) not in wrappers:
                    name = "%s.%s" % (obj.__module__.split(".")[1],
                                      obj.__name__)
                    wrappers[id(obj)] = self._wrap(
                        name, obj, *hooks.get(name, (None, None)))
                self._patch(mod, attr, wrappers[id(obj)])

        series = importlib.import_module("periodjet.laurent").LaurentSeries
        init = series.__init__

        def counted_init(s, *args, **kwargs):
            self.series_built += 1
            init(s, *args, **kwargs)
        self._patch(series, "__init__", counted_init)
        self._patch(series, "__mul__",
                    self._wrap("laurent.mul", series.__mul__))
        expansion = importlib.import_module("periodjet.curve").CurveExpansion
        for attr, cache in (("element_of_pole_O", "_o_cache"),
                            ("element_of_pole_Theta", "_theta_cache")):
            self._patch(expansion, attr, self._wrap(
                "curve.element_of_pole", getattr(expansion, attr),
                before=self._pole_hit(cache)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self):
        """Per-layer figures by metric name (without cli.import_ms and
        trace.overhead_ratio, which the caller measures)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[k]
        linalg = [n for n in calls if n.startswith("linalg.")]
        pole_calls = calls["curve.element_of_pole"]
        builds = calls["hodge.duality_matrix"]
        m = {
            "laurent.mul.calls": calls["laurent.mul"],
            "laurent.mul.self_s": own["laurent.mul"],
            "laurent.series_built": self.series_built,
            "laurent.sqrt_unit.s": incl["laurent.sqrt_unit"],
            "laurent.invert.s": incl["laurent.invert"],
            "laurent.derive.calls": calls["laurent.derive"],
            "laurent.symplectic_pair.calls": calls["laurent.symplectic_pair"],
            "laurent.coeff_bits_max": self.coeff_bits_max,
            "witt.diffop_compose.calls": calls["witt.diffop_compose"],
            "witt.diffop_compose.self_s": own["witt.diffop_compose"],
            "witt.diffop_apply.calls": calls["witt.diffop_apply"],
            "witt.diffop_apply.self_s": own["witt.diffop_apply"],
            "witt.sp_witness.self_s": own["witt.sp_witness"],
            "curve.expand.s": incl["curve.expand_curve"],
            "curve.expand.self_s": own["curve.expand_curve"],
            "curve.holomorphic_integrals.s":
                incl["curve.holomorphic_integrals"],
            "curve.element_of_pole.calls": pole_calls,
            "curve.element_of_pole.hit_ratio":
                self.pole_hits / pole_calls if pole_calls else 0.0,
            "hodge.reduce_O.calls": calls["hodge.reduce_O"],
            "hodge.reduce_O.self_s": own["hodge.reduce_O"],
            "hodge.rho.self_s": own["hodge.rho"],
            "hodge.duality_matrix.calls": builds,
            # no build wastes nothing
            "hodge.duality_matrix.useful_ratio":
                len(self._duality_exps) / builds if builds else 1.0,
            "hodge.is_symmetric_hom.self_s": own["hodge.is_symmetric_hom"],
            "linalg.calls": sum(calls[n] for n in linalg),
            "linalg.self_s": sum(own[n] for n in linalg),
            "cli.main.self_s": own["cli.main"],
        }
        for fn in PERIOD_FNS:
            m["period.%s.calls" % fn] = calls["period." + fn]
            m["period.%s.self_s" % fn] = own["period." + fn]
        return m
