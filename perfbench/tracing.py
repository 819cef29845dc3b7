"""Per-layer tracing of qident from outside the package.

``Tracer.install`` wraps public functions of the qident modules in every
module namespace that imported them (and the ring operations on the
``QSeries`` class), so that internal calls such as the pad-retry recursion
of ``sumeval.multisum`` go through the wrappers too.  Each wrapped call
records a span (name, start, end, parent span, op id) in memory and bumps the
counters of its layer.  A layer's self time is the duration of its spans
minus the time their child spans cover.  ``uninstall`` puts every original
back.  Nothing under ``src/`` is changed.

Install the wrappers only after the inputs are generated: generating inputs
calls the same functions.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

from metrics import PER_LAYER
from qident import bailey, identities, motion, qfunctions, sets, sumeval
from qident.series import QSeries


# -- counters taken at the layer boundaries -----------------------------------


def _after_mul(counts, args, kwargs, result):
    a, b = args
    if isinstance(b, QSeries):
        counts["series.mul.term_products"] += len(a.coeffs) * len(b.coeffs)
    if result.coeffs:
        vals = result.coeffs.values()
        bits = max(max(vals), -min(vals)).bit_length()
        if bits > counts["series.mul.max_coeff_bits"]:
            counts["series.mul.max_coeff_bits"] = bits


def _after_multisum(counts, args, kwargs, result):
    if kwargs.get("_pad", sumeval._PAD) != sumeval._PAD:
        counts["sumeval.multisum.retries"] += 1


def _after_var_bound(counts, args, kwargs, result):
    if result > counts["sumeval.var_bound.max"]:
        counts["sumeval.var_bound.max"] = result


def _after_pm(counts, args, kwargs, result):
    counts["motion.pm.steps"] += args[2]


def _after_rpm(counts, args, kwargs, result):
    counts["motion.rpm.steps"] += result[1]


def _after_enum_freq(counts, args, kwargs, result):
    counts["sets.enum.candidates"] += len(result)


def _after_enum_family(counts, args, kwargs, result):
    counts["sets.enum.members"] += len(result)


# (owner, attribute, layer name, counter hook, record a span?)
# var_bound, pm_explicit and rpm_explicit are counted without a span, so their
# time stays in the self time of multisum, lambda_map and gamma_map.
TARGETS = (
    (QSeries, "__mul__", "series.mul", _after_mul, True),
    (QSeries, "__add__", "series.add", None, True),
    (QSeries, "invert", "series.invert", None, True),
    (qfunctions, "poch_finite", "qfunctions.poch", None, True),
    (qfunctions, "poch_infinite", "qfunctions.poch", None, True),
    (qfunctions, "inv_poch_finite", "qfunctions.poch", None, True),
    (qfunctions, "triple_product", "qfunctions.triple_product", None, True),
    (sumeval, "multisum", "sumeval.multisum", _after_multisum, True),
    (sumeval, "var_bound", "sumeval.var_bound", _after_var_bound, False),
    (identities, "eval_sum", "identities.eval_sum", None, True),
    (identities, "eval_product", "identities.eval_product", None, True),
    (identities, "verify_identity", "identities.verify", None, True),
    (bailey, "apply", "bailey.apply", None, True),
    (bailey, "verify", "bailey.verify", None, True),
    (bailey, "closed_alpha_star_chain", "bailey.closed_alpha", None, True),
    (motion, "lambda_map", "motion.lambda_map", None, True),
    (motion, "gamma_map", "motion.gamma_map", None, True),
    (motion, "pm_explicit", "motion.pm", _after_pm, False),
    (motion, "rpm_explicit", "motion.rpm", _after_rpm, False),
    (sets, "enum_freq", "sets.enum", _after_enum_freq, True),
    (sets, "enum_family", "sets.enum", _after_enum_family, True),
    (sets, "gf_family", "sets.gf", None, True),
    (sets, "gf_members", "sets.gf", None, True),
)

# The lru_cache objects whose cache_info() gives the Pochhammer cache metrics.
POCH_CACHES = (qfunctions.poch_finite, qfunctions.poch_infinite,
               qfunctions.inv_poch_finite)


def _poch_cache_totals():
    infos = [f.cache_info() for f in POCH_CACHES]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, op id)
        self.stack = []        # indices of the open spans
        self.op = -1
        self.counts = Counter()
        self.hook_s = Counter()  # span index -> counting time of children
        self._patches = []     # (namespace, attribute, original)
        self._cache_start = None

    def wrap(self, name, fn, after=None, span=True):
        """fn with a span (when ``span``) and a call count; ``after`` gets
        (counts, args, kwargs, result) once the span has closed.  The time
        ``after`` takes is tracing cost: it is kept out of the self time of
        the enclosing span too."""
        spans, stack, counts, hook_s = (self.spans, self.stack, self.counts,
                                        self.hook_s)
        clock = time.perf_counter
        calls = name + ".calls"

        if not span:
            def counted(*args, **kwargs):
                counts[calls] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counts, args, kwargs, result)
                return result
            return counted

        def traced(*args, **kwargs):
            counts[calls] += 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1,
                              self.op)
            if after is not None:
                after(counts, args, kwargs, result)
                if stack:
                    hook_s[stack[-1]] += clock() - end
            return result
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "qident" or n.startswith("qident.")]
        for owner, attr, name, after, span in TARGETS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, after, span)
            holders = [owner] if isinstance(owner, type) else modules
            for ns in holders:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))
        self._cache_start = _poch_cache_totals()

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def self_times(self) -> Counter:
        covered = [self.hook_s[i] for i in range(len(self.spans))]
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced pass to compare with."""
        hits0, misses0, _ = self._cache_start
        hits1, misses1, entries = _poch_cache_totals()
        hits, lookups = hits1 - hits0, (hits1 - hits0) + (misses1 - misses0)
        values = dict(self.counts)
        values.update({name + ".self_s": t
                       for name, t in self.self_times().items()})
        values["qfunctions.poch.cache_hit_ratio"] = (
            hits / lookups if lookups else 0.0)
        values["qfunctions.poch.cache_entries"] = entries
        cand = self.counts["sets.enum.candidates"]
        values["sets.enum.useful_ratio"] = (
            self.counts["sets.enum.members"] / cand if cand else 0.0)
        return {name: values.get(name, 0) for name in PER_LAYER
                if name != "trace.overhead_s"}

    def write_spans(self, path):
        """One CSV line per span: name,start,end,parent,op (perf_counter s)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent},{op}\n")
