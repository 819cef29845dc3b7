"""Names and units of the metrics the benchmark reports.

BENCHMARK.json lists the same names; the benchmark's tests check that the
two agree.
"""

# End-to-end metrics of an untraced run (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run, with their units.  Every one that is
# not a time (name ending in _s) is exact: two traced runs with the same seed
# report the same value.
PER_LAYER = {
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.mul.term_products": "count",
    "series.mul.max_coeff_bits": "bit",
    "series.add.calls": "count",
    "series.add.self_s": "s",
    "series.invert.calls": "count",
    "series.invert.self_s": "s",
    "qfunctions.poch.calls": "count",
    "qfunctions.poch.self_s": "s",
    "qfunctions.poch.cache_hit_ratio": "ratio",
    "qfunctions.poch.cache_entries": "count",
    "qfunctions.triple_product.self_s": "s",
    "sumeval.multisum.calls": "count",
    "sumeval.multisum.self_s": "s",
    "sumeval.multisum.retries": "count",
    "sumeval.var_bound.max": "count",
    "identities.eval_sum.self_s": "s",
    "identities.eval_product.self_s": "s",
    "identities.verify.self_s": "s",
    "bailey.apply.calls": "count",
    "bailey.apply.self_s": "s",
    "bailey.verify.calls": "count",
    "bailey.verify.self_s": "s",
    "bailey.closed_alpha.self_s": "s",
    "motion.lambda_map.calls": "count",
    "motion.lambda_map.self_s": "s",
    "motion.gamma_map.calls": "count",
    "motion.gamma_map.self_s": "s",
    "motion.pm.steps": "count",
    "motion.rpm.steps": "count",
    "sets.enum.candidates": "count",
    "sets.enum.members": "count",
    "sets.enum.useful_ratio": "ratio",
    "sets.enum.self_s": "s",
    "sets.gf.self_s": "s",
    "trace.overhead_s": "s",
}


def is_exact(name: str) -> bool:
    """Counts, ratios and maxima repeat exactly; times (``*_s``) do not."""
    return not name.endswith("_s")
