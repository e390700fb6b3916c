"""The benchmark's metrics: name, unit, and what each one should move.

``BENCHMARK.json`` at the repository root lists the same names and units;
the self-test keeps the two in step.  For each per-layer metric, ``moves``
names the end-to-end metric and workload that a change to that layer should
move, so a later change can state its prediction by metric name.
"""

# every time here is normalized for machine speed (speed.py)
END_TO_END = {
    "wall_s": ("s", "one untraced pass over the workload's items: sum of its item latencies"),
    "item_p50_ms": ("ms", "median latency of one item: one in-process cli.main call"),
    "item_p90_ms": ("ms", "90th-percentile item latency, ten samples beyond it per pass"),
    "setup_s": ("s", "fresh interpreter to first item: imports, configs, warm-up (median of 3)"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload's own process"),
}

_PAIRING_MUS = (5, 10, 20, 40)

PER_LAYER = {
    # modes
    "modes.chi_unit_us": ("us", "wall_s on acceptance; item_p50_ms on ramp_sweep"),
    **{f"modes.solve_ms.pairing.mu{m}": ("ms", "wall_s on acceptance") for m in _PAIRING_MUS},
    **{f"modes.solve_steps.pairing.mu{m}": ("count", "wall_s on acceptance") for m in _PAIRING_MUS},
    "modes.solve_ms.tight": ("ms", "item_p50_ms and item_p90_ms on ramp_sweep"),
    "modes.solve_steps.tight": ("count", "item_p50_ms and item_p90_ms on ramp_sweep"),
    "modes.switch_integrals_ms.mu40": ("ms", "item_p50_ms on ramp_sweep"),
    "modes.solve_calls": ("count", "wall_s on acceptance"),
    "modes.solve_self_s": ("s", "wall_s on acceptance"),
    "modes.worst_wronskian": ("abs", "none: accuracy margin of the solves"),
    # spectral
    **{f"spectral.pair_finite_mu_s.mu{m}": ("s", "wall_s on acceptance") for m in _PAIRING_MUS},
    "spectral.pair_ms.n64": ("ms", "wall_s on series_sweep"),
    "spectral.pair_ms.n512": ("ms", "wall_s on series_sweep"),
    "spectral.radial_rule_ms.n64": ("ms", "wall_s on series_sweep"),
    "spectral.radial_rule_ms.n512": ("ms", "wall_s and item_p90_ms on series_sweep"),
    "spectral.radial_rule_calls": ("count", "wall_s on series_sweep"),
    "spectral.ness_coeff_s": ("s", "item_p90_ms on ramp_sweep"),
    # series
    "series.nth_order_term_ms.beta-derivative.n8": ("ms", "wall_s on series_sweep"),
    "series.nth_order_term_ms.beta-derivative.n16": ("ms", "wall_s on series_sweep"),
    "series.nth_order_term_ms.descent-sum.n8": ("ms", "wall_s on series_sweep"),
    "series.nth_order_term_ms.descent-sum.n16": ("ms", "wall_s on series_sweep"),
    "series.verify_resummation_s.n512": ("s", "item_p90_ms on series_sweep"),
    # thermal
    "thermal.bose_derivative_us.n8": ("us", "wall_s on series_sweep"),
    "thermal.bose_derivative_us.n16": ("us", "wall_s on series_sweep"),
    # combinatorics
    "combinatorics.eulerian_enum_ms.n8": ("ms", "wall_s on acceptance (criterion 1)"),
    "combinatorics.eulerian_enum_ms.n9": ("ms", "wall_s on acceptance (criterion 1)"),
    "combinatorics.cumulant_roundtrip_ms.n6": ("ms", "wall_s on acceptance (criterion 10)"),
    # config
    "config.load_ms": ("ms", "setup_s; item latencies on both sweeps"),
    # verify
    **{f"verify.criterion_s.c{i}": ("s", "wall_s on acceptance") for i in range(1, 11)},
    # cli
    "cli.limits_ms": ("ms", "item latencies on ramp_sweep"),
    "cli.ness_ms": ("ms", "item latencies on ramp_sweep"),
    "cli.series_ms": ("ms", "item latencies on series_sweep"),
    "cli.overhead_ms": ("ms", "item latencies on ramp_sweep"),
    # the traced pass itself: minus the untraced wall_s it is the tracing overhead
    "trace.wall_s": ("s", "none: traced wall_s, for the tracing overhead"),
}


def expected(trace: bool) -> dict[str, str]:
    """Metric name -> unit that a run must report."""
    table = PER_LAYER if trace else END_TO_END
    return {name: unit for name, (unit, _) in table.items()}
