"""Spans around the layer boundaries of thermalquench, recorded from outside.

The benchmark wraps each layer-boundary function at the attribute other
modules call it through (``verify.solve_modes``, ``spectral.solve_modes``,
``QuadratureSpec.radial_rule``, the ``cli.cmd_*`` functions, ...).  Each
call becomes a span with a name, start, end, parent and item id.  Spans stay
in memory until the run ends.  Inner kernels such as ``chi_unit`` are not
wrapped: they run about a million times per pass, and the microbenchmarks
time them instead.
"""

from __future__ import annotations

import dataclasses
import time


@dataclasses.dataclass
class Span:
    name: str
    detail: str
    item: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans for the functions it wraps; :meth:`restore` unwraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr, name: str, detail=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        span-recording wrapper; ``detail(*args, **kwargs)`` labels the span."""
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if original is None:
            # a boundary the program no longer has yields no spans
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(
                name,
                detail(*args, **kwargs) if detail else "",
                self.item,
                stack[-1] if stack else None,
                time.perf_counter(),
            )
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original, is_dict))

    def restore(self):
        for owner, attr, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self, durations: list[float]) -> list[float]:
        """Each span's duration minus the durations of its child spans
        (children of one span never overlap: the program is single-threaded)."""
        own = list(durations)
        for s, d in zip(self.spans, durations):
            if s.parent is not None:
                own[s.parent] -= d
        return own

    def to_dict(self) -> dict:
        return {"spans": [dataclasses.asdict(s) for s in self.spans]}


def install(tracer: Tracer):
    """Wrap every layer boundary of thermalquench that the workloads cross."""
    from thermalquench import cli, modes, series, spectral, verify

    t = tracer
    for name in ("cmd_limits", "cmd_ness", "cmd_series", "cmd_verify_all"):
        t.wrap(cli, name, f"cli.{name}")
    t.wrap(cli, "load_config", "config.load_config")
    for index in sorted(verify.CRITERIA):
        t.wrap(verify.CRITERIA, index, f"verify.criterion_{index}")
    for owner in (modes, spectral, verify):
        t.wrap(owner, "solve_modes", "modes.solve_modes")
    for owner in (cli, verify):
        t.wrap(owner, "switch_integrals", "modes.switch_integrals")
    t.wrap(verify, "bogoliubov", "modes.bogoliubov")
    t.wrap(verify, "pair_finite_mu", "spectral.pair_finite_mu",
           detail=lambda prof, *a, **kw: f"mu{prof.mu:g}")
    for owner in (series, verify):
        t.wrap(owner, "pair", "spectral.pair")
    t.wrap(spectral.QuadratureSpec, "radial_rule", "spectral.radial_rule",
           detail=lambda quad, *a, **kw: f"n{quad.n_radial}")
    for owner in (cli, verify):
        t.wrap(owner, "ness_classical", "spectral.ness_classical")
    t.wrap(cli, "pair_report", "spectral.pair_report")
    for owner in (cli, verify):
        t.wrap(owner, "verify_resummation", "series.verify_resummation")
    t.wrap(series, "nth_order_term", "series.nth_order_term")
    t.wrap(series, "convergence_guard", "series.convergence_guard")
    t.wrap(series, "bose_derivative", "thermal.bose_derivative")
    t.wrap(verify, "eulerian_row_by_enumeration", "combinatorics.eulerian_row_by_enumeration")
    for owner in (series, verify):
        t.wrap(owner, "eulerian_row_recursive", "combinatorics.eulerian_row_recursive")
    t.wrap(verify, "connected_from_moments", "combinatorics.connected_from_moments")
    t.wrap(verify, "moments_from_connected", "combinatorics.moments_from_connected")
