"""Run one workload in a fresh interpreter; ``run.py`` starts this process.

Protocol on stdout: the line ``ready`` once set-up is done (imports,
generated configs, warm-up), then one JSON line with the measurements.
With ``--setup-only`` the process exits right after ``ready``.

The loop is closed with a single client: each ``cli.main`` call waits for
the previous one, all in this one thread.  Outputs are checked after each
pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402  (imports numpy)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Stop starting passes once this much of the run is used, so the run ends
# well inside its 180 s limit even if the program gets slower.
PASS_BUDGET_S = 120.0


def _setup(root: Path, workload: str, seed: int, workdir: Path):
    import numpy
    import scipy
    import thermalquench

    src = (root / "src").resolve()
    if Path(thermalquench.__file__).resolve().parent.parent != src:
        raise SystemExit(f"thermalquench imported from {thermalquench.__file__}, not {src}")
    from thermalquench import cli

    items = workloads.generate(workload, seed)
    for item in items:
        item["path"] = str(workdir / f"{item['id']}.json")
        Path(item["path"]).write_text(json.dumps(item["config"]), encoding="utf-8")

    # warm lazy imports and the lru_caches of the derivative tower and the
    # Eulerian recursion before anything is timed
    from thermalquench.combinatorics import eulerian_row_recursive
    from thermalquench.thermal import bose_derivative

    eulerian_row_recursive(16)
    for n in range(1, 17):
        bose_derivative(n, +1, 1.0, 1.0)
    tiny = {
        "limits": {"ladders": {"k": [0.5], "mu": [1.0]}},
        "ness": {"quadrature": {"n_radial": 2, "n_time": 8}},
        "series": {"quadrature": {"n_radial": 8, "n_time": 8}, "ladders": {"orders": [1, 2]}},
    }
    for command, doc in tiny.items():
        item = {"id": f"warmup-{command}", "command": command, "config": doc,
                "path": str(workdir / f"warmup-{command}.json")}
        Path(item["path"]).write_text(json.dumps(doc), encoding="utf-8")
        _run_item(cli, item, workdir)

    versions = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return cli, items, versions


def _run_item(cli, item: dict, workdir: Path) -> dict:
    """One in-process CLI call; the latency covers only ``cli.main``."""
    out_dir = workdir / f"out-{item['id']}"
    argv = [item["command"], "--config", item["path"]]
    if item["command"] == "verify-all":
        argv += ["--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raising operation is a failed operation
        rc, error = None, f"raised {exc!r}"
    t1 = time.perf_counter()
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)
    return {"item": item, "rc": rc, "stdout": stdout.getvalue(), "files": files,
            "error": error, "start": t0, "end": t1}


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result: dict):
        self.attempted += 1
        if result["error"]:
            problems = [result["error"]]
        else:
            problems = workloads.check(result["item"], result["rc"], result["stdout"],
                                       result["files"])
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{result['item']['id']}: {'; '.join(problems[:3])}")


def _timed_pass(cli, items, workdir, tally: Tally, tracer=None):
    results = []
    t0 = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item["id"]
        results.append(_run_item(cli, item, workdir))
    wall = time.perf_counter() - t0
    for r in results:
        tally.add(r)
    return wall, results


def _timings(passes: list[list[float]]) -> dict:
    latencies = [x for p in passes for x in p]
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * p90,
    }


def measure(cli, items, workdir, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced passes until ``seconds`` have elapsed (at least one pass).

    A pass's wall time is the sum of its item latencies, each normalized
    for machine speed (see ``speed.py``); the raw figures go into the info.
    """
    passes = []
    with speed.Sampler() as sampler:
        t_start = time.perf_counter()
        while True:
            wall, results = _timed_pass(cli, items, workdir, tally)
            passes.append(results)
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds or elapsed + wall > PASS_BUDGET_S:
                break
    metrics = _timings([[sampler.normalized(r["start"], r["end"]) for r in p] for p in passes])
    raw = _timings([[r["end"] - r["start"] for r in p] for p in passes])
    info = {"passes": len(passes), "item_samples": sum(map(len, passes)), "raw": raw,
            "speed_samples": len(sampler.refs),
            "median_speed": speed.REF_NOMINAL_S / statistics.median(sampler.refs)}
    return metrics, info


def run_traced(cli, items, workload, workdir, tally: Tally):
    """One traced pass, then a probe of each subcommand on the default config
    so every layer boundary is crossed; returns the tracer and the pass."""
    from thermalquench import config

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _, results = _timed_pass(cli, items, workdir, tally, tracer)
        default = config.default_config().to_dict()
        path = workdir / "probe-default.json"
        path.write_text(json.dumps(default), encoding="utf-8")
        probe = [
            {"id": f"probe-{command}", "command": command, "config": default, "path": str(path)}
            for command in ("verify-all", "limits", "ness", "series")
            # on acceptance the traced pass was exactly the verify-all call
            if not (workload == "acceptance" and command == "verify-all")
        ]
        _timed_pass(cli, probe, workdir, tally, tracer)
    finally:
        tracer.restore()
    return tracer, results


def span_metrics(tracer, results, items, workload, norm) -> dict:
    """Per-layer metrics from the spans; ``norm(start, end)`` gives seconds."""
    spans = tracer.spans
    dur = [norm(s.start, s.end) for s in spans]
    own = tracer.self_times(dur)
    verify_item = items[0]["id"] if workload == "acceptance" else "probe-verify-all"
    in_verify = [i for i, s in enumerate(spans) if s.item == verify_item]

    def named(name, idx):
        return [i for i in idx if spans[i].name == name]

    m = {"trace.wall_s": sum(norm(r["start"], r["end"]) for r in results)}
    solves = named("modes.solve_modes", in_verify)
    m["modes.solve_calls"] = len(solves)
    m["modes.solve_self_s"] = sum(own[i] for i in solves)
    for i in named("spectral.pair_finite_mu", in_verify):
        m[f"spectral.pair_finite_mu_s.{spans[i].detail}"] = dur[i]
    for index in range(1, 11):
        for i in named(f"verify.criterion_{index}", in_verify):
            m[f"verify.criterion_s.c{index}"] = dur[i]
    pass_ids = {item["id"] for item in items}
    in_pass = [i for i, s in enumerate(spans) if s.item in pass_ids]
    m["spectral.radial_rule_calls"] = len(named("spectral.radial_rule", in_pass)) / len(items)
    everywhere = range(len(spans))
    cmd_spans = []
    for command in ("limits", "ness", "series"):
        found = named(f"cli.cmd_{command}", everywhere)
        cmd_spans += found
        m[f"cli.{command}_ms"] = 1e3 * statistics.median(dur[i] for i in found)
    cmd_spans += named("cli.cmd_verify_all", everywhere)
    m["cli.overhead_ms"] = 1e3 * statistics.median(own[i] for i in cmd_spans)
    return m


class Timed:
    """Intervals of ``inner`` calls each, reported as ``scale`` times the
    median per-call seconds once the speed samples are in."""

    def __init__(self, scale: float, fn, repeats: int, inner: int = 1):
        self.scale, self.inner, self.intervals = scale, inner, []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            self.intervals.append((t0, time.perf_counter()))

    def value(self, norm) -> float:
        return self.scale * statistics.median(norm(a, b) / self.inner for a, b in self.intervals)


def layer_microbenchmarks(workdir: Path) -> dict:
    """Direct timings of single layer calls on fixed inputs: each value is a
    count or a :class:`Timed`."""
    from thermalquench import combinatorics, config, modes, series, spectral, thermal, verify

    cfg = config.default_config()
    params = cfg.params
    f, g = cfg.packet_pair
    mode_params = thermal.ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)
    m = {}

    m["modes.chi_unit_us"] = Timed(1e6, lambda: modes.chi_unit(-0.37), 7, 2000)
    worst = 0.0
    # the pairing's solve: k = 1 on the mode bench, DOP853, up to the last
    # packet support edge t = 2.5 + 8 * 0.3
    for mu in (5, 10, 20, 40):
        prof = modes.SwitchingProfile(float(mu))

        def solve(prof=prof):
            return modes.solve_modes(1.0, prof, mode_params, t_max=4.9, method="DOP853")

        traj = solve()
        worst = max(worst, traj.max_wronskian_residual)
        m[f"modes.solve_ms.pairing.mu{mu}"] = Timed(1e3, solve, 5)
        m[f"modes.solve_steps.pairing.mu{mu}"] = len(traj.t)

    # the settings the steady-state map uses
    def tight():
        return modes.solve_modes(1.0, modes.SwitchingProfile(1.0), params, t_max=1.0,
                                 rtol=1e-12, atol=1e-14, method="DOP853")

    traj = tight()
    worst = max(worst, traj.max_wronskian_residual)
    m["modes.solve_ms.tight"] = Timed(1e3, tight, 7)
    m["modes.solve_steps.tight"] = len(traj.t)
    m["modes.worst_wronskian"] = worst
    prof40 = modes.SwitchingProfile(40.0)
    m["modes.switch_integrals_ms.mu40"] = Timed(
        1e3, lambda: modes.switch_integrals(1.0, prof40, params), 3)

    # the shifted theory's thermal state, the closed form the series resums to
    def shifted_thermal(sign):
        return lambda k: thermal.bose_coefficient(
            sign, params.beta, thermal.dispersion(k, params).eps_lambda)

    state = spectral.SpectralState(
        "shifted", shifted_thermal(+1), shifted_thermal(-1), "shifted-thermal", params)
    for n in (64, 512):
        quad = spectral.QuadratureSpec(n_radial=n)
        m[f"spectral.pair_ms.n{n}"] = Timed(1e3, lambda: spectral.pair(state, f, g, quad), 5)
        m[f"spectral.radial_rule_ms.n{n}"] = Timed(1e3, lambda: quad.radial_rule(f, g), 7)
    k32, _ = spectral.QuadratureSpec(n_radial=32).radial_rule(f, g)
    m["spectral.ness_coeff_s"] = Timed(1.0, lambda: spectral.ness_classical(
        params, verify.ness_bogoliubov_map(params)).c_plus(k32), 3)

    quad64 = spectral.QuadratureSpec(n_radial=64)
    for path in ("beta-derivative", "descent-sum"):
        for n in (8, 16):
            m[f"series.nth_order_term_ms.{path}.n{n}"] = Timed(
                1e3, lambda: series.nth_order_term(n, params, f, g, quad64, path=path), 5)
    quad512 = spectral.QuadratureSpec(n_radial=512)
    m["series.verify_resummation_s.n512"] = Timed(
        1.0, lambda: series.verify_resummation(params, f, g, N=8, quad=quad512), 3)

    k64, _ = quad64.radial_rule(f, g)
    eps64 = thermal.dispersion(k64, params).eps
    for n in (8, 16):
        m[f"thermal.bose_derivative_us.n{n}"] = Timed(
            1e6, lambda: thermal.bose_derivative(n, +1, params.beta, eps64), 7, 50)

    for n in (8, 9):
        m[f"combinatorics.eulerian_enum_ms.n{n}"] = Timed(
            1e3, lambda: combinatorics.eulerian_row_by_enumeration(n), 3)
    slots = range(1, 7)
    table = {
        frozenset(s): complex(len(s) - 3, sum(s) % 5 - 2)
        for r in range(1, 7)
        for s in itertools.combinations(slots, r)
    }
    m["combinatorics.cumulant_roundtrip_ms.n6"] = Timed(
        1e3, lambda: combinatorics.moments_from_connected(combinatorics.connected_from_moments(table)), 5)

    full = workdir / "default-full.json"
    full.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    m["config.load_ms"] = Timed(1e3, lambda: config.load_config(full), 7, 20)
    return m


def layer_table(tracer: tracing.Tracer, norm) -> dict:
    """Per span name: calls, total time and self time over the traced run."""
    table: dict[str, dict] = {}
    dur = [norm(s.start, s.end) for s in tracer.spans]
    for span, total, own in zip(tracer.spans, dur, tracer.self_times(dur)):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += total
        row["self_s"] += own
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up is normalized by the speed at its start (numpy just imported)
    # and at its end
    early = speed.reference_op()
    cli, items, versions = _setup(args.root, args.workload, args.seed, args.workdir)
    ref = (early + speed.reference_op()) / 2
    print(f"ready {ref!r}", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    info = dict(versions, items=len(items))
    if args.trace:
        with speed.Sampler() as sampler:
            tracer, results = run_traced(cli, items, args.workload, args.workdir, tally)
            micro = layer_microbenchmarks(args.workdir)
        norm = sampler.normalized
        metrics = span_metrics(tracer, results, items, args.workload, norm)
        metrics.update({k: v.value(norm) if isinstance(v, Timed) else v for k, v in micro.items()})
        out_dir = args.root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        doc = dict(tracer.to_dict(), layers=layer_table(tracer, norm), metrics=metrics, info=info)
        trace_file.write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")
        info["trace_file"] = str(trace_file.relative_to(args.root))
        info["unwrapped"] = tracer.missing
    else:
        metrics, extra = measure(cli, items, args.workdir, args.seconds, tally)
        info.update(extra)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "problems": tally.problems, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
