"""Self-test of the benchmark: metric coverage and the correctness gate.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_lists_the_benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.expected(False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.expected(True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(workload, trace, monkeypatch):
    measured = {name: 1.5 for name in metrics.expected(bool(trace))}
    measured.pop("setup_s", None)
    measured.pop("peak_rss_mb", None)
    worker_out = json.dumps({"attempted": 3, "failed": 0, "problems": [], "info": {},
                             "metrics": measured})
    rusage = resource.struct_rusage((0.0,) * 2 + (204800,) + (0,) * 13)
    monkeypatch.setattr(run, "_worker", lambda *a: (0.8, worker_out + "\n", rusage))
    monkeypatch.chdir(ROOT)
    args = run.argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.run(args)
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in metrics.expected(bool(trace)).items()
    }
    if not trace:
        assert result["metrics"]["peak_rss_mb"]["value"] == 200.0
    # a run that misses one metric prints no result
    measured.pop(next(iter(measured)))
    worker_out = json.dumps({"attempted": 3, "failed": 0, "problems": [], "info": {},
                             "metrics": measured})
    monkeypatch.setattr(run, "_worker", lambda *a: (0.8, worker_out + "\n", rusage))
    with pytest.raises(run.RunError, match="not measured"):
        run.run(args)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    if workload != "acceptance":
        items = workloads.generate(workload, 7)
        assert len(items) >= 100  # ten latencies beyond the 90th percentile
        assert items != workloads.generate(workload, 8)


def _cli(command, doc, tmp_path):
    from thermalquench import cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([command, "--config", str(path)])
    return {"id": "t", "command": command, "config": doc}, rc, out.getvalue()


NESS_DOC = {
    "params": {"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.3},
    "profile": {"mu": 1.0},
    "quadrature": {"n_radial": 4, "n_time": 16},
}
SERIES_DOC = {
    "params": {"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.1},
    "ladders": {"orders": [1, 2, 3, 4, 5, 6, 7, 8]},
    "quadrature": {"n_radial": 16, "n_time": 16},
}


def test_ness_row_with_broken_normalization_fails(tmp_path):
    item, rc, out = _cli("ness", NESS_DOC, tmp_path)
    assert workloads.check(item, rc, out, {}) == []
    lines = out.splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("norm_residual")] = "1.00000000000000000e-03"
    lines[1] = ",".join(row)
    assert workloads.check(item, rc, "\n".join(lines) + "\n", {})


def test_series_payload_with_nan_token_fails(tmp_path):
    item, rc, out = _cli("series", SERIES_DOC, tmp_path)
    assert workloads.check(item, rc, out, {}) == []
    payload = json.loads(out)
    payload["orders"][2]["term_im"] = float("nan")
    tampered = json.dumps(payload)
    assert "NaN" in tampered
    assert workloads.check(item, rc, tampered, {})


def test_exit_code_contradicting_the_verdict_fails(tmp_path):
    item, rc, out = _cli("series", SERIES_DOC, tmp_path)
    assert json.loads(out)["verdict"] == "pass" and rc == 0
    assert workloads.check(item, 1, out, {})
    # a fail verdict that agrees with its own numbers is a valid output
    low = dict(SERIES_DOC, ladders={"orders": [1, 2]})
    item, rc, out = _cli("series", low, tmp_path)
    assert json.loads(out)["verdict"] == "fail" and rc == 1
    assert workloads.check(item, rc, out, {}) == []
    assert workloads.check(item, 0, out, {})


def test_limits_gap_beyond_tolerance_fails(tmp_path):
    doc = {"params": SERIES_DOC["params"], "ladders": {"k": [1.0], "mu": [2.0, 12.0]}}
    item, rc, out = _cli("limits", doc, tmp_path)
    assert workloads.check(item, rc, out, {}) == []
    short = {"params": SERIES_DOC["params"], "ladders": {"k": [1.0], "mu": [1.0, 2.0]}}
    item, rc, out = _cli("limits", short, tmp_path)
    assert any("largest mu" in p for p in workloads.check(item, rc, out, {}))


def test_speed_normalization_scales_by_local_reference_and_drops_samples():
    import speed

    s = speed.Sampler()
    ref = speed.REF_NOMINAL_S
    # a slow stretch (reference twice nominal) then a fast one
    for t, r in [(0.0, 2 * ref), (0.2, 2 * ref), (0.4, 2 * ref), (10.0, ref), (10.2, ref)]:
        s.times.append(t)
        s.refs.append(r)
        s.costs.append(0.01)
    # 0.3 s with one sample of 0.01 s inside, at half speed
    assert s.normalized(0.05, 0.35) == pytest.approx((0.3 - 0.01) / 2)
    assert s.normalized(10.05, 10.15) == pytest.approx(0.1)
    # the clock is additive: parts of an interval sum to the whole
    assert s.normalized(0.05, 5.0) + s.normalized(5.0, 10.15) == pytest.approx(
        s.normalized(0.05, 10.15))
    # and stands still inside a sample
    assert s.normalized(0.2, 0.21) == 0.0
