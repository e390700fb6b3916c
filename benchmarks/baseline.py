"""Measure the baseline: repeated runs per workload, summarized to JSON.

    python3 benchmarks/baseline.py --runs 10 --out benchmarks/baseline.json

From the root of a checkout, runs ``run.py`` once per seed (1..runs) for
each workload with tracing off, then once with tracing on (seed 1).  For
each end-to-end metric it records the values, median, quartiles and the
quartile spread as a share of the median, which is what a bound in
``BENCHMARK.json`` is compared against.  Workloads already in the output
file and not named by ``--workloads`` are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(ln)["info"] for ln in lines if ln.startswith('{"info"'))
    return json.loads(lines[-1]), info


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def measure(workload: str, runs: int, seconds: int) -> dict:
    results = [_run(workload, seed, seconds, 0)[0] for seed in range(1, runs + 1)]
    traced, info = _run(workload, 1, seconds, 1)
    out = {
        "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
        "failed": sum(r["failed"] for r in results) + traced["failed"],
        "end_to_end": {
            name: dict(summarize([r["metrics"][name]["value"] for r in results]), unit=unit)
            for name, unit in metrics.expected(False).items()
        },
        "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
    }
    wall = out["end_to_end"]["wall_s"]["median"]
    out["tracing_overhead_s"] = out["per_layer"]["trace.wall_s"] - wall
    trace_doc = json.loads((Path.cwd() / info["trace_file"]).read_text())
    out["layer_table"] = trace_doc["layers"]
    out["machine"] = {k: info[k] for k in ("nproc", "python", "numpy", "scipy")}
    if workload == "acceptance":
        criteria = sum(out["per_layer"][f"verify.criterion_s.c{i}"] for i in range(1, 11))
        out["criteria_sum_s"] = criteria
        out["criteria_sum_minus_wall_s"] = criteria - wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["run_seconds"] = seconds
    doc["workloads"] = {w["name"]: w["why"] for w in spec["workloads"]}
    doc["layer_moves"] = {name: moves for name, (_, moves) in metrics.PER_LAYER.items()}
    results = doc.setdefault("results", {})
    for workload in args.workloads.split(","):
        results[workload] = measure(workload, args.runs, seconds)
        for name, s in results[workload]["end_to_end"].items():
            print(f"{workload:13s} {name:12s} median {s['median']:.4g} {s['unit']}"
                  f"  spread {s['spread']:.3f}")
        args.out.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
