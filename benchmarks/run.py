"""thermalquench benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload acceptance --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``worker.py``) that imports the program from the checkout's ``src/`` with
BLAS and OpenMP pinned to one thread.  Set-up time is the median over three
fresh interpreters.  End-to-end times are normalized for machine speed
(``speed.py``).  The last line of stdout is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run (see ``metrics.py``).  This script uses
only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
# speed.REF_NOMINAL_S; copied so this script needs no numpy
REF_NOMINAL_S = 0.006
# every process this script starts is killed at this point, so the run
# ends inside its 180 s limit
DEADLINE_S = 170.0

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class RunError(RuntimeError):
    """The run cannot produce a result."""


def _worker(args, root: Path, workdir: Path, setup_only: bool, deadline: float):
    """Start a worker; return (setup seconds, stdout after ``ready``, rusage)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workdir", str(workdir), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    word, _, ref = first.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode} (setup_only={setup_only})")
    # normalized for machine speed like every end-to-end time (see speed.py)
    return setup * REF_NOMINAL_S / float(ref), rest, rusage


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd().resolve()
    if not (root / "src" / "thermalquench" / "__init__.py").is_file():
        raise RunError(f"no thermalquench sources under {root / 'src'}; run from a checkout root")
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args, root, workdir, True, deadline)[0])
        setup, out, rusage = _worker(args, root, workdir, False, deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    raw = json.loads(out.strip().splitlines()[-1])
    values = raw["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    expected = metrics.expected(bool(args.trace))
    missing = sorted(set(expected) - set(values))
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    for problem in raw["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({"info": raw["info"]}))
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in expected.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except RunError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
