"""Seeded inputs and output checks for the thermalquench benchmark.

Every workload is a list of items.  An item is one ``thermalquench`` CLI call
(``verify-all``, ``limits``, ``ness`` or ``series``) on one generated config
document; the program only ever sees the document, written to a JSON file.

The checks judge one operation from what the CLI produced: its exit code,
its stdout, and the files it wrote.  They return a list of problems; an
empty list means the operation is correct.  An operation fails when it
raised, exited with a code its own payload contradicts, emitted non-strict
JSON or a non-finite CSV field, or broke an identity that holds for every
input.  A series verdict of ``fail`` that agrees with its own numbers is a
valid output.

This module uses only the standard library, so the checks can be tested
without the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WORKLOADS = ("acceptance", "ramp_sweep", "series_sweep")

# Item counts per pass: 100 latencies, so the 90th percentile has ten
# samples beyond it.
RAMP_ITEMS = 100
SERIES_ITEMS = 100

# Cost-setting sizes are cycled rather than drawn, so every seed gets the
# same mix of sizes and only the physics varies with the seed.
RAMP_NESS_NODES = (8, 12, 16, 24, 32)
SERIES_NODES = (32, 64, 128, 256, 512)
SERIES_ORDERS = (4, 6, 8, 10, 12, 14, 16)

DEFAULT_TOLERANCES = {
    "switch_final_abs": 1e-2,
    "series_final_rel": 1e-8,
    "series_dual_path_rel": 1e-10,
    "bogoliubov_norm_abs": 1e-8,
    "ness_ccr_abs": 1e-10,
}

EXIT_OK, EXIT_CRITERION = 0, 1


def _packets(rng: random.Random, k_center=(0.5, 1.5), k_width=(0.3, 0.6)) -> list[dict]:
    return [
        {
            "k_center": round(rng.uniform(*k_center), 6),
            "k_width": round(rng.uniform(*k_width), 6),
            "t_center": round(rng.uniform(0.5, 3.0), 6),
            "t_width": round(rng.uniform(0.2, 0.5), 6),
        }
        for _ in range(2)
    ]


def _params(rng: random.Random, lam_lo: float, lam_hi: float) -> dict:
    # m_sq = m0_sq = 1 and lam > -1 keep the shifted mass positive
    return {
        "beta": round(rng.uniform(0.5, 2.0), 6),
        "m_sq": 1.0,
        "m0_sq": 1.0,
        "lam": round(rng.uniform(lam_lo, lam_hi), 6),
    }


def generate(workload: str, seed: int) -> list[dict]:
    """The items of one pass: ``{"id", "command", "config"}`` dicts."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "acceptance":
        # the default config; the document is empty so every field defaults
        return [{"id": "acceptance-0", "command": "verify-all", "config": {}}]
    if workload == "ramp_sweep":
        return [_ramp_item(rng, i) for i in range(RAMP_ITEMS)]
    if workload == "series_sweep":
        return [_series_item(rng, i) for i in range(SERIES_ITEMS)]
    raise ValueError(f"unknown workload {workload!r}")


def _ramp_item(rng: random.Random, i: int) -> dict:
    params = _params(rng, -0.3, 0.6)
    if i % 5 in (1, 3):
        n_radial = RAMP_NESS_NODES[(i // 5) % len(RAMP_NESS_NODES)]
        config = {
            "params": params,
            "profile": {"mu": round(rng.uniform(0.5, 1.5), 6)},
            # narrow packets keep the radial cutoff, and so the solver's
            # steps per node, small
            "packets": _packets(rng, k_center=(0.5, 1.0), k_width=(0.2, 0.3)),
            "quadrature": {"n_radial": n_radial, "n_time": 80},
        }
        return {"id": f"ness-{i}", "command": "ness", "config": config}
    # momenta >= 1 and a largest mu >= 10 put both slow-switch gaps below
    # switch_final_abs.  Two thirds of the items take two momenta, which puts
    # the median item inside a cluster of similar costs rather than between two
    n_k = 1 if (i // 5) % 3 == 0 else 2
    ks = sorted({round(rng.uniform(1.0, 1.6), 6) for _ in range(n_k)})
    mus = [round(rng.uniform(3.0, 6.0), 6), round(rng.uniform(10.0, 12.0), 6)]
    config = {"params": params, "ladders": {"k": ks, "mu": mus}}
    return {"id": f"limits-{i}", "command": "limits", "config": config}


def _series_item(rng: random.Random, i: int) -> dict:
    # one item in eight sits beyond the Taylor disk (lam >= 3 at m_sq = 1),
    # so the radius-violated verdict is exercised too
    lam_lo, lam_hi = (3.0, 5.0) if i % 8 == 7 else (-0.3, 0.9)
    n_radial = SERIES_NODES[i % len(SERIES_NODES)]
    # the 128-node items hold the median rank; one order for all of them
    # makes the median a plateau of equal-cost items instead of a slope
    n_orders = 8 if n_radial == 128 else SERIES_ORDERS[i % len(SERIES_ORDERS)]
    config = {
        "params": _params(rng, lam_lo, lam_hi),
        "packets": _packets(rng),
        "ladders": {"orders": list(range(1, n_orders + 1))},
        "quadrature": {"n_radial": n_radial, "n_time": 80},
    }
    return {"id": f"series-{i}", "command": "series", "config": config}


# ---------------------------------------------------------------- parsing


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity tokens the standard forbids."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(field: str) -> float:
    x = float(field)
    if not math.isfinite(x):
        raise ValueError(f"non-finite field {field!r}")
    return x


def _csv_rows(text: str, header: list[str]) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"unexpected CSV header {rows[0] if rows else None}")
    out = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"ragged CSV row {row}")
        rec = dict(zip(header, row))
        if rec["status"] != "ok":
            raise ValueError(f"row status {rec['status']!r}")
        out.append({k: (v if k == "status" else _finite(v)) for k, v in rec.items()})
    return out


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _tolerances(config: dict) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    tol.update({k: v for k, v in config.get("tolerances", {}).items() if k in tol})
    return tol


def _bose(beta: float, eps: float) -> tuple[float, float]:
    x = beta * eps
    b_plus = -1.0 / math.expm1(-x)
    return b_plus, math.exp(-x) * b_plus


def _eps(k: float, params: dict) -> tuple[float, float]:
    m_sq = params["m_sq"]
    return math.sqrt(k * k + m_sq), math.sqrt(k * k + m_sq + params["lam"] * params["m0_sq"])


# ----------------------------------------------------------------- checks


def check(item: dict, exit_code: int, stdout: str, files: dict[str, str]) -> list[str]:
    """Problems with one operation's output (empty when it is correct)."""
    checker = {
        "verify-all": _check_verify_all,
        "limits": _check_limits,
        "ness": _check_ness,
        "series": _check_series,
    }[item["command"]]
    try:
        return checker(item["config"], exit_code, stdout, files)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_verify_all(config, exit_code, stdout, files):
    payload = strict_json(files["verify_all.json"])
    problems = []
    criteria = payload["criteria"]
    if [c["index"] for c in criteria] != list(range(1, 11)):
        problems.append("verify_all.json does not list criteria 1..10")
    for c in criteria:
        if c["status"] != "pass":
            problems.append(f"criterion {c['index']} {c['name']}: {c['status']} {c['measured']}")
    expected_rc = EXIT_OK if payload["all_passed"] else EXIT_CRITERION
    if exit_code != expected_rc:
        problems.append(f"exit {exit_code} contradicts all_passed={payload['all_passed']}")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != len(criteria):
        problems.append(f"{len(lines)} summary lines for {len(criteria)} criteria")
    return problems


LIMITS_HEADER = ["k", "mu", "re_I_sq", "im_I_sq", "I_abs", "target", "gap_abs", "gap_sq", "status"]


def _check_limits(config, exit_code, stdout, files):
    params = config["params"]
    ks, mus = config["ladders"]["k"], config["ladders"]["mu"]
    tol = _tolerances(config)["switch_final_abs"]
    problems = []
    if exit_code != EXIT_OK:
        problems.append(f"exit {exit_code}")
    rows = _csv_rows(stdout, LIMITS_HEADER)
    grid = [(k, mu) for k in ks for mu in mus]
    if [(r["k"], r["mu"]) for r in rows] != grid:
        return problems + [f"rows do not cover the (k, mu) grid {grid}"]
    for r in rows:
        eps, eps_l = _eps(r["k"], params)
        if not _close(r["target"], 1.0 / (eps + eps_l), 1e-14):
            problems.append(f"k={r['k']}: target {r['target']} is not 1/(eps+eps_lambda)")
        if not _close(r["gap_abs"], abs(r["I_abs"] - r["target"]), 1e-9, 1e-16):
            problems.append(f"k={r['k']} mu={r['mu']}: gap_abs disagrees with I_abs - target")
        if not _close(r["gap_sq"], math.hypot(r["re_I_sq"], r["im_I_sq"]), 1e-12):
            problems.append(f"k={r['k']} mu={r['mu']}: gap_sq disagrees with |I_sq|")
        if r["mu"] == mus[-1] and max(r["gap_abs"], r["gap_sq"]) > tol:
            problems.append(
                f"k={r['k']}: gap at largest mu {max(r['gap_abs'], r['gap_sq']):.3e} > {tol}"
            )
    return problems


NESS_HEADER = [
    "k", "re_A_plus", "im_A_plus", "re_A_minus", "im_A_minus",
    "norm_residual", "c_plus", "c_minus", "ccr_residual", "sudden_gap", "status",
]


def _check_ness(config, exit_code, stdout, files):
    params = config["params"]
    tol = _tolerances(config)
    problems = []
    if exit_code != EXIT_OK:
        problems.append(f"exit {exit_code}")
    rows = _csv_rows(stdout, NESS_HEADER)
    if len(rows) != config["quadrature"]["n_radial"]:
        problems.append(f"{len(rows)} rows for {config['quadrature']['n_radial']} radial nodes")
    for r in rows:
        k = r["k"]
        w_plus = r["re_A_plus"] ** 2 + r["im_A_plus"] ** 2
        w_minus = r["re_A_minus"] ** 2 + r["im_A_minus"] ** 2
        if r["norm_residual"] > tol["bogoliubov_norm_abs"]:
            problems.append(f"k={k}: norm_residual {r['norm_residual']:.3e}")
        if abs(r["ccr_residual"]) > tol["ness_ccr_abs"]:
            problems.append(f"k={k}: ccr_residual {r['ccr_residual']:.3e}")
        if not _close(r["norm_residual"], abs(w_plus - w_minus - 1.0), 1e-6, 1e-15):
            problems.append(f"k={k}: norm_residual disagrees with |A+|^2 - |A-|^2 - 1")
        b_plus, b_minus = _bose(params["beta"], _eps(k, params)[0])
        if not _close(r["c_plus"], b_plus * w_plus + b_minus * w_minus, 1e-12):
            problems.append(f"k={k}: c_plus is not b+|A+|^2 + b-|A-|^2")
        if not _close(r["c_minus"], b_plus * w_minus + b_minus * w_plus, 1e-12):
            problems.append(f"k={k}: c_minus is not b+|A-|^2 + b-|A+|^2")
        if not _close(r["ccr_residual"], r["c_plus"] - r["c_minus"] - 1.0, 0.0, 1e-12):
            problems.append(f"k={k}: ccr_residual disagrees with c_plus - c_minus - 1")
    return problems


def _check_series(config, exit_code, stdout, files):
    p = strict_json(stdout)
    tol = _tolerances(config)
    problems = []
    verdict = p["verdict"]
    expected_rc = EXIT_CRITERION if verdict == "fail" else EXIT_OK
    if verdict not in ("pass", "fail", "radius-violated"):
        problems.append(f"unknown verdict {verdict!r}")
    if exit_code != expected_rc:
        problems.append(f"exit {exit_code} contradicts verdict {verdict!r}")
    n = max(config["ladders"]["orders"])
    rows = p["orders"]
    if p["n_orders"] != n or [r["order"] for r in rows] != list(range(1, n + 1)):
        return problems + [f"orders do not run 1..{n}"]
    closed = complex(p["closed_form_re"], p["closed_form_im"])
    scale = abs(closed)
    cumulative = complex(p["zeroth_re"], p["zeroth_im"])
    for r in rows:
        cumulative += complex(r["term_re"], r["term_im"])
        got = complex(r["cumulative_re"], r["cumulative_im"])
        if abs(got - cumulative) > 1e-12 * scale:
            problems.append(f"order {r['order']}: cumulative is not the running sum of terms")
        if not _close(r["gap_to_closed_form"], abs(got - closed) / scale, 1e-9, 1e-15):
            problems.append(f"order {r['order']}: gap disagrees with |cumulative - closed|")
    max_dev = max(r["dual_path_rel_dev"] for r in rows)
    if max_dev != p["max_dual_path_dev"]:
        problems.append("max_dual_path_dev is not the largest per-order deviation")
    if max_dev > tol["series_dual_path_rel"]:
        problems.append(f"dual-path deviation {max_dev:.3e} > {tol['series_dual_path_rel']}")
    final_gap = p["final_rel_gap"]
    if final_gap != rows[-1]["gap_to_closed_form"]:
        problems.append("final_rel_gap is not the last order's gap")
    violated = p["max_shift"] >= p["shift_limit"]
    if (verdict == "radius-violated") != violated:
        problems.append(
            f"verdict {verdict!r} with max_shift {p['max_shift']} vs limit {p['shift_limit']}"
        )
    if verdict == "pass" and final_gap > tol["series_final_rel"]:
        problems.append(f"pass with final gap {final_gap:.3e} > {tol['series_final_rel']}")
    if verdict == "fail" and final_gap <= tol["series_final_rel"] and max_dev <= tol["series_dual_path_rel"]:
        problems.append("fail although the final gap and the dual-path deviation are in tolerance")
    check_ = p["pairing_check"]
    fine = complex(check_["value_re"], check_["value_im"])
    if not _close(abs(fine - closed), check_["refinement_delta"], 1e-6, 1e-15):
        problems.append("pairing_check refinement_delta disagrees with its coarse value")
    return problems
