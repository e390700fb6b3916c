"""Experiment driver: reproducible runs of every verification surface.

Subcommands
-----------
eulerian    cross-check the Eulerian rows (recursion vs enumeration)
limits      switching-integral ladder per momentum (CSV)
series      resummation report for the perturbative series (JSON, CSV table)
ness        Bogoliubov and steady-state spectral data per momentum (CSV)
verify-all  run the full acceptance suite and summarize

All numbers in the emitted CSV/JSON come from library operations; this layer
only formats.  Output is strict: a NaN or infinite value in a JSON payload
or a CSV table is a numerical failure (exit 3) and nothing of that payload
is written.  Identical configs produce byte-identical data files: no
wall-clock enters any payload (a separate meta.json carries the timestamp
when writing to a directory).

Exit codes: 0 success, 1 criterion failure, 2 config/schema error,
3 numerical-infrastructure failure (a failed solver gate or a floating-point
breakdown).  Every command runs with numpy's overflow, divide-by-zero and
invalid-operation errors raised, so a breakdown exits 3 instead of leaving a
warning on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import verify
from .combinatorics import ENUMERATION_CAP, eulerian_row_by_enumeration, eulerian_row_recursive
from .config import ConfigError, RunConfig, default_config, load_config
from .modes import (
    IntegratorError,
    SwitchingProfile,
    sudden_quench_pair,
    switch_integral_limit,
    switch_integrals,
)
from .series import verify_resummation
from .spectral import adiabatic, ness_classical, pair_report
from .verify import ness_bogoliubov_map

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _fmt(x: float) -> str:
    return f"{x:.17e}"


class NonFiniteOutput(ArithmeticError):
    """A payload holds a NaN or an infinity, which strict JSON and the CSV
    tables do not carry."""


def _ok_rows(header, columns):
    """CSV rows from equal-length numeric columns, named by ``header``, each
    ending in status "ok"; a NaN or infinite value raises ``NonFiniteOutput``."""
    for name, col in zip(header, columns):
        if not np.all(np.isfinite(col)):
            raise NonFiniteOutput(f"non-finite value in CSV column {name!r}")
    return [[_fmt(x) for x in row] + ["ok"] for row in zip(*columns)]


def _emit_csv(header, rows, out_dir, filename):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(buf.getvalue(), out_dir, filename)


def _emit_json(payload, out_dir, filename):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"{filename}: {exc}") from exc
    _emit_text(text + "\n", out_dir, filename)


def _emit_text(text, out_dir, filename):
    if out_dir is None:
        sys.stdout.write(text)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text, encoding="utf-8")


def _write_meta(args, out_dir):
    if out_dir is None:
        return
    meta = {
        "command": args.command,
        "config": str(args.config) if args.config else "defaults",
        "refine": bool(args.refine),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _emit_json(meta, out_dir, "meta.json")


def cmd_eulerian(args) -> int:
    if args.n_max < 1 or args.n_max > ENUMERATION_CAP:
        sys.stderr.write(
            f"error: cap exceeded: enumeration cross-check requires 1 <= n_max <= {ENUMERATION_CAP}\n"
        )
        return EXIT_CONFIG
    rows = []
    all_match = True
    for n in range(1, args.n_max + 1):
        rec = eulerian_row_recursive(n)
        enum = eulerian_row_by_enumeration(n)
        match = rec.coefficients == enum.coefficients
        all_match = all_match and match
        rows.append(
            [
                str(n),
                " ".join(map(str, rec.coefficients)),
                " ".join(map(str, enum.coefficients)),
                str(rec.row_sum),
                "MATCH" if match else "MISMATCH",
            ]
        )
    out_dir = Path(args.out) if args.out else None
    _emit_csv(["n", "recursive", "enumeration", "row_sum", "status"], rows, out_dir, "eulerian.csv")
    _write_meta(args, out_dir)
    return EXIT_OK if all_match else EXIT_CRITERION


def cmd_limits(args) -> int:
    """Switching-integral ladder, one row per (k, mu), k-major: one batched
    :func:`switch_integrals` call over every k per mu.  A failed Wronskian
    gate raises ``IntegratorError``: exit 3, no CSV."""
    config = _load(args)
    ks, mus = np.array(config.k_values), np.array(config.mu_ladder)
    ladder = [switch_integrals(ks, SwitchingProfile(mu), config.params) for mu in mus]
    # (mu, k) arrays, read k-major
    i_sq, i_abs = (np.array(x).T.ravel() for x in zip(*ladder))
    target = np.repeat(switch_integral_limit(ks, config.params), mus.size)
    columns = [np.repeat(ks, mus.size), np.tile(mus, ks.size), i_sq.real, i_sq.imag, i_abs,
               target, np.abs(i_abs - target), np.abs(i_sq)]
    header = ["k", "mu", "re_I_sq", "im_I_sq", "I_abs", "target", "gap_abs", "gap_sq", "status"]
    rows = _ok_rows(header, columns)
    out_dir = Path(args.out) if args.out else None
    _emit_csv(header, rows, out_dir, "limits.csv")
    _write_meta(args, out_dir)
    return EXIT_OK


def cmd_series(args) -> int:
    config = _load(args)
    f, g = config.packet_pair
    report = verify_resummation(
        config.params, f, g,
        N=max(config.order_ladder),
        tol=config.tolerances["series_final_rel"],
        quad=config.quadrature,
        dual_path_tol=config.tolerances["series_dual_path_rel"],
    )
    payload = report.to_dict()
    payload["pairing_check"] = pair_report(adiabatic(config.params), f, g, config.quadrature)
    out_dir = Path(args.out) if args.out else None
    _emit_json(payload, out_dir, "series.json")
    if out_dir is not None:
        rows = [
            [
                str(r["order"]),
                _fmt(r["term_re"]), _fmt(r["term_im"]),
                _fmt(r["cumulative_re"]), _fmt(r["cumulative_im"]),
                _fmt(r["gap_to_closed_form"]), _fmt(r["dual_path_rel_dev"]),
            ]
            for r in payload["orders"]
        ]
        _emit_csv(
            ["order", "term_re", "term_im", "cumulative_re", "cumulative_im",
             "gap_to_closed_form", "dual_path_rel_dev"],
            rows, out_dir, "series.csv",
        )
    _write_meta(args, out_dir)
    if report.verdict == "fail":
        return EXIT_CRITERION
    return EXIT_OK  # "pass" and "radius-violated" both succeed; verdict is in the payload


def cmd_ness(args) -> int:
    """Bogoliubov pairs and steady-state coefficients at the radial nodes:
    one map call, so one batched ramp solve, for the whole node set.  A
    failed Wronskian gate raises ``IntegratorError``, and a row whose
    normalization or commutator residual exceeds the config's
    ``bogoliubov_norm_abs`` or ``ness_ccr_abs`` is a numerical failure too:
    exit 3, no CSV."""
    config = _load(args)
    f, g = config.packet_pair
    k, _ = config.quadrature.radial_rule(f, g)
    params = config.params
    bog_map = ness_bogoliubov_map(params, mu=config.profile.mu)
    b = bog_map(k)
    state = ness_classical(params, bog_map)
    oracle = sudden_quench_pair(k, params)
    norm, ccr = b.normalization_residual, state.ccr_residual(k)
    norm_tol, ccr_tol = config.tolerances["bogoliubov_norm_abs"], config.tolerances["ness_ccr_abs"]
    broken = ~((norm <= norm_tol) & (np.abs(ccr) <= ccr_tol))  # a NaN residual breaks too
    if np.any(broken):
        i = int(np.argmax(broken))
        sys.stderr.write(
            f"numerical failure: ness row k={k[i]} breaks its identities: norm_residual "
            f"{norm[i]:.3e} (bound {norm_tol:.1e}), ccr_residual {ccr[i]:.3e} (bound {ccr_tol:.1e})\n"
        )
        return EXIT_NUMERICS
    columns = [
        k, b.a_plus.real, b.a_plus.imag, b.a_minus.real, b.a_minus.imag, norm,
        state.c_plus(k), state.c_minus(k), ccr,
        np.maximum(np.abs(b.a_plus - oracle.a_plus), np.abs(b.a_minus - oracle.a_minus)),
    ]
    header = ["k", "re_A_plus", "im_A_plus", "re_A_minus", "im_A_minus",
              "norm_residual", "c_plus", "c_minus", "ccr_residual", "sudden_gap", "status"]
    rows = _ok_rows(header, columns)
    out_dir = Path(args.out) if args.out else None
    _emit_csv(header, rows, out_dir, "ness.csv")
    _write_meta(args, out_dir)
    return EXIT_OK


def cmd_verify_all(args) -> int:
    config = _load(args)
    results = verify.run_all(config)
    for r in results:
        print(r.summary_line())
    payload = {
        "criteria": [r.to_dict() for r in results],
        "all_passed": all(r.status != "fail" for r in results),
    }
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        _emit_json(payload, out_dir, "verify_all.json")
    _write_meta(args, out_dir)
    return EXIT_OK if payload["all_passed"] else EXIT_CRITERION


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else default_config()
    if args.refine:
        config = config.refined()
    return config


def _add_common(sub):
    sub.add_argument("--config", type=Path, default=None, help="JSON run configuration")
    sub.add_argument("--out", type=Path, default=None, help="output directory (stdout if omitted)")
    sub.add_argument("--refine", action="store_true",
                     help="double quadrature node counts and densify ladders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalquench",
        description="Verification runs for thermal states under a switched mass shift.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eulerian", help="cross-check Eulerian rows")
    p.add_argument("--n-max", type=int, default=8, help=f"largest order (<= {ENUMERATION_CAP})")
    _add_common(p)
    p.set_defaults(fn=cmd_eulerian)

    p = subs.add_parser("limits", help="switching-integral ladder (CSV)")
    _add_common(p)
    p.set_defaults(fn=cmd_limits)

    p = subs.add_parser("series", help="series resummation report (JSON)")
    _add_common(p)
    p.set_defaults(fn=cmd_series)

    p = subs.add_parser("ness", help="Bogoliubov and steady-state data (CSV)")
    _add_common(p)
    p.set_defaults(fn=cmd_ness)

    p = subs.add_parser("verify-all", help="run the acceptance suite")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # FloatingPointError is an ArithmeticError: exit 3 below
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (IntegratorError, ArithmeticError) as exc:
        # ArithmeticError: a floating-point breakdown, a vanished
        # denominator, a non-finite temperature shift or a non-finite
        # payload (NonFiniteOutput)
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
