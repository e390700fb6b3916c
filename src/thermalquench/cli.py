"""Experiment driver: reproducible runs of every verification surface.

One parser takes a command and the flags ``--config``, ``--out`` and
``--refine``, in any order; every command accepts all three:

eulerian    cross-check the Eulerian rows for n = 1..8 (recursion vs enumeration)
limits      switching-integral ladder per momentum (CSV)
series      resummation report for the perturbative series (JSON, CSV table)
ness        Bogoliubov and steady-state spectral data per momentum (CSV)
verify-all  run the full acceptance suite and summarize

All numbers in the emitted CSV/JSON come from library operations.  This
layer formats them and derives a few: ``limits`` computes each row's target
and gaps, and ``ness`` computes the sudden-quench gaps and refuses (exit 3)
a row whose normalization or commutator residual is off its bound.  Output
is strict: a NaN or infinite value in a JSON payload or a CSV table is a
numerical failure (exit 3) and nothing of that payload is written.
Identical configs produce byte-identical data files: no wall-clock enters
any payload (a separate meta.json carries the timestamp when writing to a
directory).

Exit codes: 0 success, 1 criterion failure, 2 config/schema error (a bad
flag, a config that cannot be read or is refused, or an ``--out`` that
cannot take the files), 3 numerical-infrastructure failure (a failed solver
gate or a floating-point breakdown).  A command returns 0 or 1 and raises
for the rest; :func:`main` alone refuses an ``--out`` that names or lies
below a non-directory (before the command runs), loads the config, writes
``meta.json`` (under ``--out``, on exit 0 or 1 only) and turns an
exception into one error line on stderr and exit 2 or 3.  Every command
runs with numpy's overflow, divide-by-zero and invalid-operation errors
raised, so a breakdown exits 3 instead of leaving a warning on stderr.
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

from . import modes, verify
from .config import ConfigError, RunConfig, default_config, load_config
from .modes import (
    IntegratorError,
    SwitchingProfile,
    sudden_quench_pair,
    switch_integral_limit,
    switch_integrals,  # benchmarks/tracing.py is its last reader
)
from .spectral import adiabatic, ness_classical, pair_report
from .verify import TOLERANCES, ness_bogoliubov_map

COMMANDS = ("eulerian", "limits", "series", "ness", "verify-all")

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _fmt(x: float) -> str:
    return f"{x:.17e}"


class NonFiniteOutput(ArithmeticError):
    """A payload holds a NaN or an infinity, which strict JSON and the CSV
    tables do not carry."""


def _emit_ok_csv(table, out_dir, filename):
    """Write ``table``, a ``{name: column}`` dict of equal-length numeric
    columns, as CSV rows that each end in status "ok"; a NaN or infinite
    value raises ``NonFiniteOutput`` and writes nothing."""
    for name, col in table.items():
        if not np.all(np.isfinite(col)):
            raise NonFiniteOutput(f"non-finite value in CSV column {name!r}")
    rows = [[_fmt(x) for x in row] + ["ok"] for row in zip(*table.values())]
    _emit_csv([*table, "status"], rows, out_dir, filename)


def _emit_csv(header, rows, out_dir, filename):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(buf.getvalue(), out_dir, filename)


def _strict_json(payload, filename):
    """``payload`` as strict JSON text; a NaN or infinite value raises
    ``NonFiniteOutput`` naming ``filename``."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"{filename}: {exc}") from exc
    return text + "\n"


def _emit_json(payload, out_dir, filename):
    _emit_text(_strict_json(payload, filename), out_dir, filename)


def _emit_text(text, out_dir, filename):
    if out_dir is None:
        sys.stdout.write(text)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text, encoding="utf-8")


def _check_out(out_dir):
    """Raise ``NotADirectoryError`` if ``out_dir`` is, or lies below, an
    existing non-directory; create nothing."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"{path} is not a directory")
            return


def _write_meta(args):
    meta = {
        "command": args.command,
        "config": str(args.config) if args.config else "defaults",
        "refine": bool(args.refine),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _emit_json(meta, args.out, "meta.json")


def cmd_eulerian(args, config: RunConfig) -> int:
    rows = [
        [str(rec.n), " ".join(map(str, rec.coefficients)), " ".join(map(str, enum.coefficients)),
         str(rec.row_sum), "MATCH" if rec.coefficients == enum.coefficients else "MISMATCH"]
        for rec, enum in verify.eulerian_rows()
    ]
    _emit_csv(["n", "recursive", "enumeration", "row_sum", "status"], rows, args.out, "eulerian.csv")
    return EXIT_OK if all(row[-1] == "MATCH" for row in rows) else EXIT_CRITERION


def cmd_limits(args, config: RunConfig) -> int:
    """Switching-integral ladder, one row per (k, mu), k-major: one ramp
    solve of the whole mu ladder over every k, and one read of every rung's
    switching integrals, as criterion 5 reads its ladder.  A failed Wronskian
    gate raises ``IntegratorError``: exit 3, no CSV."""
    ks, mus = np.array(config.k_values), np.array(config.mu_ladder)
    trajs = modes._ramp_solve(ks, [SwitchingProfile(mu) for mu in mus], config.params)
    # (mu, k) arrays, read k-major
    i_sq, i_abs = (np.array(x).T.ravel() for x in zip(*modes._switch_integrals(*trajs)))
    target = np.repeat(switch_integral_limit(ks, config.params), mus.size)
    table = {"k": np.repeat(ks, mus.size), "mu": np.tile(mus, ks.size), "re_I_sq": i_sq.real,
             "im_I_sq": i_sq.imag, "I_abs": i_abs, "target": target,
             "gap_abs": np.abs(i_abs - target), "gap_sq": np.abs(i_sq)}
    _emit_ok_csv(table, args.out, "limits.csv")
    return EXIT_OK


def cmd_series(args, config: RunConfig) -> int:
    f, g = config.packet_pair
    report = verify.series_report(config)
    payload = report.to_dict()
    # the report's closed form is the n-node pairing of the shifted thermal state
    state = adiabatic(config.params)
    payload["pairing_check"] = pair_report(state, f, g, config.quadrature, report.closed_form)
    _emit_json(payload, args.out, "series.json")
    if args.out is not None:
        # the CSV columns are the per-order keys of the JSON payload
        orders = payload["orders"]
        rows = [[str(x) if isinstance(x, int) else _fmt(x) for x in r.values()] for r in orders]
        _emit_csv(list(orders[0]), rows, args.out, "series.csv")
    if report.verdict == "fail":
        return EXIT_CRITERION
    return EXIT_OK  # "pass" and "radius-violated" both succeed; verdict is in the payload


def cmd_ness(args, config: RunConfig) -> int:
    """Bogoliubov pairs and steady-state coefficients at the radial nodes:
    one map call, so one batched ramp solve, for the whole node set.  A
    failed Wronskian gate raises ``IntegratorError``, and a row whose
    normalization or commutator residual exceeds the pinned
    ``bogoliubov_norm_abs`` or ``ness_ccr_abs`` of ``verify.TOLERANCES`` is
    a numerical failure too: exit 3, no CSV."""
    f, g = config.packet_pair
    k, _ = config.quadrature.radial_rule(f, g)
    params = config.params
    bog_map = ness_bogoliubov_map(params, mu=config.profile.mu)
    b = bog_map(k)
    state = ness_classical(params, bog_map)
    oracle = sudden_quench_pair(k, params)
    # the coefficients once, and ccr_residual's expression on them
    c_plus, c_minus = state.c_plus(k), state.c_minus(k)
    norm, ccr = b.normalization_residual, c_plus - c_minus - 1.0
    norm_tol, ccr_tol = TOLERANCES["bogoliubov_norm_abs"], TOLERANCES["ness_ccr_abs"]
    broken = ~((norm <= norm_tol) & (np.abs(ccr) <= ccr_tol))  # a NaN residual breaks too
    if np.any(broken):
        i = int(np.argmax(broken))
        raise ArithmeticError(
            f"ness row k={k[i]} breaks its identities: norm_residual "
            f"{norm[i]:.3e} (bound {norm_tol:.1e}), ccr_residual {ccr[i]:.3e} (bound {ccr_tol:.1e})"
        )
    gap_plus, gap_minus = np.abs(b.a_plus - oracle.a_plus), np.abs(b.a_minus - oracle.a_minus)
    table = {
        "k": k, "re_A_plus": b.a_plus.real, "im_A_plus": b.a_plus.imag,
        "re_A_minus": b.a_minus.real, "im_A_minus": b.a_minus.imag, "norm_residual": norm,
        "c_plus": c_plus, "c_minus": c_minus, "ccr_residual": ccr,
        "sudden_gap": np.maximum(gap_plus, gap_minus),
    }
    _emit_ok_csv(table, args.out, "ness.csv")
    return EXIT_OK


def cmd_verify_all(args, config: RunConfig) -> int:
    """Run every criterion and print one summary line each as it finishes,
    so a criterion that raises leaves the lines of those before it.  The
    payload is checked as strict JSON with or without ``--out``, after the
    summary lines (which name the criterion that measured a NaN) and before
    any file is written, so a non-finite measured value exits 3 either way."""
    results = []
    for r in verify.run_all(config):
        print(r.summary_line())
        results.append(r)
    payload = {
        "criteria": [r.to_dict() for r in results],
        "all_passed": all(r.status != "fail" for r in results),
    }
    text = _strict_json(payload, "verify_all.json")
    if args.out is not None:
        _emit_text(text, args.out, "verify_all.json")
    return EXIT_OK if payload["all_passed"] else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalquench",
        description="Verification runs for thermal states under a switched mass shift.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="JSON run configuration")
    parser.add_argument("--out", type=Path, default=None, help="output directory (stdout if omitted)")
    parser.add_argument("--refine", action="store_true",
                        help="double quadrature node counts and densify the mu ladder")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # looked up on each call, so a wrapper installed on the module attribute is seen
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        # FloatingPointError is an ArithmeticError: exit 3 below
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.out is not None:
                _check_out(args.out)
            config = load_config(args.config) if args.config else default_config()
            if args.refine:
                config = config.refined()
            code = command(args, config)
            if args.out is not None:
                _write_meta(args)
            return code
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        # the config is read inside load_config, so this is the output side
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_CONFIG
    except (IntegratorError, ArithmeticError) as exc:
        # ArithmeticError: a floating-point breakdown, a vanished
        # denominator, a non-finite temperature shift, a non-finite
        # payload (NonFiniteOutput) or a ness row off its identities
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
