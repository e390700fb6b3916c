import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermalquench import cli, modes
from thermalquench.cli import main
from thermalquench.config import NODE_CAP
from thermalquench.modes import BogoliubovPair
from thermalquench.thermal import bose_coefficient


ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main(list(args))


def fast_config(tmp_path, **overrides):
    """A lighter config: trimmed ladder and thin quadrature for CLI runs.

    The mu ladder still has to reach the scale where the switching
    integrals meet their absolute targets, so it is trimmed, not truncated.
    """
    doc = {
        "schema_version": 1,
        "ladders": {
            "mu": [5.0, 10.0, 20.0],
            "orders": [1, 2, 3, 4, 5, 6, 7, 8],
            "horizons": [50.0],
            "k": [0.0, 1.0],
        },
        "quadrature": {"n_radial": 24, "n_time": 48},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestEulerian:
    def test_table(self, capsys):
        assert run(["eulerian", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,recursive,enumeration,row_sum,status"
        assert len(lines) == 5
        assert all(line.endswith("MATCH") for line in lines[1:])
        assert lines[4].split(",")[1] == "1 11 11 1"

    def test_single_row(self, capsys):
        assert run(["eulerian", "--n-max", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "1,1,1,1,MATCH"

    def test_cap_exceeded(self, capsys):
        assert run(["eulerian", "--n-max", "10"]) == 2
        assert "cap exceeded" in capsys.readouterr().err

    def test_out_dir(self, tmp_path):
        assert run(["eulerian", "--n-max", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "eulerian.csv").exists()
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["command"] == "eulerian"
        assert "timestamp" in meta


class TestLimits:
    def test_free_case_row(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, params={"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.0})
        assert run(["limits", "--config", str(cfg)]) == 0
        header, rows = _parse_stdout_csv(capsys)
        gap = float(rows[0][header.index("gap_abs")])
        assert gap < 1e-9  # free case: |T|^2 is exactly the target density

    def test_default_ladder_monotone(self, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        assert run(["limits", "--config", str(cfg)]) == 0
        header, rows = _parse_stdout_csv(capsys)
        by_k = {}
        for row in rows:
            by_k.setdefault(row[header.index("k")], []).append(float(row[header.index("gap_abs")]))
        for gaps in by_k.values():
            assert all(b < a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize(
        "doc",
        [
            '{"ladders": {"mu": [10.0, 5.0]}}',
            '{"ladders": {"k": [1.0, 0.0, 1.0]}}',
            '{"ladders": {"k": []}}',
            '{"quadrature": {"n_radial": 0}}',
            '{"quadrature": {"n_time": -3}}',
            '{"packets": [{"k_center": NaN, "k_width": 0.5, "t_center": 2.0, "t_width": 0.3},'
            ' {"k_center": 1.0, "k_width": 0.5, "t_center": 2.5, "t_width": 0.3}]}',
            '{"params": {"beta": Infinity}}',
            '{"profile": {"mu": Infinity}}',
            '{"ladders": {"mu": [5.0, Infinity]}}',
            '{"ladders": {"orders": [1, Infinity]}}',
            '{"ladders": {"orders": [1, 17]}}',
            '{"params": {"lam": 1e300, "m0_sq": 1e300}}',
            '{"quadrature": {"n_radial": 20000}}',
            '{"packets": [{"k_center": 1.0, "k_width": 1e-300, "t_center": 2.0, "t_width": 0.3},'
            ' {"k_center": 1.0, "k_width": 0.5, "t_center": 2.5, "t_width": 0.3}]}',
            '{"packets": [{"k_center": 1.0, "k_width": 0.5, "t_center": 2.0, "t_width": 0.3},'
            ' {"k_center": 1.0, "k_width": 0.5, "t_center": 2.5, "t_width": 1e-300}]}',
            '{"params": {"betta": 7}}',
            '{"profile": {"muu": 3}}',
            '{"ladders": {"mus": [1]}}',
            '{"quadrature": {"n_radiall": 4}}',
            '{"packets": [{"k_center": 1.0, "k_width": 0.5, "t_center": 2.0, "t_width": 0.3,'
            ' "k_centre": 1.0},'
            ' {"k_center": 1.0, "k_width": 0.5, "t_center": 2.5, "t_width": 0.3}]}',
            '{"tolerances": {"wronskian_abss": 1e-3}}',
            '{"tolerances": {"wronskian_abs": true}}',
            '{"params": {"beta": "2"}}',
            '{"params": {"beta": true}}',
            '{"quadrature": {"n_radial": 3.7}}',
            '{"ladders": {"orders": [1, 2.9]}}',
            '{"schema_version": 1.9}',
        ],
        ids=["mu-descending", "k-unsorted-duplicate", "k-empty", "n-radial-zero", "n-time-negative",
             "k-center-nan", "beta-infinity", "mu-infinity", "mu-ladder-infinity",
             "orders-infinity", "orders-beyond-cap", "mass-shift-overflow", "n-radial-20000",
             "k-width-underflow", "t-width-underflow", "params-unknown-key",
             "profile-unknown-key", "ladders-unknown-key", "quadrature-unknown-key",
             "packet-fifth-key", "tolerances-unknown-key", "tolerance-bool", "beta-string",
             "beta-bool", "n-radial-fractional", "orders-fractional", "schema-version-fractional"],
    )
    def test_malformed_config(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        for command in ("limits", "ness", "series"):
            assert run([command, "--config", str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error:") and "Traceback" not in captured.err
            assert captured.err.count("\n") == 1 and captured.out == ""

    def test_refine_past_node_cap_is_config_error(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, quadrature={"n_radial": NODE_CAP, "n_time": 48})
        assert run(["limits", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert run(["limits", "--config", str(cfg), "--refine"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: quadrature node counts must be <= {NODE_CAP}")

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"paramz": {}}')
        assert run(["limits", "--config", str(bad)]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = fast_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["limits", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["limits", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "limits.csv").read_bytes() == (out2 / "limits.csv").read_bytes()

    def test_refine_densifies_ladder(self, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        assert run(["limits", "--config", str(cfg), "--refine"]) == 0
        header, rows = _parse_stdout_csv(capsys)
        mus = sorted({float(r[header.index("mu")]) for r in rows})
        assert len(mus) == 5  # geometric midpoints inserted into [5, 10, 20]
        assert mus[0] == 5.0 and mus[-1] == 20.0


class TestBatchedRampSolves:
    """limits and ness reach the ODE solver through one batched ramp solve
    per switching scale, and a failed Wronskian gate exits 3 cleanly."""

    def test_limits_one_solve_per_mu(self, tmp_path, capsys, ramp_solves):
        cfg = fast_config(tmp_path)
        assert run(["limits", "--config", str(cfg)]) == 0
        assert len(ramp_solves) == 3  # the mu ladder of fast_config
        assert all(len(k) == 2 for k in ramp_solves)  # both k values in each

    def test_ness_one_solve(self, tmp_path, capsys, ramp_solves):
        cfg = fast_config(tmp_path)
        assert run(["ness", "--config", str(cfg)]) == 0
        assert len(ramp_solves) == 1
        assert len(ramp_solves[0]) == 24  # every radial node of fast_config

    @pytest.mark.parametrize(
        "command, params, gate, message",
        [
            pytest.param("limits", None, 1e-30, "Wronskian drift", id="limits"),
            pytest.param("ness", None, 1e-30, "Wronskian drift", id="ness"),
            # c_plus ~ 1e299 at beta = 1e-300, so c_plus - c_minus cancels and
            # the commutator residual reads -1 although every pair is fine
            pytest.param(
                "ness", {"beta": 1e-300, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.1},
                modes._WRONSKIAN_TOL, "ccr_residual", id="ness-beta-1e-300",
            ),
        ],
    )
    def test_failed_gate_exits_numerical(self, tmp_path, capsys, monkeypatch, command, params,
                                         gate, message):
        monkeypatch.setattr(modes, "_WRONSKIAN_TOL", gate)
        cfg = fast_config(tmp_path, **({"params": params} if params else {}))
        assert run([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, name, poisoned",
        [
            ("limits", "switch_integral_limit", lambda ks, params: np.full(np.shape(ks), np.nan)),
            ("ness", "sudden_quench_pair",
             lambda k, params: BogoliubovPair(np.full(np.shape(k), np.nan), np.zeros(np.shape(k)))),
        ],
    )
    def test_non_finite_column_exits_numerical(self, tmp_path, capsys, monkeypatch, command, name,
                                               poisoned):
        # one column (limits: target, ness: sudden_gap) turns NaN
        monkeypatch.setattr(cli, name, poisoned)
        out = tmp_path / "out"
        assert run([command, "--config", str(fast_config(tmp_path)), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: non-finite value in CSV column")
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestFloatingPointBreakdown:
    """An overflow, a division by zero or an invalid operation in numpy, or a
    non-finite temperature shift, is a numerical failure: exit 3, one line on
    stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            # b_plus ~ 1e300 at beta = 1e-300, and the derivative tower squares it
            pytest.param("series", {"params": {"beta": 1e-300, "m_sq": 1.0, "m0_sq": 1.0,
                                               "lam": 0.1}}, "overflow", id="series-beta-1e-300"),
            pytest.param("limits", {"ladders": {"k": [0.0, 1e300]}}, "overflow",
                          id="limits-k-1e300"),
            pytest.param(
                "series",
                {"params": {"beta": 1e200, "m_sq": 1e-300, "m0_sq": 1.0, "lam": 1e300},
                 "packets": 2 * [{"k_center": 0.0, "k_width": 1e-10, "t_center": 0.0,
                                  "t_width": 0.5}]},
                "convergence guard: temperature shift inf", id="series-guard-overflow",
            ),
        ],
    )
    def test_exits_numerical(self, tmp_path, capsys, command, doc, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert run([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestImportGraph:
    def test_runtime_never_imports_scipy(self):
        # numpy is the only runtime dependency; scipy is for the tests alone
        code = (
            "import sys\n"
            "from thermalquench import SwitchingProfile, ThermalParams, cli, wkb_mode\n"
            "for command in ('eulerian', 'limits', 'series', 'ness', 'verify-all'):\n"
            "    assert cli.main([command]) == 0, command\n"
            "params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.1)\n"
            "wkb_mode(1.0, [-2.0, -0.5, 1.0], SwitchingProfile(1.0), params, t0=-1.0)\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, sorted(loaded)[:5]\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


class TestSeries:
    def test_default_bench_passes(self, capsys):
        assert run(["series"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["final_rel_gap"] <= 1e-8
        assert len(doc["orders"]) == 8

    def test_free_case(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, params={"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.0})
        assert run(["series", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"

    def test_radius_violation_exit_is_distinct_from_failure(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, params={"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 8.0})
        assert run(["series", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "radius-violated"

    def test_csv_table_written(self, tmp_path):
        cfg = fast_config(tmp_path)
        out = tmp_path / "out"
        assert run(["series", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "series.csv")
        assert header[0] == "order"
        assert len(rows) == 8

    def test_non_finite_payload_exits_numerical(self, capsys, monkeypatch):
        original = cli.pair_report

        def poisoned(*args, **kwargs):
            return {**original(*args, **kwargs), "refinement_delta": math.nan}

        monkeypatch.setattr(cli, "pair_report", poisoned)
        assert run(["series"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_one_rule_per_node_count(self, tmp_path, capsys, leggauss_calls):
        cfg = fast_config(tmp_path)  # n_radial = 24
        assert run(["series", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert sorted(leggauss_calls) == [24, 48]  # the grid and pair_report's refinement
        assert run(["series", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first
        assert sorted(leggauss_calls) == [24, 48]  # the second call computes none


class TestNess:
    def test_default_rows(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, params={"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.5})
        assert run(["ness", "--config", str(cfg)]) == 0
        header, rows = _parse_stdout_csv(capsys)
        i_ccr = header.index("ccr_residual")
        i_norm = header.index("norm_residual")
        assert rows and all(abs(float(r[i_ccr])) <= 1e-10 for r in rows)
        assert all(float(r[i_norm]) <= 1e-10 for r in rows)

    def test_near_free_pair_read_at_step_endpoint(self, tmp_path, capsys):
        # ramp_sweep seed 1943413667, item ness-56: at |lam| ~ 1e-4 the tight
        # solve takes few, long steps; a pair read from the interpolant
        # between two of them broke the map's 1e-11 normalization bound
        doc = {
            "params": {"beta": 1.252452, "m_sq": 1.0, "m0_sq": 1.0, "lam": -0.000121},
            "profile": {"mu": 0.690495},
            "packets": [
                {"k_center": 0.792375, "k_width": 0.239754, "t_center": 2.533711, "t_width": 0.267243},
                {"k_center": 0.798941, "k_width": 0.293909, "t_center": 0.594346, "t_width": 0.251087},
            ],
            "quadrature": {"n_radial": 12, "n_time": 80},
        }
        cfg = tmp_path / "ness56.json"
        cfg.write_text(json.dumps(doc))
        assert run(["ness", "--config", str(cfg)]) == 0
        header, rows = _parse_stdout_csv(capsys)
        assert len(rows) == 12
        assert all(abs(float(r[header.index("ccr_residual")])) <= 1e-11 for r in rows)
        assert all(float(r[header.index("norm_residual")]) <= 1e-11 for r in rows)

    def test_free_case_rows(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, params={"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.0})
        assert run(["ness", "--config", str(cfg)]) == 0
        header, rows = _parse_stdout_csv(capsys)
        row = rows[0]
        k = float(row[header.index("k")])
        assert abs(float(row[header.index("re_A_plus")]) - 1.0) < 1e-9
        assert abs(float(row[header.index("re_A_minus")])) < 1e-9
        eps = math.sqrt(k * k + 1.0)
        assert float(row[header.index("c_plus")]) == pytest.approx(
            bose_coefficient(+1, 1.0, eps), rel=1e-9
        )

    def test_sudden_profile_oracle_column(self, tmp_path, capsys):
        cfg = fast_config(
            tmp_path,
            params={"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.5},
            profile={"mu": 0.001},
        )
        assert run(["ness", "--config", str(cfg)]) == 0
        header, rows = _parse_stdout_csv(capsys)
        i_gap = header.index("sudden_gap")
        assert all(float(r[i_gap]) <= 1e-3 for r in rows)


class TestVerifyAll:
    def test_reduced_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path)
        assert run(["verify-all", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 10
        assert all(line.startswith(("PASS", "SKIP")) for line in lines)
        doc = json.loads((out / "verify_all.json").read_text())
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 10

    def test_radius_violating_config_skips_series(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, params={"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 8.0})
        assert run(["verify-all", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        series_lines = [l for l in lines if "series-resummation" in l]
        assert len(series_lines) == 1
        assert series_lines[0].startswith("SKIP")
        assert "not expected to converge" in series_lines[0]

    def test_negative_tolerance_is_config_error(self, tmp_path):
        cfg = fast_config(tmp_path, tolerances={"wronskian_abs": -1.0})
        assert run(["verify-all", "--config", str(cfg)]) == 2


def _parse_stdout_csv(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]
