import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermalquench import cli, modes, verify
from thermalquench.cli import main
from thermalquench.config import NODE_CAP, default_config
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
        # always n = 1..8, the rows criterion 1 checks
        assert run(["eulerian"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,recursive,enumeration,row_sum,status"
        assert len(lines) == 9
        assert all(line.endswith("MATCH") for line in lines[1:])
        assert lines[4].split(",")[1] == "1 11 11 1"
        assert lines[8].split(",")[3] == "40320"

    def test_single_row(self, capsys):
        # the first row, n = 1, of the default table
        assert run(["eulerian"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "1,1,1,1,MATCH"

    def test_out_dir(self, tmp_path):
        assert run(["eulerian", "--out", str(tmp_path)]) == 0
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
            '{"tolerances": {"wronskian_abs": 1e-8}}',
            '{"params": {"beta": "2"}}',
            '{"params": {"beta": true}}',
            '{"quadrature": {"n_radial": 3.7}}',
            '{"ladders": {"orders": [1, 2.9]}}',
            '{"schema_version": 1.9}',
            b'\xff',
            "[" * 100000 + "]" * 100000,
            '{"ladders": {"horizons": [50]}}',
            '{"packets": [{"k_center": 1.0, "k_width": 0.5, "t_center": 2.0, "t_width": 0.3},'
            ' {"k_center": 1.0, "k_width": 0.5, "t_center": 2.5, "t_width": 0.3},'
            ' {"k_center": 1.0, "k_width": 0.5, "t_center": 3.0, "t_width": 0.3}]}',
        ],
        ids=["mu-descending", "k-unsorted-duplicate", "k-empty", "n-radial-zero", "n-time-negative",
             "k-center-nan", "beta-infinity", "mu-infinity", "mu-ladder-infinity",
             "orders-infinity", "orders-beyond-cap", "mass-shift-overflow", "n-radial-20000",
             "k-width-underflow", "t-width-underflow", "params-unknown-key",
             "profile-unknown-key", "ladders-unknown-key", "quadrature-unknown-key",
             "packet-fifth-key", "tolerances-section", "beta-string",
             "beta-bool", "n-radial-fractional", "orders-fractional", "schema-version-fractional",
             "not-utf8", "nested-too-deep", "ladders-horizons", "packets-three"],
    )
    def test_malformed_config(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        for command in ("eulerian", "limits", "ness", "series", "verify-all"):
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

    def test_refine_densifies_ladder(self, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        assert run(["limits", "--config", str(cfg), "--refine"]) == 0
        header, rows = _parse_stdout_csv(capsys)
        mus = sorted({float(r[header.index("mu")]) for r in rows})
        assert len(mus) == 5  # geometric midpoints inserted into [5, 10, 20]
        assert mus[0] == 5.0 and mus[-1] == 20.0


class TestParser:
    """One flat parser: a command and one flag set, in any order."""

    def test_one_parser_per_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(["eulerian"]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("argv", [["eulerian", "--n-max", "3"], ["limits", "--n-max", "3"]],
                             ids=["eulerian-n-max", "limits-n-max"])
    def test_unknown_flag_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and captured.out == ""

    def test_flags_before_command(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "eulerian"]) == 0
        assert capsys.readouterr().out == ""
        last = (tmp_path / "eulerian.csv").read_text().splitlines()[-1]
        assert last.startswith("8,") and last.endswith(",40320,MATCH")

    def test_command_help_is_the_parser_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["limits", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()

    def test_readme_cli_block_parses(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## CLI\n\n```sh\n(.*?)```", readme, flags=re.DOTALL | re.MULTILINE)
        lines = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
        lines = [line for line in lines if line]
        assert lines and all(line[0] == "thermalquench" for line in lines)
        parser = cli.build_parser()
        assert {parser.parse_args(line[1:]).command for line in lines} == set(cli.COMMANDS)


class TestUnwritableOut:
    """An ``--out`` that cannot take the files exits 2 with one line."""

    @pytest.mark.parametrize("command", ["eulerian", "limits", "series"])
    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["file", "below-file"])
    def test_exits_config(self, tmp_path, capsys, command, out):
        (tmp_path / "file").write_text("taken")
        argv = [command, "--out", str(tmp_path / out)]
        if command != "eulerian":
            argv += ["--config", str(fast_config(tmp_path))]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output:")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert (tmp_path / "file").read_text() == "taken"

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["file", "below-file"])
    def test_refused_before_computing(self, tmp_path, capsys, monkeypatch, out):
        def never(config):
            raise AssertionError("verify-all ran despite an unusable --out")

        monkeypatch.setattr(cli.verify, "run_all", never)
        (tmp_path / "file").write_text("taken")
        assert run(["verify-all", "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestBatchedRampSolves:
    """limits reaches the ODE solver through one ramp solve of its whole mu
    ladder and reads it once, ness through one batched ramp solve, and a
    failed Wronskian gate exits 3 cleanly."""

    def test_limits_one_ladder_solve(self, tmp_path, capsys, ramp_solves):
        cfg = fast_config(tmp_path)
        assert run(["limits", "--config", str(cfg)]) == 0
        assert ramp_solves.calls == [3]  # the mu ladder of fast_config, one call
        assert [traj.mu for traj in ramp_solves] == [5.0, 10.0, 20.0]
        assert all(traj.eps.size == 2 for traj in ramp_solves)  # both k values in each

    def test_limits_one_read(self, tmp_path, capsys, monkeypatch):
        reads = []
        between = modes._between_nodes

        def reading(trajs, times):
            reads.append([traj.mu for traj in trajs])
            return between(trajs, times)

        monkeypatch.setattr(modes, "_between_nodes", reading)
        assert run(["limits"]) == 0
        assert reads == [list(default_config().mu_ladder)]
        del reads[:]
        assert run(["limits", "--config", str(fast_config(tmp_path))]) == 0
        assert reads == [[5.0, 10.0, 20.0]]

    # measured: 2.5e-15 on the fourteen momenta, where blocks of 585
    # positions span the mu = 5 and 640 rungs; one block holds the other
    # ladders, whose rows keep the bits of the solves per mu
    @pytest.mark.parametrize("ladders, bound", [
        (None, 0.0),
        ({"mu": [5.0, 10.0, 20.0], "k": [0.0, 1.0]}, 0.0),
        ({"k": [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8],
          "mu": [5.0, 640.0]}, 1e-13),
    ], ids=["default", "fast", "mu640-k14"])
    def test_limits_rows_match_solves_per_mu(self, tmp_path, capsys, ladders, bound):
        # each row against a switch_integrals call of its mu alone
        argv, config = ["limits"], default_config()
        if ladders:
            cfg = fast_config(tmp_path, ladders=ladders)
            argv, config = ["limits", "--config", str(cfg)], cli.load_config(cfg)
        assert run(argv) == 0
        header, rows = _parse_stdout_csv(capsys)
        ks = np.array(config.k_values)
        ref = [modes.switch_integrals(ks, modes.SwitchingProfile(mu), config.params)
               for mu in config.mu_ladder]
        i_sq, i_abs = (np.array(x).T.ravel() for x in zip(*ref))  # k-major, as the rows
        want = {"re_I_sq": i_sq.real, "im_I_sq": i_sq.imag, "I_abs": i_abs}
        assert len(rows) == ks.size * len(config.mu_ladder)
        for name, col in want.items():
            got = np.array([float(row[header.index(name)]) for row in rows])
            assert np.abs(got - col).max() <= bound, name

    def test_ness_one_solve(self, tmp_path, capsys, ramp_solves):
        cfg = fast_config(tmp_path)
        assert run(["ness", "--config", str(cfg)]) == 0
        assert len(ramp_solves) == 1
        assert ramp_solves[0].eps.size == 24  # every radial node of fast_config

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


# a positive beta and eps whose product rounds to 0
UNDERFLOWING_PARAMS = {"beta": 1e-323, "m_sq": 1e-3, "m0_sq": 1.0, "lam": 0.1}
# packets at k = 1e6, where every thermal occupation underflows to 0, so the
# closed-form pairings that gaps are taken against vanish
VANISHING_PACKETS = [
    {"k_center": 1e6, "k_width": 0.5, "t_center": 2.0, "t_width": 0.3},
    {"k_center": 1e6, "k_width": 0.5, "t_center": 2.5, "t_width": 0.3},
]


class TestFloatingPointBreakdown:
    """An overflow, a division by zero or an invalid operation in numpy, or a
    non-finite temperature shift, is a numerical failure: exit 3, one line on
    stderr and nothing on stdout but the summary lines of the criteria that
    ``verify-all`` finished first."""

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
            *(pytest.param(command, {"params": UNDERFLOWING_PARAMS}, "underflow: beta*eps",
                           id=f"{command}-beta-eps-underflow")
              for command in ("ness", "series")),
            # the closed-form pairing that series' gaps are taken against vanishes
            pytest.param("series", {"packets": VANISHING_PACKETS}, "closed-form pairing vanished",
                         id="series-vanished-pairing"),
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

    @pytest.mark.parametrize(
        "doc, finished, message",
        [
            # criterion 7, the series, takes the config's beta
            pytest.param({"params": UNDERFLOWING_PARAMS}, 6,
                         "criterion 7 (series-resummation): underflow: beta*eps",
                         id="beta-eps-underflow"),
            pytest.param({"params": {"beta": 1e-323}}, 6,
                         "criterion 7 (series-resummation): overflow encountered in divide",
                         id="beta-1e-323"),
            pytest.param({"packets": VANISHING_PACKETS}, 5,
                         "criterion 6 (finite-switch-pairing-ladder): slow-switch target "
                         "pairing vanished", id="vanished-pairing"),
        ],
    )
    def test_verify_all_keeps_earlier_lines(self, tmp_path, capsys, doc, finished, message):
        # the criteria that finish before one raises print their summary
        # lines, and the error line names the criterion that raised, once
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["verify-all", "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split()[:2] for line in lines] == [["PASS", f"{i}."]
                                                        for i in range(1, finished + 1)]
        assert captured.err.startswith(f"numerical failure: {message}")
        assert captured.err.count("criterion") == 1
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()


class TestImportGraph:
    @staticmethod
    def run_fresh(code):
        """Run ``code`` in a fresh interpreter on the source tree."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_runtime_never_imports_scipy(self):
        # numpy is the only runtime dependency; scipy is for the tests alone
        self.run_fresh(
            "import sys\n"
            "from thermalquench import SwitchingProfile, ThermalParams, cli, ergodic_averages\n"
            "for command in ('eulerian', 'limits', 'series', 'ness', 'verify-all'):\n"
            "    assert cli.main([command]) == 0, command\n"
            "params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.1)\n"
            "ergodic_averages([0.0, 1.0], SwitchingProfile(1.0), params, -0.5, 0.2, 10.0)\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, sorted(loaded)[:5]\n"
        )

    def test_verify_all_loads_neither_numpy_random_nor_scipy(self):
        # criterion 10 draws from the stdlib generator: numpy.random's lazy
        # import would be most of its first call.  numpy.ma is refused too:
        # np.unique imports it, which would be most of criterion 6's first
        self.run_fresh(
            "import sys\n"
            "from thermalquench import cli\n"
            "assert cli.main(['verify-all']) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "          or m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma'])]\n"
            "assert not loaded, sorted(loaded)[:5]\n"
        )

    def test_import_computes_no_quadrature_rule(self):
        # every Gauss-Legendre rule is computed on first use, none at import
        self.run_fresh(
            "import numpy as np\n"
            "calls = []\n"
            "original = np.polynomial.legendre.leggauss\n"
            "np.polynomial.legendre.leggauss = lambda n: calls.append(n) or original(n)\n"
            "import thermalquench.cli\n"
            "assert calls == [], calls\n"
        )


@pytest.mark.parametrize(
    "helper, command, criterion",
    [("series_report", "series", 7), ("eulerian_rows", "eulerian", 1)],
)
def test_command_and_criterion_share_one_call(monkeypatch, capsys, helper, command, criterion):
    calls = []
    original = getattr(verify, helper)
    monkeypatch.setattr(verify, helper, lambda *args: calls.append(args) or original(*args))
    assert run([command]) == 0
    assert verify.CRITERIA[criterion](default_config()).status == "pass"
    assert len(calls) == 2


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

    def test_negative_shift_beyond_the_disk_is_a_radius_violation(self, tmp_path, capsys):
        # lam < 0 makes every temperature shift negative; its largest magnitude
        # (6.84) lies beyond the limit (about pi), so this is a verdict, not exit 1
        cfg = fast_config(tmp_path, params={"beta": 10.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": -0.9})
        assert run(["series", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "radius-violated"
        assert doc["max_shift"] >= doc["shift_limit"]

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
        out = tmp_path / "out"
        assert run(["verify-all", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        series_lines = [l for l in lines if "series-resummation" in l]
        assert len(series_lines) == 1
        assert series_lines[0].startswith("SKIP")
        assert "not expected to converge" in series_lines[0]
        doc = json.loads((out / "verify_all.json").read_text())
        skipped = doc["criteria"][6]
        assert (skipped["index"], skipped["status"]) == (7, "skip")
        assert "not expected to converge" in skipped["reason"]
        assert skipped["runtime_s"] > 0
        assert doc["all_passed"] is True

    def test_tolerances_section_is_unknown_key(self, tmp_path, capsys):
        # the bounds are pinned in verify.TOLERANCES; a config cannot set
        # them, not even to their own values
        cfg = fast_config(tmp_path, tolerances={"wronskian_abs": 1e-8})
        assert run(["verify-all", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: unknown keys in config: ['tolerances']\n"
        assert captured.out == ""

    def test_reported_bounds_are_the_pinned_table(self):
        tol = verify.TOLERANCES
        expected = {
            2: {"tol": tol["derivative_tower_rel"], "tol_to_8": tol["derivative_tower_to_8_rel"]},
            3: {"tol": tol["temperature_shift_abs"]},
            4: {"tol": tol["wronskian_abs"]},
            5: {"tol": tol["switch_final_abs"]},
            6: {"tol": tol["pairing_final_rel"]},
            7: {"tol": tol["series_final_rel"]},
            8: {"tol_norm": tol["bogoliubov_norm_abs"]},
            9: {"tol_ccr": tol["ness_ccr_abs"]},
            10: {"tol": tol["cumulant_vanish_abs"]},
        }
        config = default_config()
        for index, criterion in verify.CRITERIA.items():
            measured = criterion(config).measured
            bounds = {key: value for key, value in measured.items() if key.startswith("tol")}
            assert bounds == expected.get(index, {}), index
        assert verify.series_report(config).to_dict()["tol"] == tol["series_final_rel"]


@pytest.mark.parametrize(
    "command, files",
    [
        ("eulerian", ["eulerian.csv"]),
        ("limits", ["limits.csv"]),
        ("series", ["series.csv", "series.json"]),
        ("ness", ["ness.csv"]),
    ],
    ids=["eulerian", "limits", "series", "ness"],
)
def test_byte_identical_reruns(tmp_path, command, files):
    """Two runs of one config write the same bytes to every data file; the
    only other file is meta.json."""
    cfg = fast_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out1.iterdir()) == sorted([*files, "meta.json"])
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_output_schemas(tmp_path):
    """The columns of every CSV table and the keys of series.json, in full.
    The limits and ness headers are the ones the benchmark parses."""
    cfg = fast_config(tmp_path)
    out = tmp_path / "out"
    for command in ("limits", "ness", "series"):
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv(out / "limits.csv")[0] == [
        "k", "mu", "re_I_sq", "im_I_sq", "I_abs", "target", "gap_abs", "gap_sq", "status",
    ]
    assert read_csv(out / "ness.csv")[0] == [
        "k", "re_A_plus", "im_A_plus", "re_A_minus", "im_A_minus",
        "norm_residual", "c_plus", "c_minus", "ccr_residual", "sudden_gap", "status",
    ]
    order_keys = ["order", "term_re", "term_im", "cumulative_re", "cumulative_im",
                  "gap_to_closed_form", "dual_path_rel_dev"]
    assert read_csv(out / "series.csv")[0] == order_keys
    doc = json.loads((out / "series.json").read_text())
    assert set(doc) == {
        "verdict", "tol", "n_orders", "zeroth_re", "zeroth_im", "closed_form_re",
        "closed_form_im", "max_shift", "shift_limit", "max_dual_path_dev", "final_rel_gap",
        "orders", "pairing_check",
    }
    assert all(set(row) == set(order_keys) for row in doc["orders"])


def _parse_stdout_csv(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]
