"""The array paths of :mod:`thermalquench.verify` against the per-point and
per-node loops they replace, the contour rule of criterion 2, the
ramp-solve counts of the ramp consumers, the solves that ``run_all`` shares
between criteria 4, 5 and 8 and keeps to its own run, and the registry of
criteria that ``run_all`` runs."""

import cmath
import dataclasses
import math
import re
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from thermalquench import cli, modes, verify
from thermalquench.config import config_from_dict, default_config
from thermalquench.modes import (
    SwitchingProfile,
    bogoliubov,
    solve_modes,
    sudden_quench_pair,
    switch_integrals,
)
from thermalquench.spectral import QuadratureSpec
from thermalquench.spectral import TestPacket as Packet
from thermalquench.thermal import (
    ThermalParams,
    bose_coefficient,
    bose_derivative,
    dispersion,
    shifted_beta,
)


# the ramp_sweep ness-56 item (12 nodes) and the default steady-state bench
# (64 nodes)
NESS_CASES = {
    "ness56-n12": (
        ThermalParams(beta=1.252452, m_sq=1.0, m0_sq=1.0, lam=-0.000121),
        0.690495,
        (
            Packet(k_center=0.792375, k_width=0.239754, t_center=2.533711, t_width=0.267243),
            Packet(k_center=0.798941, k_width=0.293909, t_center=0.594346, t_width=0.251087),
        ),
        12,
    ),
    "default-n64": (verify.MODE_PARAMS, 1.0, default_config().packet_pair, 64),
}


# the (index, name) pairs of the acceptance criteria, as verify_all.json
# lists them
CRITERION_NAMES = [
    (1, "eulerian-cross-oracle"),
    (2, "derivative-tower"),
    (3, "temperature-shift-identity"),
    (4, "wronskian-health"),
    (5, "switch-integral-ladder"),
    (6, "finite-switch-pairing-ladder"),
    (7, "series-resummation"),
    (8, "bogoliubov-normalization"),
    (9, "ness-spectral-data"),
    (10, "connected-function-oracle"),
]


def scalar_taylor_coefficient(f, z0, r, M, n):
    """The trapezoid rule's c_n on the circle |z - z0| = r, point by point:
    one scalar call of f and two cmath exponentials per point."""
    total = 0j
    for j in range(M):
        point = z0 + r * cmath.exp(2j * math.pi * j / M)
        total += f(point) * cmath.exp(-2j * math.pi * (j * n % M) / M)
    return total / M / r**n


class TestArrayCriteriaMatchScalarLoops:
    # criterion 3's array evaluation does the same float operations on every
    # point as its loop, so its measured value is equal, not merely close

    def test_criterion_2(self):
        # the FFT sums pairwise and the loop in order, so the two agree to
        # rounding, not to the bit: 2.5e-15 and 2.0e-14 apart
        rel = {}
        for beta, eps in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
            r = min(beta, 2 * math.pi / eps) / 2
            for n in range(1, 9):
                c = scalar_taylor_coefficient(lambda z: 1 / (1 - cmath.exp(-z * eps)), beta, r, 64, n)
                exact = bose_derivative(n, +1, beta, eps)
                rel[beta, n] = abs(math.factorial(n) * c.real - exact) / abs(exact)
        worst = max(value for (_, n), value in rel.items() if n <= 4)
        worst_8 = max(rel.values())
        measured = verify.criterion_2(default_config()).measured
        assert type(measured["worst_rel"]) is type(measured["worst_rel_to_8"]) is float
        assert abs(measured["worst_rel"] - worst) <= 1e-14
        assert abs(measured["worst_rel_to_8"] - worst_8) <= 1e-13

    def test_criterion_3(self):
        worst = 0.0
        for k in np.linspace(0.0, 3.0, 10):
            for lam in np.linspace(0.0, 0.9, 10):
                p = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=float(lam))
                d = dispersion(float(k), p)
                bp = shifted_beta(p, d)
                for sign in (+1, -1):
                    lhs = bose_coefficient(sign, bp, d.eps)
                    rhs = bose_coefficient(sign, p.beta, d.eps_lambda)
                    worst = max(worst, abs(lhs - rhs))
        measured = verify.criterion_3(default_config()).measured["worst_abs"]
        assert type(measured) is float
        assert measured == worst


class TestTaylorOnCircle:
    @pytest.mark.parametrize("r, M", [(0.5, 64), (0.9, 16)])
    def test_geometric_series(self, r, M):
        # every Taylor coefficient of 1/(1 - z) about 0 is 1, and the rule
        # adds the aliases c_{n+M} r**M + c_{n+2M} r**(2M) + ... = r**M / (1 -
        # r**M): 5e-20 at r = 0.5 and M = 64, 0.23 at r = 0.9 and M = 16
        coeffs = verify._taylor_on_circle(lambda z: 1 / (1 - z), 0.0, r, M)
        assert coeffs.shape == (M,)
        assert np.abs(coeffs[:8] - 1 / (1 - r**M)).max() <= 1e-14

    def test_exponential_about_each_centre(self):
        # e^z about z0 has c_n = e^z0 / n!; one row per centre
        z0 = np.array([0.0, 1.0])
        coeffs = verify._taylor_on_circle(np.exp, z0, np.ones(2), 32)
        exact = np.exp(z0)[:, None] / np.array([math.factorial(n) for n in range(32)])
        assert coeffs.shape == (2, 32)
        assert np.abs(coeffs - exact).max() <= 1e-14

    def test_criterion_2_circles_keep_inside_the_nearest_pole(self, monkeypatch):
        # b_plus(beta' eps) has its nearest pole at beta' = 0, so about a
        # real beta > 0 the rule's aliasing is (r / beta)**M, which c2's
        # circles keep below 2**-64
        rule, calls = verify._taylor_on_circle, []

        def spy(f, z0, r, M):
            calls.append((z0, r, M))
            return rule(f, z0, r, M)

        monkeypatch.setattr(verify, "_taylor_on_circle", spy)
        assert verify.criterion_2(default_config()).status == "pass"
        [(z0, r, M)] = calls
        assert np.isrealobj(z0) and np.all(z0 > 0) and np.all(r > 0)
        assert np.max(r / z0) ** M <= 2.0**-64


class TestNessBogoliubovMap:
    @pytest.mark.parametrize("case", sorted(NESS_CASES))
    def test_batched_matches_per_node_reference(self, case):
        # the reference is one tight solve_modes + bogoliubov per node;
        # 1e-9 absolute on both amplitudes, normalization below 1e-11
        params, mu, packets, n = NESS_CASES[case]
        k_nodes, _ = QuadratureSpec(n_radial=n).radial_rule(*packets)
        batched = verify.ness_bogoliubov_map(params, mu=mu)(k_nodes)
        assert batched.a_plus.shape == batched.a_minus.shape == (n,)
        assert np.max(batched.normalization_residual) <= 1e-11
        for i, k in enumerate(k_nodes):
            traj = solve_modes(float(k), SwitchingProfile(mu), params, rtol=1e-12, atol=1e-14)
            ref = bogoliubov(traj)
            assert abs(batched.a_plus[i] - ref.a_plus) <= 1e-9
            assert abs(batched.a_minus[i] - ref.a_minus) <= 1e-9

    def test_one_solve_per_node_set(self, ramp_solves):
        bog = verify.ness_bogoliubov_map(verify.MODE_PARAMS)
        ks = np.linspace(0.1, 3.0, 8)
        first = bog(ks)
        assert bog(ks.copy()) is first
        assert len(ramp_solves) == 1
        bog(ks[:4])
        assert len(ramp_solves) == 2

    def test_scalar_momentum_is_a_batch_of_one(self):
        bog = verify.ness_bogoliubov_map(verify.MODE_PARAMS)
        scalar = bog(0.7)
        batched = bog(np.array([0.7, 1.5]))
        assert scalar.a_plus.shape == scalar.a_minus.shape == (1,)
        assert abs(scalar.a_plus[0] - batched.a_plus[0]) <= 1e-12


class TestNormalizationIsTheWronskianDrift:
    """With T = (a+ e^{-i el t} + a- e^{i el t}) / sqrt(2 el) after the
    switch, the Wronskian is W = i (|a+|^2 - |a-|^2), so a pair's
    normalization residual is the Wronskian drift at the t = 0 node, which
    the solver gate has already held to 1e-8.  Bound: a few ulps of 1."""

    BOUND = 4e-15

    def test_suite_solves(self):
        for traj in verify._suite_trajectories(default_config(), {}):
            drift = modes._drift(traj.y[:, :, -1])
            assert np.max(np.abs(bogoliubov(traj).normalization_residual - drift)) <= self.BOUND

    @pytest.mark.parametrize("case", sorted(NESS_CASES))
    def test_ness_solves(self, case):
        params, mu, packets, n = NESS_CASES[case]
        k_nodes, _ = QuadratureSpec(n_radial=n).radial_rule(*packets)
        traj = solve_modes(k_nodes, SwitchingProfile(mu), params, **verify._TIGHT_SOLVE)
        drift = modes._drift(traj.y[:, :, -1])
        assert np.max(np.abs(bogoliubov(traj).normalization_residual - drift)) <= self.BOUND


class TestSharpRung:
    """The suite solves its sharp switch at the default tolerances, in the
    ladder of its other rungs: 27 steps in one pass, where a tight solve,
    rtol = 1e-12 and atol = 1e-14, lays 48.  The tight solve stays the
    reference: the pairs agree to 1e-15 (measured 4.6e-16 on two momenta
    and 6.7e-16 on fourteen), the drift is no larger, and criterion 8's
    sudden gap moves by at most 1e-15 (measured 1.2e-16)."""

    K14 = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    CONFIGS = {"default": {}, "mu640k14": {"ladders": {"k": K14, "mu": [5.0, 640.0]}}}

    @staticmethod
    def sudden_gap(pair, oracle):
        return max(np.max(np.abs(pair.a_plus - oracle.a_plus)), np.max(np.abs(pair.a_minus - oracle.a_minus)))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_the_tight_solve(self, name):
        config = config_from_dict(self.CONFIGS[name])
        ks = np.array(config.k_values)
        sharp = verify._suite_trajectories(config, {})[-1]
        sharp_switch = SwitchingProfile(verify.SUDDEN_MU)
        tight = solve_modes(ks, sharp_switch, verify.MODE_PARAMS, rtol=1e-12, atol=1e-14)
        assert sharp.mu == verify.SUDDEN_MU and (sharp.n_steps, sharp.passes) == (27, 1)
        pair, ref = bogoliubov(sharp), bogoliubov(tight)
        assert np.max(np.abs(pair.a_plus - ref.a_plus)) <= 1e-15
        assert np.max(np.abs(pair.a_minus - ref.a_minus)) <= 1e-15
        assert sharp.worst_drift <= tight.worst_drift
        oracle = sudden_quench_pair(ks, verify.MODE_PARAMS)
        gap = verify.criterion_8(config).measured["worst_sudden_gap"]
        assert gap == self.sudden_gap(pair, oracle)
        assert abs(gap - self.sudden_gap(ref, oracle)) <= 1e-15


def test_a_nan_past_the_switch_fails_criterion_4(monkeypatch):
    # the closed form past t = 0 passes no solver gate: a NaN there must
    # reach criterion 4's maxima, not drop out of them
    waves = modes._outgoing_waves
    monkeypatch.setattr(modes, "_outgoing_waves",
                        lambda bog, el: [(c * np.nan, f) for c, f in waves(bog, el)])
    result = verify.criterion_4(default_config())
    assert result.status == "fail"
    assert math.isnan(result.measured["worst_abs"]) and math.isnan(result.measured["worst_continuity"])


class TestRampSolveCounts:
    @pytest.mark.parametrize(
        "index, expected",
        [(4, "suite"), (5, "ladder"), (6, "rungs"), (8, "suite"), (9, "one")],
    )
    def test_criterion(self, index, expected, ramp_solves):
        # one ladder solve per momentum batch: the trajectory suite solves
        # the mu ladder, the unit-scale switch and the sharp switch as one
        # ladder, whichever of criteria 4, 5 and 8 reads it, and criterion 6
        # solves its rungs as another
        config = default_config()
        n_mu = len(config.mu_ladder)
        want = {"suite": [n_mu + 2], "ladder": [n_mu + 2], "rungs": [n_mu], "one": [1]}
        assert verify.CRITERIA[index](config).status == "pass"
        assert ramp_solves.calls == want[expected]


@pytest.fixture
def solve_keys(monkeypatch, ramp_solves):
    """(momenta, mu, rtol, atol) of every ramp solve, beside ``ramp_solves``."""
    keys = []
    recording = modes._ramp_solve

    def keyed(k_mags, profs, params, rtol=modes._RTOL, atol=modes._ATOL):
        ks = np.asarray(k_mags, dtype=float).tobytes()
        keys.extend((ks, prof.mu, rtol, atol) for prof in profs)
        return recording(k_mags, profs, params, rtol, atol)

    monkeypatch.setattr(modes, "_ramp_solve", keyed)
    return keys


@pytest.fixture
def two_ladders():
    """The default config on the k ladders (0, 1) and (0.5, 2), and the
    measured values of each criterion in a run of each config alone."""
    configs = [dataclasses.replace(default_config(), k_values=ks)
               for ks in ((0.0, 1.0), (0.5, 2.0))]
    return configs, [[r.measured for r in verify.run_all(config)] for config in configs]


def test_registry_is_the_module_criteria():
    assert sorted(verify.CRITERIA) == list(range(1, 11))
    for index, criterion in verify.CRITERIA.items():
        assert criterion is getattr(verify, f"criterion_{index}")


class TestSolvePlan:
    # run_all solves each ramp of the trajectory suite once, for criteria 4,
    # 5 and 8 together, and forgets the solves when it returns

    def test_run_all_solves_each_ramp_once(self, solve_keys, ramp_solves):
        results = list(verify.run_all(default_config()))
        assert all(r.status == "pass" for r in results)
        # the suite's six, criterion 6's four and criterion 9's one, in
        # three calls: the suite's ladder, criterion 6's and criterion 9's
        assert len(ramp_solves) == len(solve_keys) == 11
        assert len(set(solve_keys)) == 11
        assert ramp_solves.calls == [6, 4, 1]
        # only criterion 9's map solves at the tight tolerances
        tight = tuple(verify._TIGHT_SOLVE.values())
        assert [key[1] for key in solve_keys if key[2:] == tight] == [1.0]
        assert all(key[2:] in (tight, (modes._RTOL, modes._ATOL)) for key in solve_keys)

    def test_each_run_solves_afresh(self, ramp_solves):
        list(verify.run_all(default_config()))
        first = list(ramp_solves)
        list(verify.run_all(default_config()))
        assert len(ramp_solves) == 22
        assert not any(traj is old for traj in ramp_solves[11:] for old in first)

    def test_criteria_alone_after_a_run(self, ramp_solves):
        config = default_config()
        list(verify.run_all(config))
        for index, want in ((4, [6]), (5, [6]), (8, [6])):
            del ramp_solves[:], ramp_solves.calls[:]
            verify.CRITERIA[index](config)
            assert ramp_solves.calls == want

    def test_suite_dies_with_the_run(self, monkeypatch):
        refs = []
        original = modes._ramp_solve

        def weakly(*args, **kwargs):
            trajs = original(*args, **kwargs)
            refs.extend(weakref.ref(traj) for traj in trajs)
            return trajs

        monkeypatch.setattr(modes, "_ramp_solve", weakly)
        list(verify.run_all(default_config()))
        assert len(refs) == 11
        assert all(ref() is None for ref in refs)

    def test_memo_cleared_when_a_criterion_raises(self, monkeypatch, ramp_solves):
        # whether the registered entry or the check inside it raises, the
        # caller gets that very exception, and once it lets go of it (whose
        # traceback holds the run's frames) no solve of the run is left
        error = modes.IntegratorError("ness broke")

        def broken(*args):
            raise error

        for patch, message in (
            (lambda m: m.setitem(verify.CRITERIA, 9, broken), "ness broke"),
            (lambda m: m.setattr(verify, "ness_classical", broken),
             "criterion 9 (ness-spectral-data): ness broke"),
        ):
            error.args = ("ness broke",)
            with monkeypatch.context() as m:
                patch(m)
                with pytest.raises(modes.IntegratorError) as raised:
                    list(verify.run_all(default_config()))
            assert raised.value is error and str(error) == message
            refs = [weakref.ref(traj) for traj in ramp_solves]
            assert len(refs) == 10
            del ramp_solves[:], raised
            error.__traceback__ = None
            assert all(ref() is None for ref in refs)

    def test_shared_measured_equals_solo(self):
        # the shared path computes the same floats as each criterion alone,
        # under the pinned (index, name) pairs that verify_all.json carries
        config = default_config()
        shared_results = list(verify.run_all(config))
        assert [(r.index, r.name) for r in shared_results] == CRITERION_NAMES
        for shared in shared_results:
            solo = verify.CRITERIA[shared.index](config)
            assert (solo.index, solo.name, solo.status) == (shared.index, shared.name, shared.status)
            assert repr(solo.measured) == repr(shared.measured)

    def test_interleaved_runs_read_their_own_solves(self, two_ladders):
        # two runs advanced in turn in one process: each criterion measures
        # what it measures in a run of its own
        configs, solo = two_ladders
        runs = [verify.run_all(config) for config in configs]
        interleaved = [[r.measured for r in results] for results in zip(*zip(*runs))]
        assert repr(interleaved) == repr(solo)

    def test_concurrent_runs_read_their_own_solves(self, two_ladders):
        # the same two runs at once on two threads, each with its own arena
        configs, solo = two_ladders
        start = threading.Barrier(2)
        measured = [None, None]

        def run(i):
            start.wait(timeout=60)
            measured[i] = [r.measured for r in verify.run_all(configs[i])]

        # switching often, so that the two runs interleave finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert repr(measured) == repr(solo)

    def test_switch_integrals_read_from_the_suite(self, monkeypatch, ramp_solves):
        # criterion 5 reads criterion 4's solves in one batched read, and its
        # ladder is bit-equal to switch_integrals solving each mu afresh
        config = default_config()
        read = []
        original = verify._switch_integrals

        def recording(*trajs):
            read.append((trajs, original(*trajs)))
            return read[-1][1]

        monkeypatch.setattr(verify, "_switch_integrals", recording)
        list(verify.run_all(config))
        suite = ramp_solves[: len(config.mu_ladder) + 2]
        ((trajs, values),) = read
        assert [traj.mu for traj in trajs] == list(config.mu_ladder)
        assert all(traj is suite[i] for i, traj in enumerate(trajs))
        ks = np.array(config.k_values)
        for traj, (i_sq, i_abs) in zip(trajs, values):
            ref_sq, ref_abs = switch_integrals(ks, SwitchingProfile(traj.mu), verify.MODE_PARAMS)
            assert np.array_equal(i_sq, ref_sq) and np.array_equal(i_abs, ref_abs)


def _traced(monkeypatch, run):
    """The benchmark's tracer (benchmarks/tracing.py), installed in process
    around ``run()``, and the names the CI benchmark smoke step knows the
    tracer cannot wrap."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "benchmarks"))
    import tracing

    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    known = set(re.findall(r'"(thermalquench\.[\w.]+)"', re.search(r"known = \{[^}]*\}", workflow)[0]))
    assert len(known) == 4
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run()
    finally:
        tracer.restore()
    return tracer, known


def test_benchmark_tracer_sees_one_span_per_rung(monkeypatch):
    # one traced run: criterion 6 pairs each rung of its ladder solve in one
    # span labelled by the rung's mu, criterion 9's map makes the run's one
    # solve_modes call, and no boundary the tracer cannot wrap lies beyond
    # the names the CI benchmark smoke step knows
    def run():
        assert all(r.status == "pass" for r in verify.run_all(default_config()))

    tracer, known = _traced(monkeypatch, run)
    pairings = [span.detail for span in tracer.spans if span.name == "spectral.pair_finite_mu"]
    assert pairings == ["mu5", "mu10", "mu20", "mu40"]
    assert sum(span.name == "modes.solve_modes" for span in tracer.spans) == 1
    assert set(tracer.missing) <= known


def test_benchmark_tracer_sees_one_limits_span(monkeypatch, capsys):
    # one traced limits run: one cli.cmd_limits span, its ladder solve and
    # read beneath no wrapped boundary, and the cli's switch_integrals still
    # bound for the tracer to wrap
    def run():
        assert cli.main(["limits"]) == 0

    tracer, known = _traced(monkeypatch, run)
    assert [span.name for span in tracer.spans] == ["cli.cmd_limits"]
    assert "thermalquench.cli.switch_integrals" not in tracer.missing
    assert set(tracer.missing) <= known
