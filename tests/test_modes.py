import dataclasses
import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from thermalquench import cli, modes, verify
from thermalquench.config import default_config
from thermalquench.modes import (
    BogoliubovPair,
    IntegratorError,
    SwitchingProfile,
    bogoliubov,
    chi_unit,
    chi_unit_rate,
    ergodic_averages,
    ergodic_limits,
    solve_modes,
    sudden_quench_pair,
    switch_integrals,
)
from thermalquench.thermal import ThermalParams, dispersion

PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)
FREE = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.0)


class TestSwitchingProfile:
    def test_exact_plateaus(self):
        prof = SwitchingProfile(mu=3.0)
        assert prof.value(1.0) == 1.0
        assert prof.value(0.0) == 1.0
        assert prof.value(-3.0) == 0.0
        assert prof.value(-6.0) == 0.0

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_mu_outside_positive_finite(self, mu):
        with pytest.raises(ValueError, match="positive and finite"):
            SwitchingProfile(mu)

    def test_mu_is_required(self):
        with pytest.raises(TypeError, match="mu"):
            SwitchingProfile()

    def test_interior_range_and_monotonicity(self):
        prof = SwitchingProfile(mu=2.0)
        ts = np.linspace(-2.0, 0.0, 200)
        vals = prof.value(ts)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)
        mid = prof.value(-1.0)
        assert 0.0 < mid < 1.0

    def test_rate_nonnegative_and_supported(self):
        prof = SwitchingProfile(mu=2.0)
        ts = np.linspace(-5.0, 2.0, 300)
        rate = prof.rate(ts)
        assert np.all(rate >= 0.0)
        assert np.all(rate[(ts <= -2.0) | (ts >= 0.0)] == 0.0)
        # a fine grid of (-1, 0), plus u = s + 1 and u = -s across the
        # 1/708 cut of the bump: no underflow is signalled
        cut = 1.0 / np.linspace(700.0, 716.0, 1601)
        s = np.concatenate([np.linspace(-1.0, 0.0, 100001)[1:-1], cut - 1.0, -cut])
        with np.errstate(all="raise"):
            rate = chi_unit_rate(s)
        # the largest rate, chi_unit_rate(-1/2), is 2
        assert np.all(rate >= 0.0) and rate.max() <= 2.0 + 1e-12

    def test_rate_integrates_to_one(self):
        prof = SwitchingProfile(mu=1.5)
        val, _ = quad(prof.rate, -1.5, 0.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_rate_matches_finite_difference(self):
        # points where the rate is O(1); near the plateaus the difference
        # quotient is cancellation-limited while the analytic form is not
        h = 1e-6
        for s in (-0.9, -0.7, -0.5, -0.3):
            fd = (chi_unit(s + h) - chi_unit(s - h)) / (2.0 * h)
            assert chi_unit_rate(s) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_rate_matches_the_bump_derivatives(self):
        # reference: the quotient rule with each bump exp(-1/u) and its
        # derivative exp(-1/u - 2 log u), both cut to 0 at u <= 1/708; that
        # form rounds an exponent of up to 708 in magnitude, so the two
        # agree to ~1e-13 relative, not to ulps
        cut = 1.0 / np.linspace(700.0, 716.0, 1601)
        s = np.concatenate([np.linspace(-1.0, 0.0, 100001)[1:-1], cut - 1.0, -cut])
        s = s[(s > -1.0) & (s < 0.0)]

        def bump_and_rate(u):
            on = u > 1.0 / 708.0
            bump, rate = np.zeros_like(u), np.zeros_like(u)
            bump[on] = np.exp(-1.0 / u[on])
            rate[on] = np.exp(-1.0 / u[on] - 2.0 * np.log(u[on]))
            return bump, rate

        (a, da), (b, db) = bump_and_rate(s + 1.0), bump_and_rate(-s)
        with np.errstate(under="ignore"):
            ref = (da * b + db * a) / (a + b) ** 2
        np.testing.assert_allclose(chi_unit_rate(s), ref, rtol=2e-13, atol=0.0)

    def test_bump_equals_the_gather_scatter_form(self):
        # the masked divide and exponential against exp(-1/u) gathered from,
        # and scattered back to, the entries past the cut: u <= 0 (down to the
        # smallest subnormals, whose reciprocal overflows), the 1/708 cut and
        # (0, 50], bit for bit and with no floating-point signal
        cut = 1.0 / np.linspace(700.0, 716.0, 1601)
        edge = np.nextafter(1.0 / 708.0, [0.0, 1.0])
        u = np.concatenate([-np.geomspace(5e-324, 1e3, 400), [-0.0, 0.0], cut, edge,
                            np.linspace(0.0, 50.0, 100001)[1:], np.geomspace(1e-6, 50.0, 1001)])

        def gathered(u):
            out = np.zeros_like(u)
            on = u > 1.0 / 708.0
            out[on] = np.exp(-1.0 / u[on])
            return out

        def same_bits(a, b):
            return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

        with np.errstate(all="raise"):
            assert same_bits(modes._bump(u), gathered(u))
            s = np.concatenate([u - 1.0, -u, np.linspace(-2.0, 1.0, 30001)])
            a, b = gathered(s + 1.0), gathered(-s)
            assert same_bits(chi_unit(s), a / (a + b))
            rate = chi_unit_rate(s)
        inside = (s > -1.0) & (s < 0.0)
        si, a, b = s[inside], a[inside], b[inside]
        with np.errstate(under="ignore"):
            ref = a * b * (1.0 / (si + 1.0) ** 2 + 1.0 / si**2) / (a + b) ** 2
        assert same_bits(rate[inside], ref) and not rate[~inside].any()

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            SwitchingProfile(mu=0.0)


class TestSolveModes:
    def test_free_case_is_plane_wave(self):
        traj = solve_modes(0.0, SwitchingProfile(2.0), FREE)
        ts = np.linspace(-3.0, 1.0, 60)
        T, Td = traj.evaluate(ts)
        exact = np.exp(-1j * ts) / math.sqrt(2.0)
        assert np.abs(T - exact).max() < 1e-9
        assert np.abs(Td + 1j * exact).max() < 1e-9

    def test_wronskian_conserved(self):
        for mu in (1.0, 10.0):
            traj = solve_modes(1.0, SwitchingProfile(mu), PARAMS)
            assert traj.worst_drift <= 1e-8

    def test_plane_wave_before_the_switch(self):
        # the solved stretch [-mu-1, -mu] must still be the incoming wave
        traj = solve_modes(0.5, SwitchingProfile(4.0), PARAMS)
        ts = np.linspace(-5.0, -4.0, 30)
        T, _ = traj.evaluate(ts)
        eps = dispersion(0.5, PARAMS).eps
        exact = np.exp(-1j * eps * ts) / math.sqrt(2.0 * eps)
        assert np.abs(T - exact).max() < 1e-10

    def test_amplitude_bound(self):
        # sup |T| <= incoming amplitude (equality only in the sharp limit)
        for k, mu in ((0.0, 1.0), (1.0, 5.0), (0.0, 40.0)):
            traj = solve_modes(k, SwitchingProfile(mu), PARAMS)
            ts = np.linspace(-mu, 2.0, 1500)
            T, _ = traj.evaluate(ts)
            assert np.abs(T).max() <= (1.0 + 1e-6) / math.sqrt(2.0 * dispersion(k, PARAMS).eps)

    def test_flat_region_two_frequency_fit(self):
        # independent least-squares fit, not the matched extraction
        traj = solve_modes(0.0, SwitchingProfile(10.0), PARAMS)
        ts = np.linspace(0.0, 3.0, 120)
        (T,), _ = traj.evaluate(ts)
        el = dispersion(0.0, PARAMS).eps_lambda
        basis = np.stack([np.exp(-1j * el * ts), np.exp(1j * el * ts)], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, T, rcond=None)
        residual = np.abs(basis @ coeffs - T).max()
        assert residual < 1e-9

    def test_closed_form_after_switch_matches_direct_integration(self):
        # the solve stops at t = 0 and evaluate answers every later time in
        # closed form; the reference integrates straight through to t = 3
        k, prof = 0.7, SwitchingProfile(2.0)
        traj = solve_modes(k, prof, PARAMS)
        eps = dispersion(k, PARAMS).eps
        shift = PARAMS.mass_shift

        def rhs(t, y):
            return [y[1], -(eps * eps + shift * chi_unit(t / prof.mu)) * y[0]]

        T0 = np.exp(1j * eps * prof.mu) / math.sqrt(2.0 * eps)
        ref = solve_ivp(
            rhs, (-prof.mu, 3.0), [T0, -1j * eps * T0],
            method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
        )
        ts = np.linspace(0.0, 3.0, 61)[1:]
        T, Td = traj.evaluate(ts)
        T_ref, Td_ref = ref.sol(ts)
        assert np.abs(T - T_ref).max() <= 1e-9
        assert np.abs(Td - Td_ref).max() <= 1e-9

    def test_t_max_changes_nothing(self):
        # the closed form after the switch holds for every t >= 0: a solve
        # asked for no horizon answers as far as one asked for t = 100
        ks, prof = np.array([0.0, 1.0, 2.0]), SwitchingProfile(5.0)
        short = solve_modes(ks, prof, PARAMS, t_max=0.0)
        long = solve_modes(ks, prof, PARAMS, t_max=100.0)
        assert np.array_equal(short.y, long.y)
        assert (short.worst_drift, short.worst_drift_t) == (long.worst_drift, long.worst_drift_t)
        ts = np.linspace(-2.0 * prof.mu, 50.0, 241)
        for a, b in zip(short.evaluate(ts), long.evaluate(ts)):
            assert a.shape == (ks.size, ts.size) and np.array_equal(a, b)

    def test_negative_t_max_rejected(self):
        with pytest.raises(ValueError):
            solve_modes(0.0, SwitchingProfile(1.0), PARAMS, t_max=-1.0)

    def test_nan_t_max_rejected(self):
        # t_max changes nothing computed, but a NaN is still bad input
        with pytest.raises(ValueError, match="t_max"):
            solve_modes(0.0, SwitchingProfile(1.0), PARAMS, t_max=math.nan)

    @pytest.mark.parametrize("t", [math.nan, -math.inf, math.inf])
    def test_non_finite_time_rejected(self, t):
        traj = solve_modes(np.array([0.0, 1.0]), SwitchingProfile(1.0), PARAMS)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                traj.evaluate([-0.5, t])

    @pytest.mark.parametrize("ts", [[[-3.0, -1.0], [0.5, 2.0]], np.zeros((1, 1, 2))],
                             ids=["2-d", "3-d"])
    def test_times_of_more_than_one_axis_rejected(self, ts):
        # not an IndexError from the masks: the values are (momenta, times)
        traj = solve_modes(np.array([0.0, 1.0]), SwitchingProfile(1.0), PARAMS)
        with pytest.raises(ValueError, match="times must be a scalar or a 1-D array, got shape"):
            traj.evaluate(ts)

    @pytest.mark.parametrize("k", [[], np.empty(0), np.ones((2, 2))],
                             ids=["empty-list", "empty-array", "2-d"])
    def test_momenta_not_a_non_empty_batch_rejected(self, k):
        # not numpy's "zero-size array to reduction operation minimum"
        prof = SwitchingProfile(1.0)
        calls = [lambda: solve_modes(k, prof, PARAMS), lambda: switch_integrals(k, prof, PARAMS),
                 lambda: ergodic_averages(k, prof, PARAMS, 0.5, -0.25, horizon=10.0)]
        for call in calls:
            with np.errstate(all="raise"), pytest.raises(ValueError, match="non-empty 1-D array"):
                call()

    @pytest.mark.parametrize(
        "k", [math.nan, math.inf, np.array([1.0, math.nan]), np.array([-math.inf, 1.0])]
    )
    def test_non_finite_momentum_is_bad_input(self, k):
        # not an IntegratorError ("needs nan steps"), which reads as a breakdown
        with np.errstate(all="raise"), pytest.raises(ValueError, match="momenta must be finite"):
            solve_modes(k, SwitchingProfile(5.0), PARAMS)

    def test_sloppy_tolerances_fail_the_wronskian_gate(self):
        with pytest.raises(IntegratorError, match="Wronskian drift"):
            solve_modes(1.0, SwitchingProfile(40.0), PARAMS, rtol=1e-4, atol=1e-6)

    def test_records_how_it_was_solved(self, monkeypatch):
        traj = solve_modes(1.0, SwitchingProfile(5.0), PARAMS)
        assert traj.n_steps == len(traj.t) - 1 >= 8
        assert traj.passes >= 1
        assert math.isfinite(traj.worst_drift) and 0.0 <= traj.worst_drift <= 1e-8
        assert traj.worst_drift == traj.max_wronskian_residual
        assert -traj.mu <= traj.worst_drift_t <= 0.0
        monkeypatch.setattr(modes, "_WRONSKIAN_TOL", 0.0)
        with pytest.raises(IntegratorError, match=r"at t=\S+ \(grid of \d+ steps after \d+ passes"):
            solve_modes(1.0, SwitchingProfile(5.0), PARAMS)

    def test_only_dop853(self):
        with pytest.raises(ValueError, match="DOP853"):
            solve_modes(1.0, SwitchingProfile(1.0), PARAMS, method="RK45")

    def test_oversized_grid_is_a_numerical_failure(self):
        with pytest.raises(IntegratorError, match="step maps"):
            solve_modes(1.0, SwitchingProfile(1e300), PARAMS)

    @pytest.mark.parametrize("rtol", [0.0, -1e-10, math.nan, math.inf])
    def test_refuses_rtol_outside_positive_finite(self, rtol):
        with pytest.raises(ValueError, match="rtol"):
            solve_modes(1.0, SwitchingProfile(1.0), PARAMS, rtol=rtol)

    @pytest.mark.parametrize("atol", [-1e-12, math.nan, math.inf])
    def test_refuses_atol_outside_non_negative_finite(self, atol):
        with pytest.raises(ValueError, match="atol"):
            solve_modes(1.0, SwitchingProfile(1.0), PARAMS, atol=atol)

    def test_zero_atol_is_a_tolerance(self):
        traj = solve_modes(1.0, SwitchingProfile(1.0), PARAMS, atol=0.0)
        assert traj.worst_drift <= 1e-8


def _drawn_solves():
    """Ramp solves drawn at the sizes the CLI commands make them."""
    rng = np.random.default_rng(20171)
    for _ in range(24):  # limits-sized: one or two momenta, default tolerances
        params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=rng.uniform(-0.3, 0.6))
        ks = np.sort(rng.uniform(1.0, 1.6, rng.integers(1, 3)))
        solve_modes(ks, SwitchingProfile(rng.uniform(3.0, 12.0)), params)
    for _ in range(8):  # ness-sized: radial nodes of a packet, tight tolerances
        params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=rng.uniform(-0.3, 0.6))
        ks = np.sort(rng.uniform(0.0, rng.uniform(2.0, 5.5), rng.integers(8, 33)))
        solve_modes(ks, SwitchingProfile(rng.uniform(0.5, 1.5)), params, rtol=1e-12, atol=1e-14)


class TestOneGridPass:
    """The first grid, seeded from the h**8 error law, meets the tolerance:
    the regrow loop is a fallback that the solves of the CLI commands and
    the acceptance suite do not reach."""

    def test_drawn_solves_take_one_pass(self, ramp_solves):
        _drawn_solves()
        drawn = len(ramp_solves)
        config = default_config()
        assert verify.criterion_6(config).status == "pass"
        assert len(ramp_solves) == drawn + len(config.mu_ladder)
        solve_modes(np.array(config.k_values), SwitchingProfile(verify.SUDDEN_MU),
                    verify.MODE_PARAMS, rtol=1e-12, atol=1e-14)
        passes = [traj.passes for traj in ramp_solves]
        assert np.mean(passes) <= 1.2, passes
        assert passes[drawn:] == [1] * (len(ramp_solves) - drawn)

    def test_accepted_grids_are_pinned(self, ramp_solves, capsys):
        # criterion 6's mu ladder on the 42 radial nodes its screen keeps,
        # then default ness and limits: a norm that misreads the step error
        # shows as a moved grid
        assert verify.criterion_6(default_config()).status == "pass"
        assert cli.main(["ness"]) == 0
        assert cli.main(["limits"]) == 0
        steps = [71, 141, 282, 563] + [48] + [27, 49, 98, 196]
        assert [(traj.n_steps, traj.passes) for traj in ramp_solves] == [(n, 1) for n in steps]
        assert [traj.eps.size for traj in ramp_solves[:4]] == [42] * 4

    def test_regrown_grid_matches_seeded_grid(self, monkeypatch):
        # a seed four times too small fails the error check; the regrow loop
        # then reaches a grid that agrees with the one-pass solve
        prof, ks = SwitchingProfile(10.0), np.array([0.0, 1.0, 3.0])
        ts = np.linspace(-10.0, 0.0, 41)
        seeded = solve_modes(ks, prof, PARAMS)
        monkeypatch.setattr(modes, "_SEED_WAVE", modes._SEED_WAVE / 4)
        monkeypatch.setattr(modes, "_SEED_SWITCH", modes._SEED_SWITCH / 4)
        regrown = solve_modes(ks, prof, PARAMS)
        assert seeded.passes == 1 and regrown.passes >= 2
        assert regrown.n_steps != seeded.n_steps
        for a, b in zip(seeded.evaluate(ts), regrown.evaluate(ts)):
            assert np.abs(a - b).max() <= 1e-9


class TestMomentumFreeStepMaps:
    """A batch of more than ``_DIRECT_MAX`` distinct momenta runs the DOP853
    stages on seven Chebyshev samples of x = eps**2 and interpolates; the
    direct path, which runs them on the batch's own x, is the reference."""

    # measured worst, k up to 5.5: 8.0e-15 on the step maps and 3.1e-7 on
    # the error maps relative to their largest entry on the unscreened mu = 40
    # grid of the 64 default radial nodes; 2.8e-14 on the step maps at the
    # long step h = 0.2, where h * w reaches 1.1 and six samples (a dropped
    # x**6 term) would miss by 1.2e-10
    STEP_ABS = 1e-13
    ERROR_REL = 1e-5

    @pytest.mark.parametrize("step", ["grid", "per-start", "long"])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_interpolated_maps_match_one_momentum_at_a_time(self, n, step):
        assert n > modes._DIRECT_MAX
        rng = np.random.default_rng(n)
        ks = np.append(rng.uniform(0.0, 5.5, n - 1), 5.5)
        eps = dispersion(ks, verify.MODE_PARAMS).eps
        mu, shift = 40.0, verify.MODE_PARAMS.mass_shift
        t = np.linspace(-mu, 0.0, 763)[200:456]  # a block of the unscreened mu = 40 grid
        if step == "per-start":  # as between grid nodes
            h = rng.uniform(0.0, mu / 762, t.size)
        else:
            h = mu / 762 if step == "grid" else 0.2
        fast = modes._step_maps(t, h, modes._samples(eps), shift, mu, modes._Arena())
        slow = [np.concatenate(maps, axis=-1) for maps in
                zip(*(modes._step_maps(t, h, modes._samples(eps[i : i + 1]), shift, mu,
                                       modes._Arena()) for i in range(n)))]
        for a, b in zip(fast, slow):
            assert a.shape == b.shape == (2, 2, t.size, n)
        assert np.abs(fast[0] - slow[0]).max() <= self.STEP_ABS
        for a, b in zip(fast[1:], slow[1:]):
            assert np.abs(a - b).max() <= self.ERROR_REL * np.abs(b).max()

    def test_same_grids_as_the_direct_path(self, ramp_solves, monkeypatch):
        # criterion 6's four solves, the default ness solve and the drawn
        # solves lay the same grids when every batch takes the direct path
        config = default_config()
        k_ness, _ = config.quadrature.radial_rule(*config.packet_pair)

        def grids():
            del ramp_solves[:]
            assert verify.criterion_6(config).status == "pass"
            verify.ness_bogoliubov_map(config.params, mu=config.profile.mu)(k_ness)
            _drawn_solves()
            return [(traj.eps.size, traj.n_steps, traj.passes) for traj in ramp_solves]

        default = grids()
        assert [g[:2] for g in default[:4]] == [(42, 71), (42, 141), (42, 282), (42, 563)]
        monkeypatch.setattr(modes, "_DIRECT_MAX", 10**9)
        assert grids() == default

    def test_degenerate_batches(self):
        # more momenta than the cut-over but only three distinct values, and
        # 64 copies of one momentum: no interpolation interval is formed, and
        # each row is the solve of its own momentum
        prof = SwitchingProfile(5.0)
        distinct = np.array([0.5, 1.0, 3.0])
        ks = np.random.default_rng(3).permutation(np.repeat(distinct, [7, 7, 6]))
        assert ks.size > modes._DIRECT_MAX
        with np.errstate(all="raise"):
            batch = solve_modes(ks, prof, PARAMS)
            rows = solve_modes(distinct, prof, PARAMS)
            scalars = [solve_modes(k, prof, PARAMS) for k in distinct]
            copies = solve_modes(np.full(64, 1.0), prof, PARAMS)
        pick = np.searchsorted(distinct, ks)
        assert batch.n_steps == rows.n_steps
        assert np.array_equal(batch.y, rows.y[..., pick])
        for i, scalar in enumerate(scalars):
            # the largest momentum sets the batch's grid; the others lay their own
            tol = 0.0 if i == distinct.size - 1 else 1e-9
            for a, b in zip(batch.y, scalar.y):
                a, b = modes._complex(a), modes._complex(b)
                assert np.abs(a[pick == i, -1] - b[0, -1]).max() <= tol
        assert np.array_equal(copies.y, np.repeat(scalars[1].y, 64, axis=3))


def _reference_step_maps(t, h, samples, shift, mu):
    """The step maps by the four-entry stage recursion: stage s is the full
    2x2 map d/dt Y_s, its top row the bottom row of Y_s = I + h * sum_j a_sj
    * (stage j), and every map is the identity plus a weighted sum of all
    four entries of the stages.  The reference for the Nystrom form of
    ``modes._step_maps``, which forms only the bottom rows."""
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    h_col = h[:, None] if h.ndim else h
    xs, mix = samples
    neg_w_sq = -(xs + shift * chi_unit((t + modes._C[:, None] * h) / mu)[..., None])
    stages = np.empty((modes._C.size, 2, 2, t.size, xs.size))
    flat = stages.reshape(modes._C.size, -1)
    for s, row in enumerate(modes._A):
        y = h_col * np.einsum("s,sm->m", row[:s], flat[:s]).reshape(stages.shape[1:])
        y[0, 0] += 1.0
        y[1, 1] += 1.0
        if s == modes._C.size:  # the last row gives the order-8 solution
            break
        stages[s, 0] = y[1]
        stages[s, 1] = neg_w_sq[s] * y[0]
    err5, err3 = np.einsum("es,sm->em", modes._E, flat).reshape((2,) + stages.shape[1:])
    if mix is None:
        return y, err5, err3
    planes = np.stack((y, err5, err3)).reshape(12, t.size, xs.size)
    return tuple(np.matmul(planes, mix.T).reshape(3, 2, 2, t.size, -1))


class TestNystromStepMaps:
    """The step maps in Nystrom form, built from each stage's bottom row in
    paired stages, against the four-entry stage recursion."""

    # measured worst: 1.3e-15 on the criterion-6 block, 3.3e-16 on the
    # limits block and 6.7e-16 on the partial steps
    STEP_ABS = 1e-14
    # relative to the block's worst norm; measured worst 1.1e-7.  The two
    # differ beyond rounding because the reference's error maps carry the
    # tableau's row-sum rounding: their top rows hold (sum_s E_s) * e1, about
    # 4e-15, which the Nystrom form drops as the zero it is
    NORM_REL = 1e-4
    # the error maps of partial steps, absolute, whose norm has no grid of
    # consecutive nodes to read; measured worst 3.7e-14
    ERROR_ABS = 1e-12
    # full direct blocks, whose map-rows products, one BLAS call each, are
    # the largest the kernel makes: two momenta on 4096 of 5072 steps, and
    # fourteen, the most the direct path takes, on 585 of 762
    DIRECT = {"direct-2": (np.array([0.5, 2.0]), 640.0),
              "direct-14": (np.linspace(0.0, 5.5, 14), 40.0)}

    @pytest.fixture(scope="class")
    def criterion_6_mu40(self):
        """Criterion 6's mu = 40 solve: the 42 momenta its screen keeps."""
        trajs = []
        with pytest.MonkeyPatch.context() as mp:
            original = modes._ramp_solve

            def recording(*args):
                trajs.extend(original(*args))
                return trajs[-len(args[1]):]

            mp.setattr(modes, "_ramp_solve", recording)
            assert verify.criterion_6(default_config()).status == "pass"
        traj = trajs[-1]
        assert (traj.mu, traj.eps.size, traj.n_steps) == (40.0, 42, 563)
        return traj

    def block_solve(self, block, criterion_6_mu40):
        """The trajectory of a named block and the number of its steps."""
        if block == "criterion-6":  # the first block, interpolated maps
            traj = criterion_6_mu40
        else:
            ks, mu = self.DIRECT[block]
            traj = solve_modes(ks, SwitchingProfile(mu), verify.MODE_PARAMS)
        n = traj.eps.size
        m = modes._BLOCK // n
        assert (modes._samples(traj.eps)[1] is None) == (block in self.DIRECT)
        if block in self.DIRECT:
            assert traj.n_steps > m
        return traj, m

    @pytest.mark.parametrize("block", ["criterion-6", "limits", "direct-2", "direct-14"])
    def test_grid_blocks(self, block, criterion_6_mu40, ramp_solves):
        config = default_config()
        if block == "limits":  # the first limits solve, two momenta on their own x
            switch_integrals(np.array(config.k_values), SwitchingProfile(config.mu_ladder[0]),
                             config.params)
            traj = ramp_solves[-1]
            m = traj.n_steps
            assert modes._samples(traj.eps)[1] is None
        else:
            traj, m = self.block_solve(block, criterion_6_mu40)
        h = traj.mu / traj.n_steps
        args = (traj.t[:m], h, modes._samples(traj.eps), traj.params.mass_shift, traj.mu)
        fast, slow = modes._step_maps(*args, modes._Arena()), _reference_step_maps(*args)
        for a, b in zip(fast, slow):
            assert a.shape == b.shape == (2, 2, m, traj.eps.size)
        assert np.abs(fast[0] - slow[0]).max() <= self.STEP_ABS
        y = traj.y[:, :, : m + 1]
        norm, ref = (modes._error_norm(maps[1], maps[2], y, h, 1e-10, 1e-12, modes._Arena())
                     for maps in (fast, slow))
        assert 0 < ref.max() < 1
        assert np.abs(norm - ref).max() <= self.NORM_REL * ref.max()

    @pytest.mark.parametrize("n", [2, 42])
    def test_maps_do_not_depend_on_the_layout_of_h(self, n):
        # each row's power of h is a product, so a block's maps are the same
        # bits whether h is a float, a contiguous array or a strided view.
        # numpy's integer pow is not: on 1000 x 7 planes it rounds h**2 as
        # h * h, on a 0-d h otherwise for about 5% of h.  A float's maps
        # are made on one start: the Lagrange-weight product is one 2-D
        # product at any block size, where a batched one took another BLAS
        # path for a one-start block on the 42-momentum batch
        ks = np.linspace(0.1, 3.0, n)
        samples = modes._samples(dispersion(ks, PARAMS).eps)
        assert (samples[1] is None) == (n == 2)
        rng = np.random.default_rng(4201)
        h = rng.uniform(1e-3, 0.5, 1000)
        t = rng.uniform(-5.0, 0.0, h.size)
        strided_h = np.repeat(h, 2)[::2]
        assert not strided_h.flags.contiguous
        contiguous, strided = (
            np.stack(modes._step_maps(t, h_layout, samples, PARAMS.mass_shift, 5.0, modes._Arena()))
            for h_layout in (h, strided_h)
        )
        assert np.array_equal(contiguous, strided)
        arena = modes._Arena()
        for j in range(h.size):
            arena.used = 0
            maps = modes._step_maps(t[j : j + 1], float(h[j]), samples, PARAMS.mass_shift, 5.0, arena)
            assert np.array_equal(np.stack(maps)[..., 0, :], contiguous[..., j, :])

    def test_partial_steps(self, criterion_6_mu40):
        self.check_partial_steps(*self.block_solve("criterion-6", criterion_6_mu40))

    @pytest.mark.parametrize("block", ["direct-2", "direct-14"])
    def test_partial_steps_on_direct_blocks(self, block, criterion_6_mu40):
        self.check_partial_steps(*self.block_solve(block, criterion_6_mu40))

    def check_partial_steps(self, traj, m):
        # evaluate's use: one step per time from the node before it, h per
        # time, on at least as many times as a block of reads holds
        ts = np.sort(np.random.default_rng(7).uniform(-traj.mu, 0.0, max(m, 300)))
        node = np.searchsorted(traj.t, ts, side="right") - 1
        h = ts - traj.t[node]
        assert h.min() >= 0 and h.max() <= traj.mu / traj.n_steps
        args = (traj.t[node], h, modes._samples(traj.eps), traj.params.mass_shift, traj.mu)
        fast, slow = modes._step_maps(*args, modes._Arena()), _reference_step_maps(*args)
        assert np.abs(fast[0] - slow[0]).max() <= self.STEP_ABS
        for a, b in zip(fast[1:], slow[1:]):
            assert np.abs(a - b).max() <= self.ERROR_ABS


class _CountingArena(modes._Arena):
    """An arena that counts its takes, the buffers it made and the blocks of
    ramp work it served (a block starts with a take at ``used`` 0), and notes
    the block in which each buffer was made."""

    def __init__(self, size=0):
        super().__init__(size)
        self.takes = self.blocks = 0
        self.grown_in = []

    def take(self, shape):
        self.blocks += self.used == 0
        buf = self.buf
        view = super().take(shape)
        self.takes += 1
        if self.buf is not buf:
            self.grown_in.append(self.blocks)
        return view


class TestBlockArena:
    """Every block of ramp work, a solve's or a read's, takes its work arrays
    from one buffer per thread, which grows to the largest block it has
    served; nothing a solve returns or reads depends on what the buffer held."""

    @staticmethod
    def solve():
        """Criterion 6's mu = 40 batch size on three blocks: 42 momenta."""
        ks = np.linspace(0.0, 4.0, 42)
        return solve_modes(ks, SwitchingProfile(40.0), verify.MODE_PARAMS)

    @classmethod
    def probes(cls):
        """Node planes of a limits-sized solve of one 27-step block, then of
        the three-block solve."""
        return solve_modes(np.array([1.0, 1.5]), SwitchingProfile(3.0), PARAMS).y, cls.solve().y

    def test_nodes_do_not_depend_on_what_ran_before(self, monkeypatch):
        first = self.probes()
        assert first[0].shape[2] == 28
        assert first[1].shape[2] > 2 * modes._BLOCK // 42 + 1
        solve_modes(np.linspace(0.0, 5.0, 64), SwitchingProfile(40.0), verify.MODE_PARAMS)
        after_larger = self.probes()
        solve_modes(np.array([0.5]), SwitchingProfile(1.0), PARAMS)
        after_smaller = self.probes()
        # a solve stopped partway through its first block, with NaN maps
        # carried into the buffer
        step_maps, carry = modes._step_maps, modes._carry

        def nan_maps(*args):
            maps = step_maps(*args)
            for a in maps:
                a[...] = np.nan
            return maps

        def stopping(step, y, heads, arena):
            carry(step, y, heads, arena)
            assert arena.used > 0 and np.isnan(arena.buf).any()
            raise IntegratorError("stopped partway through a block")

        monkeypatch.setattr(modes, "_step_maps", nan_maps)
        monkeypatch.setattr(modes, "_carry", stopping)
        with pytest.raises(IntegratorError, match="partway"):
            self.solve()
        monkeypatch.undo()
        # as the CLI runs, where a value left in the buffer and read again
        # could raise
        with np.errstate(all="raise"):
            after_failure = self.probes()

        def garbage_after(*args):
            # the free part of the buffer holds values whose products overflow
            maps = step_maps(*args)
            arena = args[-1]
            arena.buf[arena.used :] = 1e300
            return maps

        monkeypatch.setattr(modes, "_step_maps", garbage_after)
        with np.errstate(all="raise"):
            over_garbage = self.probes()
        for probes in (after_larger, after_smaller, after_failure, over_garbage):
            assert all(np.array_equal(y, ref) for y, ref in zip(probes, first))

    def test_threads_match_serial_solves(self):
        batches = [(np.linspace(0.0, 4.0, 42), 40.0), (np.linspace(0.5, 5.0, 64), 20.0),
                   (np.linspace(0.0, 3.0, 20), 10.0), (np.array([1.0, 1.5]), 5.0)]

        def run(batch):
            ks, mu = batch
            return solve_modes(ks, SwitchingProfile(mu), verify.MODE_PARAMS).y

        serial = [run(batch) for batch in batches]
        results = [[] for _ in batches]
        arenas = [None] * len(batches)

        def worker(i):
            for _ in range(4):
                results[i].append(run(batches[i]))
            arenas[i] = modes._block_arena()

        # more threads than the two cores of a small machine, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(arena) for arena in arenas + [modes._block_arena()]}) == len(batches) + 1
        for ys, ref in zip(results, serial):
            assert len(ys) == 4 and all(np.array_equal(y, ref) for y in ys)

    def test_writing_into_the_arena_leaves_the_trajectory(self):
        traj = self.solve()
        arena = modes._block_arena()
        assert not np.shares_memory(traj.y, arena.buf)
        y, ts = traj.y.copy(), np.linspace(-traj.mu, 1.0, 97)
        before = traj.evaluate(ts)
        arena.buf[:] = np.nan
        assert np.array_equal(traj.y, y)
        for a, b in zip(traj.evaluate(ts), before):
            assert np.array_equal(a, b)

    def test_direct_step_maps_share_no_memory(self, mu40_solve):
        traj = mu40_solve
        h = traj.mu / traj.n_steps
        args = (traj.t[:128], h, modes._samples(traj.eps), traj.params.mass_shift, traj.mu)
        first, second = (modes._step_maps(*args, modes._Arena()) for _ in range(2))
        buf = modes._block_arena().buf
        for a in first:
            assert not np.shares_memory(a, buf)
            assert not any(np.shares_memory(a, b) for b in second)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


    def test_a_larger_block_grows_the_arena_in_that_block_alone(self, monkeypatch):
        arena = _CountingArena()
        monkeypatch.setattr(modes._THREAD, "arena", arena, raising=False)

        def small():  # one block of 2 momenta
            return solve_modes(np.array([1.0, 1.5]), SwitchingProfile(3.0), PARAMS).y

        y_small = small()
        size, grown = arena.buf.size, len(arena.grown_in)
        assert arena.blocks == 1 and set(arena.grown_in) == {1}
        assert 0 < size < modes._BLOCK
        # three blocks of 42 momenta: the first outgrows the arena, the two
        # after it need no more
        y_large = self.solve().y
        assert arena.blocks == 4 and set(arena.grown_in[grown:]) == {2}
        assert arena.buf.size > size
        buf, size = arena.buf, arena.buf.size
        assert np.array_equal(self.solve().y, y_large)
        assert np.array_equal(small(), y_small)
        assert arena.blocks == 8 and arena.buf is buf and arena.buf.size == size

    def test_a_warm_verify_all_replaces_no_buffer(self, monkeypatch, capsys):
        arena = _CountingArena()
        monkeypatch.setattr(modes._THREAD, "arena", arena, raising=False)
        assert cli.main(["verify-all"]) == 0
        buf, grown = arena.buf, len(arena.grown_in)
        assert cli.main(["verify-all"]) == 0
        assert arena.buf is buf and len(arena.grown_in) == grown
        # the size measured after a default verify-all
        assert buf.size <= 196_560

    def test_a_fresh_thread_arena_holds_a_verify_all(self, monkeypatch, capsys):
        # the arena a fresh thread makes is the only buffer of its first
        # default verify-all (grown from empty it was replaced 17 times, to
        # 196_560 doubles), and its second run makes none either
        monkeypatch.setattr(modes, "_Arena", _CountingArena)
        seen, codes = [], []

        def run():
            for _ in range(2):
                codes.append(cli.main(["verify-all"]))
                arena = modes._block_arena()
                seen.append((arena, arena.buf, len(arena.grown_in)))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and codes == [0, 0]
        (arena, first, grown), (again, second, regrown) = seen
        assert isinstance(arena, _CountingArena) and again is arena
        assert grown == regrown == 0 and second is first
        assert first.size == 24 * modes._BLOCK <= 2 * 196_560
        assert arena is not modes._block_arena()

    def test_a_view_outlives_the_buffer_it_came_from(self):
        arena = modes._Arena()
        first = arena.take((3, 5))
        first[...] = np.arange(15.0).reshape(3, 5)
        old = arena.buf
        with np.errstate(all="raise"):
            second = arena.take((4, 100))  # does not fit: a new buffer
            assert arena.buf is not old and arena.buf.size == 15 + 400
            assert np.shares_memory(first, old) and not np.shares_memory(first, arena.buf)
            second[...] = 1e300
            arena.used = 0
            # the whole new buffer, then past it into a third one
            third = arena.take((415,))
            third[...] = 1e300
            assert not np.shares_memory(first, third) and arena.buf.size == 415
            fourth = arena.take((2,))
            fourth[...] = np.nan
            assert arena.buf.size == 417
            # garbage read through the view would overflow or be invalid
            assert np.square(first).sum() == np.square(np.arange(15.0)).sum()
        assert np.array_equal(first, np.arange(15.0).reshape(3, 5))

    def test_reads_run_in_the_thread_arena(self, monkeypatch):
        arena = _CountingArena()
        monkeypatch.setattr(modes._THREAD, "arena", arena, raising=False)
        traj = self.solve()
        grown, takes, buf = len(arena.grown_in), arena.takes, arena.buf
        calls = []
        samples = modes._samples
        monkeypatch.setattr(modes, "_samples", lambda eps: calls.append(eps.size) or samples(eps))
        # three blocks of ramp times
        ts = np.linspace(-traj.mu, 0.0, 3 * modes._BLOCK // 42 + 1)[1:-1]
        got = traj.evaluate(ts)
        assert arena.takes > takes and arena.blocks >= 3 + 3
        assert len(arena.grown_in) == grown and arena.buf is buf
        # one set-up for the read, whatever its number of blocks
        assert calls == [42]
        monkeypatch.setattr(modes._THREAD, "arena", modes._Arena())
        for a, b in zip(traj.evaluate(ts), got):
            assert np.array_equal(a, b)


def _batched_error_norm(err5, err3, y, h, rtol, atol):
    """The error norm on maps laid out (N, n, 2, 2) and nodes (N + 1, n, 2, 2),
    by hypot, batched 2x2 products and sums over the length-2 axes."""
    size = np.hypot(y[..., 0], y[..., 1])
    scale = atol + rtol * np.maximum(size[:-1], size[1:])
    e5 = np.sum(np.square(err5 @ y[:-1]).sum(axis=-1) / scale**2, axis=-1)
    e3 = np.sum(np.square(err3 @ y[:-1]).sum(axis=-1) / scale**2, axis=-1)
    denom = e5 + 0.01 * e3
    return np.divide(h * e5, np.sqrt(2.0 * denom), out=np.zeros_like(e5), where=denom > 0)


class TestErrorNorm:
    """The error norm as elementwise arithmetic on entries-first planes is
    scipy's DOP853 norm as the batched 2x2 products compute it, and it lets
    no NaN read as a good step."""

    # measured worst: 6.8e-16 (criterion-6 block) and 3.2e-16 (limits block)
    # of the largest entry
    REL = 1e-13

    @pytest.mark.parametrize("block", ["criterion-6", "limits"])
    def test_matches_batched_products(self, block, ramp_solves):
        config = default_config()
        if block == "criterion-6":  # 256 steps of the mu = 40 grid, interpolated maps
            traj, part = _mu40_solve(), slice(200, 456)
        else:  # the first limits solve, two momenta on their own x
            switch_integrals(np.array(config.k_values), SwitchingProfile(config.mu_ladder[0]),
                             config.params)
            traj = ramp_solves[-1]
            part = slice(0, traj.n_steps)
            assert traj.eps.size == 2
        h = traj.mu / traj.n_steps
        t = traj.t[part]
        maps = modes._step_maps(t, h, modes._samples(traj.eps), traj.params.mass_shift, traj.mu,
                                modes._Arena())
        y = traj.y[:, :, part.start : part.stop + 1]
        fast = modes._error_norm(maps[1], maps[2], y, h, 1e-10, 1e-12, modes._Arena())
        slow = _batched_error_norm(
            *(np.moveaxis(a, (0, 1), (2, 3)) for a in (maps[1], maps[2], y)), h, 1e-10, 1e-12
        )
        assert fast.shape == slow.shape == (t.size, traj.eps.size)
        assert 0 < slow.max() < 1
        assert np.abs(fast - slow).max() <= self.REL * slow.max()

    def test_nan_error_is_not_a_good_step(self, monkeypatch):
        config = default_config()
        ks, prof = np.array(config.k_values), SwitchingProfile(config.mu_ladder[0])
        traj = solve_modes(ks, prof, config.params)
        h = prof.mu / traj.n_steps
        original = modes._step_maps

        def poisoned(*args):
            step, err5, err3 = original(*args)
            err5 = err5.copy()
            err5[0, 1, 3, 0] = np.nan
            return step, err5, err3

        _, err5, err3 = poisoned(traj.t[:-1], h, modes._samples(traj.eps), config.params.mass_shift,
                                 prof.mu, modes._Arena())
        with np.errstate(all="raise"):
            norm = modes._error_norm(err5, err3, traj.y, h, 1e-10, 1e-12, modes._Arena())
        assert np.isnan(norm[3, 0]) and np.isnan(norm).sum() == 1
        monkeypatch.setattr(modes, "_step_maps", poisoned)
        with np.errstate(all="raise"), pytest.raises(
            IntegratorError, match="worst step error nan on a grid of 27 steps after 1 passes"
        ):
            solve_modes(ks, prof, config.params)

    def test_exact_zero_error_reads_zero(self, monkeypatch):
        config = default_config()
        ks, prof = np.array(config.k_values), SwitchingProfile(config.mu_ladder[0])
        original = modes._step_maps

        def exact(*args):
            step, err5, err3 = original(*args)
            return step, np.zeros_like(err5), np.zeros_like(err3)

        monkeypatch.setattr(modes, "_step_maps", exact)
        with np.errstate(all="raise"):
            traj = solve_modes(ks, prof, config.params)
            h = prof.mu / traj.n_steps
            _, err5, err3 = exact(traj.t[:-1], h, modes._samples(traj.eps), config.params.mass_shift,
                                  prof.mu, modes._Arena())
            zero = modes._error_norm(err5, err3, traj.y, h, 1e-10, 1e-12, modes._Arena())
        assert (traj.n_steps, traj.passes) == (27, 1)
        assert np.array_equal(zero, np.zeros((27, 2)))


def _per_step_carry(step, y, heads=()):
    """The carry as one batched 2x2 product per step, on (step, momentum,
    2, 2) views of the maps and the nodes, with the nodes at ``heads`` kept:
    the reference for the prefix scan of ``modes._carry``."""
    nodes = y.transpose(2, 3, 0, 1)
    maps = step.transpose(2, 3, 0, 1)
    for i in range(step.shape[2]):
        if i + 1 not in heads:
            np.matmul(maps[i], nodes[i], out=nodes[i + 1])


def _csv_fields(path):
    """The header and rows of a CSV file, numbers as floats and text as text."""

    def field(v):
        try:
            return float(v)
        except ValueError:
            return v

    rows = [line.split(",") for line in path.read_text().splitlines()]
    return rows[0], [[field(v) for v in row] for row in rows[1:]]


def _mu40_solve():
    """The ramp solve of all 64 default radial nodes at mu = 40, criterion
    6's largest rung, unscreened: 64 momenta on 762 steps."""
    config = default_config()
    k, _ = config.quadrature.radial_rule(*config.packet_pair)
    traj = solve_modes(k, SwitchingProfile(config.mu_ladder[-1]), verify.MODE_PARAMS)
    assert traj.eps.size == 64 > modes._DIRECT_MAX and traj.n_steps == 762
    return traj


@pytest.fixture(scope="class")
def mu40_solve():
    return _mu40_solve()


class TestGroupedCarry:
    """The carry, a log-depth prefix scan of a block's node planes between
    two buffers, against one 2x2 product per step."""

    # measured worst: 2.5e-15 of the largest node entry on the first block of
    # the unscreened mu = 40 solve, and at most that on the others
    REL = 1e-13
    # every CSV field and measured value of the CLI commands, absolute
    ABS = 1e-13

    def assert_matches_per_step(self, step, start, heads=(), nodes=None):
        """Carries ``start`` through ``step`` both ways, the scan into the
        front of a buffer of NaN twice as long, and compares the nodes; the
        nodes at ``heads``, taken from ``nodes``, start fresh segments."""
        m, n = step.shape[2:]
        given = step.copy()
        fast = np.full((2, 2, 2 * m + 1, n), np.nan)
        slow = np.empty((2, 2, m + 1, n))
        fast[:, :, 0] = slow[:, :, 0] = start
        for q in heads:
            fast[:, :, q] = slow[:, :, q] = nodes[:, :, q]
        with np.errstate(all="raise"):
            modes._carry(step, fast[:, :, : m + 1], list(heads), modes._Arena())
        _per_step_carry(step, slow, heads)
        # no offset of the scan writes past node m
        assert np.isnan(fast[:, :, m + 1 :]).all() and np.isfinite(fast[:, :, : m + 1]).all()
        assert np.array_equal(step, given)
        assert np.abs(fast[:, :, : m + 1] - slow).max() <= self.REL * np.abs(slow).max()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 129])
    def test_criterion_6_block(self, m, mu40_solve):
        # the first m steps of the unscreened mu = 40 grid, whose first block
        # is 128 steps, interpolated maps
        traj = mu40_solve
        assert modes._BLOCK // traj.eps.size == 128
        h = traj.mu / traj.n_steps
        samples = modes._samples(traj.eps)
        step, _, _ = modes._step_maps(traj.t[:m], h, samples, traj.params.mass_shift, traj.mu,
                                      modes._Arena())
        self.assert_matches_per_step(step, traj.y[:, :, 0])

    @pytest.mark.parametrize("m", [127, 128])
    @pytest.mark.parametrize("heads", [(1,), (64,), (127,), (1, 2, 3, 64, 127)])
    def test_heads_start_fresh_segments(self, m, heads, mu40_solve):
        # the first m steps of the unscreened mu = 40 grid with the nodes at
        # ``heads`` given: every segment is carried as a fresh scan from its
        # first node carries it, to the bit, and no map reaches across a
        # head.  m = 128 has an even count of scan levels, so its scan
        # starts in the node planes and must keep the heads' nodes
        traj = mu40_solve
        h = traj.mu / traj.n_steps
        step, _, _ = modes._step_maps(traj.t[:m], h, modes._samples(traj.eps),
                                      traj.params.mass_shift, traj.mu, modes._Arena())
        self.assert_matches_per_step(step, traj.y[:, :, 0], heads, traj.y)
        y = np.empty((2, 2, m + 1, traj.eps.size))
        y[:, :, 0] = traj.y[:, :, 0]
        y[:, :, list(heads)] = traj.y[:, :, list(heads)]
        modes._carry(step, y, list(heads), modes._Arena())
        for a, b in zip((0, *heads), (*heads, m + 1)):
            fresh = np.empty((2, 2, b - a, traj.eps.size))
            fresh[:, :, 0] = traj.y[:, :, a]
            modes._carry(step[:, :, a : b - 1], fresh, [], modes._Arena())
            assert np.array_equal(y[:, :, a:b], fresh), (a, b)

    @pytest.mark.parametrize("k", [0, 1, 63, 64, 127])
    def test_nan_map_reaches_only_later_nodes(self, k, mu40_solve):
        # the unscreened mu = 40 grid's first full block, with step k's maps
        # NaN for every momentum
        traj = mu40_solve
        m = modes._BLOCK // traj.eps.size
        h = traj.mu / traj.n_steps
        step, _, _ = modes._step_maps(traj.t[:m], h, modes._samples(traj.eps),
                                      traj.params.mass_shift, traj.mu, modes._Arena())
        clean, poisoned = (np.empty((2, 2, m + 1, traj.eps.size)) for _ in range(2))
        clean[:, :, 0] = poisoned[:, :, 0] = traj.y[:, :, 0]
        modes._carry(step, clean, [], modes._Arena())
        step[:, :, k] = np.nan
        modes._carry(step, poisoned, [], modes._Arena())
        assert np.array_equal(poisoned[:, :, : k + 1], clean[:, :, : k + 1])
        assert np.isnan(poisoned[:, :, k + 1 :]).all()

    def test_ragged_limits_block(self, ramp_solves):
        # the first limits solve, 27 steps, for its first momentum alone
        config = default_config()
        switch_integrals(np.array(config.k_values), SwitchingProfile(config.mu_ladder[0]),
                         config.params)
        traj = ramp_solves[-1]
        assert traj.n_steps == 27
        h = traj.mu / traj.n_steps
        samples = modes._samples(traj.eps[:1])
        step, _, _ = modes._step_maps(traj.t[:-1], h, samples, traj.params.mass_shift, traj.mu,
                                      modes._Arena())
        self.assert_matches_per_step(step, traj.y[:, :, 0, :1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_in_the_last_step_fails(self, bad, monkeypatch, capsys):
        # the last step of every block, the one step whose map reaches only
        # the block's last node
        config = default_config()
        ks, prof = np.array(config.k_values), SwitchingProfile(config.mu_ladder[0])
        original = modes._step_maps

        def poisoned(*args):
            step, err5, err3 = original(*args)
            step = step.copy()
            step[0, 1, -1, 0] = bad
            return step, err5, err3

        monkeypatch.setattr(modes, "_step_maps", poisoned)
        with np.errstate(all="raise"), pytest.raises((IntegratorError, FloatingPointError)):
            solve_modes(ks, prof, config.params)
        assert cli.main(["limits"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure")

    def test_cli_outputs_match_the_per_step_carry(self, tmp_path, ramp_solves, monkeypatch, capsys):
        commands = ("limits", "ness", "verify-all")

        def run(side):
            for command in commands:
                assert cli.main([command, "--out", str(tmp_path / side / command)]) == 0
            capsys.readouterr()
            return [(traj.n_steps, traj.passes) for traj in ramp_solves]

        grids = run("scan")
        monkeypatch.setattr(modes, "_carry", lambda step, y, heads, arena: _per_step_carry(step, y, heads))
        assert run("per-step") == grids + grids
        for name in ("limits/limits.csv", "ness/ness.csv"):
            head, rows = _csv_fields(tmp_path / "scan" / name)
            ref_head, ref_rows = _csv_fields(tmp_path / "per-step" / name)
            assert head == ref_head and len(rows) == len(ref_rows) > 0
            for row, ref in zip(rows, ref_rows):
                for a, b in zip(row, ref):
                    assert a == b if isinstance(b, str) else abs(a - b) <= self.ABS, (name, head)
        docs = [json.loads((tmp_path / side / "verify-all" / "verify_all.json").read_text())
                for side in ("scan", "per-step")]
        for got, ref in zip(*(doc["criteria"] for doc in docs)):
            assert (got["index"], got["status"]) == (ref["index"], ref["status"])
            assert got["measured"].keys() == ref["measured"].keys()
            for key, value in ref["measured"].items():
                assert abs(got["measured"][key] - value) <= self.ABS, (got["index"], key)


class TestLadderSolve:
    """One ramp solve for a ladder of switching scales lays the rungs end to
    end as segments of one node array, each led by its head, the plane-wave
    data at its -mu; every rung keeps the grid of a solve of it alone, and
    a rung that one block holds gets that solve's nodes to the bit."""

    # measured: 3.3e-15 of the largest node entry and 4.2e-15 in the worst
    # drift, on the rung whose blocks end at other nodes than its solve's
    # alone
    REL = 1e-13
    DRIFT_ABS = 1e-13

    @staticmethod
    def mu_for(n_steps, ks, params, rtol=1e-10):
        """The switching scale whose seeded grid has ``n_steps`` steps for
        the batch ``ks``: half a step below it on the h**8 law."""
        d = dispersion(ks, params)
        w_max = max(d.eps.max(), d.eps_lambda.max())
        mu = (n_steps - 0.5) / (rtol**-0.125 * modes._SEED_WAVE * w_max)
        assert rtol**-0.125 * modes._SEED_WAVE * mu * w_max > rtol**-0.125 * modes._SEED_SWITCH
        return mu

    @staticmethod
    def assert_same_solve(traj, alone):
        assert traj.mu == alone.mu and np.array_equal(traj.t, alone.t)
        assert np.array_equal(traj.y, alone.y)
        assert (traj.passes, traj.worst_drift, traj.worst_drift_t) == (
            alone.passes, alone.worst_drift, alone.worst_drift_t)

    def test_each_rung_lays_the_linspace_grid(self):
        # the grid is np.linspace's arithmetic written out: the same bits,
        # the sign of every zero included, on rungs of 27 to 3134 steps
        config = default_config()
        mus = [*config.mu_ladder, 640.0, 1.0, verify.SUDDEN_MU, 0.37, 7.0710678118654755, 123.456]
        ladder = modes._ramp_solve(np.array(config.k_values), [SwitchingProfile(mu) for mu in mus],
                                   config.params)
        assert [traj.n_steps for traj in ladder] == [27, 49, 98, 196, 3134, 27, 27, 27, 35, 605]
        for traj, mu in zip(ladder, mus):
            ref = np.linspace(-mu, 0.0, traj.n_steps + 1)
            assert np.array_equal(traj.t, ref) and np.array_equal(np.signbit(traj.t), np.signbit(ref))

    def test_suite_ladder_is_bit_equal_to_one_solve_per_rung(self):
        config = default_config()
        ks = np.array(config.k_values)
        mus = (*config.mu_ladder, 1.0)
        ladder = modes._ramp_solve(ks, [SwitchingProfile(mu) for mu in mus], verify.MODE_PARAMS)
        # 434 positions of two momenta: one block holds the whole ladder
        assert sum(traj.t.size for traj in ladder) == 434 <= modes._BLOCK // ks.size
        assert all(traj.y.base is ladder[0].y.base is not None for traj in ladder)
        for traj, mu in zip(ladder, mus):
            self.assert_same_solve(traj, solve_modes(ks, SwitchingProfile(mu), verify.MODE_PARAMS))

    def test_heads_on_block_edges(self):
        # 64 momenta, so blocks of 128 steps over the positions [128 j,
        # 128 (j + 1)]: rungs of 127, 128 and 300 steps put a head at 128,
        # block 0's last position and block 1's first, and one at 257, where
        # block 2's first step is the step into a head.  Block 0 holds 128
        # steps, an even count of scan levels, so its scan starts in the
        # node planes themselves, over the head it must keep
        ks = np.linspace(0.1, 3.0, 64)
        block = modes._BLOCK // ks.size
        mus = [self.mu_for(n, ks, PARAMS) for n in (127, 128, 300)]
        ladder = modes._ramp_solve(ks, [SwitchingProfile(mu) for mu in mus], PARAMS)
        assert [traj.n_steps for traj in ladder] == [127, 128, 300]
        heads = np.cumsum([0] + [traj.t.size for traj in ladder])[1:-1]
        assert block == 128 and list(heads) == [block, 2 * block + 1]
        assert block.bit_length() % 2 == 0
        for i, (traj, mu) in enumerate(zip(ladder, mus)):
            alone = solve_modes(ks, SwitchingProfile(mu), PARAMS)
            if i < 2:  # one block each, alone and in the ladder
                self.assert_same_solve(traj, alone)
            else:  # alone, its blocks end at other nodes
                assert np.array_equal(traj.t, alone.t) and traj.passes == alone.passes == 1
                assert np.abs(traj.y - alone.y).max() <= self.REL * np.abs(alone.y).max()
                assert abs(traj.worst_drift - alone.worst_drift) <= self.DRIFT_ABS

    @pytest.mark.parametrize("mus", [(5.0, 1.0), (1.0, 5.0)])
    def test_a_regrown_rung_leaves_the_others(self, mus, monkeypatch):
        # at lam = 8 the mu = 1 rung fails its seeded grid of the default
        # tolerances and regrows to 39 steps, and the second pass lays the
        # whole ladder again, the mu = 5 rung on its 54 steps.  One block
        # holds both, so each rung keeps the step count and the node planes
        # of its solve alone, and one gate reads the last pass
        params = dataclasses.replace(PARAMS, lam=8.0)
        ks = np.array([0.0, 1.0])
        gate, segments = modes._gate, []
        monkeypatch.setattr(modes, "_gate", lambda *args: segments.append(args[3]) or gate(*args))
        ladder = modes._ramp_solve(ks, [SwitchingProfile(mu) for mu in mus], params)
        assert [len(rungs) for rungs in segments] == [2]
        assert sum(traj.t.size for traj in ladder) - 1 <= modes._BLOCK // ks.size
        grids = {traj.mu: (traj.n_steps, traj.passes) for traj in ladder}
        assert grids == {1.0: (39, 2), 5.0: (54, 2)}
        for traj, mu in zip(ladder, mus):
            alone = solve_modes(ks, SwitchingProfile(mu), params)
            assert alone.passes == (2 if mu == 1.0 else 1)
            assert np.array_equal(traj.t, alone.t) and np.array_equal(traj.y, alone.y)
            assert (traj.worst_drift, traj.worst_drift_t) == (
                alone.worst_drift, alone.worst_drift_t)

    def test_suite_keeps_each_rungs_solve(self):
        # the trajectory suite: the mu ladder, the unit-scale switch and the
        # sharp switch at the default tolerances, 462 positions of two
        # momenta, so one block spans all six rungs.  Each rung keeps the
        # grid, passes and node planes of its solve alone
        config = default_config()
        ks = np.array(config.k_values)
        suite = verify._suite_trajectories(config, {})
        assert [traj.mu for traj in suite] == [*config.mu_ladder, 1.0, verify.SUDDEN_MU]
        assert sum(traj.t.size for traj in suite) == 462 <= modes._BLOCK // ks.size
        for traj in suite:
            self.assert_same_solve(traj, solve_modes(ks, SwitchingProfile(traj.mu), verify.MODE_PARAMS))
        # the switch itself sets both short grids
        assert suite[-1].n_steps == suite[-2].n_steps == 27

    def test_messages_name_the_calls_tolerances(self, monkeypatch):
        # the gate's message and the regrow's name the one rtol and atol of
        # the call, after the mu of the rung that fails
        ks = np.array([0.0, 1.0])
        profs = [SwitchingProfile(verify.SUDDEN_MU), SwitchingProfile(5.0)]
        with monkeypatch.context() as patched:
            patched.setattr(modes, "_WRONSKIAN_TOL", 1e-30)
            with pytest.raises(IntegratorError, match=r"mu=0\.001 .*rtol=1e-12, atol=1e-14\)$"):
                modes._ramp_solve(ks, profs, PARAMS, 1e-12, 1e-14)
        # at lam = 8 the mu = 1 rung fails its seeded grid, and one pass
        # leaves it no regrow
        monkeypatch.setattr(modes, "_MAX_PASSES", 1)
        profs = [SwitchingProfile(5.0), SwitchingProfile(1.0)]
        with pytest.raises(IntegratorError, match=r"mu=1\.0 did not meet rtol=1e-09, atol=1e-11: "):
            modes._ramp_solve(ks, profs, dataclasses.replace(PARAMS, lam=8.0), 1e-9, 1e-11)

    def test_batched_switch_integrals_match_one_read_each(self):
        # the suite's mu ladder in one read, and 64 momenta on three solves,
        # whose reads span blocks of 128 values
        config = default_config()
        ks = np.array(config.k_values)
        suite = modes._ramp_solve(ks, [SwitchingProfile(mu) for mu in config.mu_ladder],
                                  verify.MODE_PARAMS)
        wide = [solve_modes(np.linspace(0.1, 3.0, 64), SwitchingProfile(mu), PARAMS)
                for mu in (3.0, 5.0, 12.0)]
        for trajs in (suite, wide):
            batched = modes._switch_integrals(*trajs)
            assert len(batched) == len(trajs)
            for traj, (i_sq, i_abs) in zip(trajs, batched):
                [(ref_sq, ref_abs)] = modes._switch_integrals(traj)
                assert np.array_equal(i_sq, ref_sq) and np.array_equal(i_abs, ref_abs)


def _ufunc_product(a, b):
    """The 2x2 products a @ b of two entries-first stacks as two ufunc
    products and their sum: the reference for the einsum pass of
    ``modes._product``."""
    return np.add(a[:, 0, None] * b[None, 0], a[:, 1, None] * b[None, 1])


def _ufunc_sum_of_squares(a):
    """a[:, 0]**2 + a[:, 1]**2 as ufuncs: the reference for the error norm's
    einsum sums over the part axis."""
    return np.add(np.square(a[:, 0]), np.square(a[:, 1]))


class TestEinsumKernel:
    """Each 2x2 product of the ramp kernel is one einsum pass and each sum
    of squares over the two parts one einsum sum.  On the operands the
    kernel hands them they give the very bits of the ufuncs they replaced
    (numpy 2.4.6), and every non-finite value they make, which einsum
    signals under no ``np.errstate``, still ends in ``IntegratorError``."""

    @staticmethod
    def block(traj):
        """The first full block of ``traj``: its step and error maps, views
        into an arena, and its nodes, a strided view of the trajectory's."""
        m = modes._BLOCK // traj.eps.size
        h = traj.mu / traj.n_steps
        maps = modes._step_maps(traj.t[:m], h, modes._samples(traj.eps), traj.params.mass_shift,
                                traj.mu, modes._Arena())
        return maps, traj.y[:, :, : m + 1]

    def test_carry_products(self, mu40_solve):
        # the scan's operands x[:, :, d:] and x[:, :, :-d], written into a
        # strided view as the scan writes into the trajectory's planes
        _, y = self.block(mu40_solve)
        m = y.shape[2] - 1
        assert m == 128 and not y.flags.c_contiguous
        for d in (1, 2, 4, 64, 128):
            out = np.full((2, 2, 2 * m, y.shape[3]), np.nan)[:, :, d : m + 1]
            assert modes._product(y[:, :, d:], y[:, :, :-d], out=out) is out
            assert np.array_equal(out, _ufunc_product(y[:, :, d:], y[:, :, :-d])), d

    def test_error_norm_products_and_sums(self, mu40_solve):
        (_, err5, err3), y = self.block(mu40_solve)
        sq = np.einsum("cp...,cp...->c...", y, y)
        assert np.array_equal(sq, _ufunc_sum_of_squares(y))
        for err in (err5, err3):
            prod = modes._product(err, y[:, :, :-1], out=np.empty(err.shape))
            assert np.array_equal(prod, _ufunc_product(err, y[:, :, :-1]))
            total = np.einsum("cp...,cp...->c...", prod, prod)
            assert np.array_equal(total, _ufunc_sum_of_squares(prod))

    def test_read_products(self, mu40_solve):
        # three blocks of ramp times, each block's product written into a
        # strided part of the values, as ``_between_nodes`` writes them
        traj = mu40_solve
        ts = np.linspace(-traj.mu, 0.0, 3 * modes._BLOCK // traj.eps.size + 1)[1:-1]
        block = modes._BLOCK // traj.eps.size
        got = np.empty((2, 2, ts.size, traj.eps.size))
        ref = np.empty_like(got)
        for lo in range(0, ts.size, block):
            part = slice(lo, lo + block)
            node = np.searchsorted(traj.t, ts[part], side="right") - 1
            step, _, _ = modes._step_maps(traj.t[node], ts[part] - traj.t[node],
                                          modes._samples(traj.eps), traj.params.mass_shift,
                                          traj.mu, modes._Arena())
            start = traj.y.take(node, axis=2)
            modes._product(step, start, out=got[:, :, part])
            ref[:, :, part] = _ufunc_product(step, start)
        assert np.array_equal(got, ref)
        T, Tdot = traj.evaluate(ts)
        assert np.array_equal(T, got[0, 0].T + 1j * got[0, 1].T)
        assert np.array_equal(Tdot, got[1, 0].T + 1j * got[1, 1].T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    @pytest.mark.parametrize("where", ["carry", "error-norm", "read"])
    def test_non_finite_ends_in_integrator_error(self, where, bad, tmp_path, monkeypatch, capsys):
        # one entry of the middle step's step map (carry, read) or order-5
        # error map (error norm), for the first momentum
        config = default_config()
        ks, prof = np.array(config.k_values), SwitchingProfile(config.mu_ladder[0])
        traj = solve_modes(ks, prof, config.params)
        original = modes._step_maps

        def poisoned(t, h, *args):
            maps = original(t, h, *args)
            # a solve steps by one size in a block inside one rung, and by one
            # per start with h = 0 into each head in a block that spans
            # rungs; a read between nodes steps by one per start, never 0
            solve = np.ndim(h) == 0 or not np.all(h)
            if solve != (where == "read"):
                maps[where == "error-norm"][0, 1, t.size // 2, 0] = bad
            return maps

        monkeypatch.setattr(modes, "_step_maps", poisoned)
        # the error norm's finiteness check or the Wronskian gate, never a
        # FloatingPointError from inside either
        refused = r"ramp solve for .* did not meet|Wronskian drift (nan|inf|\S+e\+\d+) exceeds"
        with np.errstate(all="raise"), pytest.raises(IntegratorError, match=refused):
            if where == "read":
                traj.evaluate(np.linspace(-prof.mu, 0.0, 9)[1:-1])
            else:
                solve_modes(ks, prof, config.params)
        out = tmp_path / "limits"
        assert cli.main(["limits", "--out", str(out)]) == 3
        assert re.match(f"numerical failure: ({refused})", capsys.readouterr().err)
        assert not out.exists()


def _wronskian_residual(T, Td):
    """|W - i| with W = conj(Tdot)*T - conj(T)*Tdot, exactly i for a mode: the
    complex form of the gate, the reference for ``modes._drift``."""
    return np.abs(np.conj(Td) * T - np.conj(T) * Td - 1j)


def _complex_from_planes(planes):
    """A component's planes (real or imaginary part, node, momentum) as a
    complex (momentum, node) array, written part by part."""
    out = np.empty(planes.shape[:0:-1], dtype=complex)
    out.real, out.imag = planes[0].T, planes[1].T
    return out


class TestNodePlanes:
    """The trajectory keeps (T, Tdot) as real node planes only: the gate reads
    them in real arithmetic, and complex values are built on demand."""

    # measured worst: 2.2e-16 on every solve below
    DRIFT_ABS = 1e-15

    @pytest.fixture(params=["criterion-6-mu40", "ness", "sudden"])
    def traj(self, request, mu40_solve, ramp_solves):
        config = default_config()
        if request.param == "criterion-6-mu40":
            return mu40_solve
        if request.param == "ness":
            k_ness, _ = config.quadrature.radial_rule(*config.packet_pair)
            verify.ness_bogoliubov_map(config.params, mu=config.profile.mu)(k_ness)
            return ramp_solves[-1]
        return solve_modes(np.array(config.k_values), SwitchingProfile(verify.SUDDEN_MU),
                           verify.MODE_PARAMS, rtol=1e-12, atol=1e-14)

    def test_drift_matches_complex_residual(self, traj):
        ref = _wronskian_residual(*(modes._complex(part) for part in traj.y))
        drift = modes._drift(traj.y)
        assert drift.shape == ref.T.shape == (traj.t.size, traj.eps.size)
        assert np.abs(drift - ref.T).max() <= self.DRIFT_ABS
        assert abs(traj.worst_drift - ref.max()) <= self.DRIFT_ABS
        # where two nodes tie to rounding either may be reported: the node at
        # worst_drift_t need only come within DRIFT_ABS of the largest residual
        (i,) = np.flatnonzero(traj.t == traj.worst_drift_t)
        assert ref[:, i].max() >= ref.max() - self.DRIFT_ABS

    def test_complex_values_are_built_from_the_planes(self, traj):
        assert set(vars(traj)) >= {"y"} and not any(hasattr(traj, name) for name in ("T", "Tdot"))
        assert traj.y.shape == (2, 2, traj.t.size, traj.eps.size) and traj.y.dtype == float
        for planes in traj.y:
            value = modes._complex(planes)
            assert value.dtype == complex
            assert np.array_equal(value, _complex_from_planes(planes))

    @pytest.mark.parametrize("plane", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_nan_in_one_plane_fails_the_gate(self, plane, mu40_solve):
        traj = mu40_solve
        y = traj.y.copy()
        y[plane + (300, 5)] = np.nan
        with np.errstate(all="raise"), pytest.raises(
            IntegratorError, match=re.escape(f"Wronskian drift nan exceeds 1.0e-08 for k={traj.k_mag[5]}")
        ):
            modes._gate(y, traj.k_mag, traj.t, [(0, traj.t.size, traj.mu, "planted")])
        # a ramp time just after the poisoned node reads it through a partial step
        poisoned = dataclasses.replace(traj, y=y)
        with np.errstate(all="raise"), pytest.raises(IntegratorError, match="Wronskian drift nan"):
            poisoned.evaluate(traj.t[300] + 0.5 * (traj.t[301] - traj.t[300]))
        assert np.isfinite(traj.y).all()

    def test_samples_set_up_once_match_per_block(self, mu40_solve):
        # every block of the mu = 40 grid, built with the one shared set-up,
        # equals the same block built with its own; the shared set-up is
        # never written to
        traj = mu40_solve
        h, shift = traj.mu / traj.n_steps, traj.params.mass_shift
        shared = modes._samples(traj.eps)
        assert shared[1] is not None and shared[1].shape == (traj.eps.size, modes._DEGREE + 1)
        given = [a.copy() for a in shared]
        block = modes._BLOCK // traj.eps.size
        for lo in range(0, traj.n_steps, block):
            t = traj.t[lo : min(lo + block, traj.n_steps)]
            once = modes._step_maps(t, h, shared, shift, traj.mu, modes._Arena())
            fresh = modes._step_maps(t, h, modes._samples(traj.eps), shift, traj.mu, modes._Arena())
            assert all(np.array_equal(a, b) for a, b in zip(once, fresh))
        assert all(np.array_equal(a, b) for a, b in zip(shared, given))

    def test_one_set_up_per_solve_and_per_read(self, ramp_solves, monkeypatch):
        calls, reads = [], []
        samples, between = modes._samples, modes._between_nodes

        def counting(eps):
            calls.append(eps.size)
            return samples(eps)

        def reading(trajs, times):
            reads.append(sum(ts.size for ts in times))
            return between(trajs, times)

        monkeypatch.setattr(modes, "_samples", counting)
        monkeypatch.setattr(modes, "_between_nodes", reading)
        assert verify.criterion_6(default_config()).status == "pass"
        # criterion 6's ladder solve of the 42 kept momenta spans 6 blocks,
        # and the early screen clears every rung on the default packets, so
        # no rung is read between its nodes and only the one solve sets up
        assert [(traj.eps.size, traj.n_steps) for traj in ramp_solves] == [
            (42, 71), (42, 141), (42, 282), (42, 563)
        ]
        assert ramp_solves.calls == [4] and calls == [42] and reads == []
        del calls[:]
        # a read of three blocks sets up once
        traj = ramp_solves[-1]
        traj.evaluate(np.linspace(-traj.mu, 0.0, 3 * modes._BLOCK // 42 + 1)[1:-1])
        assert calls == [42] and reads[-1] > 2 * modes._BLOCK // 42


class TestTanhOracle:
    """The switch (1 + tanh(40 (s + 1/2))) / 2 on (-1, 0), rate rho = 40/mu,
    has a closed-form Bogoliubov pair: |a_minus|**2 =
    sinh(pi (w_out - w_in) / (2 rho))**2 / (sinh(pi w_in / rho) sinh(pi w_out / rho))
    (Bernard and Duncan 1977; Birrell and Davies 1982, section 3.4).  Its ends
    differ from 0 and 1 by about 4e-18."""

    # measured worst: 2.4e-15 absolute over both batches and every mu
    A_MINUS_SQ_ABS = 1e-13
    # |a_plus|**2 - |a_minus|**2 - 1 per momentum; measured worst: 9.2e-11
    # absolute (mu = 40, interpolated batch), at the default tolerances
    NORM_ABS = 1e-8

    @staticmethod
    def tanh_unit(s):
        s = np.asarray(s, dtype=float)
        inside = 0.5 + 0.5 * np.tanh(40.0 * (s + 0.5))
        out = np.where(s <= -1.0, 0.0, np.where(s >= 0.0, 1.0, inside))
        return float(out) if out.ndim == 0 else out

    @pytest.mark.parametrize("ks", [np.linspace(0.0, 3.0, 40), np.array([0.5, 2.0])],
                             ids=["interpolated", "direct"])
    def test_a_minus_matches_the_closed_form(self, ks, monkeypatch):
        monkeypatch.setattr(modes, "chi_unit", self.tanh_unit)
        d = dispersion(ks, verify.MODE_PARAMS)
        w_in, w_out = d.eps, d.eps_lambda
        for mu in (0.5, 2.0, 5.0, 10.0, 20.0, 40.0):
            rho = 40.0 / mu
            traj = solve_modes(ks, SwitchingProfile(mu), verify.MODE_PARAMS)
            exact = np.sinh(np.pi * (w_out - w_in) / (2.0 * rho)) ** 2 / (
                np.sinh(np.pi * w_in / rho) * np.sinh(np.pi * w_out / rho)
            )
            pair = bogoliubov(traj)
            gap = np.abs(np.abs(pair.a_minus) ** 2 - exact).max()
            assert gap <= self.A_MINUS_SQ_ABS, (mu, gap)
            norm = np.abs(np.abs(pair.a_plus) ** 2 - np.abs(pair.a_minus) ** 2 - 1.0).max()
            assert norm <= self.NORM_ABS, (mu, norm)


class TestBornOrder:
    """First-order perturbation theory in the shift: the pair of the real
    switch at finite mu is

        a_minus = lam * (m0_sq / (4 eps**2)) * integral over the ramp of
                  d/dt chi(t/mu) * exp(-2i eps t) dt + O(lam**2),

    one quadrature of the rate that never touches the mode equation.  The
    order-lam coefficient of the solves is the Richardson estimate
    (2 a_minus(s) - a_minus(2 s) / 2) / s at s = 1e-3, which cancels the
    O(s) term of a_minus(s) / s."""

    # measured worst gaps: 1.7e-7, 2.1e-7, 2.8e-7 and 7.6e-8 at mu = 0.5, 2,
    # 5 and 10; the smallest |Born| values there are 4.7e-2, 1.3e-2, 5.5e-5
    # and 1.0e-4, all at least 10x the bound, so no point passes vacuously
    ABS = 3e-6

    def test_order_lam_coefficient_matches_born(self):
        ks, s = np.array([0.0, 0.5, 1.0, 2.0]), 1e-3
        m = verify.MODE_PARAMS

        def a_minus(prof, lam):
            params = ThermalParams(beta=m.beta, m_sq=m.m_sq, m0_sq=m.m0_sq, lam=lam)
            traj = solve_modes(ks, prof, params, rtol=1e-13, atol=1e-15)
            return bogoliubov(traj).a_minus

        eps = dispersion(ks, m).eps
        for mu in (0.5, 2.0, 5.0, 10.0):
            prof = SwitchingProfile(mu)
            coeff = (2.0 * a_minus(prof, s) - a_minus(prof, 2.0 * s) / 2.0) / s
            nodes, w = modes._panel_nodes(-mu, 0.0, 2.0 * eps.max(), min_panels=64)
            ramp = np.exp(-2j * np.outer(eps, nodes)) @ (w * prof.rate(nodes))
            born = m.m0_sq / (4.0 * eps**2) * ramp
            assert np.abs(born).min() >= 10.0 * self.ABS, (mu, np.abs(born).min())
            gap = np.abs(coeff - born).max()
            assert gap <= self.ABS, (mu, gap)


class TestEnergyBalance:
    """The switching integrals against the Bogoliubov pair of the same solve.

    With delta = lam * m0_sq, the mode equation gives
    d/dt (|Tdot|^2 + w^2 |T|^2) = delta * rate * |T|^2 and
    d/dt (Tdot^2 + w^2 T^2) = delta * rate * T^2.  At -mu the two are eps
    and 0; at t = 0 they follow from the pair.  So for delta != 0, exactly,

        I_sq  = 2 eps_lambda a_plus a_minus / delta,
        I_abs = 1 / (eps + eps_lambda) + 2 eps_lambda |a_minus|^2 / delta.

    This ties the quadrature over the ramp's interior to the t = 0 pair; it
    cannot see a wrong chi, since both sides read it."""

    # measured worst gap 7.3e-12 on this grid, where |I_sq| >= 2.6e-8
    ABS = 1e-10

    @pytest.mark.parametrize("lam", [0.5, 0.1, -0.3])
    @pytest.mark.parametrize("mu", [0.5, 5.0, 40.0])
    def test_integrals_follow_from_the_pair(self, lam, mu):
        ks = np.array([0.0, 0.5, 1.0, 2.0])
        params = dataclasses.replace(PARAMS, lam=lam)
        prof = SwitchingProfile(mu)
        bog = bogoliubov(solve_modes(ks, prof, params))
        i_sq, i_abs = switch_integrals(ks, prof, params)
        assert np.abs(i_sq).min() >= 10.0 * self.ABS
        disp, delta = dispersion(ks, params), params.mass_shift
        el = disp.eps_lambda
        assert np.abs(i_sq - 2.0 * el * bog.a_plus * bog.a_minus / delta).max() <= self.ABS
        balance = 1.0 / (disp.eps + el) + 2.0 * el * np.abs(bog.a_minus) ** 2 / delta
        assert np.abs(i_abs - balance).max() <= self.ABS


class TestGridAgainstAdaptiveReference:
    """The step-map grid against scipy's adaptive DOP853, 1000x tighter."""

    @staticmethod
    def reference(k, prof, params, ts):
        eps = dispersion(k, params).eps
        shift = params.mass_shift

        def rhs(t, y):
            return [y[1], -(eps * eps + shift * chi_unit(t / prof.mu)) * y[0]]

        T0 = np.exp(1j * eps * prof.mu) / math.sqrt(2.0 * eps)
        sol = solve_ivp(rhs, (-prof.mu, 0.0), [T0, -1j * eps * T0], method="DOP853",
                        rtol=1e-13, atol=1e-15, dense_output=True)
        return sol.sol(ts)

    def test_tableau_transcription(self):
        # each stage row sums to its node, the order-8 weights to 1 and each
        # error row, a difference of two solutions' weights, to 0
        assert np.abs(modes._A[:-1].sum(axis=1) - modes._C).max() <= 4e-15
        assert abs(modes._A[-1].sum() - 1.0) <= 4e-15
        assert np.abs(modes._E.sum(axis=1)).max() <= 4e-15

    @pytest.mark.parametrize("lam", [-0.3, 1e-4, 0.5])
    @pytest.mark.parametrize("mu", [1e-3, 0.5, 1.0, 1.5, 5.0, 40.0])
    def test_switching_integral_nodes_and_endpoint(self, mu, lam):
        # default tolerances: 1e-9 absolute on (T, Tdot) at every node the
        # switching integrals read and at t = 0; the tight path keeps every
        # Bogoliubov normalization below 1e-11
        params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=lam)
        prof = SwitchingProfile(mu)
        ks = np.array([0.0, 1.0, 3.0])
        traj = solve_modes(ks, prof, params)
        fastest = 2.0 * max(traj.eps.max(), traj.eps_lambda.max())
        nodes, _ = modes._panel_nodes(-mu, 0.0, fastest, min_panels=16)
        ts = np.append(nodes, 0.0)
        T, Td = traj.evaluate(ts)
        for i, k in enumerate(ks):
            T_ref, Td_ref = self.reference(k, prof, params, ts)
            assert np.abs(T[i] - T_ref).max() <= 1e-9
            assert np.abs(Td[i] - Td_ref).max() <= 1e-9
        tight = solve_modes(ks, prof, params, rtol=1e-12, atol=1e-14)
        assert np.max(bogoliubov(tight).normalization_residual) <= 1e-11


class TestSwitchIntegrals:
    def test_free_case(self):
        # |T|^2 = 1/(2 eps) and the rate integrates to 1
        prof = SwitchingProfile(2.0)
        i_sq, i_abs = switch_integrals(1.0, prof, FREE)
        d = dispersion(1.0, FREE)
        assert i_abs == pytest.approx(1.0 / (2.0 * d.eps), abs=1e-9)
        assert i_abs == pytest.approx(1.0 / (d.eps + d.eps_lambda), abs=1e-9)

    def test_converges_to_inverse_frequency_sum(self):
        d = dispersion(0.0, PARAMS)
        target = 1.0 / (d.eps + d.eps_lambda)
        gap_small = abs(switch_integrals(0.0, SwitchingProfile(5.0), PARAMS)[1] - target)
        gap_large = abs(switch_integrals(0.0, SwitchingProfile(20.0), PARAMS)[1] - target)
        assert gap_large < gap_small
        assert gap_large < 1e-2

    def test_square_integral_shrinks(self):
        small = abs(switch_integrals(0.0, SwitchingProfile(5.0), PARAMS)[0])
        large = abs(switch_integrals(0.0, SwitchingProfile(20.0), PARAMS)[0])
        assert large < small

    @staticmethod
    def tight_scalar_reference(k, prof):
        """The integrals of one momentum on a solve at rtol 1e-12, on the
        panels a scalar call lays for its own frequencies."""
        traj = solve_modes(k, prof, PARAMS, rtol=1e-12, atol=1e-14)
        d = dispersion(k, PARAMS)
        nodes, weights = modes._panel_nodes(-prof.mu, 0.0, 2.0 * max(d.eps, d.eps_lambda), min_panels=16)
        (T,), _ = traj.evaluate(nodes)
        w = weights * prof.rate(nodes)
        return complex((T * T) @ w), float(np.abs(T) ** 2 @ w)

    # measured worst: 4.5e-13, in I_sq at mu = 40, k = 0, lam = 0.5, on 16
    # panels of about one period each, and at most 9.9e-14 at any k > 0; the
    # rule of four panels per period read at most 6.0e-14 on this grid
    PANEL_ABS = 1e-12

    @pytest.mark.parametrize("lam", [-0.3, 0.1, 0.5, 0.6])
    @pytest.mark.parametrize("mu", [3.0, 5.0, 12.0, 40.0])
    def test_one_panel_per_period_against_eight(self, mu, lam):
        # the integrals of one solve on the panels switch_integrals lays, one
        # per period of T^2 at twice the larger of eps and eps_lambda (which
        # is eps for lam < 0), against eight times as many panels on the same
        # solve: what is left is the panel rule's own error
        params = dataclasses.replace(PARAMS, lam=lam)
        prof = SwitchingProfile(mu)
        for k in (0.0, 1.0, 1.6, 3.0):
            traj = solve_modes(k, prof, params)
            [((i_sq,), (i_abs,))] = modes._switch_integrals(traj)
            d = dispersion(k, params)
            fastest = 2.0 * max(d.eps, d.eps_lambda)
            nodes, weights = modes._panel_nodes(-mu, 0.0, 8.0 * fastest, min_panels=8 * 16)
            (T,), _ = traj.evaluate(nodes)
            w = weights * prof.rate(nodes)
            assert abs(i_sq - (T * T) @ w) <= self.PANEL_ABS, (k, abs(i_sq - (T * T) @ w))
            assert abs(i_abs - np.abs(T) ** 2 @ w) <= self.PANEL_ABS, (k, abs(i_abs - np.abs(T) ** 2 @ w))

    def test_panels_cover_the_faster_branch(self, monkeypatch):
        # for lam < 0 the ramp starts at eps > eps_lambda: the panels are
        # sized by eps, one per period of T^2, and at least 16
        params = dataclasses.replace(PARAMS, lam=-0.3)
        prof = SwitchingProfile(40.0)
        laid = []
        original = modes._panel_nodes

        def recording(a, b, max_freq, min_panels=4):
            laid.append((max_freq, min_panels))
            return original(a, b, max_freq, min_panels)

        monkeypatch.setattr(modes, "_panel_nodes", recording)
        switch_integrals(np.array([0.0, 1.0]), prof, params)
        d = dispersion(1.0, params)
        assert d.eps > d.eps_lambda
        assert laid == [(2.0 * d.eps, 16)]
        nodes, _ = original(-prof.mu, 0.0, 2.0 * d.eps, 16)
        assert nodes.size == modes._GL_ORDER * math.ceil(prof.mu * 2.0 * d.eps / (2.0 * np.pi))

    def test_rate_at_the_ramp_ends_signals_no_underflow(self):
        # the rate at panel nodes next to the ramp's ends
        with np.errstate(all="raise"):
            i_sq, i_abs = switch_integrals(np.array([0.5, 1.0]), SwitchingProfile(5.0), PARAMS)
        assert np.all(np.isfinite(i_sq)) and np.all(np.isfinite(i_abs))

    def test_batch_matches_scalar_calls(self):
        # one batched solve per mu at the default tolerances against one
        # scalar reference per momentum; agreement to 1e-9 absolute on both
        # integrals.  The reference is solved 100x tighter: at the default
        # rtol a scalar call is itself ~1e-9 off at mu = 2, k = 1
        ks = np.array([0.0, 0.4, 1.0, 2.5])
        for mu in (2.0, 20.0):
            prof = SwitchingProfile(mu)
            i_sq, i_abs = switch_integrals(ks, prof, PARAMS)
            assert i_sq.shape == i_abs.shape == ks.shape
            for k, b_sq, b_abs in zip(ks, i_sq, i_abs):
                s_sq, s_abs = self.tight_scalar_reference(float(k), prof)
                assert abs(b_sq - s_sq) <= 1e-9
                assert abs(b_abs - s_abs) <= 1e-9


class TestBogoliubov:
    def test_free_case(self):
        traj = solve_modes(0.0, SwitchingProfile(1.0), FREE)
        b = bogoliubov(traj)
        assert abs(b.a_plus - 1.0) < 1e-9
        assert abs(b.a_minus) < 1e-9

    @pytest.mark.parametrize("k", [0.0, 0.7, 2.0])
    def test_normalization(self, k):
        traj = solve_modes(k, SwitchingProfile(1.0), PARAMS)
        assert bogoliubov(traj).normalization_residual <= 1e-8

    def test_pair_reproduces_the_mode_after_the_switch(self):
        # the pair read at the t = 0 node, continued as
        # (a_plus e^{-i el t} + a_minus e^{+i el t}) / sqrt(2 el), against
        # the trajectory's own evaluation at later times
        ks = np.array([0.0, 0.5, 1.0, 2.5])
        traj = solve_modes(ks, SwitchingProfile(1.0), PARAMS)
        b = bogoliubov(traj)
        assert b.a_plus.shape == b.a_minus.shape == ks.shape
        ts = np.array([0.5, 1.0, 3.0])
        el = dispersion(ks, PARAMS).eps_lambda[:, None]
        continued = (
            b.a_plus[:, None] * np.exp(-1j * el * ts) + b.a_minus[:, None] * np.exp(1j * el * ts)
        ) / np.sqrt(2.0 * el)
        T, _ = traj.evaluate(ts)
        assert np.abs(continued - T).max() <= 1e-12

    def test_sudden_oracle(self):
        # matching the plane wave across an instantaneous jump by hand
        d = dispersion(0.0, PARAMS)
        r = math.sqrt(d.eps_lambda / d.eps)
        expected_plus = (r + 1.0 / r) / 2.0
        expected_minus = (r - 1.0 / r) / 2.0
        oracle = sudden_quench_pair(0.0, PARAMS)
        assert oracle.a_plus == pytest.approx(expected_plus, rel=1e-15)
        assert oracle.a_minus == pytest.approx(expected_minus, rel=1e-15)

        traj = solve_modes(0.0, SwitchingProfile(1e-3), PARAMS, rtol=1e-12, atol=1e-14)
        b = bogoliubov(traj)
        assert abs(b.a_plus - expected_plus) <= 1e-3
        assert abs(b.a_minus - expected_minus) <= 1e-3


class TestErgodicAverages:
    # measured worst: 2.8e-14; one panel per period, which the switching
    # integrals lay over their floor of 16, reads 6.1e-10 and 1.1e-9 here
    STRETCH_ABS = 1e-11

    @pytest.mark.parametrize("lam", [-0.3, 0.5])
    def test_ramp_stretch_resolves_a_short_switch(self, lam):
        # horizon = tau_min: the whole average is the quadrature of the
        # stretch, which holds the ramp [-1, 0] for both arguments; against
        # eight times its panels on the same solve
        params = dataclasses.replace(PARAMS, lam=lam)
        prof, ks, (t1, t2, horizon) = SwitchingProfile(1.0), np.array([0.0, 0.5, 1.3, 3.0]), (-8.0, -2.0, 8.0)
        got = ergodic_averages(ks, prof, params, t1, t2, horizon=horizon)
        traj = solve_modes(ks, prof, params)
        fastest = 2.0 * max(traj.eps.max(), traj.eps_lambda.max())
        nodes, weights = modes._panel_nodes(0.0, horizon, 8.0 * 4.0 * fastest)
        Ta, _ = traj.evaluate(t1 + nodes)
        Tb, _ = traj.evaluate(t2 + nodes)
        for avg, ref in zip(got, ((Ta * Tb) @ weights, (Ta * np.conj(Tb)) @ weights)):
            assert np.abs(avg * horizon - ref).max() <= self.STRETCH_ABS

    def test_free_case_coincident_times(self):
        avg_tt, avg_ttbar = ergodic_averages(0.0, SwitchingProfile(1.0), FREE, 0.0, 0.0, horizon=400.0)
        assert abs(avg_ttbar - 0.5) < 1e-9  # |T|^2 = 1/(2 eps) with eps = 1
        assert abs(avg_tt) < 2e-3  # oscillatory mean, O(1/horizon)

    def test_limits_match_closed_forms(self):
        traj = solve_modes(0.0, SwitchingProfile(1.0), PARAMS)
        bog = bogoliubov(traj)
        el = dispersion(0.0, PARAMS).eps_lambda
        t1, t2 = 0.5, -0.25
        lim_tt, lim_ttbar = ergodic_limits(bog, el, t1, t2)

        dt = t1 - t2
        exp_tt = bog.a_plus * bog.a_minus * 2.0 * math.cos(el * dt) / (2.0 * el)
        exp_ttbar = (
            abs(bog.a_plus) ** 2 * np.exp(-1j * el * dt)
            + abs(bog.a_minus) ** 2 * np.exp(1j * el * dt)
        ) / (2.0 * el)
        assert lim_tt == pytest.approx(exp_tt, rel=1e-12)
        assert lim_ttbar == pytest.approx(exp_ttbar, rel=1e-12)

    def test_one_over_horizon_envelope(self):
        traj = solve_modes(0.0, SwitchingProfile(1.0), PARAMS)
        bog = bogoliubov(traj)
        lim_tt, lim_ttbar = ergodic_limits(bog, dispersion(0.0, PARAMS).eps_lambda, 0.5, -0.25)
        for horizon in (100.0, 1000.0, 10000.0):
            att, attb = ergodic_averages(
                0.0, SwitchingProfile(1.0), PARAMS, 0.5, -0.25, horizon=horizon
            )
            err = abs(att - lim_tt) + abs(attb - lim_ttbar)
            assert err <= 1.0 / horizon

    def test_matches_direct_quadrature(self):
        prof = SwitchingProfile(1.0)
        t1, t2, horizon = 0.3, -0.6, 40.0
        traj = solve_modes(0.5, prof, PARAMS)
        tau = np.linspace(0.0, horizon, 200001)
        Ta, _ = traj.evaluate(t1 + tau)
        Tb, _ = traj.evaluate(t2 + tau)
        brute_tt = np.trapezoid(Ta * Tb, tau) / horizon
        brute_ttbar = np.trapezoid(Ta * np.conj(Tb), tau) / horizon
        att, attb = ergodic_averages(0.5, prof, PARAMS, t1, t2, horizon=horizon)
        assert abs(att - brute_tt) < 1e-7
        assert abs(attb - brute_ttbar) < 1e-7

    @pytest.mark.parametrize(
        "t1, t2, horizon",
        [(0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, math.nan), (0.0, 0.0, math.inf),
         (0.0, 0.0, -math.inf), (math.inf, 0.0, 10.0), (-math.inf, 0.0, 10.0),
         (math.nan, 0.0, 10.0), (0.0, math.nan, 10.0), (0.0, -math.inf, 10.0)],
        ids=["horizon-zero", "horizon-negative", "horizon-nan", "horizon-inf", "horizon-minus-inf",
             "t1-inf", "t1-minus-inf", "t1-nan", "t2-nan", "t2-minus-inf"],
    )
    def test_invalid_horizon(self, t1, t2, horizon):
        # refused up front, before any solve and without a RuntimeWarning
        with np.errstate(all="raise"), pytest.raises(ValueError, match="finite"):
            ergodic_averages(0.0, SwitchingProfile(1.0), PARAMS, t1, t2, horizon=horizon)

    @pytest.mark.parametrize("t1, t2", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)],
                             ids=["t1-nan", "t1-inf", "t2-minus-inf"])
    def test_limits_refuse_non_finite_times(self, t1, t2):
        # not a NaN limit or a RuntimeWarning: refused as ergodic_averages refuses
        bog = sudden_quench_pair(0.0, PARAMS)
        el = dispersion(0.0, PARAMS).eps_lambda
        with np.errstate(all="raise"), pytest.raises(ValueError, match="finite"):
            ergodic_limits(bog, el, t1, t2)

    def test_limits_keep_every_momentum_of_mixed_inputs(self):
        # three k = 0 pairs (one eps_lambda) from three switching scales
        el = float(dispersion(0.0, PARAMS).eps_lambda)
        pairs = [bogoliubov(solve_modes(0.0, SwitchingProfile(mu), PARAMS))
                 for mu in (1.0, 2.0, 5.0)]
        batch = BogoliubovPair(np.concatenate([p.a_plus for p in pairs]),
                               np.concatenate([p.a_minus for p in pairs]))
        lim_tt, lim_ttbar = ergodic_limits(batch, el, 0.5, -0.25)
        assert lim_tt.shape == lim_ttbar.shape == (3,)
        # each against its batch of one: equal to rounding
        for i, one in enumerate(pairs):
            (s_tt,), (s_ttbar,) = ergodic_limits(one, el, 0.5, -0.25)
            assert abs(lim_tt[i] - s_tt) <= 1e-15 and abs(lim_ttbar[i] - s_ttbar) <= 1e-15
        # and a pair of one momentum against a momentum array of eps_lambda
        els = np.array([el, 2.0 * el])
        lim_tt, lim_ttbar = ergodic_limits(pairs[0], els, 0.5, -0.25)
        assert lim_tt.shape == lim_ttbar.shape == (2,)
        for i, e in enumerate(els):
            (s_tt,), (s_ttbar,) = ergodic_limits(pairs[0], float(e), 0.5, -0.25)
            assert abs(lim_tt[i] - s_tt) <= 1e-15 and abs(lim_ttbar[i] - s_ttbar) <= 1e-15

    @staticmethod
    def hand_expanded(k, prof, params, t1, t2, horizon):
        """The averages and limits with the eight post-switch terms written
        out by hand, one scalar momentum at a time, as the library wrote them
        before the product terms were factored out."""
        tau_min = max(0.0, -t1, -t2)
        cut = min(tau_min, horizon)
        traj = solve_modes(k, prof, params)
        d = dispersion(k, params)
        eps, el = d.eps, d.eps_lambda
        bog = bogoliubov(traj)
        (ap,), (am,) = bog.a_plus, bog.a_minus
        dt, st = t1 - t2, t1 + t2
        phase_m, phase_p = np.exp(-1j * el * dt), np.exp(1j * el * dt)
        lim_tt = ap * am * (phase_m + phase_p) / (2.0 * el)
        lim_ttbar = (abs(ap) ** 2 * phase_m + abs(am) ** 2 * phase_p) / (2.0 * el)
        int_tt = int_ttbar = 0.0 + 0.0j
        if cut > 0.0:
            nodes, weights = modes._panel_nodes(0.0, cut, 8.0 * max(eps, el))
            (Ta,), _ = traj.evaluate(t1 + nodes)
            (Tb,), _ = traj.evaluate(t2 + nodes)
            int_tt += np.sum(weights * Ta * Tb)
            int_ttbar += np.sum(weights * Ta * np.conj(Tb))
        if horizon > tau_min:
            a, b = tau_min, horizon

            def osc(freq):
                return (np.exp(1j * freq * b) - np.exp(1j * freq * a)) / (1j * freq)

            int_tt += (
                ap * ap * np.exp(-1j * el * st) * osc(-2.0 * el)
                + am * am * np.exp(1j * el * st) * osc(2.0 * el)
                + ap * am * (phase_m + phase_p) * (b - a)
            ) / (2.0 * el)
            int_ttbar += (
                abs(ap) ** 2 * phase_m * (b - a)
                + abs(am) ** 2 * phase_p * (b - a)
                + ap * np.conj(am) * np.exp(-1j * el * st) * osc(-2.0 * el)
                + np.conj(ap) * am * np.exp(1j * el * st) * osc(2.0 * el)
            ) / (2.0 * el)
        return (int_tt / horizon, int_ttbar / horizon), (lim_tt, lim_ttbar), bog, el

    def test_scalar_calls_match_hand_expanded_terms(self):
        # tau_min = max(0, -t1, -t2) inside [0, horizon], at 0, and beyond
        # it (the whole average on the ramp); agreement to 1e-15 absolute
        cases = [(0.5, -0.25, 100.0), (0.3, -0.6, 40.0), (0.0, 0.0, 10.0),
                 (-3.0, 0.2, 50.0), (-3.0, -1.0, 2.0)]
        for k in (0.0, 0.5, 2.0):
            for mu in (1.0, 5.0):
                prof = SwitchingProfile(mu)
                for t1, t2, horizon in cases:
                    avg, lim, bog, el = self.hand_expanded(k, prof, PARAMS, t1, t2, horizon)
                    got = ergodic_averages(k, prof, PARAMS, t1, t2, horizon=horizon)
                    got_lim = ergodic_limits(bog, el, t1, t2)
                    for new, old in zip(got + got_lim, avg + lim):
                        assert new.shape == (1,)
                        assert abs(new[0] - old) <= 1e-15

    def test_batch_matches_scalar_calls(self):
        # one batched solve, on quadrature panels sized by the batch's
        # largest frequency, against one scalar call per momentum
        ks = np.array([0.0, 0.5, 2.0])
        prof = SwitchingProfile(5.0)
        for t1, t2, horizon in ((0.5, -0.25, 100.0), (-3.0, 0.2, 50.0), (-3.0, -1.0, 2.0)):
            avg_tt, avg_ttbar = ergodic_averages(ks, prof, PARAMS, t1, t2, horizon=horizon)
            assert avg_tt.shape == avg_ttbar.shape == ks.shape
            traj = solve_modes(ks, prof, PARAMS)
            lim_tt, lim_ttbar = ergodic_limits(bogoliubov(traj), traj.eps_lambda, t1, t2)
            assert lim_tt.shape == lim_ttbar.shape == ks.shape
            for i, k in enumerate(ks):
                (s_tt,), (s_ttbar,) = ergodic_averages(float(k), prof, PARAMS, t1, t2,
                                                       horizon=horizon)
                assert abs(avg_tt[i] - s_tt) <= 1e-9
                assert abs(avg_ttbar[i] - s_ttbar) <= 1e-9
                one = solve_modes(float(k), prof, PARAMS)
                (l_tt,), (l_ttbar,) = ergodic_limits(bogoliubov(one), one.eps_lambda, t1, t2)
                assert abs(lim_tt[i] - l_tt) <= 1e-9
                assert abs(lim_ttbar[i] - l_ttbar) <= 1e-9


class TestBogoliubovPair:
    def test_normalization_residual(self):
        assert BogoliubovPair(1.0 + 0j, 0j).normalization_residual == 0.0
        assert BogoliubovPair(2.0 + 0j, 0j).normalization_residual == pytest.approx(3.0)


class TestBatchOfOne:
    """A scalar momentum is the batch of one: every reader of a solve gives
    it one row or one entry, as it gives every momentum of an array."""

    def test_every_reader_returns_one_entry(self):
        k, prof, (t1, t2) = 0.7, SwitchingProfile(2.0), (0.5, -0.25)
        traj = solve_modes(k, prof, PARAMS)
        assert traj.k_mag.shape == traj.eps.shape == traj.eps_lambda.shape == (1,)
        assert traj.y.shape == (2, 2, traj.t.size, 1)
        for t, shape in ((0.5, (1, 1)), ([-3.0, -1.0, 2.0], (1, 3))):
            T, Td = traj.evaluate(t)
            assert T.shape == Td.shape == shape
        bog = bogoliubov(traj)
        readers = {
            "bogoliubov": (bog.a_plus, bog.a_minus),
            "switch_integrals": switch_integrals(k, prof, PARAMS),
            "ergodic_averages": ergodic_averages(k, prof, PARAMS, t1, t2, horizon=10.0),
            "ergodic_limits": ergodic_limits(bog, traj.eps_lambda, t1, t2),
            "ergodic_limits-scalars": ergodic_limits(
                sudden_quench_pair(k, PARAMS), dispersion(k, PARAMS).eps_lambda, t1, t2),
        }
        for name, values in readers.items():
            assert [np.shape(v) for v in values] == [(1,), (1,)], name
