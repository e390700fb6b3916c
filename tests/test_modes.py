import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from thermalquench import modes
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
    time_frequency,
    wkb_mode,
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

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            SwitchingProfile(mu=0.0)


class TestTimeFrequency:
    def test_plateaus(self):
        prof = SwitchingProfile(mu=2.0)
        d = dispersion(0.3, PARAMS)
        assert time_frequency(0.3, -5.0, prof, PARAMS) == pytest.approx(d.eps, abs=0.0)
        assert time_frequency(0.3, 0.5, prof, PARAMS) == pytest.approx(d.eps_lambda, rel=1e-15)

    def test_free_case_flat(self):
        prof = SwitchingProfile(mu=2.0)
        ts = np.linspace(-3.0, 1.0, 50)
        assert np.allclose(time_frequency(1.0, ts, prof, FREE), math.sqrt(2.0))


class TestSolveModes:
    def test_free_case_is_plane_wave(self):
        traj = solve_modes(0.0, SwitchingProfile(2.0), FREE, t_max=1.0)
        ts = np.linspace(-3.0, 1.0, 60)
        T, Td = traj.evaluate(ts)
        exact = np.exp(-1j * ts) / math.sqrt(2.0)
        assert np.abs(T - exact).max() < 1e-9
        assert np.abs(Td + 1j * exact).max() < 1e-9

    def test_wronskian_conserved(self):
        for mu in (1.0, 10.0):
            traj = solve_modes(1.0, SwitchingProfile(mu), PARAMS, t_max=1.0)
            assert traj.max_wronskian_residual <= 1e-8

    def test_plane_wave_before_the_switch(self):
        # the solved stretch [-mu-1, -mu] must still be the incoming wave
        traj = solve_modes(0.5, SwitchingProfile(4.0), PARAMS, t_max=1.0)
        ts = np.linspace(-5.0, -4.0, 30)
        T, _ = traj.evaluate(ts)
        eps = dispersion(0.5, PARAMS).eps
        exact = np.exp(-1j * eps * ts) / math.sqrt(2.0 * eps)
        assert np.abs(T - exact).max() < 1e-10

    def test_amplitude_bound(self):
        # sup |T| <= incoming amplitude (equality only in the sharp limit)
        for k, mu in ((0.0, 1.0), (1.0, 5.0), (0.0, 40.0)):
            traj = solve_modes(k, SwitchingProfile(mu), PARAMS, t_max=2.0)
            ts = np.linspace(-mu, 2.0, 1500)
            T, _ = traj.evaluate(ts)
            assert np.abs(T).max() <= (1.0 + 1e-6) / math.sqrt(2.0 * dispersion(k, PARAMS).eps)

    def test_flat_region_two_frequency_fit(self):
        # independent least-squares fit, not the matched extraction
        traj = solve_modes(0.0, SwitchingProfile(10.0), PARAMS, t_max=3.0)
        ts = np.linspace(0.0, 3.0, 120)
        T, _ = traj.evaluate(ts)
        el = dispersion(0.0, PARAMS).eps_lambda
        basis = np.stack([np.exp(-1j * el * ts), np.exp(1j * el * ts)], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, T, rcond=None)
        residual = np.abs(basis @ coeffs - T).max()
        assert residual < 1e-9

    def test_closed_form_after_switch_matches_direct_integration(self):
        # the solve stops at t = 0 and evaluate answers on (0, t_max] in
        # closed form; the reference integrates straight through to t = 3
        k, prof = 0.7, SwitchingProfile(2.0)
        traj = solve_modes(k, prof, PARAMS, t_max=3.0)
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

    def test_evaluate_beyond_solve_rejected(self):
        traj = solve_modes(0.0, SwitchingProfile(1.0), PARAMS, t_max=1.0)
        with pytest.raises(ValueError):
            traj.evaluate(2.0)

    def test_negative_t_max_rejected(self):
        with pytest.raises(ValueError):
            solve_modes(0.0, SwitchingProfile(1.0), PARAMS, t_max=-1.0)

    def test_sloppy_tolerances_fail_the_wronskian_gate(self):
        with pytest.raises(IntegratorError, match="Wronskian drift"):
            solve_modes(1.0, SwitchingProfile(40.0), PARAMS, t_max=1.0, rtol=1e-4, atol=1e-6)

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
    @pytest.mark.parametrize("mu", [1e-3, 1.0, 5.0, 40.0])
    def test_switching_integral_nodes_and_endpoint(self, mu, lam):
        # default tolerances: 1e-9 absolute on (T, Tdot) at every node the
        # switching integrals read and at t = 0; the tight path keeps every
        # Bogoliubov normalization below 1e-11
        params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=lam)
        prof = SwitchingProfile(mu)
        ks = np.array([0.0, 1.0, 3.0])
        traj = solve_modes(ks, prof, params, t_max=0.0)
        nodes, _ = modes._panel_nodes(-mu, 0.0, 2.0 * np.max(traj.eps_lambda), min_panels=16)
        ts = np.append(nodes, 0.0)
        T, Td = traj.evaluate(ts)
        for i, k in enumerate(ks):
            T_ref, Td_ref = self.reference(k, prof, params, ts)
            assert np.abs(T[i] - T_ref).max() <= 1e-9
            assert np.abs(Td[i] - Td_ref).max() <= 1e-9
        tight = solve_modes(ks, prof, params, t_max=0.0, rtol=1e-12, atol=1e-14)
        assert np.max(bogoliubov(tight).normalization_residual) <= 1e-11


class TestWkbMode:
    @staticmethod
    def reference(k, prof, params, t0, ts):
        """The comparison mode with its ramp phase by scipy's adaptive quad,
        as tight as quad goes, one call per stretch between consecutive ramp
        times of the sorted ``ts`` (which start at or before -mu)."""
        d = dispersion(k, params)
        knots = np.clip(ts, -prof.mu, 0.0)
        stretches = [
            quad(lambda s: float(time_frequency(k, s, prof, params)), a, b,
                 epsabs=0.0, epsrel=1.2e-14, limit=200)[0] if b > a else 0.0
            for a, b in zip(knots[:-1], knots[1:])
        ]
        phase = (
            d.eps * (np.minimum(ts, -prof.mu) - t0)
            + np.concatenate(([0.0], np.cumsum(stretches)))
            + d.eps_lambda * np.maximum(ts, 0.0)
        )
        return np.exp(-1j * phase) / np.sqrt(2.0 * time_frequency(k, ts, prof, params))

    @pytest.mark.parametrize("mu", [1e-3, 1.0, 5.0, 40.0])
    @pytest.mark.parametrize("k", [0.0, 1.0, 3.0])
    def test_panels_match_adaptive_reference(self, k, mu):
        # from t0 through 32 stretches of the ramp to t = 5
        prof = SwitchingProfile(mu)
        t0 = -mu - 1.0
        ts = np.concatenate((np.linspace(t0, -mu, 3)[:-1], np.linspace(-mu, 0.0, 33),
                             np.linspace(0.0, 5.0, 6)[1:]))
        Ta = wkb_mode(k, ts, prof, PARAMS, t0=t0)
        assert np.abs(Ta - self.reference(k, prof, PARAMS, t0, ts)).max() <= 1e-12

    def test_scalar_time(self):
        prof = SwitchingProfile(5.0)
        Ta = wkb_mode(1.0, -1.7, prof, PARAMS, t0=-6.0)
        assert isinstance(Ta, complex)
        ref = self.reference(1.0, prof, PARAMS, -6.0, np.array([-6.0, -1.7]))[-1]
        assert abs(Ta - ref) <= 1e-12

    def test_modulus_law(self):
        prof = SwitchingProfile(4.0)
        ts = np.linspace(-6.0, 1.0, 80)
        Ta = wkb_mode(1.0, ts, prof, PARAMS, t0=-5.0)
        expected = 1.0 / np.sqrt(2.0 * time_frequency(1.0, ts, prof, PARAMS))
        assert np.abs(np.abs(Ta) - expected).max() < 1e-12

    def test_free_case_plane_wave(self):
        prof = SwitchingProfile(2.0)
        t0 = -3.0
        ts = np.linspace(-3.0, 2.0, 40)
        Ta = wkb_mode(1.0, ts, prof, FREE, t0=t0)
        eps = math.sqrt(2.0)
        exact = np.exp(-1j * eps * (ts - t0)) / math.sqrt(2.0 * eps)
        assert np.abs(Ta - exact).max() < 1e-11

    def test_t0_inside_switch_rejected(self):
        with pytest.raises(ValueError):
            wkb_mode(1.0, 0.0, SwitchingProfile(2.0), PARAMS, t0=-1.0)

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_uniform_closeness_improves_with_mu(self, k):
        # the auxiliary mode carries phase 1 at t0 while the solved mode
        # carries exp(-i*eps*t0) there; align that constant before comparing
        eps = dispersion(k, PARAMS).eps
        sups = []
        for mu in (5.0, 10.0, 20.0):
            prof = SwitchingProfile(mu)
            t0 = -mu - 1.0
            traj = solve_modes(k, prof, PARAMS, t_max=1.0)
            ts = np.linspace(t0, 1.0, 300)
            T, _ = traj.evaluate(ts)
            Ta = wkb_mode(k, ts, prof, PARAMS, t0=t0)
            sups.append(np.abs(T - np.exp(-1j * eps * t0) * Ta).max())
        assert sups[0] > sups[1] > sups[2]
        assert sups[-1] < 5e-3


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
        panels a scalar call lays for its own eps_lambda."""
        traj = solve_modes(k, prof, PARAMS, t_max=0.0, rtol=1e-12, atol=1e-14)
        el = dispersion(k, PARAMS).eps_lambda
        nodes, weights = modes._panel_nodes(-prof.mu, 0.0, 2.0 * el, min_panels=16)
        T, _ = traj.evaluate(nodes)
        w = weights * prof.rate(nodes)
        return complex((T * T) @ w), float(np.abs(T) ** 2 @ w)

    def test_scalar_call_gives_numbers(self):
        i_sq, i_abs = switch_integrals(1.0, SwitchingProfile(2.0), PARAMS)
        assert type(i_sq) is complex and type(i_abs) is float

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
        traj = solve_modes(0.0, SwitchingProfile(1.0), FREE, t_max=1.5)
        b = bogoliubov(traj)
        assert abs(b.a_plus - 1.0) < 1e-9
        assert abs(b.a_minus) < 1e-9

    @pytest.mark.parametrize("k", [0.0, 0.7, 2.0])
    def test_normalization(self, k):
        traj = solve_modes(k, SwitchingProfile(1.0), PARAMS, t_max=1.5)
        assert bogoliubov(traj).normalization_residual <= 1e-8

    def test_pair_reproduces_the_mode_after_the_switch(self):
        # the pair read at the t = 0 node, continued as
        # (a_plus e^{-i el t} + a_minus e^{+i el t}) / sqrt(2 el), against
        # the trajectory's own evaluation at later times
        ks = np.array([0.0, 0.5, 1.0, 2.5])
        traj = solve_modes(ks, SwitchingProfile(1.0), PARAMS, t_max=3.0)
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

        traj = solve_modes(
            0.0, SwitchingProfile(1e-3), PARAMS, t_max=0.1,
            rtol=1e-12, atol=1e-14, method="DOP853",
        )
        b = bogoliubov(traj)
        assert abs(b.a_plus - expected_plus) <= 1e-3
        assert abs(b.a_minus - expected_minus) <= 1e-3


class TestErgodicAverages:
    def test_free_case_coincident_times(self):
        avg_tt, avg_ttbar = ergodic_averages(0.0, SwitchingProfile(1.0), FREE, 0.0, 0.0, horizon=400.0)
        assert abs(avg_ttbar - 0.5) < 1e-9  # |T|^2 = 1/(2 eps) with eps = 1
        assert abs(avg_tt) < 2e-3  # oscillatory mean, O(1/horizon)

    def test_limits_match_closed_forms(self):
        traj = solve_modes(0.0, SwitchingProfile(1.0), PARAMS, t_max=2.0)
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
        traj = solve_modes(0.0, SwitchingProfile(1.0), PARAMS, t_max=2.0)
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
        traj = solve_modes(0.5, prof, PARAMS, t_max=horizon + t1 + 1.0)
        tau = np.linspace(0.0, horizon, 200001)
        Ta, _ = traj.evaluate(t1 + tau)
        Tb, _ = traj.evaluate(t2 + tau)
        brute_tt = np.trapezoid(Ta * Tb, tau) / horizon
        brute_ttbar = np.trapezoid(Ta * np.conj(Tb), tau) / horizon
        att, attb = ergodic_averages(0.5, prof, PARAMS, t1, t2, horizon=horizon)
        assert abs(att - brute_tt) < 1e-7
        assert abs(attb - brute_ttbar) < 1e-7

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            ergodic_averages(0.0, SwitchingProfile(1.0), PARAMS, 0.0, 0.0, horizon=0.0)


class TestBogoliubovPair:
    def test_normalization_residual(self):
        assert BogoliubovPair(1.0 + 0j, 0j).normalization_residual == 0.0
        assert BogoliubovPair(2.0 + 0j, 0j).normalization_residual == pytest.approx(3.0)
