import math

import numpy as np
import pytest
from scipy.integrate import quad

from thermalquench import modes
from thermalquench.modes import BogoliubovPair, IntegratorError, SwitchingProfile, solve_modes
from thermalquench.spectral import TestPacket as Packet
from thermalquench.spectral import (
    TAIL_SIGMAS,
    TIME_SIGMAS,
    QuadratureSpec,
    SpectralState,
    _gauss_legendre,
    adiabatic,
    adiabatic_classical,
    free_kms,
    ness_classical,
    pair,
    pair_finite_mu,
    pair_report,
)
from thermalquench.thermal import ThermalParams, bose_coefficient, dispersion, shifted_beta

PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)
FREE = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.0)
F = Packet(k_center=1.0, k_width=0.5, t_center=2.0, t_width=0.3)
G = Packet(k_center=1.0, k_width=0.5, t_center=2.5, t_width=0.3)
QUAD = QuadratureSpec()
K_GRID = np.linspace(0.01, 6.0, 25)


class TestPacketData:
    def test_temporal_hat_against_quadrature(self):
        # independent numerical Fourier transform at a few frequencies
        p = Packet(k_center=1.0, k_width=0.5, t_center=0.7, t_width=0.4)
        for omega in (-2.0, 0.0, 1.3):
            re, _ = quad(lambda t: math.cos(omega * t) * p.temporal(t), -6.0, 6.0, limit=300)
            im, _ = quad(lambda t: -math.sin(omega * t) * p.temporal(t), -6.0, 6.0, limit=300)
            assert p.temporal_hat(omega) == pytest.approx(re + 1j * im, abs=1e-12)

    def test_symmetric_in_momentum_sign(self):
        p = Packet(k_center=1.0, k_width=0.5)
        assert p.spatial(0.3) == p.spatial(0.3)  # radial data: only |k| enters

    def test_invalid(self):
        with pytest.raises(ValueError):
            Packet(k_center=-1.0, k_width=0.5)
        with pytest.raises(ValueError):
            Packet(k_width=0.0)
        # the profiles divide by the squared widths
        for field in ("k_width", "t_width"):
            with pytest.raises(ValueError, match="positive squares"):
                Packet(**{field: 1e-300})

    @pytest.mark.parametrize("field", ["k_center", "k_width", "t_center", "t_width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            Packet(**{field: value})


class TestQuadratureRules:
    """The cached Gauss-Legendre rule against numpy's, computed afresh."""

    @pytest.mark.parametrize("n", [1, 7, 64, 512])
    def test_rules_equal_uncached_leggauss(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        quad = QuadratureSpec(n_radial=n, n_time=n)
        k_max = max(p.k_center + TAIL_SIGMAS * p.k_width for p in (F, G))
        nodes, weights = quad.radial_rule(F, G)
        np.testing.assert_array_equal(nodes, 0.5 * k_max * (x + 1.0))
        np.testing.assert_array_equal(weights, 0.5 * k_max * w)
        lo, hi = F.time_support(TIME_SIGMAS)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        t, wt = quad.time_rule(F)
        np.testing.assert_array_equal(t, mid + half * x)
        np.testing.assert_array_equal(wt, half * w)

    def test_cached_rule_is_read_only(self):
        x, w = _gauss_legendre(7)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_returned_rule_is_a_fresh_array(self):
        nodes, weights = QuadratureSpec(n_radial=7).radial_rule(F, G)
        nodes[0] = weights[0] = -1.0  # writable, and the cache is untouched
        assert QuadratureSpec(n_radial=7).radial_rule(F, G)[0][0] > 0.0


class TestStateConstructors:
    def test_free_kms_coefficients(self):
        state = free_kms(PARAMS)
        eps = dispersion(K_GRID, PARAMS).eps
        assert np.allclose(state.c_plus(K_GRID), bose_coefficient(+1, 1.0, eps), rtol=0, atol=0)
        ratio = state.c_minus(K_GRID) / state.c_plus(K_GRID)
        assert np.abs(ratio - np.exp(-PARAMS.beta * eps)).max() < 1e-14

    def test_free_kms_ccr(self):
        assert np.abs(free_kms(PARAMS).ccr_residual(K_GRID)).max() <= 1e-14

    def test_cold_limit(self):
        cold = free_kms(ThermalParams(beta=900.0, m_sq=1.0))
        assert cold.c_plus(np.array([0.5])) == pytest.approx(1.0)
        assert cold.c_minus(np.array([0.5])) == pytest.approx(0.0, abs=1e-300)

    def test_adiabatic_classical_free_collapse(self):
        a = adiabatic_classical(FREE)
        b = free_kms(FREE)
        assert np.allclose(a.c_plus(K_GRID), b.c_plus(K_GRID))
        assert a.branch_frequency(K_GRID) == pytest.approx(b.branch_frequency(K_GRID))

    def test_adiabatic_classical_is_not_shifted_thermal(self):
        a = adiabatic_classical(PARAMS)
        b = adiabatic(PARAMS)
        assert np.abs(a.c_plus(K_GRID) - b.c_plus(K_GRID)).min() > 0.0

    def test_adiabatic_detailed_balance(self):
        state = adiabatic(PARAMS)
        el = dispersion(K_GRID, PARAMS).eps_lambda
        ratio = state.c_minus(K_GRID) / state.c_plus(K_GRID)
        assert np.abs(ratio - np.exp(-PARAMS.beta * el)).max() < 1e-14

    def test_adiabatic_equals_temperature_shifted_coefficients(self):
        state = adiabatic(PARAMS)
        for k in K_GRID[:10]:
            d = dispersion(float(k), PARAMS)
            bps = shifted_beta(PARAMS, d)
            assert state.c_plus(np.array([k]))[0] == pytest.approx(
                bose_coefficient(+1, bps, d.eps), abs=1e-12
            )

    def test_two_construction_routes_one_state(self):
        # shifted-branch thermal state == free thermal state of the shifted theory
        shifted_mass = ThermalParams(
            beta=PARAMS.beta, m_sq=PARAMS.m_sq + PARAMS.mass_shift
        )
        via_series = adiabatic(PARAMS)
        via_mass = adiabatic_classical(shifted_mass)
        assert np.abs(via_series.c_plus(K_GRID) - via_mass.c_plus(K_GRID)).max() < 1e-14
        assert via_series.branch_frequency(K_GRID) == pytest.approx(
            via_mass.branch_frequency(K_GRID)
        )

    def test_positivity(self):
        for state in (free_kms(PARAMS), adiabatic_classical(PARAMS), adiabatic(PARAMS)):
            assert np.all(state.c_plus(K_GRID) + state.c_minus(K_GRID) >= 0.0)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            SpectralState("sideways", lambda k: k, lambda k: k, "bad", PARAMS)


class TestNessClassical:
    def test_ccr_exact_identity(self):
        state = ness_classical(PARAMS, lambda k: BogoliubovPair(math.sqrt(2.0) + 0j, 1.0 + 0j))
        assert np.abs(state.ccr_residual(K_GRID)).max() <= 1e-12

    def test_no_production_limit(self):
        state = ness_classical(PARAMS, lambda k: BogoliubovPair(1.0 + 0j, 0j))
        ref = adiabatic_classical(PARAMS)
        assert np.abs(state.c_plus(K_GRID) - ref.c_plus(K_GRID)).max() == 0.0
        assert np.abs(state.c_minus(K_GRID) - ref.c_minus(K_GRID)).max() == 0.0

    def test_free_collapse(self):
        state = ness_classical(FREE, lambda k: BogoliubovPair(1.0 + 0j, 0j))
        ref = free_kms(FREE)
        assert np.allclose(state.c_plus(K_GRID), ref.c_plus(K_GRID))
        assert state.branch_frequency(1.0) == ref.branch_frequency(1.0)

    def test_unnormalized_pair_rejected(self):
        state = ness_classical(PARAMS, lambda k: BogoliubovPair(2.0 + 0j, 0j))
        with pytest.raises(ValueError):
            state.c_plus(np.array([1.0]))


class TestPair:
    def test_vacuum_diagonal_is_positive_real(self):
        vacuum = SpectralState(
            "free", lambda k: np.ones_like(k), lambda k: np.zeros_like(k), "vacuum", PARAMS
        )
        value = pair(vacuum, F, F, QUAD)
        assert abs(value.imag) < 1e-14 * abs(value.real)
        assert value.real > 0.0

    def test_antisymmetrized_part_is_state_independent(self):
        states = [
            free_kms(PARAMS),
            adiabatic_classical(PARAMS),
            adiabatic(PARAMS),
            ness_classical(PARAMS, lambda k: BogoliubovPair(math.sqrt(2.0) + 0j, 1.0 + 0j)),
        ]
        # states share a branch pairwise; compare within each branch group
        shifted = [s for s in states if s.branch == "shifted"]
        anti = [pair(s, F, G, QUAD) - pair(s, G, F, QUAD) for s in shifted]
        for a in anti[1:]:
            assert a == pytest.approx(anti[0], abs=1e-12)

    def test_swap_conjugates(self):
        val_fg = pair(adiabatic(PARAMS), F, G, QUAD)
        val_gf = pair(adiabatic(PARAMS), G, F, QUAD)
        assert val_gf == pytest.approx(np.conj(val_fg), rel=1e-13)

    def test_refinement_self_convergence(self):
        coarse = pair(adiabatic(PARAMS), F, G, QUAD)
        fine = pair(adiabatic(PARAMS), F, G, QUAD.refined())
        assert abs(fine - coarse) <= 1e-9

    def test_report_keys(self):
        rep = pair_report(adiabatic(PARAMS), F, G, QUAD)
        assert set(rep) == {"label", "value_re", "value_im", "refinement_delta", "node_count"}
        assert rep["refinement_delta"] <= 1e-9
        assert rep["node_count"] == 2 * QUAD.n_radial


class TestPairFiniteMu:
    def test_free_case_matches_spectral_route(self):
        direct = pair_finite_mu(SwitchingProfile(5.0), FREE, F, G, QUAD)
        spectral = pair(free_kms(FREE), F, G, QUAD)
        assert abs(direct - spectral) / abs(spectral) < 1e-8

    def test_hermitian_diagonal(self):
        value = pair_finite_mu(SwitchingProfile(5.0), PARAMS, F, F, QUAD)
        assert abs(value.imag) <= 1e-10 * abs(value.real)

    def test_slow_switch_ladder_shrinks(self):
        target = pair(adiabatic_classical(PARAMS), F, G, QUAD)
        gaps = [
            abs(pair_finite_mu(SwitchingProfile(mu), PARAMS, F, G, QUAD) - target) / abs(target)
            for mu in (5.0, 10.0)
        ]
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-2

    @pytest.mark.parametrize("mu", [5.0, 40.0])
    def test_batched_solve_matches_per_node_reference(self, mu):
        # the reference is one solve_modes per radial node, read by evaluate
        quad = QuadratureSpec(n_radial=10, n_time=40)
        prof = SwitchingProfile(mu)
        tf, wf = quad.time_rule(F)
        tg, wg = quad.time_rule(G)
        t_hi = max(tf.max(), tg.max())
        k_nodes, k_weights = quad.radial_rule(F, G)
        reference = 0.0 + 0.0j
        for k, wk in zip(k_nodes, k_weights):
            eps = dispersion(k, PARAMS).eps
            traj = solve_modes(k, prof, PARAMS, t_max=t_hi, method="DOP853")
            u_f = np.sum(wf * F.temporal(tf) * traj.evaluate(tf)[0])
            u_g = np.sum(wg * G.temporal(tg) * traj.evaluate(tg)[0])
            kernel = (
                bose_coefficient(+1, PARAMS.beta, eps) * u_f * np.conj(u_g)
                + bose_coefficient(-1, PARAMS.beta, eps) * np.conj(u_f) * u_g
            )
            reference += wk * 4.0 * np.pi * k * k * F.spatial(k) * G.spatial(k) * kernel
        batched = pair_finite_mu(prof, PARAMS, F, G, quad)
        assert abs(batched - reference) <= 1e-9 * abs(reference)

    def test_sloppy_tolerances_fail_the_wronskian_gate(self, monkeypatch):
        # a gate tighter than the default solve meets plays the part of a
        # solve too sloppy for the default gate
        monkeypatch.setattr(modes, "_WRONSKIAN_TOL", 1e-30)
        quad = QuadratureSpec(n_radial=8, n_time=40)
        with pytest.raises(IntegratorError, match="Wronskian drift"):
            pair_finite_mu(SwitchingProfile(40.0), PARAMS, F, G, quad)

    def test_packet_beyond_solve_rejected(self):
        # the temporal window is derived from the packets, so force a failure
        # by asking the trajectory for a time it cannot reach
        traj = solve_modes(1.0, SwitchingProfile(1.0), PARAMS, t_max=1.0)
        with pytest.raises(ValueError):
            traj.evaluate(F.time_support()[1])
