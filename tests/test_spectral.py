import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from thermalquench import cli, modes, spectral, verify
from thermalquench.config import default_config, load_config
from thermalquench.modes import (
    BogoliubovPair,
    IntegratorError,
    SwitchingProfile,
    bogoliubov,
    ergodic_limits,
    solve_modes,
    sudden_quench_pair,
)
from thermalquench.spectral import TestPacket as Packet
from thermalquench.spectral import (
    TAIL_SIGMAS,
    QuadratureSpec,
    SpectralState,
    adiabatic,
    adiabatic_classical,
    free_kms,
    ness_classical,
    pair,
    pair_finite_mu,
    pair_report,
    pairing_plan,
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
        lo, hi = F.time_support()
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        t, wt = quad.time_rule(F)
        np.testing.assert_array_equal(t, mid + half * x)
        np.testing.assert_array_equal(wt, half * w)

    def test_cached_rule_is_read_only(self):
        x, w = modes._gauss_legendre(7)
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

    @pytest.mark.parametrize("t1, t2", [(0.5, -0.25), (3.0, 1.0), (0.0, 0.0)])
    def test_ergodic_limit_is_the_steady_state_mode_by_mode(self, t1, t2):
        # the late-time average of T(t1+tau) conj(T(t2+tau)), L, mixed by the
        # free thermal coefficients b+-, is the steady state's two-point
        # function of each mode, (c+ e^(-i el dt) + c- e^(i el dt)) / (2 el):
        # the average drops the cross terms, and what stays is ness_classical
        ks = np.array([0.0, 0.5, 1.3, 3.0])
        traj = solve_modes(ks, SwitchingProfile(5.0), PARAMS)
        bog, el = bogoliubov(traj), traj.eps_lambda
        _, limit = ergodic_limits(bog, el, t1, t2)
        free, ness = free_kms(PARAMS), ness_classical(PARAMS, lambda k: bog)
        mixed = free.c_plus(ks) * limit + free.c_minus(ks) * np.conj(limit)
        dt = t1 - t2
        steady = (ness.c_plus(ks) * np.exp(-1j * el * dt)
                  + ness.c_minus(ks) * np.exp(1j * el * dt)) / (2.0 * el)
        assert np.all(np.abs(mixed - steady) <= 1e-14 * np.abs(steady))


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

    @pytest.mark.parametrize("n_radial", [64, 128])
    def test_shared_integrand_matches_the_written_out_sum(self, n_radial):
        def written_out(state, quad):
            # the radial integral spelled out, the weight applied last
            k, w = quad.radial_rule(F, G)
            omega = state.branch_frequency(k)
            plus = F.freq_component(omega, k) * G.freq_component(-omega, k)
            minus = F.freq_component(-omega, k) * G.freq_component(omega, k)
            integrand = (4.0 * np.pi * k * k) / (2.0 * omega) * (
                state.c_plus(k) * plus + state.c_minus(k) * minus
            )
            return complex(np.sum(w * integrand))

        quad = QuadratureSpec(n_radial=n_radial)
        states = [
            free_kms(PARAMS),
            adiabatic_classical(PARAMS),
            adiabatic(PARAMS),
            ness_classical(PARAMS, lambda k: sudden_quench_pair(k, PARAMS)),
        ]
        for state in states:
            expected = written_out(state, quad)
            assert abs(pair(state, F, G, quad) - expected) <= 1e-14 * abs(expected)

    def test_swap_conjugates(self):
        val_fg = pair(adiabatic(PARAMS), F, G, QUAD)
        val_gf = pair(adiabatic(PARAMS), G, F, QUAD)
        assert val_gf == pytest.approx(np.conj(val_fg), rel=1e-13)

    def test_refinement_self_convergence(self):
        coarse = pair(adiabatic(PARAMS), F, G, QUAD)
        fine = pair(adiabatic(PARAMS), F, G, QUAD.refined())
        assert abs(fine - coarse) <= 1e-9

    def test_report_keys(self):
        rep = pair_report(adiabatic(PARAMS), F, G, QUAD, pair(adiabatic(PARAMS), F, G, QUAD))
        assert set(rep) == {"label", "value_re", "value_im", "refinement_delta", "node_count"}
        assert rep["refinement_delta"] <= 1e-9
        assert rep["node_count"] == 2 * QUAD.n_radial


def _pair_at(prof, plan):
    """The finite-switch pairing of ``plan`` at the switch ``prof``, read
    from one ``solve_modes`` call on the plan's kept nodes."""
    return pair_finite_mu(solve_modes(plan.k, prof, plan.params), plan)


class TestPairFiniteMu:
    def test_free_case_matches_spectral_route(self):
        direct = _pair_at(SwitchingProfile(5.0), pairing_plan(FREE, F, G, QUAD))
        spectral = pair(free_kms(FREE), F, G, QUAD)
        assert abs(direct - spectral) / abs(spectral) < 1e-8

    def test_hermitian_diagonal(self):
        value = _pair_at(SwitchingProfile(5.0), pairing_plan(PARAMS, F, F, QUAD))
        assert abs(value.imag) <= 1e-10 * abs(value.real)

    def test_slow_switch_ladder_shrinks(self):
        target = pair(adiabatic_classical(PARAMS), F, G, QUAD)
        plan = pairing_plan(PARAMS, F, G, QUAD)
        gaps = [abs(_pair_at(SwitchingProfile(mu), plan) - target) / abs(target) for mu in (5.0, 10.0)]
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
            traj = solve_modes(k, prof, PARAMS)
            u_f = np.sum(wf * F.temporal(tf) * traj.evaluate(tf)[0])
            u_g = np.sum(wg * G.temporal(tg) * traj.evaluate(tg)[0])
            kernel = (
                bose_coefficient(+1, PARAMS.beta, eps) * u_f * np.conj(u_g)
                + bose_coefficient(-1, PARAMS.beta, eps) * np.conj(u_f) * u_g
            )
            reference += wk * 4.0 * np.pi * k * k * F.spatial(k) * G.spatial(k) * kernel
        batched = _pair_at(prof, pairing_plan(PARAMS, F, G, quad))
        assert abs(batched - reference) <= 1e-9 * abs(reference)

    def test_sloppy_tolerances_fail_the_wronskian_gate(self, monkeypatch):
        # a gate tighter than the default solve meets plays the part of a
        # solve too sloppy for the default gate
        monkeypatch.setattr(modes, "_WRONSKIAN_TOL", 1e-30)
        quad = QuadratureSpec(n_radial=8, n_time=40)
        with pytest.raises(IntegratorError, match="Wronskian drift"):
            _pair_at(SwitchingProfile(40.0), pairing_plan(PARAMS, F, G, quad))

    @pytest.mark.parametrize("other", ["momenta", "equal-momenta", "params", "equal-params"])
    def test_refuses_a_solve_of_other_nodes_or_params(self, other):
        # the trajectory must be a solve of the plan's very kept nodes on its
        # very params: an equal copy of either is refused too
        plan = pairing_plan(PARAMS, F, G, QUAD)
        ks, params = {
            "momenta": (plan.k[:-1], PARAMS),
            "equal-momenta": (plan.k.copy(), PARAMS),
            "params": (plan.k, FREE),
            "equal-params": (plan.k, dataclasses.replace(PARAMS)),
        }[other]
        traj = solve_modes(ks, SwitchingProfile(5.0), params)
        with pytest.raises(ValueError, match="plan's kept nodes"):
            pair_finite_mu(traj, plan)


def _pair_all_nodes(prof, params, f, g, quad):
    """The finite-switch pairing with every radial node solved and every
    time node read from the trajectory: the reference for the screened,
    split pairing of ``pair_finite_mu``."""
    tf, wf = quad.time_rule(f)
    tg, wg = quad.time_rule(g)
    k, wk = quad.radial_rule(f, g)
    T, _ = solve_modes(k, prof, params).evaluate(np.concatenate((tf, tg)))
    u_f = T[:, : tf.size] @ (wf * f.temporal(tf))
    u_g = T[:, tf.size :] @ (wg * g.temporal(tg))
    free = free_kms(params)
    kernel = free.c_plus(k) * u_f * np.conj(u_g) + free.c_minus(k) * np.conj(u_f) * u_g
    return complex(np.sum(wk * 4.0 * np.pi * k * k * f.spatial(k) * g.spatial(k) * kernel))


def _amplitude_bound(k, params):
    """M = max(1/(2 eps), eps/(2 eps_lambda^2)), the bound on |T(t)|^2 of a
    mode through a monotone switch."""
    disp = dispersion(k, params)
    return np.maximum(0.5 / disp.eps, 0.5 * disp.eps / disp.eps_lambda**2)


def _early_factor(k, params):
    """(|Delta|/eps_lambda) sqrt(M), with Delta = eps_lambda^2 - eps^2 the
    mass shift: times |t| (1 - chi(t/mu)), the bound on |T - T_after|(t)
    before t = 0."""
    return abs(params.mass_shift) / dispersion(k, params).eps_lambda * np.sqrt(_amplitude_bound(k, params))


class TestAmplitudeBound:
    """The screen of ``pair_finite_mu`` rests on |T(t)|^2 <= M at every t
    and on (|a_plus| + |a_minus|)^2 / (2 eps_lambda) <= M past the switch."""

    # measured worst: M * (1 + 3.8e-15); the bound is reached at t = -mu for
    # lam > 0, where |T|^2 = 1/(2 eps) = M, so only rounding may exceed it
    REL = 1e-12

    @pytest.mark.parametrize("lam", [-0.95, -0.3, 1e-4, 0.5, 10.0, 50.0])
    @pytest.mark.parametrize("mu", [1e-3, 1.0, 40.0])
    def test_bound_holds_on_solved_modes(self, lam, mu):
        params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=lam)
        ks = np.linspace(0.0, 6.0, 13)
        traj = solve_modes(ks, SwitchingProfile(mu), params)
        bound = _amplitude_bound(ks, params)
        T = modes._complex(traj.y[0])
        assert np.all(np.max(np.abs(T) ** 2, axis=1) <= bound * (1.0 + self.REL))
        bog = bogoliubov(traj)
        after = (np.abs(bog.a_plus) + np.abs(bog.a_minus)) ** 2 / (2.0 * traj.eps_lambda)
        assert np.all(after <= bound * (1.0 + self.REL))


class TestScreenedPairing:
    """The screened pairing, which solves only the radial nodes whose bound
    can reach the sum and projects each mode past t = 0 in closed form,
    against the all-nodes, all-times reference."""

    # measured worst: 6.6e-14 on the acceptance ladders and 5.9e-13 at
    # lam = 10.  The screened nodes' bounds sum to under 4e-17 there; the
    # rest is the solve itself, on the coarser grid the kept nodes lay
    REL = 1e-12

    def assert_matches_reference(self, prof, params, f, g, quad, ramp_solves):
        del ramp_solves[:]
        value = _pair_at(prof, pairing_plan(params, f, g, quad))
        (traj,) = ramp_solves
        reference = _pair_all_nodes(prof, params, f, g, quad)
        assert abs(value - reference) <= self.REL * abs(reference)
        return traj.eps.size

    # the nodes above k = 4.0 carry less than unit roundoff of the summed
    # bound: 22 of 64 on the default rule, 45 of 128 on the refined one
    @pytest.mark.parametrize("refine, kept", [(False, 42), (True, 83)])
    def test_acceptance_ladders(self, refine, kept, ramp_solves):
        config = default_config().refined() if refine else default_config()
        f, g = config.packet_pair
        for mu in config.mu_ladder:
            assert self.assert_matches_reference(
                SwitchingProfile(mu), verify.MODE_PARAMS, f, g, config.quadrature, ramp_solves
            ) == kept

    @pytest.mark.parametrize("lam", [-0.9, 10.0])
    def test_strong_shifts(self, lam, ramp_solves):
        params = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=lam)
        kept = self.assert_matches_reference(SwitchingProfile(10.0), params, F, G, QUAD, ramp_solves)
        assert kept < QUAD.n_radial

    @pytest.mark.parametrize("t_center", [3.0, 0.0, -13.0], ids=["after", "across", "before"])
    def test_packet_times(self, t_center, ramp_solves):
        # wholly after the switch, across its end at t = 0 (half of each time
        # rule inside the ramp), and wholly before it starts at t = -mu = -10
        f = Packet(k_center=1.0, k_width=0.5, t_center=t_center, t_width=0.3)
        g = Packet(k_center=1.2, k_width=0.4, t_center=t_center + 0.5, t_width=0.3)
        self.assert_matches_reference(SwitchingProfile(10.0), PARAMS, f, g, QUAD, ramp_solves)

    def test_pair_that_screens_no_node(self, ramp_solves):
        # every radial rule runs 9 widths past the farther packet, so its top
        # node carries under e^-40 of a packet's peak; only a coarse rule
        # keeps every node: two nodes, each 5.2 widths off the common centre
        f = Packet(k_center=9.0, k_width=1.0, t_center=-0.5, t_width=0.5)
        g = Packet(k_center=9.0, k_width=1.0, t_center=0.5, t_width=0.5)
        quad = QuadratureSpec(n_radial=2, n_time=80)
        kept = self.assert_matches_reference(SwitchingProfile(5.0), PARAMS, f, g, quad, ramp_solves)
        assert kept == 2

    def test_nothing_kept_is_zero_without_a_solve(self, ramp_solves, monkeypatch):
        # the momentum profiles do not overlap: every radial weight is 0, so
        # the plan keeps no node and criterion 6 pairs 0 at every rung, with
        # no solve, a relative gap of 1 each, and fails
        f = Packet(k_center=0.0, k_width=0.01)
        g = Packet(k_center=50.0, k_width=0.01)
        plan = pairing_plan(verify.MODE_PARAMS, f, g, QUAD)
        assert plan.k.size == 0
        monkeypatch.setattr(verify, "pairing_plan", lambda *args: plan)
        result = verify.criterion_6(default_config())
        assert result.status == "fail" and ramp_solves == []
        assert result.measured["first_rel_gap"] == result.measured["final_rel_gap"] == 1.0
        assert _pair_all_nodes(SwitchingProfile(1.0), PARAMS, f, g, QUAD) == 0j


def _closed_form(p, waves):
    """The post-switch terms (c, f) of ``waves`` projected onto ``p``'s
    temporal profile, sum c * fhat(-f), with ``temporal_hat`` evaluated
    afresh: the reference for the plan's transforms."""
    return sum(c * p.temporal_hat(-f) for c, f in waves)


def _pair_per_call(prof, params, f, g, quad):
    """The finite-switch pairing as one call that lays its own radial rule,
    coefficients, early nodes, early factors and screen for its one switch,
    and screens its early reads as ``pair_finite_mu`` does: the reference
    that a plan shared along a ladder changes no bit of."""
    k, wk = quad.radial_rule(f, g)
    free = free_kms(params)
    c_plus, c_minus = free.c_plus(k), free.c_minus(k)
    radial = wk * 4.0 * np.pi * k * k * f.spatial(k) * g.spatial(k)
    (tf, wf), (tg, wg) = (spectral._early_nodes(p, quad) for p in (f, g))
    reach_f, reach_g = (math.sqrt(2.0 * math.pi) * p.t_width + 2.0 * np.sum(w) for p, w in ((f, wf), (g, wg)))
    bound = np.abs(radial) * (c_plus + c_minus) * _amplitude_bound(k, params) * reach_f * reach_g
    keep = spectral._screen(bound)
    if not keep.any():
        return 0j
    traj = solve_modes(k[keep], prof, params)
    waves = modes._outgoing_waves(bogoliubov(traj), traj.eps_lambda)
    u_f, u_g = (_closed_form(p, waves) for p in (f, g))
    factor = _early_factor(k[keep], params)
    early = (spectral._early_reach(prof, tf, wf), spectral._early_reach(prof, tg, wg))
    if not all(np.all(factor * r <= 2.0**-53 * np.abs(u)) for r, u in zip(early, (u_f, u_g))):
        T, _ = traj.evaluate(np.concatenate((tf, tg)))
        u_f = u_f + spectral._early_correction(tf, wf, T[:, : tf.size], waves)
        u_g = u_g + spectral._early_correction(tg, wg, T[:, tf.size :], waves)
    kernel = c_plus[keep] * u_f * np.conj(u_g) + c_minus[keep] * np.conj(u_f) * u_g
    return complex(np.sum(radial[keep] * kernel))


class TestPairingPlan:
    """One plan per ladder against a pairing that lays everything afresh for
    each switch: bit for bit, since the plan holds the very arrays the
    per-call pairing computes and the rungs never write to them."""

    @staticmethod
    def assert_ladder_bit_for_bit(params, f, g, quad, ladder):
        plan = pairing_plan(params, f, g, quad)
        for mu in ladder:
            prof = SwitchingProfile(mu)
            assert _pair_at(prof, plan) == _pair_per_call(prof, params, f, g, quad), mu

    def test_default_ladder(self):
        config = default_config()
        self.assert_ladder_bit_for_bit(verify.MODE_PARAMS, *config.packet_pair, config.quadrature,
                                       config.mu_ladder)

    def test_fast_config(self, tmp_path):
        from test_cli import fast_config

        config = load_config(fast_config(tmp_path))
        self.assert_ladder_bit_for_bit(verify.MODE_PARAMS, *config.packet_pair, config.quadrature,
                                       config.mu_ladder)

    @pytest.mark.parametrize("t_center", [0.0, -13.0], ids=["across", "before"])
    def test_packets_that_reach_into_the_ramp(self, t_center):
        # across the switch-off, and 13 before it: before the ramp at mu = 5,
        # inside it at mu = 20 and 40
        f = Packet(k_center=1.0, k_width=0.5, t_center=t_center, t_width=0.3)
        g = Packet(k_center=1.2, k_width=0.4, t_center=t_center + 0.5, t_width=0.3)
        self.assert_ladder_bit_for_bit(PARAMS, f, g, QUAD, (5.0, 10.0, 20.0, 40.0))

    def test_criterion_6_lays_two_radial_rules(self, monkeypatch):
        # the target's and the plan's, for the whole ladder of four
        calls = []
        original = QuadratureSpec.radial_rule

        def counting(quad, *packets):
            calls.append(quad.n_radial)
            return original(quad, *packets)

        monkeypatch.setattr(QuadratureSpec, "radial_rule", counting)
        config = default_config()
        assert verify.criterion_6(config).status == "pass"
        assert calls == [config.quadrature.n_radial] * 2


class TestPlanTransforms:
    """The plan holds each packet's temporal transforms at the kept nodes'
    +-eps_lambda, so a rung's closed-form projection evaluates none."""

    @pytest.mark.parametrize("case", ["default", "across"])
    def test_projection_is_the_closed_form_bit_for_bit(self, case):
        if case == "default":
            config = default_config()
            params, (f, g), quad = verify.MODE_PARAMS, config.packet_pair, config.quadrature
        else:
            params, (f, g), quad = PARAMS, _ramp_packets(0.0), QUAD
        plan = pairing_plan(params, f, g, quad)
        el = dispersion(plan.k, params).eps_lambda
        for p, hat in ((f, plan.hat_f), (g, plan.hat_g)):
            assert np.array_equal(hat, [p.temporal_hat(el), p.temporal_hat(-el)])
        for mu in (5.0, 40.0):
            traj = solve_modes(plan.k, SwitchingProfile(mu), params)
            waves = modes._outgoing_waves(bogoliubov(traj), traj.eps_lambda)
            for p, hat in ((f, plan.hat_f), (g, plan.hat_g)):
                assert np.array_equal(spectral._closed_projection(hat, waves), _closed_form(p, waves))

    def test_rungs_evaluate_no_transform(self, monkeypatch):
        config = default_config()
        plan = pairing_plan(verify.MODE_PARAMS, *config.packet_pair, config.quadrature)
        trajs = modes._ramp_solve(plan.k, [SwitchingProfile(mu) for mu in config.mu_ladder], plan.params)
        calls = []
        temporal_hat = Packet.temporal_hat
        monkeypatch.setattr(Packet, "temporal_hat", lambda p, omega: calls.append(p) or temporal_hat(p, omega))
        assert all(math.isfinite(abs(pair_finite_mu(traj, plan))) for traj in trajs)
        assert calls == []


class TestCriterion6Ladder:
    """Criterion 6 solves its whole mu ladder on the plan's kept nodes in one
    ladder solve.  A rung that one block holds gets its solve alone to the
    bit; the others, whose blocks end at other nodes than their solves
    alone, agree to a few ulps."""

    # measured: 4.2e-15 abs (2.9e-15 of the largest node entry) on the
    # mu = 40 rung's node planes, 2.3e-15 and 3.6e-15 on mu = 10 and 20;
    # the rung pairings within 3.3e-16 of the per-call reference
    NODES_REL = 1e-13
    PAIR_REL = 1e-13

    @pytest.fixture(scope="class")
    def ladder(self):
        config = default_config()
        plan = pairing_plan(verify.MODE_PARAMS, *config.packet_pair, config.quadrature)
        profs = [SwitchingProfile(mu) for mu in config.mu_ladder]
        return config, plan, modes._ramp_solve(plan.k, profs, plan.params)

    def test_rungs_against_their_solves_alone(self, ladder):
        _, plan, trajs = ladder
        block = modes._BLOCK // plan.k.size
        heads = np.cumsum([0] + [traj.t.size for traj in trajs])
        held = [lo // block == (hi - 2) // block for lo, hi in zip(heads, heads[1:])]
        # 1061 positions in blocks of 195 steps: only the mu = 5 rung, on
        # positions 0 to 71, lies in one block
        assert (block, heads[-1], held) == (195, 1061, [True, False, False, False])
        for traj, one_block in zip(trajs, held):
            alone = solve_modes(plan.k, SwitchingProfile(traj.mu), plan.params)
            assert np.array_equal(traj.t, alone.t) and traj.passes == alone.passes == 1
            if one_block:
                assert np.array_equal(traj.y, alone.y)
                assert (traj.worst_drift, traj.worst_drift_t) == (alone.worst_drift, alone.worst_drift_t)
            else:
                assert np.abs(traj.y - alone.y).max() <= self.NODES_REL * np.abs(alone.y).max()

    def test_rung_pairings_against_the_per_call_reference(self, ladder):
        config, plan, trajs = ladder
        for traj in trajs:
            reference = _pair_per_call(SwitchingProfile(traj.mu), plan.params, plan.f, plan.g,
                                       config.quadrature)
            assert abs(pair_finite_mu(traj, plan) - reference) <= self.PAIR_REL * abs(reference)

    def test_criterion_6_reads_its_ladder(self, ladder, ramp_solves, monkeypatch):
        # one ladder solve of the plan's kept nodes, one pairing per rung
        config, plan, trajs = ladder
        rungs = []
        monkeypatch.setattr(verify, "pair_finite_mu",
                            lambda traj, plan: rungs.append(traj) or pair_finite_mu(traj, plan))
        assert verify.criterion_6(config).status == "pass"
        assert ramp_solves.calls == [len(config.mu_ladder)] and rungs == list(ramp_solves)
        assert [traj.mu for traj in rungs] == list(config.mu_ladder)
        assert all(np.array_equal(traj.y, ref.y) for traj, ref in zip(rungs, trajs))


def _count_reads(monkeypatch):
    """Records the times of every ``evaluate`` call on a trajectory."""
    reads = []
    evaluate = modes.ModeTrajectory.evaluate

    def counting(traj, t):
        reads.append(np.size(t))
        return evaluate(traj, t)

    monkeypatch.setattr(modes.ModeTrajectory, "evaluate", counting)
    return reads


def _ramp_packets(t_center):
    """The packets of ``TestScreenedPairing.test_packet_times`` around
    ``t_center``."""
    return (Packet(k_center=1.0, k_width=0.5, t_center=t_center, t_width=0.3),
            Packet(k_center=1.2, k_width=0.4, t_center=t_center + 0.5, t_width=0.3))


class TestEarlyScreen:
    """A rung skips its early reads when the plan's early factor times each
    packet's early reach, a proved bound on every node's correction
    sum w (T - T_after) before t = 0, is within unit roundoff of the
    closed-form projection."""

    # the screened value against a forced read: measured worst 6.7e-15, on
    # the packets across t = 0 at mu = 40, where the read adds the solve's
    # own error at the early nodes (3e-12 of the closed form) and the bound,
    # 1.2e-17 of it, clears the rung; every other rung below reads the same
    # bits both ways
    REL = 1e-12

    @staticmethod
    def forced_read(monkeypatch, prof, plan):
        """The pairing with the screen failed everywhere: an infinite reach."""
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "_early_reach", lambda prof, t, w: math.inf)
            return _pair_at(prof, plan)

    @pytest.mark.parametrize("case", ["default", "across"])
    def test_screened_value_matches_a_forced_read(self, case, monkeypatch):
        if case == "default":
            config = default_config()
            params, (f, g), quad, ladder = (verify.MODE_PARAMS, config.packet_pair,
                                            config.quadrature, config.mu_ladder)
        else:
            params, (f, g), quad, ladder = PARAMS, _ramp_packets(0.0), QUAD, (5.0, 10.0, 20.0, 40.0)
        plan = pairing_plan(params, f, g, quad)
        reads = _count_reads(monkeypatch)
        skipped = []
        for mu in ladder:
            prof = SwitchingProfile(mu)
            del reads[:]
            screened = _pair_at(prof, plan)
            skipped.append(reads == [])
            forced = self.forced_read(monkeypatch, prof, plan)
            assert reads[-1] == plan.early_f[0].size + plan.early_g[0].size
            assert abs(screened - forced) <= self.REL * abs(forced), mu
        # the default packets reach 0.4 into the ramp, with weights under
        # 2e-14: every rung skips; across t = 0 only mu = 40 does
        assert skipped == ([True] * 4 if case == "default" else [False, False, False, True])

    @pytest.mark.parametrize("mu", [5.0, 10.0])
    def test_bound_dominates_the_measured_correction(self, mu):
        # across t = 0, where the ramp moves the early correction far above
        # the solve's error: measured worst 3.4e-2 of the bound, with the
        # correction up to 7.5e-7 of the closed form at mu = 5 and 1.6e-9 at
        # mu = 10
        prof = SwitchingProfile(mu)
        plan = pairing_plan(PARAMS, *_ramp_packets(0.0), QUAD)
        traj = solve_modes(plan.k, prof, PARAMS)
        waves = modes._outgoing_waves(bogoliubov(traj), traj.eps_lambda)
        moved = 0.0
        for p, (t, w) in ((plan.f, plan.early_f), (plan.g, plan.early_g)):
            T, _ = traj.evaluate(t)
            measured = np.abs(spectral._early_correction(t, w, T, waves))
            bound = plan.early_factor * spectral._early_reach(prof, t, w)
            assert t.size > 0 and np.all(measured <= bound)
            moved = max(moved, np.max(measured / np.abs(_closed_form(p, waves))))
        # far above the solve's own error at the early nodes, 3e-12 of the
        # closed form at mu = 20 and 40
        assert moved > 1e-9

    @pytest.mark.parametrize("case", ["before", "across", "g-across"])
    def test_packets_the_bound_does_not_clear_still_read(self, case, monkeypatch):
        # at mu = 5: wholly before the ramp, where the bound is 6 times the
        # closed form; across t = 0, where it is 4e-5 of it; and f wholly
        # after t = 0, with no early node, while g reaches across it
        if case == "g-across":
            packets = (_ramp_packets(3.0)[0], _ramp_packets(0.0)[1])
        else:
            packets = _ramp_packets(-13.0 if case == "before" else 0.0)
        plan = pairing_plan(PARAMS, *packets, QUAD)
        prof = SwitchingProfile(5.0)
        reads = _count_reads(monkeypatch)
        value = _pair_at(prof, plan)
        assert reads == [plan.early_f[0].size + plan.early_g[0].size] and plan.early_g[0].size > 0
        assert value == self.forced_read(monkeypatch, prof, plan)
        reference = _pair_all_nodes(prof, PARAMS, plan.f, plan.g, QUAD)
        assert abs(value - reference) <= TestScreenedPairing.REL * abs(reference)

    def test_plan_factor_is_the_bound_of_its_docstring(self):
        config = default_config()
        plan = pairing_plan(verify.MODE_PARAMS, *config.packet_pair, config.quadrature)
        assert plan.early_factor.shape == plan.k.shape
        assert np.array_equal(plan.early_factor, _early_factor(plan.k, verify.MODE_PARAMS))

    def test_reach_does_not_round_the_complement_to_zero(self):
        # at mu = 40, chi(t/mu) rounds to 1 at t = -0.4, yet 1 - chi there is
        # exp(-100) / (exp(-100) + exp(-1/0.99)), not 0
        prof = SwitchingProfile(40.0)
        t, w = np.array([-0.4]), np.array([1.0])
        assert prof.value(t)[0] == 1.0
        reach = spectral._early_reach(prof, t, w)
        assert reach == pytest.approx(0.4 * math.exp(-100.0) / math.exp(-1.0 / 0.99), rel=1e-10, abs=0.0)
        # before the ramp the complement is 1
        assert spectral._early_reach(prof, np.array([-50.0]), w) == 50.0


def _free_with_nan_at_top(params):
    """:func:`free_kms` with c_plus NaN at the largest momentum it is given."""
    free = free_kms(params)

    def c_plus(k):
        return np.where(k == k.max(), np.nan, free.c_plus(k))

    return SpectralState(free.branch, c_plus, free.c_minus, free.label, params)


class TestNonFiniteBound:
    """A NaN bound keeps its node: the NaN reaches the pairing, and
    ``verify-all`` refuses it, instead of the node being screened away."""

    def test_nan_coefficient_makes_the_pairing_nan(self, ramp_solves, monkeypatch):
        config = default_config()
        f, g = config.packet_pair
        k, _ = config.quadrature.radial_rule(f, g)
        prof = SwitchingProfile(40.0)
        plan = pairing_plan(verify.MODE_PARAMS, f, g, config.quadrature)
        assert math.isfinite(abs(_pair_at(prof, plan)))
        assert ramp_solves[-1].k_mag.max() < k.max()  # the top node is screened
        monkeypatch.setattr(spectral, "free_kms", _free_with_nan_at_top)
        with np.errstate(all="raise"):
            value = _pair_at(prof, pairing_plan(verify.MODE_PARAMS, f, g, config.quadrature))
        assert math.isnan(value.real) and math.isnan(value.imag)
        assert ramp_solves[-1].k_mag.max() == k.max()

    def test_verify_all_exits_3(self, tmp_path, monkeypatch, capsys):
        # only criterion 6's pairings see the NaN coefficient
        def poisoned(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "free_kms", _free_with_nan_at_top)
                return pairing_plan(*args)

        monkeypatch.setattr(verify, "pairing_plan", poisoned)
        assert cli.main(["verify-all", "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure")
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 5 + ["FAIL"] + ["PASS"] * 4

    def test_verify_all_on_stdout_exits_3(self, tmp_path, monkeypatch, capsys):
        # without --out the payload is never written, yet it is checked as
        # strict JSON all the same: the NaN is a numerical failure, not a
        # failed criterion
        def poisoned(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "free_kms", _free_with_nan_at_top)
                return pairing_plan(*args)

        monkeypatch.setattr(verify, "pairing_plan", poisoned)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify-all"]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure: verify_all.json")
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 5 + ["FAIL"] + ["PASS"] * 4
        assert "final_rel_gap=nan" in out.splitlines()[5]
        assert list(tmp_path.iterdir()) == []
