import numpy as np
import pytest

from thermalquench import cli, spectral
from thermalquench.series import nth_order_term, verify_resummation
from thermalquench.spectral import TestPacket as Packet
from thermalquench.spectral import QuadratureSpec, adiabatic, adiabatic_classical, pair
from thermalquench.thermal import ThermalParams, bose_coefficient, bose_derivative, dispersion

BENCH = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.1)
FREE = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.0)
F = Packet(k_center=1.0, k_width=0.5, t_center=2.0, t_width=0.3)
G = Packet(k_center=1.0, k_width=0.5, t_center=2.5, t_width=0.3)
QUAD = QuadratureSpec()


def manual_first_order(params, f, g, quad):
    """The first-order term assembled from scratch: per momentum, the weight
    -beta * shift/(eps_lambda+eps) * b_plus * b_minus on each branch."""
    k, w = quad.radial_rule(f, g)
    d = dispersion(k, params)
    bp = bose_coefficient(+1, params.beta, d.eps)
    bm = bose_coefficient(-1, params.beta, d.eps)
    weight = w * 4.0 * np.pi * k * k / (2.0 * d.eps_lambda)
    factor = -params.beta * params.mass_shift / (d.eps_lambda + d.eps) * bp * bm
    branches = f.freq_component(d.eps_lambda, k) * g.freq_component(-d.eps_lambda, k)
    branches = branches + f.freq_component(-d.eps_lambda, k) * g.freq_component(d.eps_lambda, k)
    return complex(np.sum(weight * factor * branches))


class TestNthOrderTerm:
    def test_first_order_sign_frozen(self):
        term = nth_order_term(1, BENCH, F, G, QUAD)
        assert term.value == pytest.approx(manual_first_order(BENCH, F, G, QUAD), rel=1e-14)
        assert term.value.real < 0.0  # the first correction lowers the pairing

    def test_free_terms_vanish(self):
        for n in (1, 3, 5):
            assert nth_order_term(n, FREE, F, G, QUAD).value == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_dual_path_agreement(self, n):
        a = nth_order_term(n, BENCH, F, G, QUAD, path="beta-derivative").value
        b = nth_order_term(n, BENCH, F, G, QUAD, path="descent-sum").value
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_simplex_normalization_scales_with_beta(self):
        # isolate the beta^n/n! factor: doubling beta must contribute 2^n
        # on top of the derivative tower's own beta dependence, per node
        n = 3
        doubled = ThermalParams(beta=2.0, m_sq=1.0, m0_sq=1.0, lam=0.1)
        term_1 = nth_order_term(n, BENCH, F, G, QUAD)
        term_2 = nth_order_term(n, doubled, F, G, QUAD)
        k, _ = QUAD.radial_rule(F, G)
        eps = dispersion(k, BENCH).eps
        deriv_ratio = bose_derivative(n, +1, 2.0, eps) / bose_derivative(n, +1, 1.0, eps)
        expected = 2.0**n * deriv_ratio
        mask = np.abs(term_1.per_k) > 1e-300
        assert np.allclose((term_2.per_k / term_1.per_k)[mask], expected[mask], rtol=1e-12)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            nth_order_term(0, BENCH, F, G, QUAD)
        with pytest.raises(ValueError):
            nth_order_term(17, BENCH, F, G, QUAD)
        with pytest.raises(ValueError):
            nth_order_term(2, BENCH, F, G, QUAD, path="sideways")

    def test_successive_ratios_below_envelope(self):
        # the geometric envelope of the term ratios: the worst node's shift over beta
        env = verify_resummation(BENCH, F, G, N=0, quad=QUAD).max_shift / BENCH.beta
        values = [nth_order_term(n, BENCH, F, G, QUAD).value for n in range(1, 9)]
        for a, b in zip(values, values[1:]):
            assert abs(b / a) <= 1.5 * env


def partial_sums(N):
    """Partial sums of orders 0..N, read from one resummation report."""
    report = verify_resummation(BENCH, F, G, N=N, quad=QUAD)
    return [report.zeroth] + [row.cumulative for row in report.rows]


class TestPartialSum:
    def test_converges_to_shifted_thermal_state(self):
        closed = pair(adiabatic(BENCH), F, G, QUAD)
        total = partial_sums(8)[-1]
        assert abs(total - closed) / abs(closed) <= 1e-8

    def test_gap_monotone_in_order(self):
        closed = pair(adiabatic(BENCH), F, G, QUAD)
        gaps = [abs(s - closed) / abs(closed) for s in partial_sums(6)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_remainder_bounded_by_first_omitted_term(self):
        closed = pair(adiabatic(BENCH), F, G, QUAD)
        for n, total in enumerate(partial_sums(6)):
            remainder = abs(total - closed)
            omitted = abs(nth_order_term(n + 1, BENCH, F, G, QUAD).value)
            assert remainder <= 2.0 * omitted

    def test_one_grid_equals_per_order_terms(self):
        zeroth = pair(adiabatic_classical(BENCH), F, G, QUAD)
        terms = [nth_order_term(n, BENCH, F, G, QUAD).value for n in range(1, 9)]
        assert partial_sums(8)[-1] == sum(terms, zeroth)


class TestConvergenceGuard:
    """The guard as the report carries it; a report of order 0 computes no term."""

    def test_bench_inside(self):
        report = verify_resummation(BENCH, F, G, N=0, quad=QUAD)
        assert report.verdict != "radius-violated" and report.max_shift < report.shift_limit
        assert report.shift_limit == pytest.approx(1.0)  # beta is the binding constraint here

    def test_strong_coupling_outside(self):
        strong = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=8.0)
        report = verify_resummation(strong, F, G, N=0, quad=QUAD)
        assert report.verdict == "radius-violated" and report.max_shift >= report.shift_limit

    def test_negative_shift_is_held_to_the_same_disk(self):
        # every delta_beta is negative for lam < 0; the guard reads the
        # largest |delta_beta|, which here lies beyond the limit pi / eps_min
        cold = ThermalParams(beta=10.0, m_sq=1.0, m0_sq=1.0, lam=-0.9)
        report = verify_resummation(cold, F, G, N=8, quad=QUAD)
        k, _ = QUAD.radial_rule(F, G)
        d = dispersion(k, cold)
        delta_beta = cold.beta * cold.mass_shift / ((d.eps_lambda + d.eps) * d.eps)
        assert np.all(delta_beta < 0)
        assert report.max_shift == float(np.max(np.abs(delta_beta)))
        assert report.shift_limit == pytest.approx(np.pi / np.min(d.eps))
        assert report.max_shift >= report.shift_limit
        assert report.verdict == "radius-violated"


class TestVerifyResummation:
    def test_bench_report_passes(self):
        report = verify_resummation(BENCH, F, G, N=8, quad=QUAD)
        assert report.verdict == "pass"
        assert report.final_rel_gap <= 1e-8
        assert report.max_dual_path_dev <= 1e-10
        gaps = [r.gap_to_closed_form for r in report.rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_free_case_trivial(self):
        report = verify_resummation(FREE, F, G, N=0, quad=QUAD)
        assert report.verdict == "pass"
        assert report.final_rel_gap == 0.0

    @pytest.mark.parametrize("N", [-2, -1, 17])
    def test_order_outside_the_cap_raises(self, N):
        # N = 0 is the guard-only report; a negative N used to give a report
        # with n_orders < 0 and verdict "fail"
        with pytest.raises(ValueError, match="order must satisfy"):
            verify_resummation(BENCH, F, G, N=N, quad=QUAD)

    def test_radius_violation_is_a_verdict_not_a_failure(self):
        strong = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=8.0)
        report = verify_resummation(strong, F, G, N=4, quad=QUAD)
        assert report.verdict == "radius-violated"
        assert not report.passed

    def test_rows_equal_per_order_terms(self):
        quad = QuadratureSpec(n_radial=512)
        report = verify_resummation(BENCH, F, G, N=16, quad=quad)
        cumulative = report.zeroth
        for n, row in enumerate(report.rows, start=1):
            t_beta = nth_order_term(n, BENCH, F, G, quad, path="beta-derivative").value
            t_desc = nth_order_term(n, BENCH, F, G, quad, path="descent-sum").value
            cumulative += t_beta
            assert row.term == t_beta
            assert row.dual_path_rel_dev == abs(t_beta - t_desc) / max(abs(t_beta), abs(t_desc))
            assert row.cumulative == cumulative
        assert len(report.rows) == 16

    @pytest.mark.parametrize("n_radial", [64, 128])
    def test_zeroth_and_closed_form_are_the_pairings(self, n_radial):
        quad = QuadratureSpec(n_radial=n_radial)
        for params in (BENCH, FREE):
            report = verify_resummation(params, F, G, N=4, quad=quad)
            assert report.zeroth == pair(adiabatic_classical(params), F, G, quad)
            assert report.closed_form == pair(adiabatic(params), F, G, quad)

    def test_one_radial_grid_per_report(self, monkeypatch, capsys):
        calls = []
        original = spectral.QuadratureSpec.radial_rule

        def counting(quad, *packets):
            calls.append(quad.n_radial)
            return original(quad, *packets)

        monkeypatch.setattr(spectral.QuadratureSpec, "radial_rule", counting)
        verify_resummation(BENCH, F, G, N=8, quad=QUAD)
        assert calls == [QUAD.n_radial]
        calls.clear()
        assert cli.main(["series"]) == 0
        # the report's grid, then pairing_check's refined pairing
        assert calls == [64, 128]

    def test_report_dict_round_trips_through_json(self):
        import json

        report = verify_resummation(BENCH, F, G, N=8, quad=QUAD)
        doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert doc["verdict"] == "pass"
        assert len(doc["orders"]) == 8
        assert doc["orders"][0]["order"] == 1
