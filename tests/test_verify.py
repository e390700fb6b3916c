"""The array paths of :mod:`thermalquench.verify` against the per-point and
per-node loops they replace, and the ramp-solve counts of the ramp
consumers."""

import math

import numpy as np
import pytest

from thermalquench import verify
from thermalquench.config import default_config
from thermalquench.modes import SwitchingProfile, bogoliubov, solve_modes
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


def scalar_richardson_derivative(f, x, n, h0):
    """The per-point stencil sum: one scalar call of f per stencil point."""

    def central(h):
        total = 0.0
        for i in range(n + 1):
            total += (-1) ** i * math.comb(n, i) * f(x + (n / 2.0 - i) * h)
        return total / h**n

    table = [[central(h0 / 2**j)] for j in range(5)]
    for m in range(1, 5):
        for j in range(m, 5):
            num = 4.0**m * table[j][m - 1] - table[j - 1][m - 1]
            table[j].append(num / (4.0**m - 1.0))
    return table[-1][-1]


class TestArrayCriteriaMatchScalarLoops:
    # the array evaluations do the same float operations on every point and
    # sum the stencil in the same order, so the measured values are equal,
    # not merely close

    def test_criterion_2(self):
        worst = 0.0
        for beta, eps in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
            h0 = min(beta / 4.0, 0.4 / eps)
            for n in range(1, 5):
                exact = bose_derivative(n, +1, beta, eps)
                approx = scalar_richardson_derivative(
                    lambda b: bose_coefficient(+1, b, eps), beta, n, h0
                )
                worst = max(worst, abs(approx - exact) / abs(exact))
        measured = verify.criterion_2(default_config()).measured["worst_rel"]
        assert type(measured) is float
        assert measured == worst

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


class TestRampSolveCounts:
    @pytest.mark.parametrize(
        "index, expected",
        [(4, "ladder+2"), (5, "ladder"), (6, "ladder"), (8, "ladder+2"), (9, "one")],
    )
    def test_criterion(self, index, expected, ramp_solves):
        # one batched solve per switching scale: the mu ladder, plus the
        # unit-scale and sharp switches for the trajectory suite
        config = default_config()
        n_mu = len(config.mu_ladder)
        want = {"ladder": n_mu, "ladder+2": n_mu + 2, "one": 1}[expected]
        assert verify.CRITERIA[index](config).status == "pass"
        assert len(ramp_solves) == want
