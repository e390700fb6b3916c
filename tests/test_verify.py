"""The batched ramp consumers of :mod:`thermalquench.verify` against the
per-node path they replace, and their ramp-solve counts."""

import numpy as np
import pytest

from thermalquench import verify
from thermalquench.config import default_config
from thermalquench.modes import SwitchingProfile, bogoliubov, solve_modes
from thermalquench.spectral import QuadratureSpec
from thermalquench.spectral import TestPacket as Packet
from thermalquench.thermal import ThermalParams


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
            traj = solve_modes(float(k), SwitchingProfile(mu), params, t_max=0.0, rtol=1e-12, atol=1e-14)
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

    def test_scalar_momentum_gives_scalar_pair(self):
        bog = verify.ness_bogoliubov_map(verify.MODE_PARAMS)
        scalar = bog(0.7)
        batched = bog(np.array([0.7]))
        assert isinstance(scalar.a_plus, complex)
        assert abs(scalar.a_plus - batched.a_plus[0]) <= 1e-12


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
