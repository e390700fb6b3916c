"""The four spectral states and the time-domain pairing that connects them.

Dragging the free thermal state through the mass ramp and letting the ramp
become infinitely slow does NOT give the thermal state of the shifted
theory: the frequency branch shifts but the occupation numbers stay frozen
at the old frequencies.  This demo builds both states (plus the free one
and the late-time averaged one), checks the commutator normalization on
all of them, and shows the finite-ramp time-domain pairing converging to
the frozen-coefficient state as the ramp slows.
"""

import numpy as np

from thermalquench import (
    QuadratureSpec,
    SwitchingProfile,
    TestPacket,
    ThermalParams,
    adiabatic,
    adiabatic_classical,
    free_kms,
    ness_classical,
    pair,
    pair_finite_mu,
    pair_report,
    pairing_plan,
    solve_modes,
)
from thermalquench.verify import ness_bogoliubov_map

PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)
F = TestPacket(k_center=1.0, k_width=0.5, t_center=2.0, t_width=0.3)
G = TestPacket(k_center=1.0, k_width=0.5, t_center=2.5, t_width=0.3)
QUAD = QuadratureSpec()
# The commutator residuals and the refinement deltas sit at the rounding
# floor, where any reordering of the arithmetic moves their last digits, so
# each is printed against this bound rather than as a value.
FLOOR = 1e-12


def against_floor(value):
    """``< FLOOR`` for a value below the bound, else the value itself."""
    return f"< {FLOOR:.0e}" if value < FLOOR else f"= {value:.2e}, above {FLOOR:.0e}"


def main():
    states = [
        free_kms(PARAMS),
        adiabatic_classical(PARAMS),
        adiabatic(PARAMS),
        ness_classical(PARAMS, ness_bogoliubov_map(PARAMS)),
    ]
    ks = np.linspace(0.01, 5.0, 9)

    print("== commutator normalization c_plus - c_minus = 1 ==")
    for state in states:
        residual = np.abs(state.ccr_residual(ks)).max()
        print(f"  {state.label:22s} branch={state.branch:7s} max residual {against_floor(residual)}")

    print("\n== occupation data at k = 1 ==")
    for state in states:
        cp = float(np.atleast_1d(state.c_plus(np.array([1.0])))[0])
        cm = float(np.atleast_1d(state.c_minus(np.array([1.0])))[0])
        print(f"  {state.label:22s} c_plus={cp:.8f}  c_minus={cm:.8f}")

    print("\n== pairings against the packet pair ==")
    for state in states:
        rep = pair_report(state, F, G, QUAD, pair(state, F, G, QUAD))
        print(
            f"  {state.label:22s} value = {rep['value_re']:+.8f} {rep['value_im']:+.8f}i"
            f"  (refinement delta {against_floor(rep['refinement_delta'])})"
        )

    print("\n== finite-ramp pairing -> frozen-coefficient state ==")
    target = pair(adiabatic_classical(PARAMS), F, G, QUAD)
    plan = pairing_plan(PARAMS, F, G, QUAD)  # one radial rule and screen for the ladder
    for mu in (5.0, 10.0, 20.0):
        # one solve of the plan's kept nodes per switching scale
        val = pair_finite_mu(solve_modes(plan.k, SwitchingProfile(mu), PARAMS), plan)
        print(f"  mu={mu:5.1f}: relative gap = {abs(val - target) / abs(target):.3e}")
    print("  (the remaining gap is the particle production of the finite ramp)")


if __name__ == "__main__":
    main()
