"""Late-time averaging: Bogoliubov data and the steady-state two-point function.

After the ramp (here at unit switching scale) each mode is a fixed mix of
positive and negative frequency parts.  Time-averaging products of modes
kills every oscillating cross term at rate 1/horizon, leaving closed forms
in the Bogoliubov pair; feeding those into the thermal coefficients gives
the steady-state spectral data, which still satisfies the commutator
normalization exactly but is no longer thermal.
"""

import numpy as np

from thermalquench import (
    SwitchingProfile,
    ThermalParams,
    bogoliubov,
    dispersion,
    ergodic_averages,
    ergodic_limits,
    ness_classical,
    solve_modes,
    sudden_quench_pair,
)
from thermalquench.verify import ness_bogoliubov_map

PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)


def main():
    prof = SwitchingProfile(1.0)

    print("== Bogoliubov pairs across momentum (unit ramp) ==")
    for k in (0.0, 0.5, 1.0, 2.0):
        traj = solve_modes(k, prof, PARAMS, t_max=1.0, rtol=1e-12, atol=1e-14, method="DOP853")
        b = bogoliubov(traj)
        print(
            f"  k={k:3.1f}: |A+|={abs(b.a_plus):.6f} |A-|={abs(b.a_minus):.6f}"
            f"  normalization residual {b.normalization_residual:.1e}"
        )

    print("\n== the sharp-ramp limit against the matched-jump closed form ==")
    sharp = SwitchingProfile(1e-3)
    traj = solve_modes(0.0, sharp, PARAMS, t_max=0.1, rtol=1e-12, atol=1e-14, method="DOP853")
    got = bogoliubov(traj)
    want = sudden_quench_pair(0.0, PARAMS)
    print(f"  extracted: A+ = {got.a_plus:.6f}, A- = {got.a_minus:.6f}")
    print(f"  closed    : A+ = {want.a_plus:.6f}, A- = {want.a_minus:.6f}")

    print("\n== ergodic averages approach their limits at rate 1/horizon ==")
    t1, t2 = 0.5, -0.25
    traj = solve_modes(0.0, prof, PARAMS, t_max=2.0)
    bog = bogoliubov(traj)
    lim_tt, lim_ttbar = ergodic_limits(bog, dispersion(0.0, PARAMS).eps_lambda, t1, t2)
    print(f"  limit of <T T>     = {lim_tt:+.8f}")
    print(f"  limit of <T conjT> = {lim_ttbar:+.8f}")
    for horizon in (100.0, 1000.0, 10000.0):
        att, attb = ergodic_averages(0.0, prof, PARAMS, t1, t2, horizon=horizon)
        err = abs(att - lim_tt) + abs(attb - lim_ttbar)
        print(f"  horizon={horizon:8.0f}: total error {err:.2e}  (envelope {1.0 / horizon:.1e})")

    print("\n== steady-state spectral data ==")
    state = ness_classical(PARAMS, ness_bogoliubov_map(PARAMS))
    ks = np.array([0.01, 0.5, 1.0, 2.0, 4.0])
    cp, cm = state.c_plus(ks), state.c_minus(ks)
    for i, k in enumerate(ks):
        print(
            f"  k={k:4.2f}: c_plus={cp[i]:.8f}  c_minus={cm[i]:.8f}"
            f"  commutator residual {cp[i] - cm[i] - 1.0:+.1e}"
        )


if __name__ == "__main__":
    main()
