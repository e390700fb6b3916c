"""Mode functions across the mass ramp, with the conserved Wronskian as a
built-in error monitor.

The mode starts as a pure plane wave, crosses the smooth switching window
[-mu, 0], and settles into a two-frequency combination.  Slower ramps track
the instantaneous-frequency (WKB) profile better, and the two switching-
weighted integrals approach their closed-form limits: 1/(eps + eps_lambda)
for the absolute square, zero for the plain square.
"""

import numpy as np

from thermalquench import (
    SwitchingProfile,
    ThermalParams,
    dispersion,
    solve_modes,
    switch_integrals,
    wkb_mode,
)

PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)


def main():
    k = 0.0
    d = dispersion(k, PARAMS)
    print(f"free frequency {d.eps:.6f} -> shifted frequency {d.eps_lambda:.6f}")

    print("\n== one trajectory in detail (mu = 10) ==")
    prof = SwitchingProfile(10.0)
    traj = solve_modes(k, prof, PARAMS, t_max=2.0)
    print(f"solver steps: {len(traj.t)}, span [{-traj.mu:.1f}, {traj.t_end:.1f}]")
    print(f"max |W - i| along the trajectory: {traj.max_wronskian_residual:.2e}")
    for t in (-12.0, -5.0, 0.0, 2.0):
        T, _ = traj.evaluate(t)
        print(f"  t={t:6.1f}: |T| = {abs(T[0]):.6f}")

    print("\n== WKB comparison (constant incoming phase aligned) ==")
    eps = d.eps
    for mu in (5.0, 10.0, 20.0, 40.0):
        prof = SwitchingProfile(mu)
        t0 = -mu - 1.0
        traj = solve_modes(k, prof, PARAMS, t_max=1.0)
        ts = np.linspace(t0, 1.0, 400)
        T, _ = traj.evaluate(ts)
        Ta = np.exp(-1j * eps * t0) * wkb_mode(k, ts, prof, PARAMS, t0=t0)
        print(f"  mu={mu:5.1f}: sup |T - T_wkb| = {np.abs(T - Ta).max():.3e}")

    print("\n== switching integrals ladder ==")
    target = 1.0 / (d.eps + d.eps_lambda)
    print(f"  closed-form limit of the absolute-square integral: {target:.8f}")
    for mu in (5.0, 10.0, 20.0, 40.0):
        i_sq, i_abs = switch_integrals(k, SwitchingProfile(mu), PARAMS)
        print(
            f"  mu={mu:5.1f}: I_abs={i_abs:.8f}  gap={abs(i_abs - target):.2e}  "
            f"|I_sq|={abs(i_sq):.2e}"
        )


if __name__ == "__main__":
    main()
