"""Mode functions across the mass ramp, with the conserved Wronskian as a
built-in error monitor.

The mode starts as a pure plane wave, crosses the smooth switching window
[-mu, 0], and settles into a two-frequency combination.  As the ramp slows,
the two switching-weighted integrals approach their closed-form limits:
1/(eps + eps_lambda) for the absolute square, zero for the plain square.
"""

from thermalquench import (
    SwitchingProfile,
    ThermalParams,
    dispersion,
    solve_modes,
    switch_integrals,
)

PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)


def main():
    k = 0.0
    d = dispersion(k, PARAMS)
    print(f"free frequency {d.eps:.6f} -> shifted frequency {d.eps_lambda:.6f}")

    print("\n== one trajectory in detail (mu = 10) ==")
    prof = SwitchingProfile(10.0)
    traj = solve_modes(k, prof, PARAMS)
    print(f"solver steps: {traj.n_steps} on [{-traj.mu:.1f}, 0.0], closed form after the switch")
    print(f"max |W - i| along the trajectory: {traj.worst_drift:.2e}")
    for t in (-12.0, -5.0, 0.0, 2.0):
        T, _ = traj.evaluate(t)  # one row per momentum, one column per time
        print(f"  t={t:6.1f}: |T| = {abs(T[0, 0]):.6f}")

    print("\n== switching integrals ladder ==")
    target = 1.0 / (d.eps + d.eps_lambda)
    print(f"  closed-form limit of the absolute-square integral: {target:.8f}")
    for mu in (5.0, 10.0, 20.0, 40.0):
        (i_sq,), (i_abs,) = switch_integrals(k, SwitchingProfile(mu), PARAMS)
        print(
            f"  mu={mu:5.1f}: I_abs={i_abs:.8f}  gap={abs(i_abs - target):.2e}  "
            f"|I_sq|={abs(i_sq):.2e}"
        )


if __name__ == "__main__":
    main()
