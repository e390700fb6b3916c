"""Order-by-order series and its closed-form resummation.

Starting from the frozen-coefficient state of demo 04, the correction
series restores thermality at the shifted frequency: each order is a power
of the per-momentum temperature shift times a derivative of the thermal
coefficient, so the whole sum is a Taylor expansion that lands exactly on
the thermal state of the shifted theory.

Every order is evaluated twice (derivative tower vs explicit Eulerian
descent sum) as a cross-check, and the report carries a convergence guard:
outside the Taylor disk the comparison is declared meaningless rather than
failed.
"""

from thermalquench import TestPacket, ThermalParams, verify_resummation

BENCH = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.1)
F = TestPacket(k_center=1.0, k_width=0.5, t_center=2.0, t_width=0.3)
G = TestPacket(k_center=1.0, k_width=0.5, t_center=2.5, t_width=0.3)


def main():
    report = verify_resummation(BENCH, F, G, N=8)
    print(f"verdict: {report.verdict}")
    print(f"temperature shift at worst node: {report.max_shift:.4f} (limit {report.shift_limit:.2f})")
    print(f"geometric envelope of term ratios: {report.max_shift / BENCH.beta:.4f}")
    print(f"zeroth term      : {report.zeroth:.10f}")
    print(f"closed form      : {report.closed_form:.10f}")
    print()
    print(" n   term (re)        cumulative gap   dual-path dev")
    for row in report.rows:
        print(
            f" {row.order}   {row.term.real:+.6e}   {row.gap_to_closed_form:.3e}"
            f"        {row.dual_path_rel_dev:.1e}"
        )
    print()
    print(f"final relative gap at N=8: {report.final_rel_gap:.3e} (tolerance 1e-8)")

    print("\n== outside the convergence region the guard speaks up ==")
    strong = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=8.0)
    report = verify_resummation(strong, F, G, N=4)
    print(f"lam=8: verdict = {report.verdict} "
          f"(shift {report.max_shift:.2f} vs limit {report.shift_limit:.2f})")


if __name__ == "__main__":
    main()
