"""The acceptance suite: ten quantitative criteria with pinned tolerances.

Each criterion returns a :class:`CriterionResult` with the measured numbers
so the CLI summary and the test suite report the same values.  Criteria that
the suite cannot meaningfully run (the series comparison outside its
convergence region) are skipped with a reason instead of failing.

Parameter points that the criteria pin are hard-coded here; everything else
(tolerances, ladders, packets, quadrature density) comes from the
:class:`~thermalquench.config.RunConfig`, whose defaults reproduce the
reference desk-scale setup.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import (
    connected_from_moments,
    eulerian_row_by_enumeration,
    eulerian_row_recursive,
    moments_from_connected,
)
from .config import RunConfig, default_config
from .modes import (
    BogoliubovPair,
    SwitchingProfile,
    bogoliubov,
    solve_modes,
    sudden_quench_pair,
    switch_integral_limit,
    switch_integrals,
)
from .series import verify_resummation
from .spectral import adiabatic_classical, ness_classical, pair, pair_finite_mu
from .thermal import ThermalParams, bose_coefficient, bose_derivative, dispersion, shifted_beta

# Mode-physics bench shared by the ramp criteria: unit masses, strong shift.
MODE_PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)
SUDDEN_MU = 1e-3

RUNTIME_BUDGETS_S = {
    1: 5.0,
    2: 1.0,
    3: 1.0,
    4: 0.1,
    5: 0.1,
    6: 1.0,
    7: 5.0,
    8: 0.1,
    9: 0.1,
    10: 5.0,
}


@dataclass
class CriterionResult:
    index: int
    name: str
    status: str  # "pass" | "fail" | "skip"
    measured: dict = field(default_factory=dict)
    reason: str = ""
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "skip")

    def summary_line(self) -> str:
        head = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[self.status]
        nums = "  ".join(f"{k}={v:.3e}" for k, v in self.measured.items())
        tail = f"  [{self.reason}]" if self.reason else ""
        return f"{head}  {self.index:2d}. {self.name}: {nums}{tail}  ({self.runtime_s:.2f}s)"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "measured": dict(sorted(self.measured.items())),
            "reason": self.reason,
            "runtime_s": self.runtime_s,
        }


def _finish(index, name, ok, measured, t0, reason=""):
    return CriterionResult(
        index=index,
        name=name,
        status="pass" if ok else "fail",
        measured=measured,
        reason=reason,
        runtime_s=time.perf_counter() - t0,
    )


def criterion_1(config: RunConfig) -> CriterionResult:
    """Eulerian rows: recursion equals enumeration exactly for n <= 8."""
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        rec = eulerian_row_recursive(n)
        enum = eulerian_row_by_enumeration(n)
        ok = ok and rec.coefficients == enum.coefficients
        ok = ok and rec.row_sum == math.factorial(n)
        ok = ok and rec.coefficients == rec.coefficients[::-1]
    return _finish(1, "eulerian-cross-oracle", ok, {"max_n": 8.0}, t0)


def _richardson_derivative(f, x: float, n: int, h0: float, levels: int = 5) -> float:
    """n-th derivative by central differences plus Richardson extrapolation.

    The central n-th difference has an even error series in h, so each
    extrapolation level cancels one power of h^2.
    """
    def central(h):
        total = 0.0
        for i in range(n + 1):
            total += (-1) ** i * math.comb(n, i) * f(x + (n / 2.0 - i) * h)
        return total / h**n

    table = [[central(h0 / 2**j)] for j in range(levels)]
    for m in range(1, levels):
        for j in range(m, levels):
            num = 4.0**m * table[j][m - 1] - table[j - 1][m - 1]
            table[j].append(num / (4.0**m - 1.0))
    return table[levels - 1][levels - 1]


def criterion_2(config: RunConfig) -> CriterionResult:
    """Derivative tower vs finite differences of the thermal coefficient."""
    t0 = time.perf_counter()
    tol = config.tolerances["derivative_tower_rel"]
    worst = 0.0
    for beta, eps in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        h0 = min(beta / 4.0, 0.4 / eps)
        for n in range(1, 5):
            exact = bose_derivative(n, +1, beta, eps)
            approx = _richardson_derivative(
                lambda b: bose_coefficient(+1, b, eps), beta, n, h0
            )
            worst = max(worst, abs(approx - exact) / abs(exact))
    return _finish(2, "derivative-tower", worst <= tol, {"worst_rel": worst, "tol": tol}, t0)


def criterion_3(config: RunConfig) -> CriterionResult:
    """Temperature-shift identity on a 100-point (k, lam) grid."""
    t0 = time.perf_counter()
    tol = config.tolerances["temperature_shift_abs"]
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
    return _finish(3, "temperature-shift-identity", worst <= tol, {"worst_abs": worst, "tol": tol}, t0)


def _suite_trajectories(config: RunConfig):
    """The trajectories shared by the Wronskian and Bogoliubov criteria: one
    batched solve over ``config.k_values`` per profile of the mu ladder, the
    unit-scale switch and, last, the sharp switch."""
    ks = np.array(config.k_values)
    suite = [
        solve_modes(ks, SwitchingProfile(mu), MODE_PARAMS, t_max=0.0)
        for mu in (*config.mu_ladder, 1.0)
    ]
    suite.append(
        solve_modes(ks, SwitchingProfile(SUDDEN_MU), MODE_PARAMS, t_max=0.0, rtol=1e-12, atol=1e-14)
    )
    return suite


def criterion_4(config: RunConfig) -> CriterionResult:
    """Wronskian drift across every trajectory in the suite."""
    t0 = time.perf_counter()
    tol = config.tolerances["wronskian_abs"]
    worst = max(traj.max_wronskian_residual for traj in _suite_trajectories(config))
    return _finish(4, "wronskian-health", worst <= tol, {"worst_abs": worst, "tol": tol}, t0)


def criterion_5(config: RunConfig) -> CriterionResult:
    """Switching-integral ladder: gaps strictly decreasing, final below target."""
    t0 = time.perf_counter()
    tol = config.tolerances["switch_final_abs"]
    ks = np.array(config.k_values)
    ladder = [switch_integrals(ks, SwitchingProfile(mu), MODE_PARAMS) for mu in config.mu_ladder]
    i_sq, i_abs = (np.array(x) for x in zip(*ladder))  # rows: mu ladder, columns: k
    gaps_abs = np.abs(i_abs - switch_integral_limit(ks, MODE_PARAMS))
    gaps_sq = np.abs(i_sq)
    ok = all(np.all(np.diff(g, axis=0) < 0) and np.all(g[-1] <= tol) for g in (gaps_abs, gaps_sq))
    return _finish(
        5, "switch-integral-ladder", ok,
        {"final_abs_gap": float(gaps_abs[-1].max()), "final_sq": float(gaps_sq[-1].max()), "tol": tol},
        t0,
    )


def criterion_6(config: RunConfig) -> CriterionResult:
    """Time-domain pairing ladder toward the slow-switch classical state."""
    t0 = time.perf_counter()
    tol = config.tolerances["pairing_final_rel"]
    f, g = config.packet_pair
    quad = config.quadrature
    target = pair(adiabatic_classical(MODE_PARAMS), f, g, quad)
    gaps = []
    for mu in config.mu_ladder:
        val = pair_finite_mu(SwitchingProfile(mu), MODE_PARAMS, f, g, quad)
        gaps.append(abs(val - target) / abs(target))
    ok = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= tol
    return _finish(
        6, "finite-switch-pairing-ladder", ok,
        {"final_rel_gap": gaps[-1], "first_rel_gap": gaps[0], "tol": tol}, t0,
    )


def criterion_7(config: RunConfig) -> CriterionResult:
    """Series resummation against the shifted thermal state."""
    t0 = time.perf_counter()
    tol = config.tolerances["series_final_rel"]
    dual_tol = config.tolerances["series_dual_path_rel"]
    f, g = config.packet_pair
    report = verify_resummation(
        config.params, f, g,
        N=max(config.order_ladder), tol=tol,
        quad=config.quadrature, dual_path_tol=dual_tol,
    )
    measured = {
        "final_rel_gap": report.final_rel_gap,
        "max_dual_path_dev": report.max_dual_path_dev,
        "tol": tol,
    }
    if report.verdict == "radius-violated":
        return CriterionResult(
            index=7, name="series-resummation", status="skip", measured=measured,
            reason=(
                f"temperature shift {report.max_shift:.3g} exceeds convergence "
                f"limit {report.shift_limit:.3g}; resummation not expected to converge"
            ),
            runtime_s=time.perf_counter() - t0,
        )
    return _finish(7, "series-resummation", report.passed, measured, t0)


def criterion_8(config: RunConfig) -> CriterionResult:
    """Bogoliubov normalization everywhere; sharp ramp matches the jump oracle."""
    t0 = time.perf_counter()
    norm_tol = config.tolerances["bogoliubov_norm_abs"]
    sudden_tol = config.tolerances["sudden_quench_abs"]
    pairs = [bogoliubov(traj) for traj in _suite_trajectories(config)]
    worst_norm = float(max(np.max(p.normalization_residual) for p in pairs))
    sharp = pairs[-1]
    oracle = sudden_quench_pair(np.array(config.k_values), MODE_PARAMS)
    worst_sudden = float(
        max(np.max(np.abs(sharp.a_plus - oracle.a_plus)), np.max(np.abs(sharp.a_minus - oracle.a_minus)))
    )
    ok = worst_norm <= norm_tol and worst_sudden <= sudden_tol
    return _finish(
        8, "bogoliubov-normalization", ok,
        {"worst_norm": worst_norm, "worst_sudden_gap": worst_sudden, "tol_norm": norm_tol}, t0,
    )


def ness_bogoliubov_map(params: ThermalParams, mu: float = 1.0):
    """Bogoliubov pairs for the steady-state table: maps a momentum array to
    a pair of arrays with one batched solve per node set (remembered for the
    map's lifetime), at tight tolerance so the normalization residual stays
    below 1e-11.  The pairs are read at t = 0, the solve's endpoint."""
    solved: dict[tuple, BogoliubovPair] = {}

    def bog(k) -> BogoliubovPair:
        k = np.asarray(k, dtype=float)
        key = (k.shape, k.tobytes())
        if key not in solved:
            traj = solve_modes(k, SwitchingProfile(mu), params, t_max=0.0, rtol=1e-12, atol=1e-14)
            solved[key] = bogoliubov(traj)
        return solved[key]

    return bog


def criterion_9(config: RunConfig) -> CriterionResult:
    """Steady-state spectral data: commutator normalization and the
    no-production limit."""
    t0 = time.perf_counter()
    ccr_tol = config.tolerances["ness_ccr_abs"]
    id_tol = config.tolerances["ness_limit_abs"]
    f, g = config.packet_pair
    k_nodes, _ = config.quadrature.radial_rule(f, g)

    state = ness_classical(MODE_PARAMS, ness_bogoliubov_map(MODE_PARAMS))
    worst_ccr = float(np.max(np.abs(state.ccr_residual(k_nodes))))

    trivial = ness_classical(MODE_PARAMS, lambda k: BogoliubovPair(1.0 + 0.0j, 0.0j))
    ref = adiabatic_classical(MODE_PARAMS)
    worst_id = float(
        max(
            np.max(np.abs(trivial.c_plus(k_nodes) - ref.c_plus(k_nodes))),
            np.max(np.abs(trivial.c_minus(k_nodes) - ref.c_minus(k_nodes))),
        )
    )
    ok = worst_ccr <= ccr_tol and worst_id <= id_tol
    return _finish(
        9, "ness-spectral-data", ok,
        {"worst_ccr": worst_ccr, "worst_identity": worst_id, "tol_ccr": ccr_tol}, t0,
    )


def _wick_moment(subset: tuple, table: dict) -> complex:
    """Sum over perfect matchings of the pair table (the quasi-free oracle)."""
    if len(subset) % 2 == 1:
        return 0.0
    if not subset:
        return 1.0
    a, rest = subset[0], subset[1:]
    total = 0.0
    for i, b in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        total += table[frozenset((a, b))] * _wick_moment(remaining, table)
    return total


def criterion_10(config: RunConfig) -> CriterionResult:
    """Cumulant inversion: exact round trip; quasi-free tables have no
    connected parts beyond order two."""
    t0 = time.perf_counter()
    tol = config.tolerances["cumulant_vanish_abs"]

    # integer-valued synthetic moments round-trip with exact float arithmetic
    rng = np.random.default_rng(20240817)
    ok = True
    for n in range(1, 6):
        subsets = [
            frozenset(c)
            for r in range(1, n + 1)
            for c in itertools.combinations(range(1, n + 1), r)
        ]
        moments = {
            s: complex(int(rng.integers(-4, 5)), int(rng.integers(-4, 5))) for s in subsets
        }
        back = moments_from_connected(connected_from_moments(moments))
        ok = ok and all(back[s] == moments[s] for s in subsets)

    # Wick table: mean-zero, pairings only -> cumulants vanish for order > 2
    worst = 0.0
    for n in range(3, 7):
        ground = tuple(range(1, n + 1))
        pair_table = {
            frozenset((i, j)): complex(rng.normal(), rng.normal())
            for i, j in itertools.combinations(ground, 2)
        }
        moments = {}
        for r in range(1, n + 1):
            for combo in itertools.combinations(ground, r):
                moments[frozenset(combo)] = _wick_moment(combo, pair_table)
        connected = connected_from_moments(moments)
        for s, v in connected.items():
            if len(s) > 2:
                worst = max(worst, abs(v))
    ok = ok and worst <= tol
    return _finish(10, "connected-function-oracle", ok, {"worst_high_order": worst, "tol": tol}, t0)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_all(config: RunConfig | None = None, indices=None) -> list[CriterionResult]:
    """Run the acceptance criteria in order and return their results."""
    config = config or default_config()
    indices = sorted(indices) if indices else sorted(CRITERIA)
    return [CRITERIA[i](config) for i in indices]
