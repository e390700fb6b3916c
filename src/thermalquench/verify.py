"""The acceptance suite: ten quantitative criteria with pinned tolerances.

Each criterion returns a :class:`CriterionResult` with the measured numbers
so the CLI summary and the test suite report the same values.  Criteria that
the suite cannot meaningfully run (the series comparison outside its
convergence region) are skipped with a reason instead of failing.

A criterion is declared once: one function, registered by
``@_criterion(index, name)``, takes the config and the run's solve memo and
returns ``(ok, measured)``, or ``(None, measured, reason)`` for a skip.  The
runner times it, builds its result and enters it in :data:`CRITERIA` as
``criterion_<index>``; a numerical breakdown inside it reaches the caller
with ``criterion <index> (<name>): `` in front of its message.  Its bounds
go in :data:`TOLERANCES` and its budget in :data:`RUNTIME_BUDGETS_S`.

The tolerances (:data:`TOLERANCES`), the runtime budgets and the parameter
points that the criteria pin are hard-coded here, except the two series
bounds: :mod:`thermalquench.series` declares and applies them, and the table
lists them by name.  The ladders, packets and quadrature density come from
the :class:`~thermalquench.config.RunConfig`, whose defaults reproduce the
reference desk-scale setup.

Criterion 2 reads the derivative tower's orders 1-8 at three (beta, eps)
points against the Taylor coefficients of the closed form b_plus on
complex beta', by the trapezoid rule on a circle (``_taylor_on_circle``)
of radius r = min(beta, 2 pi / eps) / 2 with M = 64 points: orders 1-4
read 4.1e-16 and orders 1-8 5.8e-15, each under its own bound.

Criteria 4, 5 and 8 read one trajectory suite (see ``_suite_trajectories``)
from the solve memo.  The memo is a value of one run, never module state:
:func:`run_all`, which ``verify-all`` calls, makes one and hands it to every
criterion, and a criterion called alone makes its own, so two runs in one
process, in turn or at once on two threads, never read each other's solves.
Under :func:`run_all` the suite is solved once: the run solves 11 rungs in
3 ramp-solve calls on the default config, the suite's six in one ladder
solve at the default tolerances (the mu ladder, the unit-scale switch and
the sharp switch), criterion 6's four in another and criterion 9's one,
the run's one solve at tight tolerances.  Criterion 6's ladder solve
batches only the radial nodes that the screen of its one
:func:`~thermalquench.spectral.pairing_plan` keeps: 42 of the 64 on the
default config, on grids of 71 to 563 steps.
Criterion 4 pays for the suite, so the ``runtime_s`` of criteria 5 and 8
covers only their reads; criterion 5 reads the mu ladder's switching
integrals in one pass.  A criterion run alone, as ``pytest
tests/test_acceptance.py`` runs each, pays for its own suite: one call of
six rungs for each of criteria 4, 5 and 8.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import modes
from .combinatorics import (
    connected_from_moments,
    eulerian_row_by_enumeration,
    eulerian_row_recursive,
    moments_from_connected,
)
from .config import RunConfig
from .modes import (
    BogoliubovPair,
    IntegratorError,
    SwitchingProfile,
    _switch_integrals,
    bogoliubov,
    solve_modes,
    sudden_quench_pair,
    switch_integral_limit,
)
from .series import DUAL_PATH_TOL, FINAL_REL_TOL, ResummationReport, verify_resummation
from .spectral import adiabatic_classical, ness_classical, pair, pair_finite_mu, pairing_plan
from .thermal import ThermalParams, bose_coefficient, bose_derivative, dispersion, shifted_beta

# Mode-physics bench shared by the ramp criteria: unit masses, strong shift.
MODE_PARAMS = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)
SUDDEN_MU = 1e-3
# solver tolerances of the steady-state map (see ``ness_bogoliubov_map``)
_TIGHT_SOLVE = {"rtol": 1e-12, "atol": 1e-14}

TOLERANCES = {
    "derivative_tower_rel": 1e-6,
    "derivative_tower_to_8_rel": 1e-13,
    "temperature_shift_abs": 1e-12,
    "wronskian_abs": 1e-8,
    "continuity_rel": 1e-14,
    "switch_final_abs": 1e-2,
    "pairing_final_rel": 1e-2,
    "series_final_rel": FINAL_REL_TOL,
    "series_dual_path_rel": DUAL_PATH_TOL,
    "bogoliubov_norm_abs": 1e-8,
    "sudden_quench_abs": 1e-3,
    "ness_ccr_abs": 1e-10,
    "ness_limit_abs": 1e-12,
    "cumulant_vanish_abs": 1e-12,
}

RUNTIME_BUDGETS_S = {
    1: 0.03,
    2: 0.017,
    3: 0.037,
    4: 0.081,
    5: 0.1,
    6: 0.45,
    7: 0.031,
    8: 0.075,
    9: 0.033,
    10: 0.052,
}


@dataclass
class CriterionResult:
    index: int
    name: str
    status: str  # "pass" | "fail" | "skip"
    measured: dict = field(default_factory=dict)
    reason: str = ""
    runtime_s: float = 0.0

    def summary_line(self) -> str:
        head = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[self.status]
        nums = "  ".join(f"{k}={v:.3e}" for k, v in self.measured.items())
        tail = f"  [{self.reason}]" if self.reason else ""
        return f"{head}  {self.index:2d}. {self.name}: {nums}{tail}  ({self.runtime_s:.2f}s)"

    def to_dict(self) -> dict:
        return {**vars(self), "measured": dict(self.measured)}


# index -> registered criterion; run_all runs them in index order
CRITERIA: dict = {}


def _criterion(index: int, name: str):
    """Register a check as criterion ``index``, named ``name``.

    The check takes the config and a solve memo (see :func:`_suite_trajectories`)
    and returns ``(ok, measured)``, or ``(None, measured, reason)`` for a
    skip.  The registered function, which the decorator also returns as the
    module's ``criterion_<index>``, takes the config and the memo of the run
    it belongs to, or, called alone, makes a fresh memo; it times the check
    and builds its :class:`CriterionResult`.  A numerical breakdown in the
    check (``IntegratorError`` or ``ArithmeticError``) reaches the caller as
    the same exception object, its message led by ``criterion <index>
    (<name>): ``; any other exception reaches it unchanged."""

    def register(check):
        @functools.wraps(check)
        def timed(config: RunConfig, memo: dict | None = None) -> CriterionResult:
            t0 = time.perf_counter()
            try:
                ok, measured, *reason = check(config, {} if memo is None else memo)
            except (IntegratorError, ArithmeticError) as exc:
                # args, not add_note: the CLI prints str(exc), which shows
                # no notes, and Python 3.10 has no add_note
                exc.args = (f"criterion {index} ({name}): {exc}",)
                raise
            status = "skip" if ok is None else "pass" if ok else "fail"
            return CriterionResult(index, name, status, measured, *reason, runtime_s=time.perf_counter() - t0)

        CRITERIA[index] = timed
        return timed

    return register


def eulerian_rows():
    """(recursive, enumerated) Eulerian rows for n = 1..8: what ``eulerian``
    tabulates and criterion 1 checks."""
    return [(eulerian_row_recursive(n), eulerian_row_by_enumeration(n)) for n in range(1, 9)]


@_criterion(1, "eulerian-cross-oracle")
def criterion_1(config: RunConfig, memo: dict):
    """Eulerian rows: recursion equals enumeration exactly for n <= 8."""
    ok = True
    for rec, enum in eulerian_rows():
        ok = ok and rec.coefficients == enum.coefficients
        ok = ok and rec.row_sum == math.factorial(rec.n)
        ok = ok and rec.coefficients == rec.coefficients[::-1]
    return ok, {"max_n": 8.0}


def _taylor_on_circle(f, z0, r, M: int):
    """The Taylor coefficients c_0, ..., c_{M-1} of f about ``z0``, by the
    trapezoid rule on the circle |z - z0| = r with M points, one row per
    entry of ``z0`` and ``r`` (Trefethen and Weideman, SIAM Rev. 56 (2014)
    385).  ``f`` maps the complex points, shaped (..., M), to its values.

    For f analytic in a disc of radius R > r about z0, the rule's c_n is
    c_n + c_{n+M} r**M + c_{n+2M} r**(2M) + ..., an aliasing error of order
    (r/R)**M, and its rounding, about unit roundoff times max |f| on the
    circle, is amplified by r**-n (Bornemann, Found. Comput. Math. 11 (2011)
    1)."""
    z0, r = np.asarray(z0), np.asarray(r)
    z = z0[..., None] + r[..., None] * np.exp(2j * np.pi * np.arange(M) / M)
    return np.fft.fft(f(z)) / M / r[..., None] ** np.arange(M)


@_criterion(2, "derivative-tower")
def criterion_2(config: RunConfig, memo: dict):
    """Derivative tower against the Taylor coefficients of the closed form.

    b_plus(beta' eps) = -1/expm1(-beta' eps), written here on complex beta',
    is analytic off its poles 2 pi i n / eps, the nearest at beta' = 0, so
    :func:`_taylor_on_circle` about beta, at r = min(beta, 2 pi / eps) / 2
    (at most half the distance to that pole and half the poles' spacing)
    and M = 64 points, gives each n-th beta-derivative as n! c_n with an
    aliasing error of at most 2**-64.  The closed form never calls
    :func:`~thermalquench.thermal.bose_coefficient`, so the oracle does not
    read the code it checks.  Measured at the three (beta, eps) points:
    orders 1-4 (``worst_rel``) 4.1e-16 and orders 1-8 (``worst_rel_to_8``)
    5.8e-15 of the tower, 6.3e-15 of 50-digit values; M = 32 reads 2.7e-10.
    Past order 8 the r**-n rounding grows, and the series' default top order
    is 8."""
    tol, tol_8 = TOLERANCES["derivative_tower_rel"], TOLERANCES["derivative_tower_to_8_rel"]
    beta, eps = np.array([1.0, 0.5, 2.0]), np.array([1.0, 2.0, 0.7])
    coeffs = _taylor_on_circle(
        lambda z: -1.0 / np.expm1(-z * eps[:, None]), beta, np.minimum(beta, 2 * np.pi / eps) / 2, 64
    )
    orders = np.arange(1, 9)
    exact = np.array([bose_derivative(n, +1, beta, eps) for n in range(1, 9)]).T
    # n! c_n, with n! as the running product of 1..n
    rel = np.abs(coeffs[:, orders].real * np.cumprod(orders) - exact) / np.abs(exact)
    # np.max, unlike max, keeps a NaN, which then fails its bound
    worst, worst_8 = float(np.max(rel[:, :4])), float(np.max(rel))
    ok = worst <= tol and worst_8 <= tol_8
    return ok, {"worst_rel": worst, "worst_rel_to_8": worst_8, "tol": tol, "tol_to_8": tol_8}


@_criterion(3, "temperature-shift-identity")
def criterion_3(config: RunConfig, memo: dict):
    """Temperature-shift identity on a 100-point (k, lam) grid."""
    tol = TOLERANCES["temperature_shift_abs"]
    ks = np.linspace(0.0, 3.0, 10)
    worst = 0.0
    for lam in np.linspace(0.0, 0.9, 10):
        p = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=float(lam))
        d = dispersion(ks, p)
        bp = shifted_beta(p, d)
        for sign in (+1, -1):
            lhs = bose_coefficient(sign, bp, d.eps)
            rhs = bose_coefficient(sign, p.beta, d.eps_lambda)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= tol, {"worst_abs": worst, "tol": tol}


def _suite_trajectories(config: RunConfig, memo: dict):
    """The trajectory suite over ``config.k_values``, one ladder solve at
    the default tolerances: the mu ladder, the unit-scale switch and, last,
    the sharp switch at ``SUDDEN_MU``.  Its readers, in run order:
    criterion 4 (every solve's Wronskian drift and its closed form past
    t = 0), criterion 5 (the switching integrals of the mu ladder's solves)
    and criterion 8 (every solve's Bogoliubov pairs).  The suite is kept in
    ``memo``: the first reader solves and the others read, so under
    :func:`run_all` criterion 4 pays for it and criteria 5 and 8 only read.
    The memo belongs to one call of :func:`run_all`, which hands it to every
    criterion, or to one criterion called alone, and dies with it."""
    if "suite" not in memo:
        profs = [SwitchingProfile(mu) for mu in (*config.mu_ladder, 1.0, SUDDEN_MU)]
        memo["suite"] = modes._ramp_solve(np.array(config.k_values), profs, MODE_PARAMS)
    return memo["suite"]


@_criterion(4, "wronskian-health")
def criterion_4(config: RunConfig, memo: dict):
    """Wronskian drift across every trajectory in the suite, at its grid
    nodes and in the closed form that ``evaluate`` gives past the switch, at
    t = 0, 1 and 7.3, and the continuity of that closed form with the
    solve's node at t = 0: (|dT| + |dTdot|/eps_lambda) / (|T| +
    |Tdot|/eps_lambda), relative to the node.  Both read the post-switch
    form through :mod:`thermalquench.modes`, where a pair put on the wrong
    signs of frequency breaks them."""
    tol, cont_tol = TOLERANCES["wronskian_abs"], TOLERANCES["continuity_rel"]
    drifts, gaps = [], []
    for traj in _suite_trajectories(config, memo):
        T, Td = traj.evaluate(np.array([0.0, 1.0, 7.3]))
        (node, node_d), el = (modes._complex(part) for part in traj.y[:, :, -1]), traj.eps_lambda
        gap = np.abs(T[:, 0] - node) + np.abs(Td[:, 0] - node_d) / el
        drifts += [traj.worst_drift, np.max(np.abs(T * np.conj(Td) - Td * np.conj(T) - 1j))]
        gaps.append(np.max(gap / (np.abs(node) + np.abs(node_d) / el)))
    # np.max, unlike max, keeps a NaN, which then fails its bound
    worst, continuity = float(np.max(drifts)), float(np.max(gaps))
    ok = worst <= tol and continuity <= cont_tol
    return ok, {"worst_abs": worst, "worst_continuity": continuity, "tol": tol}


@_criterion(5, "switch-integral-ladder")
def criterion_5(config: RunConfig, memo: dict):
    """Switching-integral ladder: gaps strictly decreasing, final below target."""
    tol = TOLERANCES["switch_final_abs"]
    ks = np.array(config.k_values)
    ladder = _switch_integrals(*_suite_trajectories(config, memo)[: len(config.mu_ladder)])
    i_sq, i_abs = (np.array(x) for x in zip(*ladder))  # rows: mu ladder, columns: k
    gaps_abs = np.abs(i_abs - switch_integral_limit(ks, MODE_PARAMS))
    gaps_sq = np.abs(i_sq)
    ok = all(np.all(np.diff(g, axis=0) < 0) and np.all(g[-1] <= tol) for g in (gaps_abs, gaps_sq))
    return ok, {"final_abs_gap": float(gaps_abs[-1].max()), "final_sq": float(gaps_sq[-1].max()), "tol": tol}


@_criterion(6, "finite-switch-pairing-ladder")
def criterion_6(config: RunConfig, memo: dict):
    """Time-domain pairing ladder toward the slow-switch classical state.

    The ladder lays one radial rule for its target and one for its
    :func:`~thermalquench.spectral.pairing_plan`, whose screen, early
    factors and transforms hold at every switching scale; one ladder solve
    carries the plan's kept nodes through every rung, and each rung only
    projects them, reading them before t = 0 only where the proved bound
    on the early correction reaches unit roundoff of the closed form: on
    the default config no rung reads between grid nodes.  A plan that keeps
    no node pairs to 0 at every rung, with no solve."""
    tol = TOLERANCES["pairing_final_rel"]
    f, g = config.packet_pair
    quad = config.quadrature
    target = pair(adiabatic_classical(MODE_PARAMS), f, g, quad)
    if target == 0.0:
        raise ZeroDivisionError("slow-switch target pairing vanished; relative gaps undefined")
    plan = pairing_plan(MODE_PARAMS, f, g, quad)
    profs = [SwitchingProfile(mu) for mu in config.mu_ladder]
    vals = [0j] * len(profs)
    if plan.k.size:
        vals = [pair_finite_mu(traj, plan) for traj in modes._ramp_solve(plan.k, profs, plan.params)]
    gaps = [abs(val - target) / abs(target) for val in vals]
    ok = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= tol
    return ok, {"final_rel_gap": gaps[-1], "first_rel_gap": gaps[0], "tol": tol}


def series_report(config: RunConfig) -> ResummationReport:
    """The config's resummation report, to the largest order of its ladder:
    what ``series`` writes and criterion 7 judges."""
    f, g = config.packet_pair
    return verify_resummation(config.params, f, g, N=max(config.order_ladder), quad=config.quadrature)


@_criterion(7, "series-resummation")
def criterion_7(config: RunConfig, memo: dict):
    """Series resummation against the shifted thermal state."""
    report = series_report(config)
    measured = {
        "final_rel_gap": report.final_rel_gap,
        "max_dual_path_dev": report.max_dual_path_dev,
        "tol": report.tol,
    }
    if report.verdict == "radius-violated":
        return None, measured, (
            f"temperature shift {report.max_shift:.3g} exceeds convergence "
            f"limit {report.shift_limit:.3g}; resummation not expected to converge"
        )
    return report.passed, measured


@_criterion(8, "bogoliubov-normalization")
def criterion_8(config: RunConfig, memo: dict):
    """Bogoliubov normalization everywhere; sharp ramp matches the jump oracle."""
    norm_tol = TOLERANCES["bogoliubov_norm_abs"]
    sudden_tol = TOLERANCES["sudden_quench_abs"]
    pairs = [bogoliubov(traj) for traj in _suite_trajectories(config, memo)]
    worst_norm = float(max(np.max(p.normalization_residual) for p in pairs))
    sharp = pairs[-1]
    oracle = sudden_quench_pair(np.array(config.k_values), MODE_PARAMS)
    worst_sudden = float(
        max(np.max(np.abs(sharp.a_plus - oracle.a_plus)), np.max(np.abs(sharp.a_minus - oracle.a_minus)))
    )
    ok = worst_norm <= norm_tol and worst_sudden <= sudden_tol
    return ok, {"worst_norm": worst_norm, "worst_sudden_gap": worst_sudden, "tol_norm": norm_tol}


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
            traj = solve_modes(k, SwitchingProfile(mu), params, **_TIGHT_SOLVE)
            solved[key] = bogoliubov(traj)
        return solved[key]

    return bog


@_criterion(9, "ness-spectral-data")
def criterion_9(config: RunConfig, memo: dict):
    """Steady-state spectral data: commutator normalization and the
    no-production limit."""
    ccr_tol = TOLERANCES["ness_ccr_abs"]
    id_tol = TOLERANCES["ness_limit_abs"]
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
    return ok, {"worst_ccr": worst_ccr, "worst_identity": worst_id, "tol_ccr": ccr_tol}


def _wick_moments(ground: tuple, table: dict) -> dict:
    """Every moment of a shifted Gaussian over the items of ``ground`` (the
    quasi-free oracle): the table holds each item's mean under its singleton
    and each pair's covariance under the pair, and m(S) sums, over the
    partitions of S into singletons and pairs, the product of their entries.
    Each S is built from its least item a: m(S) = mean(a) m(S - a) plus,
    over the b in S, cov(a, b) m(S - a - b)."""
    moments = {(): 1.0}
    for r in range(1, len(ground) + 1):
        for subset in itertools.combinations(ground, r):
            a, rest = subset[0], subset[1:]
            total = table[frozenset((a,))] * moments[rest]
            for i, b in enumerate(rest):
                total += table[frozenset((a, b))] * moments[rest[:i] + rest[i + 1 :]]
            moments[subset] = total
    return {frozenset(s): m for s, m in moments.items() if s}


@_criterion(10, "connected-function-oracle")
def criterion_10(config: RunConfig, memo: dict):
    """Cumulant inversion: exact round trip; quasi-free tables have no
    connected parts beyond order two."""
    tol = TOLERANCES["cumulant_vanish_abs"]

    # integer-valued synthetic moments round-trip with exact float arithmetic
    rng = random.Random(20240817)
    ok = True
    for n in range(1, 6):
        subsets = [
            frozenset(c)
            for r in range(1, n + 1)
            for c in itertools.combinations(range(1, n + 1), r)
        ]
        moments = {s: complex(rng.randint(-4, 4), rng.randint(-4, 4)) for s in subsets}
        back = moments_from_connected(connected_from_moments(moments))
        ok = ok and all(back[s] == moments[s] for s in subsets)

    # Wick tables with means: singletons and pairings only -> cumulants
    # vanish for order > 2, and a recursion that mishandles the singleton
    # blocks leaves them non-zero
    worst = 0.0
    for n in range(3, 7):
        ground = tuple(range(1, n + 1))
        table = {
            frozenset(c): complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            for r in (1, 2)
            for c in itertools.combinations(ground, r)
        }
        connected = connected_from_moments(_wick_moments(ground, table))
        for s, v in connected.items():
            if len(s) > 2:
                worst = max(worst, abs(v))
    ok = ok and worst <= tol
    return ok, {"worst_high_order": worst, "tol": tol}


def run_all(config: RunConfig) -> Iterator[CriterionResult]:
    """Run the acceptance criteria in order, yielding each result as its
    criterion finishes.  The run makes one solve memo and hands it to every
    criterion, so each solve of the trajectory suite is made once for the
    run; the memo is the run's alone, so two runs never read each other's
    solves, and it is dropped with the generator when it ends, raises or is
    closed."""
    memo: dict = {}
    for i in sorted(CRITERIA):
        yield CRITERIA[i](config, memo)
