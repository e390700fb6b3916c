"""Order-by-order slow-switch series for the ramped thermal state.

The n-th term of the series is, per radial momentum,

    (1/n!) * [beta * shift / ((eps_lambda + eps) * eps)]**n
           * (d/dbeta)**n b(beta, eps)

integrated on the shifted branch against the packet pair, with
shift = lam * m0_sq.  Two independent evaluation paths are kept:

* the beta-derivative path calls the derivative tower of
  :mod:`thermalquench.thermal` directly;
* the descent-sum path expands the derivative into the Eulerian-weighted
  polynomial in (b_plus, b_minus) from :mod:`thermalquench.combinatorics`,
  carrying the overall (-1)**n that the expansion order contributes and
  that the (-eps)**n of the derivative tower absorbs.

A resummation report builds its quadrature grid once (one cached
Gauss-Legendre rule, one set of dispersions and packet pieces) and
evaluates every order on it by both paths; ``nth_order_term`` and
``partial_sum`` go through the same per-order evaluation.

The combined sign convention is frozen here once; the first-order term must
come out as  -beta * shift/(eps_lambda+eps) * b_plus*b_minus  per branch.

Summing the series is taking the Taylor expansion of b in its first
argument at the shifted inverse temperature, so the partial sums approach
the shifted-branch thermal state (the ``adiabatic`` constructor of
:mod:`thermalquench.spectral`) whenever the temperature shift stays inside
the Taylor disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import DEFAULT_ORDER_CAP, eulerian_row_recursive
from .spectral import QuadratureSpec, TestPacket, adiabatic, adiabatic_classical, pair
from .thermal import ThermalParams, bose_coefficient, bose_derivative, dispersion


@dataclass(frozen=True)
class SeriesTerm:
    """One series order: its value and the per-node weighted contributions
    (kept so ratio/envelope diagnostics need no re-integration)."""

    order: int
    path: str
    value: complex
    per_k: np.ndarray = field(repr=False)


def _grid_pieces(params: ThermalParams, f: TestPacket, g: TestPacket, quad: QuadratureSpec):
    k, w = quad.radial_rule(f, g)
    disp = dispersion(k, params)
    eps, eps_l = disp.eps, disp.eps_lambda
    weight = w * (4.0 * np.pi * k * k) / (2.0 * eps_l)
    p_plus = f.freq_component(eps_l, k) * g.freq_component(-eps_l, k)
    p_minus = f.freq_component(-eps_l, k) * g.freq_component(eps_l, k)
    return k, eps, eps_l, weight, p_plus, p_minus


def _check_order(n: int, path: str, cap: int) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"order must satisfy 1 <= n <= {cap}, got {n}")
    if path not in ("beta-derivative", "descent-sum"):
        raise ValueError(f"unknown path {path!r}")


def _term(
    n: int, params: ThermalParams, pieces, path: str, symmetrized: bool, cap: int
) -> SeriesTerm:
    """n-th series term on a grid already built by :func:`_grid_pieces`."""
    _, eps, eps_l, weight, p_plus, p_minus = pieces
    beta, shift = params.beta, params.mass_shift

    if path == "beta-derivative":
        factor = (beta * shift / ((eps_l + eps) * eps)) ** n / math.factorial(n)
        deriv = bose_derivative(n, +1, beta, eps, cap=cap)
        per_k = weight * factor * deriv * (p_plus + p_minus)
    else:
        row = eulerian_row_recursive(n, cap=cap).coefficients
        bp = bose_coefficient(+1, beta, eps)
        bm = bose_coefficient(-1, beta, eps)
        base = (-1.0) ** n * beta**n / math.factorial(n) * (shift / (eps_l + eps)) ** n
        s_plus = np.zeros_like(eps)
        for j, c in enumerate(row, start=1):
            s_plus = s_plus + c * bp ** (n + 1 - j) * bm**j
        if symmetrized:
            per_k = weight * base * s_plus * (p_plus + p_minus)
        else:
            s_minus = np.zeros_like(eps)
            for j, c in enumerate(row, start=1):
                s_minus = s_minus + c * bm ** (n + 1 - j) * bp**j
            per_k = weight * base * (p_plus * s_plus + p_minus * s_minus)

    return SeriesTerm(order=n, path=path, value=complex(np.sum(per_k)), per_k=per_k)


def nth_order_term(
    n: int,
    params: ThermalParams,
    f: TestPacket,
    g: TestPacket,
    quad: QuadratureSpec = QuadratureSpec(),
    path: str = "beta-derivative",
    symmetrized: bool = True,
    cap: int = DEFAULT_ORDER_CAP,
) -> SeriesTerm:
    """n-th series term by the chosen evaluation path.

    ``symmetrized`` only affects the descent-sum path: it collapses the two
    frequency branches through the palindromic symmetry of the Eulerian row,
    which must not change the value.
    """
    _check_order(n, path, cap)
    return _term(n, params, _grid_pieces(params, f, g, quad), path, symmetrized, cap)


def partial_sum(
    N: int,
    params: ThermalParams,
    f: TestPacket,
    g: TestPacket,
    quad: QuadratureSpec = QuadratureSpec(),
    path: str = "beta-derivative",
    cap: int = DEFAULT_ORDER_CAP,
) -> complex:
    """Zeroth term (the slow-switch classical state) plus orders 1..N, every
    order evaluated on one grid."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > 0:
        _check_order(N, path, cap)
    total = pair(adiabatic_classical(params), f, g, quad)
    pieces = _grid_pieces(params, f, g, quad)
    for n in range(1, N + 1):
        total += _term(n, params, pieces, path, True, cap).value
    return total


def shift_ratio_envelope(
    params: ThermalParams, f: TestPacket, g: TestPacket, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """max over quadrature nodes of (temperature shift)/beta.

    The thermal coefficient has its nearest singularity (in the inverse
    temperature) at 0, so this is the asymptotic geometric ratio of the
    Taylor terms at the worst node.
    """
    k, _ = quad.radial_rule(f, g)
    disp = dispersion(k, params)
    shift = params.mass_shift / ((disp.eps_lambda + disp.eps) * disp.eps)
    return float(np.max(shift))


def convergence_guard(
    params: ThermalParams, f: TestPacket, g: TestPacket, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[bool, float, float]:
    """(ok, max_shift, limit): whether the temperature shift stays inside a
    conservative convergence region on the whole quadrature grid.

    The Taylor disk of the thermal coefficient around beta has radius
    min(beta, sqrt(beta^2 + (2 pi / eps)^2)) = beta (pole at the origin);
    the imaginary poles additionally motivate the conservative cap
    pi / eps_min.  Both are enforced at the worst node.
    """
    k, _ = quad.radial_rule(f, g)
    disp = dispersion(k, params)
    delta_beta = params.beta * params.mass_shift / ((disp.eps_lambda + disp.eps) * disp.eps)
    max_shift = float(np.max(delta_beta))
    eps_min = float(np.min(disp.eps))
    limit = min(params.beta, math.pi / eps_min)
    return max_shift < limit, max_shift, limit


@dataclass(frozen=True)
class OrderRow:
    """Per-order entry of a resummation report."""

    order: int
    term: complex
    dual_path_rel_dev: float
    cumulative: complex
    rel_gap_to_closed_form: float


@dataclass(frozen=True)
class ResummationReport:
    """Outcome of comparing the partial sums against the closed form."""

    verdict: str  # "pass" | "fail" | "radius-violated"
    tol: float
    n_orders: int
    zeroth: complex
    closed_form: complex
    rows: tuple[OrderRow, ...]
    max_shift: float
    shift_limit: float
    max_dual_path_dev: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def final_rel_gap(self) -> float:
        return self.rows[-1].rel_gap_to_closed_form if self.rows else abs(
            self.zeroth - self.closed_form
        ) / abs(self.closed_form)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "n_orders": self.n_orders,
            "zeroth_re": self.zeroth.real,
            "zeroth_im": self.zeroth.imag,
            "closed_form_re": self.closed_form.real,
            "closed_form_im": self.closed_form.imag,
            "max_shift": self.max_shift,
            "shift_limit": self.shift_limit,
            "max_dual_path_dev": self.max_dual_path_dev,
            "final_rel_gap": self.final_rel_gap,
            "orders": [
                {
                    "order": r.order,
                    "term_re": r.term.real,
                    "term_im": r.term.imag,
                    "dual_path_rel_dev": r.dual_path_rel_dev,
                    "cumulative_re": r.cumulative.real,
                    "cumulative_im": r.cumulative.imag,
                    "gap_to_closed_form": r.rel_gap_to_closed_form,
                }
                for r in self.rows
            ],
        }


def verify_resummation(
    params: ThermalParams,
    f: TestPacket,
    g: TestPacket,
    N: int = 8,
    tol: float = 1e-8,
    quad: QuadratureSpec = QuadratureSpec(),
    dual_path_tol: float = 1e-10,
    cap: int = DEFAULT_ORDER_CAP,
) -> ResummationReport:
    """Run the series to order N and compare with the shifted thermal state.

    The quadrature grid and its packet pieces are built once for the whole
    report; every order is evaluated on it by both paths (beta-derivative
    and descent-sum), and their relative deviation is the dual-path check.
    If the temperature shift leaves the conservative convergence region the
    verdict is "radius-violated" rather than a failure: the sum is not
    expected to reproduce the closed form there.
    """
    ok, max_shift, limit = convergence_guard(params, f, g, quad)
    closed = pair(adiabatic(params), f, g, quad)
    zeroth = pair(adiabatic_classical(params), f, g, quad)
    denom = abs(closed)
    if denom == 0.0:
        raise ZeroDivisionError("closed-form pairing vanished; relative gaps undefined")
    if N > 0:
        _check_order(N, "beta-derivative", cap)
    pieces = _grid_pieces(params, f, g, quad)

    rows = []
    cumulative = zeroth
    max_dev = 0.0
    for n in range(1, N + 1):
        t_beta = _term(n, params, pieces, "beta-derivative", True, cap)
        t_desc = _term(n, params, pieces, "descent-sum", True, cap)
        scale = max(abs(t_beta.value), abs(t_desc.value))
        dev = abs(t_beta.value - t_desc.value) / scale if scale > 0 else 0.0
        max_dev = max(max_dev, dev)
        cumulative += t_beta.value
        rows.append(
            OrderRow(
                order=n,
                term=t_beta.value,
                dual_path_rel_dev=dev,
                cumulative=cumulative,
                rel_gap_to_closed_form=abs(cumulative - closed) / denom,
            )
        )

    if not ok:
        verdict = "radius-violated"
    else:
        final_gap = rows[-1].rel_gap_to_closed_form if rows else abs(zeroth - closed) / denom
        verdict = "pass" if final_gap <= tol and max_dev <= dual_path_tol else "fail"
    return ResummationReport(
        verdict=verdict,
        tol=tol,
        n_orders=N,
        zeroth=zeroth,
        closed_form=closed,
        rows=tuple(rows),
        max_shift=max_shift,
        shift_limit=limit,
        max_dual_path_dev=max_dev,
    )
