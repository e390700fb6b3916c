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

A resummation report builds one grid (one radial rule, its dispersions,
the pairing integrand of :mod:`thermalquench.spectral` on the shifted
branch and the free-frequency thermal coefficients) and reads the
convergence guard, the closed form, the zeroth term and every order by
both paths from it; ``nth_order_term`` builds its own grid through the
same code.  The guard is read from the report (``verdict``, ``max_shift``
and ``shift_limit``); it measures the largest |delta_beta| over the nodes,
so a negative shift is held to the same disk as a positive one.  A report
of order 0 computes the guard and no term.

The report's fields are its output schema: each field is a JSON key of
``series.json`` (a complex field is two keys, ``<name>_re`` and
``<name>_im``), and the flattened fields of one :class:`OrderRow` are the
keys of one entry of "orders" and the columns of ``series.csv``.

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
from dataclasses import dataclass, field, fields

import numpy as np

from .combinatorics import DEFAULT_ORDER_CAP, eulerian_row_recursive
from .spectral import QuadratureSpec, TestPacket, pairing_integrand
from .thermal import ThermalParams, bose_coefficient, bose_derivative, dispersion

# the report's bounds: on the final relative gap to the closed form, and on
# the relative deviation between the two evaluation paths of any order
FINAL_REL_TOL = 1e-8
DUAL_PATH_TOL = 1e-10


@dataclass(frozen=True)
class SeriesTerm:
    """One series order: its value and the per-node weighted contributions."""

    order: int
    path: str
    value: complex
    per_k: np.ndarray = field(repr=False)


def _grid(params: ThermalParams, f: TestPacket, g: TestPacket, quad: QuadratureSpec):
    """(eps, eps_lambda, weight, p_plus, p_minus, b_plus, b_minus) on one radial
    rule: the pairing integrand on the shifted branch and the thermal
    coefficients at the free frequency."""
    k, w = quad.radial_rule(f, g)
    disp = dispersion(k, params)
    eps, eps_l = disp.eps, disp.eps_lambda
    bp, bm = bose_coefficient(+1, params.beta, eps), bose_coefficient(-1, params.beta, eps)
    return (eps, eps_l, *pairing_integrand(k, w, eps_l, f, g), bp, bm)


def _check_order(n: int, path: str) -> None:
    if not 1 <= n <= DEFAULT_ORDER_CAP:
        raise ValueError(f"order must satisfy 1 <= n <= {DEFAULT_ORDER_CAP}, got {n}")
    if path not in ("beta-derivative", "descent-sum"):
        raise ValueError(f"unknown path {path!r}")


def _term(n: int, params: ThermalParams, grid, path: str) -> SeriesTerm:
    """n-th series term on a grid already built by :func:`_grid`."""
    eps, eps_l, weight, p_plus, p_minus, bp, bm = grid
    beta, shift = params.beta, params.mass_shift

    if path == "beta-derivative":
        factor = (beta * shift / ((eps_l + eps) * eps)) ** n / math.factorial(n)
        deriv = bose_derivative(n, +1, beta, eps)
        per_k = weight * factor * deriv * (p_plus + p_minus)
    else:
        row = eulerian_row_recursive(n).coefficients
        base = (-1.0) ** n * beta**n / math.factorial(n) * (shift / (eps_l + eps)) ** n
        # the minus branch's sum, with bp and bm exchanged, is the same
        # polynomial because the Eulerian row is a palindrome
        s_plus = np.zeros_like(eps)
        for j, c in enumerate(row, start=1):
            s_plus = s_plus + c * bp ** (n + 1 - j) * bm**j
        per_k = weight * base * s_plus * (p_plus + p_minus)

    return SeriesTerm(order=n, path=path, value=complex(np.sum(per_k)), per_k=per_k)


def nth_order_term(
    n: int,
    params: ThermalParams,
    f: TestPacket,
    g: TestPacket,
    quad: QuadratureSpec = QuadratureSpec(),
    path: str = "beta-derivative",
) -> SeriesTerm:
    """n-th series term by the chosen evaluation path."""
    _check_order(n, path)
    return _term(n, params, _grid(params, f, g, quad), path)


def _guard(params: ThermalParams, grid) -> tuple[float, float]:
    """(max_shift, limit) on a grid built by :func:`_grid`: the largest
    temperature shift |delta_beta| over the nodes and the radius of a
    conservative convergence region; the series is inside it when
    ``max_shift < limit``.

    The Taylor disk of the thermal coefficient around beta has radius
    min(beta, sqrt(beta^2 + (2 pi / eps)^2)) = beta (pole at the origin);
    the imaginary poles additionally motivate the conservative cap
    pi / eps_min.  Both are enforced at the worst node, whichever the sign
    of the shift.  ``max_shift / beta`` is the asymptotic geometric ratio of
    the Taylor terms at the worst node.  A shift or limit that is not finite
    (``beta * shift`` overflows as a Python float without a warning) is a
    numerical failure: ``ArithmeticError``.
    """
    eps, eps_l = grid[:2]
    delta_beta = params.beta * params.mass_shift / ((eps_l + eps) * eps)
    max_shift = float(np.max(np.abs(delta_beta)))
    limit = min(params.beta, math.pi / float(np.min(eps)))
    if not (math.isfinite(max_shift) and math.isfinite(limit)):
        raise ArithmeticError(
            f"convergence guard: temperature shift {max_shift:.3g} or its limit {limit:.3g} "
            "is not finite"
        )
    return max_shift, limit


def _flat(obj) -> dict:
    """A dataclass as JSON keys: each field by its name, a complex one as
    ``<name>_re`` and ``<name>_im``."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, complex):
            doc[f"{f.name}_re"], doc[f"{f.name}_im"] = value.real, value.imag
        else:
            doc[f.name] = value
    return doc


@dataclass(frozen=True)
class OrderRow:
    """Per-order entry of a resummation report; its fields, flattened by
    :func:`_flat`, are the per-order JSON keys and the ``series.csv``
    columns in this order."""

    order: int
    term: complex
    cumulative: complex
    gap_to_closed_form: float
    dual_path_rel_dev: float


@dataclass(frozen=True)
class ResummationReport:
    """Outcome of comparing the partial sums against the closed form; its
    fields, flattened by :func:`_flat`, are the JSON keys, with ``rows``
    under "orders"."""

    verdict: str  # "pass" | "fail" | "radius-violated"
    tol: float
    n_orders: int
    zeroth: complex
    closed_form: complex
    rows: tuple[OrderRow, ...]
    max_shift: float
    shift_limit: float
    max_dual_path_dev: float
    final_rel_gap: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        doc = _flat(self)
        doc["orders"] = [_flat(r) for r in doc.pop("rows")]
        return doc


def verify_resummation(
    params: ThermalParams,
    f: TestPacket,
    g: TestPacket,
    N: int = 8,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ResummationReport:
    """Run the series to order N and compare with the shifted thermal state.

    One grid serves the convergence guard, the closed form, the zeroth term
    and every order by both paths (beta-derivative and descent-sum), whose
    relative deviation is the dual-path check.  The verdict is "pass" when
    the final relative gap is within ``FINAL_REL_TOL`` and every order's
    dual-path deviation within ``DUAL_PATH_TOL``.  If the temperature shift
    leaves the conservative convergence region the verdict is
    "radius-violated" rather than a failure: the sum is not expected to
    reproduce the closed form there.  ``N=0`` computes the guard and no
    order, and its gap is the zeroth term's; an N outside
    [0, DEFAULT_ORDER_CAP] raises ``ValueError``.
    """
    grid = _grid(params, f, g, quad)
    _, eps_l, weight, p_plus, p_minus, bp, bm = grid
    max_shift, limit = _guard(params, grid)
    # spectral.pair's sum, with the coefficients of adiabatic and adiabatic_classical
    cp, cm = bose_coefficient(+1, params.beta, eps_l), bose_coefficient(-1, params.beta, eps_l)
    closed = complex(np.sum(weight * (cp * p_plus + cm * p_minus)))
    zeroth = complex(np.sum(weight * (bp * p_plus + bm * p_minus)))
    denom = abs(closed)
    if denom == 0.0:
        raise ZeroDivisionError("closed-form pairing vanished; relative gaps undefined")
    if N != 0:
        _check_order(N, "beta-derivative")

    rows = []
    cumulative = zeroth
    max_dev = 0.0
    for n in range(1, N + 1):
        t_beta = _term(n, params, grid, "beta-derivative")
        t_desc = _term(n, params, grid, "descent-sum")
        scale = max(abs(t_beta.value), abs(t_desc.value))
        dev = abs(t_beta.value - t_desc.value) / scale if scale > 0 else 0.0
        max_dev = max(max_dev, dev)
        cumulative += t_beta.value
        rows.append(OrderRow(n, t_beta.value, cumulative, abs(cumulative - closed) / denom, dev))

    final_gap = abs(cumulative - closed) / denom
    if max_shift >= limit:
        verdict = "radius-violated"
    else:
        verdict = "pass" if final_gap <= FINAL_REL_TOL and max_dev <= DUAL_PATH_TOL else "fail"
    return ResummationReport(
        verdict=verdict,
        tol=FINAL_REL_TOL,
        n_orders=N,
        zeroth=zeroth,
        closed_form=closed,
        rows=tuple(rows),
        max_shift=max_shift,
        shift_limit=limit,
        max_dual_path_dev=max_dev,
        final_rel_gap=final_gap,
    )
