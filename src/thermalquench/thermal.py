"""Thermal occupation coefficients, their beta-derivative tower, and dispersions.

The two coefficients

    b_plus(beta, eps)  = 1 / (1 - exp(-beta*eps))
    b_minus(beta, eps) = 1 / (exp(beta*eps) - 1)

carry the whole thermal content of a free scalar two-point function at
inverse temperature ``beta`` and frequency ``eps``.  They satisfy
``b_plus - b_minus = 1`` and the detailed-balance relation
``b_minus = exp(-beta*eps) * b_plus``.

Differentiating in beta closes on polynomials in (b_plus, b_minus); the
coefficient triangle of that tower is built here by repeated application of
the first-order rule (the same integers arise independently in
:mod:`thermalquench.combinatorics` from permutation descents).

Finally, a shifted inverse temperature turns a frequency shift into a
temperature shift: ``shifted_beta`` satisfies ``beta' * eps = beta *
eps_lambda`` exactly, which is the identity that lets the perturbative
series in :mod:`thermalquench.series` be summed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import DEFAULT_ORDER_CAP


@dataclass(frozen=True)
class ThermalParams:
    """Physical inputs: inverse temperature, squared masses, coupling.

    The perturbation shifts the squared mass by ``lam * m0_sq``; the shifted
    mass must stay finite and positive (no tachyonic regime).
    """

    beta: float
    m_sq: float
    m0_sq: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        for name in ("beta", "m_sq", "m0_sq", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.m_sq > 0:
            raise ValueError(f"m_sq must be positive, got {self.m_sq}")
        shifted = self.m_sq + self.mass_shift
        if not math.isfinite(shifted):  # an overflowing lam*m0_sq lands here
            raise ValueError(f"shifted squared mass m_sq + lam*m0_sq must be finite, got {shifted}")
        if not shifted > 0:
            raise ValueError(f"shifted squared mass m_sq + lam*m0_sq must be positive, got {shifted}")

    @property
    def mass_shift(self) -> float:
        """The squared-mass shift lam * m0_sq."""
        return self.lam * self.m0_sq


@dataclass(frozen=True)
class DispersionPair:
    """Free and shifted frequencies at one radial momentum."""

    eps: float
    eps_lambda: float


def dispersion(k_mag, params: ThermalParams):
    """Both dispersion relations at radial momentum ``k_mag``.

    Returns a :class:`DispersionPair` for scalar input; for array input the
    fields are arrays.  ``eps = sqrt(k^2 + m_sq)`` and ``eps_lambda`` uses
    the shifted squared mass.
    """
    k = np.asarray(k_mag, dtype=float)
    if np.any(k < 0):
        raise ValueError("k_mag must be non-negative")
    eps = np.sqrt(k * k + params.m_sq)
    eps_lam = np.sqrt(k * k + params.m_sq + params.mass_shift)
    if k.ndim == 0:
        return DispersionPair(float(eps), float(eps_lam))
    return DispersionPair(eps, eps_lam)


def bose_coefficient(sign: int, beta, eps):
    """Thermal coefficient b_sign(beta, eps), stable for any beta*eps > 0.

    ``sign=+1`` gives 1/(1-exp(-x)) and ``sign=-1`` gives the Bose-Einstein
    factor 1/(exp(x)-1), with x = beta*eps.  The minus branch is computed as
    exp(-x) * b_plus so it underflows cleanly instead of cancelling.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    x = np.asarray(beta, dtype=float) * np.asarray(eps, dtype=float)
    if np.any(x <= 0):
        raise ValueError("beta*eps must be positive")
    b_plus = -1.0 / np.expm1(-x)
    if sign == +1:
        out = b_plus
    else:
        out = np.exp(-x) * b_plus
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _derivative_monomials(n: int) -> tuple[tuple[int, int, int], ...]:
    """Monomials (coeff, p, q) such that the n-th beta derivative of b equals
    (-eps)**n * sum(coeff * b_plus**p * b_minus**q).

    Built by iterating the first-order rule d(b)/d(beta) = -eps*b_plus*b_minus
    through the product rule; coefficients are exact integers.
    """
    coeffs: dict[tuple[int, int], int] = {(1, 1): 1}
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (p, q), c in coeffs.items():
            # d(b_plus^p b_minus^q) = -eps * (p b_plus^p b_minus^(q+1)
            #                                 + q b_plus^(p+1) b_minus^q)
            nxt[(p, q + 1)] = nxt.get((p, q + 1), 0) + p * c
            nxt[(p + 1, q)] = nxt.get((p + 1, q), 0) + q * c
        coeffs = nxt
    return tuple(sorted((c, p, q) for (p, q), c in coeffs.items()))


def bose_derivative(n: int, sign: int, beta, eps):
    """n-th beta derivative of the thermal coefficient.

    For n >= 1 the result is sign-independent (the two coefficients differ
    by a constant).  Orders beyond ``DEFAULT_ORDER_CAP`` are rejected: the integer
    coefficients grow factorially and nothing downstream needs them.
    """
    if n < 0:
        raise ValueError(f"derivative order must be >= 0, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise ValueError(f"derivative order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    if n == 0:
        return bose_coefficient(sign, beta, eps)
    b_plus = bose_coefficient(+1, beta, eps)
    b_minus = bose_coefficient(-1, beta, eps)
    eps_arr = np.asarray(eps, dtype=float)
    acc = np.zeros(np.broadcast(np.asarray(b_plus), eps_arr).shape)
    for c, p, q in _derivative_monomials(n):
        acc = acc + c * b_plus**p * b_minus**q
    out = (-eps_arr) ** n * acc
    return float(out) if out.ndim == 0 else out


def shifted_beta(params: ThermalParams, disp: DispersionPair):
    """Inverse temperature beta' with beta' * eps = beta * eps_lambda exactly.

    beta' = beta * (1 + lam*m0_sq / ((eps_lambda + eps) * eps)), so the
    thermal coefficients at (beta', eps) coincide with those at
    (beta, eps_lambda).
    """
    shift = params.mass_shift / ((disp.eps_lambda + disp.eps) * disp.eps)
    return params.beta * (1.0 + shift)
