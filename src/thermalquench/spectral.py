"""Quasi-free two-point functions as spectral data, and their pairings.

A state is a frequency branch (the free dispersion or the shifted one)
together with two coefficient functions of radial momentum.  Pairing two
rotationally symmetric test packets against a state reduces to a single
radial integral

    integral dk 4 pi k^2 / (2 w(k)) * [ c_plus(k)  fhat(+w, k) ghat(-w, k)
                                      + c_minus(k) fhat(-w, k) ghat(+w, k) ],

evaluated by Gauss-Legendre on a Gaussian-damped integrand.

Momentum-space convention: fhat(w, k) = integral dt exp(-i*w*t) fmt(t, k),
where fmt is the packet's mixed time/momentum representation.  With this
choice the incoming plane-wave mode exp(-i*eps*t) lands on the +eps slot,
which makes the time-domain pairing below agree with the spectral one
without any branch swap.

The time-domain pairing ``pair_finite_mu`` evaluates the state obtained by
dragging the free thermal state through the switched mass ramp at finite
switching scale; as the scale grows it approaches the shifted-branch state
that keeps the free thermal coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .modes import BogoliubovPair, SwitchingProfile, solve_modes
from .thermal import ThermalParams, bose_coefficient, dispersion


# the radial rule runs to TAIL_SIGMAS momentum widths past the farther
# packet centre, and the time rule over TIME_SIGMAS widths each side of a
# packet's centre
TAIL_SIGMAS = 9.0
TIME_SIGMAS = 8.0


@dataclass(frozen=True)
class TestPacket:
    """Gaussian test packet given directly by its momentum-space data.

    Radial Gaussian in momentum (center ``k_center``, width ``k_width``)
    times a Gaussian temporal profile (center ``t_center``, width
    ``t_width``).  Rotational symmetry is built in, so the packet at -k
    equals the packet at k.
    """

    k_center: float = 1.0
    k_width: float = 0.5
    t_center: float = 0.0
    t_width: float = 0.5

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k_center, self.k_width, self.t_center, self.t_width))):
            raise ValueError(f"packet fields must be finite, got {self}")
        # the profiles divide by the squared widths, so a square must not underflow to 0
        widths = (self.k_width, self.t_width)
        if not (self.k_center >= 0) or not all(w > 0 and w**2 > 0 for w in widths):
            raise ValueError("packet requires k_center >= 0 and widths with positive squares")

    def spatial(self, k):
        k = np.asarray(k, dtype=float)
        return np.exp(-((k - self.k_center) ** 2) / (2.0 * self.k_width**2))

    def temporal(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-((t - self.t_center) ** 2) / (2.0 * self.t_width**2))

    def temporal_hat(self, omega):
        """integral dt exp(-i*omega*t) * temporal(t), in closed form."""
        omega = np.asarray(omega, dtype=float)
        s = self.t_width
        return (
            math.sqrt(2.0 * math.pi)
            * s
            * np.exp(-1j * omega * self.t_center - 0.5 * s * s * omega * omega)
        )

    def freq_component(self, omega, k):
        """fhat(omega, k): the packet evaluated on a frequency branch."""
        return self.spatial(k) * self.temporal_hat(omega)

    def time_support(self, n_sigma: float = TIME_SIGMAS) -> tuple[float, float]:
        """Interval outside which the temporal profile is negligible."""
        return (
            self.t_center - n_sigma * self.t_width,
            self.t_center + n_sigma * self.t_width,
        )


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """numpy's n-point Gauss-Legendre rule on [-1, 1], computed once per node
    count (``leggauss`` is a dense O(n^3) eigen-solve) and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts of the pairing integrals."""

    n_radial: int = 64
    n_time: int = 80

    def __post_init__(self):
        if self.n_radial < 1 or self.n_time < 1:
            raise ValueError(
                f"node counts must be >= 1, got n_radial={self.n_radial}, n_time={self.n_time}"
            )

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(n_radial=2 * self.n_radial, n_time=2 * self.n_time)

    def radial_rule(self, *packets: TestPacket):
        """Gauss-Legendre nodes/weights on [0, k_max]; the cutoff keeps every
        packet tail below ~1e-16 of its peak.

        The rule on [-1, 1] is cached per node count and read-only; the
        returned nodes and weights are fresh arrays scaled from it."""
        k_max = max(p.k_center + TAIL_SIGMAS * p.k_width for p in packets)
        x, w = _gauss_legendre(self.n_radial)
        nodes = 0.5 * k_max * (x + 1.0)
        weights = 0.5 * k_max * w
        return nodes, weights

    def time_rule(self, packet: TestPacket):
        lo, hi = packet.time_support()
        x, w = _gauss_legendre(self.n_time)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return mid + half * x, half * w


@dataclass(frozen=True)
class SpectralState:
    """Two-point function as coefficients on a frequency branch.

    ``branch`` selects the dispersion ("free" or "shifted"); the physical
    (Hadamard-type) requirements are the commutator normalization
    c_plus - c_minus = 1 and positivity c_plus + c_minus >= 0.
    """

    branch: str
    c_plus: Callable[[np.ndarray], np.ndarray]
    c_minus: Callable[[np.ndarray], np.ndarray]
    label: str
    params: ThermalParams

    def __post_init__(self):
        if self.branch not in ("free", "shifted"):
            raise ValueError(f"unknown branch {self.branch!r}")

    def branch_frequency(self, k):
        return _frequency(k, self.params, self.branch)

    def ccr_residual(self, k):
        """c_plus(k) - c_minus(k) - 1, identically 0 for a physical state."""
        return self.c_plus(k) - self.c_minus(k) - 1.0


def _frequency(k, params: ThermalParams, branch: str):
    """eps on the "free" branch, eps_lambda on the "shifted" one."""
    disp = dispersion(k, params)
    return disp.eps if branch == "free" else disp.eps_lambda


def _thermal(params: ThermalParams, branch: str, coeff_branch: str, label: str) -> SpectralState:
    """Thermal coefficients at the ``coeff_branch`` frequency, on ``branch``."""

    def coefficient(sign):
        return lambda k: bose_coefficient(sign, params.beta, _frequency(k, params, coeff_branch))

    return SpectralState(branch, coefficient(+1), coefficient(-1), label, params)


def free_kms(params: ThermalParams) -> SpectralState:
    """The unique thermal state of the unshifted theory: thermal coefficients
    at the free frequency, on the free branch."""
    return _thermal(params, "free", "free", "free-thermal")


def adiabatic_classical(params: ThermalParams) -> SpectralState:
    """Slow-switch limit of the ramped free thermal state: the branch shifts
    but the thermal coefficients stay evaluated at the old frequency, so this
    is not the thermal state of the shifted theory."""
    return _thermal(params, "shifted", "free", "adiabatic-classical")


def adiabatic(params: ThermalParams) -> SpectralState:
    """Thermal state of the shifted theory: coefficients and branch both at
    the shifted frequency.  This is the closed form the perturbative series
    in :mod:`thermalquench.series` resums to."""
    return _thermal(params, "shifted", "shifted", "shifted-thermal")


def ness_classical(
    params: ThermalParams,
    bog: Callable[[np.ndarray], BogoliubovPair],
) -> SpectralState:
    """Ergodic (late-time averaged) state of the ramped free thermal state.

    ``bog`` maps a momentum array to its Bogoliubov pairs in one call (a
    map that ignores its argument and returns one scalar pair broadcasts).
    Every pair must be normalized to 1e-6, or the evaluation is rejected.
    Mixing the thermal coefficients through |a_plus|^2 and |a_minus|^2
    preserves the commutator normalization exactly.
    """

    def coefficients(k):
        k = np.asarray(k, dtype=float)
        eps = dispersion(k, params).eps
        bp = bose_coefficient(+1, params.beta, eps)
        bm = bose_coefficient(-1, params.beta, eps)
        pair = bog(k)
        residual = np.max(pair.normalization_residual)
        if not residual <= 1e-6:  # a NaN residual fails too
            raise ValueError(f"Bogoliubov pairs violate normalization by {residual:.3e} (tol 1e-6)")
        w_plus = np.abs(pair.a_plus) ** 2
        w_minus = np.abs(pair.a_minus) ** 2
        return bp * w_plus + bm * w_minus, bp * w_minus + bm * w_plus

    return SpectralState(
        "shifted", lambda k: coefficients(k)[0], lambda k: coefficients(k)[1], "ness-classical", params
    )


def pair(
    state: SpectralState, f: TestPacket, g: TestPacket, quad: QuadratureSpec = QuadratureSpec()
) -> complex:
    """Pair two packets against a state by radial quadrature."""
    k, w = quad.radial_rule(f, g)
    omega = state.branch_frequency(k)
    cp = state.c_plus(k)
    cm = state.c_minus(k)
    plus = f.freq_component(omega, k) * g.freq_component(-omega, k)
    minus = f.freq_component(-omega, k) * g.freq_component(omega, k)
    integrand = (4.0 * np.pi * k * k) / (2.0 * omega) * (cp * plus + cm * minus)
    return complex(np.sum(w * integrand))


def pair_report(
    state: SpectralState,
    f: TestPacket,
    g: TestPacket,
    quad: QuadratureSpec = QuadratureSpec(),
) -> dict:
    """Pairing plus its self-convergence diagnostics, JSON-ready."""
    coarse = pair(state, f, g, quad)
    fine = pair(state, f, g, quad.refined())
    return {
        "label": state.label,
        "value_re": fine.real,
        "value_im": fine.imag,
        "refinement_delta": abs(fine - coarse),
        "node_count": quad.refined().n_radial,
    }


def pair_finite_mu(
    prof: SwitchingProfile,
    params: ThermalParams,
    f: TestPacket,
    g: TestPacket,
    quad: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Time-domain pairing against the ramped free thermal state.

    One batched ramp solve per switching scale covers every radial node:
    :func:`~thermalquench.modes.solve_modes`, at its default tolerances,
    carries all of them through the step maps of one grid on [-mu, 0], and
    the trajectory reads the packets' time nodes inside the ramp by partial
    steps, where every node's Wronskian is gated.  Past t = 0 the modes are
    closed form, so the solve answers up to the last time node however far
    the packets' temporal supports extend.  Each mode is projected onto both
    packets' temporal profiles; the thermal coefficients stay at the free
    frequency.
    """
    tf, wf = quad.time_rule(f)
    tg, wg = quad.time_rule(g)
    k, wk = quad.radial_rule(f, g)
    times = np.concatenate((tf, tg))
    T, _ = solve_modes(k, prof, params, t_max=max(0.0, times.max())).evaluate(times)
    u_f = T[:, : tf.size] @ (wf * f.temporal(tf))
    u_g = T[:, tf.size :] @ (wg * g.temporal(tg))
    eps = dispersion(k, params).eps
    bp = bose_coefficient(+1, params.beta, eps)
    bm = bose_coefficient(-1, params.beta, eps)
    kernel = bp * u_f * np.conj(u_g) + bm * np.conj(u_f) * u_g
    return complex(np.sum(wk * 4.0 * np.pi * k * k * f.spatial(k) * g.spatial(k) * kernel))
