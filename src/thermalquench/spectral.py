"""Quasi-free two-point functions as spectral data, and their pairings.

A state is a frequency branch (the free dispersion or the shifted one)
together with two coefficient functions of radial momentum.  Pairing two
rotationally symmetric test packets against a state reduces to a single
radial integral

    integral dk 4 pi k^2 / (2 w(k)) * [ c_plus(k)  fhat(+w, k) ghat(-w, k)
                                      + c_minus(k) fhat(-w, k) ghat(+w, k) ],

evaluated by Gauss-Legendre on a Gaussian-damped integrand, with the rule
from the read-only cache of :mod:`thermalquench.modes`.

Momentum-space convention: fhat(w, k) = integral dt exp(-i*w*t) fmt(t, k),
where fmt is the packet's mixed time/momentum representation.  With this
choice the incoming plane-wave mode exp(-i*eps*t) lands on the +eps slot,
which makes the time-domain pairing below agree with the spectral one
without any branch swap.

The time-domain pairing ``pair_finite_mu`` evaluates the state obtained by
dragging the free thermal state through the switched mass ramp at finite
switching scale; as the scale grows it approaches the shifted-branch state
that keeps the free thermal coefficients.  Only the radial nodes that can
move the pairing are solved: for the monotone switch, Gronwall's inequality
bounds every mode by |T(t)|^2 <= max(1/(2 eps), eps/(2 eps_lambda^2)) at
any switching scale, and the nodes whose summed a-priori bound stays within
unit roundoff of the total are screened out before the batched solve.
The screen, the radial rule and everything else that no switch changes is
a ``PairingPlan``, laid once by ``pairing_plan`` for a whole ladder of
switching scales, so the caller solves the kept nodes of the whole ladder
in one ladder solve and hands ``pair_finite_mu`` the plan and one rung's
trajectory.  Each solved mode is projected in two parts split at the
switch-off t = 0: the post-switch form, the outgoing plane waves of
:mod:`thermalquench.modes`, integrated against the packet in closed form
from the plan's transforms (``TestPacket.temporal_hat`` at the shifted
frequencies), and the difference from it at the time rule's nodes before
t = 0, which is read from the solve only where a bound, proved from the
same Gronwall bound, lets it reach unit roundoff of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .modes import (BogoliubovPair, ModeTrajectory, _gauss_legendre, _outgoing_waves,
                    _plane_waves, bogoliubov, chi_unit)
from .modes import solve_modes  # benchmarks/tracing.py is its last reader
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

    def time_support(self) -> tuple[float, float]:
        """Interval, TIME_SIGMAS widths each side of the centre, outside
        which the temporal profile is negligible."""
        return (
            self.t_center - TIME_SIGMAS * self.t_width,
            self.t_center + TIME_SIGMAS * self.t_width,
        )


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
    Mixing the thermal coefficients of :func:`free_kms` through |a_plus|^2
    and |a_minus|^2 preserves the commutator normalization exactly.
    """

    free = free_kms(params)

    def coefficients(k):
        k = np.asarray(k, dtype=float)
        bp, bm = free.c_plus(k), free.c_minus(k)
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


def pairing_integrand(k, w, omega, f: TestPacket, g: TestPacket):
    """(weight, plus, minus) of the radial pairing integral on the branch
    ``omega``: the quadrature weight times the measure 4 pi k^2 / (2 omega),
    and the packet products on the +omega and -omega slots.  A state with
    coefficients (c_plus, c_minus) on that branch pairs to
    sum(weight * (c_plus * plus + c_minus * minus))."""
    weight = w * (4.0 * np.pi * k * k) / (2.0 * omega)
    plus = f.freq_component(omega, k) * g.freq_component(-omega, k)
    minus = f.freq_component(-omega, k) * g.freq_component(omega, k)
    return weight, plus, minus


def pair(
    state: SpectralState, f: TestPacket, g: TestPacket, quad: QuadratureSpec = QuadratureSpec()
) -> complex:
    """Pair two packets against a state by radial quadrature."""
    k, w = quad.radial_rule(f, g)
    weight, plus, minus = pairing_integrand(k, w, state.branch_frequency(k), f, g)
    return complex(np.sum(weight * (state.c_plus(k) * plus + state.c_minus(k) * minus)))


def pair_report(
    state: SpectralState, f: TestPacket, g: TestPacket, quad: QuadratureSpec, coarse: complex
) -> dict:
    """Pairing plus its self-convergence diagnostics, JSON-ready.

    ``coarse`` is the caller's ``pair(state, f, g, quad)``; the report
    computes only the pairing on ``quad.refined()``."""
    fine = pair(state, f, g, quad.refined())
    return {
        "label": state.label,
        "value_re": fine.real,
        "value_im": fine.imag,
        "refinement_delta": abs(fine - coarse),
        "node_count": quad.refined().n_radial,
    }


def _early_nodes(p: TestPacket, quad: QuadratureSpec):
    """The nodes of ``p``'s time rule before the switch-off t = 0, and their
    weights times its temporal profile."""
    t, w = quad.time_rule(p)
    before = t < 0.0
    return t[before], w[before] * p.temporal(t[before])


def _closed_projection(hat, waves):
    """Each solved mode's post-switch form T_after, the terms (c, f) of
    ``waves`` (see :func:`~thermalquench.modes._outgoing_waves`), projected
    onto a packet's temporal profile over all t, in closed form: sum c *
    fhat(-f), one value per momentum.  ``hat`` holds the packet's
    transforms fhat(+eps_lambda) and fhat(-eps_lambda), one row each (see
    :class:`PairingPlan`); each term's f is -eps_lambda or +eps_lambda, and
    its sign picks the row."""
    return sum(c * np.where(f < 0.0, hat[0], hat[1]) for c, f in waves)


def _early_correction(t, w, T, waves):
    """sum_j w_j (T - T_after)(t_j) over the early nodes ``t`` and weights
    ``w`` of :func:`_early_nodes`, with ``T`` the solved modes there, one
    row per momentum, and T_after the terms of ``waves``: what the
    projection of a mode adds to :func:`_closed_projection` before t = 0."""
    after, _ = _plane_waves(waves, t)
    return (T - after) @ w


def _early_reach(mu: float, t, w):
    """sum_j |w_j| |t_j| (1 - chi(t_j/mu)) over the early nodes ``t`` and
    weights ``w``, for the switching scale ``mu``: times a node's early
    factor (see :func:`pairing_plan`), a bound on its
    :func:`_early_correction`.  1 - chi(s) is chi(-1 - s), the mirrored
    switch, computed as such so that it does not round to 0 where chi(s)
    rounds to 1."""
    return float(np.sum(np.abs(w) * np.abs(t) * chi_unit((-mu - t) / mu)))


def _screen(bound):
    """The radial nodes a pairing solves, as a mask: the nodes of smallest
    ``bound`` are dropped while their summed bound stays within unit
    roundoff, 2**-53, of the summed finite bounds.  A node whose bound is
    not finite is kept."""
    order = np.argsort(bound)
    dropped = np.cumsum(bound[order]) <= 2.0**-53 * np.sum(bound[np.isfinite(bound)])
    keep = np.ones(bound.size, dtype=bool)
    keep[order[dropped]] = False
    return keep


@dataclass(frozen=True)
class PairingPlan:
    """What a finite-switch pairing of ``f`` with ``g`` reads that no switch
    changes, laid once for a ladder of switching scales by
    :func:`pairing_plan`: the radial nodes its screen keeps (``k``), their
    radial weights r(k) = w_k 4 pi k^2 f(k) g(k), the coefficients of
    :func:`free_kms` and the early factors (|Delta|/eps_lambda) sqrt(M)
    that bound the early corrections, each packet's early nodes and
    weights, ``(t, w)`` of ``_early_nodes``, and each packet's temporal
    transforms at the kept nodes' shifted frequencies, ``hat_f`` and
    ``hat_g``: fhat(+eps_lambda) and fhat(-eps_lambda), one row each."""

    params: ThermalParams
    f: TestPacket
    g: TestPacket
    k: np.ndarray
    radial: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    early_factor: np.ndarray
    early_f: tuple
    early_g: tuple
    hat_f: np.ndarray
    hat_g: np.ndarray


def pairing_plan(
    params: ThermalParams, f: TestPacket, g: TestPacket, quad: QuadratureSpec = QuadratureSpec()
) -> PairingPlan:
    """The plan of every :func:`pair_finite_mu` of ``f`` with ``g`` on
    ``quad``'s rules: one radial rule, one evaluation of the coefficients
    and the radial weights, the early nodes, the early factors and the
    screen, whatever the switching scale.

    **The screen.**  Write the mode on its adiabatic amplitudes, T =
    (alpha e^(-i theta) + beta e^(i theta)) / sqrt(2 w) with theta' = w and
    w(t)^2 = eps^2 + (eps_lambda^2 - eps^2) chi(t/mu).  They obey alpha' =
    (w'/2w) e^(2i theta) beta and beta' = (w'/2w) e^(-2i theta) alpha, so
    (|alpha| + |beta|)' <= |w'|/(2w) (|alpha| + |beta|), and Gronwall's
    inequality from alpha = 1, beta = 0 at t = -mu gives, for the monotone
    switch, |alpha| + |beta| <= sqrt(max(w/eps, eps/w)).  As w lies between
    eps and eps_lambda, |T(t)|^2 <= M = max(1/(2 eps), eps/(2 eps_lambda^2))
    at every t, for every mu.  Past t = 0 the amplitudes are the Bogoliubov
    pair, so the post-switch form continued to t < 0 obeys the same bound:
    |T_after(t)|^2 <= (|a_plus| + |a_minus|)^2 / (2 eps_lambda) <= M.  With
    |fhat| <= sqrt(2 pi) sigma_f, the projection of :func:`pair_finite_mu`
    has |u_f| <= sqrt(M) (sqrt(2 pi) sigma_f + 2 sum_{t_j<0} w_j f(t_j)), so
    a node contributes at most |r| (c_plus + c_minus) M times that factor
    for f and for g.  The nodes of smallest bound are dropped while their
    summed bound stays within unit roundoff, 2**-53, of the total (see
    :func:`_screen`); a node whose bound is not finite is kept.  No
    tolerance is tunable: the threshold is the unit roundoff.

    **The early factor.**  D = T - T_after solves D'' + eps_lambda^2 D =
    (eps_lambda^2 - w^2) T = Delta (1 - chi(t/mu)) T, with Delta =
    eps_lambda^2 - eps^2, the mass shift, and D(0) = D'(0) = 0, since
    T_after takes T's data at t = 0.  Variation of constants from t = 0
    gives D(t) = (Delta/eps_lambda) * integral from 0 to t of
    sin(eps_lambda (t - s)) (1 - chi(s/mu)) T(s) ds, and for t < 0, with
    |T| <= sqrt(M) and 1 - chi(s/mu) falling towards s = 0,

        |D(t)| <= (|Delta|/eps_lambda) sqrt(M) |t| (1 - chi(t/mu)).

    The plan keeps (|Delta|/eps_lambda) sqrt(M) per kept node; summed with
    |w_j| over a packet's early nodes (:func:`_early_reach`), it bounds
    that node's early correction at any switching scale.

    **The transforms.**  The post-switch form oscillates at +-eps_lambda
    whatever the switch, so the plan evaluates each packet's
    :meth:`TestPacket.temporal_hat` there once, at the kept nodes, for the
    closed-form projection of every rung.
    """
    k, wk = quad.radial_rule(f, g)
    free = free_kms(params)
    c_plus, c_minus = free.c_plus(k), free.c_minus(k)
    radial = wk * 4.0 * np.pi * k * k * f.spatial(k) * g.spatial(k)
    (tf, wf), (tg, wg) = early = [_early_nodes(p, quad) for p in (f, g)]
    disp = dispersion(k, params)
    amp_sq = np.maximum(0.5 / disp.eps, 0.5 * disp.eps / disp.eps_lambda**2)
    reach_f, reach_g = (
        math.sqrt(2.0 * math.pi) * p.t_width + 2.0 * np.sum(w) for p, w in ((f, wf), (g, wg))
    )
    keep = _screen(np.abs(radial) * (c_plus + c_minus) * amp_sq * reach_f * reach_g)
    factor = abs(params.mass_shift) / disp.eps_lambda * np.sqrt(amp_sq)
    el = disp.eps_lambda[keep]
    hats = [np.array([p.temporal_hat(el), p.temporal_hat(-el)]) for p in (f, g)]
    return PairingPlan(params, f, g, k[keep], radial[keep], c_plus[keep], c_minus[keep],
                       factor[keep], *early, *hats)


def pair_finite_mu(traj: ModeTrajectory, plan: PairingPlan) -> complex:
    """Time-domain pairing of the plan's packets against the free thermal
    state of its params, dragged through the ramp that ``traj`` solved.

    A radial node k contributes r(k) * [c_plus u_f conj(u_g) + c_minus
    conj(u_f) u_g], with r the radial weight w_k 4 pi k^2 f(k) g(k), the
    coefficients of :func:`free_kms` (at the free frequency) and u_f the
    projection of the mode T onto f's temporal profile.  Everything but the
    mode comes from ``plan`` (see :func:`pairing_plan`), so a ladder of
    switching scales lays its rules and screens once, and each call only
    reads and projects.

    **The solve.**  ``traj`` is one batched ramp solve of the plan's kept
    nodes, its array ``plan.k`` itself, on its ``params``: a call of
    :func:`~thermalquench.modes.solve_modes` at its default tolerances, or
    one rung of a ladder solve of them, which is how criterion 6 solves its
    whole ladder in one call.  Any other trajectory raises ``ValueError``.
    When the screen keeps no node there is nothing to solve, and the
    pairing is 0.

    **The projection**, split at the switch-off t = 0.  Past it the mode is
    T_after = (a_plus e^(-i eps_lambda t) + a_minus e^(i eps_lambda t))
    / sqrt(2 eps_lambda), with the pair of
    :func:`~thermalquench.modes.bogoliubov`: the same terms (c, f), one
    c e^(i f t) each, that the trajectory evaluates from t = 0 on.  Its
    integral against f is sum c fhat(-f), here (a_plus fhat(eps_lambda) +
    a_minus fhat(-eps_lambda)) / sqrt(2 eps_lambda), in closed form from
    the plan's transforms (:func:`_closed_projection`).  The rest, the
    early correction, is the integral of f (T - T_after) over t < 0: the
    time rule's sum over its own nodes before t = 0.

    **The early screen.**  The plan's early factor times
    :func:`_early_reach` bounds each node's early correction (see
    :func:`pairing_plan`).  When that bound is within unit roundoff,
    2**-53, of the closed form's modulus at every kept node and for both
    packets, the correction cannot move the projection by more than its
    rounding, and the call reads no mode before t = 0: the projections are
    the closed forms.  Otherwise T is read from the solve by one
    ``evaluate`` call on the early nodes of both packets (partial steps
    inside the ramp, where every node's Wronskian is gated, and the plane
    wave before it), and T_after from the terms, with no derivative
    formed.  A NaN bound or closed form fails the screen, so it reads.
    """
    if traj.k_mag is not plan.k or traj.params is not plan.params:
        raise ValueError("the trajectory must be a solve of the plan's kept nodes, plan.k, "
                         "on the plan's params")
    (tf, wf), (tg, wg) = plan.early_f, plan.early_g
    waves = _outgoing_waves(bogoliubov(traj), traj.eps_lambda)
    u_f, u_g = (_closed_projection(hat, waves) for hat in (plan.hat_f, plan.hat_g))
    if not all(np.all(plan.early_factor * _early_reach(traj.mu, t, w) <= 2.0**-53 * np.abs(u))
               for (t, w), u in ((plan.early_f, u_f), (plan.early_g, u_g))):
        T, _ = traj.evaluate(np.concatenate((tf, tg)))
        u_f = u_f + _early_correction(tf, wf, T[:, : tf.size], waves)
        u_g = u_g + _early_correction(tg, wg, T[:, tf.size :], waves)
    kernel = plan.c_plus * u_f * np.conj(u_g) + plan.c_minus * np.conj(u_f) * u_g
    return complex(np.sum(plan.radial * kernel))
