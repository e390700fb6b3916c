"""Mode functions across a smoothly switched mass shift.

A single radial momentum sees the time-dependent oscillator

    d2T/dt2 + w(t)^2 T = 0,      w(t)^2 = eps^2 + (eps_lambda^2 - eps^2) * chi(t/mu),

with plane-wave data T(t) = exp(-i*eps*t)/sqrt(2*eps) before the switch
turns on.  The switching function chi rises smoothly from 0 on (-inf, -1]
to 1 on [0, inf), so for t >= 0 the solution is a fixed two-frequency
combination at +-eps_lambda whose amplitudes (the Bogoliubov pair) encode
everything about the ramp.

This module solves the ramp with an adaptive Runge-Kutta integrator, keeps
the conserved Wronskian as a built-in health monitor, provides the WKB
comparison mode, the switching-weighted integrals whose large-mu limits are
known in closed form, and finite-horizon ergodic averages of mode products.

One routine does every ramp solve, with the order-8 adaptive integrator: it
stacks n radial momenta into a single 2n-component state, integrates only
over [-mu - 1, 0], and gates each column on its Wronskian at every point it
returns.  For t >= 0 the mode is taken in closed form from its data at the
solve's endpoint t = 0.  scipy measures the step error as an RMS over all 2n
components, which dilutes one column's error by sqrt(2n); the routine
divides rtol and atol by sqrt(n), so a batch of one keeps the tolerances it
is given.  :func:`solve_modes`, :func:`switch_integrals` and
:func:`bogoliubov` take a momentum array as well as a scalar: an array is
one batched solve, and a scalar is the batch of one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp

from .thermal import ThermalParams, dispersion

_GL_ORDER = 10
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

# ramp solves start this long before the switch turns on, and fail when a
# mode's Wronskian drifts from i by more than the gate
_PAD = 1.0
_WRONSKIAN_TOL = 1e-8


class IntegratorError(RuntimeError):
    """Raised when the ODE solver fails to produce a trajectory."""


def _bump(u):
    """exp(-1/u) for u > 0, identically 0 otherwise (smooth at 0)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = u > 0
    out[m] = np.exp(-1.0 / u[m])
    return out


def chi_unit(s):
    """The unit switching function: 0 for s <= -1, 1 for s >= 0, smooth
    and strictly increasing in between."""
    s = np.asarray(s, dtype=float)
    a = _bump(s + 1.0)
    b = _bump(-s)
    out = a / (a + b)
    return float(out) if out.ndim == 0 else out


def chi_unit_scalar(s: float) -> float:
    """:func:`chi_unit` at one float with the ``math`` module: the ODE
    right-hand side calls it once per evaluation, where numpy's per-call
    overhead would dominate."""
    if s <= -1.0:
        return 0.0
    if s >= 0.0:
        return 1.0
    a = math.exp(-1.0 / (s + 1.0))
    b = math.exp(1.0 / s)
    return a / (a + b)


def chi_unit_rate(s):
    """Derivative of :func:`chi_unit`; supported on (-1, 0)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = (s > -1.0) & (s < 0.0)
    if np.any(m):
        sm = s[m]
        a = _bump(sm + 1.0)
        b = _bump(-sm)
        # psi'(u) = exp(-1/u)/u^2 written in log form so u -> 0+ underflows
        # to 0 instead of producing 0 * inf
        da = np.exp(-1.0 / (sm + 1.0) - 2.0 * np.log(sm + 1.0))
        db = np.exp(1.0 / sm - 2.0 * np.log(-sm))
        out[m] = (da * b + db * a) / (a + b) ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SwitchingProfile:
    """Switching scale mu: the ramp runs over [-mu, 0]."""

    mu: float = 1.0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")

    def value(self, t):
        """chi(t/mu): exactly 0 for t <= -mu, exactly 1 for t >= 0."""
        return chi_unit(np.asarray(t, dtype=float) / self.mu)

    def rate(self, t):
        """d/dt of :meth:`value`; integrates to 1 over the ramp."""
        return chi_unit_rate(np.asarray(t, dtype=float) / self.mu) / self.mu


def time_frequency(k_mag, t, prof: SwitchingProfile, params: ThermalParams):
    """Instantaneous frequency interpolating eps -> eps_lambda along the ramp."""
    disp = dispersion(k_mag, params)
    return np.sqrt(disp.eps**2 + params.mass_shift * prof.value(t))


def _incoming(eps, t):
    """The plane wave exp(-i*eps*t)/sqrt(2*eps) and its time derivative."""
    T = np.exp(-1j * eps * t) / np.sqrt(2.0 * eps)
    return T, -1j * eps * T


def _after_switch(T0, Td0, eps_lambda, t):
    """(T, Tdot) at t >= 0 from the data (T0, Td0) at t = 0.

    The frequency is eps_lambda there, so the mode is
    (a_plus*exp(-i*eps_lambda*t) + a_minus*exp(+i*eps_lambda*t))/sqrt(2*eps_lambda)
    with the Bogoliubov pair read at t = 0, which is the same function as
    T0*cos(eps_lambda*t) + Td0*sin(eps_lambda*t)/eps_lambda.
    """
    c, s = np.cos(eps_lambda * t), np.sin(eps_lambda * t)
    return T0 * c + Td0 * s / eps_lambda, Td0 * c - eps_lambda * T0 * s


def _piecewise(t, t_start, eps, eps_lambda, y_end, inside):
    """(T, Tdot), each of shape (n, len(t)), for n stacked modes: the incoming
    wave before t_start, ``inside(t)`` (rows T_1..T_n, Tdot_1..Tdot_n) on
    [t_start, 0), and the closed form from the endpoint data ``y_end`` on t >= 0."""
    n = eps.size
    T = np.empty((n, t.size), dtype=complex)
    Td = np.empty_like(T)
    before = t < t_start
    after = t >= 0.0
    ramp = ~(before | after)
    if np.any(before):
        T[:, before], Td[:, before] = _incoming(eps[:, None], t[before])
    if np.any(ramp):
        y = inside(t[ramp])
        T[:, ramp], Td[:, ramp] = y[:n], y[n:]
    if np.any(after):
        T[:, after], Td[:, after] = _after_switch(
            y_end[:n, None], y_end[n:, None], eps_lambda[:, None], t[after]
        )
    return T, Td


def _ramp_solve(k_mags, prof: SwitchingProfile, params: ThermalParams, t_start: float,
                rtol: float, atol: float, t_eval=None, method: str = "DOP853"):
    """One adaptive solve of the mode equation for every momentum in ``k_mags``.

    The state stacks (T_1..T_n, Tdot_1..Tdot_n), starts from plane-wave data
    at ``t_start`` (before the switch) and ends at t = 0, where the frequency
    stops changing.  Tolerances are divided by sqrt(n) to undo the RMS
    dilution of one column's error across the state.  Without ``t_eval`` the
    solution carries a dense interpolant; with it, only those times (which
    must lie in [t_start, 0] and should end at 0) are kept.  Every column's
    Wronskian is gated at every returned time, which without ``t_eval`` is
    every accepted step.

    Returns (solution, eps, eps_lambda) with 1-d frequency arrays.
    """
    ks = np.atleast_1d(np.asarray(k_mags, dtype=float))
    disp = dispersion(ks, params)
    eps, eps_lam = disp.eps, disp.eps_lambda
    n = eps.size
    neg_eps_sq = -eps * eps
    shift = params.mass_shift
    mu = prof.mu

    def rhs(t, y):
        return np.concatenate((y[n:], (neg_eps_sq - shift * chi_unit_scalar(t / mu)) * y[:n]))

    scale = math.sqrt(n)
    sol = solve_ivp(
        rhs,
        (t_start, 0.0),
        np.concatenate(_incoming(eps, t_start)),
        method=method,
        t_eval=t_eval,
        dense_output=t_eval is None,
        rtol=rtol / scale,
        atol=atol / scale,
    )
    if not sol.success:
        raise IntegratorError(
            f"mode solve failed for k in [{ks.min()}, {ks.max()}], mu={mu}: {sol.message}"
        )
    drift = _wronskian_residual(sol.y[:n], sol.y[n:]).max(axis=1)
    worst = int(np.argmax(drift))
    if not drift[worst] <= _WRONSKIAN_TOL:  # a NaN drift fails too
        raise IntegratorError(
            f"Wronskian drift {drift[worst]:.3e} exceeds {_WRONSKIAN_TOL:.1e} "
            f"for k={ks[worst]}, mu={mu} "
            f"({sol.nfev} RHS evaluations, rtol={rtol}); tighten the solver tolerances"
        )
    return sol, eps, eps_lam


def _wronskian_residual(T, Td):
    """|W - i| with W = conj(Tdot)*T - conj(T)*Tdot, exactly i for a mode."""
    return np.abs(np.conj(Td) * T - np.conj(T) * Td - 1j)


@dataclass
class ModeTrajectory:
    """Solved modes for one mu: sampled values plus a dense interpolant.

    ``t`` holds the solver's accepted steps over [t_start, 0], the only
    stretch that is integrated.  :meth:`evaluate` extends exactly to all
    t <= t_start with the incoming plane wave, answers on (0, t_end] in
    closed form from the data at t = 0, and rejects t > t_end.

    For a scalar momentum ``k_mag``, ``eps`` and ``eps_lambda`` are floats
    and ``T``, ``Tdot`` have shape (len(t),); for a momentum array they are
    arrays, with one row of ``T`` and ``Tdot`` per momentum.
    """

    k_mag: float | np.ndarray
    mu: float
    params: ThermalParams
    eps: float | np.ndarray
    eps_lambda: float | np.ndarray
    t: np.ndarray
    T: np.ndarray
    Tdot: np.ndarray
    t_start: float
    t_end: float
    _dense: Callable = field(repr=False)

    def evaluate(self, t):
        """(T, Tdot) at arbitrary times t <= t_end, each of shape (len(t),)
        for a scalar momentum and (len(k_mag), len(t)) for an array."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t > self.t_end + 1e-12):
            raise ValueError(
                f"trajectory solved up to t={self.t_end}, requested t={t.max()}"
            )
        T, Td = _piecewise(
            t, self.t_start, np.atleast_1d(self.eps), np.atleast_1d(self.eps_lambda),
            np.append(self.T[..., -1], self.Tdot[..., -1]), self._dense,
        )
        if np.ndim(self.eps) == 0:
            return T[0], Td[0]
        return T, Td

    def wronskian_residual(self, t=None):
        """|W(t) - i| with W = conj(Tdot)*T - conj(T)*Tdot; the exact value
        is i, so this is the integrator's error monitor."""
        if t is None:
            T, Td = self.T, self.Tdot
        else:
            T, Td = self.evaluate(t)
        return _wronskian_residual(T, Td)

    @property
    def max_wronskian_residual(self) -> float:
        return float(np.max(self.wronskian_residual()))

    def to_csv(self, path):
        """Sample dump: t, Re T, Im T, Re Tdot, Im Tdot, |W - i|."""
        res = self.wronskian_residual()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re_T", "im_T", "re_Tdot", "im_Tdot", "wronskian_residual"])
            for i, ti in enumerate(self.t):
                writer.writerow(
                    [
                        f"{ti:.17e}",
                        f"{self.T[i].real:.17e}",
                        f"{self.T[i].imag:.17e}",
                        f"{self.Tdot[i].real:.17e}",
                        f"{self.Tdot[i].imag:.17e}",
                        f"{res[i]:.17e}",
                    ]
                )


def solve_modes(
    k_mag,
    prof: SwitchingProfile,
    params: ThermalParams,
    t_max: float = 1.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: str = "DOP853",
) -> ModeTrajectory:
    """Integrate the mode equation from plane-wave data before the switch.

    One ramp solve for every momentum in ``k_mag`` (a scalar is the batch of
    one, so its tolerances reach the adaptive stepper unscaled).  It starts
    at t0 = -mu - 1, strictly outside the ramp, where
    T = exp(-i*eps*t0)/sqrt(2*eps), Tdot = -i*eps*T make the Wronskian
    exactly i, and stops at t = 0; the trajectory answers up to ``t_max`` in
    closed form beyond that.  The Wronskian drift doubles as an error
    estimate and is enforced for every momentum at every accepted step.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    t0 = -prof.mu - _PAD
    sol, eps, eps_lam = _ramp_solve(k_mag, prof, params, t0, rtol, atol, method=method)
    n = eps.size
    T, Td = sol.y[:n], sol.y[n:]
    if np.ndim(k_mag) == 0:
        k_mag, eps, eps_lam, T, Td = float(k_mag), float(eps[0]), float(eps_lam[0]), T[0], Td[0]
    return ModeTrajectory(
        k_mag=k_mag,
        mu=prof.mu,
        params=params,
        eps=eps,
        eps_lambda=eps_lam,
        t=sol.t,
        T=T,
        Tdot=Td,
        t_start=t0,
        t_end=t_max,
        _dense=sol.sol,
    )


def sample_modes(
    k_mags,
    prof: SwitchingProfile,
    params: ThermalParams,
    times,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Mode values T(k, t) for every momentum in ``k_mags`` and every time in
    ``times``, shape (len(k_mags), len(times)), from one batched ramp solve.

    The solve keeps only the requested times inside the ramp and the endpoint
    t = 0, where every column's Wronskian is gated; later times are closed
    form from the endpoint data and earlier ones the incoming wave.
    """
    times = np.asarray(times, dtype=float)
    t0 = -prof.mu - _PAD
    t_eval = np.append(np.unique(times[(times >= t0) & (times < 0.0)]), 0.0)
    sol, eps, eps_lam = _ramp_solve(k_mags, prof, params, t0, rtol, atol, t_eval=t_eval)
    T, _ = _piecewise(
        times, t0, eps, eps_lam, sol.y[:, -1],
        lambda ts: sol.y[:, np.searchsorted(sol.t, ts)],
    )
    return T


def wkb_mode(k_mag, t, prof: SwitchingProfile, params: ThermalParams, t0: float):
    """Adiabatic comparison mode (2*w(t))**-0.5 * exp(-i * phase(t0 -> t)).

    The phase integral is exact outside the ramp and adaptive quadrature
    across it.  Accepts scalar or array t; t0 must precede the switch.
    """
    if t0 > -prof.mu:
        raise ValueError(f"t0 must satisfy t0 <= -mu, got t0={t0}, mu={prof.mu}")
    disp = dispersion(k_mag, params)
    eps, eps_lam = disp.eps, disp.eps_lambda
    shift = params.mass_shift

    def w_of(t):
        return np.sqrt(eps * eps + shift * chi_unit(np.asarray(t) / prof.mu))

    @np.vectorize
    def phase(t):
        # exact plane-wave segment, quadrature only across the ramp
        p = eps * (min(t, -prof.mu) - t0)
        if t > -prof.mu:
            hi = min(t, 0.0)
            val, _ = quad(w_of, -prof.mu, hi, limit=200, epsabs=1e-13, epsrel=1e-12)
            p += val
        if t > 0.0:
            p += eps_lam * t
        return p

    t_arr = np.asarray(t, dtype=float)
    out = np.exp(-1j * phase(t_arr)) / np.sqrt(2.0 * w_of(t_arr))
    return complex(out) if out.ndim == 0 else out


def _panel_nodes(a: float, b: float, max_freq: float, min_panels: int = 4):
    """Composite Gauss-Legendre nodes resolving oscillations up to max_freq."""
    periods = (b - a) * max_freq / (2.0 * np.pi)
    n_panels = max(min_panels, int(np.ceil(4.0 * periods)))
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def switch_integral_limit(k_mag, params: ThermalParams):
    """Slow-switch limit of the absolute-square switching integral,
    1/(eps + eps_lambda), per momentum; the plain-square integral tends to 0."""
    disp = dispersion(k_mag, params)
    return 1.0 / (disp.eps + disp.eps_lambda)


def switch_integrals(
    k_mag,
    prof: SwitchingProfile,
    params: ThermalParams,
    rtol: float = 1e-10,
    atol: float = 1e-12,
):
    """Switching-weighted integrals of the solved mode over the ramp.

    Returns (I_sq, I_abs) with

        I_sq  = integral of T(t)^2   * d/dt chi(t/mu)  over the ramp,
        I_abs = integral of |T(t)|^2 * d/dt chi(t/mu),

    computed by composite Gauss-Legendre against the dense solution of one
    :func:`solve_modes` call.  A scalar ``k_mag`` gives (complex, float); a
    momentum array is one batched solve and gives one value per momentum,
    on panels sized by the largest eps_lambda in the batch.  As mu grows,
    I_abs tends to 1/(eps_lambda + eps) and I_sq tends to 0.
    """
    traj = solve_modes(k_mag, prof, params, t_max=0.0, rtol=rtol, atol=atol)
    # panels sized for both the mode oscillation and the bump-shaped rate
    nodes, weights = _panel_nodes(-prof.mu, 0.0, 2.0 * np.max(traj.eps_lambda), min_panels=16)
    T, _ = traj.evaluate(nodes)
    w = weights * prof.rate(nodes)
    i_sq = (T * T) @ w
    i_abs = (T.real**2 + T.imag**2) @ w
    if np.ndim(k_mag) == 0:
        return complex(i_sq), float(i_abs)
    return i_sq, i_abs


@dataclass(frozen=True)
class BogoliubovPair:
    """Amplitudes of exp(-i*eps_lambda*t) and exp(+i*eps_lambda*t) in the
    post-switch mode; the Wronskian forces |a_plus|^2 - |a_minus|^2 = 1.
    The fields are complex numbers for one momentum, or arrays with one
    entry per momentum."""

    a_plus: complex | np.ndarray
    a_minus: complex | np.ndarray

    @property
    def normalization_residual(self):
        return abs(abs(self.a_plus) ** 2 - abs(self.a_minus) ** 2 - 1.0)


def bogoliubov(traj: ModeTrajectory, params: ThermalParams, t_star: float = 0.0) -> BogoliubovPair:
    """Extract the Bogoliubov pair by matching (T, Tdot) at one t_star >= 0.

    On t >= 0 the frequency is constant, so the 2x2 match is exact and the
    result is t_star-independent up to integration error.  The basis matrix
    has determinant of modulus 2*eps_lambda, so the system is uniformly
    well-conditioned for any positive shifted frequency.  A trajectory of a
    momentum array gives a pair of arrays, one entry per momentum.
    """
    if t_star < 0:
        raise ValueError(f"t_star must be >= 0, got {t_star}")
    el = traj.eps_lambda
    T, Td = traj.evaluate(t_star)
    T, Td = T[..., 0], Td[..., 0]
    root = np.sqrt(2.0 * el) / 2.0
    a_plus = root * (T + 1j * Td / el) * np.exp(1j * el * t_star)
    a_minus = root * (T - 1j * Td / el) * np.exp(-1j * el * t_star)
    if np.ndim(el) == 0:
        return BogoliubovPair(complex(a_plus), complex(a_minus))
    return BogoliubovPair(a_plus, a_minus)


def sudden_quench_pair(k_mag, params: ThermalParams) -> BogoliubovPair:
    """Closed-form pair for an instantaneous frequency jump at t = 0.

    Matching the incoming plane wave and its derivative across the jump
    gives a_pm = (sqrt(eps_lambda/eps) +- sqrt(eps/eps_lambda)) / 2, per
    momentum; the smooth-ramp extraction approaches this as mu -> 0.
    """
    disp = dispersion(k_mag, params)
    r = np.sqrt(disp.eps_lambda / disp.eps)
    return BogoliubovPair((r + 1.0 / r) / 2.0, (r - 1.0 / r) / 2.0)


def ergodic_limits(bog: BogoliubovPair, eps_lambda: float, t1: float, t2: float):
    """Infinite-horizon limits of the two mode-product averages.

    Returns (limit_TT, limit_TTbar): averaging washes out every term whose
    phase grows with the shift variable, leaving

        limit_TT    = a_plus*a_minus/(2*eps_lambda) * 2*cos(eps_lambda*(t1-t2))
        limit_TTbar = (|a_plus|^2 e^{-i eps_lambda (t1-t2)}
                       + |a_minus|^2 e^{+i eps_lambda (t1-t2)}) / (2*eps_lambda)
    """
    dt = t1 - t2
    el = eps_lambda
    phase_m = np.exp(-1j * el * dt)
    phase_p = np.exp(1j * el * dt)
    lim_tt = bog.a_plus * bog.a_minus * (phase_m + phase_p) / (2.0 * el)
    lim_ttbar = (
        abs(bog.a_plus) ** 2 * phase_m + abs(bog.a_minus) ** 2 * phase_p
    ) / (2.0 * el)
    return complex(lim_tt), complex(lim_ttbar)


def ergodic_averages(
    k_mag,
    prof: SwitchingProfile,
    params: ThermalParams,
    t1: float,
    t2: float,
    horizon: float,
    traj: ModeTrajectory | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
):
    """Finite-horizon averages of T(t1+tau)*T(t2+tau) and T(t1+tau)*conj(T(t2+tau)).

    The average runs over tau in [0, horizon].  Once both shifted arguments
    are >= 0 the integrand is an explicit trigonometric polynomial in the
    Bogoliubov pair and is integrated analytically; the initial stretch
    (when either argument still probes the ramp) is done by quadrature on
    the solved trajectory.  Both averages approach their infinite-horizon
    limits at rate O(1/horizon).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    tau_min = max(0.0, -t1, -t2)
    if traj is None:
        t_need = max(1.0, max(t1, t2) + min(tau_min, horizon))
        traj = solve_modes(k_mag, prof, params, t_max=t_need, rtol=rtol, atol=atol)
    el = traj.eps_lambda
    bog = bogoliubov(traj, params)

    int_tt = 0.0 + 0.0j
    int_ttbar = 0.0 + 0.0j

    cut = min(tau_min, horizon)
    if cut > 0.0:
        nodes, weights = _panel_nodes(0.0, cut, 2.0 * max(traj.eps, el))
        Ta, _ = traj.evaluate(t1 + nodes)
        Tb, _ = traj.evaluate(t2 + nodes)
        int_tt += np.sum(weights * Ta * Tb)
        int_ttbar += np.sum(weights * Ta * np.conj(Tb))

    if horizon > tau_min:
        a, b = tau_min, horizon
        ap, am = bog.a_plus, bog.a_minus
        dt = t1 - t2
        st = t1 + t2

        def osc(freq):
            # integral of exp(i*freq*tau) over [a, b]
            return (np.exp(1j * freq * b) - np.exp(1j * freq * a)) / (1j * freq)

        span = b - a
        int_tt += (
            ap * ap * np.exp(-1j * el * st) * osc(-2.0 * el)
            + am * am * np.exp(1j * el * st) * osc(2.0 * el)
            + ap * am * (np.exp(-1j * el * dt) + np.exp(1j * el * dt)) * span
        ) / (2.0 * el)
        int_ttbar += (
            abs(ap) ** 2 * np.exp(-1j * el * dt) * span
            + abs(am) ** 2 * np.exp(1j * el * dt) * span
            + ap * np.conj(am) * np.exp(-1j * el * st) * osc(-2.0 * el)
            + np.conj(ap) * am * np.exp(1j * el * st) * osc(2.0 * el)
        ) / (2.0 * el)

    return complex(int_tt / horizon), complex(int_ttbar / horizon)
