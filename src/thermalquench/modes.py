"""Mode functions across a smoothly switched mass shift.

A single radial momentum sees the time-dependent oscillator

    d2T/dt2 + w(t)^2 T = 0,      w(t)^2 = eps^2 + (eps_lambda^2 - eps^2) * chi(t/mu),

with plane-wave data T(t) = exp(-i*eps*t)/sqrt(2*eps) before the switch
turns on.  The switching function chi rises smoothly from 0 on (-inf, -1]
to 1 on [0, inf), so for t >= 0 the solution is a fixed two-frequency
combination at +-eps_lambda whose amplitudes (the Bogoliubov pair) encode
everything about the ramp.

This module solves the ramp with an order-8 Runge-Kutta scheme, keeps the
conserved Wronskian as a built-in health monitor, provides the WKB
comparison mode, the switching-weighted integrals whose large-mu limits are
known in closed form, and finite-horizon ergodic averages of mode products.
Every quadrature over time here is one composite Gauss-Legendre rule, with
panels of ``_GL_ORDER`` nodes, and the module needs numpy alone.

One routine does every ramp solve.  The mode equation is linear, so one
DOP853 step of (T, Tdot) is a real 2x2 matrix that does not depend on the
state: the routine builds the maps of every step of a uniform grid on
[-mu, 0], for every momentum at once, and carries the plane-wave data at
-mu through them.  The grid size comes from DOP853's embedded error
estimate, taken per step and per momentum as scipy's step control takes it
for a single mode; each momentum's Wronskian is gated at every grid node
and at every ramp time a caller reads.  Values between nodes are one
partial step of the same scheme from the node before.  Before -mu the mode
is the plane wave, and for t >= 0 it is closed form from its data at t = 0,
the grid's last node, where the Bogoliubov pair is read.

A :class:`ModeTrajectory` always holds the batch, one row per momentum.
:func:`solve_modes` and :func:`switch_integrals` take a momentum array as
well as a scalar: an array is one batched solve, and a scalar is the batch
of one, whose callers get its single row or number back from
``evaluate``, :func:`bogoliubov` and :func:`switch_integrals`.  Only
:func:`solve_modes` takes tolerances; the consumers here solve at its
defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal import ThermalParams, dispersion

_GL_ORDER = 10
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# wkb_mode's phase runs over this many panels of the ramp: chi(t/mu) is
# equally smooth in t/mu at every mu, so the count is fixed in units of mu
_WKB_PANELS = 64

# a mode fails when its Wronskian drifts from i by more than the gate
_WRONSKIAN_TOL = 1e-8
# a ramp solve lays at most _MAX_PASSES grids of _MIN_STEPS to _MAX_GRID / n
# steps for n momenta, and builds the step maps _BLOCK (step, momentum)
# pairs at a time
_MAX_PASSES = 6
_MIN_STEPS = 8
_MAX_GRID = 2**20
_BLOCK = 2**14

# The DOP853 tableau of Hairer, Norsett and Wanner: the nodes and rows of the
# twelve stages, the order-8 solution weights (the last row of _A) and the
# embedded order-5 and order-3 error rows, copied from
# scipy/integrate/_ivp/dop853_coefficients.py.  The stage scipy adds at
# t + h feeds only its next step and its dense output, so it is left out.
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A_ROWS = [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
]
_E5_ROW = {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
}
_E3_ROW = dict(_A_ROWS[12])
_E3_ROW[0] -= 0.244094488188976377952755905512
_E3_ROW[8] -= 0.733846688281611857341361741547
_E3_ROW[11] -= 0.220588235294117647058823529412e-1
_A, _E = (np.array([[row.get(j, 0.0) for j in range(_C.size)] for row in rows])
          for rows in (_A_ROWS, (_E5_ROW, _E3_ROW)))  # (13, 12) and (2, 12)


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
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

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


def _step_maps(t, h, eps, shift: float, mu: float):
    """DOP853 steps of the mode equation from the start times ``t`` (m,) by
    the step sizes ``h`` (a scalar or one per start), for every frequency in
    ``eps`` (n,).

    The equation is linear, so a step is a real 2x2 map of (T, Tdot) that
    does not depend on the state: the stages run on the identity, for all
    (start, momentum) pairs at once, each stage one weighted sum of the
    stages before it, and the step map one more such sum.  Returns
    (step, err5, err3), each of shape (m, n, 2, 2): the order-8 step map and
    the two embedded error maps that DOP853's step control combines (before
    its factor h).
    """
    t = np.asarray(t, dtype=float)
    h = np.asarray(h, dtype=float)
    h_col = h[:, None] if h.ndim else h
    # -w(t)^2 at every stage time, shape (12, m, n)
    chi = chi_unit((t + _C[:, None] * h) / mu)
    neg_w_sq = -(eps * eps + shift * chi[..., None])
    # stage s is the 2x2 map d/dt (T, Tdot) at its stage time, entries first
    stages = np.empty((_C.size, 2, 2, t.size, eps.size))
    flat = stages.reshape(_C.size, -1)
    for s, row in enumerate(_A):
        # einsum rather than a BLAS product: a threaded BLAS gemv runs ~10x
        # slower on a busy two-core machine
        y = h_col * np.einsum("s,sm->m", row[:s], flat[:s]).reshape(stages.shape[1:])
        y[0, 0] += 1.0
        y[1, 1] += 1.0
        if s == _C.size:  # the last row gives the order-8 solution
            break
        stages[s, 0] = y[1]
        np.multiply(neg_w_sq[s], y[0], out=stages[s, 1])
    err5, err3 = np.einsum("es,sm->em", _E, flat).reshape((2,) + stages.shape[1:])
    return tuple(np.ascontiguousarray(np.moveaxis(a, (0, 1), (2, 3))) for a in (y, err5, err3))


def _error_norm(err5, err3, y, h: float, rtol: float, atol: float):
    """scipy's DOP853 error norm of every step and momentum, shape (N, n).

    ``y`` holds the (T, Tdot) of each momentum at every node, shape
    (N + 1, n, 2, 2) with real and imaginary parts last.  Each error map is
    applied to its step's start data, scaled componentwise by
    atol + rtol * max(|y|) over the step's two ends, and combined over the
    two components of one momentum as scipy combines a two-component state.
    """
    size = np.hypot(y[..., 0], y[..., 1])
    scale = atol + rtol * np.maximum(size[:-1], size[1:])
    e5 = np.sum(np.square(err5 @ y[:-1]).sum(axis=-1) / scale**2, axis=-1)
    e3 = np.sum(np.square(err3 @ y[:-1]).sum(axis=-1) / scale**2, axis=-1)
    denom = e5 + 0.01 * e3
    return np.divide(h * e5, np.sqrt(2.0 * denom), out=np.zeros_like(e5), where=denom > 0)


def _ramp_solve(
    k_mags, prof: SwitchingProfile, params: ThermalParams, rtol: float, atol: float, t_end: float
):
    """One ramp solve of the mode equation for every momentum in ``k_mags``.

    A uniform grid on [-mu, 0] carries the plane-wave data at -mu through
    the DOP853 step maps of every momentum, one 2x2 product per step; the
    maps are built for a block of steps at a time, so memory stays bounded.
    The first grid has one step per unit of mu * (largest frequency), and at
    least ``_MIN_STEPS``.  While the worst step error (scipy's norm, per
    momentum) is not below 1, the step count N grows as scipy grows a step
    after a rejection, to ceil(N * err**(1/8) / 0.9), for at most
    ``_MAX_PASSES`` grids of at most ``_MAX_GRID`` step maps.  Every
    momentum's Wronskian is then gated at every node.  Returns a
    :class:`ModeTrajectory` of the momentum batch that answers up to
    ``t_end``.
    """
    k_mag = np.asarray(k_mags, dtype=float)
    ks = np.atleast_1d(k_mag)
    disp = dispersion(ks, params)
    eps, eps_lam = disp.eps, disp.eps_lambda
    mu, shift, n = prof.mu, params.mass_shift, ks.size
    where = f"ramp solve for k in [{ks.min()}, {ks.max()}], mu={mu}"
    block = max(1, _BLOCK // n)
    size = max(_MIN_STEPS, mu * max(eps.max(), eps_lam.max()))
    for passes in range(1, _MAX_PASSES + 1):
        if not size * n <= _MAX_GRID:  # also catches an infinite or NaN size
            raise IntegratorError(
                f"{where} needs {size:.3g} steps for {n} momenta, beyond {_MAX_GRID} step maps"
            )
        n_steps = math.ceil(size)
        h = mu / n_steps
        t = np.linspace(-mu, 0.0, n_steps + 1)
        y = np.empty((n_steps + 1, n, 2, 2))
        y[0, :, 0], y[0, :, 1] = (np.stack((v.real, v.imag), -1) for v in _incoming(eps, -mu))
        worst = []
        for lo in range(0, n_steps, block):
            hi = min(lo + block, n_steps)
            step, err5, err3 = _step_maps(t[lo:hi], h, eps, shift, mu)
            for i in range(lo, hi):
                np.matmul(step[i - lo], y[i], out=y[i + 1])
            worst.append(np.max(_error_norm(err5, err3, y[lo : hi + 1], h, rtol, atol)))
        err = float(np.max(worst))
        if err < 1.0:
            break
        if not math.isfinite(err) or passes == _MAX_PASSES:
            raise IntegratorError(
                f"{where} did not meet rtol={rtol}, atol={atol}: worst step error "
                f"{err:.3e} on a grid of {n_steps} steps after {passes} passes"
            )
        size = n_steps * err**0.125 / 0.9
    T = (y[..., 0, 0] + 1j * y[..., 0, 1]).T
    Td = (y[..., 1, 0] + 1j * y[..., 1, 1]).T
    worst_drift, worst_drift_t = _gate(
        T, Td, ks, mu, t,
        f"grid of {n_steps} steps after {passes} passes, rtol={rtol}, atol={atol}",
    )
    return ModeTrajectory(
        k_mag=k_mag, mu=mu, params=params, eps=eps, eps_lambda=eps_lam, t=t, T=T, Tdot=Td,
        t_end=t_end, passes=passes, worst_drift=worst_drift, worst_drift_t=worst_drift_t,
    )


def _wronskian_residual(T, Td):
    """|W - i| with W = conj(Tdot)*T - conj(T)*Tdot, exactly i for a mode."""
    return np.abs(np.conj(Td) * T - np.conj(T) * Td - 1j)


def _gate(T, Td, ks, mu: float, t, detail: str) -> tuple[float, float]:
    """The Wronskian gate over (T, Tdot) with one row per momentum ``ks`` and
    one column per time ``t``: returns the worst drift and its time, or
    raises ``IntegratorError`` naming both when the drift exceeds
    ``_WRONSKIAN_TOL``, with ``detail`` in parentheses at the end."""
    drift = _wronskian_residual(T, Td)
    col, i = np.unravel_index(np.argmax(drift), drift.shape)
    worst = float(drift[col, i])
    if not worst <= _WRONSKIAN_TOL:  # a NaN drift fails too
        raise IntegratorError(
            f"Wronskian drift {worst:.3e} exceeds {_WRONSKIAN_TOL:.1e} "
            f"for k={ks[col]}, mu={mu} at t={t[i]:.6g} ({detail})"
        )
    return worst, float(t[i])


def _for_caller(k_mag, *batch):
    """Per-momentum arrays, momentum axis first, as the caller of ``k_mag``
    gets them: unchanged for a momentum array; for a scalar momentum, the
    one row of each, or the one Python number of a 1-D array."""
    if np.ndim(k_mag):
        return batch
    return tuple(b[0] if b.ndim > 1 else b[0].item() for b in batch)


@dataclass
class ModeTrajectory:
    """Solved modes for one mu: the grid solution and how it was obtained.

    The trajectory always holds the batch: ``eps``, ``eps_lambda`` have one
    entry and ``T``, ``Tdot`` one row per momentum.  ``k_mag`` is the
    momentum array the solve was asked for, 0-d for a scalar momentum.
    ``t`` holds the nodes of the uniform grid on [-mu, 0], the only stretch
    that is integrated; its last node is t = 0, where :func:`bogoliubov`
    reads the pairs.  :meth:`evaluate` extends exactly to all t < -mu with
    the incoming plane wave, answers between nodes with one partial step
    from the node before, answers on (0, t_end] in closed form from the
    data at t = 0, and rejects t > t_end.

    ``passes`` is the number of grids the step-count search laid, and
    ``worst_drift`` the largest Wronskian drift over every node and
    momentum, reached at ``worst_drift_t``.
    """

    k_mag: np.ndarray
    mu: float
    params: ThermalParams
    eps: np.ndarray
    eps_lambda: np.ndarray
    t: np.ndarray
    T: np.ndarray
    Tdot: np.ndarray
    t_end: float
    passes: int
    worst_drift: float
    worst_drift_t: float

    @property
    def n_steps(self) -> int:
        """Steps of the grid."""
        return self.t.size - 1

    def evaluate(self, t):
        """(T, Tdot) at arbitrary times t <= t_end, each of shape
        (len(k_mag), len(t)) for a momentum array and (len(t),) for a
        scalar momentum.  Every momentum's Wronskian is gated at the times
        inside the ramp."""
        return _for_caller(self.k_mag, *self._evaluate(t))

    def _evaluate(self, t):
        """:meth:`evaluate` for the whole batch, one row per momentum."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t > self.t_end + 1e-12):
            raise ValueError(
                f"trajectory solved up to t={self.t_end}, requested t={t.max()}"
            )
        T = np.empty((self.eps.size, t.size), dtype=complex)
        Td = np.empty_like(T)
        before = t < -self.mu
        after = t >= 0.0
        ramp = ~(before | after)
        if np.any(before):
            T[:, before], Td[:, before] = _incoming(self.eps[:, None], t[before])
        if np.any(ramp):
            T[:, ramp], Td[:, ramp] = self._between_nodes(t[ramp])
        if np.any(after):
            T[:, after], Td[:, after] = _after_switch(
                self.T[:, -1:], self.Tdot[:, -1:], self.eps_lambda[:, None], t[after]
            )
        return T, Td

    def _between_nodes(self, ts):
        """(T, Tdot) at ramp times ``ts`` by one partial step from the node
        before each, a block of times at a time, with the Wronskian gated."""
        T = np.empty((self.eps.size, ts.size), dtype=complex)
        Td = np.empty_like(T)
        block = max(1, _BLOCK // self.eps.size)
        for lo in range(0, ts.size, block):
            part = slice(lo, lo + block)
            node = np.searchsorted(self.t, ts[part], side="right") - 1
            step, _, _ = _step_maps(
                self.t[node], ts[part] - self.t[node], self.eps, self.params.mass_shift, self.mu
            )
            T0, Td0 = self.T[:, node].T, self.Tdot[:, node].T
            T[:, part] = (step[..., 0, 0] * T0 + step[..., 0, 1] * Td0).T
            Td[:, part] = (step[..., 1, 0] * T0 + step[..., 1, 1] * Td0).T
        _gate(T, Td, np.ravel(self.k_mag), self.mu, ts,
              f"grid of {self.n_steps} steps after {self.passes} passes")
        return T, Td

    @property
    def max_wronskian_residual(self) -> float:
        return self.worst_drift


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
    one).  It starts at t0 = -mu, where the switch turns on and
    T = exp(-i*eps*t0)/sqrt(2*eps), Tdot = -i*eps*T make the Wronskian
    exactly i, and stops at t = 0; the trajectory answers up to ``t_max`` in
    closed form beyond that.  Each momentum's step error meets ``rtol`` and
    ``atol`` as DOP853's step control measures it, and the Wronskian drift,
    a second error estimate, is enforced for every momentum at every grid
    node.  ``method`` names the scheme and must be "DOP853".
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if method != "DOP853":
        raise ValueError(f"ramp solves use method='DOP853', got {method!r}")
    return _ramp_solve(k_mag, prof, params, rtol, atol, t_max)


def wkb_mode(k_mag, t, prof: SwitchingProfile, params: ThermalParams, t0: float):
    """Adiabatic comparison mode (2*w(t))**-0.5 * exp(-i * phase(t0 -> t)).

    The phase integral is exact outside the ramp.  Across it, the frequency
    is integrated by one Gauss-Legendre rule on each of ``_WKB_PANELS``
    equal panels of [-mu, 0], summed panel by panel, plus one more rule from
    the panel edge before each t to t.  Accepts scalar or array t; t0 must
    precede the switch.
    """
    mu = prof.mu
    if t0 > -mu:
        raise ValueError(f"t0 must satisfy t0 <= -mu, got t0={t0}, mu={mu}")
    disp = dispersion(k_mag, params)
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()

    def integral(a, b):
        # one rule on each [a, b], entry by entry
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        w = time_frequency(k_mag, mid[:, None] + half[:, None] * _GL_NODES, prof, params)
        return half * (w @ _GL_WEIGHTS)

    edges = np.linspace(-mu, 0.0, _WKB_PANELS + 1)
    done = np.concatenate(([0.0], np.cumsum(integral(edges[:-1], edges[1:]))))
    inside = np.clip(ts, -mu, 0.0)
    panel = np.searchsorted(edges, inside, side="right") - 1
    phase = (
        disp.eps * (np.minimum(ts, -mu) - t0)
        + done[panel] + integral(edges[panel], inside)
        + disp.eps_lambda * np.maximum(ts, 0.0)
    ).reshape(t_arr.shape)
    out = np.exp(-1j * phase) / np.sqrt(2.0 * time_frequency(k_mag, t_arr, prof, params))
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


def switch_integrals(k_mag, prof: SwitchingProfile, params: ThermalParams):
    """Switching-weighted integrals of the solved mode over the ramp.

    Returns (I_sq, I_abs) with

        I_sq  = integral of T(t)^2   * d/dt chi(t/mu)  over the ramp,
        I_abs = integral of |T(t)|^2 * d/dt chi(t/mu),

    computed by composite Gauss-Legendre on the solution of one
    :func:`solve_modes` call at its default tolerances, read between its
    grid nodes by partial steps.  A scalar ``k_mag`` gives (complex, float);
    a momentum array is one batched solve and gives one value per momentum,
    on panels sized by the largest eps_lambda in the batch.  As mu grows,
    I_abs tends to 1/(eps_lambda + eps) and I_sq tends to 0.
    """
    traj = solve_modes(k_mag, prof, params, t_max=0.0)
    # panels sized for both the mode oscillation and the bump-shaped rate
    nodes, weights = _panel_nodes(-prof.mu, 0.0, 2.0 * np.max(traj.eps_lambda), min_panels=16)
    T, _ = traj._evaluate(nodes)
    w = weights * prof.rate(nodes)
    return _for_caller(k_mag, (T * T) @ w, (T.real**2 + T.imag**2) @ w)


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


def bogoliubov(traj: ModeTrajectory) -> BogoliubovPair:
    """The Bogoliubov pair of every momentum, read from (T, Tdot) at the
    trajectory's last grid node, t = 0.

    From t = 0 on the frequency is eps_lambda, so matching the two-frequency
    form to the data there is exact.  The basis matrix has determinant of
    modulus 2*eps_lambda, so the match is uniformly well-conditioned for any
    positive shifted frequency.  A trajectory of a momentum array gives a
    pair of arrays, one entry per momentum, and one of a scalar momentum a
    pair of complex numbers.
    """
    T, Td, el = traj.T[:, -1], traj.Tdot[:, -1], traj.eps_lambda
    root = np.sqrt(2.0 * el) / 2.0
    return BogoliubovPair(
        *_for_caller(traj.k_mag, root * (T + 1j * Td / el), root * (T - 1j * Td / el))
    )


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
):
    """Finite-horizon averages of T(t1+tau)*T(t2+tau) and T(t1+tau)*conj(T(t2+tau)).

    The average runs over tau in [0, horizon] for the momentum ``k_mag``,
    solved at the default tolerances.  Once both shifted arguments are >= 0
    the integrand is an explicit trigonometric polynomial in the Bogoliubov
    pair and is integrated analytically; the initial stretch (when either
    argument still probes the ramp) is done by quadrature on the solved
    trajectory.
    Both averages approach their infinite-horizon limits at rate
    O(1/horizon).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    tau_min = max(0.0, -t1, -t2)
    t_need = max(1.0, max(t1, t2) + min(tau_min, horizon))
    traj = solve_modes(k_mag, prof, params, t_max=t_need)
    eps, el = _for_caller(traj.k_mag, traj.eps, traj.eps_lambda)
    bog = bogoliubov(traj)

    int_tt = 0.0 + 0.0j
    int_ttbar = 0.0 + 0.0j

    cut = min(tau_min, horizon)
    if cut > 0.0:
        nodes, weights = _panel_nodes(0.0, cut, 2.0 * max(eps, el))
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
