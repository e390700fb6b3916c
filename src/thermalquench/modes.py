"""Mode functions across a smoothly switched mass shift.

A single radial momentum sees the time-dependent oscillator

    d2T/dt2 + w(t)^2 T = 0,      w(t)^2 = eps^2 + (eps_lambda^2 - eps^2) * chi(t/mu),

with plane-wave data T(t) = exp(-i*eps*t)/sqrt(2*eps) before the switch
turns on.  The switching function chi rises smoothly from 0 on (-inf, -1]
to 1 on [0, inf), so for t >= 0 the solution is a fixed two-frequency
combination at +-eps_lambda whose amplitudes (the Bogoliubov pair) encode
everything about the ramp.

This module solves the ramp with an order-8 Runge-Kutta scheme, keeps the
conserved Wronskian as a built-in health monitor, and provides the
switching-weighted integrals whose large-mu limits are known in closed form
and the finite-horizon ergodic averages of mode products with their limits.
Every quadrature over time here is one composite Gauss-Legendre rule, with
panels of ``_GL_ORDER`` nodes.  ``_gauss_legendre`` is the package's one
cache of rules (the pairings of :mod:`thermalquench.spectral` read it too),
and it computes a rule on first use, never at import.  The module needs
numpy alone.

One routine does every ramp solve, for a ladder of switching scales mu
that share one momentum batch and one rtol and atol (a single profile is
the ladder of one).  The mode equation is linear, so one DOP853 step of
(T, Tdot) is a real 2x2 matrix that does not depend on the state: the
routine builds the maps of every step of each rung's uniform grid on
[-mu, 0], for every momentum at once, with the rungs laid end to end in
one array of nodes, and carries each rung's plane-wave data at -mu
through them by one log-depth prefix scan of each block's node planes,
segmented at the rungs' first nodes (see ``_carry``).  The stages run in
the Nystrom form of DOP853: the top row of each stage's 2x2 map is the
bottom row of the one before it, so only the bottom rows are formed, and
one product of them gives the step map and both error maps (the
derivation is in ``_step_maps``), whose rows are scaled by h as
products, so their bits do not hang on how h is laid out.  They
run in pairs, since stages s and s + 1 read only the stages before s, so
the twelve stages are six small products.  Each of these products, the
six and the map rows', is one BLAS call on the whole block; the outputs
are the same bits under one or two BLAS threads, which CI diffs.  Every
2x2 product of maps and nodes, in the carry's scan, the error norm and
the reads between nodes, is one einsum pass over the planes (see
``_product``), which uses no BLAS.  einsum ignores ``np.errstate``, so a
non-finite or overflowing product raises nothing where it is made; the
error norm and the Wronskian gate refuse it.
Every map is a polynomial of degree at most 6 in x = eps**2, so a large
batch interpolates its maps from seven frequencies, set up once per solve
and once per read between nodes (see ``_samples``).
The reads between nodes of several solves run in one pass in the same
way, each start with its own mu and h (see ``_between_nodes``).
Every block of ramp work, of a solve or of a read, takes its work arrays
(the stages, the interpolated maps, the carry's second buffer and the
error norm's temporaries) as views into one arena per thread, which
starts with room for a full block's carry and error norm, grows only
for a block that needs more, and is reused by every later block, so warm
solves and reads allocate no fresh block of stages or maps.  Besides the
node planes a trajectory keeps and the values a read returns, only a
block that steps by one size per start makes fresh arrays: its sizes and
the nodes it starts from, a plane or two each.
Maps and grid nodes are laid out entries first, (row, column, step,
momentum) and (component, real or imaginary part, node, momentum), so
that the step-error norm works on contiguous (step, momentum) planes.
Each rung's first grid is seeded from the rtol by the h**8 error law,
rtol**(-1/8) * max(0.19 * mu * (largest frequency), 1.5) steps, with both
constants fitted once on measured solves.
DOP853's embedded error estimate, taken per step and per momentum as
scipy's step control takes it for a single mode, checks each rung's
grid; a rung whose grid fails the check is regrown and the whole ladder
laid again, the other rungs on their own step counts, and the gate
reads the last pass alone.  The node planes are a solve's one store,
made complex only where a reader asks, and each momentum's Wronskian is
gated on them in real arithmetic, |2*(Tdot_re*T_im - Tdot_im*T_re) - 1|,
at every node and every ramp time a caller reads.  Between nodes a value
is one partial step from the node before.

Outside the ramp a mode is a sum of plane waves, sum c*exp(i*f*t) over a
list of terms (c, f) per momentum, and ``_plane_waves`` is the one
evaluator of such a list.  Two lists exist: the incoming wave
exp(-i*eps*t)/sqrt(2*eps) (``_incoming_waves``), which gives the solve's
data at -mu and every value before it, and the outgoing pair
(a_plus*exp(-i*eps_lambda*t) + a_minus*exp(+i*eps_lambda*t))/sqrt(2*eps_lambda)
(``_outgoing_waves``), with the Bogoliubov pair read at t = 0, the last
node, which gives every value from t = 0 on.  The mode products of the
ergodic averages are the term products of the outgoing list, and the
pairings of :mod:`thermalquench.spectral` project the same list.

Every reader of a solve returns the momentum batch: ``evaluate`` one row
per momentum, :func:`bogoliubov`, :func:`switch_integrals`,
:func:`ergodic_averages` and :func:`ergodic_limits` one entry per momentum.
A scalar momentum is the batch of one.  A solve stops at t = 0 and answers
every later time in closed form, so no caller names a horizon.  Only
:func:`solve_modes` and the ladder routine take tolerances; the consumers
here solve at their defaults.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .thermal import ThermalParams, dispersion

_GL_ORDER = 10

# a mode fails when its Wronskian drifts from i by more than the gate
_WRONSKIAN_TOL = 1e-8
# the default tolerances (rtol, atol) of a ramp solve
_RTOL, _ATOL = 1e-10, 1e-12
# a ramp solve lays each rung at most _MAX_PASSES grids of at most _MAX_GRID / n
# steps for n momenta, and builds the step maps _BLOCK (step, momentum) pairs at a
# time: at 2**13, verify-all's peak memory is no higher than at 2**14, and
# no slower
_MAX_PASSES = 6
_MAX_GRID = 2**20
_BLOCK = 2**13
# _step_maps interpolates the maps of a batch with more than _DIRECT_MAX
# distinct x.  The cut-over is measured on whole ramp solves of the Nystrom
# kernel, momenta spread over [0.1, 3] (two runs, min of 15 and of 25
# interleaved solves, BLAS pinned): at 8 and 12 momenta interpolating cost
# 4% to 22% more at mu = 1 with tight tolerances, at mu = 5 and at mu = 40,
# and at 14 it cost 7% to 25% more at mu <= 5 and -3% to +2% at mu = 40.
# Past 14 the break-even moves with the grid: at 16 to 24 momenta it cost
# 1% to 15% more at mu <= 5 and saved 6% to 14% at mu = 40.
_DEGREE = 6
_DIRECT_MAX = 14
# The first grid has rtol**(-1/8) * max(_SEED_WAVE * mu * w_max, _SEED_SWITCH)
# steps for the largest frequency w_max, since DOP853's error norm scales as
# h**8.  Fitted on measured solves: where mu * w_max > 8, the smallest grid
# that meets the tolerance has N * rtol**(1/8) / (mu * w_max) in
# [0.160, 0.171], and _SEED_WAVE stays above the 0.189 that regrown grids
# reached, which the 1e-9 accuracy of the default tolerances rests on.  The
# smaller solves, whose grid the switch itself sets, need N * rtol**(1/8) of
# at most 1.36 for lam in [-0.3, 0.6]; a stronger shift may need a regrow.
_SEED_WAVE = 0.19
_SEED_SWITCH = 1.5

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
# The Nystrom form of the tableau (see _step_maps): (A^2)_sl, zero unless
# l <= s - 2, and the six rows that give the step and error maps from the
# stages' bottom rows, to be scaled by h**2, h, h, 1, h and 1
_A2 = _A[:-1] @ _A[:-1]
_MAP_ROWS = np.stack([_A[-1] @ _A[:-1], _A[-1], _E[0] @ _A[:-1], _E[0], _E[1] @ _A[:-1], _E[1]])


class IntegratorError(RuntimeError):
    """Raised when the ODE solver fails to produce a trajectory."""


def _bump(u):
    """exp(-1/u) for u > 0, identically 0 otherwise (smooth at 0).  Below
    u = 1/708 the value, under 3.4e-308, is at the edge of the normal
    doubles; it is set to 0 rather than computed, so that no underflow is
    signalled.  The divide and the exponential run in place, masked to
    u > 1/708 by ``where``, so no u <= 0 is ever divided by."""
    u = np.asarray(u, dtype=float)
    on = u > 1.0 / 708.0
    out = np.divide(-1.0, u, out=np.zeros_like(u), where=on)
    return np.exp(out, out=out, where=on)


def chi_unit(s):
    """The unit switching function: 0 for s <= -1, 1 for s >= 0, smooth
    and strictly increasing in between."""
    s = np.asarray(s, dtype=float)
    a = _bump(s + 1.0)
    b = _bump(-s)
    out = a / (a + b)
    return float(out) if out.ndim == 0 else out


def chi_unit_rate(s):
    """Derivative of :func:`chi_unit`; supported on (-1, 0).

    With a = bump(s + 1) and b = bump(-s), and d/du exp(-1/u) =
    exp(-1/u)/u^2, the rate is a b (1/(s+1)^2 + 1/s^2) / (a + b)^2."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = (s > -1.0) & (s < 0.0)
    if np.any(m):
        sm = s[m]
        a, b = _bump(sm + 1.0), _bump(-sm)
        # just above a cut (u < 1/707) the product a b is subnormal: let it
        # round quietly
        with np.errstate(under="ignore"):
            out[m] = a * b * (1.0 / (sm + 1.0) ** 2 + 1.0 / sm**2) / (a + b) ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SwitchingProfile:
    """Switching scale mu: the ramp runs over [-mu, 0]."""

    mu: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    def value(self, t):
        """chi(t/mu): exactly 0 for t <= -mu, exactly 1 for t >= 0."""
        return chi_unit(np.asarray(t, dtype=float) / self.mu)

    def rate(self, t):
        """d/dt of :meth:`value`; integrates to 1 over the ramp."""
        return chi_unit_rate(np.asarray(t, dtype=float) / self.mu) / self.mu


def _plane_waves(terms, t):
    """(T, Tdot) of T(t) = sum of c*exp(i*f*t) over the terms (c, f), each c
    and f one entry per momentum, at the times ``t``: one row per momentum."""
    waves = [(c[:, None] * np.exp(1j * f[:, None] * t), f[:, None]) for c, f in terms]
    T = sum(w for w, _ in waves)
    return T, sum(1j * f * w for w, f in waves)


def _incoming_waves(eps):
    """The terms of the mode before the switch, the plane wave
    exp(-i*eps*t)/sqrt(2*eps), for :func:`_plane_waves`."""
    return [(1.0 / np.sqrt(2.0 * eps), -eps)]


def _outgoing_waves(bog: BogoliubovPair, eps_lambda):
    """The terms of the mode for t >= 0, for :func:`_plane_waves`.  The
    frequency is eps_lambda there, so the mode is
    (a_plus*exp(-i*eps_lambda*t) + a_minus*exp(+i*eps_lambda*t))/sqrt(2*eps_lambda),
    with the pair ``bog`` that :func:`bogoliubov` reads at t = 0: the one
    place that says which amplitude goes with which sign of frequency."""
    root = np.sqrt(2.0 * eps_lambda)
    return [(bog.a_plus / root, -eps_lambda), (bog.a_minus / root, eps_lambda)]


def _samples(eps):
    """The x that :func:`_step_maps` runs the batch ``eps`` (n,) on, once
    per solve and once per read between nodes, and the Lagrange weights
    (n, 7) that interpolate its maps, or None: more than ``_DIRECT_MAX``
    distinct x = eps**2 are sampled at the seven Chebyshev points of
    [min x, max x], any other batch at its own."""
    x = eps * eps
    # distinct x counted on the sorted batch: np.unique would import numpy.ma
    if x.size <= _DIRECT_MAX or np.count_nonzero(np.diff(np.sort(x))) + 1 <= _DIRECT_MAX:
        return x, None
    lo, hi = x.min(), x.max()
    nodes = np.cos(np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1))
    u = (2.0 * x - lo - hi) / (hi - lo)
    # row i of the Lagrange basis of ``nodes`` holds the weights at u[i]
    own = np.eye(nodes.size, dtype=bool)
    num = np.where(own, 1.0, u[:, None, None] - nodes).prod(axis=-1)
    den = np.where(own, 1.0, nodes[:, None] - nodes).prod(axis=-1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes, num / den


class _Arena:
    """Work arrays handed out as consecutive views of one buffer.  ``used``
    counts the doubles handed out: a caller notes it before taking and sets
    it back when the arrays it took are dead, and every block of ramp work
    sets it to 0 at its start.  The buffer starts with ``size`` doubles; a
    request that does not fit replaces it with one of ``used + size``
    doubles, so the buffer grows to the largest block it has served; views
    handed out before keep the old buffer alive, and nothing is handed out
    twice until ``used`` is set back."""

    def __init__(self, size: int = 0):
        self.buf = np.empty(size)
        self.used = 0

    def take(self, shape):
        size = math.prod(shape)
        if self.used + size > self.buf.size:
            self.buf = np.empty(self.used + size)
        self.used += size
        return self.buf[self.used - size : self.used].reshape(shape)


_THREAD = threading.local()


def _block_arena() -> _Arena:
    """This thread's arena, made on the thread's first block of ramp work
    and kept for the life of the thread.  Fresh arrays freed after every
    block cost ~1200 minor page faults per warm verify-all, as glibc trimmed
    the heap and the next block faulted it back.  It starts with 24 planes
    of ``_BLOCK`` doubles (1.5 MiB, faulted in only as blocks write it),
    more than a full block's carry (16 planes with its maps) and error norm
    (22) take, so every block of a default verify-all fits in it, where
    growing from empty, take by take, replaced it 17 times in the first
    run.  Only a block whose step maps take more (up to 48 planes, on a
    batch of few momenta) grows it."""
    arena = getattr(_THREAD, "arena", None)
    if arena is None:
        arena = _THREAD.arena = _Arena(24 * _BLOCK)
    return arena


def _step_maps(t, h, samples, shift: float, mu: float, arena: _Arena):
    """DOP853 steps of the mode equation from the start times ``t`` (m,) by
    the step sizes ``h`` (a scalar or one per start), for every frequency of
    a batch, given as its :func:`_samples`.

    The equation is linear, so a step is a real 2x2 map of (T, Tdot) that
    does not depend on the state: the stages run on the identity, for all
    (start, sample) pairs at once.  They run in the Nystrom form of the
    method (Hairer, Norsett and Wanner, Solving ODEs I, section II.14).
    Stage s's map is d/dt of Y_s = I + h * sum_j a_sj * (stage j), and the
    derivative map [[0, 1], [-w**2, 0]] makes its top row a copy of the
    bottom row of Y_s, so only the bottom rows K_s = -w_s**2 * (top row of
    Y_s) are formed.  The top row of Y_s is e0 + h * sum_j a_sj * (bottom
    row of Y_j) = e0 + h * c_s * e1 + h**2 * sum_l (A**2)_sl K_l, using
    sum_j a_sj = c_s.  In the same way the step map has rows e0 + h * e1 +
    h**2 * sum_l (bA)_l K_l and e1 + h * sum_l b_l K_l, and each error map,
    sum_s E_s * (stage s), has rows h * sum_l (EA)_l K_l and sum_l E_l K_l:
    its e1 term, (sum_s E_s) * e1, is zero.  All six rows are one
    product of ``_MAP_ROWS`` with the stages, each row then scaled by its
    power of h as products (h * h for the square) on the (start, sample)
    planes of h, so a map has the same bits whether h is a scalar, a
    contiguous array or a strided view.

    (A**2)_sl is zero unless l <= s - 2, so stages s and s + 1, for even s,
    read only the stages 0 to s - 1: the stages run as six pairs, the sums
    of each pair one product of ``_A2[s:s + 2, :s]`` with the stages before
    it.

    The momentum enters only through x = eps**2, in -w**2 = -(x + shift *
    chi).  Every map is a sum of products of at most twelve derivative maps
    in which x cannot enter two factors in a row, so each entry is a
    polynomial in x of degree at most ``_DEGREE`` = 6, and seven samples of x
    determine every momentum's maps: with weights, the twelve entry planes
    of the three maps are interpolated in one stacked product.  Returns (step,
    err5, err3), each entries first, of shape (2, 2, m, n): the order-8 step
    map and the two embedded error maps that DOP853's step control combines
    (before its factor h).  The maps are views into ``arena``, whose
    ``used`` is left just past them.
    """
    t = np.asarray(t, dtype=float)
    h = np.asarray(h, dtype=float)
    xs, mix = samples
    m, p = t.size, xs.size
    # a step size per start, laid over whole (start, sample) planes, so that
    # each product with it is one contiguous pass
    h_plane = np.repeat(h[:, None], p, axis=1) if h.ndim else h
    maps = arena.take((3, 2, 2, m, p if mix is None else mix.shape[0]))
    mark = arena.used
    # -w(t)^2 = -shift * chi - x at every stage time, (stage, start, sample)
    neg_w_sq = np.subtract.outer(chi_unit((t + _C[:, None] * h) / mu) * -shift, xs,
                                 out=arena.take((_C.size, m, p)))
    # K_s, the bottom row of stage s's map, (stage, column, start, sample)
    stages = arena.take((_C.size, 2, m, p))
    flat = stages.reshape(_C.size, -1)
    h_sq = h_plane * h_plane
    # e0 + h * c_s * e1, each stage's top row but its h**2 term, (stage,
    # column, start and sample, or 1 and 1)
    lead = _C[:, None, None] * h_plane
    top = np.empty((_C.size, 2) + lead.shape[1:])
    top[:, 0] = 1.0
    top[:, 1] = lead
    for s in range(0, _C.size, 2):
        pair = stages[s : s + 2]
        # stages 0 and 1 read no stage: their product is zero
        np.matmul(_A2[s : s + 2, :s], flat[:s], out=flat[s : s + 2])
        pair *= h_sq
        pair += top[s : s + 2]
        pair *= neg_w_sq[s : s + 2, None]
    # the six rows of the three maps, (map row, column, start, sample)
    rows = maps.reshape(6, 2, m, -1) if mix is None else arena.take((6, 2, m, p))
    np.matmul(_MAP_ROWS, flat, out=rows.reshape(6, -1))
    # each row's factor of h as products, the same bits for any layout of h
    rows[0] *= h_sq
    rows[1:3] *= h_plane
    rows[4] *= h_plane
    rows[0, 0] += 1.0
    rows[0, 1] += h_plane
    rows[1, 1] += 1.0
    if mix is not None:
        # the twelve planes, (start, sample) each, times the Lagrange weights,
        # as one 2-D product: a batched one takes another BLAS path at m = 1,
        # so a one-start block would not match the same start in a larger one
        np.matmul(rows.reshape(12 * m, p), mix.T, out=maps.reshape(12 * m, -1))
    arena.used = mark
    return maps[0], maps[1], maps[2]


def _error_norm(err5, err3, y, h, rtol, atol, arena: _Arena):
    """scipy's DOP853 error norm of every step and momentum, shape (N, n).

    ``err5`` and ``err3`` are the error maps of N steps, (2, 2, N, n), of
    the step sizes ``h``, a scalar or one per step, and ``y`` the (T, Tdot)
    of each momentum at the N + 1 nodes, entries first:
    (component, real or imaginary part, node, momentum).  Each error map
    is applied to its step's start data, scaled componentwise by atol +
    rtol * max(|y|) over the step's two ends, with ``rtol`` and ``atol``
    numbers, and combined over the two components of one momentum as scipy
    combines a two-component state, all on (N, n) planes: each map is
    applied by one einsum pass (see ``_product``), and |y|**2 and sum over
    the parts of (err @ y)**2 are einsum sums over the part axis, the rest
    elementwise arithmetic.  A non-finite error or node, or one whose
    square overflows, gives a NaN or infinite norm for its step and
    momentum, which the solve refuses, never a floating-point error: einsum
    ignores ``np.errstate``, and the arithmetic after it runs under
    ``np.errstate(all="ignore")``.  Only an exact zero error reads 0.  The
    norm is a view into ``arena``, whose ``used`` is left past it.
    """
    n_steps, n = err5.shape[2:]
    norms = arena.take((2, n_steps, n))
    mark = arena.used
    # (atol + rtol * max |y| over the step's two ends)**2 per component
    scale_sq = arena.take((2, n_steps, n))
    scaled = arena.used
    with np.errstate(all="ignore"):
        # |y|**2 per component and node
        sq = np.einsum("cp...,cp...->c...", y, y, out=arena.take((2, n_steps + 1, n)))
        np.sqrt(np.maximum(sq[:, :-1], sq[:, 1:], out=scale_sq), out=scale_sq)
        scale_sq *= rtol
        scale_sq += atol
        np.square(scale_sq, out=scale_sq)
        arena.used = scaled
        # err @ start is (component, real or imaginary part, step, momentum)
        prod = arena.take((2, 2, n_steps, n))
        total = arena.take((2, n_steps, n))
        for err, norm in zip((err5, err3), norms):
            _product(err, y[:, :, :-1], out=prod)
            np.einsum("cp...,cp...->c...", prod, prod, out=total)
            total /= scale_sq
            np.add(total[0], total[1], out=norm)
        e5, denom = norms
        denom *= 0.01
        denom += e5
        # h is a scalar or one per step, a row of e5
        np.multiply(e5.T, h, out=e5.T)
        root = np.sqrt(np.multiply(denom, 2.0, out=denom), out=denom)
        # where the root is 0, so is e5, and the norm reads 0
        np.divide(e5, root, out=e5, where=root != 0)
    arena.used = mark
    return e5


def _product(a, b, out):
    """The 2x2 products a @ b of two entries-first stacks, (2, 2, ...) each,
    written into ``out`` by one einsum pass over the planes.  Entry (i, k)
    is a_i0 * b_0k + a_i1 * b_1k, summed in that order, the same bits as
    the two products and their sum written out as ufuncs.  ``out`` must
    not overlap ``a`` or ``b``.  einsum raises no floating-point error
    under ``np.errstate``: a non-finite or overflowing product is left for
    the error norm and the Wronskian gate to refuse."""
    return np.einsum("ij...,jk...->ik...", a, b, out=out)


def _carry(step, y, heads, arena: _Arena):
    """Fill the nodes of ``y`` through the step maps ``step`` of m steps,
    (2, 2, m, n), with ``y`` entries first, (component, real or imaginary
    part, m + 1 nodes, momentum), from node 0 and the rung heads: the
    positions ``heads`` in (0, m], whose nodes ``y`` holds already (none
    in a block inside one rung).

    A node's planes, (component, part), are a 2x2 stack like a map's, so the
    nodes are the prefix products of each segment's first node and its
    maps.  Node 0 and the maps, step j's in node j + 1, are laid in one of
    two buffers, ``y`` and an arena buffer of its shape, with each head's
    node in place of the map into it, and a log-depth (Hillis-Steele) scan
    then writes z[d:] = x[d:] @ x[:-d] from one buffer x to the other z and
    copies through the d positions from node 0 and from each head, for
    d = 1, 2, 4, ... up to m, after which node j holds the maps of its
    segment up to step j - 1 applied to the segment's first node: each
    segment is carried as a fresh scan of its own would carry it.  The scan
    runs out of place because an einsum may not write over its own inputs;
    it starts in whichever buffer makes it end in ``y``, so the maps are
    laid segment by segment, around the heads.  Each node reads only itself
    and earlier nodes, so nothing past node m changes, and a NaN or an
    infinity in a map reaches only the nodes after its step, where the
    error norm and the Wronskian gate refuse it.  The arena's ``used`` is
    set back on return.
    """
    mark = arena.used
    m = step.shape[2]
    other = arena.take(y.shape)
    # m.bit_length() levels: an odd count starts in the arena buffer
    x, z = (other, y) if m.bit_length() % 2 else (y, other)
    for a, b in zip((0, *heads), (*heads, m + 1)):
        x[:, :, a] = y[:, :, a]
        x[:, :, a + 1 : b] = step[:, :, a : b - 1]
    d = 1
    while d <= m:
        _product(x[:, :, d:], x[:, :, :-d], out=z[:, :, d:])
        for q in (0, *heads):
            z[:, :, q : q + d] = x[:, :, q : q + d]
        x, z = z, x
        d *= 2
    arena.used = mark


def _ramp_solve(k_mags, profs, params: ThermalParams, rtol=_RTOL, atol=_ATOL):
    """One ramp solve of the mode equation for every momentum in ``k_mags``
    and every switching profile in ``profs``, a ladder of rungs: returns one
    :class:`ModeTrajectory` per rung, in the order of ``profs``.  Every
    rung meets the one ``rtol`` and ``atol``.

    Each rung lays its own uniform grid on [-mu, 0], seeded at its final
    size from the h**8 error law, rtol**(-1/8) * max(_SEED_WAVE * mu *
    (largest frequency), _SEED_SWITCH) steps: the oscillation term was
    fitted on solves with mu * (largest frequency) > 8 and the switch term
    on the smaller ones, and on the measured solves this grid meets the
    tolerance in one pass.  The rungs' grids are laid end to
    end as segments of one array of node positions, each led by its head,
    the plane-wave data at its -mu, and every position is carried through
    the DOP853 step maps of every momentum by a prefix scan of each block's
    nodes (see ``_carry``).  The maps are built for a block of ``_BLOCK //
    n`` positions at a time (at least one) for n momenta, so memory stays
    bounded; a block may span rungs, each start carrying its own mu and h,
    and the step into a head has h = 0, so its error norm reads 0.  A rung
    that one block holds gets the nodes of a solve of it alone, to the
    bit.  As a fallback, while a rung's worst step error (scipy's norm at
    the tolerances, per momentum) is not below 1, its step count N grows as
    scipy grows a step after a rejection, to ceil(N * err**(1/8) / 0.9),
    and the whole ladder is laid again, every rung that met the tolerance
    on its step count as before, for at most ``_MAX_PASSES`` passes of at
    most ``_MAX_GRID`` step maps per rung.  Every momentum's Wronskian is
    then gated at every node of the last pass, and each rung's trajectory
    is a view into that pass's node planes; its ``passes`` is the ladder's.
    """
    ks = np.atleast_1d(np.asarray(k_mags, dtype=float))
    disp = dispersion(ks, params)
    eps, eps_lam = disp.eps, disp.eps_lambda
    shift, n = params.mass_shift, ks.size
    block = max(1, _BLOCK // n)
    samples = _samples(eps)
    arena = _block_arena()
    w_max = max(eps.max(), eps_lam.max())
    mus = [prof.mu for prof in profs]
    # the step count of each rung's next grid
    sizes = [rtol**-0.125 * max(_SEED_WAVE * mu * w_max, _SEED_SWITCH) for mu in mus]
    # each rung's head, the plane-wave data at its -mu, (component, part, rung, momentum)
    data = np.array([[w.real.T, w.imag.T] for w in _plane_waves(_incoming_waves(eps), -np.array(mus))])
    for passes in range(1, _MAX_PASSES + 1):
        for mu, size in zip(mus, sizes):
            if not size * n <= _MAX_GRID:  # also catches an infinite or NaN size
                raise IntegratorError(
                    f"ramp solve for k in [{ks.min()}, {ks.max()}], mu={mu} needs {size:.3g} steps "
                    f"for {n} momenta, beyond {_MAX_GRID} step maps"
                )
        counts = [math.ceil(size) for size in sizes]
        steps = [mu / n_steps for mu, n_steps in zip(mus, counts)]
        heads = list(itertools.accumulate((n_steps + 1 for n_steps in counts), initial=0))
        # each rung's grid in np.linspace's arithmetic, j * (mu / N) - mu and 0
        # at the end, the same bits at a third of its cost
        t = np.concatenate([np.arange(n_steps + 1) * h - mu for mu, n_steps, h in zip(mus, counts, steps)])
        t[np.subtract(heads[1:], 1)] = 0.0
        # (component, real or imaginary part, node, momentum)
        y = np.empty((2, 2, t.size, n))
        y[:, :, heads[:-1]] = data
        # each rung's worst error norm over the blocks that hold its steps,
        # a NaN kept
        worst = [0.0] * len(mus)
        for lo in range(0, t.size - 1, block):
            hi = min(lo + block, t.size - 1)
            arena.used = 0
            # the rung of node lo, the heads after it in the block, and the
            # steps of each rung the block holds, the step into a head with
            # its rung
            first = bisect.bisect_right(heads, lo) - 1
            inner = [q - lo for q in heads[first + 1 : -1] if q <= hi]
            cuts = [0, *(q - 1 for q in inner), hi - lo]
            # a block inside one rung steps by its h and mu alone, one that
            # spans rungs by one per step, h = 0 into a head
            h, mu = steps[first], mus[first]
            if inner:
                held = slice(first, first + len(cuts) - 1)
                h, mu = (np.repeat(v[held], np.diff(cuts)) for v in (steps, mus))
                h[cuts[1:-1]] = 0.0
            step, err5, err3 = _step_maps(t[lo:hi], h, samples, shift, mu, arena)
            _carry(step, y[:, :, lo : hi + 1], inner, arena)
            norm = _error_norm(err5, err3, y[:, :, lo : hi + 1], h, rtol, atol, arena)
            for r, a, b in zip(itertools.count(first), cuts, cuts[1:]):
                worst[r] = norm[a:b].max(initial=worst[r])
        if all(err < 1.0 for err in worst):  # a NaN is not below 1
            break
        # a rung short of the tolerance grows; the others keep their sizes
        for r, (mu, n_steps, err) in enumerate(zip(mus, counts, worst)):
            if not err < 1.0:
                if not math.isfinite(err) or passes == _MAX_PASSES:
                    raise IntegratorError(
                        f"ramp solve for k in [{ks.min()}, {ks.max()}], mu={mu} did not meet "
                        f"rtol={rtol}, atol={atol}: worst step error {err:.3e} on a grid "
                        f"of {n_steps} steps after {passes} passes"
                    )
                sizes[r] = n_steps * err**0.125 / 0.9
    segments = [
        (lo, hi, mu, f"grid of {n_steps} steps after {passes} passes, rtol={rtol}, atol={atol}")
        for mu, n_steps, lo, hi in zip(mus, counts, heads, heads[1:])
    ]
    return [
        ModeTrajectory(
            k_mag=ks, mu=mu, params=params, eps=eps, eps_lambda=eps_lam, t=t[lo:hi],
            y=y[:, :, lo:hi], passes=passes, worst_drift=drift, worst_drift_t=drift_t,
        )
        for (lo, hi, mu, _), (drift, drift_t) in zip(segments, _gate(y, ks, t, segments))
    ]


def _complex(part):
    """The complex array of one component's planes, momentum axis first."""
    return (part[0] + 1j * part[1]).T


def _drift(y):
    """|W - i|, shape (time, momentum), of (T, Tdot) laid out (component, real
    or imaginary part, time, momentum): W = conj(Tdot)*T - conj(T)*Tdot,
    exactly i for a mode, is 2i*(Tdot_re*T_im - Tdot_im*T_re)."""
    return np.abs(2.0 * (y[1, 0] * y[0, 1] - y[1, 1] * y[0, 0]) - 1.0)


def _gate(y, ks, t, segments) -> list[tuple[float, float]]:
    """The Wronskian gate over the planes ``y`` of the momenta ``ks`` at the
    times ``t`` (see :func:`_drift`), taken on each segment (lo, hi, mu,
    detail) of positions, the nodes or the reads of one rung: returns the
    worst drift of each segment and its time, or raises ``IntegratorError``
    naming both, the segment's mu and, in parentheses at the end, its
    ``detail``, for the first segment whose drift exceeds
    ``_WRONSKIAN_TOL``.  The drift is formed under
    ``np.errstate(all="ignore")``: planes that are not finite, or whose
    products overflow, read a NaN or infinite drift and fail the gate,
    never a floating-point error."""
    with np.errstate(all="ignore"):
        drift = _drift(y)
    worst = []
    for lo, hi, mu, detail in segments:
        # the first largest drift in row-major order, a NaN first of all
        i, col = divmod(int(np.argmax(drift[lo:hi])), drift.shape[1])
        i += lo
        if not drift[i, col] <= _WRONSKIAN_TOL:  # a NaN drift fails too
            raise IntegratorError(
                f"Wronskian drift {drift[i, col]:.3e} exceeds {_WRONSKIAN_TOL:.1e} "
                f"for k={ks[col]}, mu={mu} at t={t[i]:.6g} ({detail})"
            )
        worst.append((float(drift[i, col]), float(t[i])))
    return worst


@dataclass
class ModeTrajectory:
    """Solved modes for one mu: the grid solution and how it was obtained.

    The trajectory always holds the batch: ``k_mag``, ``eps`` and
    ``eps_lambda`` have one entry per momentum, and a scalar momentum is the
    batch of one.  ``t`` holds the nodes of the uniform grid on [-mu, 0],
    the only stretch that is integrated; its last node is t = 0, where
    :func:`bogoliubov` reads the pairs.  ``y`` is the one store
    of (T, Tdot) at the nodes, real planes laid out (component, real or
    imaginary part, node, momentum); ``_complex`` of a component's planes
    is its complex array, one row per momentum.  :meth:`evaluate` extends
    exactly to all t < -mu with the incoming plane wave, answers between
    nodes by one partial step from the node before (see
    :func:`_between_nodes`) and at every t > 0 in closed form from the data
    at t = 0.

    ``passes`` is the number of grids the step-count search laid for the
    ladder the trajectory was solved in, and
    ``worst_drift`` the largest Wronskian drift over every node and
    momentum, reached at ``worst_drift_t``.
    """

    k_mag: np.ndarray
    mu: float
    params: ThermalParams
    eps: np.ndarray
    eps_lambda: np.ndarray
    t: np.ndarray
    y: np.ndarray
    passes: int
    worst_drift: float
    worst_drift_t: float

    @property
    def n_steps(self) -> int:
        """Steps of the grid."""
        return self.t.size - 1

    def evaluate(self, t):
        """(T, Tdot) at any finite times ``t``, a scalar or a 1-D array, each
        of shape (momenta, times).  Before the ramp and from t = 0 on the
        values are the plane waves of :func:`_incoming_waves` and
        :func:`_outgoing_waves`; every momentum's Wronskian is gated at the
        times inside the ramp."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.ndim > 1:
            raise ValueError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError(f"times must be finite, got {t[~np.isfinite(t)]}")
        T = np.empty((self.eps.size, t.size), dtype=complex)
        Td = np.empty_like(T)
        before = t < -self.mu
        after = t >= 0.0
        ramp = ~(before | after)
        if np.any(before):
            T[:, before], Td[:, before] = _plane_waves(_incoming_waves(self.eps), t[before])
        if np.any(ramp):
            y = _between_nodes([self], [t[ramp]])
            T[:, ramp], Td[:, ramp] = _complex(y[0]), _complex(y[1])
        if np.any(after):
            waves = _outgoing_waves(bogoliubov(self), self.eps_lambda)
            T[:, after], Td[:, after] = _plane_waves(waves, t[after])
        return T, Td

    # an alias of worst_drift; benchmarks/worker.py is its last reader
    @property
    def max_wronskian_residual(self) -> float:
        return self.worst_drift


def _between_nodes(trajs, times):
    """The node planes, entries first, of the solves ``trajs`` of one
    momentum batch at their ramp times ``times``, one array of times per
    trajectory, laid end to end: each value is one partial step from the
    node before it, and the Wronskian is gated on each trajectory's values.
    The read sets up its :func:`_samples` once and takes each block's work
    arrays from the thread's arena; a block of ``_BLOCK // n`` values may
    span trajectories, each start carrying its own mu and h."""
    first = trajs[0]
    ts = np.concatenate(times)
    nodes = [np.searchsorted(traj.t, tt, side="right") - 1 for traj, tt in zip(trajs, times)]
    t0 = np.concatenate([traj.t[node] for traj, node in zip(trajs, nodes)])
    h = ts - t0
    mu = np.repeat([traj.mu for traj in trajs], [tt.size for tt in times])
    start = np.concatenate([traj.y.take(node, axis=2) for traj, node in zip(trajs, nodes)], axis=2)
    y = np.empty_like(start)
    arena, shift, samples = _block_arena(), first.params.mass_shift, _samples(first.eps)
    block = max(1, _BLOCK // first.eps.size)
    for lo in range(0, ts.size, block):
        part = slice(lo, lo + block)
        arena.used = 0
        step, _, _ = _step_maps(t0[part], h[part], samples, shift, mu[part], arena)
        _product(step, start[:, :, part], out=y[:, :, part])
    bounds = np.cumsum([0, *(tt.size for tt in times)])
    _gate(y, first.k_mag, ts, [
        (lo, hi, traj.mu, f"grid of {traj.n_steps} steps after {traj.passes} passes")
        for traj, lo, hi in zip(trajs, bounds, bounds[1:])
    ])
    return y


def solve_modes(
    k_mag,
    prof: SwitchingProfile,
    params: ThermalParams,
    t_max: float = 1.0,  # benchmarks/worker.py is its last reader
    rtol: float = _RTOL,
    atol: float = _ATOL,
    method: str = "DOP853",  # benchmarks/worker.py is its last reader
) -> ModeTrajectory:
    """Integrate the mode equation from plane-wave data before the switch.

    One ramp solve for every momentum in ``k_mag`` (a scalar is the batch of
    one).  It starts at t0 = -mu, where the switch turns on and
    T = exp(-i*eps*t0)/sqrt(2*eps), Tdot = -i*eps*T make the Wronskian
    exactly i, and stops at t = 0; the trajectory answers every later time
    in closed form.  Each momentum's step error meets ``rtol`` and ``atol``
    as DOP853's step control measures it, and the Wronskian drift, a second
    error estimate, is enforced for every momentum at every grid node.  The
    momenta must be a scalar or a non-empty 1-D array, all finite, ``rtol``
    positive and ``atol`` non-negative, both finite.  ``t_max`` must be >= 0
    and changes nothing computed; ``method`` names the scheme and must be
    "DOP853".
    """
    if not t_max >= 0:  # a NaN t_max fails too
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if not (np.ndim(k_mag) <= 1 and np.size(k_mag) > 0 and np.isfinite(k_mag).all()):
        raise ValueError(f"momenta must be finite, a scalar or a non-empty 1-D array, got {k_mag}")
    if not 0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    if not 0 <= atol < math.inf:
        raise ValueError(f"atol must be non-negative and finite, got {atol}")
    if method != "DOP853":
        raise ValueError(f"ramp solves use method='DOP853', got {method!r}")
    return _ramp_solve(k_mag, [prof], params, rtol, atol)[0]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """numpy's n-point Gauss-Legendre rule on [-1, 1], computed once per node
    count (``leggauss`` is a dense O(n^3) eigen-solve) and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_nodes(a: float, b: float, max_freq: float, min_panels: int = 4):
    """Composite Gauss-Legendre nodes and weights on [a, b]: one panel of
    ``_GL_ORDER`` nodes per period of the fastest oscillation, at angular
    frequency ``max_freq``, and at least ``min_panels`` panels.  On a panel
    of one period, the n-point rule's remainder bounds its error for
    exp(i*max_freq*t) by 2**(2n) (n!)**4 pi**(2n) / ((2n+1) ((2n)!)**3),
    5.3e-15, times the panel's width at n = 10."""
    periods = (b - a) * max_freq / (2.0 * np.pi)
    n_panels = max(min_panels, int(np.ceil(periods)))
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x, w = _gauss_legendre(_GL_ORDER)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
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
    grid nodes by partial steps: one value per momentum.  The ramp runs at
    frequencies between eps and eps_lambda, so T^2 oscillates at up to
    twice the larger of the two over the batch, and the panels give one
    per period of that (see ``_panel_nodes``), and at least 16 for the
    bump-shaped rate.  As mu grows, I_abs tends to 1/(eps_lambda + eps)
    and I_sq tends to 0.
    """
    return _switch_integrals(solve_modes(k_mag, prof, params))[0]


def _switch_integrals(*trajs: ModeTrajectory):
    """(I_sq, I_abs) of :func:`switch_integrals` for each of the solves
    ``trajs`` of one momentum batch, read from them: the one quadrature of
    the switching integrals.  Every solve's panel nodes, all inside its
    ramp, are read in one pass (see :func:`_between_nodes`), and each
    solve's sums are formed on a contiguous copy of its values, so a solve
    read beside others gets the bits it gets read alone."""
    # panels sized for both the mode oscillation and the bump-shaped rate
    rules = [_panel_nodes(-traj.mu, 0.0, 2.0 * max(traj.eps.max(), traj.eps_lambda.max()),
                          min_panels=16) for traj in trajs]
    T = _complex(_between_nodes(trajs, [nodes for nodes, _ in rules])[0])
    out, lo = [], 0
    for traj, (nodes, weights) in zip(trajs, rules):
        part = T[:, lo : lo + nodes.size].copy()
        lo += nodes.size
        w = weights * SwitchingProfile(traj.mu).rate(nodes)
        out.append(((part * part) @ w, (part.real**2 + part.imag**2) @ w))
    return out


@dataclass(frozen=True)
class BogoliubovPair:
    """Amplitudes of exp(-i*eps_lambda*t) and exp(+i*eps_lambda*t) in the
    post-switch mode; the Wronskian forces |a_plus|^2 - |a_minus|^2 = 1.
    The fields are arrays with one entry per momentum, or numbers where a
    closed form is evaluated at a scalar momentum."""

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
    positive shifted frequency.  The pair holds arrays, one entry per
    momentum.
    """
    (T, Td), el = (_complex(part) for part in traj.y[:, :, -1]), traj.eps_lambda
    root = np.sqrt(2.0 * el) / 2.0
    return BogoliubovPair(root * (T + 1j * Td / el), root * (T - 1j * Td / el))


def sudden_quench_pair(k_mag, params: ThermalParams) -> BogoliubovPair:
    """Closed-form pair for an instantaneous frequency jump at t = 0.

    Matching the incoming plane wave and its derivative across the jump
    gives a_pm = (sqrt(eps_lambda/eps) +- sqrt(eps/eps_lambda)) / 2, per
    momentum; the smooth-ramp extraction approaches this as mu -> 0.
    """
    disp = dispersion(k_mag, params)
    r = np.sqrt(disp.eps_lambda / disp.eps)
    return BogoliubovPair((r + 1.0 / r) / 2.0, (r - 1.0 / r) / 2.0)


def _product_terms(bog: BogoliubovPair, eps_lambda, t1: float, t2: float):
    """The post-switch products T(t1+tau)*T(t2+tau) and
    T(t1+tau)*conj(T(t2+tau)) as the term products of
    :func:`_outgoing_waves`: its terms (c, f) and (d, g) give
    c*d*exp(i*(f*t1 + g*t2)) at frequency f + g in tau, and
    c*conj(d)*exp(i*(f*t1 - g*t2)) at f - g.  Returns (tt, ttbar), two lists
    of (coefficient, frequency in tau), per momentum.
    """
    pairs = list(itertools.product(_outgoing_waves(bog, eps_lambda), repeat=2))
    tt = [(c * d * np.exp(1j * (f * t1 + g * t2)), f + g) for (c, f), (d, g) in pairs]
    ttbar = [(c * np.conj(d) * np.exp(1j * (f * t1 - g * t2)), f - g) for (c, f), (d, g) in pairs]
    return tt, ttbar


def _tau_integral(freq, a: float, b: float):
    """Integral of exp(i*freq*tau) over [a, b], elementwise: b - a at freq 0."""
    f = np.where(freq == 0.0, 1.0, freq)
    return np.where(freq == 0.0, b - a, (np.exp(1j * f * b) - np.exp(1j * f * a)) / (1j * f))


def ergodic_limits(bog: BogoliubovPair, eps_lambda, t1: float, t2: float):
    """Infinite-horizon limits (limit_TT, limit_TTbar) of the two mode-product
    averages: averaging washes out every term of :func:`_product_terms`
    whose phase grows with the shift variable, leaving the zero-frequency
    terms.  Returns one value per momentum: the pair and ``eps_lambda``
    broadcast against each other, and scalars are the batch of one.  A
    non-finite time raises.
    """
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError(f"need finite t1, t2, got {t1}, {t2}")
    terms = _product_terms(bog, np.atleast_1d(eps_lambda), t1, t2)
    return tuple(sum(np.where(f == 0.0, c, 0.0) for c, f in product) for product in terms)


def ergodic_averages(
    k_mag,
    prof: SwitchingProfile,
    params: ThermalParams,
    t1: float,
    t2: float,
    horizon: float,
):
    """Finite-horizon averages of T(t1+tau)*T(t2+tau) and T(t1+tau)*conj(T(t2+tau)).

    The average runs over tau in [0, horizon] for every momentum in
    ``k_mag``, from one solve at the default tolerances.  Once both shifted
    arguments are >= 0 each term of :func:`_product_terms` is integrated in
    closed form; the initial stretch, while either argument still probes the
    ramp, is done by quadrature on the solved trajectory, on four panels per
    period of the fastest product in the batch.  Each average has one value per
    momentum and approaches its infinite-horizon limit at rate O(1/horizon).
    A horizon that is not positive and finite, or a non-finite time, raises.
    """
    if not (0 < horizon < math.inf and math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError(f"need a finite horizon > 0 and finite t1, t2, got {horizon}, {t1}, {t2}")
    tau_min = max(0.0, -t1, -t2)
    cut = min(tau_min, horizon)
    traj = solve_modes(k_mag, prof, params)
    int_tt = int_ttbar = 0.0
    if cut > 0.0:
        # four panels per period of the fastest product, 2 * max(eps,
        # eps_lambda): the stretch may hold the whole ramp, and at mu ~ 1 one
        # panel per period leaves the switch itself unresolved (1e-9 off)
        nodes, weights = _panel_nodes(0.0, cut, 8.0 * max(traj.eps.max(), traj.eps_lambda.max()))
        Ta, _ = traj.evaluate(t1 + nodes)
        Tb, _ = traj.evaluate(t2 + nodes)
        int_tt, int_ttbar = (Ta * Tb) @ weights, (Ta * np.conj(Tb)) @ weights
    if horizon > tau_min:
        tt, ttbar = _product_terms(bogoliubov(traj), traj.eps_lambda, t1, t2)
        int_tt = int_tt + sum(c * _tau_integral(f, tau_min, horizon) for c, f in tt)
        int_ttbar = int_ttbar + sum(c * _tau_integral(f, tau_min, horizon) for c, f in ttbar)
    return int_tt / horizon, int_ttbar / horizon
