"""The mutation table: each row plants one plausible bug in the library and
names the check that must refuse it.

A row replaces one library function or table under the name its reader
looks it up by, runs the one acceptance criterion the row names on the
default config, and requires a refusal: a FAIL status, or the
``IntegratorError`` of a numerical gate, raised inside that criterion,
whose message matches the row.  A row that nothing refuses fails here; the fix is a sharper check,
never a dropped row.  Every criterion a row names passes the unmutated
program (``tests/test_acceptance.py``), so a refusal here is the planted
bug's.  The rows start with the plane waves outside the ramp, which
:mod:`thermalquench.modes` writes in one place, the DOP853 weights and
the powers of h of the ramp kernel's step maps and the carry of a
ladder's rungs; then come the
derivative tower of the thermal coefficient, the shifted inverse
temperature, the thermal coefficients of the pairing plan, the frequency of the Bogoliubov
extraction, the Eulerian recursion and the two directions of the
moment-cumulant recursion.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from thermalquench import combinatorics, modes, spectral, verify
from thermalquench.config import default_config
from thermalquench.modes import IntegratorError

OUTGOING = modes._outgoing_waves
INCOMING = modes._incoming_waves
PAIRING_PLAN = verify.pairing_plan
EULERIAN = combinatorics._eulerian_coefficients
CARRY = modes._carry
STEP_MAPS = modes._step_maps
BOSE_DERIVATIVE = verify.bose_derivative


def swapped_outgoing(bog, eps_lambda):
    """The post-switch waves with each Bogoliubov amplitude on the other
    sign of frequency: a phase-sign slip."""
    (a_plus, f_plus), (a_minus, f_minus) = OUTGOING(bog, eps_lambda)
    return [(a_plus, f_minus), (a_minus, f_plus)]


def flipped_incoming(eps):
    """The incoming wave as exp(+i*eps*t)/sqrt(2*eps), whose Wronskian is -i."""
    return [(c, -f) for c, f in INCOMING(eps)]


def nudged_map_rows():
    """``modes._MAP_ROWS`` with the order-8 weight b5 times (1 + 1e-5): the
    step map's two rows, b A and b, rebuilt from the nudged weights, and the
    error maps' rows as they are."""
    weights = modes._A[-1].copy()
    weights[5] *= 1.0 + 1e-5
    rows = modes._MAP_ROWS.copy()
    rows[0], rows[1] = weights @ modes._A[:-1], weights
    assert np.count_nonzero((rows != modes._MAP_ROWS).any(axis=1)) == 2
    return rows


def first_row_by_h(t, h, samples, shift, mu, arena):
    """The step maps with the step map's first row, e0 + h * e1 + h**2 *
    (b A) K, scaled by h in place of h * h in its last term.  The error maps
    are left as they are, so every grid passes its error norm."""
    step, err5, err3 = STEP_MAPS(t, h, samples, shift, mu, arena)
    h = np.broadcast_to(np.reshape(h, (-1, 1)), step.shape[2:])
    top = step[0]
    top[0] -= 1.0
    top[1] -= h
    np.divide(top, h, out=top, where=h != 0.0)
    top[0] += 1.0
    top[1] += h
    return step, err5, err3


def carry_across_rungs(step, y, heads, arena):
    """The carry with the rung heads ignored: each rung of a ladder solve
    starts from the last node of the rung before it, carried through the
    identity map of the step into its head, not from its own plane wave.
    Each mode keeps its Wronskian."""
    return CARRY(step, y, [], arena)


def nudged_tower(n, sign, beta, eps):
    """The derivative tower with every order n >= 3 times (1 + 1e-11): an
    error well below what a finite-difference check can see."""
    value = BOSE_DERIVATIVE(n, sign, beta, eps)
    return value * (1.0 + 1e-11) if n >= 3 else value


def first_order_shifted_beta(params, disp):
    """beta' to first order in the mass shift, beta * (1 + lam*m0_sq / (2
    eps**2)), in place of the exact beta * eps_lambda / eps."""
    return params.beta * (1.0 + params.mass_shift / (2.0 * disp.eps**2))


def swapped_plan(*args):
    """The pairing plan with the thermal coefficients b_plus and b_minus
    exchanged."""
    plan = PAIRING_PLAN(*args)
    return dataclasses.replace(plan, c_plus=plan.c_minus, c_minus=plan.c_plus)


def free_frequency_extraction(traj):
    """The Bogoliubov pair extracted with eps in place of eps_lambda.  The
    normalization |a_plus|^2 - |a_minus|^2 = 1 holds at any extraction
    frequency, so only the sudden-jump oracle can see it."""
    return modes.bogoliubov(dataclasses.replace(traj, eps_lambda=traj.eps))


def bumped_eulerian(n):
    """The Eulerian recursion with the second coefficient of every row
    n >= 3 one too large, each row built on the bumped row before it.  It
    recurses through the uncached function, so no bad row enters the
    ``lru_cache`` of the real one and outlives the row."""
    row = list(EULERIAN.__wrapped__(n))
    if n >= 3:
        row[1] += 1
    return tuple(row)


def _block_terms(subset, connected, moments, first):
    """The sum over the blocks B of ``subset`` that hold its least item s0,
    are not all of it and have at least ``first`` items besides s0, of
    connected[B] * moments[subset - B]."""
    s0 = min(subset)
    rest = sorted(subset - {s0})
    total = 0
    for r in range(first, len(rest)):
        for others in itertools.combinations(rest, r):
            block = frozenset((s0, *others))
            total += connected[block] * moments[subset - block]
    return total


def cumulants_without_singleton(moments):
    """``connected_from_moments`` with the block B = {s0} left out of every
    subset's sum: a subset walk that stops before its empty subset."""
    connected = {}
    for subset in sorted(moments, key=len):
        connected[subset] = moments[subset] - _block_terms(subset, connected, moments, 1)
    return connected


def moments_without_whole_set(connected):
    """``moments_from_connected`` with connected[S] left out of every
    moments[S]."""
    moments = {}
    for subset in sorted(connected, key=len):
        moments[subset] = _block_terms(subset, connected, moments, 0)
    return moments


# (module the reader looks the name up in, name, mutant, criterion, refusal):
# a refusal of None is a FAIL status, a string is the pattern of the
# IntegratorError raised inside the criterion, and a function is a FAIL
# status whose measured values it must accept
ROWS = [
    # criterion 6's projection reads the post-switch waves: final_rel_gap 1.17
    pytest.param(spectral, "_outgoing_waves", swapped_outgoing, 6, None,
                 id="outgoing-waves-swapped"),
    # every ramp solve starts from the incoming wave: the Wronskian gate
    # reads a drift of 2 on the first solve of criterion 4's suite
    pytest.param(modes, "_incoming_waves", flipped_incoming, 4, r"Wronskian drift 2\.000e\+00",
                 id="incoming-sign-flipped"),
    # every step map reads the weights: the gate reads a drift of 3.1e-5 at
    # t = 0 on the first solve of criterion 4's suite, where c4's own bound
    # equals the gate's and so cannot fire first
    pytest.param(modes, "_MAP_ROWS", nudged_map_rows(), 4, r"Wronskian drift 3\.139e-05",
                 id="dop853-weight-nudged"),
    # every step map scales its first row's stage term by h**2: by h, the
    # grid still passes its error norm, and the gate reads a drift of 0.99
    # at t = 0 on the first solve of criterion 4's suite
    pytest.param(modes, "_step_maps", first_row_by_h, 4,
                 r"Wronskian drift 9\.926e-01 .* for k=1\.0, mu=5\.0 at t=0 ",
                 id="step-map-first-row-scaled-by-h"),
    # evaluate, past t = 0, reads the post-switch waves: criterion 4 reads a
    # continuity gap of 1.002 with the t = 0 node and a Wronskian drift of 2
    pytest.param(modes, "_outgoing_waves", swapped_outgoing, 4, None,
                 id="outgoing-waves-swapped-in-modes"),
    # the suite's ladder solve, mu = 5, 10, 20, 40 and 1 in one call: every
    # rung after the first starts from the one before it.  Each mode keeps
    # its Wronskian, so criteria 4 and 8 pass; criterion 5's integrals
    # read final_abs_gap 0.0138 and final_sq 0.112 against its 1e-2
    pytest.param(modes, "_carry", carry_across_rungs, 5, None, id="ladder-carry-crosses-rungs"),
    # criterion 6's ladder solve, mu = 5, 10, 20 and 40 on its 42 kept
    # nodes, in blocks of 195 steps: a rung that starts inside a block
    # starts from the rung before it, and final_rel_gap reads 0.0320
    # against its 1e-2
    pytest.param(modes, "_carry", carry_across_rungs, 6, None,
                 id="ladder-carry-crosses-rungs-in-criterion-6"),
    # criterion 2's orders 1-8 read worst_rel_to_8 1.0e-11 against its
    # 1e-13; its orders 1-4 and the Richardson check it replaced, 2.1e-9,
    # both pass it.  Criterion 7 passes it too: planted where the series
    # reads the tower, it moves max_dual_path_dev to 1.0e-11 against 1e-10
    pytest.param(verify, "bose_derivative", nudged_tower, 2, None, id="derivative-tower-nudged"),
    # criterion 3 reads worst_abs 3.04e-2 against its 1e-12.  Criterion 7
    # passes it: the series never reads shifted_beta
    pytest.param(verify, "shifted_beta", first_order_shifted_beta, 3, None,
                 id="shifted-beta-first-order"),
    # criterion 6's pairing weights each mode product by b_plus and b_minus:
    # final_rel_gap 1.166
    pytest.param(verify, "pairing_plan", swapped_plan, 6, None, id="thermal-coefficients-swapped"),
    # criterion 8's sudden-jump oracle reads worst_sudden_gap 0.102 against
    # its 1e-3
    pytest.param(verify, "bogoliubov", free_frequency_extraction, 8, None,
                 id="extraction-at-free-frequency"),
    # criterion 1's recursion differs from the enumeration from n = 3 on
    pytest.param(combinatorics, "_eulerian_coefficients", bumped_eulerian, 1, None,
                 id="eulerian-coefficient-bumped"),
    # criterion 10's round trip: moments[{1, 2}] comes back as
    # m12 + m1 * m2.  Its Wick tables have means, so the Wick check refuses
    # it too: worst_high_order reads 20.04 against its 1e-12
    pytest.param(verify, "connected_from_moments", cumulants_without_singleton, 10,
                 lambda measured: measured["worst_high_order"] > measured["tol"],
                 id="cumulant-recursion-drops-singleton"),
    # criterion 10's round trip: every moment comes back 0
    pytest.param(verify, "moments_from_connected", moments_without_whole_set, 10, None,
                 id="moments-recursion-drops-whole-set"),
]


@pytest.mark.parametrize("module, name, mutant, index, refusal", ROWS)
def test_mutation_is_refused(monkeypatch, module, name, mutant, index, refusal):
    monkeypatch.setattr(module, name, mutant)
    criterion = verify.CRITERIA[index]
    if refusal is None or callable(refusal):
        result = criterion(default_config())
        assert result.status == "fail"
        assert refusal is None or refusal(result.measured), result.measured
    else:
        with pytest.raises(IntegratorError, match=rf"^criterion {index} \(.*\): {refusal}"):
            criterion(default_config())

