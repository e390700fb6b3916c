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
:mod:`thermalquench.modes` writes in one place, and the DOP853 weights of
the ramp kernel's step maps.
"""

import numpy as np
import pytest

from thermalquench import modes, spectral, verify
from thermalquench.config import default_config
from thermalquench.modes import IntegratorError

OUTGOING = modes._outgoing_waves
INCOMING = modes._incoming_waves


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


# (module the reader looks the name up in, name, mutant, criterion, refusal):
# a refusal of None is a FAIL status, a string is the pattern of the
# IntegratorError raised inside the criterion
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
]


@pytest.mark.parametrize("module, name, mutant, index, refusal", ROWS)
def test_mutation_is_refused(monkeypatch, module, name, mutant, index, refusal):
    monkeypatch.setattr(module, name, mutant)
    criterion = verify.CRITERIA[index]
    if refusal is None:
        assert criterion(default_config()).status == "fail"
    else:
        with pytest.raises(IntegratorError, match=rf"^criterion {index} \(.*\): {refusal}"):
            criterion(default_config())

