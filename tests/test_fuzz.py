"""Fuzzed config documents through ``series``, ``limits`` and ``ness``.

Each document starts from a small valid config on a tiny quadrature and
takes up to two malformations: a field set to NaN, an infinity, a negative,
zero, huge or tiny value, a field deleted, a ladder reversed, or a key at
any depth renamed by appending ``_``.  Whatever the document, every command
exits with one of the four documented codes, raises nothing past ``main``,
writes nothing on exit 2 or 3, and otherwise prints strict JSON or a CSV
table of finite numbers.  A document with a renamed key exits 2.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from thermalquench.cli import main

BAD_VALUES = [math.nan, math.inf, -math.inf, -1.5, 0.0, 1e300, -1e300, 1e-300]
# node counts only take values that fail validation, 20000 among them: a
# count beyond the node cap is refused before any rule is built
BAD_COUNTS = [math.nan, math.inf, -math.inf, -3, 0, 20000]
COUNT_FIELDS = {"n_radial", "n_time", "orders"}


def _packet(draw):
    return {
        "k_center": draw(st.floats(0.3, 1.5)),
        "k_width": draw(st.floats(0.2, 0.6)),
        "t_center": draw(st.floats(-1.0, 3.0)),
        "t_width": draw(st.floats(0.2, 0.5)),
    }


def _ladder(draw, lo, hi):
    values = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=2, unique=True))
    return sorted(values)


def _paths(doc, path=()):
    """Paths of every entry in the document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _leaves(doc):
    """Paths of every number in the document."""
    return [p for p in _paths(doc) if not isinstance(_node(doc, p), (dict, list))]


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def config_docs(draw):
    doc = {
        "params": {
            "beta": draw(st.floats(0.2, 3.0)),
            "m_sq": draw(st.floats(0.5, 2.0)),
            "m0_sq": 1.0,
            "lam": draw(st.floats(-0.4, 1.0)),
        },
        "profile": {"mu": draw(st.floats(1e-3, 3.0))},
        "packets": [_packet(draw), _packet(draw)],
        "ladders": {
            "mu": _ladder(draw, 0.5, 12.0),
            "k": _ladder(draw, 0.0, 2.0),
            "orders": list(range(1, draw(st.integers(1, 6)) + 1)),
        },
        "quadrature": {"n_radial": draw(st.integers(1, 6)), "n_time": draw(st.integers(1, 8))},
    }
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(["value", "delete", "reverse", "rename"]))
        if action == "rename":
            keys = [p for p in _paths(doc) if isinstance(p[-1], str)]
            *parents, key = draw(st.sampled_from(sorted(keys, key=repr)))
            node = _node(doc, parents)
            node[key + "_"] = node.pop(key)
            continue
        *parents, key = path = draw(st.sampled_from(sorted(_leaves(doc), key=repr)))
        node = _node(doc, parents)
        if action == "delete":
            del node[key]
        elif action == "reverse" and isinstance(node, list):
            node.reverse()
        else:
            counts = COUNT_FIELDS & set(map(str, path))
            node[key] = draw(st.sampled_from(BAD_COUNTS if counts else BAD_VALUES))
    return doc


def _check_stdout(command, out):
    if command == "series":
        def reject(token):
            raise AssertionError(f"non-strict JSON token {token}")

        json.loads(out, parse_constant=reject)
        return
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header[-1] == "status" and rows
    for row in rows:
        assert row[-1] == "ok"
        assert all(math.isfinite(float(x)) for x in row[:-1]), row


# a fixed set of examples keeps the suite deterministic; about 5 s
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(doc=config_docs())
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, doc):
    # a later deletion may take a renamed key out again, so look at the result
    renamed = any(str(p[-1]).endswith("_") for p in _paths(doc))
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    for command in ("series", "limits", "ness"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
        assert code in (0, 1, 2, 3), (command, code)
        assert code == 2 or not renamed, (command, code)
        assert "Traceback" not in err.getvalue()
        if code in (2, 3):
            assert out.getvalue() == "", (command, code)
        else:
            _check_stdout(command, out.getvalue())
