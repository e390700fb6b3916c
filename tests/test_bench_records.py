"""The committed benchmark records, ``BENCH_*.json`` at the repository root:
each has the record's schema, every run in it checked correct, and each
workload's summary is what its own pairs give.

A record holds alternating pairs of ``benchmarks/run.py`` runs, one on the
parent commit and one on the change.  Its summary gives, per end-to-end
metric, the median of each side over the pairs (rounded to 6 decimals),
the number of pairs in which the change read lower, and, where present,
the change of the medians in percent, 100 * (change / parent - 1) (rounded
to 2 decimals).  A record may keep an ``earlier_run`` of the same protocol,
with workloads of the same form.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"topic", "claim", "parent", "change", "command", "protocol", "machine", "workloads"}
# half a unit in the last recorded decimal of a median and of a percentage
MEDIAN_ABS = 5e-7 + 1e-12
PCT_ABS = 5e-3 + 1e-9


def _workloads(record):
    """The record's workloads and those of its earlier run, if it keeps one."""
    return record["workloads"] + record.get("earlier_run", {}).get("workloads", [])


def test_records_exist():
    assert len(RECORDS) >= 5


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
class TestRecord:
    def test_schema(self, path):
        record = json.loads(path.read_text())
        assert KEYS <= set(record)
        assert isinstance(record["workloads"], list) and record["workloads"]
        for workload in _workloads(record):
            assert {"workload", "seeds", "summary", "pairs"} <= set(workload)
            assert [pair["seed"] for pair in workload["pairs"]] == workload["seeds"]

    def test_every_run_is_correct(self, path):
        for workload in _workloads(json.loads(path.read_text())):
            for pair in workload["pairs"]:
                for side in ("parent", "change"):
                    run = pair[side]
                    # run.py reads a run as correct when no operation failed
                    assert run["failed"] == 0 and run.get("correct", True) is True, (
                        workload["workload"], pair["seed"], side)

    def test_summary_follows_from_the_pairs(self, path):
        for workload in _workloads(json.loads(path.read_text())):
            pairs = workload["pairs"]
            for metric, summary in workload["summary"].items():
                where = (workload["workload"], metric)
                parent = [pair["parent"][metric] for pair in pairs]
                change = [pair["change"][metric] for pair in pairs]
                parent_median, change_median = statistics.median(parent), statistics.median(change)
                assert abs(summary["parent_median"] - parent_median) <= MEDIAN_ABS, where
                assert abs(summary["change_median"] - change_median) <= MEDIAN_ABS, where
                assert summary["pairs_lower"] == sum(c < p for p, c in zip(parent, change)), where
                if "median_change_pct" in summary:
                    pct = 100.0 * (change_median / parent_median - 1.0)
                    assert abs(summary["median_change_pct"] - pct) <= PCT_ABS, where
