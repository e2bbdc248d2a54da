"""The tracer counts what the program does, skips names that are gone, and
leaves the program as it found it.

    python3 -m pytest -q perfbench/test_layertrace.py
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import qexpect.hilbert  # noqa: E402
import qexpect.market  # noqa: E402
from qexpect import cli  # noqa: E402

MARKET = str(HERE.parent / "configs" / "market.json")


def _traced_round(tracer: layertrace.Tracer) -> dict:
    tracer.install()
    try:
        tracer.start_round()
        assert cli.main(["simulate-market", MARKET], out=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    return tracer.report()


def test_counts_repeat_and_wrappers_are_removed():
    originals = (qexpect.market.collapse, qexpect.hilbert.StateVector.__post_init__, cli.main)
    first = _traced_round(layertrace.Tracer())["metrics"]
    second = _traced_round(layertrace.Tracer())["metrics"]
    counts = [n for n, (unit, _, _) in layertrace.METRICS.items() if unit != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["market.groups_max"] <= 64 and first["market.distinct_states_max"] == 2
    assert first["measurement.collapse_calls"] == first["market.groups_total"]
    assert first["cli.main_s"] >= first["market.run_market_s"] > 0
    assert (qexpect.market.collapse, qexpect.hilbert.StateVector.__post_init__, cli.main) == originals


def test_missing_name_reads_zero_and_is_reported_absent(monkeypatch):
    monkeypatch.setitem(layertrace.TARGETS, "market.assign_outcomes", ("qexpect.market", "_gone_helper"))
    monkeypatch.setitem(layertrace.TARGETS, "market.cohort_step", ("qexpect.market", "_GoneCohort.step"))
    report = _traced_round(layertrace.Tracer())
    assert report["metrics"]["market.assign_outcomes_s"] == 0
    assert report["metrics"]["market.groups_max"] == 0
    assert "market.assign_outcomes_s" in report["absent"] and "market.groups_total" in report["absent"]
    assert report["metrics"]["market.uniforms_s"] > 0


def test_distinct_up_to_phase():
    v = [0.6, 0.8j]
    assert layertrace.distinct_up_to_phase([v, [x * 1j for x in v], [x * -1 for x in v], [0.8, 0.6j]]) == 2
