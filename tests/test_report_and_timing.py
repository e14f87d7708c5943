"""Unit tests for the shared report type and the timing utilities."""

import time

import pytest

from repro.report import (
    ImplementabilityClass,
    ImplementabilityReport,
    PropertyVerdict,
)
from repro.utils.timing import PhaseTimer


def make_report(**overrides):
    base = dict(stg_name="spec", method="symbolic", bounded=True,
                consistent=True, output_persistent=True, csc=True, usc=True,
                deterministic=True, commutative=True, complementary_free=True)
    base.update(overrides)
    return ImplementabilityReport(**base)


class TestClassification:
    def test_gate_implementable(self):
        report = make_report()
        assert report.classification is ImplementabilityClass.GATE
        assert report.gate_implementable and report.io_implementable

    def test_io_implementable_when_csc_fails_but_reducible(self):
        report = make_report(csc=False)
        assert report.csc_reducible is True
        assert report.classification is ImplementabilityClass.IO
        assert report.io_implementable and not report.gate_implementable

    def test_si_only_when_irreducible(self):
        report = make_report(csc=False, complementary_free=False)
        assert report.classification is ImplementabilityClass.SI
        assert not report.io_implementable

    def test_not_implementable_on_basic_failures(self):
        for field in ("bounded", "consistent", "output_persistent"):
            report = make_report(**{field: False})
            assert report.classification is \
                ImplementabilityClass.NOT_IMPLEMENTABLE, field

    def test_unknown_commutativity_blocks_io_classification(self):
        report = make_report(csc=False, commutative=None)
        assert report.csc_reducible is None
        assert report.classification is ImplementabilityClass.SI

    def test_classification_strings(self):
        assert "gate" in str(ImplementabilityClass.GATE)
        assert "I/O" in str(ImplementabilityClass.IO)
        assert str(ImplementabilityClass.PARTIAL).startswith("partial")

    def test_partial_when_basics_unchecked(self):
        report = make_report(bounded=None, consistent=None,
                             output_persistent=None)
        assert report.classification is ImplementabilityClass.PARTIAL
        assert not report.io_implementable

    def test_partial_when_csc_unchecked(self):
        report = make_report(csc=None, usc=None)
        assert report.classification is ImplementabilityClass.PARTIAL

    def test_partial_when_reducibility_never_ran(self):
        report = make_report(csc=False, deterministic=None,
                             commutative=None, complementary_free=None)
        assert report.classification is ImplementabilityClass.PARTIAL

    def test_partial_round_trips_through_the_dict_schema(self):
        report = make_report(csc=None, usc=None)
        data = report.to_dict()
        # Rendered explicitly for --json consumers ...
        assert data["classification"] == str(ImplementabilityClass.PARTIAL)
        # ... and recomputed (not restored) on the way back, exactly.
        rebuilt = ImplementabilityReport.from_dict(data)
        assert rebuilt == report
        assert rebuilt.classification is ImplementabilityClass.PARTIAL
        assert rebuilt.to_dict() == data

    def test_partial_rendered_in_summary(self):
        report = make_report(csc=None, usc=None)
        assert "classification: partial" in report.summary()


class TestVerdictsAndRendering:
    def test_add_verdict_and_summary(self):
        report = make_report()
        report.add_verdict("some property", True)
        report.add_verdict("broken property", False, ["detail 1", "detail 2"])
        text = report.summary()
        assert "[OK ] some property" in text
        assert "[FAIL] broken property" in text
        assert "detail 1" in text

    def test_verdict_detail_truncation(self):
        verdict = PropertyVerdict("p", False, [f"d{i}" for i in range(10)])
        text = str(verdict)
        assert "d0" in text and "d9" not in text
        assert "7 more" in text

    def test_as_dict_round_trip_fields(self):
        report = make_report()
        report.timings = {"T+C": 0.5, "CSC": 0.25}
        data = report.as_dict()
        assert data["name"] == "spec"
        assert data["csc_reducible"] is True
        assert data["timings"] == {"T+C": 0.5, "CSC": 0.25}
        assert report.total_time == pytest.approx(0.75)

    def test_summary_includes_bdd_stats_only_when_present(self):
        without = make_report()
        assert "BDD nodes" not in without.summary()
        with_stats = make_report(bdd_peak_nodes=10, bdd_final_nodes=5,
                                 bdd_variables=7)
        assert "BDD nodes: peak 10, final 5" in with_stats.summary()


class TestPhaseTimer:
    def test_phases_accumulate_separately(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.01)
        with timer.phase("b"):
            time.sleep(0.01)
        with timer.phase("a"):
            time.sleep(0.01)
        assert timer.get("a") > timer.get("b") > 0
        assert timer.get("missing") == 0.0
        assert timer.total == pytest.approx(timer.get("a") + timer.get("b"))

    def test_as_dict_copy(self):
        timer = PhaseTimer()
        with timer.phase("x"):
            pass
        exported = timer.as_dict()
        exported["x"] = 123.0
        assert timer.get("x") != 123.0

    def test_phase_records_time_even_on_exception(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("failing"):
                raise ValueError("boom")
        assert timer.get("failing") >= 0.0
        assert "failing" in timer.as_dict()
