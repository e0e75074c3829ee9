"""Tests for the MyFaces motivating-example workload."""

from repro.api import Session
from repro.capture import TraceFilter
from repro.core.regression import evaluate_against_truth
from repro.workloads.myfaces.common import (HttpRequest, Logger,
                                            NumericEntityUtil)
from repro.workloads.myfaces.scenario import (CORRECT_REQUEST,
                                              REGRESSING_REQUEST,
                                              is_cause_entry,
                                              regression_manifests,
                                              run_new_version,
                                              run_old_version)

FILTER = TraceFilter(include_modules=("repro.workloads.myfaces",))


class TestNumericEntityUtil:
    def test_converts_outside_range(self):
        util = NumericEntityUtil(32, 127)
        assert util.convert("a\x07b") == "a&#7;b"

    def test_preserves_in_range(self):
        util = NumericEntityUtil(32, 127)
        assert util.convert("hello") == "hello"

    def test_converts_above_range(self):
        util = NumericEntityUtil(32, 127)
        assert util.convert("é") == "&#233;"

    def test_wrong_range_skips_control_chars(self):
        util = NumericEntityUtil(1, 127)
        assert util.convert("a\x07b") == "a\x07b"


class TestVersionBehaviour:
    def test_old_version_converts_control_chars(self):
        output = run_old_version(REGRESSING_REQUEST)
        assert "&#7;" in output
        assert "&#11;" in output

    def test_new_version_regresses(self):
        output = run_new_version(REGRESSING_REQUEST)
        assert "&#7;" not in output
        assert "\x07" in output

    def test_versions_agree_on_correct_input(self):
        assert run_old_version(CORRECT_REQUEST) == \
            run_new_version(CORRECT_REQUEST)

    def test_regression_manifests(self):
        assert regression_manifests()

    def test_non_html_untouched(self):
        output = run_old_version(("text/plain", "x\x07y"))
        assert output == "x\x07y"


class TestRegressionAnalysis:
    def test_cause_identified_with_few_candidates(self):
        outcome = Session(filter=FILTER).run_scenario(
            run_old_version, run_new_version,
            regressing_input=REGRESSING_REQUEST,
            correct_input=CORRECT_REQUEST)
        report = outcome.report
        # The analysis shrinks A to a handful of candidates (paper: 7
        # relevant changes).
        assert report.size_d < report.size_a
        assert report.size_d <= 12
        evaluation = evaluate_against_truth(report, is_cause_entry)
        assert evaluation.true_positives >= 1
        assert evaluation.false_negatives == 0

    def test_expected_set_is_small(self):
        # On the correct input both versions behave the same; only the
        # refactoring shows up.
        outcome = Session(filter=FILTER).run_scenario(
            run_old_version, run_new_version,
            regressing_input=REGRESSING_REQUEST,
            correct_input=CORRECT_REQUEST)
        assert outcome.expected is not None
        assert len(outcome.expected.sequences) < \
            len(outcome.suspected.sequences)

    def test_logger_activity_not_in_candidates(self):
        outcome = Session(filter=FILTER).run_scenario(
            run_old_version, run_new_version,
            regressing_input=REGRESSING_REQUEST,
            correct_input=CORRECT_REQUEST)
        for candidate in outcome.report.candidates:
            for entry in (candidate.surviving_left
                          + candidate.surviving_right):
                assert "Logger.add_msg" not in getattr(
                    entry.event, "method", "")


class TestLogger:
    def test_message_count(self):
        logger = Logger("test")
        logger.add_msg("a")
        logger.add_msg("b")
        assert logger.message_count == 2


class TestHttpTypes:
    def test_response_write_appends(self):
        from repro.workloads.myfaces.common import HttpResponse
        response = HttpResponse("text/html")
        response.write("a")
        response.write("b")
        assert response.output == "ab"

    def test_request_fields(self):
        request = HttpRequest("text/html", "body")
        assert request.document_type == "text/html"
        assert request.body == "body"
