"""Tests for the analysis layer: serialisation, segmentation, reporting,
and the Sec. 4 workflow driven through a Session."""

import pytest

from repro.analysis import (load_trace, render_diff_report,
                            render_trace_tree, save_trace)
from repro.analysis.serialize import (dumps_trace_bytes, loads_trace,
                                      read_header)
from repro.api import Session
from repro.capture import TraceFilter, traced
from repro.capture.segments import (SegmentedTraceWriter, load_segments,
                                    segment_trace)
from repro.core.view_diff import view_diff

from helpers import (forked_trace, myfaces_trace, simple_trace,
                     two_thread_trace)

MODULE_FILTER = TraceFilter(include_modules=(__name__,))


class TestSerialization:
    def test_entry_round_trip_preserves_keys(self):
        trace = myfaces_trace()
        loaded = loads_trace(dumps_trace_bytes(trace))
        for entry, reborn in zip(trace, loaded.entries, strict=True):
            assert reborn.key() == entry.key()
            assert reborn.eid == entry.eid
            assert reborn.tid == entry.tid
            assert reborn.method == entry.method

    def test_trace_round_trip(self, tmp_path):
        trace = two_thread_trace([1, 2], [3], name="demo")
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == "demo"
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.key() == b.key()

    def test_round_trip_diffs_identically(self, tmp_path):
        left = myfaces_trace(name="L")
        right = myfaces_trace(min_range=1, new_version=True, name="R")
        before = view_diff(left, right).num_diffs()
        lp, rp = tmp_path / "l.jsonl", tmp_path / "r.jsonl"
        save_trace(left, lp)
        save_trace(right, rp)
        after = view_diff(load_trace(lp), load_trace(rp)).num_diffs()
        assert before == after

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": 999}\n')
        with pytest.raises(ValueError):
            load_trace(path)


class TestSegmentation:
    def test_segments_flushed_at_size(self, tmp_path):
        trace = simple_trace(range(25), name="seg")
        writer = SegmentedTraceWriter(tmp_path, name="seg", segment_size=10)
        writer.extend(trace.entries)
        paths = writer.close()
        assert len(paths) == 3  # 27 entries -> 10+10+7
        assert writer.total_entries == len(trace)

    def test_reassembly_preserves_order(self, tmp_path):
        trace = simple_trace(range(25), name="seg")
        paths = segment_trace(trace, tmp_path, segment_size=8)
        loaded = load_segments(paths, name="seg")
        assert [e.eid for e in loaded] == [e.eid for e in trace]
        assert [e.key() for e in loaded] == [e.key() for e in trace]

    def test_segment_headers_count_their_entries(self, tmp_path):
        trace = simple_trace(range(25), name="seg")
        paths = segment_trace(trace, tmp_path, segment_size=10)
        sizes = [read_header(path)["entries"] for path in paths]
        assert sizes == [10, 10, 7]
        for index, path in enumerate(paths):
            header = read_header(path)
            assert header["format"] == 3
            assert header["metadata"] == {"segment": index}
            assert header["entries"] == len(load_trace(path))

    def test_two_thread_round_trip(self, tmp_path):
        # Fork/End ancestry and nested-tuple serialisations, split so
        # a segment boundary falls between the fork and the ends.
        trace = forked_trace()
        paths = segment_trace(trace, tmp_path, segment_size=4)
        assert len(paths) == 3
        loaded = load_segments(paths, name="forked")
        assert list(loaded.entries) == list(trace.entries)
        assert loaded.content_digest() == trace.content_digest()
        assert loaded.thread_ids() == trace.thread_ids() == [0, 1]

    def test_segment_count_from_a_generator(self, tmp_path):
        trace = simple_trace(range(25), name="seg")
        paths = segment_trace(trace, tmp_path, segment_size=10)
        assert load_segments(paths).metadata["segments"] == 3
        loaded = load_segments(path for path in paths)
        assert loaded.metadata["segments"] == 3
        assert len(loaded) == len(trace)

    def test_closed_writer_rejects_append(self, tmp_path):
        writer = SegmentedTraceWriter(tmp_path, segment_size=5)
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(simple_trace([1]).entries[0])

    def test_bad_segment_size(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentedTraceWriter(tmp_path, segment_size=0)


class TestReports:
    def test_trace_tree_indentation(self):
        trace = myfaces_trace()
        text = render_trace_tree(trace)
        assert "--> ServletProcessor-1.SP.setRequestType(Str('text/html'))" \
            in text
        # Entries inside the call are indented deeper.
        lines = text.splitlines()
        call_line = next(i for i, l in enumerate(lines)
                         if "setRequestType(" in l)
        inner_line = lines[call_line + 1]
        assert inner_line.startswith(" " * 4)

    def test_trace_tree_marks(self):
        trace = myfaces_trace()
        text = render_trace_tree(trace, mark={0})
        assert text.splitlines()[0].startswith("*")

    def test_trace_tree_thread_filter(self):
        trace = two_thread_trace([1], [2])
        text = render_trace_tree(trace, tid=1)
        assert "fork" not in text

    def test_diff_report_shape(self):
        left = myfaces_trace(name="orig")
        right = myfaces_trace(min_range=1, new_version=True, name="new")
        result = view_diff(left, right)
        report = render_diff_report(result)
        assert "semantic diff" in report
        assert "- " in report or "+ " in report

    def test_diff_report_sequence_cap(self):
        left = simple_trace([1, 2, 3, 4, 5, 6, 7, 8])
        right = simple_trace([1, 9, 3, 8, 5, 7, 7, 8])
        result = view_diff(left, right)
        report = render_diff_report(result, max_sequences=1)
        assert "more sequences" in report


@traced
class Gadget:
    def __init__(self, factor):
        self.factor = factor

    def apply(self, value):
        return value * self.factor

    def __repr__(self):
        return f"Gadget(x{self.factor})"


def old_version(data):
    gadget = Gadget(2)
    return [gadget.apply(v) for v in data]


def new_version(data):
    gadget = Gadget(3)  # the "regression"
    return [gadget.apply(v) for v in data]


class TestRPrism:
    """The RPRISM workflow (trace, diff, the Sec. 4 scenario) through
    :class:`Session`."""

    def test_trace_and_diff(self):
        tool = Session(filter=MODULE_FILTER)
        old = tool.trace_call(old_version, [1, 2], name="old")
        new = tool.trace_call(new_version, [1, 2], name="new")
        result = tool.diff(old, new)
        assert result.algorithm == "views"
        assert result.num_diffs() > 0

    def test_lcs_algorithm_selectable(self):
        tool = Session(filter=MODULE_FILTER)
        old = tool.trace_call(old_version, [1], name="old")
        new = tool.trace_call(new_version, [1], name="new")
        result = tool.diff(old, new, engine="optimized")
        assert result.algorithm == "lcs-optimized"

    def test_full_scenario(self):
        tool = Session(filter=MODULE_FILTER)
        outcome = tool.run_scenario(
            old_version, new_version,
            regressing_input=[1, 2, 3], correct_input=[0, 0])
        assert outcome.report.size_a >= outcome.report.size_d
        assert outcome.expected is not None
        assert outcome.regression is not None
        assert "old/regressing" in outcome.traces
        text = outcome.render()
        assert "suspected diff" in text

    def test_scenario_without_correct_input(self):
        tool = Session(filter=MODULE_FILTER)
        outcome = tool.run_scenario(
            old_version, new_version, regressing_input=[1])
        assert outcome.expected is None
        assert outcome.regression is None
        assert outcome.report.size_d == outcome.report.size_a

    def test_web_helper(self):
        tool = Session(filter=MODULE_FILTER)
        trace = tool.trace_call(old_version, [1], name="t")
        web = tool.web(trace)
        assert web.counts()["total"] > 0
