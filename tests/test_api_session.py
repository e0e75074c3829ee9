"""Tests for the Session layer (the new public API entry object)."""

import threading

import pytest

from repro.api import Session, SessionResult, TraceStore
from repro.api.session import run_capture_tasks
from repro.capture.filters import TraceFilter
from repro.capture.tracer import CAPTURE_LOCK, trace_call
from repro.core.regression import MODE_SUBTRACT
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig

from helpers import myfaces_trace

MODULE_FILTER = TraceFilter(include_modules=(__name__,))


class Counter:
    """Tiny traced workload: the new version double-increments."""

    def __init__(self):
        self.value = 0

    def bump(self, amount):
        self.value = self.value + amount
        return self.value


def old_version(amounts):
    counter = Counter()
    for amount in amounts:
        counter.bump(amount)
    return counter.value


def new_version(amounts):
    counter = Counter()
    for amount in amounts:
        counter.bump(amount)
        counter.bump(1)  # BUG: spurious extra increment
    return counter.value


class TestFluentConfiguration:
    def test_builders_chain(self, tmp_path):
        session = (Session()
                   .with_config(window=8, relaxed=False)
                   .with_filter(include_modules=("x",))
                   .with_store(tmp_path / "s")
                   .with_engine("optimized")
                   .with_mode(MODE_SUBTRACT))
        assert isinstance(session, Session)
        assert session.config.window == 8
        assert session.config.relaxed is False
        assert session.filter.include_modules == ("x",)
        assert isinstance(session.store, TraceStore)
        assert session.engine.name == "optimized"
        assert session.mode == MODE_SUBTRACT

    def test_with_config_object(self):
        config = ViewDiffConfig(radius=2)
        session = Session().with_config(config)
        assert session.config is config

    def test_with_config_rejects_mixed_forms(self):
        with pytest.raises(ValueError):
            Session().with_config(ViewDiffConfig(), window=3)

    def test_with_filter_rejects_mixed_forms(self):
        with pytest.raises(ValueError):
            Session().with_filter(TraceFilter(), include_modules=("x",))


class TestLifecycle:
    def test_capture_returns_result_and_trace(self):
        session = Session().with_filter(MODULE_FILTER)
        captured = session.capture(old_version, [1, 2], name="run")
        assert captured.result == 3
        assert isinstance(captured.trace, Trace)
        assert captured.trace.name == "run"
        assert session.trace_call(old_version, [1]).entries

    def test_capture_store_as(self, tmp_path):
        session = (Session().with_filter(MODULE_FILTER)
                   .with_store(tmp_path / "s"))
        session.capture(old_version, [1, 2], name="r", store_as="runs/r")
        assert "runs/r" in session.store

    def test_capture_interns_into_session_table(self):
        session = Session().with_filter(MODULE_FILTER)
        trace = session.capture(old_version, [1, 2]).trace
        assert trace.key_table is session.key_table
        assert len(trace.key_ids) == len(trace)

    def test_workload_error_captured_not_raised(self):
        def failing(amounts):
            old_version(amounts)
            raise ValueError("workload exploded")

        captured = Session().with_filter(MODULE_FILTER).capture(
            failing, [1, 2])
        assert not captured.ok
        assert isinstance(captured.error, ValueError)
        assert any(getattr(e.event, "method", None) == "Counter.bump"
                   for e in captured.trace.entries)

    def test_capture_batch_keeps_task_order(self):
        session = Session().with_filter(MODULE_FILTER)
        captured = session.capture_batch(
            [("a", old_version, ([1],), {}), ("b", new_version, ([1],), {})])
        assert [c.name for c in captured] == ["a", "b"]
        assert [c.result for c in captured] == [1, 2]
        assert all(c.trace.key_table is session.key_table
                   for c in captured)

    def test_concurrent_captures_take_turns(self):
        """Captures from several threads serialise on the capture lock,
        so each one records exactly its own run."""
        from concurrent.futures import ThreadPoolExecutor
        session = Session().with_filter(MODULE_FILTER)
        with ThreadPoolExecutor(3) as pool:
            traces = list(pool.map(
                lambda n: session.capture(old_version, [1, 2],
                                          name=f"r{n}").trace, range(3)))
        keys = [[e.key() for e in trace.entries] for trace in traces]
        assert keys[0] == keys[1] == keys[2]

    def test_store_as_without_store_raises(self):
        session = Session().with_filter(MODULE_FILTER)
        with pytest.raises(RuntimeError, match="store"):
            session.capture(old_version, [1], store_as="x")

    def test_ingest_and_resolve(self, tmp_path):
        from repro.analysis.serialize import save_trace
        trace = myfaces_trace(name="m")
        path = tmp_path / "m.jsonl"
        save_trace(trace, path)
        session = Session().with_store(tmp_path / "s")
        ingested = session.ingest(path, store_as="m")
        assert len(ingested) == len(trace)
        assert len(session.resolve_trace("m")) == len(trace)  # store key
        assert len(session.resolve_trace(str(path))) == len(trace)  # path
        assert session.resolve_trace(trace) is trace  # passthrough

    def test_resolve_unknown_reference(self, tmp_path):
        session = Session().with_store(tmp_path / "s")
        with pytest.raises(KeyError):
            session.resolve_trace("absent")
        with pytest.raises(FileNotFoundError):
            Session().resolve_trace("absent.jsonl")

    def test_diff_accepts_store_keys(self, tmp_path):
        session = Session().with_store(tmp_path / "s")
        session.ingest(myfaces_trace(min_range=32, name="old"),
                       store_as="old")
        session.ingest(myfaces_trace(min_range=1, new_version=True,
                                     name="new"), store_as="new")
        result = session.diff("old", "new")
        assert result.num_diffs() > 0
        assert session.web("old").counts()["total"] > 0

    def test_diff_engine_override(self):
        old = myfaces_trace(min_range=32, name="old")
        new = myfaces_trace(min_range=1, new_version=True, name="new")
        session = Session()
        assert session.diff(old, new).algorithm == "views"
        assert session.diff(old, new,
                            engine="dp").algorithm == "lcs-dp"


class TestRunCaptureTasks:
    """The capture loop every session capture goes through."""

    def test_one_shot_trace_call(self):
        captured = trace_call(old_version, [1, 2], name="one",
                              filter=MODULE_FILTER)
        assert captured.ok
        assert captured.result == 3
        assert captured.trace.name == "one"

    def test_captures_under_lock(self):
        """No other thread can take the capture lock while a task runs."""
        others_locked_out = []

        def probe(amounts):
            def try_lock():
                got = CAPTURE_LOCK.acquire(blocking=False)
                if got:
                    CAPTURE_LOCK.release()
                others_locked_out.append(not got)
            thread = threading.Thread(target=try_lock)
            thread.start()
            thread.join(timeout=10)
            return old_version(amounts)

        captured = run_capture_tasks([("svc", probe, ([1, 2],), {})],
                                     filter=MODULE_FILTER)[0]
        assert captured.ok
        assert captured.name == "svc"
        assert others_locked_out == [True]
        assert any(getattr(e.event, "method", None) == "Counter.bump"
                   for e in captured.trace.entries)

    def test_result_value_preserved(self):
        captured = run_capture_tasks([("svc", old_version, ([5, 7],), {})],
                                     filter=MODULE_FILTER)[0]
        assert captured.result == 12

    def test_threads_serialise_on_the_lock(self):
        from concurrent.futures import ThreadPoolExecutor
        task = ("svc", old_version, ([1, 2, 3],), {})
        with ThreadPoolExecutor(3) as pool:
            captured = [c for batch in pool.map(
                lambda _: run_capture_tasks([task], filter=MODULE_FILTER),
                range(3)) for c in batch]
        assert all(c.ok for c in captured)
        keys = [[e.key() for e in c.trace.entries] for c in captured]
        assert keys[0] == keys[1] == keys[2]


class TestRunScenario:
    def test_full_recipe(self):
        session = Session().with_filter(MODULE_FILTER)
        result = session.run_scenario(old_version, new_version,
                                      [1, 2, 3], [0], name="counter")
        assert isinstance(result, SessionResult)
        assert result.scenario == "counter"
        assert result.engine == "views"
        assert result.suspected.num_diffs() > 0
        assert result.expected is not None
        assert result.regression is not None
        assert sorted(result.traces) == ["new/correct", "new/regressing",
                                         "old/correct", "old/regressing"]
        assert result.compares() > 0
        assert len(result.diffs()) == 3
        assert "suspected diff" in result.render()

    def test_unattended_configuration(self):
        session = Session().with_filter(MODULE_FILTER)
        result = session.run_scenario(old_version, new_version, [1, 2])
        assert result.expected is None
        assert result.regression is None
        assert len(result.diffs()) == 1
        assert sorted(result.traces) == ["new/regressing", "old/regressing"]

    def test_store_prefix_persists_all_roles(self, tmp_path):
        session = (Session().with_filter(MODULE_FILTER)
                   .with_store(tmp_path / "s"))
        result = session.run_scenario(old_version, new_version,
                                      [1, 2], [0],
                                      store_prefix="counter")
        assert result.store_keys == (
            "counter/old/regressing", "counter/new/regressing",
            "counter/old/correct", "counter/new/correct")
        for key in result.store_keys:
            assert key in session.store

    def test_stored_scenario_matches_live(self, tmp_path):
        session = (Session().with_filter(MODULE_FILTER)
                   .with_store(tmp_path / "s"))
        live = session.run_scenario(old_version, new_version,
                                    [1, 2], [0], store_prefix="c")
        offline = session.run_stored_scenario(
            suspected=("c/old/regressing", "c/new/regressing"),
            expected=("c/old/correct", "c/new/correct"),
            regression=("c/new/correct", "c/new/regressing"))
        assert offline.suspected.num_diffs() == live.suspected.num_diffs()
        assert (offline.report.set_sizes() == live.report.set_sizes())

    def test_engine_override_recorded(self):
        session = Session().with_filter(MODULE_FILTER)
        result = session.run_scenario(old_version, new_version,
                                      [1, 2], engine="optimized")
        assert result.engine == "optimized"
        assert result.suspected.algorithm == "lcs-optimized"
