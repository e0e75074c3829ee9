"""Tests for the parallel scenario pipeline."""

import pytest

from repro.api import (ScenarioJob, ScenarioPipeline, Session,
                       StoredScenarioJob, run_pipeline)
from repro.capture.filters import TraceFilter

from helpers import myfaces_trace

MODULE_FILTER = TraceFilter(include_modules=(__name__,))


def old_version(values):
    total = 0
    for value in values:
        total = accumulate(total, value)
    return total


def new_version(values):
    total = 0
    for value in values:
        total = accumulate(total, value)
        total = accumulate(total, 1)  # BUG
    return total


def accumulate(total, value):
    return total + value


def exploding_version(values):
    raise RuntimeError("workload blew up")


def _live_job(name, **overrides):
    spec = dict(name=name, old_version=old_version,
                new_version=new_version, regressing_input=[1, 2],
                correct_input=[0], filter=MODULE_FILTER)
    spec.update(overrides)
    return ScenarioJob(**spec)


@pytest.fixture()
def stored_session(tmp_path):
    session = Session().with_store(tmp_path / "store")
    session.ingest(myfaces_trace(min_range=32, name="ob"), store_as="ob")
    session.ingest(myfaces_trace(min_range=1, new_version=True,
                                 name="nb"), store_as="nb")
    session.ingest(myfaces_trace(min_range=32, name="oo"), store_as="oo")
    session.ingest(myfaces_trace(min_range=32, new_version=True,
                                 name="no"), store_as="no")
    return session


def _stored_job(name, **overrides):
    spec = dict(name=name, suspected=("ob", "nb"),
                expected=("oo", "no"), regression=("no", "nb"))
    spec.update(overrides)
    return StoredScenarioJob(**spec)


class TestLiveJobs:
    def test_batch_runs_all(self):
        result = run_pipeline([_live_job("a"), _live_job("b")],
                              max_workers=2)
        assert len(result) == 2
        assert not result.failed()
        assert result.workers == 2
        for outcome in result:
            assert outcome.result.suspected.num_diffs() > 0
            assert outcome.seconds > 0
        assert result.total_compares() > 0

    def test_failure_is_isolated(self):
        jobs = [_live_job("good"),
                _live_job("bad", old_version=exploding_version,
                          correct_input=None)]
        result = run_pipeline(jobs, max_workers=2)
        assert [o.name for o in result.succeeded()] == ["good", "bad"]
        # Capture tolerates workload exceptions: the trace of the failing
        # run is still analysable (the paper's Derby case aborts too).
        assert result["bad"].ok

    def test_engine_failure_reported_not_raised(self, stored_session):
        jobs = [_stored_job("ok"),
                _stored_job("broken", suspected=("ob", "missing"))]
        result = run_pipeline(jobs, session=stored_session, max_workers=2)
        assert result["ok"].ok
        assert not result["broken"].ok
        assert "missing" in result["broken"].error
        assert "FAILED" in result["broken"].brief()
        assert "1/2" in result.render()

    def test_sequential_path(self):
        result = run_pipeline([_live_job("only")], max_workers=1)
        assert result.workers == 1
        assert result["only"].ok


class TestStoredJobs:
    def test_batch_over_store(self, stored_session):
        jobs = [_stored_job(f"j{i}") for i in range(4)]
        result = ScenarioPipeline(stored_session, max_workers=4).run(jobs)
        assert len(result.succeeded()) == 4
        sizes = {o.result.report.set_sizes()["D"] for o in result}
        assert len(sizes) == 1  # same scenario -> same answer on every job

    def test_per_job_engine_override(self, stored_session):
        result = run_pipeline(
            [_stored_job("v"), _stored_job("l", engine="optimized")],
            session=stored_session, max_workers=2)
        assert result["v"].result.engine == "views"
        assert result["l"].result.engine == "optimized"
        assert result["v"].result.suspected.algorithm == "views"
        assert result["l"].result.suspected.algorithm == "lcs-optimized"

    def test_parallel_equals_sequential(self, stored_session):
        jobs = [_stored_job(f"j{i}") for i in range(3)]
        seq = run_pipeline(jobs, session=stored_session, max_workers=1)
        par = run_pipeline(jobs, session=stored_session, max_workers=3)
        for s, p in zip(seq, par):
            assert (s.result.report.set_sizes()
                    == p.result.report.set_sizes())

    def test_unknown_job_name(self, stored_session):
        result = run_pipeline([_stored_job("x")], session=stored_session)
        with pytest.raises(KeyError):
            result["absent"]


class TestConcurrentCapture:
    def test_many_live_jobs_in_parallel(self):
        # The capture lock serialises tracing: eight concurrent live
        # scenarios must neither deadlock nor corrupt each other.
        jobs = [_live_job(f"job-{i}") for i in range(8)]
        result = run_pipeline(jobs, max_workers=4)
        assert len(result.succeeded()) == 8
        baseline = result["job-0"].result.report.set_sizes()
        for outcome in result:
            assert outcome.result.report.set_sizes() == baseline

    def test_no_foreign_forks_in_parallel_captures(self):
        # The pool spawns its workers lazily, some while another job's
        # capture holds the weaver; a thread started outside a capture
        # must never show up in it as a fork.
        jobs = [_live_job(f"job-{i}") for i in range(6)]
        result = run_pipeline(jobs, max_workers=3)
        for outcome in result:
            for trace in outcome.result.traces.values():
                assert "fork" not in trace.event_kinds()

    def test_capture_lock_is_reentrant(self):
        from repro.capture import CAPTURE_LOCK
        with CAPTURE_LOCK:
            acquired = CAPTURE_LOCK.acquire(timeout=0.1)
            assert acquired
            CAPTURE_LOCK.release()

    def test_default_worker_count_bounded(self):
        pipeline = ScenarioPipeline()
        assert pipeline._workers_for([None] * 100) <= 8
        assert pipeline._workers_for([]) == 1


class TestWorkerVisibility:
    def test_brief_surfaces_wall_time_and_worker(self):
        result = run_pipeline([_live_job("only")], max_workers=1)
        brief = result["only"].brief()
        assert result["only"].worker
        assert result["only"].worker in brief
        assert f"{result['only'].seconds:.3f}s" in brief

    def test_failed_brief_surfaces_wall_time_and_worker(self,
                                                        stored_session):
        result = run_pipeline(
            [_stored_job("broken", suspected=("ob", "missing"))],
            session=stored_session)
        brief = result["broken"].brief()
        assert "FAILED" in brief
        assert result["broken"].worker in brief
        assert "s on " in brief

    def test_render_includes_per_job_workers(self):
        jobs = [_live_job(f"job-{i}") for i in range(3)]
        result = run_pipeline(jobs, max_workers=3)
        rendered = result.render()
        for outcome in result:
            assert outcome.worker in rendered
