"""Batch scenario execution over a worker pool.

The benchmarks and the production north-star both want many regression
scenarios (the four-trace Sec. 4 recipe) executed as one batch with
aggregate numbers.  :class:`ScenarioPipeline` runs a mixed list of jobs
across a ``concurrent.futures`` thread pool:

* :class:`ScenarioJob` — live capture + diff + analysis of two program
  versions (``Session.run_scenario``).
* :class:`StoredScenarioJob` — the offline half only: diff + analysis
  over trace pairs already in a :class:`~repro.api.store.TraceStore`
  (``Session.run_stored_scenario``).

Captures are serial (one ``sys.settrace`` weaver per process; jobs
take turns on :data:`repro.capture.tracer.CAPTURE_LOCK`), so the pool
buys its speedup on the diff/analysis side.  Each job runs in a
session derived from the pipeline's base session, so per-job
engine/config/mode overrides compose with shared configuration —
including the base session's ``=e``
:class:`~repro.core.keytable.KeyTable`, so every trace a batch captures
is interned into one shared id space at ingest — and every job reports
an :class:`OpCounter` total, wall-clock seconds, and the worker it ran
on for the benchmark tables and parallel-run debugging.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api.engines import DiffEngine
from repro.api.session import Session, SessionResult
from repro.capture.filters import TraceFilter
from repro.core.view_diff import ViewDiffConfig

#: Upper bound on pool size when ``max_workers`` is not given.
DEFAULT_MAX_WORKERS = 8


@dataclass(slots=True)
class ScenarioJob:
    """One live regression scenario (capture + diff + analyze)."""

    name: str
    old_version: Callable
    new_version: Callable
    regressing_input: object
    correct_input: object | None = None
    engine: str | DiffEngine | None = None
    mode: str | None = None
    config: ViewDiffConfig | None = None
    filter: TraceFilter | None = None
    store_prefix: str | None = None


@dataclass(slots=True)
class StoredScenarioJob:
    """One offline scenario over stored traces (diff + analyze only)."""

    name: str
    suspected: tuple[str, str]
    expected: tuple[str, str] | None = None
    regression: tuple[str, str] | None = None
    engine: str | DiffEngine | None = None
    mode: str | None = None
    config: ViewDiffConfig | None = None


@dataclass(slots=True)
class JobOutcome:
    """What one pipeline job produced (or the error that stopped it).

    ``worker`` names the pipeline thread the job ran on; it surfaces
    in :meth:`brief` so parallel runs are debuggable.
    """

    name: str
    result: SessionResult | None = None
    error: str | None = None
    seconds: float = 0.0
    worker: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None

    def compares(self) -> int:
        return self.result.compares() if self.result is not None else 0

    def brief(self) -> str:
        if not self.ok:
            return (f"{self.name:24} FAILED: {self.error} "
                    f"[{self.seconds:.3f}s on {self.worker or '?'}]")
        sizes = self.result.report.set_sizes()
        return (f"{self.name:24} engine={self.result.engine:10} "
                f"|A|={sizes['A']:<4} |D|={sizes['D']:<4} "
                f"{self.compares()} compares  {self.seconds:.3f}s "
                f"[{self.worker or '?'}]")


@dataclass(slots=True)
class PipelineResult:
    """All job outcomes plus batch-level aggregates."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    seconds: float = 0.0
    workers: int = 1

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, name: str) -> JobOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def succeeded(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.ok]

    def failed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def total_compares(self) -> int:
        return sum(o.compares() for o in self.outcomes)

    def job_seconds(self) -> float:
        """Summed per-job wall-clock (vs. ``seconds``, the batch's)."""
        return sum(o.seconds for o in self.outcomes)

    def render(self) -> str:
        lines = [o.brief() for o in self.outcomes]
        lines.append(
            f"{len(self.succeeded())}/{len(self.outcomes)} scenarios ok, "
            f"{self.total_compares()} compares, "
            f"{self.job_seconds():.3f}s of work in {self.seconds:.3f}s "
            f"({self.workers} worker(s))")
        return "\n".join(lines)


class ScenarioPipeline:
    """Execute scenario jobs across a thread pool."""

    def __init__(self, session: Session | None = None, *,
                 max_workers: int | None = None,
                 cache: "object | None" = None):
        self.session = session if session is not None else Session()
        if cache is not None:
            # One DiffCache handle (instance, path, or True) shared by
            # every job: derived sessions inherit it, so a pair diffed
            # by one job is a hit for every other — and for the whole
            # next batch when the cache has a disk tier.  DiffCache is
            # thread-safe.
            self.session = self.session.derive(cache=cache)
        self.max_workers = max_workers

    def _workers_for(self, jobs: Sequence) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        return max(1, min(DEFAULT_MAX_WORKERS, len(jobs)))

    def _run_job(self, job: ScenarioJob | StoredScenarioJob) -> JobOutcome:
        started = time.perf_counter()
        worker = threading.current_thread().name
        try:
            session = self.session.derive(engine=job.engine,
                                          config=job.config,
                                          mode=job.mode,
                                          filter=getattr(job, "filter",
                                                         None))
            if isinstance(job, StoredScenarioJob):
                result = session.run_stored_scenario(
                    job.suspected, expected=job.expected,
                    regression=job.regression, name=job.name)
            else:
                result = session.run_scenario(
                    job.old_version, job.new_version,
                    job.regressing_input, job.correct_input,
                    name=job.name, store_prefix=job.store_prefix)
            return JobOutcome(name=job.name, result=result,
                              seconds=time.perf_counter() - started,
                              worker=worker)
        except Exception as exc:  # noqa: BLE001 - jobs fail independently
            return JobOutcome(name=job.name,
                              error=f"{type(exc).__name__}: {exc}",
                              seconds=time.perf_counter() - started,
                              worker=worker)

    def run(self, jobs: Sequence[ScenarioJob | StoredScenarioJob]
            ) -> PipelineResult:
        """Run every job; one job failing never takes down the batch."""
        jobs = list(jobs)
        workers = self._workers_for(jobs)
        started = time.perf_counter()
        if workers == 1 or len(jobs) <= 1:
            outcomes = [self._run_job(job) for job in jobs]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(self._run_job, jobs))
        return PipelineResult(outcomes=outcomes,
                              seconds=time.perf_counter() - started,
                              workers=workers)


def run_pipeline(jobs: Sequence[ScenarioJob | StoredScenarioJob], *,
                 session: Session | None = None,
                 max_workers: int | None = None,
                 cache: "object | None" = None) -> PipelineResult:
    """One-shot convenience over :class:`ScenarioPipeline`; ``cache``
    attaches one shared diff cache to every job."""
    return ScenarioPipeline(session, max_workers=max_workers,
                            cache=cache).run(jobs)
