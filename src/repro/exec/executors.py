"""The execution layer: where work actually runs.

Everything above this module (sessions, pipelines, the harness, the
CLI) expresses work as *ordered task batches*; an :class:`Executor`
decides how a batch is evaluated:

* ``serial`` — inline, in submission order (the zero-dependency
  default; also what the tests compare every parallel result against).
* ``threads`` — a prewarmed ``ThreadPoolExecutor``.  In-process, so
  captures still contend on the process-wide capture lock, but diff and
  analysis work overlaps.
* ``processes`` — a prewarmed ``ProcessPoolExecutor``.  Each worker
  process owns its *own* ``sys.settrace`` weaver, so captures proceed
  truly concurrently; task functions and arguments must be picklable,
  and results come back as binary v3 wire bytes (see
  :mod:`repro.exec.capture`).

Executors are deliberately tiny: ``map(fn, items)`` with ordered
results is the whole contract, plus ``in_process`` so drivers know
whether tasks cross a pickle boundary.  Both pool executors spawn every
worker *at construction time*: a lazily-spawned thread would be
recorded as a stray fork by any capture already holding the weaver, and
a lazily-forked process could inherit a mid-capture interpreter.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

#: Upper bound on pool size when none is requested.
DEFAULT_MAX_WORKERS = 8

#: The registry names, in documentation order.
EXECUTOR_NAMES = ("serial", "threads", "processes")

#: How many stealable singleton leases a batch reserves per pool (see
#: :func:`lease_chunks`).
LEASE_TAIL_PER_WORKER = 1


@runtime_checkable
class Executor(Protocol):
    """What an execution backend must provide.

    ``map`` evaluates ``fn`` over ``items`` and returns the results in
    item order (raising the first task exception, like ``pool.map``).
    ``in_process`` tells drivers whether tasks run in this interpreter
    (closures welcome, capture lock required) or cross a process
    boundary (everything pickled, captures lock-free).
    """

    name: str
    in_process: bool

    def map(self, fn: Callable, items: Iterable) -> list:
        ...

    def close(self) -> None:
        ...


class SerialExecutor:
    """Inline execution, in order — the baseline every result is
    compared against."""

    name = "serial"
    in_process = True

    def __init__(self, max_workers: int | None = None):
        self.max_workers = 1

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def prewarm_thread_pool(pool: ThreadPoolExecutor, workers: int) -> None:
    """Force every pool thread to exist now.

    The capture layer's active tracer wraps ``threading.Thread.start``
    process-wide; a worker spawned while some capture holds the weaver
    would be recorded as a spurious fork inside that workload's trace.
    A barrier task per worker makes the pool fully populated before the
    executor is handed to anyone.
    """
    barrier = threading.Barrier(workers)
    for warmup in [pool.submit(barrier.wait) for _ in range(workers)]:
        warmup.result()


class ThreadExecutor:
    """A prewarmed thread pool (in-process: overlaps diff/analysis;
    captures still serialise on the capture lock)."""

    name = "threads"
    in_process = True

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max(1, max_workers if max_workers is not None
                               else DEFAULT_MAX_WORKERS)
        self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        prewarm_thread_pool(self._pool, self.max_workers)

    def map(self, fn: Callable, items: Iterable) -> list:
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadExecutor(max_workers={self.max_workers})"


def _worker_pid(delay: float = 0.0) -> int:
    """Prewarm task: spawns the worker and reports its pid.  The delay
    holds the worker long enough for its siblings to take the other
    prewarm tasks, so every worker reports."""
    if delay:
        time.sleep(delay)
    return os.getpid()


class ProcessExecutor:
    """A prewarmed process pool — each worker owns its own settrace
    weaver, so captures proceed truly concurrently.

    Tasks and results are pickled; callables must therefore be
    module-level.  The pool is fully spawned at construction (the
    ``fork`` start method where available, so workers are cheap and
    inherit imported modules), which keeps later ``map`` calls free of
    mid-capture forking.

    A pool built with ``shared=True`` is *warm*: it belongs to the
    process-wide registry (:func:`shared_process_executor`), survives
    :meth:`close` — which only records the release — and is actually
    shut down by :func:`shutdown_warm_pools` (``atexit``-registered).
    Sessions, pipelines, and the one-shot ``run_capture_tasks`` /
    diff drivers all lease the same warm pool for a given worker
    count, so spin-up is paid once per process, not once per call.
    """

    name = "processes"
    in_process = False

    def __init__(self, max_workers: int | None = None, *,
                 shared: bool = False):
        import multiprocessing

        self.max_workers = max(1, max_workers if max_workers is not None
                               else DEFAULT_MAX_WORKERS)
        self.shared = shared
        self.broken = False
        #: Dispatch statistics (``stats()``): every ``map`` is one
        #: batch; each mapped item is one task lease.
        self.batches = 0
        self.tasks_leased = 0
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers,
                                         mp_context=context)
        _note_open_pool(self)
        # One submit per worker forces the pool to spawn all of them
        # now; sleep-staggered rounds make every worker take (and
        # report) a prewarm task, doubling as a liveness check.
        pids: set[int] = set()
        for _ in range(10):
            futures = [self._pool.submit(_worker_pid, 0.05)
                       for _ in range(self.max_workers)]
            pids.update(future.result() for future in futures)
            if len(pids) >= self.max_workers:
                break
        self.worker_pids = tuple(sorted(pids))

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        self.batches += 1
        self.tasks_leased += len(items)
        try:
            return list(self._pool.map(fn, items))
        except BrokenProcessPool:
            # A worker died mid-batch.  Mark the pool unusable (the
            # warm registry rebuilds on next lease), shut it down, and
            # collect any shared-memory orphans the dead worker left.
            self.broken = True
            self._pool.shutdown(wait=False, cancel_futures=True)
            from repro.exec.shm import parent_registry
            parent_registry().sweep()
            raise

    def close(self) -> None:
        """Release the pool: a real shutdown for privately built
        pools, a no-op for warm shared ones (the registry owns those —
        see :func:`shutdown_warm_pools`)."""
        if not self.shared:
            self.shutdown()

    def shutdown(self) -> None:
        """Actually stop the workers (regardless of ``shared``) and
        release any shared-memory segments this process tracks when no
        other process pool remains open."""
        self._pool.shutdown(wait=True)
        _forget_open_pool(self)

    def stats(self) -> dict:
        """Pool observability for benches and ``/v1/stats``."""
        return {"pool_size": self.max_workers,
                "worker_pids": list(self.worker_pids),
                "shared": self.shared,
                "broken": self.broken,
                "batches": self.batches,
                "tasks_leased": self.tasks_leased}

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProcessExecutor(max_workers={self.max_workers}"
                f"{', shared' if self.shared else ''})")


# -- the warm pool registry ---------------------------------------------------

#: Live process pools of this process: the shm segment registry is
#: drained when the last one shuts down (workers that could attach a
#: segment no longer exist).
_OPEN_POOLS: "set[int]" = set()
#: Warm shared pools by worker count.
_WARM_POOLS: dict[int, ProcessExecutor] = {}
_pools_lock = threading.Lock()


def _note_open_pool(pool: ProcessExecutor) -> None:
    with _pools_lock:
        _OPEN_POOLS.add(id(pool))


def _forget_open_pool(pool: ProcessExecutor) -> None:
    with _pools_lock:
        _OPEN_POOLS.discard(id(pool))
        last = not _OPEN_POOLS
    if last:
        from repro.exec.shm import parent_registry
        parent_registry().release_all()


def shared_process_executor(max_workers: int | None = None
                            ) -> ProcessExecutor:
    """The process-wide *warm* pool for ``max_workers`` workers.

    Built once, prewarmed once, reused by every session / pipeline /
    one-shot helper that asks for ``"processes"`` with the same worker
    count; its ``close()`` is a no-op, so short-lived drivers can hold
    it without tearing it down for everyone else.  A pool broken by a
    worker crash is replaced on the next lease.
    """
    workers = max(1, max_workers if max_workers is not None
                  else DEFAULT_MAX_WORKERS)
    with _pools_lock:
        pool = _WARM_POOLS.get(workers)
    if pool is not None and not pool.broken:
        return pool
    fresh = ProcessExecutor(max_workers=workers, shared=True)
    with _pools_lock:
        raced = _WARM_POOLS.get(workers)
        if raced is not None and not raced.broken and raced is not fresh:
            stale, keep = fresh, raced
        else:
            stale, keep = _WARM_POOLS.get(workers), fresh
            _WARM_POOLS[workers] = fresh
    if stale is not None and stale is not keep:
        stale.shutdown()
    return keep


def shutdown_warm_pools() -> None:
    """Shut down every warm shared pool (tests, interpreter exit)."""
    with _pools_lock:
        pools = list(_WARM_POOLS.values())
        _WARM_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_warm_pools)


def lease_chunks(items: Sequence, workers: int) -> list[list]:
    """Split a task batch into worker *leases*: ``workers`` contiguous
    near-even chunks covering most of the batch, then a tail of
    singleton leases idle workers steal — one round trip per lease
    instead of one per task, without a long straggler pinning the
    batch to its worker.  Deterministic (result reassembly relies on
    lease order)."""
    items = list(items)
    workers = max(1, workers)
    if len(items) <= workers:
        return [[item] for item in items]
    tail_len = min(workers * LEASE_TAIL_PER_WORKER, max(len(items) // 4, 1))
    head, tail = items[:len(items) - tail_len], items[len(items) - tail_len:]
    return chunk_evenly(head, workers) + [[item] for item in tail]


_FACTORIES: dict[str, type] = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
    "processes": ProcessExecutor,
}


def available_executors() -> tuple[str, ...]:
    """The selectable executor names (stable, documentation order)."""
    return EXECUTOR_NAMES


def get_executor(spec: "str | Executor | None",
                 max_workers: int | None = None) -> Executor:
    """Resolve an executor.

    ``spec`` may be an executor instance (passed through), ``None``
    (serial), or a registry name — optionally with a worker count
    suffix, e.g. ``"processes:4"``.  An explicit ``max_workers``
    argument overrides a suffix.
    """
    if spec is None:
        return SerialExecutor()
    if not isinstance(spec, str):
        if isinstance(spec, Executor):
            return spec
        raise TypeError(f"not an executor: {spec!r}")
    name, sep, suffix = spec.partition(":")
    workers = max_workers
    if sep:
        try:
            suffix_workers = int(suffix)
        except ValueError:
            # Validate even when max_workers overrides — a typo'd spec
            # must never be silently accepted.
            raise ValueError(f"bad executor worker count in {spec!r}")
        if workers is None:
            workers = suffix_workers
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(f"unknown executor {spec!r}; available: "
                       f"{', '.join(available_executors())}")
    return factory(max_workers=workers)


def resolve_executor(spec: "str | Executor | None",
                     max_workers: int | None = None, *,
                     reuse: bool = True) -> tuple[Executor, bool]:
    """:func:`get_executor` plus an *ownership* flag.

    ``owned`` is True when this call resolved the executor from a spec
    (name string or ``None``) — the caller is then responsible for
    closing it once the batch is done, so one-shot drivers never strand
    worker pools.  Instances pass through unowned (the caller who built
    the pool keeps its lifecycle).

    With ``reuse`` (the default), a ``"processes"`` name spec resolves
    to the process-wide **warm pool** for that worker count
    (:func:`shared_process_executor`): still "owned" — callers close it
    as before — but close is a soft release, so repeat calls (a
    session's diffs, back-to-back ``run_pipeline`` batches, the
    service's jobs) never rebuild a pool.  ``reuse=False`` restores a
    private, really-torn-down pool.
    """
    owned = not isinstance(spec, Executor)
    if owned and reuse and isinstance(spec, str) \
            and spec.partition(":")[0] == "processes":
        name, sep, suffix = spec.partition(":")
        workers = max_workers
        if sep:
            try:
                suffix_workers = int(suffix)
            except ValueError:
                raise ValueError(f"bad executor worker count in {spec!r}")
            if workers is None:
                workers = suffix_workers
        return shared_process_executor(workers), True
    return get_executor(spec, max_workers=max_workers), owned


def chunk_evenly(items: Sequence, chunks: int) -> list[list]:
    """Split ``items`` into at most ``chunks`` contiguous, non-empty
    runs of near-equal length, preserving order (deterministic — the
    parallel diff path relies on chunk order for result identity)."""
    items = list(items)
    if not items:
        return []
    chunks = max(1, min(chunks, len(items)))
    size, extra = divmod(len(items), chunks)
    out: list[list] = []
    at = 0
    for index in range(chunks):
        width = size + (1 if index < extra else 0)
        out.append(items[at:at + width])
        at += width
    return out
