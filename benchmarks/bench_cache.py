"""Diff-cache throughput: warm batches vs cold batches.

The motivating number for ``repro.cache``: a 6-scenario workload
(traced request handlers) is captured once per version pair, then the
whole diff batch runs

* **cold** — an empty :class:`~repro.cache.DiffCache` (every pair
  plans, correlates, and evaluates in full, then stores), and
* **warm** — the same batch again on the primed cache (every pair is a
  content-digest hit; no planning happens).

A second warm pass goes through a *fresh* cache handle on the same
directory, so the disk tier (not just the in-memory LRU) is exercised.
Cached results are asserted bit-identical to the cold computations via
:func:`~repro.core.diffs.result_signature` before any timing claim is
made.

One JSON document lands in ``results/cache.json`` (the CI ``cache-
smoke`` job uploads it as a workflow artifact).  Environment knobs:

* ``BENCH_CACHE_SCENARIOS`` — version pairs per batch (default 6).
* ``BENCH_CACHE_OPS`` — traced calls per capture (default 150).
* ``BENCH_CACHE_WARM_REPEATS`` — warm timing repeats (default 3; the
  fastest is reported, as the steady state the cache is about).

The >=5x acceptance assertion fires only at full size (>=4 scenarios,
>=100 ops); identity assertions always run.
"""

from __future__ import annotations

import json
import os
import time

from conftest import write_result

from repro.api import Session
from repro.cache import DiffCache
from repro.capture.filters import TraceFilter
from repro.core.diffs import result_signature

SCENARIOS = int(os.environ.get("BENCH_CACHE_SCENARIOS", "6"))
OPS = int(os.environ.get("BENCH_CACHE_OPS", "150"))
WARM_REPEATS = int(os.environ.get("BENCH_CACHE_WARM_REPEATS", "3"))

#: The acceptance assertion only fires at full scale.
ASSERT_MIN_SCENARIOS = 4
ASSERT_MIN_OPS = 100
ASSERT_SPEEDUP = 5.0

FILTER = TraceFilter(include_modules=("bench_cache",))


class RequestHandler:
    """A traced request handler (no I/O waits: this bench times
    differencing, not capture)."""

    def __init__(self, scenario: int):
        self.scenario = scenario
        self.handled = 0

    def handle(self, request: int) -> int:
        self.handled += 1
        return request * 2 + self.scenario % 7


def old_scenario(spec: tuple) -> int:
    scenario, ops = spec
    handler = RequestHandler(scenario)
    for request in range(ops):
        handler.handle(request)
    return handler.handled


def new_scenario(spec: tuple) -> int:
    """The regressed version: every 37th request is mangled, so each
    pair carries a real difference sequence to find."""
    scenario, ops = spec
    handler = RequestHandler(scenario)
    for request in range(ops):
        handler.handle(-request if request and request % 37 == 0
                       else request)
    return handler.handled


def _capture_pairs() -> list[tuple]:
    session = Session(filter=FILTER)
    captured = session.capture_batch(
        [(f"s{scenario}/{role}", func, ((scenario, OPS),), {})
         for scenario in range(SCENARIOS)
         for role, func in (("old", old_scenario), ("new", new_scenario))])
    assert all(outcome.ok for outcome in captured)
    traces = [outcome.trace for outcome in captured]
    return list(zip(traces[0::2], traces[1::2]))


def _diff_batch(session: Session, pairs) -> tuple[float, list]:
    started = time.perf_counter()
    results = [session.diff(left, right) for left, right in pairs]
    return time.perf_counter() - started, results


def test_warm_cache_batches_beat_cold_runs(tmp_path):
    pairs = _capture_pairs()
    cache_dir = tmp_path / "diffcache"

    cold_session = Session(cache=DiffCache(cache_dir))
    cold_seconds, cold_results = _diff_batch(cold_session, pairs)
    cold_stats = cold_session.cache.stats()
    assert cold_stats.stores == len(pairs)
    for result in cold_results:
        assert result.num_diffs() > 0  # the injected regression is seen

    # Warm: the same batch on the primed cache (steady state: fastest
    # of a few repeats).
    warm_seconds = None
    warm_results = None
    for _ in range(max(1, WARM_REPEATS)):
        seconds, results = _diff_batch(cold_session, pairs)
        if warm_seconds is None or seconds < warm_seconds:
            warm_seconds, warm_results = seconds, results

    # Disk tier: a fresh handle (empty memory tier) on the same
    # directory must serve the whole batch from disk.
    disk_session = Session(cache=DiffCache(cache_dir))
    disk_seconds, disk_results = _diff_batch(disk_session, pairs)
    assert disk_session.cache.stats().hits_disk == len(pairs)

    # Identity first: a cached result is bit-identical to its cold
    # computation, from either tier.
    for cold_r, warm_r, disk_r in zip(cold_results, warm_results,
                                      disk_results):
        assert result_signature(warm_r) == result_signature(cold_r)
        assert result_signature(disk_r) == result_signature(cold_r)
        assert warm_r.counter.total == cold_r.counter.total

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    disk_speedup = cold_seconds / max(disk_seconds, 1e-9)
    entries = len(pairs[0][0]) if pairs else 0
    document = {
        "bench": "cache",
        "scenarios": SCENARIOS,
        "ops_per_capture": OPS,
        "entries_per_trace": entries,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "disk_warm_seconds": round(disk_seconds, 4),
        "speedup_warm": round(speedup, 3),
        "speedup_disk_warm": round(disk_speedup, 3),
        "pairs_per_sec_cold": round(len(pairs) / cold_seconds, 3)
        if cold_seconds else 0.0,
        "pairs_per_sec_warm": round(len(pairs) / warm_seconds, 3)
        if warm_seconds else 0.0,
    }
    write_result("cache.json", json.dumps(document, indent=1,
                                          sort_keys=True))

    # The acceptance bar: a warm batch is >=5x the cold batch's
    # throughput at full size.
    if SCENARIOS >= ASSERT_MIN_SCENARIOS and OPS >= ASSERT_MIN_OPS:
        assert speedup >= ASSERT_SPEEDUP, document
