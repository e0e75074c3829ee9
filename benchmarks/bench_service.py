"""Trace-diff service throughput and request latency.

A :class:`~repro.service.ReproService` is booted in-process against a
sharded store primed with version pairs, then a thread pool of clients
hammers the submit-diff endpoint: each request submits a job and polls
it to completion, so the measured latency is the full user-visible
round trip (HTTP submit + queue wait + diff + HTTP poll).  Two passes
run — **cold** (empty diff cache: every job computes) and **warm**
(primed cache: every job is a digest hit) — and every service-computed
signature is asserted bit-identical to the direct
:meth:`Session.diff` computation before any timing claim is made.

One JSON document lands in ``results/service.json`` (the CI
``service-smoke`` job uploads it as a workflow artifact), reporting
per-pass throughput (jobs/sec) and p50/p95 request latency.
Environment knobs:

* ``BENCH_SERVICE_PAIRS`` — distinct trace pairs in the store
  (default 8).
* ``BENCH_SERVICE_REQUESTS`` — diff requests per pass (default 64).
* ``BENCH_SERVICE_CLIENTS`` — concurrent client threads (default 16).
* ``BENCH_SERVICE_WORKERS`` — service worker slots (default 4).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import write_result

from repro.api import Session, TraceStore
from repro.core.diffs import result_signature
from repro.core.traces import Trace, TraceBuilder
from repro.core.values import prim
from repro.service import ReproService, ServiceClient, ServiceThread

PAIRS = int(os.environ.get("BENCH_SERVICE_PAIRS", "8"))
REQUESTS = int(os.environ.get("BENCH_SERVICE_REQUESTS", "64"))
CLIENTS = int(os.environ.get("BENCH_SERVICE_CLIENTS", "16"))
WORKERS = int(os.environ.get("BENCH_SERVICE_WORKERS", "4"))
OPS = int(os.environ.get("BENCH_SERVICE_OPS", "120"))


def _trace(values, name: str) -> Trace:
    builder = TraceBuilder(name=name)
    tid = builder.main_tid
    obj = builder.record_init(tid, "Handler", (), serialization="h")
    for value in values:
        builder.record_call(tid, obj, "Handler.handle", (prim(value),))
        builder.record_return(tid, prim(value * 2))
    builder.record_end(tid)
    return builder.build()


def _prime_store(store: TraceStore) -> list[tuple[str, str]]:
    pairs = []
    for n in range(PAIRS):
        old = list(range(OPS))
        new = [-v if v and v % (17 + n) == 0 else v for v in old]
        store.save(_trace(old, f"s{n}/old"), key=f"s{n}/old")
        store.save(_trace(new, f"s{n}/new"), key=f"s{n}/new")
        pairs.append((f"s{n}/old", f"s{n}/new"))
    return pairs


def _run_pass(url: str, pairs, label: str) -> tuple[dict, list]:
    def one_request(n: int):
        client = ServiceClient(url)
        left, right = pairs[n % len(pairs)]
        started = time.perf_counter()
        job = client.submit_diff(left, right)
        record = client.wait(job, timeout=300, poll=0.005)
        seconds = time.perf_counter() - started
        return seconds, (left, right), record["result"]

    started = time.perf_counter()
    with ThreadPoolExecutor(CLIENTS) as pool:
        outcomes = list(pool.map(one_request, range(REQUESTS)))
    wall = time.perf_counter() - started

    latencies = sorted(seconds for seconds, _, _ in outcomes)
    row = {
        "pass": label,
        "requests": REQUESTS,
        "wall_seconds": round(wall, 4),
        "jobs_per_sec": round(REQUESTS / wall, 3) if wall else 0.0,
        "latency_p50_ms": round(
            latencies[len(latencies) // 2] * 1000, 3),
        "latency_p95_ms": round(
            latencies[min(len(latencies) - 1,
                          int(len(latencies) * 0.95))] * 1000, 3),
        "cached": sum(1 for _, _, result in outcomes
                      if result["cached"]),
    }
    return row, outcomes


def test_service_throughput_and_latency(tmp_path):
    store = TraceStore(tmp_path / "store")
    pairs = _prime_store(store)

    # Ground truth: direct in-process diffs, no cache.
    direct = Session(store=store, cache=False)
    expected = {
        pair: json.dumps(result_signature(direct.diff(*pair)),
                         sort_keys=True, default=list)
        for pair in pairs
    }

    service = ReproService(store, workers=WORKERS)
    with ServiceThread(service, timeout=60) as running:
        cold_row, cold = _run_pass(running.url, pairs, "cold")
        warm_row, warm = _run_pass(running.url, pairs, "warm")

    # Identity first: every service result matches the direct diff.
    for _, pair, result in cold + warm:
        assert result["signature"] == expected[pair], pair
        assert result["num_diffs"] > 0
    assert warm_row["cached"] == REQUESTS  # warm pass fully cache-hit

    document = {
        "bench": "service",
        "pairs": PAIRS,
        "ops_per_trace": OPS,
        "clients": CLIENTS,
        "workers": WORKERS,
        "rows": [cold_row, warm_row],
        "warm_speedup": round(
            cold_row["wall_seconds"]
            / max(warm_row["wall_seconds"], 1e-9), 3),
    }
    write_result("service.json", json.dumps(document, indent=1,
                                            sort_keys=True))
