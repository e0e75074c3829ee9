"""End-to-end coverage of the trace-diff service (:mod:`repro.service`).

Everything drives a real server over real sockets — the in-thread
:class:`ServiceThread` harness for speed, plus one subprocess test for
the ``repro serve`` CLI entry point.  The acceptance bar: ≥ 32
concurrent submit-diff requests against a *sharded* store must produce
results bit-identical to direct :meth:`Session.diff` signatures.
"""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api.session import Session
from repro.api.store import TraceStore
from repro.core.diffs import result_signature
from repro.service import (ReproService, ServiceClient, ServiceError,
                           ServiceThread)

from helpers import simple_trace


@pytest.fixture()
def service(tmp_path):
    svc = ReproService(tmp_path / "store", workers=2)
    with ServiceThread(svc) as running:
        yield running, ServiceClient(running.url)


class TestEndpoints:
    def test_health_and_stats(self, service):
        _svc, client = service
        health = client.health()
        assert health["ok"] and not health["draining"]
        stats = client.stats()
        assert stats["workers"] == {"count": 2}
        assert "index" in stats and "cache" in stats
        assert set(stats["store"]) == {"loads", "reuses", "traces",
                                       "bytes"}

    def test_capture_upload_roundtrip(self, service):
        svc, client = service
        trace = simple_trace([1, 2, 3], name="up")
        job = client.submit_capture(trace=trace, key="up",
                                    tags=("fresh",), scenario="s1")
        record = client.wait(job)
        assert record["state"] == "done"
        result = record["result"]
        assert result["key"] == "up"
        assert result["digest"] == trace.content_digest()
        assert result["tags"] == ["fresh"]
        assert svc.store.load("up").content_digest() == \
            trace.content_digest()

    def test_capture_dedup_lands_on_existing_key(self, service):
        _svc, client = service
        trace = simple_trace([5, 6], name="t")
        client.wait(client.submit_capture(trace=trace, key="first"))
        record = client.wait(client.submit_capture(
            trace=trace, key="second", dedup=True))
        assert record["result"]["key"] == "first"
        assert record["result"]["deduped"] is True

    def test_registered_workload_capture(self, service):
        svc, client = service

        def workload(n):
            return sum(range(n))

        svc.register_workload("sums", workload)
        record = client.wait(client.submit_capture(
            workload="sums", args=(4,), key="sums/4"))
        assert record["result"]["key"] == "sums/4"
        assert record["result"]["entries"] > 0

    def test_workload_capture_ignores_a_job_started_mid_capture(
            self, service):
        """A request arriving mid-capture makes the pool spawn its
        second worker; that worker's job stays out of the capture."""
        svc, client = service
        started = threading.Event()
        release = threading.Event()

        def workload(n):
            started.set()
            release.wait(10)
            return sum(range(n))

        svc.register_workload("held", workload)
        held = client.submit_capture(workload="held", args=(4,),
                                     key="held")
        assert started.wait(10)
        upload = client.wait(client.submit_capture(
            trace=simple_trace([1, 2, 3], name="up"), key="up"))
        release.set()
        record = client.wait(held)
        assert upload["state"] == record["state"] == "done"
        alone = client.wait(client.submit_capture(
            workload="held", args=(4,), key="alone"))
        assert record["result"]["entries"] == \
            alone["result"]["entries"]

    def test_unregistered_workload_fails_the_job(self, service):
        _svc, client = service
        job = client.submit_capture(workload="ghost", key="x")
        with pytest.raises(ServiceError, match="ghost"):
            client.wait(job)

    def test_diff_and_cached_rerun(self, service):
        _svc, client = service
        client.wait(client.submit_capture(
            trace=simple_trace([1, 2, 3], name="a"), key="a"))
        client.wait(client.submit_capture(
            trace=simple_trace([1, 9, 3], name="b"), key="b"))
        cold = client.wait(client.submit_diff("a", "b"))["result"]
        assert cold["num_diffs"] == 2
        assert cold["cached"] is False
        warm = client.wait(client.submit_diff("a", "b"))["result"]
        assert warm["cached"] is True
        assert warm["signature"] == cold["signature"]
        assert warm["num_diffs"] == cold["num_diffs"]

    def test_diff_against_baseline_tag(self, service):
        _svc, client = service
        client.wait(client.submit_capture(
            trace=simple_trace([1, 2], name="old"), key="old",
            tags=("baseline",)))
        client.wait(client.submit_capture(
            trace=simple_trace([1, 7], name="new"), key="new"))
        record = client.wait(client.submit_diff(
            "new", baseline_tag="baseline"))
        assert record["result"]["right"] == "old"
        assert record["result"]["num_diffs"] > 0
        again = client.wait(client.submit_diff(
            "new", baseline_tag="baseline"))["result"]
        assert again["signature"] == record["result"]["signature"]
        store = client.stats()["store"]
        assert (store["loads"], store["reuses"], store["traces"]) == \
            (2, 2, 2), "the repeat diff reuses both decoded traces"

    def test_diff_engine_parameter(self, service):
        svc, client = service
        left = simple_trace([1, 2, 3, 4], name="l")
        right = simple_trace([1, 9, 3, 4], name="r")
        client.wait(client.submit_capture(trace=left, key="l"))
        client.wait(client.submit_capture(trace=right, key="r"))
        result = client.wait(client.submit_diff(
            "l", "r", engine="optimized"))["result"]
        assert result["engine"] == "lcs-optimized"
        direct = Session(store=svc.store).diff("l", "r", engine="optimized")
        assert result["signature"] == json.dumps(
            result_signature(direct), sort_keys=True, default=list)

    def test_unregistered_engine_fails_the_job(self, service):
        _svc, client = service
        client.wait(client.submit_capture(
            trace=simple_trace([1, 2], name="l"), key="l"))
        client.wait(client.submit_capture(
            trace=simple_trace([1, 3], name="r"), key="r"))
        job = client.submit_diff("l", "r", engine="anchored:views")
        with pytest.raises(ServiceError, match="available: views, "
                           "bitparallel, dp, fast, hirschberg, optimized"):
            client.wait(job)
        assert client.job(job)["state"] == "error"
        after = client.wait(client.submit_diff("l", "r"))
        assert after["state"] == "done"
        assert after["result"]["engine"] == "views"

    def test_diff_missing_key_errors_the_job(self, service):
        _svc, client = service
        with pytest.raises(ServiceError):
            client.wait(client.submit_diff("ghost", "ghost2"))

    def test_query_and_similar(self, service):
        _svc, client = service
        trace = simple_trace(list(range(20)), name="q1")
        client.wait(client.submit_capture(trace=trace, key="q1",
                                          tags=("qt",),
                                          scenario="checkout"))
        client.wait(client.submit_capture(
            trace=simple_trace(list(range(20)), name="q2"), key="q2"))
        assert [r["key"] for r in client.query(tag="qt")] == ["q1"]
        assert {r["key"] for r in client.query(scenario="checkout")} \
            == {"q1"}
        prefix = trace.content_digest()[:10]
        assert any(r["key"] == "q1"
                   for r in client.query(digest_prefix=prefix))
        similar = client.similar("q1")
        assert similar and similar[0]["key"] == "q2"
        assert similar[0]["score"] >= 1.0  # identical content

    def test_jobs_listing(self, service):
        _svc, client = service
        job = client.submit_capture(
            trace=simple_trace([1], name="x"), key="x")
        client.wait(job)
        listed = client.jobs()
        assert any(entry["id"] == job for entry in listed)

    def test_http_error_codes(self, service):
        svc, client = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/jobs/ghost")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/v1/query")
        assert err.value.status == 405
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/similar")  # missing ?key=
        assert err.value.status == 400
        import http.client
        connection = http.client.HTTPConnection(svc.host, svc.port)
        try:
            connection.request(
                "POST", "/v1/diffs", body=b"{not json",
                headers={"Content-Type": "application/json"})
            assert connection.getresponse().status == 400
        finally:
            connection.close()


class TestGracefulShutdown:
    def test_shutdown_drains_queued_jobs(self, tmp_path):
        svc = ReproService(tmp_path / "store", workers=1)
        with ServiceThread(svc) as running:
            client = ServiceClient(running.url)
            jobs = [client.submit_capture(
                trace=simple_trace([n], name=f"t{n}"), key=f"t{n}")
                for n in range(5)]
            client.shutdown()
        # The thread joined: every queued job must have completed.
        for job_id in jobs:
            assert running.jobs[job_id].state == "done"
        assert set(TraceStore(tmp_path / "store").keys()) == \
            {f"t{n}" for n in range(5)}

    def test_draining_refuses_new_submissions(self, tmp_path):
        svc = ReproService(tmp_path / "store", workers=1)
        thread = ServiceThread(svc)
        with thread as running:
            client = ServiceClient(running.url)
            client.shutdown()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    client.submit_capture(
                        trace=simple_trace([1], name="x"), key="x")
                except (ServiceError, OSError):
                    break  # 503 while draining, refused once closed
                time.sleep(0.01)
            else:
                pytest.fail("submissions were never refused")


class TestConcurrentDiffAcceptance:
    """≥ 32 concurrent submit-diff requests against a sharded store,
    bit-identical to direct ``Session.diff`` signatures."""

    PAIRS = 8
    REQUESTS = 32

    def test_32_concurrent_diffs_bit_identical(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        session = Session(store=store, cache=False)
        pairs = []
        for n in range(self.PAIRS):
            base = list(range(12))
            base[4 + (n % 6)] = 99 + n
            left = simple_trace(list(range(12)), name=f"left{n}")
            right = simple_trace(base, name=f"right{n}")
            store.save(left, key=f"pair{n}/left")
            store.save(right, key=f"pair{n}/right")
            pairs.append((f"pair{n}/left", f"pair{n}/right"))
        expected = {
            (left, right): json.dumps(
                result_signature(session.diff(left, right)),
                sort_keys=True, default=list)
            for left, right in pairs
        }

        svc = ReproService(store, workers=4)
        with ServiceThread(svc) as running:
            def one_request(n):
                client = ServiceClient(running.url)
                left, right = pairs[n % len(pairs)]
                job = client.submit_diff(left, right)
                record = client.wait(job, timeout=120)
                return (left, right), record["result"]["signature"]

            with ThreadPoolExecutor(self.REQUESTS) as pool:
                outcomes = list(pool.map(one_request,
                                         range(self.REQUESTS)))
        assert len(outcomes) == self.REQUESTS
        for pair, signature in outcomes:
            assert signature == expected[pair], pair


class TestServeCli:
    def test_serve_boots_and_answers(self, tmp_path):
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.analysis.cli", "serve",
             str(store_dir), "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line, line
            url = line.split("listening on ", 1)[1].split()[0]
            client = ServiceClient(url)
            assert client.health()["ok"]
            record = client.wait(client.submit_capture(
                trace=simple_trace([1, 2], name="cli"), key="cli"))
            assert record["result"]["key"] == "cli"
            assert [r["key"] for r in client.query(key_prefix="cli")] \
                == ["cli"]
            client.shutdown()
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
