"""``service-open``: an open-loop request mix against ``repro serve``.

Set-up captures small MyFaces request traces (seeded bodies), primes a
sharded :class:`~repro.api.TraceStore` with them, computes every diff
signature in-process, boots ``python -m repro.analysis.cli serve`` over
the store in its own process, and warms its diff cache with the pairs
that later requests repeat.

The load generator sends a seeded Poisson schedule at one fixed rate,
well below capacity, whatever the server's state (open loop):

* ``hit``: a repeat diff that the server's ``DiffCache`` answers;
* ``cold``: a ``use_cache=False`` diff of a small pair;
* ``upload``: a binary trace upload (``submit_capture(trace=...)``), a
  store write plus a catalog update;
* ``query``: a ``/v1/query`` catalog read.

A request's latency runs from the time it was due to the ``finished``
stamp of its job record (queries: to the response), so how often the
client polls adds nothing.  One thread sends and one polls, so at most
two connections are in flight.  Failed or refused requests count as
missing the latency limit.

Latencies are reported in reference milliseconds: measured, scaled by
the run's mean round trip to :mod:`reference`, a server of fixed work
pinned to the service's CPU and called while the service is idle.  The
mean, not the median: the host's slow phases are short stalls, which
the mean counts as the requests' latencies do.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from urllib.parse import urlsplit

from common import (BENCH_DIR, ROOT, SETUPS, SRC, SpeedProbe, Tally, log,
                    make_workdir, median, percentile, remove_workdir)

#: Requests per second of schedule (capacity is several times higher).
RATE = 15.0
#: Share of each request kind in the schedule.
MIX = (("hit", 0.50), ("cold", 0.10), ("upload", 0.10), ("query", 0.30))
#: A request slower than this (or failed) misses; goodput counts the rest.
LIMIT_MS = 1000.0
#: Percentile tails are reported only from at least this many samples.
MIN_TAIL_SAMPLES = 200
HIT_PAIRS = 4
COLD_PAIRS = 4
UPLOAD_TRACES = 8
SCENARIOS = ("svc-a", "svc-b", "svc-c")
MYFACES_MODULES = ("repro.workloads.myfaces",)
POLL_S = 0.01
SERVER_WORKERS = 2
#: Round trip to the reference server on a quiet reference machine.
REF_NOMINAL_MS = 20.0
#: The reference is called when no job is pending and the next request
#: is due at least REF_GAP_S later, at most every REF_EVERY_S, and
#: REF_EDGE times before and after the window.
REF_GAP_S = 0.08
REF_EVERY_S = 0.1
REF_EDGE = 5


#: Request body length of every pair and upload.
BODY_LENGTH = 24


def request_body(rng: random.Random, length: int) -> tuple[str, str]:
    """A seeded HTML request body with one BEL character in the middle,
    so the two versions' traces differ as in the motivating example.
    The seed picks the letters only: every body takes the same path
    through both versions, so every seed asks for the same work and
    each request kind's latencies form one cluster."""
    chars = [rng.choice("abcdefghij klmno") for _ in range(length)]
    chars[length // 2] = "\x07"
    return ("text/html", "".join(chars))


@dataclass
class Inputs:
    """Everything set-up hands to the load generator."""

    url: str
    hit_pairs: list
    cold_pairs: list
    uploads: list            # (trace, content digest)
    signatures: dict         # (left, right) -> signature text
    scenario_keys: dict      # scenario -> sorted keys
    captured: list           # (module, request) of every capture


def split_cpus() -> tuple[set, set]:
    """(server CPUs, load generator CPUs): the server gets one CPU of
    its own (its GIL keeps it on about one anyway) and the load
    generator the rest, so the generator's work takes no CPU time from
    requests."""
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, set(cpus[1:]) or {cpus[0]}


class Child:
    """A server in a child process, pinned to ``cpus`` before it starts
    any thread; its URL comes from the ``listening on`` line it prints
    first."""

    def __init__(self, argv: list, cpus: set, env: dict | None = None):
        self.url = None
        self.process = subprocess.Popen(argv, cwd=ROOT, env=env,
                                        stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self.process.pid, cpus)
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(line) for line in
                            self.process.stdout], daemon=True)
        self._reader.start()
        try:
            line = lines.get(timeout=60)
        except queue.Empty:
            self.stop()
            raise RuntimeError(f"{argv[1:3]} did not come up") from None
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected banner: {line!r}")
        self.url = match.group(1)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()


class Server(Child):
    """``repro serve`` in a child process."""

    def __init__(self, store_dir, cpus: set):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        super().__init__(
            [sys.executable, "-m", "repro.analysis.cli", "serve",
             str(store_dir), "--port", "0", "--layout", "sharded",
             "--workers", str(SERVER_WORKERS)], cpus, env)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful drain and exit; killed if it does not end."""
        from repro.service import ServiceClient, ServiceError
        try:
            if self.process.poll() is None and self.url is not None:
                ServiceClient(self.url, timeout=10).shutdown()
                self.process.wait(timeout=60)
        except (ServiceError, OSError, subprocess.TimeoutExpired):
            pass
        finally:
            super().stop()


class Reference(Child):
    """The reference server (:mod:`reference`) on the service's CPU."""

    def __init__(self, cpus: set):
        super().__init__([sys.executable, str(BENCH_DIR / "reference.py")],
                         cpus)

    def ping(self) -> float:
        """One round trip, in milliseconds."""
        started = time.perf_counter()
        connection = HTTPConnection(urlsplit(self.url).netloc, timeout=30)
        try:
            connection.request("GET", "/probe")
            connection.getresponse().read()
        finally:
            connection.close()
        return 1000.0 * (time.perf_counter() - started)


def set_up(store_dir, seed: int, tiny: bool,
           server_cpus: set) -> tuple[Server, Inputs, float]:
    """Prime a store, compute the oracle, boot and warm the server.
    Also returns the seconds spent booting and warming the server."""
    from repro.api import Session, TraceStore
    from repro.core.diffs import result_signature
    from repro.service import ServiceClient
    from repro.workloads.myfaces import version_new, version_old
    from repro.workloads.myfaces.scenario import run_request

    rng = random.Random(seed)
    session = Session().with_filter(include_modules=MYFACES_MODULES)
    store = TraceStore(store_dir, layout="sharded")
    scenario_keys: dict[str, list] = {name: [] for name in SCENARIOS}
    captured = []

    def capture(module, request):
        captured.append((module, request))
        return session.capture(run_request, module, request).trace

    def stored_pair(label: str, position: int) -> tuple[str, str]:
        request = request_body(rng, BODY_LENGTH)
        keys = []
        for version, module in (("old", version_old),
                                ("new", version_new)):
            trace = capture(module, request)
            key = f"{label}/{version}"
            scenario = SCENARIOS[position % len(SCENARIOS)]
            store.save(trace, key=key, scenario=scenario)
            scenario_keys[scenario].append(key)
            keys.append(key)
        return keys[0], keys[1]

    pairs_each = 1 if tiny else HIT_PAIRS
    hit_pairs = [stored_pair(f"hit{i}", i) for i in range(pairs_each)]
    cold_pairs = [stored_pair(f"cold{i}", i + 1)
                  for i in range(1 if tiny else COLD_PAIRS)]
    uploads = []
    for position in range(2 if tiny else UPLOAD_TRACES):
        module = (version_old, version_new)[position % 2]
        request = request_body(rng, BODY_LENGTH)
        trace = capture(module, request)
        uploads.append((trace, trace.content_digest()))

    direct = Session(store=store, cache=False)
    signatures = {pair: json.dumps(result_signature(direct.diff(*pair)),
                                   sort_keys=True, default=list)
                  for pair in hit_pairs + cold_pairs}

    started = time.perf_counter()
    server = Server(store_dir, server_cpus)
    try:
        client = ServiceClient(server.url)
        for left, right in hit_pairs:
            client.wait(client.submit_diff(left, right), timeout=60,
                        poll=POLL_S)
        for left, right in cold_pairs:
            client.wait(client.submit_diff(left, right, use_cache=False),
                        timeout=60, poll=POLL_S)
        for scenario in SCENARIOS:
            client.query(scenario=scenario)
    except BaseException:
        server.stop()
        raise
    return server, Inputs(
        url=server.url, hit_pairs=hit_pairs, cold_pairs=cold_pairs,
        uploads=uploads, signatures=signatures,
        scenario_keys={k: sorted(v) for k, v in scenario_keys.items()},
        captured=captured), time.perf_counter() - started


def untraced_capture_s(captured: list) -> float:
    """The captured callables of a set-up run without the tracer."""
    from repro.workloads.myfaces.scenario import run_request
    started = time.perf_counter()
    for module, request in captured:
        try:
            run_request(module, request)
        except Exception:  # noqa: BLE001 - a version may raise
            pass
    return time.perf_counter() - started


def schedule(seed: int, seconds: float, inputs: Inputs) -> list[tuple]:
    """The seeded open-loop schedule: (offset seconds, kind, target).
    Poisson arrivals at :data:`RATE`, stretched to span ``seconds``."""
    rng = random.Random(seed + 1)
    total = max(len(MIX), round(RATE * seconds))
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * max(1, round(total * share))
    rng.shuffle(kinds)
    gaps = [rng.expovariate(RATE) for _ in kinds]
    stretch = seconds / sum(gaps)
    # Each kind cycles through its targets, so every run asks for the
    # same work in a seeded order.
    targets = {"hit": inputs.hit_pairs, "cold": inputs.cold_pairs,
               "upload": inputs.uploads, "query": SCENARIOS}
    seen = {kind: 0 for kind in targets}
    plan, offset = [], 0.0
    for kind, gap in zip(kinds, gaps):
        offset += gap * stretch
        n = seen[kind]
        seen[kind] += 1
        target = targets[kind][n % len(targets[kind])]
        if kind == "upload":
            target = (f"up/{n}", target)
        plan.append((offset, kind, target))
    return plan


@dataclass
class Request:
    kind: str
    target: object
    due: float               # wall clock (time.time) it was due
    late_ms: float = 0.0
    submit_ms: float = 0.0
    record: dict | None = None
    latency_ms: float | None = None
    poll_lag_ms: float = 0.0
    problem: str = ""
    rejected: bool = False


def _check_job(request: Request, inputs: Inputs) -> str:
    record = request.record
    if record["state"] != "done":
        return f"{request.kind} job ended {record['state']}: " \
               f"{record.get('error', '')}"
    result = record.get("result") or {}
    if request.kind == "upload":
        key, (_trace, digest) = request.target
        if result.get("digest") != digest or result.get("key") != key:
            return f"upload {key}: digest/key mismatch"
        return ""
    if result.get("signature") != inputs.signatures[request.target]:
        return f"{request.kind} diff {request.target}: signature differs"
    return ""


def drive(plan: list[tuple], inputs: Inputs,
          reference: Reference) -> tuple[list[Request], list[float]]:
    """Send the schedule from this thread, poll from another; call the
    reference in the service's idle gaps.  Returns the requests and the
    reference round trips (ms)."""
    from repro.service import ServiceClient, ServiceError

    sender = ServiceClient(inputs.url)
    pending: dict[str, Request] = {}
    lock = threading.Lock()
    sending_done = threading.Event()
    deadline = time.monotonic() + plan[-1][0] + 120.0

    def poll() -> None:
        client = ServiceClient(inputs.url)
        while True:
            with lock:
                waiting = list(pending.items())
            if not waiting and sending_done.is_set():
                return
            for job_id, request in waiting:
                try:
                    record = client.job(job_id)
                except (ServiceError, OSError) as exc:
                    record = {"state": "error", "error": str(exc),
                              "finished": time.time()}
                if record["state"] in ("done", "error"):
                    seen = time.time()
                    request.record = record
                    finished = record.get("finished", seen)
                    request.latency_ms = 1000.0 * (finished - request.due)
                    request.poll_lag_ms = 1000.0 * (seen - finished)
                    with lock:
                        del pending[job_id]
            if time.monotonic() > deadline:
                with lock:
                    for request in pending.values():
                        request.problem = "no answer before the deadline"
                    pending.clear()
                return
            time.sleep(POLL_S)

    reference_ms = [reference.ping() for _ in range(REF_EDGE)]
    poller = threading.Thread(target=poll, name="perfbench-poller")
    poller.start()
    requests: list[Request] = []
    start_mono = time.monotonic() + 0.05
    start_wall = time.time() + 0.05
    next_ping = start_mono
    try:
        for offset, kind, target in plan:
            due = start_mono + offset
            while (time.monotonic() >= next_ping
                   and due - time.monotonic() > REF_GAP_S):
                with lock:
                    idle = not pending
                if idle:
                    reference_ms.append(reference.ping())
                    next_ping = time.monotonic() + REF_EVERY_S
                else:
                    time.sleep(POLL_S)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            request = Request(kind, target, due=start_wall + offset)
            request.late_ms = 1000.0 * max(
                0.0, time.monotonic() - (start_mono + offset))
            requests.append(request)
            sent = time.perf_counter()
            try:
                if kind == "query":
                    records = sender.query(scenario=target)
                    request.latency_ms = 1000.0 * (time.time()
                                                   - request.due)
                    keys = sorted(r["key"] for r in records)
                    if keys != inputs.scenario_keys[target]:
                        request.problem = f"query {target}: wrong records"
                    continue
                if kind == "upload":
                    key, (trace, _digest) = target
                    job = sender.submit_capture(trace=trace, key=key)
                else:
                    job = sender.submit_diff(*target,
                                             use_cache=(kind == "hit"))
            except ServiceError as exc:
                request.rejected = exc.status == 503
                request.problem = f"{kind}: {exc}"
                continue
            except OSError as exc:
                request.problem = f"{kind}: {exc}"
                continue
            finally:
                request.submit_ms = 1000.0 * (time.perf_counter() - sent)
            with lock:
                pending[job] = request
    finally:
        sending_done.set()
        poller.join()
    reference_ms += [reference.ping() for _ in range(REF_EDGE)]
    for request in requests:
        if request.record is not None and not request.problem:
            request.problem = _check_job(request, inputs)
    return requests, reference_ms


def run(args, expected: dict, tally: Tally):
    del expected  # the oracle here is computed in set-up
    recorder = None
    if args.trace:
        import repro.service.client as client_mod
        from layers import Recorder
        recorder = Recorder()

        def count_bytes(data, _args):
            recorder.counts["serialize.bytes"] += len(data)

    server_cpus, client_cpus = split_cpus()
    os.sched_setaffinity(0, client_cpus)  # threads started later inherit
    workdir = make_workdir("service")
    server = reference = None
    try:
        # The reference runs through set-up too: the server's boot and
        # warm-up are scaled by it, the rest of set-up by this process's
        # probe.  A traced run adds one set-up, traced, for the overhead.
        reference = Reference(server_cpus)
        setups = (1 if args.tiny else SETUPS) + bool(recorder)
        local_times, server_times, setup_reference_ms = [], [], []
        probe = SpeedProbe()
        probe.measure()
        for attempt in range(setups):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            if recorder is not None and attempt == setups - 1:
                # The traced run's in-process layers (capture, store,
                # serialize, key tables, views) are this set-up's.
                with recorder:
                    server, inputs, server_s = set_up(
                        workdir / f"store{attempt}", args.seed, args.tiny,
                        server_cpus)
                traced_setup_s = time.perf_counter() - started
            else:
                server, inputs, server_s = set_up(
                    workdir / f"store{attempt}", args.seed, args.tiny,
                    server_cpus)
                local_times.append(time.perf_counter() - started - server_s)
                server_times.append(server_s)
            probe.measure()
            setup_reference_ms += [reference.ping() for _ in range(REF_EDGE)]

        plan = schedule(args.seed, args.seconds, inputs)
        if len(plan) < MIN_TAIL_SAMPLES:
            log(f"service-open: {len(plan)} requests, fewer than "
                f"{MIN_TAIL_SAMPLES}: latency_p95_ms is not a valid tail")
        from repro.service import ServiceClient
        stats_before = ServiceClient(inputs.url).stats()
        if recorder is not None:
            with recorder:
                # Uploads encode on the client; time that codec call.
                recorder.patch(client_mod, "dumps_trace_bytes",
                               "serialize.encode", after=count_bytes)
                requests, reference_ms = drive(plan, inputs, reference)
        else:
            requests, reference_ms = drive(plan, inputs, reference)
        stats_after = ServiceClient(inputs.url).stats()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        for child in (reference, server):
            if child is not None:
                child.stop()
        remove_workdir(workdir)

    # Work in this process is scaled by this process's probe, the
    # server's by the reference on the server's CPU.
    scale = REF_NOMINAL_MS / statistics.mean(reference_ms)
    setup_scale = REF_NOMINAL_MS / statistics.mean(setup_reference_ms)
    setup_times = [probe.scale() * local + setup_scale * served
                   for local, served in zip(local_times, server_times)]
    setup_s = median(setup_times)
    good = 0
    latencies = []
    for request in requests:
        ok = tally.record([request.problem] if request.problem else [])
        latency = request.latency_ms
        if not ok or latency is None:
            latency = 10 * LIMIT_MS  # a failed request misses the limit
        latencies.append(latency)
        good += ok and latency <= LIMIT_MS
    finishes = [r.due + r.latency_ms / 1000.0 for r in requests
                if r.latency_ms is not None]
    wall_s = max(finishes) - min(r.due for r in requests) \
        + plan[0][0]
    by_kind = {kind: round(median([r.latency_ms for r in requests
                                   if r.kind == kind and r.latency_ms]), 1)
               for kind, _share in MIX}
    log(f"service-open: set-up {setup_s:.3f}s (median of "
        f"{len(setup_times)}; measured in this process "
        f"{[round(t, 3) for t in local_times]}, by the server "
        f"{[round(t, 3) for t in server_times]}); {len(requests)} requests, {good} within "
        f"{LIMIT_MS:.0f} ms, wall {wall_s:.3f}s; measured p50 "
        f"{percentile(latencies, 50):.2f} ms, p95 "
        f"{percentile(latencies, 95):.2f} ms, median by kind {by_kind}; "
        f"reference {statistics.mean(reference_ms):.2f} ms over "
        f"{len(reference_ms)} calls, scale {scale:.3f}")

    if recorder is None:
        return {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "latency_p50_ms": scale * percentile(latencies, 50),
            "latency_p95_ms": scale * percentile(latencies, 95),
            "goodput_rps": good / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }, None
    values = service_layers(recorder, requests, stats_before, stats_after)
    untraced = median([untraced_capture_s(inputs.captured)
                       for _ in range(3)])
    values["capture.slowdown"] = recorder.busy["capture"] / untraced
    plain_setup_s = median([local + served for local, served
                            in zip(local_times, server_times)])
    values["trace.overhead_frac"] = traced_setup_s / plain_setup_s - 1.0
    return None, values


def service_layers(recorder, requests: list[Request], before: dict,
                   after: dict) -> dict[str, float]:
    """Per-layer figures: in-process layers from the traced set-up
    (the recorder), the server's from job records and ``/v1/stats``,
    the load generator's from its own timings."""
    values = recorder.metrics()
    jobs = [r for r in requests if r.record is not None
            and r.record.get("started")]

    def run_ms(request):
        return 1000.0 * (request.record["finished"]
                         - request.record["started"])

    diffs = [r for r in jobs if r.kind in ("hit", "cold")]
    hits = [r for r in diffs if r.record["result"].get("cached")]
    misses = [r for r in diffs if not r.record["result"].get("cached")]
    queries = [r for r in requests if r.kind == "query"
               and r.latency_ms is not None]
    cache_before = before.get("cache", {})
    cache_after = after.get("cache", {})
    cache_hits = cache_after.get("hits", 0) - cache_before.get("hits", 0)
    cache_misses = (cache_after.get("misses", 0)
                    - cache_before.get("misses", 0))
    waits = [1000.0 * (r.record["started"] - r.record["created"])
             for r in jobs]
    covered = sum(waits) + sum(run_ms(r) for r in jobs)
    total = sum(r.latency_ms for r in jobs)
    values.update({
        "index.query_ms": median([r.latency_ms for r in queries]),
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.hit_ratio": (cache_hits / (cache_hits + cache_misses)
                            if cache_hits + cache_misses else 0.0),
        "cache.hit_ms": median([1000.0 * r.record["result"]["seconds"]
                                for r in hits]),
        "cache.miss_ms": median([1000.0 * r.record["result"]["seconds"]
                                 for r in misses]),
        "service.submit_ms": median([r.submit_ms for r in requests
                                     if r.kind != "query"]),
        "service.queue_wait_ms": median(waits),
        "service.run_ms.diff": median([run_ms(r) for r in diffs]),
        "service.run_ms.capture": median([run_ms(r) for r in jobs
                                          if r.kind == "upload"]),
        "service.rejected": sum(r.rejected for r in requests),
        "service.errors": sum(1 for r in requests
                              if r.problem and not r.rejected),
        "loadgen.late_ms": percentile([r.late_ms for r in requests], 95),
        "loadgen.poll_lag_ms": median([r.poll_lag_ms for r in jobs]),
        "other.busy_s": max(0.0, total - covered) / 1000.0,
        "trace.coverage": covered / total if total else 0.0,
    })
    return values
