"""The asyncio JSON-over-HTTP trace-diff service.

Stdlib only: :func:`asyncio.start_server` plus a hand-rolled HTTP/1.1
request parser (one request per connection, ``Connection: close``) —
no web framework enters the dependency set.  The event loop owns all
job state; the actual trace work (captures, diffs) runs on a
``ThreadPoolExecutor`` worker pool through the service's one
:class:`~repro.api.session.Session`, so every job shares the session's
store, interned key table and :class:`~repro.cache.DiffCache`.

Endpoints (all JSON)::

    GET  /v1/health            liveness + store/queue snapshot
    GET  /v1/stats             jobs, cache, store and catalog statistics
    POST /v1/captures          submit a capture job (trace upload or
                               a server-registered workload)
    POST /v1/diffs             submit a diff job (keys, or
                               baseline_tag resolution via the index)
    GET  /v1/jobs              job list (newest first)
    GET  /v1/jobs/<id>         one job record (result when done)
    GET  /v1/query?...         TraceIndex.query over the catalog
    GET  /v1/similar?key=...   TraceIndex.similar
    POST /v1/shutdown          graceful drain: stop accepting, finish
                               queued jobs, exit

Graceful shutdown (``POST /v1/shutdown`` or
:meth:`ReproService.request_shutdown`) flips the service to *draining*
— new submissions are refused with 503 — waits for the queue to empty,
then tears the loop down.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.analysis.serialize import loads_trace
from repro.api.session import Session
from repro.api.store import TraceStore
from repro.cache import CacheCall
from repro.core.diffs import result_signature
from repro.service.jobs import (DONE, ERROR, RUNNING, Job, JobQueueFull,
                                QUEUED)

#: Default bound of the job queue (back-pressure, not memory growth).
DEFAULT_QUEUE_LIMIT = 1024

#: How many finished job records are kept for polling.
DEFAULT_JOB_HISTORY = 4096

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            503: "Service Unavailable", 500: "Internal Server Error"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class ReproService:
    """One store, one session, one HTTP front end (see module doc)."""

    def __init__(self, store: "TraceStore | str | Path", *,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = 4,
                 engine: str = "views", cache: bool = True,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 job_history: int = DEFAULT_JOB_HISTORY):
        if not isinstance(store, TraceStore):
            store = TraceStore(store)
        self.store = store
        self.session = Session(store=store, engine=engine, cache=cache)
        self.host = host
        self.port = port           # 0: ephemeral; rebound once serving
        self.workers = max(1, workers)
        self.queue_limit = queue_limit
        self.job_history = job_history
        #: Server-registered capture workloads: the only way arbitrary
        #: code runs — never from request bodies.
        self.workloads: dict[str, Callable] = {}
        self.jobs: "dict[str, Job]" = {}
        self._order: list[str] = []
        self.draining = False
        self.started_at = time.time()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._shutdown: asyncio.Event | None = None
        self._pool: ThreadPoolExecutor | None = None

    # -- configuration -------------------------------------------------------

    def register_workload(self, name: str, func: Callable) -> None:
        """Expose ``func`` as a submittable capture workload.  Requests
        name it (``{"workload": name, "args": [...]}``); the function
        runs under the session's capture machinery."""
        self.workloads[name] = func

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def run(self, *, ready: "Callable | None" = None) -> None:
        """Serve until shutdown (blocking).  ``ready(service)`` fires
        on the loop once the socket is bound and the real port known."""
        asyncio.run(self._main(ready))

    def request_shutdown(self) -> None:
        """Thread-safe external shutdown trigger (the in-thread twin of
        ``POST /v1/shutdown``)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._begin_shutdown)

    def _begin_shutdown(self) -> None:
        self.draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    async def _main(self, ready) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._shutdown = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            self.workers, thread_name_prefix="repro-service")
        server = await asyncio.start_server(self._handle, self.host,
                                            self.port)
        self.port = server.sockets[0].getsockname()[1]
        workers = [asyncio.create_task(self._worker())
                   for _ in range(self.workers)]
        if ready is not None:
            ready(self)
        print(f"repro service listening on {self.url} "
              f"(store: {self.store.root})", flush=True)
        try:
            async with server:
                await self._shutdown.wait()
                # Drain: the socket closes (no new connections), queued
                # jobs still run to completion before the loop exits.
                server.close()
                await server.wait_closed()
                await self._queue.join()
        finally:
            for task in workers:
                task.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
            self._pool.shutdown(wait=True)
            self._loop = None

    # -- job machinery -------------------------------------------------------

    def _submit(self, job: Job) -> None:
        if self.draining:
            raise JobQueueFull("service is draining")
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise JobQueueFull(
                f"job queue full ({self.queue_limit} pending)")
        self.jobs[job.id] = job
        self._order.append(job.id)
        while len(self._order) > self.job_history:
            stale = self.jobs.get(self._order[0])
            if stale is not None and stale.pending:
                break  # never evict live work
            self.jobs.pop(self._order.pop(0), None)

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            job.state = RUNNING
            job.started = time.time()
            try:
                job.result = await loop.run_in_executor(
                    self._pool, self._run_job, job)
                job.state = DONE
            except Exception as exc:  # noqa: BLE001 - job boundary
                job.state = ERROR
                job.error = f"{type(exc).__name__}: {exc}"
            finally:
                job.finished = time.time()
                self._queue.task_done()

    def _run_job(self, job: Job) -> dict:
        """Execute one job on a pool thread (the session layer is the
        thread-safety boundary: shared cache and store handles are
        documented concurrent-safe, diffs build per-pair key tables)."""
        if job.kind == "capture":
            return self._run_capture(job.params)
        if job.kind == "diff":
            return self._run_diff(job.params)
        raise ValueError(f"unknown job kind {job.kind!r}")

    def _run_capture(self, params: dict) -> dict:
        key = params.get("key")
        tags = tuple(params.get("tags", ()))
        dedup = bool(params.get("dedup", False))
        scenario = params.get("scenario") or None
        if params.get("trace_b64") is not None:
            # Binary-wire upload: base64-wrapped dumps_trace_bytes
            # output (v3; a legacy text payload decodes too).
            trace = loads_trace(base64.b64decode(params["trace_b64"]))
        elif params.get("trace") is not None:
            trace = loads_trace(params["trace"])
        elif params.get("workload"):
            name = params["workload"]
            func = self.workloads.get(name)
            if func is None:
                raise KeyError(f"no registered workload {name!r} "
                               f"(have: {sorted(self.workloads)})")
            if not key:
                raise ValueError("capture jobs need a store key")
            trace = self.session.capture(func, *params.get("args", ()),
                                         name=key).trace
        else:
            raise ValueError("capture jobs need a 'trace'/'trace_b64' "
                             "payload or a 'workload' name")
        if not (key or trace.name):
            raise ValueError("capture jobs need a store key")
        # Store directly (not via store_as) so dedup's resolution — the
        # record may land on an *existing* key — reaches the response.
        record = self.store.save(trace, key=key or trace.name,
                                 tags=tags, dedup=dedup,
                                 scenario=scenario)
        return {"key": record.key, "entries": record.entries,
                "tags": list(record.tags),
                "digest": record.metadata.get("digest", ""),
                "deduped": bool(key) and record.key != key}

    def _run_diff(self, params: dict) -> dict:
        left = params.get("left")
        if not left:
            raise ValueError("diff jobs need a 'left' store key")
        right = params.get("right")
        baseline_tag = params.get("baseline_tag")
        if not right:
            if not baseline_tag:
                raise ValueError("diff jobs need 'right' or "
                                 "'baseline_tag'")
            record = self.store.index.newest_with_tag(
                baseline_tag, exclude_key=left)
            if record is None:
                raise KeyError(
                    f"no trace carries tag {baseline_tag!r}")
            right = record.key
        started = time.perf_counter()
        result, call = self.session.diff_call(
            left, right, engine=params.get("engine") or None,
            use_cache=bool(params.get("use_cache", True)))
        seconds = time.perf_counter() - started
        return {
            "left": left, "right": right,
            "engine": result.algorithm,
            "num_diffs": result.num_diffs(),
            "sequences": len(result.sequences),
            "compares": (result.counter.compares
                         if result.counter is not None else 0),
            "seconds": seconds,
            "cached": call is not None and call.hit,
            "signature": self._signature_text(result, call),
        }

    @staticmethod
    def _signature_text(result, call: "CacheCall | None") -> str:
        """The result's signature as JSON text.  A result the cache
        holds encodes once: its text rides the cache entry's memo and
        leaves with it, so results of ``use_cache=False`` jobs are
        never retained."""
        memo = call.memo(result) if call is not None else None
        text = memo.get("signature") if memo is not None else None
        if text is None:
            text = json.dumps(result_signature(result), sort_keys=True,
                              default=list)
            if memo is not None:
                memo["signature"] = text
        return text

    # -- HTTP front end ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        status, payload = 500, {"error": "internal error"}
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, target, body = request
                status, payload = self._route(method, target, body)
            else:
                return  # closed before a full request arrived
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # noqa: BLE001 - connection boundary
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"}
        finally:
            try:
                body = json.dumps(payload).encode("utf-8")
                head = (f"HTTP/1.1 {status} "
                        f"{_REASONS.get(status, 'OK')}\r\n"
                        f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        f"Connection: close\r\n\r\n")
                writer.write(head.encode("ascii") + body)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer went away mid-response

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line.strip():
            return None
        parts = line.decode("ascii", "replace").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("ascii", "replace") \
                .partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length")
        body = b""
        if length:
            body = await reader.readexactly(length)
        return method.upper(), target, body

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "request body is not valid JSON")
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return data

    def _route(self, method: str, target: str,
               body: bytes) -> tuple[int, dict]:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        if path == "/v1/health":
            self._need(method, "GET")
            return 200, {"ok": True, "draining": self.draining,
                         "uptime": time.time() - self.started_at,
                         "queued": self._queue.qsize(),
                         "store": str(self.store.root)}
        if path == "/v1/stats":
            self._need(method, "GET")
            return 200, self._stats()
        if path == "/v1/captures":
            self._need(method, "POST")
            return self._submit_route("capture", self._json_body(body))
        if path == "/v1/diffs":
            self._need(method, "POST")
            return self._submit_route("diff", self._json_body(body))
        if path == "/v1/jobs":
            self._need(method, "GET")
            jobs = [self.jobs[jid].to_json(summary=True)
                    for jid in reversed(self._order)
                    if jid in self.jobs]
            return 200, {"jobs": jobs}
        if path.startswith("/v1/jobs/"):
            self._need(method, "GET")
            job = self.jobs.get(path[len("/v1/jobs/"):])
            if job is None:
                raise _HttpError(404, "no such job")
            return 200, job.to_json()
        if path == "/v1/query":
            self._need(method, "GET")
            return 200, self._query(query)
        if path == "/v1/similar":
            self._need(method, "GET")
            return 200, self._similar(query)
        if path == "/v1/shutdown":
            self._need(method, "POST")
            pending = self._queue.qsize()
            self._begin_shutdown()
            return 202, {"ok": True, "draining": pending}
        raise _HttpError(404, f"no route {path}")

    @staticmethod
    def _need(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    def _submit_route(self, kind: str, params: dict) -> tuple[int, dict]:
        job = Job.create(kind, params)
        try:
            self._submit(job)
        except JobQueueFull as exc:
            raise _HttpError(503, str(exc))
        return 202, {"job": job.id, "state": QUEUED}

    def _stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        cache = self.session.cache
        stats: dict = {
            "jobs": states,
            "queued": self._queue.qsize() if self._queue else 0,
            "workers": {"count": self.workers},
            "uptime": time.time() - self.started_at,
        }
        if cache is not None:
            cs = cache.stats()
            stats["cache"] = {
                "hits": cs.hits, "misses": cs.misses,
                "stores": cs.stores, "disk_entries": cs.disk_entries,
            }
        stats["store"] = self.store.warm_stats()
        index = self.store.index.stats()
        stats["index"] = {"records": index.records,
                          "diff_rows": index.diff_rows,
                          "bytes": index.bytes}
        return stats

    def _query(self, query: dict) -> dict:
        limit = None
        if query.get("limit"):
            try:
                limit = max(1, int(query["limit"]))
            except ValueError:
                raise _HttpError(400, "bad limit")
        try:
            records = self.store.index.query(
                tags=[t for t in query.get("tag", "").split(",") if t]
                or None,
                scenario=query.get("scenario") or None,
                digest_prefix=query.get("digest_prefix") or None,
                key_prefix=query.get("key_prefix") or None,
                since=query.get("since") or None,
                limit=limit)
        except ValueError as exc:
            raise _HttpError(400, str(exc))
        return {"records": [r.to_json() for r in records]}

    def _similar(self, query: dict) -> dict:
        key = query.get("key")
        if not key:
            raise _HttpError(400, "similar needs ?key=")
        try:
            limit = max(1, int(query.get("limit", 10)))
        except ValueError:
            raise _HttpError(400, "bad limit")
        try:
            scored = self.store.index.similar(key, limit=limit)
        except KeyError as exc:
            raise _HttpError(404, str(exc.args[0]))
        return {"similar": [{"score": round(score, 4),
                             **record.to_json()}
                            for score, record in scored]}


class ServiceThread:
    """Run a :class:`ReproService` on a background thread (tests and
    the benchmark): ``with ServiceThread(service) as svc: ...`` yields
    once the port is bound and tears the service down gracefully on
    exit."""

    def __init__(self, service: ReproService, *, timeout: float = 10.0):
        self.service = service
        self.timeout = timeout
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    def __enter__(self) -> ReproService:
        def main() -> None:
            try:
                self.service.run(ready=lambda _svc: self._ready.set())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                self._failure = exc
                self._ready.set()
        self._thread = threading.Thread(target=main,
                                        name="repro-service-main",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(self.timeout):
            raise TimeoutError("service did not come up")
        if self._failure is not None:
            raise RuntimeError("service failed to start") \
                from self._failure
        return self.service

    def __exit__(self, *exc) -> None:
        self.service.request_shutdown()
        if self._thread is not None:
            self._thread.join(self.timeout)
