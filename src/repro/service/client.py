"""Thin blocking client for the repro service (stdlib ``http.client``).

One :class:`ServiceClient` per caller thread — handles open a fresh
connection per request (the server speaks ``Connection: close``), so
the client object itself carries no socket state and is cheap to
construct.  Non-2xx responses raise :class:`ServiceError` carrying the
HTTP status and the server's ``error`` text.
"""

from __future__ import annotations

import base64
import json
import time
from http.client import HTTPConnection
from urllib.parse import urlencode, urlsplit

from repro.analysis.serialize import dumps_trace_bytes
from repro.core.traces import Trace


class ServiceError(RuntimeError):
    """A non-2xx service response."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Blocking JSON client: ``ServiceClient("http://127.0.0.1:8123")``."""

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        url = urlsplit(base_url if "//" in base_url
                       else "http://" + base_url)
        if url.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {url.scheme!r} "
                             f"(the service speaks plain http)")
        self.host = url.hostname or "127.0.0.1"
        self.port = url.port or 80
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> dict:
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            text = response.read().decode("utf-8", "replace")
        finally:
            connection.close()
        try:
            data = json.loads(text) if text else {}
        except ValueError:
            data = {"error": text}
        if not 200 <= response.status < 300:
            raise ServiceError(response.status,
                               data.get("error", text))
        return data

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit_capture(self, *, trace: "Trace | str | None" = None,
                       workload: str | None = None,
                       args: tuple = (), key: str | None = None,
                       tags: tuple[str, ...] = (), dedup: bool = False,
                       scenario: str | None = None) -> str:
        """Submit a capture job; returns the job id.  ``trace`` uploads
        a trace (object or already-serialised text), ``workload`` names
        a server-registered callable.

        Trace objects ship as ``trace_b64``: binary v3 wire bytes
        base64-wrapped for the JSON body — roughly half the upload of
        the legacy v2 text even after the base64 tax.  Pre-serialised
        legacy text still rides the ``trace`` key.
        """
        payload: dict = {"key": key, "tags": list(tags),
                         "dedup": dedup, "scenario": scenario}
        if isinstance(trace, Trace):
            payload["trace_b64"] = base64.b64encode(
                dumps_trace_bytes(trace)).decode("ascii")
        elif trace is not None:
            payload["trace"] = trace
        if workload is not None:
            payload["workload"] = workload
            payload["args"] = list(args)
        return self._request("POST", "/v1/captures", payload)["job"]

    def submit_diff(self, left: str, right: str | None = None, *,
                    engine: str | None = None,
                    baseline_tag: str | None = None,
                    use_cache: bool = True) -> str:
        """Submit a diff job; returns the job id.  Omitting ``right``
        requires ``baseline_tag`` (newest-tagged resolution via the
        index)."""
        return self._request("POST", "/v1/diffs", {
            "left": left, "right": right, "engine": engine,
            "baseline_tag": baseline_tag, "use_cache": use_cache,
        })["job"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, *, timeout: float = 60.0,
             poll: float = 0.02) -> dict:
        """Poll a job to completion; returns its final record.  A job
        that ends in ``error`` raises :class:`ServiceError` (status 0)
        carrying the job's error text."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] == "done":
                return record
            if record["state"] == "error":
                raise ServiceError(0, record.get("error", "job failed"))
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} "
                    f"after {timeout}s")
            time.sleep(poll)

    def query(self, *, tag: str | None = None,
              scenario: str | None = None,
              digest_prefix: str | None = None,
              key_prefix: str | None = None, since=None,
              limit: int | None = None) -> list[dict]:
        params = {k: v for k, v in (
            ("tag", tag), ("scenario", scenario),
            ("digest_prefix", digest_prefix),
            ("key_prefix", key_prefix), ("since", since),
            ("limit", limit)) if v is not None}
        path = "/v1/query"
        if params:
            path += "?" + urlencode(params)
        return self._request("GET", path)["records"]

    def similar(self, key: str, *, limit: int = 10) -> list[dict]:
        path = "/v1/similar?" + urlencode({"key": key, "limit": limit})
        return self._request("GET", path)["similar"]

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown")
