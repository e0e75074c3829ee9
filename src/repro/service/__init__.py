"""``repro.service`` — the trace-diff system as a long-running service.

A :class:`ReproService` wraps one :class:`~repro.api.session.Session`
(store, key table, diff cache) behind a stdlib-only JSON-over-HTTP
server (:mod:`asyncio` + hand-rolled HTTP/1.1, no third-party
framework): clients submit captures and diffs as *jobs*, a thread pool
of ``--workers`` drains them through the session and its shared
:class:`~repro.cache.DiffCache`, and the store's
:class:`~repro.index.TraceIndex` answers catalog queries without ever
opening a trace file.  ``repro serve`` is the CLI entry point;
:class:`ServiceClient` is the thin blocking client the tests, the
benchmark, and the CI smoke job drive it with.
"""

from repro.service.jobs import Job, JobQueueFull
from repro.service.server import ReproService, ServiceThread
from repro.service.client import ServiceClient, ServiceError

__all__ = ["Job", "JobQueueFull", "ReproService", "ServiceClient",
           "ServiceError", "ServiceThread"]
