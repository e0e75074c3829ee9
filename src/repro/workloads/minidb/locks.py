"""Lock manager and the background lock daemon.

The lock manager hands out shared (read) and exclusive (write) table
locks; the daemon is a background thread — Derby runs several — that
audits lock activity on demand.  Its thread view exercises the paper's
multi-thread correlation: daemon events are unrelated to the regression
and must be filtered out by the analysis (the Derby case study notes
"proper analysis and elimination of behavior on other threads not related
to the regression"; its four false positives were lock-use differences).
"""

from __future__ import annotations

import queue
import threading

from repro.capture import traced


@traced
class TableLock:
    """One table's lock state (simplified shared/exclusive counting)."""

    def __init__(self, table_name: str):
        self.table_name = table_name
        self.shared_count = 0
        self.exclusive = False
        self.grants = 0
        self._mutex = threading.Lock()

    def acquire_shared(self) -> None:
        with self._mutex:
            self.shared_count = self.shared_count + 1
            self.grants = self.grants + 1

    def release_shared(self) -> None:
        with self._mutex:
            self.shared_count = self.shared_count - 1

    def acquire_exclusive(self) -> None:
        with self._mutex:
            self.exclusive = True
            self.grants = self.grants + 1

    def release_exclusive(self) -> None:
        with self._mutex:
            self.exclusive = False

    def __repr__(self):
        return f"TableLock({self.table_name})"


@traced
class LockManager:
    """Table-level lock registry."""

    def __init__(self):
        self._locks: dict[str, TableLock] = {}
        self._mutex = threading.Lock()

    def lock_for(self, table_name: str) -> TableLock:
        with self._mutex:
            lock = self._locks.get(table_name)
            if lock is None:
                lock = TableLock(table_name)
                self._locks[table_name] = lock
            return lock

    def read_lock(self, table_name: str) -> TableLock:
        lock = self.lock_for(table_name)
        lock.acquire_shared()
        return lock

    def write_lock(self, table_name: str) -> TableLock:
        lock = self.lock_for(table_name)
        lock.acquire_exclusive()
        return lock

    def total_grants(self) -> int:
        with self._mutex:
            return sum(lock.grants for lock in self._locks.values())

    def table_names(self) -> list[str]:
        with self._mutex:
            return list(self._locks)

    def __repr__(self):
        return f"LockManager({len(self._locks)} locks)"


@traced
class LockDaemon:
    """Background auditor thread.

    Ticks are posted explicitly (one per statement) instead of
    wall-clock polling so traces stay deterministic across runs; the
    daemon audits the lock table on each tick and exits on the sentinel.
    """

    def __init__(self, manager: LockManager):
        self.manager = manager
        self.audits = 0
        self.last_grant_total = 0
        self._ticks: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self.run, name="lock-daemon")
        self._thread.start()

    def run(self) -> None:
        while True:
            tick = self._ticks.get()
            try:
                if tick is None:
                    return
                self.audit()
            finally:
                self._ticks.task_done()

    def audit(self) -> None:
        self.audits = self.audits + 1
        self.last_grant_total = self.manager.total_grants()

    def tick(self) -> None:
        # Wait for the audit: a tick that raced the next statement
        # would interleave the daemon's events differently per run.
        self._ticks.put(True)
        self._ticks.join()

    def stop(self) -> None:
        self._ticks.put(None)
        if self._thread is not None:
            self._thread.join()

    def __repr__(self):
        return f"LockDaemon(audits={self.audits})"
