"""Smart trace segmentation (Sec. 5, "Tracing of long-running programs").

RPRISM records relatively short regions of execution as individual trace
*segments*; once a segment finishes, its data is offloaded to disk and the
tracing memory reclaimed, letting long-running programs be traced within
bounded memory.  ``SegmentedTraceWriter`` reproduces that scheme on top of
the binary v3 trace format (:mod:`repro.analysis.serialize`): entries
are flushed to per-segment trace files whenever the in-memory buffer
reaches the segment size, and :func:`load_segments` reassembles the
full trace offline (legacy text segments read back too).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.serialize import iter_entries, save_trace
from repro.core.entries import TraceEntry
from repro.core.traces import Trace


class SegmentedTraceWriter:
    """Buffers entries and offloads them to disk in segments."""

    def __init__(self, directory: str | Path, name: str = "trace",
                 segment_size: int = 10_000):
        if segment_size <= 0:
            raise ValueError("segment_size must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.segment_size = segment_size
        self._buffer: list[TraceEntry] = []
        self._segment_paths: list[Path] = []
        self._total = 0
        self._closed = False

    def append(self, entry: TraceEntry) -> None:
        if self._closed:
            raise RuntimeError("writer is closed")
        self._buffer.append(entry)
        self._total += 1
        if len(self._buffer) >= self.segment_size:
            self.flush_segment()

    def extend(self, entries) -> None:
        for entry in entries:
            self.append(entry)

    def flush_segment(self) -> Path | None:
        """Offload the current buffer as one segment file."""
        if not self._buffer:
            return None
        index = len(self._segment_paths)
        path = self.directory / f"{self.name}.seg{index:05d}.jsonl"
        save_trace(Trace(self._buffer, name=self.name,
                         metadata={"segment": index}), path)
        self._segment_paths.append(path)
        self._buffer = []  # reclaim tracing memory
        return path

    def close(self) -> list[Path]:
        """Flush the tail and return all segment paths, in order."""
        if not self._closed:
            self.flush_segment()
            self._closed = True
        return list(self._segment_paths)

    @property
    def total_entries(self) -> int:
        return self._total

    @property
    def segment_paths(self) -> list[Path]:
        return list(self._segment_paths)


def load_segments(paths, name: str = "") -> Trace:
    """Reassemble a trace from segment files written by
    :class:`SegmentedTraceWriter` (offline analysis side)."""
    paths = list(paths)  # counted after the walk: a generator would be spent
    entries: list[TraceEntry] = []
    for path in paths:
        entries.extend(iter_entries(path))
    return Trace(entries, name=name, metadata={"segments": len(paths)})


def segment_trace(trace: Trace, directory: str | Path,
                  segment_size: int = 10_000) -> list[Path]:
    """Offload an in-memory trace to segment files (convenience)."""
    writer = SegmentedTraceWriter(directory, name=trace.name or "trace",
                                  segment_size=segment_size)
    writer.extend(trace.entries)
    return writer.close()
