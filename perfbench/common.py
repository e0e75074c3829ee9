"""Shared plumbing of the end-to-end benchmark: paths, the result line,
statistics, the expected-output oracle, and per-op bookkeeping."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_FILE = BENCH_DIR / "expected.json"
#: Scratch space for stores made during a run (removed when it ends).
WORK_ROOT = BENCH_DIR / ".work"

#: End-to-end metrics (tracing off), every workload prints all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "goodput_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: How many times each workload sets up in one run; ``setup_s`` is the
#: median, so work moved into set-up shows without one slow set-up
#: deciding the figure.
SETUPS = 5

#: How long one speed probe takes on a quiet reference machine.  Times
#: are reported in seconds at that reference speed (see SpeedProbe).
PROBE_NOMINAL_S = 0.016


def probe_kernel() -> int:
    """Fixed interpreter work: integer arithmetic, tuple keys, dict
    updates, string building and a sort, like the program's own inner
    loops but independent of its code."""
    table: dict = {}
    rows = []
    x = 1
    for i in range(12000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (i & 255, x & 1023)
        table[key] = table.get(key, 0) + 1
        rows.append((x, str(i)))
    rows.sort()
    return len(table) + len(rows)


class SpeedProbe:
    """The machine's speed over a run, from a fixed kernel run between
    the measured ops.

    On a shared host the interpreter's speed drifts by a third within
    tens of seconds, while the ratio of the program's time to this
    kernel's time holds within a few percent.  Times are therefore
    reported at reference speed: measured seconds times
    ``PROBE_NOMINAL_S`` over the probe time measured around them.
    """

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> float:
        """One probe: the faster of two kernel runs.  The cyclic
        collector is paused, or the kernel's allocations would trigger a
        collection of whatever large heap the last op left behind."""
        best = float("inf")
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(2):
                started = time.perf_counter()
                probe_kernel()
                best = min(best, time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
        self.samples.append(best)
        return best

    def scale(self) -> float:
        """Reference seconds per measured second in this run."""
        return PROBE_NOMINAL_S / statistics.median(self.samples)

    def timed(self, func, *args, keep=lambda result: result):
        """Run ``func`` and probe after it; returns ``(reference
        seconds, measured seconds, keep(result))``.  The result is
        dropped and garbage collected before the probe, so the heap the
        op leaves behind cannot move the divisor."""
        if not self.samples:
            gc.collect()
            self.measure()
        before = self.samples[-1]
        started = time.perf_counter()
        result = func(*args)
        seconds = time.perf_counter() - started
        kept = keep(result)
        del result
        gc.collect()
        after = self.measure()
        return seconds * PROBE_NOMINAL_S * 2 / (before + after), seconds, kept


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout carries only the
    result line."""
    print(message, file=sys.stderr, flush=True)


def make_workdir(label: str) -> Path:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run still uses it
    except OSError:
        pass


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation between
    closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def batch_orders(seed: int, items):
    """Endless seeded orders of a closed loop's op set, one per batch."""
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def load_expected(path: Path | None = None) -> dict:
    with open(path or EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def digest_signatures(signatures: list) -> str:
    """One hex digest over result signatures (the repo's
    ``result_signature`` tuples), stable across processes."""
    text = json.dumps(signatures, sort_keys=True, default=list)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_output(outcome) -> str:
    """What a program run printed or returned, or the error it raised:
    the program's own output, compared across versions."""
    if outcome.error is not None:
        return f"ERROR: {type(outcome.error).__name__}: {outcome.error}"
    return repr(outcome.result)


def check_versions(outputs: dict[str, str]) -> list[str]:
    """Old and new versions must differ on the regressing input and
    agree on the correct one (the premise of every scenario)."""
    problems = []
    if outputs["old/regressing"] == outputs["new/regressing"]:
        problems.append("old and new agree on the regressing input")
    if outputs["old/correct"] != outputs["new/correct"]:
        problems.append("old and new differ on the correct input")
    return problems


def check_analysis(label: str, report, evaluation, signature: str,
                   expected: dict) -> list[str]:
    """Compare one analysed scenario with its expected entry: exact
    D/FP/FN/signature, or only invariants for inputs whose traces
    depend on thread scheduling."""
    if expected is None:
        return [f"{label}: no expected entry"]
    got = {"D": report.size_d, "FP": evaluation.false_positives,
           "FN": evaluation.false_negatives}
    if expected.get("invariant_only"):
        problems = []
        if got["D"] < expected["min_d"]:
            problems.append(f"{label}: D={got['D']} < {expected['min_d']}")
        if got["FN"] > expected["max_fn"]:
            problems.append(f"{label}: FN={got['FN']} > "
                            f"{expected['max_fn']}")
        return problems
    problems = [f"{label}: {name}={got[name]}, expected {expected[name]}"
                for name in ("D", "FP", "FN") if got[name] != expected[name]]
    if signature != expected["signature"]:
        problems.append(f"{label}: result signature differs")
    return problems


@dataclass
class Tally:
    """Ops attempted and failed; each failure's reasons go to stderr."""

    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"MISMATCH {problem}")
        return not problems


def result_line(tally: Tally, metrics: dict[str, float],
                units: dict[str, str]) -> str:
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })
