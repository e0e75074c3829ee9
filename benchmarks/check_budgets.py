#!/usr/bin/env python
"""Performance-budget guard: fresh ``results/*.json`` vs. committed
baselines.

Each bench that writes a JSON document to ``results/`` exposes a few
*key ratios* — higher-is-better numbers (speedups, compare
reductions) that summarize the win the bench exists to demonstrate.
This script re-reads the fresh working-tree documents, extracts those
ratios, and compares them against the committed baseline (by default
``git show HEAD:results/<name>``), failing when a fresh ratio drops
more than ``--tolerance`` (default 25%) below its baseline.

In CI the ``kernels`` and ``serialize`` budgets are *blocking* — their
key ratios compare two modes measured within the same run on the same
machine, so runner noise cancels out.  The remaining benches stay
non-blocking (``continue-on-error``): a red check there is a prompt to
look, not a gate.  Locally::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
    python benchmarks/check_budgets.py

Absolute wall-clock numbers are deliberately *not* budgeted — they
track machine speed, not code quality.  Ratios measured within one
run on one machine are the stable signal.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _row(document: dict, name: str) -> dict:
    for row in document.get("rows", ()):
        if row.get("row") == name:
            return row
    return {}


def _kernels(document: dict) -> dict[str, float]:
    ratios = document.get("ratios", {})
    return {f"row_speedup:{backend}": value
            for backend, value in ratios.get("row_speedup", {}).items()}


def _anchors(document: dict) -> dict[str, float]:
    out = {}
    for inner in ("views", "optimized"):
        row = _row(document, f"reduction:{inner}")
        if "reduction" in row:
            out[f"reduction:{inner}"] = row["reduction"]
    return out


def _service(document: dict) -> dict[str, float]:
    out = {}
    if "warm_speedup" in document:
        out["warm_speedup"] = document["warm_speedup"]
    return out


def _serialize(document: dict) -> dict[str, float]:
    """Wire-format ratios: v3 decode speedups over v2 (lazy/eager) and
    the bytes-on-wire shrink — all within-run, so they gate."""
    out = {f"speedup:{mode}": value
           for mode, value in document.get("speedups", {}).items()}
    if "bytes_ratio" in document:
        out["bytes_ratio"] = document["bytes_ratio"]
    return out


def _static(document: dict) -> dict[str, float]:
    """Prediction accuracy per scenario (recall/precision are already
    in [0, 1]; a drop past tolerance means the predictor got worse)."""
    out = {}
    for row in document.get("scenarios", ()):
        name = row.get("scenario")
        if not name:
            continue
        if "recall" in row:
            out[f"recall:{name}"] = row["recall"]
        if "precision" in row:
            out[f"precision:{name}"] = row["precision"]
    return out


#: results file -> key-ratio extractor (higher is better).
BUDGETS = {
    "kernels.json": _kernels,
    "anchors.json": _anchors,
    "serialize.json": _serialize,
    "service.json": _service,
    "static.json": _static,
}


def baseline_document(name: str, baseline: str) -> dict | None:
    """The committed baseline for ``results/<name>``, or None."""
    if baseline.startswith("git:"):
        rev = baseline[len("git:"):]
        proc = subprocess.run(
            ["git", "show", f"{rev}:results/{name}"],
            capture_output=True, text=True,
            cwd=RESULTS_DIR.parent)
        if proc.returncode != 0:
            return None
        text = proc.stdout
    else:
        path = Path(baseline) / name
        if not path.is_file():
            return None
        text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def check(names, baseline: str, tolerance: float) -> int:
    failures = []
    for name in names:
        fresh_path = RESULTS_DIR / name
        if not fresh_path.is_file():
            print(f"  - {name}: no fresh run (skipped)")
            continue
        base = baseline_document(name, baseline)
        if base is None:
            print(f"  - {name}: no committed baseline (skipped)")
            continue
        extract = BUDGETS[name]
        fresh_ratios = extract(json.loads(
            fresh_path.read_text(encoding="utf-8")))
        base_ratios = extract(base)
        # Only ratios present on both sides are comparable (a bench may
        # stop producing a ratio its committed baseline still holds; a
        # shrunk smoke run may drop rows entirely).
        for key in sorted(set(fresh_ratios) & set(base_ratios)):
            fresh, committed = fresh_ratios[key], base_ratios[key]
            floor = committed * (1.0 - tolerance)
            verdict = "ok" if fresh >= floor else "REGRESSED"
            print(f"  - {name} {key}: {fresh:g} vs baseline "
                  f"{committed:g} (floor {floor:g}) {verdict}")
            if fresh < floor:
                failures.append((name, key, fresh, committed))
    if failures:
        print(f"{len(failures)} budget(s) regressed by more than "
              f"{tolerance:.0%}")
        return 1
    print("all budgets within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare fresh results/*.json key ratios against "
                    "committed baselines.")
    parser.add_argument("names", nargs="*", default=None,
                        help="results file names to check "
                             "(default: all known)")
    parser.add_argument("--baseline", default="git:HEAD",
                        help="baseline source: git:<rev> or a directory "
                             "(default git:HEAD)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop (default 0.25)")
    args = parser.parse_args(argv)
    names = args.names or sorted(BUDGETS)
    unknown = [n for n in names if n not in BUDGETS]
    if unknown:
        parser.error(f"no budget defined for: {', '.join(unknown)}")
    print(f"checking budgets against {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    return check(names, args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
