"""Self-tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/selftest.py -q

Every workload runs at a tiny size, traced and untraced; the printed
metric names must equal those declared in ``BENCHMARK.json``; a
tampered expected value or signature must be reported as a failure; a
different seed must change the generated inputs but not the metric
names; and without the program beside it the benchmark must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import service_open  # noqa: E402

WORKLOADS = ("table1-live", "service-open")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, *, seed: int = 1, trace: int = 0,
              expected: Path | None = None, cwd: Path = ROOT,
              script: Path = BENCH_DIR / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--tiny"]
    if expected is not None:
        argv += ["--expected", str(expected)]
    process = subprocess.run(argv, cwd=cwd, capture_output=True,
                             text=True, timeout=300)
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return process.returncode, result, process.stderr


def declared_names(section: str) -> list[str]:
    return [metric["name"] for metric in DECLARED[section]]


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert declared_names("end_to_end") == list(common.END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_runs_tiny(workload, trace):
    code, result, stderr = run_bench(workload, trace=trace)
    assert code == 0, stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared_names(section)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # Both workloads capture (service-open in its set-up), so both
        # measure the tracer's slowdown and the traced run's overhead.
        assert values["capture.slowdown"] > 1
        assert values["trace.overhead_frac"] != 0
    else:
        assert all(value > 0 for value in values.values())


def _tampered(tmp_path: Path, section: str, label: str, field: str):
    expected = common.load_expected()
    entry = expected[section][label]
    if field == "signature":
        entry[field] = "0" * 64
    else:
        entry[field] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    return path


@pytest.mark.parametrize("workload,section,label,field", (
    ("table1-live", "table1", "Xalan-1725", "D"),
    ("table1-live", "table1", "Xalan-1725", "FP"),
    ("table1-live", "table1", "Xalan-1725", "signature"),
))
def test_tampered_expectation_fails(tmp_path, workload, section, label,
                                    field):
    path = _tampered(tmp_path, section, label, field)
    code, result, stderr = run_bench(workload, expected=path)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "MISMATCH" in stderr


def test_tampered_service_signature_fails():
    inputs = service_open.Inputs(
        url="", hit_pairs=[("a/old", "a/new")], cold_pairs=[],
        uploads=[], signatures={("a/old", "a/new"): "right"},
        scenario_keys={}, captured=[])
    request = service_open.Request("hit", ("a/old", "a/new"), due=0.0)
    request.record = {"state": "done", "result": {"signature": "right"}}
    assert service_open._check_job(request, inputs) == ""
    request.record["result"]["signature"] = "tampered"
    assert "signature differs" in service_open._check_job(request, inputs)


def test_seed_changes_inputs_not_names():
    first = common.batch_orders(1, "abcd")
    second = common.batch_orders(2, "abcd")
    assert [next(first) for _ in range(3)] != \
        [next(second) for _ in range(3)]
    import random
    assert service_open.request_body(random.Random(1), 20) != \
        service_open.request_body(random.Random(2), 20)
    inputs = service_open.Inputs(
        url="", hit_pairs=[("h/old", "h/new")],
        cold_pairs=[("c/old", "c/new")], uploads=[("trace", "digest")],
        signatures={}, scenario_keys={}, captured=[])
    plan_a = service_open.schedule(1, 20, inputs)
    plan_b = service_open.schedule(2, 20, inputs)
    assert [p[0] for p in plan_a] != [p[0] for p in plan_b]
    assert sorted(p[1] for p in plan_a) == sorted(p[1] for p in plan_b)
    names = []
    for seed in (1, 2):
        code, result, stderr = run_bench("service-open", seed=seed)
        assert code == 0, stderr
        names.append(list(result["metrics"]))
    assert names[0] == names[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    code, result, _stderr = run_bench(
        "table1-live", cwd=tmp_path,
        script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert result is None
