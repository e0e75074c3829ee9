"""Shared fixtures for the benchmark suite.

Expensive artefacts (the Fig. 14 bug-suite runs and the Table 1/2
scenario results) are computed once per session and shared; each bench
then times its core operation and regenerates its table/figure, writing
the rows to ``results/`` and echoing them to the terminal.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a regenerated table/figure and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


@pytest.fixture(scope="session")
def fig14_runs():
    """The quantitative assessment: all 14 injected minijs regressions."""
    from repro.workloads.minijs.scenario import run_suite
    return run_suite()


@pytest.fixture(scope="session")
def scenario_results():
    """The four real-life case studies (Tables 1 and 2)."""
    from repro.workloads.harness import run_all_scenarios
    return run_all_scenarios()


@pytest.fixture(scope="session")
def myfaces_outcome():
    """The motivating example's full analysis (Sec. 4.2)."""
    from repro.api import Session
    from repro.capture import TraceFilter
    from repro.workloads.myfaces.scenario import (CORRECT_REQUEST,
                                                  REGRESSING_REQUEST,
                                                  run_new_version,
                                                  run_old_version)
    session = Session(filter=TraceFilter(
        include_modules=("repro.workloads.myfaces",)))
    return session.run_scenario(
        run_old_version, run_new_version,
        regressing_input=REGRESSING_REQUEST,
        correct_input=CORRECT_REQUEST)
