"""The Derby-1633 analogue: a multithreaded database regression.

The new engine version's subquery-flattening optimisation aborts query
compilation for a predicated IN subquery whose inner column shadows an
outer column.  Worker threads and a background lock daemon give the
traces multiple thread views; the analysis correlates them across runs
and discards daemon activity unrelated to the regression.

Run with::

    python examples/minidb_regression.py
"""

from repro.api import Session
from repro.capture import TraceFilter
from repro.core.regression import evaluate_against_truth
from repro.workloads.minidb.scenario import (CORRECT_INPUT,
                                             REGRESSING_INPUT,
                                             REGRESSING_QUERIES,
                                             is_cause_entry,
                                             run_new_version,
                                             run_old_version)


def main():
    print("the regressing query:")
    print("   ", REGRESSING_QUERIES[3])
    print()
    old_outcomes = run_old_version(REGRESSING_INPUT)
    new_outcomes = run_new_version(REGRESSING_INPUT)
    for index, (old, new) in enumerate(zip(old_outcomes, new_outcomes)):
        marker = "  <-- regression" if old != new else ""
        print(f"query {index}: old={old[:60]}")
        print(f"         new={new[:60]}{marker}")
    print()

    session = Session(filter=TraceFilter(
        include_modules=("repro.workloads.minidb",)))
    outcome = session.run_scenario(
        run_old_version, run_new_version,
        regressing_input=REGRESSING_INPUT,
        correct_input=CORRECT_INPUT)

    trace = outcome.traces["new/regressing"]
    print(f"traces: {len(trace)} entries, "
          f"{len(trace.thread_ids())} threads "
          f"(main, query workers, lock daemon)")
    sizes = outcome.report.set_sizes()
    print(f"A={sizes['A']} B={sizes['B']} C={sizes['C']} -> "
          f"D={sizes['D']} candidate sequences")
    evaluation = evaluate_against_truth(outcome.report, is_cause_entry)
    print(f"{evaluation.true_positives} candidates point into the "
          f"flattening optimisation (the true cause); "
          f"{evaluation.false_positives} false positives")
    print()
    for candidate in outcome.report.candidates[:4]:
        print(candidate.brief())


if __name__ == "__main__":
    main()
