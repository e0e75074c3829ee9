"""Regenerate ``perfbench/expected.json``, the benchmark's output oracle.

    python3 perfbench/make_expected.py [--out PATH]

For every Table 1 case study it records the regression-set size D,
the false positives/negatives of ``evaluate_against_truth``, and a
digest of the three diffs' ``result_signature``s.  Derby-1633 gets
invariants only: its lock daemon's interleaving shifts its diff counts
between runs.  Run it only when the program's results are meant to
change, and review the difference.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import EXPECTED_FILE, SRC, digest_signatures


def analysis_entry(report, evaluation, diffs) -> dict:
    from repro.core.diffs import result_signature
    return {"D": report.size_d, "FP": evaluation.false_positives,
            "FN": evaluation.false_negatives,
            "signature": digest_signatures(
                [result_signature(d) for d in diffs])}


def table1_entries() -> dict:
    import table1_live
    from repro.core.regression import evaluate_against_truth
    cases = table1_live.case_inputs()
    session_cls = table1_live._session_class()
    entries = {}
    for name in table1_live.CASES:
        if name == "Derby-1633":
            entries[name] = {"invariant_only": True, "min_d": 1,
                             "max_fn": 1}
            continue
        spec = cases[name][0]
        result, _outputs = table1_live.run_case(
            session_cls, cases[name], name)
        evaluation = evaluate_against_truth(
            result.report, spec.is_cause_entry, spec.cause_marks)
        entries[name] = analysis_entry(result.report, evaluation,
                                       result.diffs())
        print(name, entries[name], file=sys.stderr, flush=True)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(EXPECTED_FILE))
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    document = {"table1": table1_entries()}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
