"""Regression-cause analysis (Sec. 4).

Given three differencing results —

* ``A`` (*suspected differences*): original vs new version on a regressing
  test case,
* ``B`` (*expected differences*): original vs new version on a correct
  test case (differences due to ordinary program evolution),
* ``C`` (*regression differences*): new version, correct vs regressing
  test case (differences due to the differing inputs),

the analysis computes ``D = (A - B) ∩ C``, the differences highly likely
to be responsible for the regression.  For regressions caused by *removal*
of code (where C cannot contain the cause), the variant
``D = (A - B) - C`` applies.

The paper performs this set algebra on differences; difference identity
across trace pairs is by event key (the ``=e`` key, which is stable across
versions since it contains no locations).  Candidates are reported as the
difference *sequences* of A containing at least one surviving difference,
which matches how the paper counts |A|, |B|, |C| and |D| in Table 2
(sequence counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.diffs import DiffResult, DifferenceSequence
from repro.core.entries import TraceEntry

#: D = (A - B) ∩ C — the default.
MODE_INTERSECT = "intersect"
#: D = (A - B) - C — for regressions caused by code removal.
MODE_SUBTRACT = "subtract"


def diff_key_pool(result: DiffResult) -> set:
    """All ``=e`` keys of differing entries, both sides."""
    left, right = side_key_pools(result)
    return left | right


def side_key_pools(result: DiffResult) -> tuple[set, set]:
    """(left-side keys, right-side keys) of differing entries."""
    left = {entry.key() for entry in result.left_diff_entries()}
    right = {entry.key() for entry in result.right_diff_entries()}
    return left, right


@dataclass(slots=True)
class CandidateSequence:
    """A difference sequence of A that survived the analysis, with the
    specific entries that placed it in D.

    Identical sequences (same signature — e.g. one per loop iteration
    over the same wrong value) are grouped into a single candidate;
    ``occurrences`` counts how many times the sequence appeared.
    """

    sequence: DifferenceSequence
    surviving_left: list[TraceEntry]
    surviving_right: list[TraceEntry]
    occurrences: int = 1

    def surviving_count(self) -> int:
        return len(self.surviving_left) + len(self.surviving_right)

    def brief(self) -> str:
        lines = [self.sequence.brief()]
        times = f" (x{self.occurrences})" if self.occurrences > 1 else ""
        lines.append(f"  => {self.surviving_count()} difference(s) survive "
                     f"the A/B/C analysis{times}")
        return "\n".join(lines)


@dataclass(slots=True)
class RegressionReport:
    """Outcome of the regression-cause analysis."""

    mode: str
    candidates: list[CandidateSequence]
    #: |A|, |B|, |C|, |D| measured in difference sequences (Table 2).
    size_a: int = 0
    size_b: int = 0
    size_c: int = 0

    @property
    def size_d(self) -> int:
        return len(self.candidates)

    def set_sizes(self) -> dict[str, int]:
        return {"A": self.size_a, "B": self.size_b, "C": self.size_c,
                "D": self.size_d}

    def surviving_differences(self) -> int:
        return sum(c.surviving_count() for c in self.candidates)

    def render(self, limit: int = 10) -> str:
        sizes = self.set_sizes()
        lines = [
            f"regression analysis (mode={self.mode}): "
            f"|A|={sizes['A']} |B|={sizes['B']} |C|={sizes['C']} "
            f"-> |D|={sizes['D']} candidate sequence(s)",
        ]
        for candidate in self.candidates[:limit]:
            lines.append(candidate.brief())
        if len(self.candidates) > limit:
            lines.append(f"... ({len(self.candidates) - limit} more)")
        return "\n".join(lines)


def analyze_regression(suspected: DiffResult,
                       expected: DiffResult | None = None,
                       regression: DiffResult | None = None,
                       mode: str = MODE_INTERSECT) -> RegressionReport:
    """Run the Sec. 4 analysis.

    ``expected`` (B) and ``regression`` (C) are optional, modelling the
    paper's unattended-build configuration (Sec. 5.1 runs without the
    manually-crafted similar test case); omitting them skips the
    corresponding filtering step.
    """
    if mode not in (MODE_INTERSECT, MODE_SUBTRACT):
        raise ValueError(f"unknown analysis mode: {mode!r}")
    b_left: set = set()
    b_right: set = set()
    if expected is not None:
        b_left, b_right = side_key_pools(expected)
    c_pool: set | None = None
    if regression is not None:
        c_pool = diff_key_pool(regression)

    def survives(key: tuple, b_pool: set) -> bool:
        if key in b_pool:
            return False
        if c_pool is None:
            return True
        if mode == MODE_INTERSECT:
            return key in c_pool
        return key not in c_pool

    candidates: list[CandidateSequence] = []
    by_signature: dict[tuple, CandidateSequence] = {}
    for sequence in suspected.sequences:
        left = [e for e in sequence.left_entries if survives(e.key(), b_left)]
        right = [e for e in sequence.right_entries
                 if survives(e.key(), b_right)]
        if not left and not right:
            continue
        signature = sequence.signature()
        existing = by_signature.get(signature)
        if existing is not None:
            # One higher-level semantic difference repeated (e.g. per
            # loop iteration): report it once.
            existing.occurrences += 1
            continue
        candidate = CandidateSequence(
            sequence=sequence, surviving_left=left, surviving_right=right)
        by_signature[signature] = candidate
        candidates.append(candidate)
    return RegressionReport(
        mode=mode,
        candidates=candidates,
        size_a=len(suspected.sequences),
        size_b=len(expected.sequences) if expected is not None else 0,
        size_c=len(regression.sequences) if regression is not None else 0,
    )


@dataclass(slots=True)
class TruthEvaluation:
    """Accuracy of a report against a known ground-truth cause."""

    true_positives: int
    false_positives: int
    false_negatives: int
    matched_sequences: list[CandidateSequence] = field(default_factory=list)


def evaluate_against_truth(report: RegressionReport,
                           is_cause_entry: Callable[[TraceEntry], bool],
                           expected_cause_marks: int = 1) -> TruthEvaluation:
    """Score a report against a ground-truth predicate over entries.

    A candidate sequence is a true positive if any of its surviving
    entries satisfies ``is_cause_entry``; otherwise it is a false
    positive.  False negatives count how many of the
    ``expected_cause_marks`` distinct cause manifestations were *not*
    covered by any true-positive sequence.
    """
    matched: list[CandidateSequence] = []
    false_positives = 0
    for candidate in report.candidates:
        entries = candidate.surviving_left + candidate.surviving_right
        if any(is_cause_entry(e) for e in entries):
            matched.append(candidate)
        else:
            false_positives += 1
    true_positives = len(matched)
    false_negatives = max(0, expected_cause_marks - true_positives)
    return TruthEvaluation(
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
        matched_sequences=matched,
    )
