"""``table1-live``: the four Table 1 case studies, captured live.

Closed loop, one client.  Each op is one case study (Daikon,
Xalan-1725, Xalan-1802, Derby-1633) through a fresh serial
:class:`~repro.api.Session`'s ``run_scenario``: four captures, three
views diffs and the Sec. 4 analysis.  A batch runs each case study once
in an order drawn from the seed.  The batch count is fixed by
``--seconds`` over :data:`BATCH_S`, so every run does the same work and
fills about ``--seconds`` at reference speed.

Every set-up and op is timed between two speed probes and reported in
reference seconds (see :class:`common.SpeedProbe`).  Each case study
contributes its median op time over the run, so one disturbed op moves
nothing.  The four case studies differ in kind and size, so no
percentile is taken across their ops: the batch wall time is the sum of
the four medians, the p50 figure the median of them (the middle two
case studies' mean) and the p95 figure the slowest of them.  Goodput is
derived: checked ops per second of batch wall time.

Derby-1633 runs the bundled queries over the first 24 orders and 8
customers of the Table 1 harness's database, so its op takes about as
long as the others' and a run holds several batches.
"""

from __future__ import annotations

import time

from common import (SETUPS, SpeedProbe, Tally, batch_orders, check_analysis,
                    check_versions, digest_signatures, log, median,
                    program_output, self_peak_rss_mb)

CASES = ("Daikon", "Xalan-1725", "Xalan-1802", "Derby-1633")
#: The case study run once during set-up to warm imports and caches.
WARMUP_CASE = "Xalan-1725"
#: Derby database population (the Table 1 harness uses 150 / 40).
DERBY_ORDER_ROWS = 24
DERBY_CUSTOMER_ROWS = 8
#: A batch's duration at reference speed (sets the batch count).
BATCH_S = 4.5


def derby_setup_statements() -> list[str]:
    """The Derby-1633 schema and the first orders and customers of the
    bundled scenario's population."""
    from repro.workloads.minidb.scenario import ORDER_ROWS, SETUP_STATEMENTS
    customers = 2 + ORDER_ROWS
    return (SETUP_STATEMENTS[:2 + DERBY_ORDER_ROWS]
            + SETUP_STATEMENTS[customers:customers + DERBY_CUSTOMER_ROWS])


def case_inputs() -> dict[str, tuple]:
    """case name -> (spec, regressing input, correct input)."""
    from repro.workloads.harness import SCENARIOS
    from repro.workloads.minidb import scenario as derby
    cases = {}
    for name in CASES:
        spec = SCENARIOS[name]
        regressing, correct = spec.regressing_input, spec.correct_input
        if name == "Derby-1633":
            setup = derby_setup_statements()
            regressing = (setup, derby.REGRESSING_QUERIES)
            correct = (setup, derby.CORRECT_QUERIES)
        cases[name] = (spec, regressing, correct)
    return cases


def _session_class():
    from repro.api import Session

    class OutcomeSession(Session):
        """A plain session that keeps its capture outcomes, so the
        program's own outputs can be checked after the op."""

        outcomes: list = []

        def capture_batch(self, tasks):
            self.outcomes = super().capture_batch(tasks)
            return self.outcomes

    return OutcomeSession


def run_case(session_cls, case: tuple, name: str):
    """One op: ``run_scenario`` on a fresh session.  Returns the result
    and the program's outputs per role."""
    spec, regressing, correct = case
    session = session_cls().with_filter(
        include_modules=spec.filter_modules).with_mode(spec.mode)
    result = session.run_scenario(spec.run_old, spec.run_new, regressing,
                                  correct, name=name)
    return result, {o.name: program_output(o) for o in session.outcomes}


def check_case(name: str, case: tuple, result, outputs: dict,
               expected: dict) -> list[str]:
    from repro.core.diffs import result_signature
    from repro.core.regression import evaluate_against_truth
    spec = case[0]
    problems = [f"{name}: {p}" for p in check_versions(outputs)]
    evaluation = evaluate_against_truth(result.report, spec.is_cause_entry,
                                        spec.cause_marks)
    signature = digest_signatures(
        [result_signature(d) for d in result.diffs()])
    return problems + check_analysis(name, result.report, evaluation,
                                     signature,
                                     expected["table1"].get(name))


def untraced_seconds(case: tuple) -> float:
    """The four captured runs of a case study without the tracer."""
    spec, regressing, correct = case
    started = time.perf_counter()
    for runner, payload in ((spec.run_old, regressing),
                            (spec.run_new, regressing),
                            (spec.run_old, correct),
                            (spec.run_new, correct)):
        try:
            runner(payload)
        except Exception:  # noqa: BLE001 - regressing runs may raise
            pass
    return time.perf_counter() - started


def run(args, expected: dict, tally: Tally):
    """Returns ``(end-to-end metrics, None)``, or ``(None, per-layer
    metrics)`` for a traced run.  A traced run times every batch twice,
    untraced and then traced, for the overhead, and runs half as many
    batches."""
    names = [WARMUP_CASE] if args.tiny else list(CASES)
    session_cls = _session_class()
    probe = SpeedProbe()

    setup_times = []
    for _ in range(1 if args.tiny else SETUPS):
        # Build the inputs and analyse the smallest case study once, so
        # imports and lazy initialisation are paid before timing.
        seconds, _raw, cases = probe.timed(case_inputs)
        warm_s, _raw, problems = probe.timed(
            run_case, session_cls, cases[WARMUP_CASE], WARMUP_CASE,
            keep=lambda done: check_case(WARMUP_CASE, cases[WARMUP_CASE],
                                         *done, expected))
        setup_times.append(seconds + warm_s)
        if problems:
            tally.record(problems)

    recorder = None
    passes = (False,)
    if args.trace:
        from layers import Recorder
        recorder = Recorder()
        passes = (False, True)
    batches = max(1, round(args.seconds / BATCH_S / len(passes)))
    op_times = {name: [] for name in names}      # the reported pass
    untraced_times = {name: [] for name in names}
    measured_s = 0.0
    good = 0
    orders = batch_orders(args.seed, names)
    for _ in range(batches):
        order = next(orders)
        for traced in passes:
            for name in order:
                def check(done, name=name):
                    return check_case(name, cases[name], *done, expected)

                if traced:
                    with recorder:
                        seconds, raw, problems = probe.timed(
                            recorder.op, run_case, session_cls,
                            cases[name], name,
                            keep=lambda op: check(op[1]))
                else:
                    seconds, raw, problems = probe.timed(
                        run_case, session_cls, cases[name], name,
                        keep=check)
                (op_times if traced or recorder is None
                 else untraced_times)[name].append(seconds)
                measured_s += raw
                good += tally.record(problems)
    log(f"table1-live: set-up {median(setup_times):.3f}s (median of "
        f"{len(setup_times)}); {batches} batch(es); op times "
        f"{ {k: [round(t, 3) for t in v] for k, v in op_times.items()} } "
        f"(reference seconds); ops took {measured_s:.3f} measured seconds "
        f"in all, {probe.scale():.3f} reference seconds per second")

    medians = [median(times) for times in op_times.values()]
    wall = sum(medians)
    if recorder is None:
        return {
            "setup_s": median(setup_times),
            "wall_s": wall,
            "latency_p50_ms": 1000.0 * median(medians),
            "latency_p95_ms": 1000.0 * max(medians),
            "goodput_rps": good / tally.attempted * len(medians) / wall,
            "peak_rss_mb": self_peak_rss_mb(),
        }, None
    # Each traced batch captured every case study once.
    untraced = sum(median([untraced_seconds(cases[name])
                           for _ in range(3)]) for name in names)
    plain = sum(median(times) for times in untraced_times.values())
    return None, recorder.metrics(untraced_capture_s=untraced * batches,
                                  overhead_frac=wall / plain - 1.0)
