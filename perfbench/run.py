"""End-to-end benchmark of the trace-analysis pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload table1-live --seed 1 \\
        --seconds 45 --trace 0

Workloads: ``table1-live`` (live capture + analysis of the Table 1 case
studies) and ``service-open`` (open-loop request mix against ``repro
serve``).  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
of a traced run.  Every op's output is checked against
``perfbench/expected.json`` (or an oracle computed in set-up); any
mismatch makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import signal
import sys

from common import END_TO_END, EXPECTED_FILE, SRC, Tally, load_expected, \
    log, result_line

WORKLOADS = ("table1-live", "service-open")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, print per-layer metrics")
    parser.add_argument("--expected", default=str(EXPECTED_FILE),
                        help="expected-output file (default: %(default)s)")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one set-up (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its server and removes its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no repro package under {SRC}; run from the "
            f"root of a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    expected = load_expected(args.expected)

    if args.workload == "table1-live":
        import table1_live as workload
    else:
        import service_open as workload
    tally = Tally()
    end_to_end, per_layer = workload.run(args, expected, tally)
    if args.trace:
        from layers import PER_LAYER
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
        metrics = per_layer
    else:
        units, metrics = END_TO_END, end_to_end
    for name in units:
        log(f"  {name:24} {metrics[name]:14.6f} {units[name]}")
    print(result_line(tally, metrics, units), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
