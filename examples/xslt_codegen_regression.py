"""The Xalan-1725 analogue: a regression in dynamically generated code.

The stylesheet compiler (2.5.2) emits one attribute op too few for
literal result elements — wrong *generated code*.  Nothing misbehaves
until the generated ops execute against a document, the paper's extreme
separation of cause and effect.  Static tools cannot connect the two;
the trace differencing follows the compiled code as a value from the
compiler into the VM.

Run with::

    python examples/xslt_codegen_regression.py
"""

from repro.api import Session
from repro.capture import TraceFilter
from repro.core.regression import evaluate_against_truth
from repro.workloads.minixslt.engine import XsltEngine
from repro.workloads.minixslt.scenario import (CORRECT_INPUT_1725,
                                               REGRESSING_INPUT_1725,
                                               STYLESHEET_1725,
                                               is_cause_entry_1725,
                                               run_1725_new, run_1725_old)


def main():
    stylesheet, document = REGRESSING_INPUT_1725
    print("old (2.5.1):", run_1725_old(REGRESSING_INPUT_1725)[:70])
    print("new (2.5.2):", run_1725_new(REGRESSING_INPUT_1725)[:70])
    print('   (the role="data" attribute vanished)')
    print()

    # Show the cause at the codegen level: the compiled ops differ.
    for version in ("2.5.1", "2.5.2"):
        templates = XsltEngine(version).compile(STYLESHEET_1725)
        item_template = next(t for t in templates if t.match == "item")
        ops = ", ".join(op.kind for op in item_template.ops)
        print(f"{version} compiled <item> template: {ops}")
    print()

    session = Session(filter=TraceFilter(
        include_modules=("repro.workloads.minixslt",)))
    outcome = session.run_scenario(
        run_1725_old, run_1725_new,
        regressing_input=REGRESSING_INPUT_1725,
        correct_input=CORRECT_INPUT_1725)

    sizes = outcome.report.set_sizes()
    print(f"A={sizes['A']} B={sizes['B']} C={sizes['C']} -> "
          f"D={sizes['D']} candidate sequences")
    evaluation = evaluate_against_truth(outcome.report,
                                        is_cause_entry_1725)
    print(f"{evaluation.true_positives} candidates trace the missing "
          f"attribute from LiteralElementCompiler.translate through the "
          f"VM; {evaluation.false_positives} false positives; "
          f"{evaluation.false_negatives} missed")
    print()
    # The first candidate shows the compiler producing the wrong code.
    print(outcome.report.candidates[0].brief())


if __name__ == "__main__":
    main()
