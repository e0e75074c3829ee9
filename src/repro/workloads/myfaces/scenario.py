"""Test cases for the motivating example (Sec. 4.2).

* the *regressing* test case: a ``text/html`` document containing control
  characters in ``[1, 31]`` — converted by the old version, passed through
  verbatim by the new one;
* the *correct* test case: a different document type, so the conversion is
  not applied in either version (same recipe as the paper: "a test that
  used a different document type, so conversion of the characters was not
  applied in both versions").

Both versions are driven through the same ``run_request`` entry point so
traces differ only where the program versions differ, mirroring how the
paper traces one application entry point across versions.
"""

from __future__ import annotations

from functools import partial

from repro.workloads.myfaces.common import HttpRequest, Logger
from repro.workloads.myfaces import version_new, version_old

#: A body with a BEL (7) and a VT (11) control character.
REGRESSING_REQUEST = ("text/html", "hello\x07world\x0b!")
#: Same body, non-HTML document type.
CORRECT_REQUEST = ("text/plain", "hello\x07world\x0b!")


def run_request(version_module, request_spec: tuple[str, str]) -> str:
    """One request through the given version's pipeline."""
    document_type, body = request_spec
    logger = Logger("app")
    processor = version_module.ServletProcessor(logger)
    response = processor.process(HttpRequest(document_type, body))
    return response.output


#: Version entry points taking just the request (for scenario drivers).
run_old_version = partial(run_request, version_old)
run_new_version = partial(run_request, version_new)


def regression_manifests() -> bool:
    """True when the two versions disagree on the regressing input
    (sanity check used by tests and benches)."""
    return (run_old_version(REGRESSING_REQUEST)
            != run_new_version(REGRESSING_REQUEST))


def is_cause_entry(entry) -> bool:
    """Ground truth for FP/FN scoring: entries where the wrong lower
    bound (1) is set, read, or flows into the converter, plus the
    BinaryCharFilter construction that supplies it."""
    event = entry.event
    if event.kind == "init":
        if event.class_name == "BinaryCharFilter":
            return True
        if event.class_name == "NumericEntityUtil":
            return any(a.serialization == 1 for a in event.args)
    if event.kind in ("set", "get"):
        field = event.field
        if field in ("min_char_range", "MIN_SAFE"):
            return event.value.serialization == 1
    if event.kind == "call" and event.method.endswith(
            "NumericEntityUtil.__init__"):
        return any(a.serialization == 1 for a in event.args)
    return False
