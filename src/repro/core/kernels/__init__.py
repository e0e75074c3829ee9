"""Hardware-speed diff kernels over interned ``=e`` id columns.

Since the interned data layer landed, the hot loops of every LCS
algorithm and of the views lock-step scan operate on dense integer id
columns — exactly the layout word-packed bit-vector LCS (Myers/Hyyrö)
and vectorized compare loops want.  This package provides pluggable
*kernel backends* for those loops:

* ``scalar`` — the original per-cell reference loops, unchanged.
* ``stdlib`` — pure-stdlib acceleration: Hyyrö's bit-parallel LCS
  row recurrence over Python big-int bitvectors, and chunked
  list-slice equality scans (near-memcmp speed, no dependencies).
* ``numpy`` — optional, auto-detected: vectorizes the row-batch DP
  (via the ``maximum.accumulate`` prefix-max identity).  Falls back to
  ``stdlib`` loops for non-integer keys.

The full-table LCS (:func:`repro.core.lcs.lcs_dp`) is not a backend
choice: it always fills bit rows
(:func:`repro.core.kernels.bitvector.bit_rows`), and
``scalar.dp_table`` survives only as its test oracle.

The contract every backend obeys:

* **Bit-identical results.**  A kernel computes exactly the values the
  scalar loop would — same LCS lengths, same scan stop positions.
* **Compare-count transparency.**  Kernels are *pure*: they never
  touch an :class:`~repro.core.lcs.OpCounter`.  Callers credit the
  counter in bulk with exactly the compares the scalar loop would have
  counted, so cache hits, bench JSON and the paper's reported metrics
  are unchanged by backend choice.

Selection: :func:`get_backend` resolves ``None``/``"auto"`` to the
default — the ``REPRO_KERNEL`` environment variable when set, else
``numpy`` when importable, else ``stdlib``.  Requesting ``"numpy"``
where numpy is absent silently degrades to ``stdlib`` (configs stay
portable across machines; there is no hard dependency).  Unknown
names raise ``ValueError``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.core.kernels import bitvector, scalar

#: Environment variable overriding the auto-detected default backend.
KERNEL_ENV = "REPRO_KERNEL"

try:  # pragma: no cover - exercised via the numpy/no-numpy CI legs
    from repro.core.kernels import np_backend as _np_backend
except ImportError:  # pragma: no cover - numpy absent
    _np_backend = None


@dataclass(frozen=True)
class Backend:
    """One kernel backend: pure compute functions, no counters.

    ``lengths_row(a, b)`` — the final LCS length-table row, i.e.
    ``row[j] == LCS(a, b[:j])`` for ``j`` in ``0..len(b)``.

    ``common_run(a, b, i, j, limit)`` — length of the maximal equal
    run comparing ``a[i+t] == b[j+t]`` for ``t < limit``.

    ``common_run_back(a, b, i, j, limit)`` — length of the maximal
    equal run comparing ``a[i-1-t] == b[j-1-t]`` for ``t < limit``.
    """

    name: str
    lengths_row: Callable
    common_run: Callable
    common_run_back: Callable


SCALAR = Backend(
    name="scalar",
    lengths_row=scalar.lengths_row,
    common_run=scalar.common_run,
    common_run_back=scalar.common_run_back,
)

STDLIB = Backend(
    name="stdlib",
    lengths_row=bitvector.lengths_row,
    common_run=bitvector.common_run,
    common_run_back=bitvector.common_run_back,
)

NUMPY = None if _np_backend is None else Backend(
    name="numpy",
    lengths_row=_np_backend.lengths_row,
    common_run=bitvector.common_run,
    common_run_back=bitvector.common_run_back,
)

#: The bit-parallel row kernel itself, independent of backend choice —
#: the ``bitparallel`` LCS algorithm always packs bitvectors even when
#: the active backend is ``scalar``.
BITVECTOR_ROWS = STDLIB


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this interpreter, in preference order."""
    names = ["scalar", "stdlib"]
    if NUMPY is not None:
        names.append("numpy")
    return tuple(names)


def default_backend_name() -> str:
    """The active default: ``REPRO_KERNEL`` when set (and known), else
    ``numpy`` when importable, else ``stdlib``."""
    env = os.environ.get(KERNEL_ENV, "").strip()
    if env and env != "auto":
        if env not in ("scalar", "stdlib", "numpy"):
            raise ValueError(
                f"{KERNEL_ENV}={env!r} is not a kernel backend "
                f"(known: scalar, stdlib, numpy)")
        if env == "numpy" and NUMPY is None:
            return "stdlib"
        return env
    return "numpy" if NUMPY is not None else "stdlib"


def get_backend(kernel: "str | Backend | None" = None) -> Backend:
    """Resolve a kernel selection to a :class:`Backend`.

    ``None`` or ``"auto"`` selects the default
    (:func:`default_backend_name`); ``"numpy"`` degrades to ``stdlib``
    when numpy is absent; :class:`Backend` instances pass through.
    """
    if isinstance(kernel, Backend):
        return kernel
    if kernel is None or kernel == "auto":
        kernel = default_backend_name()
    if kernel == "scalar":
        return SCALAR
    if kernel == "stdlib":
        return STDLIB
    if kernel == "numpy":
        return NUMPY if NUMPY is not None else STDLIB
    raise ValueError(f"unknown kernel backend {kernel!r} "
                     f"(known: scalar, stdlib, numpy)")
