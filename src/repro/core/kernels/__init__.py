"""Diff kernels over interned ``=e`` id columns.

Since the interned data layer landed, the hot loops of every LCS
algorithm and of the views lock-step scan operate on dense integer id
columns — exactly the layout word-packed bit-vector LCS (Myers/Hyyrö)
wants.  There is one kernel, :mod:`~repro.core.kernels.bitvector`:
Hyyrö's bit-parallel LCS row recurrence over Python big-int
bitvectors, plus chunked list-slice equality scans.  Callers use its
``lengths_row``, ``common_run`` and ``common_run_back`` directly, and
:func:`repro.core.lcs.lcs_dp` fills its table from its ``bit_rows``.

:mod:`~repro.core.kernels.scalar` holds the original per-cell loops.
``bitvector`` falls back to them on inputs below its size cutoffs;
otherwise they are the test oracle the bitvector kernel is checked
against.

The contract the kernel obeys:

* **Pure results.**  A kernel computes exactly the values the scalar
  loop would — same LCS lengths, same scan stop positions — and never
  touches an :class:`~repro.core.lcs.OpCounter`.
* **Compares credited in bulk.**  Callers credit the counter with
  exactly the compares the scalar loop would have counted, so cache
  hits, bench JSON and the paper's reported metrics are those of the
  per-cell loops.
"""
