"""The reference per-cell kernels: the original pure-Python loops.

These are the loops every accelerated backend must reproduce
bit-for-bit — they exist as a backend of their own (``scalar``) so
the agreement suite can run any workload through both and assert
identical values, and so ``REPRO_KERNEL=scalar`` can restore the
original behaviour for debugging.  All functions are pure: counting
is the caller's job (see the package docstring).
"""

from __future__ import annotations


def lengths_row(a_keys: list, b_keys: list) -> list[int]:
    """Final row of the LCS length table (linear space):
    ``row[j] == LCS(a_keys, b_keys[:j])``."""
    m = len(b_keys)
    prev = [0] * (m + 1)
    curr = [0] * (m + 1)
    for ai in a_keys:
        curr[0] = 0
        for j, bk in enumerate(b_keys, 1):
            if ai == bk:
                curr[j] = prev[j - 1] + 1
            else:
                up = prev[j]
                left = curr[j - 1]
                curr[j] = up if up >= left else left
        prev, curr = curr, prev
    return prev


def dp_table(a_keys: list, b_keys: list) -> list[list[int]]:
    """The full ``(n+1) x (m+1)`` LCS length table: the oracle that
    :func:`repro.core.lcs.lcs_dp`'s bit rows are tested against (no
    backend fills full tables)."""
    n, m = len(a_keys), len(b_keys)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row = table[i]
        prev = table[i - 1]
        ai = a_keys[i - 1]
        for j, bk in enumerate(b_keys, 1):
            if ai == bk:
                row[j] = prev[j - 1] + 1
            else:
                up = prev[j]
                left = row[j - 1]
                row[j] = up if up >= left else left
    return table


def common_run(a_keys: list, b_keys: list, i: int, j: int,
               limit: int) -> int:
    """Length of the equal run ``a[i+t] == b[j+t]`` for ``t < limit``."""
    t = 0
    while t < limit:
        if a_keys[i + t] != b_keys[j + t]:
            break
        t += 1
    return t


def common_run_back(a_keys: list, b_keys: list, i: int, j: int,
                    limit: int) -> int:
    """Length of the equal run ``a[i-1-t] == b[j-1-t]`` for
    ``t < limit``."""
    t = 0
    while t < limit:
        if a_keys[i - 1 - t] != b_keys[j - 1 - t]:
            break
        t += 1
    return t
