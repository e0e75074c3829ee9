"""The diff kernel: the bitvector kernel against the scalar oracle,
engine wiring, cache-key neutrality, and the CLI surface.

The kernels themselves are checked here, value for value, on int and
tuple keys and on both sides of each size cutoff below which
``bitvector`` hands over to the scalar loop.  Whole algorithms are
checked against the oracle in ``test_lcs_agreement.py``.
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.cli import main
from repro.analysis.serialize import save_trace
from repro.cache.diffcache import canonical_config
from repro.core.diffs import result_identity
from repro.core.kernels import bitvector, scalar
from repro.core.kernels.bitvector import _ROW_CUTOFF, _SCAN_CUTOFF, SCAN_CHUNK
from repro.core.lcs import OpCounter
from repro.core.view_diff import ViewDiffConfig, view_diff

from helpers import myfaces_trace, scalar_kernels, simple_trace

#: Key makers: dense interned ids, and raw ``=e``-style tuples.
KEY_KINDS = {
    "int": lambda k: k,
    "tuple": lambda k: (k % 3, k),
}

#: Sequence lengths around the scan cutoff and the slice chunk.
SCAN_LIMITS = sorted({0, 1, _SCAN_CUTOFF - 1, _SCAN_CUTOFF,
                      _SCAN_CUTOFF + 1, SCAN_CHUNK - 1, SCAN_CHUNK,
                      SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 3})


def _mutated(base: list, flips, make) -> list:
    out = list(base)
    for position in flips:
        out[position] = make(-1)
    return out


class TestBitvectorAgainstScalar:
    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lengths_row(self, kind, data):
        make = KEY_KINDS[kind]
        alphabet = st.integers(0, 5).map(make)
        a = data.draw(st.lists(alphabet, max_size=48))
        b = data.draw(st.lists(alphabet, max_size=48))
        assert bitvector.lengths_row(a, b) == scalar.lengths_row(a, b)

    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    @pytest.mark.parametrize("shape", [
        (1, _ROW_CUTOFF - 1), (1, _ROW_CUTOFF), (_ROW_CUTOFF, 1),
        (15, 17), (16, 16), (17, 16), (70, 90)])
    def test_lengths_row_around_cutoff(self, kind, shape):
        make = KEY_KINDS[kind]
        n, m = shape
        a = [make((7 * i) % 5) for i in range(n)]
        b = [make((3 * j) % 4) for j in range(m)]
        assert bitvector.lengths_row(a, b) == scalar.lengths_row(a, b)

    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    @pytest.mark.parametrize("limit", SCAN_LIMITS)
    def test_scans_stop_where_scalar_stops(self, kind, limit):
        make = KEY_KINDS[kind]
        size = limit + 2
        base = [make(k) for k in range(size)]
        for stop in sorted({0, limit // 2, max(limit - 1, 0), limit}):
            b = _mutated(base, [stop], make)
            assert bitvector.common_run(base, b, 0, 0, limit) == \
                scalar.common_run(base, b, 0, 0, limit)
            back = _mutated(base, [size - 1 - stop], make)
            assert bitvector.common_run_back(base, back, size, size,
                                             limit) == \
                scalar.common_run_back(base, back, size, size, limit)

    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_scans_at_random_offsets(self, kind, data):
        make = KEY_KINDS[kind]
        size = data.draw(st.integers(0, 3 * SCAN_CHUNK))
        shift = data.draw(st.integers(0, 5))
        base = [make(k) for k in range(size)]
        flips = data.draw(st.sets(st.integers(0, max(size - 1, 0)),
                                  max_size=4)) if size else set()
        b = [make(-2)] * shift + _mutated(base, flips, make)
        i = data.draw(st.integers(0, size))
        limit = data.draw(st.integers(0, size - i))
        assert bitvector.common_run(base, b, i, i + shift, limit) == \
            scalar.common_run(base, b, i, i + shift, limit)
        i = data.draw(st.integers(0, size))
        limit = data.draw(st.integers(0, i))
        assert bitvector.common_run_back(base, b, i, i + shift, limit) == \
            scalar.common_run_back(base, b, i, i + shift, limit)


class TestKernelNeutrality:
    def test_kernel_not_part_of_cache_key(self):
        assert "kernel" not in json.loads(canonical_config(None))
        assert "kernel" not in {field.name for field
                                in dataclasses.fields(ViewDiffConfig)}

    def test_view_diff_bit_identical_across_kernels(self):
        # The lock-step scans run the bitvector scans, on interned ids
        # and on key tuples; swapping in the scalar loops changes
        # nothing, compare counts included.  The long pair has equal runs beyond the
        # scan cutoff and the slice chunk.
        values = [k % 50 for k in range(3 * SCAN_CHUNK)]
        changed = list(values)
        changed[SCAN_CHUNK + 7] = -1
        del changed[2 * SCAN_CHUNK]
        pairs = [(myfaces_trace(min_range=32, name="old"),
                  myfaces_trace(min_range=1, new_version=True, name="new")),
                 (simple_trace(values, name="old"),
                  simple_trace(changed, name="new"))]
        for (left, right), config in itertools.product(
                pairs, (ViewDiffConfig(), ViewDiffConfig(interned=False))):
            signatures = []
            for oracle in (False, True):
                counter = OpCounter()
                if oracle:
                    with scalar_kernels() as calls:
                        result = view_diff(left, right, counter=counter,
                                           config=config)
                    assert calls["common_run"] > 0
                else:
                    result = view_diff(left, right, counter=counter,
                                       config=config)
                signatures.append((result_identity(result),
                                   counter.compares, counter.charged))
            assert signatures[0] == signatures[1], config


class TestNoNumpy:
    def test_imports_leave_numpy_out(self):
        # Importing numpy adds start-up time and memory to every
        # ``repro serve`` process; nothing on these paths may pull it in.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        code = ("import sys, repro, repro.analysis.cli, "
                "repro.service.server; print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestCli:
    @pytest.fixture()
    def trace_files(self, tmp_path):
        old = myfaces_trace(min_range=32, name="old")
        new = myfaces_trace(min_range=1, new_version=True, name="new")
        old_path = tmp_path / "old.jsonl"
        new_path = tmp_path / "new.jsonl"
        save_trace(old, old_path)
        save_trace(new, new_path)
        return str(old_path), str(new_path)

    def test_engines_lists_no_kernel_line(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "hirschberg" in out
        assert "kernel" not in out

    def test_diff_rejects_unknown_kernel(self, trace_files):
        # ``kernel`` is no longer a knob: any value gets the CLI's
        # unknown-key error, not a traceback.
        old_path, new_path = trace_files
        for value in ("stdlib", "gpu"):
            with pytest.raises(SystemExit) as exc:
                main(["diff", old_path, new_path,
                      "--config", f"kernel={value}"])
            assert str(exc.value).startswith(
                "unknown view-diff knob 'kernel'")
