"""What a diff-cache hit costs, and that its signature is unchanged.

A hit on a stored pair must do work proportional to the result's
differences, not to the traces' length:

* it builds at most ``num_diffs()`` entries of the two v3-loaded traces
  (memory and disk tier alike), counted by wrapping the v3 decoder's
  entry builder — and none at all on a repeat through the same store
  handle, whose loads return the traces the first hit built;
* it never builds the pair's ``=e`` key table (``KeyTable.for_pair``
  runs on the miss only);
* it still credits the cold compare totals to a caller's counter.

``result_signature`` is built straight from the result; it must equal
the wire round-trip formula it replaced, value and JSON text, on every
kind of eid column a trace can carry.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis import serialize
from repro.api import (DiffCache, Session, TraceStore, available_engines,
                       get_engine)
from repro.capture import TraceFilter, trace_call
from repro.core.diffs import (RESULT_WIRE_VERSION, DifferenceSequence,
                              result_from_wire, result_signature,
                              result_to_wire)
from repro.core.entries import EOF
from repro.core.keytable import KeyTable
from repro.core.lcs import OpCounter
from repro.core.traces import Trace
from repro.workloads.harness import SCENARIOS

MYFACES_MODULES = ("repro.workloads.myfaces",)


def request_body(seed: int, length: int = 24) -> tuple[str, str]:
    """A seeded HTML request body with one BEL character in the middle
    (the shape of the service benchmark's requests)."""
    rng = random.Random(seed)
    chars = [rng.choice("abcdefghij klmno") for _ in range(length)]
    chars[length // 2] = "\x07"
    return ("text/html", "".join(chars))


def myfaces_pair(seed: int = 3) -> tuple[Trace, Trace]:
    from repro.workloads.myfaces import version_new, version_old
    from repro.workloads.myfaces.scenario import run_request

    session = Session().with_filter(include_modules=MYFACES_MODULES)
    request = request_body(seed)
    return tuple(session.capture(run_request, module, request).trace
                 for module in (version_old, version_new))


def xalan_pair() -> tuple[Trace, Trace]:
    spec = SCENARIOS["Xalan-1802"]
    trace_filter = TraceFilter(include_modules=spec.filter_modules)
    return tuple(trace_call(runner, spec.regressing_input,
                            filter=trace_filter).trace
                 for runner in (spec.run_old, spec.run_new))


@pytest.fixture(scope="module")
def pairs():
    return {"myfaces": myfaces_pair(), "xalan-1802": xalan_pair()}


@pytest.fixture()
def builds(monkeypatch):
    """Positions the v3 decoder builds entries at, in call order."""
    built = []
    original = serialize._V3Decoder.entry

    def counting_entry(self, position):
        built.append(position)
        return original(self, position)

    monkeypatch.setattr(serialize._V3Decoder, "entry", counting_entry)
    return built


@pytest.fixture()
def pair_tables(monkeypatch):
    """Every ``KeyTable.for_pair`` call, as ``(left, right)``."""
    calls = []
    original = KeyTable.for_pair

    def counting_for_pair(left, right):
        calls.append((left, right))
        return original(left, right)

    monkeypatch.setattr(KeyTable, "for_pair",
                        staticmethod(counting_for_pair))
    return calls


# -- the cost of a hit --------------------------------------------------------

class TestHitCost:
    @pytest.mark.parametrize("name", ["myfaces", "xalan-1802"])
    def test_hits_build_only_differing_entries(self, pairs, name,
                                               tmp_path, builds,
                                               pair_tables):
        store = TraceStore(tmp_path / "store")
        for side, trace in zip(("old", "new"), pairs[name]):
            store.save(trace, key=f"{name}/{side}")
        keys = (f"{name}/old", f"{name}/new")
        cache_dir = tmp_path / "diffcache"

        cold_counter = OpCounter()
        cold = Session(store=store, cache=cache_dir).diff(
            *keys, counter=cold_counter)
        assert len(pair_tables) == 1, "a miss builds the pair's table"
        assert cold_counter.total > 0
        limit = cold.num_diffs()
        signature = result_signature(cold)

        # A fresh store handle decodes the files again, so its hits
        # build some entries; a repeat on the same handle reuses the
        # warm traces and builds none.
        cache = DiffCache(cache_dir)
        fresh = Session(store=TraceStore(store.root), cache=cache)
        steps = (("disk", fresh, (1, 0)),
                 ("memory", Session(store=TraceStore(store.root),
                                    cache=cache), (1, 1)),
                 ("repeat", fresh, (1, 2)))
        for tier, warm, expected_hits in steps:
            del builds[:], pair_tables[:]
            counter = OpCounter()
            hit = warm.diff(*keys, counter=counter)
            stats = cache.stats()
            assert (stats.hits_disk, stats.hits_memory) == expected_hits
            assert result_signature(hit) == signature, tier
            if tier == "repeat":
                assert builds == [], tier
            else:
                assert 0 < len(builds) <= limit, tier
            assert pair_tables == [], tier
            assert (counter.compares, counter.charged) == \
                (cold_counter.compares, cold_counter.charged), tier

    def test_uncached_diffs_still_build_the_table(self, pairs,
                                                  pair_tables):
        left, right = pairs["myfaces"]
        Session().diff(left, right)
        assert pair_tables == [(left, right)]

    def test_v3_loads_carry_a_range_eid_column(self, pairs):
        left, _ = pairs["xalan-1802"]
        loaded = serialize.loads_trace(serialize.dumps_trace_bytes(left))
        assert loaded.eid_column() == range(len(left))
        assert loaded[3000:].eid_column() == range(3000, len(left))
        assert loaded.entries.materialised() == 0

    def test_v3_loads_keep_other_eid_columns(self, pairs):
        # First and last eid as in a capture, but two swapped between.
        entries = list(pairs["myfaces"][0])
        entries[1], entries[2] = entries[2], entries[1]
        loaded = serialize.loads_trace(
            serialize.dumps_trace_bytes(Trace(entries)))
        assert not isinstance(loaded.eid_column(), range)
        assert list(loaded.eid_column()) == [e.eid for e in entries]


# -- result_signature ---------------------------------------------------------

def wire_signature(result) -> tuple:
    """The formula ``result_signature`` had before it read the result
    directly: a round trip through the wire form."""
    wire = result_to_wire(result)
    wire.pop("seconds")
    return (tuple(sorted(wire.pop("similar_left"))),
            tuple(sorted(wire.pop("similar_right"))),
            tuple(tuple(p) for p in wire.pop("match_pairs")),
            tuple(tuple(p) for p in wire.pop("anchor_pairs")),
            tuple((s["kind"], tuple(s["left"]), tuple(s["right"]))
                  for s in wire.pop("sequences")),
            tuple(sorted(wire.pop("counter").items())),
            tuple(sorted(wire.items())))


def signature_text(signature: tuple) -> str:
    return json.dumps(signature, sort_keys=True, default=list)


def assert_signature_unchanged(result) -> None:
    reference = wire_signature(result)
    assert result_signature(result) == reference
    assert signature_text(result_signature(result)) == \
        signature_text(reference)
    back = result_from_wire(result_to_wire(result), result.left,
                            result.right)
    assert result_signature(back) == reference


class TestResultSignature:
    @pytest.mark.parametrize("engine", available_engines())
    def test_every_builtin_engine(self, pairs, engine):
        result = get_engine(engine).diff(*pairs["myfaces"])
        assert result.num_diffs() > 0
        assert_signature_unchanged(result)

    @pytest.mark.parametrize("cut", ["tail", "strided"])
    def test_sliced_pairs(self, pairs, cut):
        part = slice(3000, None) if cut == "tail" else slice(None, None, 7)
        left, right = (trace[part] for trace in pairs["xalan-1802"])
        if cut == "strided":
            assert not isinstance(left.eid_column(), range)
        assert_signature_unchanged(get_engine("views").diff(left, right))

    def test_list_backed_traces(self, pairs):
        left, right = (Trace(list(trace)) for trace in pairs["myfaces"])
        assert_signature_unchanged(get_engine("views").diff(left, right))

    def test_eof_padded_result(self, pairs):
        result = get_engine("views").diff(*pairs["myfaces"])
        first = result.sequences[0]
        result.sequences[0] = DifferenceSequence(
            kind="modify", left_entries=first.left_entries + [EOF],
            right_entries=first.right_entries + [EOF, EOF])
        assert_signature_unchanged(result)
        back = result_from_wire(result_to_wire(result), result.left,
                                result.right)
        assert back.sequences[0].right_entries[-2:] == [EOF, EOF]

    def test_views_result_with_fig13_anchors(self, pairs):
        # A views result with Fig. 13's anchors: the pairs the
        # secondary-view exploration found.
        result = get_engine("views").diff(*pairs["xalan-1802"])
        assert result.anchor_pairs
        assert_signature_unchanged(result)

    def test_shape(self, pairs):
        signature = result_signature(get_engine("dp").diff(
            *pairs["myfaces"]))
        assert len(signature) == 7
        assert signature[-1][-1] == ("version", RESULT_WIRE_VERSION)
