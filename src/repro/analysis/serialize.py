"""Trace serialisation: one binary format (v3), written and read.

RPRISM offloads trace segments to disk while the program runs and
analyses them offline; this module provides the on-disk and on-wire
format.  Every write — :func:`save_trace` for files,
:func:`dumps_trace_bytes` for shared-memory segments and service
uploads — emits **format v3**, a length-prefixed binary columnar
framing built for cheap decode::

    b"RPV3" | u32 header length | header JSON | sections...

The header carries a section table (name, byte length) so readers seek
past anything they do not need in O(1).  The key table ships as *one*
JSON array (a single ``json.loads`` instead of k line parses), the
``eid``/``tid``/``kid`` entry columns as packed little-endian arrays
that :func:`loads_trace` re-exposes as zero-copy ``memoryview`` casts
over the input buffer (a shared-memory segment included), and entry
rows as fixed-layout records — an event-kind byte plus four u32
operand slots per entry — indexing deduplicated string/value-rep pools;
only the rare rich payloads (Fork/End ancestry) ride a side JSON blob.
Decode is **lazy**: ``loads_trace`` returns a
:class:`~repro.core.traces.Trace` whose entries materialise on demand
(:class:`~repro.core.traces.LazyEntrySequence`), so diff paths that
only touch the interned id columns never pay :func:`_untuple` — or any
per-entry work — at all.  The decoder also serves the sequence's
column hooks (eids, thread ids, view keys, object/thread metadata)
from the int columns and pools, so a views diff of a loaded trace
builds only the entries that differ.  The header also records the
trace's :meth:`~repro.core.traces.Trace.content_digest`, computed at
encode time, so digest-keyed consumers (diff cache, wire memos,
dedup) never force materialisation either.

Nothing else is read.  The text formats (v1/v2) and the flat store
layout that versions up to repro 2.0.0 wrote fail with the one error
:func:`reject_legacy` raises; 2.0.0's ``repro store migrate`` converts
them.

JSON has no tuples, so serialisations (which are nested tuples in memory,
for hashability) are tagged lists on disk and recursively turned back
into tuples on read — round-tripping preserves ``=e`` keys exactly.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from typing import Iterator, NoReturn

from repro.core.entries import TraceEntry
from repro.core.events import (Call, End, FieldGet, FieldSet, Fork, Init,
                               Return, StackFrame)
from repro.core.keytable import KeyTable
from repro.core.traces import LazyEntrySequence, Trace
from repro.core.values import ValueRep
from repro.core.views import ViewType


def reject_legacy(what: str) -> NoReturn:
    """Raise the one error for input this version no longer reads:
    text traces (formats 1 and 2) and flat store directories.
    ``what`` says which input it is."""
    raise ValueError(
        f"{what}; repro reads only binary v3 traces in sharded stores. "
        f"Convert legacy text traces (formats 1 and 2) and flat stores "
        f"with `repro store migrate` from repro 2.0.0, the last version "
        f"that reads them")


def _rep_to_json(rep: ValueRep | None):
    if rep is None:
        return None
    return {"c": rep.class_name, "s": _plain(rep.serialization),
            "l": rep.location, "q": rep.creation_seq}


def _plain(value):
    """Tuples -> lists and bytes -> hex (JSON-encodable), tagged so they
    round-trip."""
    if isinstance(value, tuple):
        return {"t": [_plain(v) for v in value]}
    if isinstance(value, bytes):
        return {"b": value.hex()}
    return value


def _untuple(value):
    if isinstance(value, dict):
        if set(value) == {"t"}:
            return tuple(_untuple(v) for v in value["t"])
        if set(value) == {"b"}:
            return bytes.fromhex(value["b"])
    return value


def _rep_from_json(data) -> ValueRep | None:
    if data is None:
        return None
    return ValueRep(class_name=data["c"], serialization=_untuple(data["s"]),
                    location=data["l"], creation_seq=data["q"])


def _frame_to_json(frame: StackFrame):
    return {"m": frame.method, "from": _rep_to_json(frame.caller),
            "to": _rep_to_json(frame.callee)}


def _frame_from_json(data) -> StackFrame:
    return StackFrame(method=data["m"], caller=_rep_from_json(data["from"]),
                      callee=_rep_from_json(data["to"]))


def _ancestry_to_json(ancestry):
    return [[_frame_to_json(f) for f in stack] for stack in ancestry]


def _ancestry_from_json(data):
    return tuple(tuple(_frame_from_json(f) for f in stack)
                 for stack in data)


def _local_key_column(trace: Trace) -> tuple[list, array]:
    """The trace's ``=e`` keys as a file-local table + id column.

    A carried key table may be shared with other traces (a session's or
    a whole pair's), so its ids are remapped to a compact first-use
    ordering; without one, the keys are built from the entries once.
    """
    if trace.key_ids is not None and trace.key_table is not None:
        source_keys = trace.key_table.keys()
        remap: dict[int, int] = {}
        local_keys: list = []
        column = array("I")
        for kid in trace.key_ids:
            lid = remap.get(kid)
            if lid is None:
                lid = remap[kid] = len(local_keys)
                local_keys.append(source_keys[kid])
            column.append(lid)
        return local_keys, column
    table = KeyTable()
    column = table.intern_entries(trace.entries)
    return table.keys(), column


# ---------------------------------------------------------------------------
# Format v3: binary columnar framing with lazy decode.

_V3_MAGIC = b"RPV3"
#: Sentinel u32 for "no value rep" (``active``/``obj``/``value`` None).
_V3_NONE = 0xFFFFFFFF
#: Fixed section order; readers seek by the header's section table, so
#: the order is a writer convention, not a reader assumption — except
#: ``keys`` first, which lets :func:`read_key_table` stop early.
_V3_SECTIONS = ("keys", "eids", "tids", "kids", "meth", "actv", "kind",
                "ops", "args", "strs", "reps", "rich")
_V3_KIND_CODES = {"get": 0, "set": 1, "call": 2, "return": 3,
                  "init": 4, "fork": 5, "end": 6}

_IS_LE = sys.byteorder == "little"


def _json_compact(value) -> bytes:
    """Deterministic JSON bytes (compact separators, sorted keys) — the
    same trace always encodes to the same v3 bytes."""
    return json.dumps(value, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def _le_bytes(arr: array) -> bytes:
    """An ``array`` as little-endian bytes regardless of host order."""
    if not _IS_LE:
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _column(buf: memoryview, typecode: str):
    """A packed little-endian section as an indexable int column.

    Little-endian hosts (the overwhelmingly common case) get a zero-copy
    ``memoryview.cast`` over the input buffer; big-endian hosts fall
    back to one ``array`` copy + byteswap.
    """
    itemsize = array(typecode).itemsize
    if len(buf) % itemsize:
        raise ValueError(
            f"misaligned v3 column: {len(buf)} byte(s) is not a "
            f"multiple of the {itemsize}-byte item size")
    if _IS_LE:
        return buf.cast(typecode)
    column = array(typecode)
    column.frombytes(buf)
    column.byteswap()
    return column


#: Little-endian int64 bytes of 0, 1, 2, ...: the eid section of every
#: captured trace, so one prefix compare (a memcmp) tells a contiguous
#: eid column.  Grown to the longest column seen.
_IOTA = b""


def _eid_column(buf: memoryview):
    """The eid section as a column: ``range(n)`` when it holds the
    positions (every capture), so readers of the eid column locate
    entries by arithmetic; the packed ints otherwise."""
    global _IOTA
    column = _column(buf, "q")
    count = len(column)
    if not count or column[0] != 0 or column[-1] != count - 1:
        return column
    iota = _IOTA
    if len(iota) < len(buf):
        iota = _IOTA = _le_bytes(array("q", range(count)))
    return range(count) if iota.startswith(buf) else column


def dumps_trace_bytes(trace: Trace,
                      extra_metadata: dict | None = None) -> bytes:
    """The trace as one v3 frame (see the module docstring for layout)
    — *the* encoder: :func:`save_trace` writes its bytes to files, and
    shipping (shared-memory segments, service uploads) sends them as
    they are; :func:`loads_trace` accepts them back directly.
    ``extra_metadata`` is merged over the trace's own in the header."""
    metadata = dict(trace.metadata)
    if extra_metadata:
        metadata.update(extra_metadata)
    # Digest first: on a lazy v3-loaded trace this is already seeded
    # from its header, and on a captured trace it is usually cached —
    # either way the header carries it so *readers* never materialise
    # entries just to key a cache.
    digest = trace.content_digest()
    local_keys, kid_column = _local_key_column(trace)

    strs: dict[str, int] = {}
    reps: dict[ValueRep, int] = {}
    rich: list = []
    eids = array("q")
    tids = array("i")
    meth = array("I")
    actv = array("I")
    kinds = bytearray()
    ops = array("I")
    args_pool = array("I")

    def sid(text: str) -> int:
        out = strs.get(text)
        if out is None:
            out = strs[text] = len(strs)
        return out

    def rid(rep: ValueRep | None) -> int:
        if rep is None:
            return _V3_NONE
        out = reps.get(rep)
        if out is None:
            out = reps[rep] = len(reps)
        return out

    def arg_span(event_args) -> tuple[int, int]:
        offset = len(args_pool)
        args_pool.extend(rid(a) for a in event_args)
        return offset, len(event_args)

    for entry in trace.entries:
        eids.append(entry.eid)
        tids.append(entry.tid)
        meth.append(sid(entry.method))
        actv.append(rid(entry.active))
        event = entry.event
        kind = event.kind
        code = _V3_KIND_CODES.get(kind)
        if code is None:
            raise TypeError(f"unserialisable event: {event!r}")
        kinds.append(code)
        if kind == "get" or kind == "set":
            ops.extend((rid(event.obj), sid(event.field),
                        rid(event.value), 0))
        elif kind == "call":
            offset, count = arg_span(event.args)
            ops.extend((rid(event.obj), sid(event.method), offset, count))
        elif kind == "return":
            ops.extend((rid(event.obj), sid(event.method),
                        rid(event.value), 0))
        elif kind == "init":
            offset, count = arg_span(event.args)
            ops.extend((sid(event.class_name), rid(event.obj),
                        offset, count))
        else:  # fork / end — rare rich payload rides the side JSON blob
            ops.extend((len(rich), 0, 0, 0))
            tid = event.child_tid if kind == "fork" else event.tid
            rich.append({"tid": tid, "s": _ancestry_to_json(event.ancestry)})

    blobs = {
        "keys": _json_compact([_plain(key) for key in local_keys]),
        "eids": _le_bytes(eids),
        "tids": _le_bytes(tids),
        "kids": _le_bytes(kid_column),
        "meth": _le_bytes(meth),
        "actv": _le_bytes(actv),
        "kind": bytes(kinds),
        "ops": _le_bytes(ops),
        "args": _le_bytes(args_pool),
        "strs": _json_compact(list(strs)),
        "reps": _json_compact(
            [[r.class_name, _plain(r.serialization), r.location,
              r.creation_seq] for r in reps]),
        "rich": _json_compact(rich),
    }
    header = {"format": 3, "name": trace.name, "entries": len(eids),
              "keys": len(local_keys), "metadata": metadata,
              "digest": digest,
              "sections": [[name, len(blobs[name])]
                           for name in _V3_SECTIONS]}
    header_blob = _json_compact(header)
    return b"".join(
        [_V3_MAGIC, len(header_blob).to_bytes(4, "little"), header_blob]
        + [blobs[name] for name in _V3_SECTIONS])


def _parse_v3_header(blob, path: Path) -> dict:
    try:
        header = json.loads(bytes(blob))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise ValueError(f"corrupt v3 header in {path}") from None
    if not isinstance(header, dict) or header.get("format") != 3:
        raise ValueError(f"corrupt v3 header in {path}: {header!r}")
    sections = header.get("sections")
    if not isinstance(sections, list) or not all(
            isinstance(item, list) and len(item) == 2
            and isinstance(item[0], str) and isinstance(item[1], int)
            and item[1] >= 0 for item in sections):
        raise ValueError(f"corrupt v3 section table in {path}")
    return header


def _parse_v3_frame(view: memoryview,
                    path: Path) -> tuple[dict, dict[str, memoryview]]:
    """Split one v3 frame into (header, section-name -> buffer view).

    Strict about shortfall (truncated frames raise), lenient about
    trailing bytes — shared-memory segments round payloads up to page
    size.
    """
    if len(view) < 8 or bytes(view[:4]) != _V3_MAGIC:
        raise ValueError(f"truncated v3 trace: {path} "
                         f"({len(view)} byte(s), no frame prelude)")
    header_len = int.from_bytes(view[4:8], "little")
    if 8 + header_len > len(view):
        raise ValueError(
            f"truncated v3 trace: {path} (header wants {header_len} "
            f"byte(s), {len(view) - 8} available)")
    header = _parse_v3_header(view[8:8 + header_len], path)
    sections: dict[str, memoryview] = {}
    offset = 8 + header_len
    for name, length in header["sections"]:
        end = offset + length
        if end > len(view):
            raise ValueError(
                f"truncated v3 trace: {path} (section {name!r} wants "
                f"{length} byte(s), {len(view) - offset} left)")
        sections[name] = view[offset:end]
        offset = end
    return header, sections


def _v3_key_table(header: dict, blob, path: Path) -> KeyTable:
    expected = header.get("keys", 0)
    try:
        raw = json.loads(bytes(blob))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise ValueError(f"corrupt key table in {path}") from None
    if not isinstance(raw, list) or len(raw) != expected:
        raise ValueError(
            f"truncated key table in trace file: {path} (header claims "
            f"{expected} key(s), section carries "
            f"{len(raw) if isinstance(raw, list) else '?'})")
    table = KeyTable()
    for key in raw:
        table.intern(_untuple(key))
    if len(table) != expected:
        # Duplicate keys would shift every id after them (intern
        # dedupes).
        raise ValueError(f"corrupt key table: {expected} key(s) but "
                         f"{len(table)} distinct key(s)")
    return table


class _V3Decoder:
    """On-demand entry construction over one parsed v3 frame.

    The int columns are zero-copy views (:func:`_column`); the JSON
    pools (strings, value reps, rich Fork/End payloads) parse lazily on
    the first entry materialisation, so loads that only touch columns
    never run the parses at all.  Concurrent first-parses are a benign
    race — both threads produce equal pools and one wins the slot.
    """

    __slots__ = ("eids", "tids", "kids", "meth", "actv", "kinds", "ops",
                 "args", "_strs_blob", "_reps_blob", "_rich_blob",
                 "_strs", "_reps", "_rich")

    def __init__(self, sections: dict[str, memoryview]):
        self.eids = _eid_column(sections["eids"])
        self.tids = _column(sections["tids"], "i")
        self.kids = _column(sections["kids"], "I")
        self.meth = _column(sections["meth"], "I")
        self.actv = _column(sections["actv"], "I")
        self.kinds = sections["kind"]
        self.ops = _column(sections["ops"], "I")
        self.args = _column(sections["args"], "I")
        self._strs_blob = sections["strs"]
        self._reps_blob = sections["reps"]
        self._rich_blob = sections["rich"]
        self._strs = None
        self._reps = None
        self._rich = None

    def strings(self) -> list:
        strs = self._strs
        if strs is None:
            strs = self._strs = json.loads(bytes(self._strs_blob))
        return strs

    def rep_pool(self) -> list:
        reps = self._reps
        if reps is None:
            reps = self._reps = [
                ValueRep(class_name=c, serialization=_untuple(s),
                         location=l, creation_seq=q)
                for c, s, l, q in json.loads(bytes(self._reps_blob))]
        return reps

    def rich_pool(self) -> list:
        rich = self._rich
        if rich is None:
            rich = self._rich = json.loads(bytes(self._rich_blob))
        return rich

    def _rep(self, rep_id: int) -> ValueRep | None:
        if rep_id == _V3_NONE:
            return None
        return self.rep_pool()[rep_id]

    # -- column hooks (see LazyEntrySequence) ------------------------------

    def _target_ids(self) -> list[int]:
        """The target rep id of each entry: the object operand of a
        field or method event, the created object of an init, none for
        fork/end."""
        ops = self.ops
        return [obj if code < 4 else created if code == 4 else _V3_NONE
                for code, obj, created in zip(self.kinds, ops[0::4],
                                              ops[1::4])]

    def view_keys(self, vtype: ViewType) -> list | None:
        if vtype is ViewType.THREAD:
            return self.tids
        if vtype is ViewType.METHOD:
            strs = self.strings()
            return [strs[sid] for sid in self.meth]
        if vtype is ViewType.ACTIVE_OBJECT:
            column = self.actv
        elif vtype is ViewType.TARGET_OBJECT:
            column = self._target_ids()
        else:
            return None
        locations = [rep.location for rep in self.rep_pool()]
        return [None if rid == _V3_NONE else locations[rid]
                for rid in column]

    def metadata_rows(self, positions):
        eids, kinds, ops = self.eids, self.kinds, self.ops
        for position in positions:
            code = kinds[position]
            fork = None
            if code < 4:
                target = self._rep(ops[4 * position])
            elif code == 4:
                target = self._rep(ops[4 * position + 1])
            else:
                target = None
                if code == 5:
                    payload = self.rich_pool()[ops[4 * position]]
                    fork = (payload["tid"],
                            _ancestry_from_json(payload["s"]))
            yield eids[position], code == 4, target, fork

    def entry(self, position: int) -> TraceEntry:
        strs = self.strings()
        code = self.kinds[position]
        base = 4 * position
        a, b, c, d = self.ops[base:base + 4]
        if code == 0:
            event = FieldGet(obj=self._rep(a), field=strs[b],
                             value=self._rep(c))
        elif code == 1:
            event = FieldSet(obj=self._rep(a), field=strs[b],
                             value=self._rep(c))
        elif code == 2:
            event = Call(obj=self._rep(a), method=strs[b],
                         args=tuple(self._rep(r)
                                    for r in self.args[c:c + d]))
        elif code == 3:
            event = Return(obj=self._rep(a), method=strs[b],
                           value=self._rep(c))
        elif code == 4:
            event = Init(class_name=strs[a],
                         args=tuple(self._rep(r)
                                    for r in self.args[c:c + d]),
                         obj=self._rep(b))
        elif code == 5 or code == 6:
            payload = self.rich_pool()[a]
            ancestry = _ancestry_from_json(payload["s"])
            if code == 5:
                event = Fork(child_tid=payload["tid"], ancestry=ancestry)
            else:
                event = End(tid=payload["tid"], ancestry=ancestry)
        else:
            raise ValueError(f"unknown v3 event kind code: {code}")
        return TraceEntry(eid=self.eids[position],
                          tid=self.tids[position],
                          method=strs[self.meth[position]],
                          active=self._rep(self.actv[position]),
                          event=event)


def _load_v3(view: memoryview, path: Path, keepalive=None) -> Trace:
    """Build a lazy :class:`Trace` over one v3 frame.

    ``keepalive`` pins whatever owns the backing buffer (a mapped
    shared-memory segment) on the returned trace's entry sequence.
    """
    header, sections = _parse_v3_frame(view, path)
    count = header.get("entries", 0)
    missing = [name for name in _V3_SECTIONS if name not in sections]
    if missing:
        raise ValueError(f"corrupt v3 section table in {path}: "
                         f"missing {', '.join(missing)}")
    decoder = _V3Decoder(sections)
    for name, column, width in (("eids", decoder.eids, 1),
                                ("tids", decoder.tids, 1),
                                ("kids", decoder.kids, 1),
                                ("meth", decoder.meth, 1),
                                ("actv", decoder.actv, 1),
                                ("kind", decoder.kinds, 1),
                                ("ops", decoder.ops, 4)):
        if len(column) != count * width:
            raise ValueError(
                f"corrupt v3 trace: {path} (column {name!r} carries "
                f"{len(column)} item(s) for {count} entries)")
    key_count = header.get("keys", 0)
    if count and max(decoder.kids) >= key_count:
        raise ValueError(
            f"corrupt trace row: kid {max(decoder.kids)} outside the "
            f"{key_count}-entry key table")
    entries = LazyEntrySequence(decoder, count, owner=keepalive)
    # The key table itself is also lazy (a thunk Trace materialises on
    # first access): a load that never consults =e keys — a capture
    # outcome cached by digest, a store listing — never parses the key
    # section.  The kid-range check above used the header count, so a
    # lying section still fails loudly when touched.
    keys_blob = sections["keys"]
    trace = Trace(entries, name=header.get("name", ""),
                  metadata=header.get("metadata") or {},
                  key_table=lambda: _v3_key_table(header, keys_blob,
                                                  path),
                  key_ids=decoder.kids)
    digest = header.get("digest")
    if isinstance(digest, str) and digest:
        # Seeding from the header keeps digest-keyed consumers (diff
        # cache, wire memos) from materialising a single entry; the
        # encoder computed it from the real content, so bit-identity
        # with an eager load is preserved.
        trace._content_digest = digest
    return trace


# ---------------------------------------------------------------------------
# Public read/write API.


def save_trace(trace: Trace, path: str | Path,
               extra_metadata: dict | None = None) -> None:
    """Write a trace file (binary v3).

    ``extra_metadata`` is merged over the trace's own metadata in the
    header (the :class:`repro.api.store.TraceStore` records provenance
    this way without mutating the in-memory trace).  The frame is
    encoded before the file is opened, so a failing encode never
    truncates an existing file.
    """
    Path(path).write_bytes(dumps_trace_bytes(trace, extra_metadata))


def loads_trace(data: "bytes | bytearray | memoryview",
                keepalive=None) -> Trace:
    """Inverse of :func:`dumps_trace_bytes`.

    The payload decodes **lazily and zero-copy**: the returned trace's
    columns are ``memoryview`` casts over ``data`` itself (no
    intermediate copy — a mapped shared-memory segment decodes in
    place) and entries materialise on demand.  ``keepalive`` pins the
    buffer's owner (e.g. the mapped segment) for the trace's lifetime;
    plain ``bytes`` payloads need none (the views hold the object).
    Text (``str``, or bytes without the v3 magic) is refused with
    :func:`reject_legacy`'s error.
    """
    if not isinstance(data, str):
        view = memoryview(data)
        if len(view) >= 4 and bytes(view[:4]) == _V3_MAGIC:
            return _load_v3(view, Path("<wire>"), keepalive)
    _reject_not_v3("<wire>")


def _reject_not_v3(path) -> NoReturn:
    reject_legacy(f"{path} is not a v3 trace (no {_V3_MAGIC!r} magic)")


def _read_v3_header(handle, path: Path) -> dict:
    """The header of the v3 file open in ``handle``, which is left
    just past it."""
    if handle.read(4) != _V3_MAGIC:
        _reject_not_v3(path)
    raw = handle.read(4)
    if len(raw) < 4:
        raise ValueError(f"truncated v3 trace: {path} "
                         f"(no header length)")
    header_len = int.from_bytes(raw, "little")
    blob = handle.read(header_len)
    if len(blob) < header_len:
        raise ValueError(
            f"truncated v3 trace: {path} (header wants "
            f"{header_len} byte(s), {len(blob)} available)")
    return _parse_v3_header(blob, path)


def read_header(path: str | Path) -> dict:
    """Read just the header of a trace file (cheap listing): the O(1)
    frame prelude."""
    path = Path(path)
    with path.open("rb") as handle:
        return _read_v3_header(handle, path)


def read_key_table(path: str | Path) -> tuple[dict, KeyTable]:
    """Stream (header, key table) without materialising entries.

    The table is the first section after the frame prelude, so this
    seeks straight to it and never reads entry columns.
    """
    path = Path(path)
    with path.open("rb") as probe:
        header = _read_v3_header(probe, path)
        keys_len = None
        for name, size in header["sections"]:
            if name == "keys":
                keys_len = size
                break
            probe.seek(size, 1)  # seek past earlier sections
        if keys_len is None:
            raise ValueError(f"corrupt v3 section table in {path}: "
                             f"missing keys")
        keys_blob = probe.read(keys_len)
        if len(keys_blob) < keys_len:
            raise ValueError(
                f"truncated v3 trace: {path} (key table wants "
                f"{keys_len} byte(s))")
        return header, _v3_key_table(header, keys_blob, path)


def load_trace(path: str | Path, data: bytes | None = None) -> Trace:
    """Read a trace file.

    The trace comes back carrying its key table and id column, so a
    later interned diff never recomputes an ``=e`` key, and decodes
    lazily (see :func:`loads_trace`).  ``data`` is the file's bytes
    when the caller has already read them (the store reads them from
    the handle it stat'ed); ``path`` then only names the file in
    errors.
    """
    path = Path(path)
    if data is None:
        data = path.read_bytes()
    if data[:4] == _V3_MAGIC:
        return _load_v3(memoryview(data), path)
    _reject_not_v3(path)


def iter_entries(path: str | Path) -> Iterator[TraceEntry]:
    """Stream entries from a trace file without loading it whole.

    Decoding is lazy anyway, so iteration builds one entry at a time
    over the mapped columns (the file bytes are held for the duration
    of the walk, but no entry list ever exists at once).
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != _V3_MAGIC:
        _reject_not_v3(path)
    header, sections = _parse_v3_frame(memoryview(data), path)
    decoder = _V3Decoder(sections)
    for position in range(header.get("entries", 0)):
        yield decoder.entry(position)
