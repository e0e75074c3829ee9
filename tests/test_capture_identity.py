"""Capture identity: what the weaver records, pinned entry for entry.

The weaver decides once per code object, memoises representations and
builds each ``=e`` key itself, so these tests pin its output rather
than its mechanics:

* the content digest and the key-column digest of each case-study
  role, Derby-1633's multithreaded ones included (any change to what
  capture records must update them deliberately, and say why);
* ``key_of(kid) == entry.key()`` for every entry of a Derby capture,
  one key construction per entry;
* the decision caches: equal code objects of two modules, one code
  object reached through two receiver types, user ``__repr__`` code
  run while recording, thread fork/end ancestry;
* filter prefixes on dotted-name boundaries, and modules serialised by
  name.
"""

import hashlib
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.capture import CAPTURE_LOCK, TraceFilter, trace_call, traced
from repro.capture.values import LiveRegistry, live_value_rep
from repro.core.keytable import KeyTable
from repro.workloads.harness import SCENARIOS

#: role -> (entries, content digest, key-column digest).
ROLE_DIGESTS = {
    "Daikon/old/regressing": (
        6296, "504f422011728f737616029776f9270f",
        "62477a1bdb0a6d81c801d7a434638a45"),
    "Daikon/new/regressing": (
        6290, "b7b3f3e69e7782e703becd5a8429ec7a",
        "a79fce24517a4185b5168e41f798755c"),
    "Daikon/old/correct": (
        6167, "a585d3acbdcce3ebac729c0a056dc579",
        "aed1883cae08307fafa5d29a3744ea0d"),
    "Daikon/new/correct": (
        6167, "5a69c1aeaec87d013f24693df61dc094",
        "ddba53e61f7efd124d5b749b555099b3"),
    "Xalan-1725/old/regressing": (
        3726, "bb7aaee3cc95fd75f01615f3e5286dfb",
        "035eb42856ae3971a1916753d91d3149"),
    "Xalan-1725/new/regressing": (
        3695, "fa0df5be7b1c0489559e0ef628e26cff",
        "20883aa39f5129f298ec58268f60c99a"),
    "Xalan-1725/old/correct": (
        3460, "fa8f2ef830c2a9ba0303c0d81304eb55",
        "43366cc58b5e55850c21c79a4103e014"),
    "Xalan-1725/new/correct": (
        3460, "757e974bef1f3573051186d2792e7e65",
        "0e30cb4f4c9da0402ad342db69ffce40"),
    "Xalan-1802/old/regressing": (
        4311, "a48e47c7a25dca6eebbcdf48bfcf7f8d",
        "5bc941efa1510d9bcae18da17b8d57bc"),
    "Xalan-1802/new/regressing": (
        4410, "a6b9361b4b6b4e4ca4d5d81e98380b7c",
        "e9de31197eae4067840efff38fa85ed7"),
    "Xalan-1802/old/correct": (
        4192, "3434447c2de1fcf5f560fae2d9c5b070",
        "184afc3d51348711cac5cc2faa17ebcf"),
    "Xalan-1802/new/correct": (
        4280, "32efa08d5eca1c3b4053ee006c3163ad",
        "21a4f0387b921684033447db36346deb"),
    "MC-EQ-MIXED/old": (
        7010, "d34c48c433da2b9efb97391405e6b3b0",
        "615a768e84ff01cdd7f45b3173483ecd"),
    "MC-EQ-MIXED/new": (
        6928, "3179b1d9e4022fe83c510557ebd68c52",
        "4a7337eceb9f315ace4d61700087b620"),
    "CF-SHORTCIRCUIT/old": (
        7279, "fc9fb1a3bdde5e4797d4a36a87b307c4",
        "eda99da6cf2181cec8a881558eb21a38"),
    "CF-SHORTCIRCUIT/new": (
        8567, "3503a0d7f1dd9de5e4113c66778bf41b",
        "64244fadfda1875b7d6dfe3df09c9feb"),
    "Derby-1633/old/regressing": (
        48992, "fabb0ceeb130cde575366987c5905736",
        "3abbffa20471f5db1e3182e25b566ad2"),
    "Derby-1633/new/regressing": (
        48204, "20c5b219bbde6e54d7254aa011b09007",
        "7563472eed696713592cdd1c77b2232d"),
    "Derby-1633/old/correct": (
        48335, "bad8ecae19064cb9940588173f117599",
        "858a123d0a5293ac6187069d75a5ebd9"),
    "Derby-1633/new/correct": (
        48707, "803fb3fad0fc46c6ebce808ae4e47296",
        "1db3d144024a1f79572d041c4b3de0a3"),
    "MyFaces/old/regressing": (
        232, "6b93bf8c292fa3ab7017de492a34b5c8",
        "29e161c918e5203b181fa9c830e6ffc8"),
}

#: Table 1 role -> (ScenarioSpec runner, ScenarioSpec input).
TABLE1_ROLES = {"old/regressing": ("run_old", "regressing_input"),
                "new/regressing": ("run_new", "regressing_input"),
                "old/correct": ("run_old", "correct_input"),
                "new/correct": ("run_new", "correct_input")}
#: Fig. 14 bugs pinned, with their work-loop scales.
MINIJS_BUGS = (("MC-EQ-MIXED", 5), ("CF-SHORTCIRCUIT", 3))


def role_capture(role: str):
    """``(callable, args, filter)`` capturing one pinned role."""
    case, _, rest = role.partition("/")
    if case in SCENARIOS:
        spec = SCENARIOS[case]
        runner, payload = TABLE1_ROLES[rest]
        return getattr(spec, runner), (getattr(spec, payload),), \
            TraceFilter(include_modules=spec.filter_modules)
    if case == "MyFaces":
        from repro.workloads.myfaces import version_old
        from repro.workloads.myfaces.scenario import (REGRESSING_REQUEST,
                                                      run_request)
        return run_request, (version_old, REGRESSING_REQUEST), TraceFilter(
            include_modules=("repro.workloads.myfaces",))
    from repro.workloads.minijs.bug_registry import MINIJS_BUGS as REGISTRY
    from repro.workloads.minijs.bug_registry import scaled
    from repro.workloads.minijs.engine import run_script
    from repro.workloads.minijs.scenario import MINIJS_FILTER
    source = scaled(str(REGISTRY.get(case).failing_input),
                    dict(MINIJS_BUGS)[case])
    args = (source, "old") if rest == "old" else (source, "new", case)
    return run_script, args, MINIJS_FILTER


def key_digest(trace) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for kid in trace.key_ids:
        digest.update(repr(trace.key_table.key_of(kid)).encode())
        digest.update(b";")
    return digest.hexdigest()


@pytest.mark.parametrize("role", sorted(ROLE_DIGESTS))
def test_role_trace_pinned(role):
    func, args, trace_filter = role_capture(role)
    trace = trace_call(func, *args, filter=trace_filter,
                       key_table=KeyTable(), name=role).trace
    assert (len(trace), trace.content_digest(), key_digest(trace)) \
        == ROLE_DIGESTS[role]


def test_case_study_roles_pinned_through_a_cold_thread_pool():
    """Every Table 1 role, captured from an un-prewarmed 2-worker pool
    (the shape of the service's ``--workers`` pool, whose jobs take
    turns on the capture lock), matches its pin: a pool thread spawned
    while another role's capture runs stays out of that trace."""
    roles = sorted(role for role in ROLE_DIGESTS
                   if role.partition("/")[0] in SCENARIOS)

    def capture(role):
        func, args, trace_filter = role_capture(role)
        with CAPTURE_LOCK:
            trace = trace_call(func, *args, filter=trace_filter,
                               key_table=KeyTable(), name=role).trace
        return len(trace), trace.content_digest(), key_digest(trace)

    with ThreadPoolExecutor(2) as pool:
        captured = dict(zip(roles, pool.map(capture, roles)))
    assert len(roles) == 16
    assert captured == {role: ROLE_DIGESTS[role] for role in roles}


def test_derby_keys_agree_with_event_keys():
    spec = SCENARIOS["Derby-1633"]
    table = KeyTable()
    trace = trace_call(spec.run_old, spec.regressing_input,
                       filter=TraceFilter(include_modules=spec.filter_modules),
                       key_table=table).trace
    assert len(trace.key_ids) == len(trace) > 0
    for kid, entry in zip(trace.key_ids, trace.entries):
        assert table.key_of(kid) == entry.key()
    assert table.key_constructions == len(trace)
    assert {"call", "return", "get", "set", "init", "fork", "end"} \
        <= set(trace.event_kinds())


# -- capture-local interning ---------------------------------------------------

def test_serial_capture_ids_are_entry_order_interning():
    """A capture interns into its own dict and merges at build, in order
    of first appearance: alone on its table it gets exactly the ids of
    interning the entries one by one."""
    func, args, trace_filter = role_capture("Xalan-1725/old/regressing")
    with CAPTURE_LOCK:
        trace = trace_call(func, *args, filter=trace_filter,
                           key_table=KeyTable()).trace
    assert list(trace.key_ids) == \
        list(KeyTable().intern_entries(trace.entries))


def test_foreign_interning_while_a_capture_runs():
    """Another thread interns into the session's table during the
    capture (foreign keys, and keys the capture will also record): the
    merged column still names each entry's own key, and the table
    counts one key construction per entry."""
    from repro.api import Session
    spec = SCENARIOS["Xalan-1725"]
    func, args, trace_filter = role_capture("Xalan-1725/old/regressing")
    with CAPTURE_LOCK:
        known = trace_call(func, *args, filter=trace_filter,
                           key_table=KeyTable()).trace
    known_keys = [entry.key() for entry in known.entries[::-1]]
    table = KeyTable()
    session = Session(key_table=table).with_filter(
        include_modules=spec.filter_modules)
    started, stop = threading.Event(), threading.Event()
    interned = []

    def intern_foreign():
        started.wait()
        count = 0
        while not stop.is_set():
            table.intern(("foreign", count))
            table.intern(known_keys[count % len(known_keys)])
            count += 1
        interned.append(count)

    def run(payload):
        started.set()
        return spec.run_new(payload)

    worker = threading.Thread(target=intern_foreign)
    worker.start()
    try:
        trace = session.trace_call(run, spec.regressing_input)
    finally:
        started.set()
        stop.set()
        worker.join()
    assert interned[0] > 0 and len(trace) > 0
    assert all(table.key_of(trace.key_ids[p]) == trace[p].key()
               for p in range(len(trace)))
    assert table.key_constructions == len(trace)


# -- decision caches ----------------------------------------------------------

class Base:
    def ping(self, n):
        return n + 1


class Left(Base):
    pass


class Right(Base):
    pass


def ping_both(first, second):
    return first.ping(1) + second.ping(2)


@pytest.mark.parametrize("order", ["left-first", "right-first"])
def test_exclude_methods_per_receiver_type(order):
    """``Base.ping`` is one code object; whether a call is woven
    depends on the receiver's type, whichever type calls first."""
    receivers = (Left(), Right()) if order == "left-first" \
        else (Right(), Left())
    deny = TraceFilter(include_modules=(__name__,),
                       exclude_methods=("Left.",))
    trace = trace_call(ping_both, *receivers, filter=deny).trace
    pings = [e.event.method for e in trace
             if e.event.kind in ("call", "return")
             and e.event.method.endswith(".ping")]
    assert pings == ["Right.ping", "Right.ping"]
    allow = TraceFilter(include_modules=(__name__,))
    trace = trace_call(ping_both, *receivers, filter=allow).trace
    calls = [e.event.method for e in trace if e.event.kind == "call"
             and e.event.method.endswith(".ping")]
    assert sorted(calls) == ["Left.ping", "Right.ping"]


def twin_modules():
    """Two modules whose ``touch`` functions compile to code objects
    that compare equal (same source, same line) but live apart."""
    source = "def touch(n):\n    return n * 2\n"
    twins = []
    for name in ("twins.kept", "twins.dropped"):
        module = types.ModuleType(name)
        exec(compile(source, f"<{name}>", "exec"), module.__dict__)
        twins.append(module)
    return twins


def test_decisions_follow_code_identity_not_equality():
    kept, dropped = twin_modules()
    assert kept.touch.__code__ == dropped.touch.__code__

    def both():
        return dropped.touch(1) + kept.touch(2)

    only_kept = TraceFilter(include_modules=("twins.kept",))
    trace = trace_call(both, filter=only_kept).trace
    calls = [(e.event.obj.serialization, e.event.method)
             for e in trace if e.event.kind == "call"]
    assert calls == [("twins.kept", "kept.touch")]

    trace = trace_call(both, filter=TraceFilter(
        include_modules=("twins",))).trace
    calls = [(e.event.obj.serialization, e.event.method)
             for e in trace if e.event.kind == "call"]
    assert calls == [("twins.dropped", "dropped.touch"),
                     ("twins.kept", "kept.touch")]


@traced
class Label:
    def __init__(self, text):
        self.text = text

    def shout(self):
        return self.text.upper()

    def __repr__(self):
        return f"Label({self.shout()})"


@traced
class Holder:
    def keep(self, item):
        self.item = item
        return self.item


def stash(holder, item_box):
    holder.item = item_box[0]


def test_custom_repr_run_while_recording_records_nothing():
    """A first sighting runs the object's ``__repr__`` (a traced
    method reading a traced field); none of that is recorded, whether
    the object is first seen as an argument or as a field value."""
    label = Label("hi")
    trace = trace_call(Holder().keep, label,
                       filter=TraceFilter(include_modules=(__name__,))).trace
    assert [(e.event.kind, getattr(e.event, "field", None)
             or getattr(e.event, "method", None)) for e in trace] == [
        ("call", "Holder.keep"), ("set", "item"), ("get", "item"),
        ("return", "Holder.keep"), ("end", None)]
    assert trace[0].event.args[0].serialization == "Label(HI)"

    trace = trace_call(stash, Holder(), [Label("yo")],
                       filter=TraceFilter(include_modules=(__name__,))).trace
    sets = [e for e in trace if e.event.kind == "set"]
    assert [s.event.value.serialization for s in sets] == ["Label(YO)"]
    assert not {"Label.shout", "Label.__repr__"} & trace.methods()
    assert not [e for e in trace if e.event.kind == "get"]


@traced
class Sparse:
    def __init__(self):
        self.present = 1


def probe(sparse):
    return getattr(sparse, "absent", None), hasattr(sparse, "gone"), \
        sparse.present


def test_failed_attribute_reads_record_nothing():
    """A read that raises (here ``AttributeError`` behind ``getattr``
    defaults and ``hasattr``) records no get."""
    trace = trace_call(probe, Sparse(),
                       filter=TraceFilter(include_modules=(__name__,))).trace
    gets = [(e.event.field, e.event.value.serialization) for e in trace
            if e.event.kind == "get"]
    assert gets == [("present", 1)]


@traced
class Bag(list):
    def __init__(self):
        super().__init__()
        self.label = "bag"


def label_of(bag):
    return bag.label


def test_traced_container_subclass_keeps_its_location():
    """Field events register their object even when its class derives
    from a container type (a value elsewhere would be repr-only)."""
    trace = trace_call(label_of, Bag(),
                       filter=TraceFilter(include_modules=(__name__,))).trace
    get, = [e for e in trace if e.event.kind == "get"]
    assert (get.event.obj.class_name, get.event.obj.location) == ("Bag", 1)


@traced
class Spawner:
    def __init__(self, depth):
        self.depth = depth

    def run(self):
        if self.depth > 0:
            child = Spawner(self.depth - 1)
            thread = threading.Thread(target=child.run)
            thread.start()
            thread.join()
        return self.depth


def _shape(entry):
    event = entry.event
    if event.kind in ("fork", "end"):
        detail = (event.child_tid if event.kind == "fork" else event.tid,
                  tuple(tuple((frame.method, frame.callee.creation_seq)
                              for frame in stack)
                        for stack in event.ancestry))
    elif event.kind in ("get", "set"):
        detail = event.field
    elif event.kind == "init":
        detail = event.class_name
    else:
        detail = event.method
    return entry.tid, entry.method, event.kind, detail


RUN, INIT = "Spawner.run", "Spawner.__init__"
ROOT1 = ((RUN, 1),)
ROOT2 = ((RUN, 2),)


def test_thread_fork_and_end_capture():
    """Each thread starts and is joined before anything else runs, so
    the whole trace is deterministic: fork/end carry the spawn
    ancestry, child events land on the child tid."""
    trace = trace_call(Spawner(2).run,
                       filter=TraceFilter(include_modules=(__name__,)),
                       key_table=KeyTable()).trace
    assert [_shape(e) for e in trace] == [
        (0, "<main>", "call", RUN),
        (0, RUN, "get", "depth"), (0, RUN, "get", "depth"),
        (0, RUN, "init", "Spawner"), (0, RUN, "call", INIT),
        (0, INIT, "set", "depth"), (0, RUN, "return", INIT),
        (0, RUN, "fork", (1, (ROOT1,))),
        (1, "<main>", "call", RUN),
        (1, RUN, "get", "depth"), (1, RUN, "get", "depth"),
        (1, RUN, "init", "Spawner"), (1, RUN, "call", INIT),
        (1, INIT, "set", "depth"), (1, RUN, "return", INIT),
        (1, RUN, "fork", (2, (ROOT1, ROOT2))),
        (2, "<main>", "call", RUN),
        (2, RUN, "get", "depth"), (2, RUN, "get", "depth"),
        (2, "<main>", "return", RUN),
        (2, "<main>", "end", (2, (ROOT1, ROOT2, ()))),
        (1, RUN, "get", "depth"), (1, "<main>", "return", RUN),
        (1, "<main>", "end", (1, (ROOT1, ()))),
        (0, RUN, "get", "depth"), (0, "<main>", "return", RUN),
        (0, "<main>", "end", (0, ((),))),
    ]
    for kid, entry in zip(trace.key_ids, trace.entries):
        assert trace.key_table.key_of(kid) == entry.key()


# -- filters and value representations ----------------------------------------

class TestDottedPrefixes:
    def test_include_admits_submodules_only(self):
        only = TraceFilter(include_modules=("repro.workloads.minidb",))
        assert only.admits_module("repro.workloads.minidb")
        assert only.admits_module("repro.workloads.minidb.engine")
        assert not only.admits_module("repro.workloads.minidb2")

    def test_exclusions_respect_boundaries(self):
        everything = TraceFilter()
        assert not everything.admits_module("abc")
        assert everything.admits_module("abcparser")
        assert not everything.admits_module("threading")
        assert everything.admits_module("threadingx")
        assert not everything.admits_module("repro.capture.tracer")
        extra = TraceFilter(exclude_modules=("app.db",))
        assert not extra.admits_module("app.db.pool")
        assert extra.admits_module("app.dbtools")

    def test_exclude_methods_stay_plain_prefixes(self):
        deny = TraceFilter(exclude_methods=("Parser.read",))
        assert not deny.admits_method("Parser.read_token")
        assert deny.admits_method("Parser.peek")


def test_modules_serialise_by_name():
    rep = live_value_rep(threading, LiveRegistry())
    assert (rep.class_name, rep.serialization) == ("module", "threading")
    assert rep.location == 1
