"""Hypothesis property tests for the static layer.

Generated ``repro.lang`` programs round-trip through the CFG builder
(every statement term lands in exactly one basic block, the entry block
dominates every reachable block) and the impact predictor (a program
diffed against itself predicts nothing).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse_program
from repro.static import build_program_cfgs, predict_impact, statement_terms
from repro.static.cfg import MAIN, iter_spawns

# Generated statements reference only locals a0..a3, declared before
# use at the top level so any nesting of the generated blocks is a
# well-formed (if not always well-typed) program.
NAMES = ("a0", "a1", "a2", "a3")


def simple(name: str, value: int) -> str:
    return f"var {name} = {value};"


statement = st.deferred(lambda: st.one_of(
    st.builds(simple, st.sampled_from(NAMES), st.integers(0, 9)),
    st.builds(lambda n, v: f"{n} = {n}.add({v});",
              st.sampled_from(NAMES), st.integers(0, 9)),
    st.builds(lambda n: f"{n}.toStr();", st.sampled_from(NAMES)),
    st.builds(lambda n, body: f"if ({n}.lt(5)) {{ {body} }}",
              st.sampled_from(NAMES), block),
    st.builds(lambda n, t, e: f"if ({n}.lt(5)) {{ {t} }} else {{ {e} }}",
              st.sampled_from(NAMES), block, block),
    st.builds(lambda n, body: f"while ({n}.lt(0)) {{ {body} }}",
              st.sampled_from(NAMES), block),
    st.builds(lambda body: f"spawn {{ {body} }}", block),
))
block = st.lists(statement, max_size=4).map(" ".join)


@st.composite
def lang_programs(draw) -> str:
    decls = " ".join(simple(name, i) for i, name in enumerate(NAMES))
    body = draw(st.lists(statement, max_size=6).map(" ".join))
    return f"thread {{ {decls} {body} }}"


@given(lang_programs())
@settings(max_examples=60, deadline=None)
def test_cfg_partitions_statements(source):
    program = parse_program(source)
    cfgs = build_program_cfgs(program)

    def expected_bodies(body, name):
        yield name, body
        for index, spawn in enumerate(iter_spawns(body)):
            yield from expected_bodies(spawn.body, f"{name}.spawn[{index}]")

    bodies = dict(expected_bodies(program.main, MAIN))
    assert set(cfgs) == set(bodies)
    for name, body in bodies.items():
        owned = Counter(id(t) for t in cfgs[name].owned_terms())
        assert owned == Counter(id(t) for t in statement_terms(body))
        assert not owned or max(owned.values()) == 1


@given(lang_programs())
@settings(max_examples=60, deadline=None)
def test_entry_dominates_reachable_blocks(source):
    for cfg in build_program_cfgs(parse_program(source)).values():
        doms = cfg.dominators()
        for bid in cfg.reachable():
            assert cfg.entry in doms[bid]
        # Back edges only target loop headers.
        for _, dst in cfg.back_edges():
            assert cfg.blocks[dst].kind == "loop"


@given(lang_programs())
@settings(max_examples=40, deadline=None)
def test_identity_impact_is_empty(source):
    program = parse_program(source)
    prediction = predict_impact(program, program)
    assert prediction.is_empty()
    assert prediction.predicted() == set()
