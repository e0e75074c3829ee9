"""Tests for the pluggable diff-engine registry."""

import pytest

from repro.api.engines import (DiffEngine, LcsEngine, ViewsEngine,
                               available_engines, get_engine,
                               register_engine, unregister_engine)
from repro.core.lcs import OpCounter
from repro.core.lcs_diff import ALGORITHMS, lcs_diff
from repro.core.view_diff import ViewDiffConfig, view_diff

from helpers import myfaces_trace


@pytest.fixture()
def trace_pair():
    return (myfaces_trace(min_range=32, name="old"),
            myfaces_trace(min_range=1, new_version=True, name="new"))


class TestRegistry:
    def test_views_plus_every_lcs_baseline(self):
        names = available_engines()
        assert names[0] == "views"
        for algorithm in ALGORITHMS:
            assert algorithm in names

    def test_registry_is_views_plus_the_three_baselines(self):
        assert available_engines() == (
            "views", "dp", "hirschberg", "optimized")

    def test_unknown_engine(self):
        with pytest.raises(KeyError, match="available"):
            get_engine("nope")

    def test_instance_passthrough(self):
        engine = ViewsEngine()
        assert get_engine(engine) is engine

    def test_non_engine_rejected(self):
        with pytest.raises(TypeError):
            get_engine(42)

    def test_nameless_instance_rejected(self):
        class Nameless:
            def diff(self, left, right, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(TypeError):
            get_engine(Nameless())

    def test_register_custom_engine(self, trace_pair):
        class Constant:
            name = "constant"

            def diff(self, left, right, *, config=None, counter=None,
                     budget=None):
                return view_diff(left, right, config=config,
                                 counter=counter)

        register_engine(Constant())
        try:
            assert "constant" in available_engines()
            result = get_engine("constant").diff(*trace_pair)
            assert result.num_diffs() > 0
        finally:
            unregister_engine("constant")
        assert "constant" not in available_engines()

    def test_duplicate_requires_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine(ViewsEngine())
        register_engine(ViewsEngine(), replace=True)  # restores built-in

    def test_nameless_engine_rejected(self):
        class Nameless:
            def diff(self, left, right, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="name"):
            register_engine(Nameless())

    def test_diffless_engine_rejected(self):
        class NoDiff:
            name = "nodiff"

        with pytest.raises(ValueError, match="diff"):
            register_engine(NoDiff())

    def test_protocol_runtime_check(self):
        assert isinstance(ViewsEngine(), DiffEngine)
        assert isinstance(LcsEngine("dp"), DiffEngine)


class TestBuiltinEngines:
    def test_views_engine_matches_view_diff(self, trace_pair):
        left, right = trace_pair
        config = ViewDiffConfig(window=6)
        via_engine = get_engine("views").diff(left, right, config=config)
        direct = view_diff(left, right, config=config)
        assert via_engine.similar_left == direct.similar_left
        assert via_engine.similar_right == direct.similar_right

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_lcs_engines_match_lcs_diff(self, trace_pair, algorithm):
        left, right = trace_pair
        via_engine = get_engine(algorithm).diff(left, right)
        direct = lcs_diff(left, right, algorithm=algorithm)
        assert via_engine.num_diffs() == direct.num_diffs()
        assert via_engine.algorithm == f"lcs-{algorithm}"

    def test_counter_threads_through(self, trace_pair):
        counter = OpCounter()
        get_engine("views").diff(*trace_pair, counter=counter)
        assert counter.total > 0

    def test_lcs_engine_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            LcsEngine("bogus")


class TestKeyTablePlumbing:
    def test_session_shares_pair_table(self, trace_pair):
        from repro.api.session import Session
        from repro.core.keytable import KeyTable

        captured = {}

        class Probe:
            name = "table-probe"

            def diff(self, left, right, *, config=None, counter=None,
                     budget=None, key_table=None):
                captured["table"] = key_table
                return view_diff(left, right, config=config,
                                 counter=counter, key_table=key_table)

        session = Session(engine=Probe())
        session.diff(*trace_pair)
        assert isinstance(captured["table"], KeyTable)
        session.with_config(interned=False)
        captured.clear()
        session.diff(*trace_pair)
        assert captured["table"] is None

    def test_interned_toggle_preserves_results(self, trace_pair):
        old, new = trace_pair
        for engine in ("views", *ALGORITHMS):
            tupled = get_engine(engine).diff(
                old, new, config=ViewDiffConfig(interned=False),
                counter=OpCounter())
            interned = get_engine(engine).diff(
                old, new, config=ViewDiffConfig(interned=True),
                counter=OpCounter())
            assert tupled.similar_left == interned.similar_left
            assert tupled.similar_right == interned.similar_right

    def test_session_capture_interns_at_ingest(self):
        from repro.api.session import Session

        def workload(payload):
            return sum(range(payload))

        session = Session()
        trace = session.trace_call(workload, 5, name="w")
        assert trace.key_table is session.key_table
        assert trace.key_ids is not None
        assert len(trace.key_ids) == len(trace)
