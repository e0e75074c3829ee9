"""Tests for the offline CLI."""

import json

import pytest

from repro.analysis.cli import main, parse_config_flags
from repro.analysis.serialize import load_trace, save_trace
from repro.core.view_diff import ViewDiffConfig, view_diff
from repro.core.views import ViewType

from helpers import myfaces_trace, simple_trace, write_flat_store


@pytest.fixture()
def trace_files(tmp_path):
    old = myfaces_trace(min_range=32, name="old")
    new = myfaces_trace(min_range=1, new_version=True, name="new")
    old_path = tmp_path / "old.jsonl"
    new_path = tmp_path / "new.jsonl"
    save_trace(old, old_path)
    save_trace(new, new_path)
    return str(old_path), str(new_path)


class TestInfo:
    def test_summary(self, trace_files, capsys):
        old_path, _ = trace_files
        assert main(["info", old_path]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "call" in out

    def test_tree(self, trace_files, capsys):
        old_path, _ = trace_files
        main(["info", old_path, "--tree"])
        out = capsys.readouterr().out
        assert "-->" in out


class TestViews:
    def test_lists_views(self, trace_files, capsys):
        old_path, _ = trace_files
        assert main(["views", old_path]) == 0
        out = capsys.readouterr().out
        assert "views:" in out
        assert "TH" in out


class TestDiff:
    def test_diff_finds_regression(self, trace_files, capsys):
        old_path, new_path = trace_files
        status = main(["diff", old_path, new_path])
        out = capsys.readouterr().out
        assert status == 1  # differences found
        assert "semantic diff" in out
        assert "_minCharRange" in out

    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        trace = simple_trace([1, 2, 3], name="t")
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        save_trace(trace, a)
        save_trace(trace, b)
        assert main(["diff", str(a), str(b)]) == 0

    def test_lcs_algorithm(self, trace_files, capsys):
        old_path, new_path = trace_files
        main(["diff", old_path, new_path, "--engine", "optimized"])
        out = capsys.readouterr().out
        assert "lcs-optimized" in out

    def test_engine_flag(self, trace_files, capsys):
        old_path, new_path = trace_files
        main(["diff", old_path, new_path, "--engine", "hirschberg"])
        out = capsys.readouterr().out
        assert "lcs-hirschberg" in out

    def test_config_flags_pass_through(self, trace_files, capsys):
        old_path, new_path = trace_files
        main(["diff", old_path, new_path, "--config", "skip_lcs_cells=0",
              "--config", "window=4"])
        out = capsys.readouterr().out
        expected = view_diff(
            load_trace(old_path), load_trace(new_path),
            config=ViewDiffConfig(skip_lcs_cells=0, window=4))
        assert f"{expected.num_diffs()} differences" in out

    def test_bad_config_key_rejected(self, trace_files):
        old_path, new_path = trace_files
        with pytest.raises(SystemExit):
            main(["diff", old_path, new_path, "--config", "bogus=1"])

    def test_bad_config_value_rejected(self, trace_files):
        old_path, new_path = trace_files
        with pytest.raises(SystemExit):
            main(["diff", old_path, new_path, "--config", "window=soon"])


class TestParseConfigFlags:
    def test_none_when_no_flags(self):
        assert parse_config_flags(None) is None
        assert parse_config_flags([]) is None

    def test_every_scalar_knob(self):
        config = parse_config_flags([
            "window=6", "radius=2", "relaxed=false",
            "max_secondary_pairs=9", "scan_limit=none",
            "skip_lcs_cells=128"])
        assert config == ViewDiffConfig(
            window=6, radius=2, relaxed=False, max_secondary_pairs=9,
            scan_limit=None, skip_lcs_cells=128)

    def test_view_types_list(self):
        config = parse_config_flags(["view_types=method,target_object"])
        assert config.view_types == (ViewType.METHOD,
                                     ViewType.TARGET_OBJECT)

    def test_unknown_view_type(self):
        with pytest.raises(SystemExit):
            parse_config_flags(["view_types=sideways"])

    def test_missing_equals(self):
        with pytest.raises(SystemExit):
            parse_config_flags(["window"])


class TestAnalyze:
    def test_suspected_only(self, trace_files, capsys):
        old_path, new_path = trace_files
        status = main(["analyze", "--suspected-old", old_path,
                       "--suspected-new", new_path])
        out = capsys.readouterr().out
        assert status == 0
        assert "|A|=" in out

    def test_full_recipe(self, tmp_path, capsys):
        old_bad = myfaces_trace(min_range=32, name="ob")
        new_bad = myfaces_trace(min_range=1, new_version=True, name="nb")
        old_ok = myfaces_trace(min_range=32, name="oo")
        new_ok = myfaces_trace(min_range=32, new_version=True, name="no")
        paths = {}
        for key, trace in [("ob", old_bad), ("nb", new_bad),
                           ("oo", old_ok), ("no", new_ok)]:
            path = tmp_path / f"{key}.jsonl"
            save_trace(trace, path)
            paths[key] = str(path)
        status = main([
            "analyze",
            "--suspected-old", paths["ob"], "--suspected-new", paths["nb"],
            "--expected-old", paths["oo"], "--expected-new", paths["no"],
            "--regression-left", paths["no"],
            "--regression-right", paths["nb"],
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "|D|=" in out


@pytest.fixture()
def populated_store(tmp_path):
    """A store directory holding the full four-trace recipe."""
    store_dir = tmp_path / "store"
    traces = {
        "ob": myfaces_trace(min_range=32, name="ob"),
        "nb": myfaces_trace(min_range=1, new_version=True, name="nb"),
        "oo": myfaces_trace(min_range=32, name="oo"),
        "no": myfaces_trace(min_range=32, new_version=True, name="no"),
    }
    for key, trace in traces.items():
        path = tmp_path / f"{key}.jsonl"
        save_trace(trace, path)
        assert main(["store", "add", str(store_dir), str(path),
                     "--key", key, "--tag", "myfaces"]) == 0
    return store_dir


class TestStore:
    def test_add_and_list(self, populated_store, capsys):
        capsys.readouterr()
        assert main(["store", "list", str(populated_store)]) == 0
        out = capsys.readouterr().out
        assert "4 trace(s)" in out
        assert "ob" in out and "[myfaces]" in out

    def test_list_filters_by_tag(self, populated_store, capsys):
        main(["store", "tag", str(populated_store), "ob", "bad"])
        capsys.readouterr()
        assert main(["store", "list", str(populated_store),
                     "--tag", "bad"]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s)" in out

    def test_show_tree(self, populated_store, capsys):
        assert main(["store", "show", str(populated_store), "ob",
                     "--tree"]) == 0
        out = capsys.readouterr().out
        assert "ob" in out
        assert "-->" in out

    def test_untag(self, populated_store, capsys):
        assert main(["store", "tag", str(populated_store), "ob",
                     "myfaces", "--remove"]) == 0
        out = capsys.readouterr().out
        assert "[myfaces]" not in out

    def test_rm(self, populated_store, capsys):
        assert main(["store", "rm", str(populated_store), "ob"]) == 0
        capsys.readouterr()
        main(["store", "list", str(populated_store)])
        assert "3 trace(s)" in capsys.readouterr().out

    def test_rm_missing_key_fails(self, populated_store, capsys):
        assert main(["store", "rm", str(populated_store), "nope"]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_show_missing_key_fails(self, populated_store, capsys):
        assert main(["store", "show", str(populated_store), "nope"]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_tag_missing_key_fails(self, populated_store, capsys):
        assert main(["store", "tag", str(populated_store), "nope",
                     "t"]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_list_missing_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace store"):
            main(["store", "list", str(tmp_path / "nowhere")])


class TestStoreDiff:
    def test_diff_stored_traces_without_recapture(self, populated_store,
                                                  capsys):
        status = main(["store", "diff", str(populated_store), "ob", "nb"])
        out = capsys.readouterr().out
        assert status == 1  # differences found
        assert "content digests:" in out and "differ" in out
        assert "_minCharRange" in out

    def test_identical_stored_traces_exit_zero(self, populated_store,
                                               capsys):
        status = main(["store", "diff", str(populated_store), "ob", "oo"])
        out = capsys.readouterr().out
        assert status == 0
        assert "content digests:" in out

    def test_equal_digests_flagged(self, populated_store, capsys):
        from repro.api.store import TraceStore
        store = TraceStore(populated_store, create=False)
        store.save(store.load("ob"), key="ob-copy")
        assert main(["store", "diff", str(populated_store), "ob",
                     "ob-copy"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_engine_and_config_flags(self, populated_store, capsys):
        assert main(["store", "diff", str(populated_store), "ob", "oo",
                     "--engine", "optimized",
                     "--config", "window=4"]) == 0
        assert "0 difference" in capsys.readouterr().out

    def test_missing_key_exits_two_not_one(self, populated_store, capsys):
        # 1 means "differences found"; a missing key must be distinct.
        assert main(["store", "diff", str(populated_store), "ob",
                     "nope"]) == 2
        assert "no trace" in capsys.readouterr().err


class TestBatch:
    def _spec(self, tmp_path, scenarios):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scenarios": scenarios}),
                        encoding="utf-8")
        return str(path)

    def test_full_batch(self, tmp_path, populated_store, capsys):
        spec = self._spec(tmp_path, [
            {"name": "full", "suspected": ["ob", "nb"],
             "expected": ["oo", "no"], "regression": ["no", "nb"]},
            {"name": "baseline", "suspected": ["ob", "nb"],
             "engine": "optimized"},
        ])
        assert main(["batch", spec, "--store", str(populated_store)]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios ok" in out
        assert "engine=views" in out
        assert "engine=optimized" in out

    def test_jobs_flag_is_an_argparse_error(self, tmp_path,
                                            populated_store, capsys):
        spec = self._spec(tmp_path,
                          [{"name": "s", "suspected": ["ob", "nb"]}])
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", spec, "--store", str(populated_store),
                  "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_unknown_entry_engine_is_a_failed_line(self, tmp_path,
                                                   populated_store,
                                                   capsys):
        spec = self._spec(tmp_path, [
            {"name": "ok", "suspected": ["ob", "nb"]},
            {"name": "odd", "suspected": ["ob", "nb"],
             "engine": "no-such-engine"},
        ])
        assert main(["batch", spec, "--store", str(populated_store)]) == 1
        out = capsys.readouterr().out
        assert "odd" in out and "FAILED: KeyError" in out
        assert "no-such-engine" in out
        assert "Traceback" not in out
        assert "1/2 scenarios ok" in out

    def test_results_in_spec_order(self, tmp_path, populated_store,
                                   capsys):
        names = ["zeta", "alpha", "mid", "beta"]
        spec = self._spec(tmp_path, [
            {"name": name, "suspected": ["ob", "nb"]} for name in names])
        assert main(["batch", spec, "--store", str(populated_store)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:4]] == names
        assert lines[4].startswith("4/4 scenarios ok")

    def test_entry_engine_and_mode_overrides(self, tmp_path,
                                             populated_store, capsys):
        full = {"suspected": ["ob", "nb"], "expected": ["oo", "no"],
                "regression": ["no", "nb"]}
        spec = self._spec(tmp_path, [
            dict(full, name="plain"),
            dict(full, name="subtract", mode="subtract"),
            dict(full, name="lcs", engine="optimized"),
        ])
        assert main(["batch", spec, "--store", str(populated_store)]) == 0
        plain, subtract, lcs = capsys.readouterr().out.splitlines()[:3]
        assert "engine=views" in plain and "|D|=2 " in plain
        assert "engine=views" in subtract and "|D|=0 " in subtract
        assert "engine=optimized" in lcs

    def test_second_batch_over_one_cache_is_all_hits(self, tmp_path,
                                                     populated_store,
                                                     capsys):
        # Six distinct pairs: the full recipe, then every pair reversed.
        spec = self._spec(tmp_path, [
            {"name": "forward", "suspected": ["ob", "nb"],
             "expected": ["oo", "no"], "regression": ["no", "nb"]},
            {"name": "reversed", "suspected": ["nb", "ob"],
             "expected": ["no", "oo"], "regression": ["nb", "no"]},
        ])
        args = ["batch", spec, "--store", str(populated_store)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hit(s), 6 miss(es), 6 store(s)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cache: 6 hit(s), 0 miss(es), 0 store(s)" in warm
        # Same rows up to their timing column.
        assert [line.rsplit(" ", 1)[0] for line in cold.splitlines()[:2]] \
            == [line.rsplit(" ", 1)[0] for line in warm.splitlines()[:2]]

    def test_failing_scenario_sets_exit_code(self, tmp_path,
                                             populated_store, capsys):
        spec = self._spec(tmp_path, [
            {"name": "ok", "suspected": ["ob", "nb"]},
            {"name": "broken", "suspected": ["ob", "missing"]},
        ])
        assert main(["batch", spec, "--store", str(populated_store)]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "1/2 scenarios ok" in out

    def test_engine_and_config_flags(self, tmp_path, populated_store,
                                     capsys):
        spec = self._spec(tmp_path,
                          [{"name": "s", "suspected": ["ob", "nb"]}])
        assert main(["batch", spec, "--store", str(populated_store),
                     "--engine", "views", "--config", "window=4"]) == 0
        assert "engine=views" in capsys.readouterr().out

    def test_empty_spec_rejected(self, tmp_path, populated_store):
        spec = self._spec(tmp_path, [])
        with pytest.raises(SystemExit):
            main(["batch", spec, "--store", str(populated_store)])

    def test_bad_pair_rejected(self, tmp_path, populated_store):
        spec = self._spec(tmp_path, [{"name": "s", "suspected": ["ob"]}])
        with pytest.raises(SystemExit):
            main(["batch", spec, "--store", str(populated_store)])

    def test_string_pair_rejected(self, tmp_path, populated_store):
        # "suspected": "ob" is len-2-iterable-adjacent JSON mistakes'
        # favourite shape; it must fail validation, not become ('o','b').
        spec = self._spec(tmp_path, [{"name": "s", "suspected": "ob"}])
        with pytest.raises(SystemExit, match="two trace keys"):
            main(["batch", spec, "--store", str(populated_store)])

    def test_missing_spec_file(self, tmp_path, populated_store):
        with pytest.raises(SystemExit, match="no batch spec"):
            main(["batch", str(tmp_path / "nope.json"),
                  "--store", str(populated_store)])

    def test_invalid_spec_json(self, tmp_path, populated_store):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["batch", str(bad), "--store", str(populated_store)])

    def test_missing_store_dir(self, tmp_path):
        spec = self._spec(tmp_path, [{"suspected": ["a", "b"]}])
        with pytest.raises(SystemExit, match="no trace store"):
            main(["batch", spec, "--store", str(tmp_path / "nowhere")])


class TestSerializeRoundTripProperty:
    """Capture -> save -> load must preserve the view-diff verdict."""

    @pytest.mark.parametrize("min_range,new_version",
                             [(32, False), (1, True), (16, True)])
    def test_roundtrip_preserves_view_diff(self, tmp_path, min_range,
                                           new_version):
        reference = myfaces_trace(min_range=32, name="reference")
        trace = myfaces_trace(min_range=min_range,
                              new_version=new_version, name="probe")
        direct = view_diff(reference, trace)

        ref_path = tmp_path / "ref.jsonl"
        probe_path = tmp_path / "probe.jsonl"
        save_trace(reference, ref_path)
        save_trace(trace, probe_path)
        reloaded = view_diff(load_trace(ref_path), load_trace(probe_path))

        assert reloaded.num_diffs() == direct.num_diffs()
        assert reloaded.similar_left == direct.similar_left
        assert reloaded.similar_right == direct.similar_right
        assert reloaded.match_pairs == direct.match_pairs
        assert ([s.signature() for s in reloaded.sequences]
                == [s.signature() for s in direct.sequences])

    def test_roundtrip_of_captured_trace(self, tmp_path):
        # A real sys.settrace capture (not a hand-built trace): entry
        # keys must survive serialisation exactly.
        from repro.api import Session
        from repro.capture.filters import TraceFilter

        def program(n):
            return sum(range(n))

        session = Session().with_filter(
            TraceFilter(include_modules=(__name__,)))
        left = session.trace_call(program, 4, name="left")
        right = session.trace_call(program, 7, name="right")
        direct = view_diff(left, right)

        for trace, path in ((left, tmp_path / "l.jsonl"),
                            (right, tmp_path / "r.jsonl")):
            save_trace(trace, path)
        reloaded = view_diff(load_trace(tmp_path / "l.jsonl"),
                             load_trace(tmp_path / "r.jsonl"))
        assert reloaded.num_diffs() == direct.num_diffs()
        assert reloaded.match_pairs == direct.match_pairs


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["store"])

    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["diff", "a", "b", "--engine", "bogus"])


class TestCacheCli:
    def test_store_diff_populates_sidecar_cache(self, populated_store,
                                                capsys):
        main(["store", "diff", str(populated_store), "ob", "nb"])
        cache_dir = populated_store / "diffcache"
        assert len(list(cache_dir.glob("*/*.json"))) == 1
        # Warm re-run: same report, still exactly one entry.
        capsys.readouterr()
        status = main(["store", "diff", str(populated_store), "ob", "nb"])
        assert status == 1
        assert "_minCharRange" in capsys.readouterr().out
        assert len(list(cache_dir.glob("*/*.json"))) == 1

    def test_no_cache_flag_skips_the_sidecar(self, populated_store):
        main(["store", "diff", str(populated_store), "ob", "nb",
              "--no-cache"])
        assert not (populated_store / "diffcache").exists()

    def test_diff_caches_only_with_explicit_dir(self, trace_files,
                                                tmp_path):
        old_path, new_path = trace_files
        main(["diff", old_path, new_path])
        cache_dir = tmp_path / "cli-cache"
        main(["diff", old_path, new_path, "--cache", str(cache_dir)])
        assert len(list(cache_dir.glob("*/*.json"))) == 1

    def test_batch_reports_cache_hits(self, populated_store, tmp_path,
                                      capsys):
        spec = {"scenarios": [
            {"name": "s", "suspected": ["ob", "nb"],
             "expected": ["oo", "no"]}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        args = ["batch", str(spec_path), "--store", str(populated_store)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache:" in first
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "2 hit(s)" in warm and "0 miss(es)" in warm

    def test_cache_stats_prune_clear(self, populated_store, capsys):
        main(["store", "diff", str(populated_store), "ob", "nb"])
        main(["store", "diff", str(populated_store), "ob", "oo"])
        capsys.readouterr()
        # A store path resolves to its diffcache sidecar.
        assert main(["cache", "stats", str(populated_store)]) == 0
        assert "2 entr(ies)" in capsys.readouterr().out
        assert main(["cache", "prune", str(populated_store),
                     "--keep", "1"]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert main(["cache", "clear", str(populated_store)]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(["cache", "stats", str(populated_store)]) == 0
        assert "0 entr(ies)" in capsys.readouterr().out

    def test_cache_clear_on_an_unopened_flat_store(self, tmp_path, capsys):
        # store.json marks a store, so the command must target its
        # diffcache and leave the index alone.
        root = write_flat_store(tmp_path / "flat",
                                {"a": simple_trace([1], name="a")})
        assert main(["cache", "clear", str(root)]) == 0
        assert "cleared 0" in capsys.readouterr().out
        assert (root / "store.json").exists()

    def test_cache_prune_needs_a_criterion(self, populated_store):
        with pytest.raises(SystemExit, match="--keep"):
            main(["cache", "prune", str(populated_store)])

    def test_truncated_cache_entry_is_recovered_from(self,
                                                     populated_store,
                                                     capsys):
        main(["store", "diff", str(populated_store), "ob", "nb"])
        (entry,) = (populated_store / "diffcache").glob("*/*.json")
        entry.write_text(entry.read_text()[:40])  # truncate on disk
        capsys.readouterr()
        status = main(["store", "diff", str(populated_store), "ob", "nb"])
        assert status == 1  # recomputed: same differences as cold
        assert "_minCharRange" in capsys.readouterr().out


class TestEngines:
    def test_lists_every_registered_engine(self, capsys):
        from repro.api.engines import available_engines
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in available_engines():
            assert name in out

    def test_shows_capability_flags(self, capsys):
        main(["engines"])
        out = capsys.readouterr().out
        assert "cacheable" in out
        assert "anchor" not in out
        assert "accepts_" not in out

    def test_four_rows_each_cacheable(self, capsys):
        main(["engines"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "4 registered engine(s):"
        rows = [line.split() for line in lines[1:]]
        assert [row[0] for row in rows] == [
            "views", "dp", "hirschberg", "optimized"]
        assert all(row[1:] == ["cacheable"] for row in rows)


class TestAnchoredDiff:
    """Patience anchoring is gone: its engine, knob and flag each end
    in a clean usage error, not a traceback."""

    def test_anchored_engine_rejected(self, trace_files, capsys):
        old_path, new_path = trace_files
        with pytest.raises(SystemExit) as exit_info:
            main(["diff", old_path, new_path, "--engine", "anchored:views"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_anchor_knobs_via_config_flags(self, trace_files):
        old_path, new_path = trace_files
        for knob in ("anchored=true", "anchor_min_run=4",
                     "anchor_max_occurrence=2",
                     "anchor_method_hints=Db.insert"):
            name = knob.partition("=")[0]
            with pytest.raises(SystemExit,
                               match=f"unknown view-diff knob '{name}'"):
                main(["diff", old_path, new_path, "--config", knob])

    def test_anchor_stats_flag(self, trace_files, capsys):
        old_path, new_path = trace_files
        with pytest.raises(SystemExit) as exit_info:
            main(["diff", old_path, new_path, "--anchor-stats"])
        assert exit_info.value.code == 2
        assert "--anchor-stats" in capsys.readouterr().err


class TestRetiredLcsEngines:
    """``fast`` (the pivot differ) and ``bitparallel`` (a second name
    for Hirschberg) are gone: each ends in a clean usage error."""

    @pytest.mark.parametrize("engine", ["fast", "bitparallel"])
    def test_engine_rejected(self, trace_files, capsys, engine):
        old_path, new_path = trace_files
        with pytest.raises(SystemExit) as exit_info:
            main(["diff", old_path, new_path, "--engine", engine])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
