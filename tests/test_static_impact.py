"""Tests for static change-impact prediction: the structural program
diff, score propagation, cross-validation against the dynamic
ImpactReport, and the CLI surface."""

import json

import pytest

from repro.analysis.cli import main
from repro.api import Session
from repro.lang.parser import parse_program
from repro.static import (cross_validate, diff_programs, get_scenario,
                          predict_impact, validate_scenario)
from repro.static.cfg import MAIN
from repro.static.impact import dynamic_method_name


class TestDiffPrograms:
    def test_identity_diff_is_empty(self):
        program = get_scenario("minidb").old_program()
        assert diff_programs(program, program) == ()
        assert predict_impact(program, program).is_empty()

    def test_change_kinds(self):
        old = parse_program("""
            class A { Int x;
                Int keep() { return 1; }
                Int gone() { return 2; }
                Int edit() { return 3; }
                Int sig() { return 4; } }
            thread { new A(0).keep(); }
        """)
        new = parse_program("""
            class A { Int x; Int y;
                Int keep() { return 1; }
                Int edit() { return 30; }
                Int sig(Int n) { return 4; }
                Int fresh() { return 5; } }
            thread { new A(0, 0).keep(); new A(0, 0).fresh(); }
        """)
        kinds = {c.name: c.kind for c in diff_programs(old, new)}
        assert kinds == {
            "A.gone": "removed",
            "A.edit": "modified",
            "A.sig": "signature",
            "A.fresh": "added",
            "A.<init>": "fields",
            MAIN: "modified",
        }


class TestPredictImpact:
    def test_minidb_seeds_and_propagation(self):
        scenario = get_scenario("minidb")
        prediction = predict_impact(scenario.old_program(),
                                    scenario.new_program())
        assert [c.name for c in prediction.changes] == ["Table.insert"]
        scores = dict(prediction.ranked())
        assert scores["Table.insert"] == 1.0
        # Callers decay less than callees.
        assert scores["Db.insertMany"] > scores["Table.size"]
        assert sorted(prediction.predicted()) == [
            "<main>", "<main>.spawn[0]", "Db.<init>", "Db.insertMany",
            "Db.report", "Table.<init>", "Table.insert", "Table.size"]

    def test_dynamic_method_name_folding(self):
        assert dynamic_method_name("Db.insertMany") == "Db.insertMany"
        assert dynamic_method_name(MAIN) == MAIN
        assert dynamic_method_name("<main>.spawn[0]") == MAIN
        assert dynamic_method_name("Table.<init>") is None

    def test_to_json_schema(self):
        scenario = get_scenario("minijs")
        payload = predict_impact(scenario.old_program(),
                                 scenario.new_program()).to_json()
        assert set(payload) == {"changes", "ranked", "predicted",
                                "reasons", "threshold"}
        assert all(set(c) == {"name", "kind"} for c in payload["changes"])


class TestCrossValidation:
    @pytest.mark.parametrize("name", ["minidb", "minijs", "minixslt",
                                      "myfaces", "invariants"])
    def test_recall_meets_target(self, name):
        validation = validate_scenario(name)
        assert validation.recall >= 0.9
        assert 0.0 <= validation.precision <= 1.0

    def test_validation_json_schema(self):
        payload = validate_scenario("minixslt").to_json()
        assert set(payload) == {
            "scenario", "predicted", "dynamic", "true_positives",
            "false_positives", "false_negatives", "precision", "recall",
            "static_seconds", "dynamic_seconds"}


def _run(n):
    total = 0
    for i in range(n):
        total += i
    return total


class TestSessionIntegration:
    def test_run_scenario_with_bundled_pair(self):
        result = Session().run_scenario(_run, _run, 4, 2,
                                        static_impact="minidb")
        assert result.static_impact is not None
        assert result.static_impact.scenario == "minidb"
        assert result.static_impact.recall >= 0.9
        assert "static impact" in result.render()

    def test_run_scenario_with_explicit_programs(self):
        scenario = get_scenario("minijs")
        result = Session().run_scenario(
            _run, _run, 3, name="minijs-pair", static_impact=True,
            old_program=scenario.old_program(),
            new_program=scenario.new_program())
        assert result.static_impact.scenario == "minijs-pair"

    def test_true_without_programs_rejected(self):
        with pytest.raises(ValueError, match="old_program"):
            Session().run_scenario(_run, _run, 3, static_impact=True)

    def test_off_by_default(self):
        result = Session().run_scenario(_run, _run, 3)
        assert result.static_impact is None


class TestCli:
    def _json(self, capsys, *argv):
        assert main(["static", *argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_impact_json_schema(self, capsys):
        payload = self._json(capsys, "impact", "--scenario", "minidb",
                             "--validate")
        assert set(payload) == {"program", "changes", "ranked",
                                "predicted", "reasons", "threshold",
                                "validation"}
        assert payload["validation"]["recall"] >= 0.9

    def test_impact_scenario_refs(self, capsys):
        payload = self._json(capsys, "impact", "minidb@old", "minidb@new")
        assert payload["program"] == "minidb@old -> minidb@new"
        assert [c["name"] for c in payload["changes"]] == ["Table.insert"]

    def test_races_json_schema(self, capsys):
        payload = self._json(capsys, "races")
        assert set(payload) == {"programs", "total", "new"}
        assert payload["total"] == 6

    def test_races_baseline_gate(self, capsys, tmp_path):
        empty = tmp_path / "baseline.json"
        empty.write_text("{}")
        assert main(["static", "races", "--baseline", str(empty)]) == 1
        out = capsys.readouterr().out
        assert "NEW" in out

    def test_cfg_and_callgraph_json(self, capsys):
        payload = self._json(capsys, "cfg", "minidb@old", "--node", MAIN)
        assert [c["name"] for c in payload["cfgs"]] == [MAIN]
        payload = self._json(capsys, "callgraph", "minidb@old")
        assert {"nodes", "edges", "instantiated", "program"} == set(payload)

    def test_effects_json(self, capsys):
        payload = self._json(capsys, "effects", "minidb@old",
                             "--transitive")
        names = {e["node"] for e in payload["effects"]}
        assert MAIN in names and "Db.insertMany" in names

    def test_unknown_source_rejected(self, capsys):
        with pytest.raises(SystemExit, match="no such source"):
            main(["static", "cfg", "nope@old"])
