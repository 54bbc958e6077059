import json
from pathlib import Path

import pytest

from credal.cli import _PROCS, REPRODUCTIONS, Scenario, main

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "credal" / "scenarios"


def test_scenario_roundtrip_is_identity():
    raw = json.loads((SCENARIOS / "colorful.json").read_text())
    scenario = Scenario.from_dict(raw)
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_infer_flying_bird_representations(capsys):
    assert main(["infer", str(SCENARIOS / "flying-bird-1.json")]) == 0
    assert "holds: True" in capsys.readouterr().out
    assert main(["infer", str(SCENARIOS / "flying-bird-2.json")]) == 0


def test_infer_product_prior_scenario():
    assert main(["infer", str(SCENARIOS / "product-prior.json")]) == 0


def test_infer_failing_query(tmp_path, capsys):
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["p"]}],
        "kb": "true",
        "queries": ["P(p) = 1/4"],
        "procedure": {"kind": "maxent"},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["infer", str(path)]) == 1


def test_infer_unsatisfiable_kb_reports_consistency(tmp_path, capsys):
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["p"]}],
        "kb": "P(p) > 1/2 & P(p) < 1/4",
        "queries": ["P(p) <= 1"],
        "procedure": {"kind": "maxent"},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["infer", str(path)]) == 1
    assert "consistency" in capsys.readouterr().out


def test_validation_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spaces": [{"name": "X"}]}))
    assert main(["infer", str(path)]) == 2
    err = capsys.readouterr().err
    assert "/spaces/0" in err


def _finite_prior_scenario(tmp_path, row):
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["a", "b"]}],
        "kb": "P(a) >= 1/2",
        "queries": ["P(a) >= 1/4"],
        "procedure": {"kind": "prior_based", "prior": {"X": [row]}},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def test_decimal_prior_weights_are_read_as_written(tmp_path, capsys):
    # as binary floats 0.1 + 0.2 + 0.3 + 0.4 is not exactly 1
    assert main(["infer", _finite_prior_scenario(tmp_path, [0.1, 0.2, 0.3, 0.4])]) == 0
    assert "holds: True" in capsys.readouterr().out


@pytest.mark.parametrize("row", [[0.5, 0.5], ["1/2", "1/3", 0, 0]], ids=["length", "sum"])
def test_bad_prior_row_is_validation_error(tmp_path, capsys, row):
    assert main(["infer", _finite_prior_scenario(tmp_path, row)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: /procedure/prior/X/0: ")


def test_unknown_symbol_is_validation_error(tmp_path, capsys):
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["p"]}],
        "kb": "P(q) >= 0",
        "queries": [],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["infer", str(path)]) == 2


def test_check_invariance_colorful(capsys):
    assert main(["check-invariance", str(SCENARIOS / "colorful.json")]) == 1
    out = capsys.readouterr().out
    assert "invariant: False" in out


def test_check_invariance_entailment_passes(tmp_path):
    raw = json.loads((SCENARIOS / "colorful.json").read_text())
    raw["procedure"] = {"kind": "entailment"}
    raw["queries"] = ["P(colorful) >= 1/4"]
    path = tmp_path / "ent.json"
    path.write_text(json.dumps(raw))
    assert main(["check-invariance", str(path)]) == 0


def test_check_embedding(capsys):
    assert main(["check-embedding", str(SCENARIOS / "colorful.json")]) == 0
    assert "faithful: True" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(REPRODUCTIONS))
def test_reproductions_match_goldens(name, capsys):
    assert main(["reproduce", name, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["golden_match"] is True


def test_reproduce_unknown_name(capsys):
    assert main(["reproduce", "nope"]) == 2


def test_falsify_cli_maxent(capsys):
    assert main(["falsify", "--procedure", "maxent",
                 "--budget", "50", "--seed", "7", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violation_found"] is True


def test_falsify_cli_entailment(capsys):
    assert main(["falsify", "--procedure", "entailment",
                 "--budget", "20", "--seed", "7"]) == 0


def test_falsify_cli_i1_over_sixteen_worlds(capsys):
    assert main(["falsify", "--procedure", "i1", "--max-worlds", "24",
                 "--budget", "200", "--seed", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["violation_found"] is False


@pytest.mark.parametrize("flags", [["--max-worlds", "2", "--budget", "50"], ["--budget", "-3"]])
def test_falsify_cli_rejects_bad_sizes(flags, capsys):
    assert main(["falsify", "--procedure", "i1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["klm-check", "--procedure", "maxent", "--budget", "5"],
    ["reproduce", "colorful", "--max-worlds", "3"],
    ["falsify", "--procedure", "maxent", "--eps", "0.1"],
])
def test_flags_belong_to_the_commands_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_klm_check_broken_fails(capsys):
    assert main(["klm-check", "--procedure", "broken", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"].get("Reflexivity", 0) > 0


def test_klm_check_entailment_passes():
    assert main(["klm-check", "--procedure", "entailment"]) == 0


@pytest.mark.parametrize("field, path", [
    ({"procedure": {"kind": "prior_based", "prior": {"X": []}}}, "/procedure/prior/X"),
    ({"procedure": {"kind": "prior_based", "prior": {"X": [5]}}}, "/procedure/prior/X/0"),
    ({"procedure": {"kind": "prior_based", "prior": "beta"}}, "/procedure/prior"),
    ({"procedure": "maxent"}, "/procedure"),
    ({"kb": 5}, "/kb"),
    ({"queries": "P(a) >= 1/2"}, "/queries"),
], ids=["empty-prior-list", "prior-row-not-a-list", "unknown-prior", "procedure-not-object",
        "kb-not-string", "queries-not-list"])
def test_malformed_field_is_validation_error(tmp_path, capsys, field, path):
    scenario = {"spaces": [{"name": "X", "vocabulary": ["a", "b"]}], "kb": "P(a) >= 1/2",
                "queries": ["P(a) >= 1/4"], **field}
    bad = tmp_path / "s.json"
    bad.write_text(json.dumps(scenario))
    assert main(["infer", str(bad)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {path}:") and "\n" not in err


@pytest.mark.parametrize("procedure, flag", [
    ({"kind": "entailment"}, "entailment"),
    ({"kind": "maxent"}, "maxent"),
    ({"kind": "i0"}, "i0"),
    ({"kind": "i1"}, "i1"),
    ({"kind": "broken"}, "broken"),
    ({"kind": "prior_based", "prior": "product_family"}, "product-prior"),
])
def test_scenario_kind_builds_the_flag_procedure(procedure, flag):
    scenario = Scenario.from_dict({"spaces": [{"name": "X", "vocabulary": ["p"]}],
                                   "procedure": procedure})
    assert scenario.build_procedure(scenario.build_spaces()) == _PROCS[flag]()


def test_infer_with_finite_prior_json(tmp_path):
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["p"]}],
        "kb": "P(p) >= 1/2",
        "queries": ["P(p) >= 1/2"],
        "procedure": {"kind": "prior_based",
                      "prior": {"X": [["1/4", "3/4"], ["9/10", "1/10"]]}},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["infer", str(path)]) == 0


def test_embedding_json_roundtrip():
    from credal.embeddings import (embedding_from_json, embedding_to_json,
                                   from_surjection)
    from credal.spaces import enumerate_worlds

    x = enumerate_worlds(["c"])
    y = enumerate_worlds(["r", "g"])
    emb = from_surjection(x, y, [0, 1, 1, 1])
    wire = embedding_to_json(emb, "x", "y")
    back = embedding_from_json(wire, {"x": x, "y": y})
    assert back.world_map == emb.world_map
