import copy
import json
import re
from pathlib import Path

import pytest

from credal.cli import _PROCS, REPRODUCTIONS, load_scenario, main, read_scenario
from credal.embeddings import (from_interpretation, from_surjection, permutation_embedding,
                               product_embedding)
from credal.spaces import enumerate_worlds, product_space

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "credal" / "scenarios"


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


def test_a_product_of_nested_factors_with_clashing_names(tmp_path, capsys):
    # P = X x (X x X): the inner product's p_2 keeps its name and the
    # outer product renames the inner p to p_3
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["p"]},
                   {"name": "XX", "factors": ["X", "X"]},
                   {"name": "P", "factors": ["X", "XX"]}],
        "main": "P",
        "kb": "P(p_3) >= 1/2",
        "queries": ["P(p_3) >= 1/4"],
        "procedure": {"kind": "maxent"},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["infer", str(path)]) == 0
    assert "holds: True" in capsys.readouterr().out


def test_validation_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spaces": [{"name": "X"}]}))
    assert main(["infer", str(path)]) == 2
    err = capsys.readouterr().err
    assert "/spaces/0" in err


@pytest.mark.parametrize("content", [None, b"\xff\xfe", b"{"], ids=["directory", "not-utf8",
                                                                 "not-json"])
def test_unreadable_scenario_file_is_validation_error(tmp_path, capsys, content):
    path = tmp_path / "s.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["infer", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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


def test_check_invariance_of_a_non_faithful_embedding_is_validation_error(tmp_path, capsys):
    # p and q both go to a, so the worlds with p != q have empty images
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["p", "q"]},
                   {"name": "Y", "vocabulary": ["a", "b"]}],
        "kb": "P(p) >= 1/4",
        "queries": ["P(p) >= 1/4"],
        "embeddings": [{"kind": "interpretation", "src": "X", "dst": "Y",
                        "map": {"p": "a", "q": "a"}}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["check-invariance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: /embeddings/0: invariance is defined against "
                            "faithful embeddings\n")
    assert main(["check-embedding", str(path)]) == 1
    assert "faithful: False" in capsys.readouterr().out


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1", "-1e-12", "x"])
def test_infer_rejects_an_eps_that_is_not_finite_and_nonnegative(eps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["infer", str(SCENARIOS / "flying-bird-1.json"), "--eps", eps])
    assert exc.value.code == 2
    assert "argument --eps" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0", "0.5"])
def test_infer_accepts_a_finite_nonnegative_eps(eps, capsys):
    assert main(["infer", str(SCENARIOS / "flying-bird-1.json"), "--eps", eps]) == 0
    assert "holds: True" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(REPRODUCTIONS))
def test_reproductions_match_goldens(name, capsys):
    assert main(["reproduce", name, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["golden_match"] is True


def test_reproduce_unknown_name(capsys):
    assert main(["reproduce", "nope"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown reproduction 'nope'")


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
    ({"spaces": [5]}, "/spaces/0"),
    ({"spaces": [{"name": "X", "vocabulary": "ab"}]}, "/spaces/0/vocabulary"),
    ({"embeddings": 5}, "/embeddings"),
    ({"embeddings": [{"kind": "surjection", "src": "X", "dst": "X",
                      "map": {"0": 0, "1": 1, "2": 2, "3": True}}]}, "/embeddings/0/map/3"),
    ({"embeddings": [{"kind": "surjection", "src": "X", "dst": "X",
                      "map": {"0": 0, "1": 1, "2": 2, "3": 3, "4": 0}}]}, "/embeddings/0"),
], ids=["empty-prior-list", "prior-row-not-a-list", "unknown-prior", "procedure-not-object",
        "kb-not-string", "queries-not-list", "space-not-object", "vocabulary-not-list",
        "embeddings-not-list", "map-value-not-integer", "map-key-beyond-target"])
def test_malformed_field_is_validation_error(tmp_path, capsys, field, path):
    scenario = {"spaces": [{"name": "X", "vocabulary": ["a", "b"]}], "kb": "P(a) >= 1/2",
                "queries": ["P(a) >= 1/4"], **field}
    bad = tmp_path / "s.json"
    bad.write_text(json.dumps(scenario))
    assert main(["infer", str(bad)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {path}:") and "\n" not in err


@pytest.mark.parametrize("field, path", [
    ({"procedur": {"kind": "i1"}}, "/procedur"),
    ({"spaces": [{"name": "X", "vocabulary": ["a", "b"], "restrict": "a"}]}, "/spaces/0/restrict"),
    ({"procedure": {"knd": "i1"}}, "/procedure/knd"),
    ({"embeddings": [{"kind": "permutation", "space": "X", "pi": [1, 0, 2, 3],
                      "note": "swap"}]}, "/embeddings/0/note"),
], ids=["root", "space", "procedure", "embedding"])
def test_unknown_key_is_validation_error(tmp_path, capsys, field, path):
    # the format is closed: a typo must not silently fall back to a default
    scenario = {"spaces": [{"name": "X", "vocabulary": ["a", "b"]}], **field}
    bad = tmp_path / "s.json"
    bad.write_text(json.dumps(scenario))
    assert main(["infer", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {path}: unknown key\n"


@pytest.mark.parametrize("procedure, flag", [
    ({"kind": "entailment"}, "entailment"),
    ({"kind": "maxent"}, "maxent"),
    ({"kind": "i0"}, "i0"),
    ({"kind": "i1"}, "i1"),
    ({"kind": "broken"}, "broken"),
    ({"kind": "prior_based", "prior": "product_family"}, "product-prior"),
])
def test_scenario_kind_builds_the_flag_procedure(procedure, flag):
    scenario = read_scenario({"spaces": [{"name": "X", "vocabulary": ["p"]}],
                              "procedure": procedure})
    assert scenario.procedure == _PROCS[flag]()


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


@pytest.mark.parametrize("prior", [{}, {"Y": [[0.5, 0.5]]}], ids=["empty", "other-space"])
def test_prior_map_without_the_queried_space_is_validation_error(tmp_path, capsys, prior):
    scenario = {
        "spaces": [{"name": "X", "vocabulary": ["a", "b"]}, {"name": "Y", "vocabulary": ["c"]}],
        "kb": "P(a) >= 1/2",
        "queries": ["P(a) >= 1/4"],
        "procedure": {"kind": "prior_based", "prior": prior},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["infer", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no prior declared for ")


def test_interpretation_product_and_permutation_embeddings(tmp_path, capsys):
    surjection = {"kind": "surjection", "src": "C", "dst": "F",
                  "map": {"0": 0, "1": 1, "2": 1, "3": 1}}
    interpretation = {"kind": "interpretation", "src": "C", "dst": "F",
                      "map": {"colorful": "red | blue"}}
    scenario = {
        "spaces": [{"name": "C", "vocabulary": ["colorful"]},
                   {"name": "F", "vocabulary": ["red", "blue"]},
                   {"name": "P", "factors": ["C", "C"]}],
        "embeddings": [interpretation,
                       {"kind": "product", "parts": [surjection, interpretation]},
                       {"kind": "permutation", "space": "P", "pi": [1, 0]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["check-embedding", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["kind"] for e in payload["embeddings"]] == ["interpretation", "product",
                                                         "permutation"]
    assert all(e["faithful"] for e in payload["embeddings"])

    c, f = enumerate_worlds(["colorful"]), enumerate_worlds(["red", "blue"])
    interp = from_interpretation({"colorful": "red | blue"}, c, f)
    expected = [interp,
                product_embedding([from_surjection(c, f, [0, 1, 1, 1]), interp]),
                permutation_embedding(product_space([c, c]), [1, 0])]
    built = [emb for _, emb in load_scenario(str(path)).embeddings]
    assert [e.world_map for e in built] == [e.world_map for e in expected]
    assert [(e.source, e.target) for e in built] == [(e.source, e.target) for e in expected]


# Every single-field mutation of the bundled scenarios: delete the field,
# or set it to one of these values.
_VALUES = [None, 5, -1, "x", "", [], {}, [5], {"a": 1}, True, 1e308]
_DELETE = object()


def _field_paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _field_paths(child, path + (key,))


def _mutated(doc, path, new):
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def _mentions(value, name):
    if isinstance(value, dict):
        value = list(value.values())
    return value == name or isinstance(value, list) and any(_mentions(v, name) for v in value)


def _names_a_related_field(message, doc, path, mutated):
    """The error's path is at, above or below the mutated field, or the
    field it names refers to the space whose declaration was mutated."""
    named = [k for k in message.split(": ", 1)[0].split("/") if k]
    n = min(len(named), len(path))
    if named[:n] == [str(k) for k in path[:n]]:
        return True
    if len(path) < 2 or path[0] != "spaces":
        return False
    for key in named:
        mutated = mutated[int(key) if isinstance(mutated, list) else key]
    return _mentions(mutated, doc["spaces"][path[1]]["name"])


def _is_one_clean_error(err, doc, path, mutated):
    if len(err) != 1 or not err[0].startswith("error: "):
        return False
    message = err[0][len("error: "):]
    if message.startswith("/"):
        return _names_a_related_field(message, doc, path, mutated)
    # only kb/query text and a missing finite prior are reported without a path
    return (re.search(r"\(at position \d+\)$", message) is not None
            or message.startswith("no prior declared for "))


def test_every_single_field_mutation_exits_cleanly(tmp_path, capsys):
    file = tmp_path / "m.json"
    runs, failures = 0, []
    for scenario in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(scenario.read_text())
        for path in list(_field_paths(doc)):
            for new in ([_DELETE] if path else []) + _VALUES:
                mutated = _mutated(doc, path, new)
                file.write_text(json.dumps(mutated))
                for command in ("infer", "check-embedding", "check-invariance"):
                    runs += 1
                    try:
                        code = main([command, str(file)])
                    except Exception as exc:  # every raise is a failure
                        code = repr(exc)
                    err = capsys.readouterr().err.splitlines()
                    if code in (0, 1) or code == 2 and _is_one_clean_error(err, doc, path, mutated):
                        continue
                    failures.append((scenario.name, path, repr(new), command, code, err))
    assert runs == 2868
    assert failures == []
