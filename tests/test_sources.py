import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import credal
from credal import entail, simplex

SOURCES = sorted(Path(credal.__file__).parent.rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_python_3_11_syntax_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_readme_tunables_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Solver tunables"):].split("\n\n")[0]
    named = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", paragraph)
    assert named
    for module, constant in named:
        assert hasattr(importlib.import_module(f"credal.{module}"), constant), (module, constant)


def _trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def test_one_float_tolerance_literal():
    # 1e-9 is written once, as measures.EPS; every other use reads EPS
    found = [(path, node.lineno) for path, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and node.value == 1e-9]
    lines = [path.read_text(encoding="utf-8").splitlines()[line - 1] for path, line in found]
    names = [(path.name, text.split("=")[0].strip()) for (path, _), text in zip(found, lines)]
    assert names == [("measures.py", "EPS")]


def test_eps_parameters_default_to_eps():
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            for arg, default in zip(positional + args.kwonlyargs, defaults + args.kw_defaults):
                if arg.arg == "eps" and default is not None:
                    assert isinstance(default, ast.Name) and default.id == "EPS", \
                        (path.name, fn.lineno)


def _top_level_calls(name):
    """(module, top-level definition) of every call to `name`."""
    return {(path.name, getattr(top, "name", None))
            for path, tree in _trees() for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}


def test_cells_are_built_only_by_entail_cells():
    # a kb's cells are built once per (kb, space), by the memo entail.cells
    assert _top_level_calls("Cell") == {("entail.py", "cells")}


def test_normal_forms_are_read_through_cells():
    # a kb's cells are read from the memo entail.cells; to_dnf is walked
    # directly only by it and by kl_project's own-projection test, which
    # builds no Cell
    assert _top_level_calls("to_dnf") == {("entail.py", "cells"), ("optimize.py", "kl_project")}


def test_lp_is_solved_only_by_cell():
    # the LP rows have one home: Cell builds them and is the one caller
    # of simplex.solve_lp
    assert _top_level_calls("solve_lp") == {("entail.py", "Cell")}


def test_lp_rows_are_built_only_by_cell():
    # one row type goes into the solver: Cell builds every integer Row,
    # its atoms' through _atom_row and its pins' on each LP, and simplex
    # converts no rational row
    assert _top_level_calls("Row") == {("entail.py", "Cell"), ("entail.py", "_atom_row")}
    assert not hasattr(simplex, "scale_row")
    assert inspect.signature(simplex.solve_lp).parameters["rows"].annotation == "Sequence[Row]"
    # and Cell.solve is the one method that hands rows to the solver
    callers = {fn.name for fn in ast.walk(ast.parse(inspect.getsource(entail.Cell)))
               if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "solve_lp"}
    assert callers == {"solve"}


def test_duplicate_columns_are_found_only_by_the_solver():
    # LP column classes have one home: simplex.solve_lp finds its own
    # duplicate columns and takes no list of them, and entail computes none
    assert "columns" not in inspect.signature(simplex.solve_lp).parameters
    assert not {"_event_classes", "_refine", "_split", "_carried"} & set(vars(entail))
    assert "_classes" not in inspect.getsource(entail.Cell)


def test_vertices_are_found_only_by_the_solver():
    # vertex enumeration has one home, the walk over the tableau's
    # feasible bases in simplex.vertices: entail keeps no second exact
    # engine and no size cap, and imports nothing to choose rows with
    assert not {"_eliminate", "_basis_rows", "VERTEX_CELL_CAP"} & set(vars(entail))
    assert not hasattr(entail.Cell, "bases")
    tree = ast.parse(inspect.getsource(entail))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"combinations", "comb"} & names


def test_each_question_has_one_call():
    # whether a cell is nonempty, with or without pins, is asked of
    # Cell.witness and its vertices of Cell.vertices; compare is the
    # float rule alone; faithfulness is embeddings.is_faithful; and a
    # feasibility report says feasible or not, with its witness; a
    # question's space is constraints.space_of's, and an atom's
    # coefficients are on its own space
    from dataclasses import fields

    from credal import procedures
    from credal.constraints import LinearAtom, compare
    from credal.embeddings import Embedding

    assert not {"feasible", "vertices_within"} & set(vars(entail.Cell))
    assert list(inspect.signature(entail.Cell.witness).parameters) == ["self", "pins"]
    assert list(inspect.signature(entail.Cell.vertices).parameters) == ["self", "limit"]
    assert "exact" not in inspect.signature(compare).parameters
    assert not hasattr(Embedding, "is_surjective")
    assert [f.name for f in fields(entail.FeasibilityReport)] == ["feasible", "witness"]
    assert not hasattr(procedures, "_resolve_space")
    assert list(inspect.signature(LinearAtom.coefficients).parameters) == ["self"]


def test_the_sigma_extension_is_built_by_the_measure_algebra():
    # the coupling of the source paper's proof has one home,
    # measures.couple, and the uniform measure on U_i is the uniform
    # measure conditioned on U_i: the demo and the gadget's witnesses
    # call them rather than expanding weights by hand
    assert ("harness.py", "conservative_extension_demo") in _top_level_calls("couple")
    assert ("harness.py", "gadget_witnesses") in _top_level_calls("condition")


def test_cell_reads_only_its_integer_rows():
    # the atoms' exact encoding has one home, the integer simplex.Rows:
    # no code in Cell computes with a rational copy of the atoms
    assert ("entail.py", "Cell") not in _top_level_calls("coefficients")


def _functions(tree):
    """(def, name of the class it is a method of, or None) for every def."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, cls))
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return out


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # a default that no call overrides is a constant, not a knob: for
    # each defaulted parameter of a function in src/credal, some call in
    # src/credal, bench or tests passes it by position or keyword (a
    # call of a class passes its __init__'s; a starred argument passes
    # them all)
    root = Path(__file__).resolve().parents[1]
    calls = [node for path in SOURCES + sorted((root / "bench").rglob("*.py"))
             + sorted((root / "tests").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    unset = []
    for path, tree in _trees():
        for fn, cls in _functions(tree):
            args = fn.args
            positional = args.posonlyargs + args.args
            if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                           for d in fn.decorator_list):
                positional = positional[1:]
            defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]
                         if args.defaults]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            names = {fn.name, cls} if fn.name == "__init__" else {fn.name}
            passed = set()
            for call in calls:
                if getattr(call.func, "id", getattr(call.func, "attr", None)) not in names:
                    continue
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    passed.update(defaulted)
                passed.update(a.arg for a in positional[:len(call.args)])
                passed.update(k.arg for k in call.keywords)
            unset += [(path.name, fn.name, name) for name in defaulted if name not in passed]
    assert unset == []


def test_lru_caches_decorate_module_level_functions():
    # bench/run.py clears the caches it finds on credal's modules before
    # each round, so a cache anywhere else would start rounds warm
    for path, tree in _trees():
        uses = {id(node) for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "lru_cache"
                or isinstance(node, ast.Attribute) and node.attr == "lru_cache"}
        decorating = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                      for deco in fn.decorator_list for node in ast.walk(deco)}
        assert uses <= decorating, path.name
