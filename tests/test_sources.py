import ast
import importlib
import re
from pathlib import Path

import pytest

import credal

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
