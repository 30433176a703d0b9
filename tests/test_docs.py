"""README's description of the package stays true to its source."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

from trajdiff import cli

ROOT = Path(__file__).resolve().parents[1]


def test_layout_table_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `trajdiff\.(\w+)` \|", readme, re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "trajdiff").glob("*.py")} - {"__init__"}
    assert sorted(table) == sorted(modules)


def test_module_references_name_existing_attributes():
    # a backticked `module.name` or `module.name.attr` of a trajdiff module
    # must resolve, so the README cannot name code that is gone;
    # `model.tjdf` is the model file
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S))
    modules = {p.stem for p in (ROOT / "src" / "trajdiff").glob("*.py")} - {"__init__"}
    refs = {tuple(filter(None, m.groups()))
            for m in map(re.compile(r"(\w+)\.(\w+)(?:\.(\w+))?").match, spans)
            if m and m[1] in modules and m.group(1, 2) != ("model", "tjdf")}
    missing = []
    for module, *names in sorted(refs):
        obj = importlib.import_module(f"trajdiff.{module}")
        try:
            for name in names:
                obj = getattr(obj, name)
        except AttributeError:
            missing.append(".".join([module, *names]))
    assert len(refs) > 30 and missing == []


def test_exit_code_table_lists_the_codes_main_returns():
    # the codes in README's exit-code table are the literals that
    # ``cli.main`` and the commands it runs return
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| code | failure |", 1)[1].split("\n\n", 1)[0]
    listed = {int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)}
    returned = {int(c) for f in (cli.main, *cli._COMMANDS.values())
                for c in re.findall(r"\breturn (\d+)\b", inspect.getsource(f))}
    assert listed == returned == {0, 1, 2, 3}


def test_test_imports_are_declared_dependencies():
    # every top-level module the tests import is the standard library's,
    # the package's, a test helper, or a declared dependency
    tomllib = pytest.importorskip("tomllib")           # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_")
                for req in [*project["dependencies"], *project["optional-dependencies"]["test"]]}
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    allowed = {*sys.stdlib_module_names, "trajdiff", "conftest", "references", *declared}
    assert {"numpy", "pytest", "hypothesis"} <= imported and imported - allowed == set()
