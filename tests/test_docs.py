"""README's description of the package stays true to its source."""

import importlib
import re
from pathlib import Path

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
