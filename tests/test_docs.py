"""README's description of the package stays true to its source."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layout_table_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `trajdiff\.(\w+)` \|", readme, re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "trajdiff").glob("*.py")} - {"__init__"}
    assert sorted(table) == sorted(modules)
