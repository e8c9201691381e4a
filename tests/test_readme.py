"""README.md against the source tree it describes."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layout_names_every_module():
    # the Layout block lists each module of src/gpgs, and no other file
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py)\s", block, flags=re.MULTILINE)
    modules = sorted(path.name for path in (ROOT / "src" / "gpgs").glob("*.py"))
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))
