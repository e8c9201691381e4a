"""README.md against the source tree it describes."""

import re
from pathlib import Path

from gpgs import gp

ROOT = Path(__file__).resolve().parents[1]


def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_layout_names_every_module():
    # the Layout block lists each module of src/gpgs, and no other file
    block = readme().split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py)\s", block, flags=re.MULTILINE)
    modules = sorted(path.name for path in (ROOT / "src" / "gpgs").glob("*.py"))
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))


def test_posterior_memory_bullet_states_the_query_block():
    # every block width the posterior's memory bullet names is _QUERY_CHUNK
    [bullet] = re.findall(r"^- The posterior holds .*?(?=^- |^$)", readme(),
                          flags=re.MULTILINE | re.DOTALL)
    widths = re.findall(r"\((\d+), n\)|blocks of (\d+)|O\(n · (\d+)\)", bullet)
    assert len(widths) == 3
    assert {int("".join(width)) for width in widths} == {gp._QUERY_CHUNK}
