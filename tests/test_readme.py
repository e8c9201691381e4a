"""README.md against the source tree it describes."""

import argparse
import re
from pathlib import Path

import numpy as np

from gpgs import cli, gp, sfm_io
from oracles import read_ply_oracle
from synthdata import surface_colmap_model

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


def test_options_table_lists_every_flag_with_its_default():
    # the table's rows are exactly the flags the parser defines, each with
    # the default a run gets when the flag is absent
    table = readme().split("## Options", 1)[1].split("\n\n")[2]
    rows = dict(re.findall(r"^\| `(--[\w-]+)` \| ([^|]+?) \|", table, flags=re.MULTILINE))
    [subcommands] = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    defaults = cli.RunConfig()
    for parser in subcommands.choices.values():
        flags = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
        assert sorted(rows) == sorted(a.option_strings[0] for a in flags)
        for action in flags:
            cell = rows[action.option_strings[0]]
            default = getattr(defaults, action.dest, None)
            if isinstance(action, argparse._StoreConstAction):  # a switch: on or off
                assert cell == ("on" if default == action.const else "off")
            elif default is None:
                assert cell == "—"
            elif isinstance(default, (int, float)):
                assert float(cell.strip("`")) == default, action.dest
            else:
                assert cell.strip("`") == default, action.dest


def test_posterior_memory_bullet_states_the_query_block():
    # every block width the posterior's memory bullet names is _QUERY_CHUNK
    [bullet] = re.findall(r"^- The posterior holds .*?(?=^- |^$)", readme(),
                          flags=re.MULTILINE | re.DOTALL)
    widths = re.findall(r"\((\d+), n\)|blocks of (\d+)|O\(n · (\d+)\)", bullet)
    assert len(widths) == 3
    assert {int("".join(width)) for width in widths} == {gp._QUERY_CHUNK}


def test_library_use_snippet_writes_a_densified_cloud(tmp_path, monkeypatch):
    # the snippet runs as printed, on a COLMAP model in colmap/
    code = readme().split("## Library use", 1)[1].split("```python\n", 1)[1].split("```")[0]
    model_dir, _, _ = surface_colmap_model(tmp_path / "colmap", 600, 120, seed=0)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    sources = read_ply_oracle(tmp_path / "cloud.ply").sources
    n_sparse = len(sfm_io.parse_colmap_model(model_dir).points3d)
    assert np.count_nonzero(sources == sfm_io.PointSource.SFM) == n_sparse
    assert np.count_nonzero(sources == sfm_io.PointSource.GP) >= 1
