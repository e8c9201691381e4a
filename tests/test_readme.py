"""README.md against the source tree it describes."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from gpgs import cli, errors, gp, sfm_io
from oracles import read_ply_oracle
from synthdata import surface_colmap_model, write_colmap_fixture

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


# One input that breaks each rule of a reader: (file, text in it, its
# replacement); an empty text appends the replacement.
_COLMAP_BREAKS = [
    ("cameras.txt", "PINHOLE 400 400", "PINHOLE 0 400"),
    ("cameras.txt", "PINHOLE 400 400", f"PINHOLE 400 {sfm_io.MAX_IMAGE_SIDE + 1}"),
    ("cameras.txt", "", "1 PINHOLE 400 400 350 350 200 200\n"),
    ("images.txt", "2 1 0 0 0 0.5", f"{2**63} 1 0 0 0 0.5"),
    ("images.txt", "2 1 0 0 0 0.5", f"{-(2**63) - 1} 1 0 0 0 0.5"),
    ("images.txt", "2 1 0 0 0 0.5", "1 1 0 0 0 0.5"),
    ("images.txt", "200 100 101", "nan 100 101"),
    ("images.txt", "200 100 101", "1e39 100 101"),
    ("points3D.txt", "101 1 2 3", "101 inf 2 3"),
    ("points3D.txt", "101 1 2 3", "101 -1e39 2 3"),
    ("points3D.txt", "102 0.5", "101 0.5"),
    ("points3D.txt", "255 0 0 0.5", "255 0 256 0.5"),
]
# A dataset CSV's lines: (line index, token index or None for the whole
# line, replacement).
_DATASET_BREAKS = [
    (0, None, f"# image_id = {2**63}"), (1, None, "# width = 0"),
    (4, 0, "nan"), (4, 1, "1e39"), (4, 3, "nan"), (4, 4, "-1e39"), (4, 2, "0"),
]


def _reader_messages(tmp_path) -> list[str]:
    """The message of each rule a reader of the COLMAP files, a dataset CSV
    or a PFM header applies, without its path and line."""
    def message(read) -> str:
        with pytest.raises(errors.InputDataError) as caught:
            read()
        error = caught.value
        malformed = isinstance(error, errors.MalformedLine)
        where = f"{error.path}:{error.line_number}" if malformed else pfm
        assert str(error).startswith(f"{where}: ")
        return str(error)[len(f"{where}: "):]

    messages, pfm = [], tmp_path / "d.pfm"
    for k, (name, old, new) in enumerate(_COLMAP_BREAKS):
        path = write_colmap_fixture(tmp_path / f"colmap{k}") / name
        text = path.read_text()
        path.write_text(text.replace(old, new, 1) if old else text + new)
        messages.append(message(lambda: sfm_io.parse_colmap_model(path.parent)))
    ds = sfm_io.PixelToPointDataset(1, 400, 400, np.array([[0.5, 0.5, 2.0]]),
                                    np.array([[1.0, 2.0, 3.0, 0.5, 0.5, 0.5]]))
    for k, (line, token, new) in enumerate(_DATASET_BREAKS):
        path = tmp_path / f"ds{k}.csv"
        sfm_io.write_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        tokens = lines[line].split(",")
        tokens[0 if token is None else token] = new
        lines[line] = ",".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        messages.append(message(lambda: sfm_io.read_dataset_csv(path)))
    pfm.write_bytes(b"Pf\n0 1\n-1.0\n")
    messages.append(message(lambda: sfm_io.read_depth_pfm(pfm)))
    return messages


def test_rule_table_names_every_reader_rule_message(tmp_path):
    # the table's messages, <...> standing for a value, are exactly those
    # that breaking each reader rule gives
    table = readme().split("Each input value has one rule", 1)[1].split("\n\n")[1]
    cells = re.findall(r"^\|.*\| ([^|]+) \|$", table, flags=re.MULTILINE)
    listed = [m for cell in cells for m in re.findall(r"`([^`]+)`", cell)]
    patterns = {m: re.sub(r"<[\w-]+>", r"\\S+", re.escape(m)) for m in listed}
    matched = set()
    for got in _reader_messages(tmp_path):
        hits = [m for m, pattern in patterns.items() if re.fullmatch(pattern, got)]
        assert hits, f"README's rule table lacks {got!r}"
        matched.update(hits)
    assert sorted(matched) == sorted(listed)
