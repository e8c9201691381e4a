"""Exit-code fuzz suite: mutated input files through cli.main.

Starting from a small valid model file and dataset CSV, hypothesis
replaces, deletes and inserts tokens; `gpgs densify` and `gpgs train`
must exit 0, 2 (bad input data) or 3 (numerical failure), and no
exception may escape main. Each file of a COLMAP text model goes the
same way through `gpgs build-dataset`, which must exit 0 or 2. The search
is derandomized and keeps no example database, so every run tries the
same cases.
"""

import re
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpgs import cli
from synthdata import write_colmap_fixture

_SEPARATOR = re.compile(r"([,\s]+)")
VALUES = ["0", "-1", "1e308", "nan", "inf", "3.5e38", "2147483648", "9" * 30, "", "word"]
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "delete", "insert"]),
        st.integers(0, 2**16),
        st.sampled_from(VALUES),
    ),
    min_size=1, max_size=3,
)
FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# The train_points value is the tenth token of a model file.
TRAIN_POINTS = 9


def mutate(text: str, edits, sep: str) -> str:
    """text with each (kind, index, value) edit applied in turn to its
    index-th token (modulo the token count), tokens being the runs between
    commas and whitespace; sep separates an inserted value from the token
    it precedes."""
    parts = _SEPARATOR.split(text)  # tokens at even indices, separators at odd
    for kind, index, value in edits:
        tokens = [i for i in range(0, len(parts), 2) if parts[i]]
        i = tokens[index % len(tokens)]
        if kind == "replace":
            parts[i] = value
        elif kind == "delete":
            parts[i] = ""
            if i + 1 < len(parts):
                parts[i + 1] = ""
        else:
            parts[i] = value + sep + parts[i]
    return "".join(parts)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A COLMAP model, its top frame's dataset CSV and a model file trained
    on it, and a directory for the mutated files and outputs."""
    root = tmp_path_factory.mktemp("fuzz")
    model_dir = write_colmap_fixture(root / "colmap")
    ds, model = root / "ds.csv", root / "model.txt"
    assert cli.main(["build-dataset", "--model-dir", str(model_dir), "--output", str(ds)]) == 0
    assert cli.main(
        ["train", "--dataset", str(ds), "--output", str(model), "--iterations", "2"]
    ) == 0
    assert "train_points X" in mutate(model.read_text(), [("replace", TRAIN_POINTS, "X")], " ")
    work = root / "work"
    work.mkdir()
    return model_dir, ds.read_text(), model.read_text(), work


@FUZZ
@given(edits=EDITS)
# counts that no file of this size holds once crashed allocating its sections
@example(edits=[("replace", TRAIN_POINTS, "2147483648")])
@example(edits=[("replace", TRAIN_POINTS, "99999999999999")])
def test_densify_on_a_mutated_model_file(valid, edits):
    model_dir, _, model_text, work = valid
    model = work / "model.txt"
    model.write_text(mutate(model_text, edits, " "))
    code = cli.main([
        "densify", "--model-dir", str(model_dir), "--gp-model", str(model),
        "--output", str(work / "cloud.ply"),
    ])
    assert code in (0, 2, 3)


@FUZZ
@given(edits=EDITS)
def test_train_on_a_mutated_dataset_csv(valid, edits):
    _, ds_text, _, work = valid
    ds = work / "ds.csv"
    ds.write_text(mutate(ds_text, edits, ","))
    code = cli.main([
        "train", "--dataset", str(ds), "--output", str(work / "model_out.txt"),
        "--iterations", "2",
    ])
    assert code in (0, 2, 3)


@FUZZ
@given(edits=EDITS)
@pytest.mark.parametrize("name", ["cameras.txt", "images.txt", "points3D.txt"])
def test_build_dataset_on_a_mutated_colmap_file(valid, name, edits):
    model_dir, _, _, work = valid
    mutated = work / "colmap"
    shutil.copytree(model_dir, mutated, dirs_exist_ok=True)
    (mutated / name).write_text(mutate((model_dir / name).read_text(), edits, " "))
    code = cli.main([
        "build-dataset", "--model-dir", str(mutated), "--output", str(work / "ds_out.csv"),
    ])
    assert code in (0, 2)
