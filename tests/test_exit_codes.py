"""Exit-code fuzz suite: mutated input files through cli.main.

Starting from a small valid model file and dataset CSV, hypothesis
replaces, deletes and inserts tokens; `gpgs densify` and `gpgs train`
must exit 0, 2 (bad input data) or 3 (numerical failure), and no
exception may escape main. Each file of a COLMAP text model goes the
same way through `gpgs build-dataset`, which must exit 0 or 2, and so
does a PFM depth map whose header tokens and separators or payload bytes
are mutated, or which has bytes cut from or added to its end; it exits 0
only when one byte ends its header and exactly the payload follows. The
COLMAP files and the depth map also go through `gpgs pipeline`, which
must exit 0 or 2 (0 only for a well-formed map), the depth map feeding
both its dataset and its candidates' depths.
The search is derandomized and keeps no example database, so every run
tries the same cases.
"""

import re
import shutil
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpgs import cli
from synthdata import surface_colmap_model, write_colmap_fixture

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


@pytest.fixture(scope="module")
def pipeline_scene(tmp_path_factory):
    """A COLMAP model of one 20x10 image with 40 linked features, on which
    pipeline runs, and a directory for the mutated files and outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    model_dir, _, _ = surface_colmap_model(root / "colmap", 500, 40, 0, width=20, height=10)
    work = root / "work"
    work.mkdir()
    assert cli.main(["pipeline", "--model-dir", str(model_dir), "--output", str(work / "run"),
                     "--iterations", "3"]) == 0
    return model_dir, work


@FUZZ
@given(edits=EDITS)
@pytest.mark.parametrize("name", ["cameras.txt", "images.txt", "points3D.txt"])
def test_pipeline_on_a_mutated_colmap_file(pipeline_scene, name, edits):
    model_dir, work = pipeline_scene
    mutated = work / "colmap"
    shutil.copytree(model_dir, mutated, dirs_exist_ok=True)
    (mutated / name).write_text(mutate((model_dir / name).read_text(), edits, " "))
    code = cli.main([
        "pipeline", "--model-dir", str(mutated), "--output", str(work / "run"),
        "--iterations", "3",
    ])
    assert code in (0, 2)


# A 20x10 depth map: header tokens magic, width, height and scale, each
# followed by one separator, then 800 bytes of little-endian floats.
PFM_TOKENS = ("Pf", "20", "10", "-1")
PFM_PAYLOAD = struct.pack("<200f", *(1.0 + i / 200 for i in range(200)))
PFM_VALUES = ["Pf", "PF", "0", "-1", "nan", "inf", "1e400", "2147483648", "", "word"]
# Mutations of that map: header token edits, the four separators, payload
# byte flips, a cut of the payload and bytes added after it.
PFM_MUTATIONS = dict(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["replace", "delete", "insert"]),
            st.integers(0, 2**16),
            st.sampled_from(PFM_VALUES),
        ),
        max_size=3,
    ),
    separators=st.lists(
        st.sampled_from(["\n", " ", "\t", "\r\n", "  ", "\n\n"]), min_size=4, max_size=4
    ),
    flips=st.lists(st.tuples(st.integers(0, len(PFM_PAYLOAD) - 1), st.integers(1, 255)),
                   max_size=3),
    keep=st.one_of(st.none(), st.integers(0, len(PFM_PAYLOAD) - 1)),
    extra=st.binary(max_size=2),
)


def write_mutated_pfm(pfm, edits, separators, flips, keep, extra) -> str:
    """Write the mutated depth map to pfm; return its header."""
    text = "".join(token + sep for token, sep in zip(PFM_TOKENS, separators))
    header = mutate(text, edits, separators[0])
    payload = bytearray(PFM_PAYLOAD)
    for index, mask in flips:
        payload[index] ^= mask
    pfm.write_bytes(header.encode() + bytes(payload[:keep]) + extra)
    return header


def assert_read_only_if_well_formed(code, header, keep, extra) -> None:
    """The exit code of a command on a mutated map is 0 or 2, and 0 only
    for a header ended by one byte, then exactly the whole payload."""
    assert code in (0, 2)
    if code == 0:
        assert header[-1:].isspace() and not header[-2:-1].isspace()
        assert keep is None and extra == b""


@pytest.fixture(scope="module")
def depth_scene(tmp_path_factory):
    """A COLMAP model of one 20x10 image, named surface.png, whose valid
    depth map builds a dataset and runs pipeline; the build-dataset and
    pipeline arguments, and the depth map's path."""
    root = tmp_path_factory.mktemp("pfm")
    model_dir, _, _ = surface_colmap_model(root / "colmap", 500, 40, 0, width=20, height=10)
    depth_dir = root / "depth"
    depth_dir.mkdir()
    (depth_dir / "surface.pfm").write_bytes(("\n".join(PFM_TOKENS) + "\n").encode() + PFM_PAYLOAD)
    inputs = ["--model-dir", str(model_dir), "--depth-dir", str(depth_dir)]
    build = ["build-dataset", *inputs, "--output", str(root / "ds.csv")]
    pipeline = ["pipeline", *inputs, "--output", str(root / "run"), "--iterations", "3"]
    assert cli.main(build) == 0
    assert cli.main(pipeline) == 0
    return build, pipeline, depth_dir / "surface.pfm"


@FUZZ
@given(**PFM_MUTATIONS)
# a header that ends in two bytes, and a byte after the payload, were once
# read one byte off and accepted
@example(edits=[], separators=["\n", "\n", "\n", "\r\n"], flips=[], keep=None, extra=b"")
@example(edits=[], separators=["\n", " ", "\n", "\n"], flips=[], keep=None, extra=b"\0")
def test_build_dataset_on_a_mutated_depth_map(depth_scene, edits, separators, flips, keep,
                                              extra):
    build, _, pfm = depth_scene
    header = write_mutated_pfm(pfm, edits, separators, flips, keep, extra)
    assert_read_only_if_well_formed(cli.main(build), header, keep, extra)


@FUZZ
@given(**PFM_MUTATIONS)
def test_pipeline_on_a_mutated_depth_map(depth_scene, edits, separators, flips, keep, extra):
    # pipeline reads the map once: its depths feed the dataset and then
    # the candidates (attach_depth)
    _, pipeline, pfm = depth_scene
    header = write_mutated_pfm(pfm, edits, separators, flips, keep, extra)
    assert_read_only_if_well_formed(cli.main(pipeline), header, keep, extra)
