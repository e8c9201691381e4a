"""Command-level tests: flags, config files, exit codes, artifacts."""

import dataclasses
import math
import os
import struct
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gpgs import cli, gp, model_io, sfm_io
from gpgs import densify as dn
from oracles import read_ply_oracle
from synthdata import surface_colmap_model, write_colmap_fixture


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def fixture_dir(tmp_path):
    return write_colmap_fixture(tmp_path / "colmap")


@pytest.fixture()
def surface_dir(tmp_path):
    model_dir, _, _ = surface_colmap_model(tmp_path / "surface", 600, 120, seed=0)
    return model_dir


def assert_replays(out, again):
    """Replaying out's run-config.txt into again writes every other
    artifact of out byte for byte."""
    assert run("pipeline", "--config", str(out / "run-config.txt"), "--output", str(again)) == 0
    artifacts = sorted(p.name for p in out.iterdir())
    assert artifacts == sorted(p.name for p in again.iterdir())
    for name in artifacts:
        if name != "run-config.txt":
            assert (out / name).read_bytes() == (again / name).read_bytes(), name


def write_flat_pfm(path, width=400, height=400, value=1.0):
    header = f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
    payload = struct.pack(f"<{width * height}f", *([value] * (width * height)))
    path.write_bytes(header + payload)


class TestBuildDataset:
    def test_row_count_matches_top_frame(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "ds.csv"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(out)) == 0
        ds = sfm_io.read_dataset_csv(out)
        assert len(ds) == 5
        table = capsys.readouterr().out
        assert "rank" in table and "frame1.png" in table

    def test_two_key_frames_write_suffixed_files(self, fixture_dir, tmp_path):
        out = tmp_path / "ds.csv"
        assert run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--key-frames", "2",
        ) == 0
        assert (tmp_path / "ds_frame1.csv").exists()
        assert (tmp_path / "ds_frame2.csv").exists()
        assert not out.exists()

    def test_missing_points3d_exits_2(self, fixture_dir, tmp_path, capsys):
        (fixture_dir / "points3D.txt").unlink()
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"),
        )
        assert code == 2
        assert "points3D" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "size", [f"{sfm_io.MAX_IMAGE_SIDE + 1} 400", "400 1" + "0" * 400], ids=["2^31", "10^400"]
    )
    def test_image_side_above_bound_exits_2(self, fixture_dir, tmp_path, capsys, size):
        # a side of 10^400 once crashed converting it to float
        cameras = fixture_dir / "cameras.txt"
        cameras.write_text(cameras.read_text().replace("PINHOLE 400 400", f"PINHOLE {size}"))
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{cameras}:3: image side above {sfm_io.MAX_IMAGE_SIDE}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("image_id", [2**63, -(2**63) - 1])
    def test_image_id_outside_int64_exits_2(self, fixture_dir, tmp_path, capsys, image_id):
        # such an id once crashed building the int64 array of image ids
        images = fixture_dir / "images.txt"
        images.write_text(images.read_text().replace("2 1 0 0 0 0.5", f"{image_id} 1 0 0 0 0.5"))
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{images}:6: image id outside int64" in err
        assert "Traceback" not in err

    def test_run_config_echoed(self, fixture_dir, tmp_path):
        out = tmp_path / "runs" / "ds.csv"
        out.parent.mkdir()
        run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(out))
        text = (tmp_path / "runs" / "run-config.txt").read_text()
        assert "key_frames = 1" in text
        assert "beta = 0.25" in text

    def test_depth_dir_missing_pfm_exits_2(self, fixture_dir, tmp_path, capsys):
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"), "--depth-dir", str(tmp_path),
        )
        assert code == 2
        assert "frame1.pfm" in capsys.readouterr().err

    def test_depth_dir_adds_column(self, fixture_dir, tmp_path):
        write_flat_pfm(tmp_path / "frame1.pfm")
        out = tmp_path / "ds.csv"
        assert run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--depth-dir", str(tmp_path),
        ) == 0
        ds = sfm_io.read_dataset_csv(out)
        assert ds.has_depth

    @pytest.mark.parametrize("old,new", [
        (b"-1.0\n", b"-1.0\r\n"),  # a two-byte end of header
        (b"-1.0\n", b"0\n"),  # a zero scale
        (None, b"\0"),  # a trailing byte
    ], ids=["two-byte-header-end", "zero-scale", "trailing-byte"])
    def test_malformed_depth_map_exits_2(self, fixture_dir, tmp_path, capsys, old, new):
        pfm = tmp_path / "frame1.pfm"
        write_flat_pfm(pfm)
        data = pfm.read_bytes()
        pfm.write_bytes(data + new if old is None else data.replace(old, new, 1))
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"), "--depth-dir", str(tmp_path),
        )
        assert code == 2
        assert "frame1.pfm" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["-3", "0"])
    def test_non_positive_depth_in_dataset_exits_2(self, fixture_dir, tmp_path, capsys, depth):
        write_flat_pfm(tmp_path / "frame1.pfm")
        out = tmp_path / "ds.csv"
        assert run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--depth-dir", str(tmp_path),
        ) == 0
        lines = out.read_text().splitlines()
        at = lines[3].split(",").index("depth")
        tokens = lines[5].split(",")
        tokens[at] = depth
        lines[5] = ",".join(tokens)
        out.write_text("\n".join(lines) + "\n")
        code = run("train", "--dataset", str(out), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert f"{out}:6: depth must be positive" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()


class TestTrain:
    @pytest.fixture()
    def dataset(self, surface_dir, tmp_path):
        out = tmp_path / "ds.csv"
        run("build-dataset", "--model-dir", str(surface_dir), "--output", str(out))
        return out

    def test_loss_csv_row_count(self, dataset, tmp_path):
        model_path = tmp_path / "model.txt"
        # no group converges from the kernel's start in 4 evaluations
        assert run(
            "train", "--dataset", str(dataset), "--output", str(model_path),
            "--iterations", "4",
        ) == 0
        lines = (tmp_path / "model_loss.csv").read_text().splitlines()
        assert lines[0] == "iter,group,loss"
        # one curve per fit group, each of at most --iterations rows
        groups = [line.split(",")[1] for line in lines[1:]]
        assert sorted(set(groups)) == ["rgb", "xyz"]
        assert all(groups.count(name) <= 4 for name in set(groups))
        assert len(lines) == 1 + 4 * len(gp.OUTPUT_GROUPS)

    def test_infinite_loss_row_written_and_printed(self, dataset, tmp_path, monkeypatch, capsys):
        # a loss that falls as the noise grows, and is infinite above a log
        # noise variance of 0, drives the search into probes of infinite loss
        original = gp._objective

        def tilt(derivatives):
            grad, hess = derivatives()
            return grad - [0.0, 0.0, 1e4], hess

        def tilted(theta, *args, **kwargs):
            return [
                (loss - 1e4 * theta[2] if theta[2] <= 0.0 else math.inf,
                 partial(tilt, derivatives))
                for loss, derivatives in original(theta, *args, **kwargs)
            ]

        monkeypatch.setattr(gp, "_objective", tilted)
        model_path = tmp_path / "model.txt"
        assert run(
            "train", "--dataset", str(dataset), "--output", str(model_path),
            "--iterations", "30",
        ) == 0
        rows = (tmp_path / "model_loss.csv").read_text().splitlines()[1:]
        assert any(row.endswith(",inf") for row in rows)
        finals = capsys.readouterr().out.split("final per-group NLL: ")[1].splitlines()[0]
        assert all(np.isfinite(float(entry.split("=")[1])) for entry in finals.split())
        assert model_io.load_model(model_path).configs[0].log_noise_var <= 0.0

    def test_nu_recorded_in_model_file(self, dataset, tmp_path):
        model_path = tmp_path / "model.txt"
        run(
            "train", "--dataset", str(dataset), "--output", str(model_path),
            "--iterations", "5", "--nu", "1.5",
        )
        assert "nu 1.5" in model_path.read_text()

    def test_dataset_missing_column_exits_2(self, dataset, tmp_path, capsys):
        lines = dataset.read_text().splitlines()
        header = lines[3].split(",")
        drop = header.index("g")
        lines[3:] = [
            ",".join(v for i, v in enumerate(line.split(",")) if i != drop)
            for line in lines[3:]
        ]
        dataset.write_text("\n".join(lines) + "\n")
        code = run("train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert "lacks columns g" in capsys.readouterr().err

    def test_non_numeric_width_exits_2(self, dataset, tmp_path, capsys):
        lines = dataset.read_text().splitlines()
        assert lines[1].startswith("# width = ")
        lines[1] = "# width = ten"
        dataset.write_text("\n".join(lines) + "\n")
        code = run("train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert "width" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_non_positive_width_exits_2(self, dataset, tmp_path, capsys, width):
        lines = dataset.read_text().splitlines()
        lines[1] = f"# width = {width}"
        dataset.write_text("\n".join(lines) + "\n")
        code = run("train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert f"{dataset}:2: width must be positive, got {width}" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize(
        "width", [str(sfm_io.MAX_IMAGE_SIDE + 1), "1" + "0" * 400], ids=["2^31", "10^400"]
    )
    def test_width_above_bound_exits_2(self, dataset, tmp_path, capsys, width):
        # a width of 10^400 once trained, and densify then crashed converting it
        lines = dataset.read_text().splitlines()
        lines[1] = f"# width = {width}"
        dataset.write_text("\n".join(lines) + "\n")
        code = run("train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{dataset}:2: width is above {sfm_io.MAX_IMAGE_SIDE}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.txt").exists()

    def test_same_seed_byte_identical_model(self, dataset, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            run(
                "train", "--dataset", str(dataset), "--output", str(path),
                "--iterations", "10", "--seed", "4",
            )
        assert a.read_bytes() == b.read_bytes()

    def test_non_numeric_model_value_exits_2(self, dataset, tmp_path, surface_dir, capsys):
        model_path = tmp_path / "model.txt"
        run("train", "--dataset", str(dataset), "--output", str(model_path), "--iterations", "2")
        lines = model_path.read_text().splitlines()
        assert lines[1].startswith("width ")
        lines[1] = "width abc"
        model_path.write_text("\n".join(lines) + "\n")
        code = run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model_path),
            "--output", str(tmp_path / "cloud.ply"),
        )
        assert code == 2
        assert f"{model_path}:2: width" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_non_positive_model_width_exits_2(
        self, dataset, tmp_path, surface_dir, capsys, width
    ):
        model_path = tmp_path / "model.txt"
        run("train", "--dataset", str(dataset), "--output", str(model_path), "--iterations", "2")
        lines = model_path.read_text().splitlines()
        lines[1] = f"width {width}"
        model_path.write_text("\n".join(lines) + "\n")
        code = run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model_path),
            "--output", str(tmp_path / "cloud.ply"),
        )
        assert code == 2
        assert f"{model_path}:2: width: {width} is below 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key,at", [("width", 2), ("height", 3)])
    def test_model_side_above_bound_exits_2(
        self, dataset, tmp_path, surface_dir, capsys, key, at
    ):
        model_path = tmp_path / "model.txt"
        run("train", "--dataset", str(dataset), "--output", str(model_path), "--iterations", "2")
        lines = model_path.read_text().splitlines()
        assert lines[at - 1].startswith(f"{key} ")
        lines[at - 1] = f"{key} 1{'0' * 400}"
        model_path.write_text("\n".join(lines) + "\n")
        code = run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model_path),
            "--output", str(tmp_path / "cloud.ply"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{model_path}:{at}: {key}: above {sfm_io.MAX_IMAGE_SIDE}" in err
        assert "Traceback" not in err

    def test_warns_when_budget_ends_the_fit(self, dataset, tmp_path, capsys):
        assert run(
            "train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt"),
            "--iterations", "1",
        ) == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "warning: frame 1 train: outputs xyz, rgb used all 1 evaluations"
        )

    def test_warns_when_a_group_keeps_a_bound(self, dataset, tmp_path, capsys):
        # constant colours standardize to zero targets, whose loss falls with
        # the signal variance all the way to its bound
        ds = sfm_io.read_dataset_csv(dataset)
        targets = ds.targets.copy()
        targets[:, 3:] = 0.5
        flat = tmp_path / "flat.csv"
        sfm_io.write_dataset_csv(
            sfm_io.PixelToPointDataset(ds.image_id, ds.width, ds.height, ds.inputs, targets), flat
        )
        capsys.readouterr()
        assert run("train", "--dataset", str(flat), "--output", str(tmp_path / "m.txt")) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: frame 1 train: outputs rgb kept log_signal_var -20, on the bound +-20; "
            "the fit may have degenerated"
        ]
        # its noise variance sits on NOISE_VAR_FLOOR too, which is not warned about
        rgb = model_io.load_model(tmp_path / "m.txt").configs[3]
        assert (rgb.log_signal_var, rgb.log_noise_var) == (-20.0, math.log(gp.NOISE_VAR_FLOOR))

    @pytest.mark.parametrize("key,value,warned", [
        ("log_noise_var", math.log(gp.NOISE_VAR_FLOOR), None),
        ("log_lengthscale", gp.LOG_PARAM_BOUND, "log_lengthscale 20"),
        ("log_lengthscale", 19.5, None),
    ])
    def test_bound_warning_names_signal_variance_and_lengthscale_only(
        self, dataset, tmp_path, capsys, monkeypatch, key, value, warned
    ):
        original = gp.train_gp

        def kept_at(*args):
            model = original(*args)
            configs = tuple(dataclasses.replace(cfg, **{key: value}) for cfg in model.configs)
            return dataclasses.replace(model, configs=configs)

        monkeypatch.setattr(gp, "train_gp", kept_at)
        assert run("train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt")) == 0
        expected = [] if warned is None else [
            f"warning: frame 1 train: outputs {name} kept {warned}, on the bound +-20; "
            "the fit may have degenerated" for name in ("xyz", "rgb")
        ]
        assert capsys.readouterr().err.splitlines() == expected

    def test_no_warning_when_every_output_converges(self, dataset, tmp_path, capsys):
        assert run("train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt")) == 0
        assert "warning:" not in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path):
        assert run(
            "train", "--dataset", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "m.txt"),
        ) == 2


class TestDensify:
    @pytest.fixture()
    def trained(self, surface_dir, tmp_path):
        ds = tmp_path / "ds.csv"
        model = tmp_path / "model.txt"
        run("build-dataset", "--model-dir", str(surface_dir), "--output", str(ds))
        run("train", "--dataset", str(ds), "--output", str(model), "--iterations", "15")
        return surface_dir, model

    def test_full_quantile_retains_all_candidates(self, trained, tmp_path, capsys):
        surface_dir, model = trained
        out = tmp_path / "cloud.ply"
        assert run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model),
            "--output", str(out), "--filter-quantile", "1.0",
        ) == 0
        stdout = capsys.readouterr().out
        counts = {}
        for token in ("sparse points:", "candidates:", "retained:", "output points:"):
            counts[token] = int(stdout.split(token)[1].split()[0])
        assert counts["candidates:"] == counts["retained:"]
        assert counts["candidates:"] <= 120 * 8
        assert counts["output points:"] == counts["sparse points:"] + counts["retained:"]
        cloud = read_ply_oracle(out)
        assert len(cloud) == counts["output points:"]

    def test_merge_count_contract(self, trained, tmp_path, capsys):
        surface_dir, model = trained
        out = tmp_path / "cloud.ply"
        run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model),
            "--output", str(out), "--filter-quantile", "0.75",
        )
        stdout = capsys.readouterr().out
        sparse = int(stdout.split("sparse points:")[1].split()[0])
        retained = int(stdout.split("retained:")[1].split()[0])
        cloud = read_ply_oracle(out)
        assert len(cloud) == sparse + retained
        assert np.count_nonzero(cloud.sources == 1) == retained
        assert (tmp_path / "cloud_variance.csv").exists()

    def test_no_filter_warning_at_its_quantile(self, trained, tmp_path, capsys):
        surface_dir, model = trained
        assert run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        ) == 0
        captured = capsys.readouterr()
        candidates = int(captured.out.split("candidates:")[1].split()[0])
        retained = int(captured.out.split("retained:")[1].split()[0])
        assert retained == math.ceil(0.75 * candidates)
        assert "warning:" not in captured.err

    def test_warns_when_ties_keep_more_than_the_quantile(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        # every candidate ranks at one colour variance, so the threshold
        # ties them all and the filter keeps every one of them; equal
        # variances cannot rank the candidates either, which warns first
        surface_dir, model = trained
        original = dn.infer_dense

        def tied(*args):
            preds = original(*args)
            return dataclasses.replace(preds, mean_rgb_var=np.full(len(preds), 0.25))

        monkeypatch.setattr(dn, "infer_dense", tied)
        assert run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        ) == 0
        captured = capsys.readouterr()
        candidates = int(captured.out.split("candidates:")[1].split()[0])
        assert captured.err.splitlines() == [
            f"warning: model {model}: the colour variances of all {candidates} candidates lie "
            "between 0.25 and 0.25, too close to rank them for the filter",
            f"warning: model {model}: the filter kept {candidates} of {candidates} predictions "
            "at quantile 0.75: ties at its threshold 0.25",
        ]

    def test_variance_csv_is_one_rgb_mean_row(self, trained, tmp_path):
        surface_dir, model = trained
        assert run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        ) == 0
        header, row = (tmp_path / "cloud_variance.csv").read_text().splitlines()
        assert header == "channel,original,filtered,reduction_pct"
        channel, original, filtered, reduction = row.split(",")
        assert channel == "rgb_mean"
        assert 0.0 < float(filtered) < float(original)
        assert float(reduction) == pytest.approx(
            100.0 * (float(original) - float(filtered)) / float(original)
        )

    def test_depth_map_of_another_size_exits_2_before_the_cloud(
        self, surface_dir, tmp_path, capsys
    ):
        # a 40x40 map for a 400x400 image once densified on clipped
        # lookups and exited 0
        fitted, small = tmp_path / "fitted", tmp_path / "small"
        fitted.mkdir()
        small.mkdir()
        write_flat_pfm(fitted / "surface.pfm")
        write_flat_pfm(small / "surface.pfm", width=40, height=40)
        ds, model = tmp_path / "ds.csv", tmp_path / "model.txt"
        assert run("build-dataset", "--model-dir", str(surface_dir), "--output", str(ds),
                   "--depth-dir", str(fitted)) == 0
        assert run("train", "--dataset", str(ds), "--output", str(model),
                   "--iterations", "5") == 0
        capsys.readouterr()
        out = tmp_path / "out" / "cloud.ply"
        densify = ["densify", "--model-dir", str(surface_dir), "--gp-model", str(model),
                   "--dataset", str(ds), "--output", str(out)]
        assert run(*densify, "--depth-dir", str(small)) == 2
        assert capsys.readouterr().err == "input error: depth map 40x40 vs camera 400x400\n"
        assert not out.parent.exists()
        assert run(*densify, "--depth-dir", str(fitted)) == 0

    def test_ascii_ply_flag(self, trained, tmp_path):
        surface_dir, model = trained
        out = tmp_path / "cloud.ply"
        run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(model),
            "--output", str(out), "--ascii-ply",
        )
        assert out.read_bytes().startswith(b"ply\nformat ascii 1.0")


class TestEvaluate:
    def test_smooth_scene_high_r2(self, surface_dir, tmp_path, capsys):
        ds = tmp_path / "ds.csv"
        report = tmp_path / "metrics.csv"
        run("build-dataset", "--model-dir", str(surface_dir), "--output", str(ds))
        assert run(
            "evaluate", "--dataset", str(ds), "--output", str(report),
            "--iterations", "200",
        ) == 0
        rows = [line.split(",") for line in report.read_text().splitlines()]
        assert rows[0] == ["metric", "output", "value"]
        joint_r2 = float(next(v for m, o, v in rows[1:] if m == "r2" and o == "joint"))
        assert joint_r2 > 0.9
        per_output_r2 = [v for m, o, v in rows[1:] if m == "r2" and o != "joint"]
        per_output_rmse = [v for m, o, v in rows[1:] if m == "rmse" and o != "joint"]
        assert len(per_output_r2) == 6
        assert len(per_output_rmse) == 6

    def test_degenerate_fraction_exits_2(self, surface_dir, tmp_path, capsys):
        ds = tmp_path / "ds.csv"
        run("build-dataset", "--model-dir", str(surface_dir), "--output", str(ds))
        import csv

        # shrink the dataset to 10 rows to hit the rounding edge
        lines = ds.read_text().splitlines()
        ds.write_text("\n".join(lines[:4] + lines[4:14]) + "\n")
        code = run(
            "evaluate", "--dataset", str(ds), "--output", str(tmp_path / "m.csv"),
            "--train-fraction", "0.99", "--iterations", "5",
        )
        assert code == 2
        assert "test split is empty" in capsys.readouterr().err

    def test_one_row_test_split_exits_2_before_training(self, surface_dir, tmp_path, capsys):
        ds = tmp_path / "ds.csv"
        run("build-dataset", "--model-dir", str(surface_dir), "--output", str(ds))
        lines = ds.read_text().splitlines()
        ds.write_text("\n".join(lines[:14]) + "\n")  # metadata, header and 10 rows
        out = tmp_path / "m.csv"
        code = run(
            "evaluate", "--dataset", str(ds), "--output", str(out),
            "--train-fraction", "0.9", "--iterations", "1",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "has one row (1 of n=10 at train_fraction=0.9)" in err
        assert "evaluations of --iterations" not in err  # a fit at budget 1 would warn
        assert not out.exists()


class TestPipeline:
    def test_end_to_end_artifacts(self, surface_dir, tmp_path):
        out = tmp_path / "run"
        assert run(
            "pipeline", "--model-dir", str(surface_dir), "--output", str(out),
            "--iterations", "30",
        ) == 0
        for name in (
            "run-config.txt", "dataset.csv", "model.txt", "model_loss.csv",
            "metrics.csv", "cloud.ply", "cloud_variance.csv",
        ):
            assert (out / name).exists(), name

    def test_same_seed_byte_identical_ply(self, surface_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "pipeline", "--model-dir", str(surface_dir), "--output", str(out),
                "--iterations", "25", "--seed", "11",
            ) == 0
            outs.append((out / "cloud.ply").read_bytes())
        assert outs[0] == outs[1]

    def test_cloud_matches_densify_of_saved_model(self, surface_dir, tmp_path):
        # pipeline densifies with its in-memory model; the model file must
        # reload to the same model, so densify reproduces the cloud
        flags = ("--iterations", "25", "--seed", "11")
        out = tmp_path / "run"
        assert run("pipeline", "--model-dir", str(surface_dir), "--output", str(out), *flags) == 0
        cloud = tmp_path / "densify" / "cloud.ply"
        assert run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(out / "model.txt"),
            "--output", str(cloud), *flags,
        ) == 0
        assert cloud.read_bytes() == (out / "cloud.ply").read_bytes()
        assert (cloud.parent / "cloud_variance.csv").read_bytes() == (
            out / "cloud_variance.csv"
        ).read_bytes()

    def test_subsampled_cloud_matches_densify_of_saved_model(self, surface_dir, tmp_path):
        # pipeline samples its candidates before the model exists, around
        # the subsample the model file holds
        flags = ("--iterations", "10", "--max-train-points", "50")
        out = tmp_path / "run"
        assert run("pipeline", "--model-dir", str(surface_dir), "--output", str(out), *flags) == 0
        assert len(model_io.load_model(out / "model.txt").X) == 50
        cloud = tmp_path / "densify" / "cloud.ply"
        assert run(
            "densify", "--model-dir", str(surface_dir), "--gp-model", str(out / "model.txt"),
            "--output", str(cloud), *flags,
        ) == 0
        assert cloud.read_bytes() == (out / "cloud.ply").read_bytes()

    def test_run_config_replays_its_run(self, surface_dir, tmp_path):
        # run-config.txt once wrote dataset, gp_model and depth_dir as the
        # path "None", and a replay exited 2 on the missing depth file None/...
        out, again = tmp_path / "run", tmp_path / "again"
        flags = ("--iterations", "20", "--seed", "3")
        assert run("pipeline", "--model-dir", str(surface_dir), "--output", str(out), *flags) == 0
        assert "None" not in (out / "run-config.txt").read_text()
        assert_replays(out, again)

    def test_run_config_replays_paths_with_hash(self, tmp_path):
        # a '#' inside a path once cut the replayed model_dir short at it
        model_dir, _, _ = surface_colmap_model(tmp_path / "scene#1", 600, 120, seed=0)
        out, again = tmp_path / "out#a", tmp_path / "again"
        assert run("pipeline", "--model-dir", str(model_dir), "--output", str(out),
                   "--iterations", "5") == 0
        assert f"model_dir = {model_dir}\n" in (out / "run-config.txt").read_text()
        assert_replays(out, again)

    def test_parses_once_and_never_reads_datasets(self, fixture_dir, tmp_path, monkeypatch):
        calls = {"parse_colmap_model": 0, "read_dataset_csv": 0}
        for name in calls:
            original = getattr(sfm_io, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sfm_io, name, counted)
        out = tmp_path / "run"
        assert run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(out),
            "--iterations", "5", "--key-frames", "2", "--train-fraction", "0.34",
        ) == 0
        assert calls == {"parse_colmap_model": 1, "read_dataset_csv": 0}
        assert (out / "dataset_frame2.csv").exists()

    def test_model_file_holds_the_evaluation_fit(self, surface_dir, tmp_path, monkeypatch):
        fits = []
        original = gp.train_gp

        def recorded(*args):
            fits.append(original(*args))
            return fits[-1]

        monkeypatch.setattr(gp, "train_gp", recorded)
        out = tmp_path / "run"
        assert run(
            "pipeline", "--model-dir", str(surface_dir), "--output", str(out),
            "--iterations", "30",
        ) == 0
        # one search, on the train split; the model file conditions all the
        # samples at the configs it kept and holds its loss curves
        [evaluation] = fits
        assert len(evaluation.X) == 96
        saved = model_io.load_model(out / "model.txt")
        assert len(saved.X) == 120
        assert saved.configs == evaluation.configs
        rows = (out / "model_loss.csv").read_text().splitlines()
        assert rows == ["iter,group,loss"] + [
            f"{it},{name},{loss:.17g}"
            for name, curve in zip(("xyz", "rgb"), evaluation.loss_curves, strict=True)
            for it, loss in enumerate(curve)
        ]

    def test_budget_of_one_matches_two_cold_fits(self, tmp_path, monkeypatch, capsys):
        # at --iterations 1 the evaluation fit keeps the kernel's start, so
        # conditioning there on all samples is a cold fit on them: artifacts
        # equal those of two cold fits per frame
        model_dir, _, _ = surface_colmap_model(tmp_path / "surface", 2000, 420, seed=0)
        calls = []
        original_fit = gp._fit_outputs

        def counted(X, *args):
            calls.append(len(X))
            return original_fit(X, *args)

        monkeypatch.setattr(gp, "_fit_outputs", counted)
        flags = ("--model-dir", str(model_dir), "--iterations", "1")
        assert run("pipeline", "--output", str(tmp_path / "new" / "run"), *flags) == 0
        assert calls == [336]
        err = capsys.readouterr().err
        assert [ln.split(": outputs")[0] for ln in err.splitlines()] == [
            "warning: frame 1 evaluate",
        ]

        monkeypatch.setattr(
            gp, "condition_gp", lambda ds, configs, cfg: gp.train_gp(ds, gp.default_kernel(), cfg)
        )
        assert run("pipeline", "--output", str(tmp_path / "cold" / "run"), *flags) == 0
        assert calls == [336, 336, 420]
        names = sorted(p.name for p in (tmp_path / "new" / "run").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "cold" / "run").iterdir())
        for name in names:
            if name != "run-config.txt":  # it records the output path
                new = (tmp_path / "new" / "run" / name).read_bytes()
                assert new == (tmp_path / "cold" / "run" / name).read_bytes(), name

    def test_no_candidate_left_exits_2(self, tmp_path, capsys):
        # on the square image, a one-angle circle of radius 0.999 * 400
        # leaves the image from every feature
        model_dir, _, _ = surface_colmap_model(tmp_path / "surface", 600, 40, seed=0)
        code = run(
            "pipeline", "--model-dir", str(model_dir), "--output", str(tmp_path / "run"),
            "--angular-resolution", "1", "--beta", "0.999",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "input error: frame 1: no candidate left by sampling around 40 training pixels at "
            "beta=0.999 and angular_resolution=1\n"
        )
        # checked beside the split, before the first artifact is written
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["run-config.txt"]

    def test_empty_test_split_fails_before_densification_fit(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(out),
            "--iterations", "5", "--train-fraction", "0.95",
        )
        assert code == 2
        assert "test split is empty" in capsys.readouterr().err
        assert not (out / "model.txt").exists()

    def test_small_later_split_fails_before_any_fit(self, fixture_dir, tmp_path, capsys):
        # frames carry 5 and 3 samples; at 0.6 the first test split has 2
        # rows and the second 1, which fails before frame 1 trains
        out = tmp_path / "run"
        code = run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(out),
            "--iterations", "3", "--key-frames", "2", "--train-fraction", "0.6",
        )
        assert code == 2
        assert "(1 of n=3 at train_fraction=0.6)" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run-config.txt"]

    def test_multi_frame_pipeline(self, fixture_dir, tmp_path):
        # tiny fixture: frames carry 5 and 3 samples; fraction 0.34 keeps
        # both test splits large enough for r2 (needs >= 2 samples)
        out = tmp_path / "run"
        code = run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(out),
            "--iterations", "5", "--key-frames", "2", "--train-fraction", "0.34",
        )
        assert code == 0
        assert (out / "dataset_frame1.csv").exists()
        assert (out / "model_frame1.txt").exists()
        assert (out / "cloud.ply").exists()

    def test_missing_depth_pfm_exits_2(self, surface_dir, tmp_path, capsys):
        code = run(
            "pipeline", "--model-dir", str(surface_dir),
            "--output", str(tmp_path / "run"), "--depth-dir", str(tmp_path),
            "--iterations", "5",
        )
        assert code == 2
        assert "surface.pfm" in capsys.readouterr().err

    def test_depth_mode_end_to_end(self, surface_dir, tmp_path):
        write_flat_pfm(tmp_path / "surface.pfm")
        out = tmp_path / "run"
        assert run(
            "pipeline", "--model-dir", str(surface_dir), "--output", str(out),
            "--depth-dir", str(tmp_path), "--iterations", "10",
        ) == 0
        assert "depth" in (out / "dataset.csv").read_text().splitlines()[3]

    def test_reads_each_depth_map_once(self, fixture_dir, tmp_path, monkeypatch):
        for name in ("frame1", "frame2"):
            write_flat_pfm(tmp_path / f"{name}.pfm")
        reads = []
        original = sfm_io.read_depth_pfm

        def counted(path):
            reads.append(path.name)
            return original(path)

        monkeypatch.setattr(sfm_io, "read_depth_pfm", counted)
        assert run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(tmp_path / "run"),
            "--depth-dir", str(tmp_path), "--iterations", "5", "--key-frames", "2",
            "--train-fraction", "0.34",
        ) == 0
        assert sorted(reads) == ["frame1.pfm", "frame2.pfm"]


class TestRanklessVariances:
    """Colour variances too close to rank the candidates warn at densify time."""

    @pytest.fixture()
    def grey_dir(self, surface_dir):
        # every point one colour: the colour fit's variances hardly differ
        points = surface_dir / "points3D.txt"
        rows = [line.split() for line in points.read_text().splitlines()]
        points.write_text("".join(" ".join(t[:4] + ["128"] * 3 + t[7:]) + "\n" for t in rows))
        return surface_dir

    @staticmethod
    def rankless_warnings(err):
        return [ln for ln in err.splitlines() if "too close to rank them" in ln]

    def test_pipeline_warns(self, grey_dir, tmp_path, capsys):
        assert run("pipeline", "--model-dir", str(grey_dir), "--output", str(tmp_path / "run")) == 0
        [line] = self.rankless_warnings(capsys.readouterr().err)
        assert line.startswith("warning: frame 1: the colour variances of all 679 candidates")

    def test_train_and_densify_warn(self, grey_dir, tmp_path, capsys):
        ds, model = tmp_path / "ds.csv", tmp_path / "model.txt"
        assert run("build-dataset", "--model-dir", str(grey_dir), "--output", str(ds)) == 0
        assert run("train", "--dataset", str(ds), "--output", str(model)) == 0
        assert not self.rankless_warnings(capsys.readouterr().err)
        assert run(
            "densify", "--model-dir", str(grey_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        ) == 0
        [line] = self.rankless_warnings(capsys.readouterr().err)
        assert line.startswith(f"warning: model {model}: the colour variances of all")

    def test_smooth_scene_does_not_warn(self, surface_dir, tmp_path, capsys):
        assert run(
            "pipeline", "--model-dir", str(surface_dir), "--output", str(tmp_path / "run"),
        ) == 0
        assert "warning:" not in capsys.readouterr().err


class TestUnwritableOutput:
    """An output that cannot be written is bad input: exit 2, no traceback."""

    @pytest.mark.parametrize("command", ["build-dataset", "train", "densify", "evaluate", "pipeline"])
    def test_exits_2(self, fixture_dir, tmp_path, capsys, command):
        ds, model = tmp_path / "ds.csv", tmp_path / "model.txt"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        assert run(
            "train", "--dataset", str(ds), "--output", str(model), "--iterations", "2"
        ) == 0
        taken = tmp_path / "taken"
        if command == "pipeline":
            taken.write_text("a file where the output directory should go\n")
        else:
            taken.mkdir()
        capsys.readouterr()
        inputs = {
            "build-dataset": ["--model-dir", str(fixture_dir)],
            "train": ["--dataset", str(ds), "--iterations", "2"],
            "densify": ["--model-dir", str(fixture_dir), "--gp-model", str(model)],
            "evaluate": ["--dataset", str(ds), "--iterations", "2", "--train-fraction", "0.6"],
            "pipeline": ["--model-dir", str(fixture_dir), "--iterations", "2",
                         "--train-fraction", "0.6"],
        }[command]
        code = run(command, *inputs, "--output", str(taken))
        err = capsys.readouterr().err
        assert code == 2
        assert f"input error: cannot write {taken}" in err
        assert "Traceback" not in err


class TestModelFileRanges:
    """A model-file value out of its range is bad data: exit 2 at its line."""

    @pytest.fixture()
    def model(self, fixture_dir, tmp_path):
        ds, model = tmp_path / "ds.csv", tmp_path / "model.txt"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        assert run(
            "train", "--dataset", str(ds), "--output", str(model), "--iterations", "2"
        ) == 0
        return model

    @staticmethod
    def set_first(model, key, value) -> int:
        """Set the first `key` line of the model file; returns its line number."""
        lines = model.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} "))
        lines[at] = f"{key} {value}"
        model.write_text("\n".join(lines) + "\n")
        return at + 1

    @pytest.mark.parametrize("key,value,message", [
        ("input_dim", "0", "input_dim: 0, not 2 or 3"),
        ("input_dim", "1", "input_dim: 1, not 2 or 3"),
        ("input_dim", "4", "input_dim: 4, not 2 or 3"),
        ("outputs", "5", "outputs: 5, not 6"),
        ("outputs", "7", "outputs: 7, not 6"),
        ("norm_std", "0", "norm_std: 0.0 is not positive"),
        ("norm_std", "-1", "norm_std: -1.0 is not positive"),
        ("jitter", "-1e-08", "jitter: -1e-08 is below 0"),
        ("train_points", "0", "train_points: 0 is below 1"),
        # counts no file of this size holds once crashed allocating the
        # sections: MemoryError for 2^31 rows, ValueError for 10^14
        ("train_points", "2147483648", "train_points: above 34"),
        ("train_points", "99999999999999", "train_points: above 34"),
    ])
    def test_exits_2_at_its_line(self, model, fixture_dir, tmp_path, capsys, key, value, message):
        line = self.set_first(model, key, value)
        capsys.readouterr()
        cloud = tmp_path / "cloud.ply"
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(cloud),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{model}:{line}: {message}" in err
        assert "Traceback" not in err
        assert not cloud.exists()

    def test_overflowing_log_parameter_exits_2_without_a_warning(
        self, model, fixture_dir, tmp_path, capsys
    ):
        self.set_first(model, "log_signal_var", "800")
        line = model.read_text().splitlines().index("output 0") + 1
        capsys.readouterr()
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {model}:{line}: output 0: "
            "log_signal_var=800.0 gives a non-finite parameter\n"
        )

    @pytest.mark.parametrize("value", [-740.0, -800.0])
    def test_underflowing_lengthscale_exits_2_without_a_warning(
        self, model, fixture_dir, tmp_path, capsys, value
    ):
        # exp(-800) is 0: a ZeroDivisionError in the kernel; sqrt(5) / exp(-740)
        # overflows: a NaN Gram matrix
        self.set_first(model, "log_lengthscale", str(value))
        line = model.read_text().splitlines().index("output 0") + 1
        capsys.readouterr()
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {model}:{line}: output 0: "
            f"log_lengthscale={value} gives a non-finite kernel scaling sqrt(5)/lengthscale\n"
        )

    @pytest.mark.parametrize("nu,key,value", [
        ("2.5", "log_lengthscale", -400.0),  # poly(s) overflows, exp(-s) is 0: inf * 0
        ("0.5", "log_lengthscale", 25.0),
        ("0.5", "log_signal_var", -25.0),
        ("0.5", "log_noise_var", 25.0),
    ])
    def test_log_parameter_outside_the_box_exits_2_at_its_line(
        self, model, fixture_dir, tmp_path, capsys, nu, key, value
    ):
        self.set_first(model, "nu", nu)
        line = self.set_first(model, key, str(value))
        capsys.readouterr()
        cloud = tmp_path / "cloud.ply"
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(cloud),
        )
        low, high = gp._BOUNDS[("log_signal_var", "log_lengthscale", "log_noise_var").index(key)]
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {model}:{line}: {key}: {value} is outside [{low}, {high}], "
            "the box training fits in\n"
        )
        assert not cloud.exists()

    def test_prediction_beyond_float32_exits_2_before_the_cloud(
        self, model, fixture_dir, tmp_path, capsys
    ):
        # the denormalised means are finite in float64, not in float32
        self.set_first(model, "norm_mean", "1e308")
        capsys.readouterr()
        cloud = tmp_path / "cloud.ply"
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(cloud),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "retained predictions are not finite in float32" in err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert not cloud.exists()
        assert not (tmp_path / "cloud_variance.csv").exists()

    def test_negative_jitter_exits_2_instead_of_hanging(self, model, fixture_dir, tmp_path):
        # the jitter escalation once multiplied a negative start by 10 for ever
        line = self.set_first(model, "jitter", "-10")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "gpgs.cli", "densify", "--model-dir", str(fixture_dir),
             "--gp-model", str(model), "--output", str(tmp_path / "cloud.ply")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2, result.stderr
        assert f"{model}:{line}: jitter: -10.0 is below 0" in result.stderr


class TestBadUtf8:
    """A byte that is not UTF-8 in an input file is bad data: exit 2."""

    @staticmethod
    def corrupt(path):
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe")

    def test_points3d(self, fixture_dir, tmp_path, capsys):
        self.corrupt(fixture_dir / "points3D.txt")
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"),
        )
        assert code == 2
        assert "points3D.txt:9: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_dataset_csv(self, fixture_dir, tmp_path, capsys):
        ds = tmp_path / "ds.csv"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        self.corrupt(ds)
        code = run("train", "--dataset", str(ds), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert f"{ds}:10: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_model_file(self, fixture_dir, tmp_path, capsys):
        ds, model = tmp_path / "ds.csv", tmp_path / "model.txt"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        assert run(
            "train", "--dataset", str(ds), "--output", str(model), "--iterations", "2"
        ) == 0
        self.corrupt(model)
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        )
        assert code == 2
        assert "byte 0xff is not UTF-8" in capsys.readouterr().err


class TestNonFinite:
    """A non-finite number where a finite one is required is bad data: exit 2."""

    @staticmethod
    def replace_token(path, line_index, token_index, value):
        """Set one token of one line: comma-separated in a CSV, else space-separated."""
        lines = path.read_text().splitlines()
        sep = "," if "," in lines[line_index] else " "
        tokens = lines[line_index].split(sep)
        tokens[token_index] = value
        lines[line_index] = sep.join(tokens)
        path.write_text("\n".join(lines) + "\n")

    def test_points3d_position(self, fixture_dir, tmp_path, capsys):
        self.replace_token(fixture_dir / "points3D.txt", 3, 1, "nan")
        code = run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(tmp_path / "run"),
            "--iterations", "5",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "points3D.txt:4: non-finite position: ['nan', '1.0', '2.0']" in err
        assert not (tmp_path / "run" / "model.txt").exists()

    @pytest.mark.parametrize("value", ["1e39", "-3.5e38"])
    def test_points3d_position_beyond_float32(self, fixture_dir, tmp_path, capsys, value):
        # finite in float64, but the cloud's float32 positions cannot hold it
        self.replace_token(fixture_dir / "points3D.txt", 3, 2, value)
        run_dir = tmp_path / "run"
        code = run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(run_dir),
            "--iterations", "5",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"points3D.txt:4: position beyond float32 range: ['0.5', '{value}', '2.0']" in err
        assert sorted(p.name for p in run_dir.iterdir()) == ["run-config.txt"]

    def test_feature_coordinate(self, fixture_dir, tmp_path, capsys):
        self.replace_token(fixture_dir / "images.txt", 4, 1, "inf")
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"),
        )
        assert code == 2
        assert "images.txt:5: non-finite feature coordinate" in capsys.readouterr().err

    def test_dataset_csv(self, fixture_dir, tmp_path, capsys):
        ds = tmp_path / "ds.csv"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        self.replace_token(ds, 5, 4, "nan")
        code = run("train", "--dataset", str(ds), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert f"{ds}:6: non-finite value" in capsys.readouterr().err

    def test_feature_coordinate_beyond_float32(self, fixture_dir, tmp_path, capsys):
        # finite, but far enough apart to overflow a Gram matrix's distances
        self.replace_token(fixture_dir / "images.txt", 4, 0, "1e200")
        run_dir = tmp_path / "run"
        code = run(
            "pipeline", "--model-dir", str(fixture_dir), "--output", str(run_dir),
            "--iterations", "5",
        )
        assert code == 2
        assert "images.txt:5: feature coordinate beyond float32 range" in capsys.readouterr().err
        assert sorted(p.name for p in run_dir.iterdir()) == ["run-config.txt"]

    @pytest.mark.parametrize("column,value", [(0, "1e200"), (1, "-1e308"), (2, "3.5e38")])
    def test_dataset_input_beyond_float32(self, fixture_dir, tmp_path, capsys, column, value):
        ds = tmp_path / "ds.csv"
        depth = tmp_path / "depth"
        depth.mkdir()
        write_flat_pfm(depth / "frame1.pfm")
        assert run(
            "build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds),
            "--depth-dir", str(depth),
        ) == 0
        assert ds.read_text().splitlines()[3].split(",")[:3] == ["u_norm", "v_norm", "depth"]
        self.replace_token(ds, 5, column, value)
        code = run("train", "--dataset", str(ds), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert f"{ds}:6: input beyond float32 range" in capsys.readouterr().err

    def test_dataset_target_beyond_float32(self, fixture_dir, tmp_path, capsys):
        # a larger target once overflowed the standardisation of its column
        ds = tmp_path / "ds.csv"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        self.replace_token(ds, 5, 2, "1e308")
        code = run("train", "--dataset", str(ds), "--output", str(tmp_path / "m.txt"))
        assert code == 2
        assert f"{ds}:6: target beyond float32 range" in capsys.readouterr().err

    def test_model_file_input_beyond_float32(self, fixture_dir, tmp_path, capsys):
        # a larger input once overflowed the candidate pixels of densify
        ds, model = tmp_path / "ds.csv", tmp_path / "model.txt"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        assert run(
            "train", "--dataset", str(ds), "--output", str(model), "--iterations", "2"
        ) == 0
        at = model.read_text().splitlines().index("inputs") + 1
        self.replace_token(model, at, 0, "1e308")
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        )
        assert code == 2
        assert f"{model}:{at + 1}: inputs row 0: beyond float32 range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kernel", ["matern", "rbf"])
    def test_inputs_at_float32_range_train(self, fixture_dir, tmp_path, kernel):
        ds = tmp_path / "ds.csv"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        self.replace_token(ds, 5, 0, "3.4e38")
        self.replace_token(ds, 6, 1, "-3.4e38")
        code = run(
            "train", "--dataset", str(ds), "--output", str(tmp_path / "m.txt"),
            "--kernel", kernel,
        )
        assert code == 0

    @pytest.mark.parametrize("key", ["norm_std", "inputs"])
    def test_model_file(self, fixture_dir, tmp_path, capsys, key):
        ds, model = tmp_path / "ds.csv", tmp_path / "model.txt"
        assert run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(ds)) == 0
        assert run(
            "train", "--dataset", str(ds), "--output", str(model), "--iterations", "2"
        ) == 0
        lines = model.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(key))
        if key == "inputs":
            at += 1
            lines[at] = "nan " + lines[at].split()[1]
        else:
            lines[at] = f"{key} inf"
        model.write_text("\n".join(lines) + "\n")
        code = run(
            "densify", "--model-dir", str(fixture_dir), "--gp-model", str(model),
            "--output", str(tmp_path / "cloud.ply"),
        )
        assert code == 2
        assert f"{model}:{at + 1}: " in capsys.readouterr().err


class TestConfigPrecedence:
    def test_defaults_are_the_module_configs(self):
        cfg = cli.RunConfig()
        assert cfg.kernel_template() == gp.KernelConfig()
        assert cfg.train_config() == gp.TrainConfig()
        assert cfg.sampling_config() == dn.SamplingConfig()
        assert cfg.filter_config() == dn.FilterConfig()

    def test_config_file_applies(self, fixture_dir, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("key_frames = 2\nbeta = 0.1  # tighter radius\n")
        out = tmp_path / "ds.csv"
        run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--config", str(conf),
        )
        assert (tmp_path / "ds_frame1.csv").exists()
        text = (tmp_path / "run-config.txt").read_text()
        assert "beta = 0.1" in text

    def test_flags_override_config(self, fixture_dir, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("key_frames = 2\n")
        out = tmp_path / "ds.csv"
        run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--config", str(conf), "--key-frames", "1",
        )
        assert out.exists()
        assert not (tmp_path / "ds_frame1.csv").exists()

    def test_unknown_config_key_exits_1(self, fixture_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("not_a_key = 5\n")
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"), "--config", str(conf),
        )
        assert code == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_config_file_with_byte_order_mark_applies(self, fixture_dir, tmp_path):
        # the mark once made the first key '\ufeffkey_frames', an unknown key
        conf = tmp_path / "bom.conf"
        conf.write_bytes(b"\xef\xbb\xbfkey_frames = 2\n")
        out = tmp_path / "ds.csv"
        assert run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--config", str(conf),
        ) == 0
        assert (tmp_path / "ds_frame1.csv").exists()

    @pytest.mark.parametrize("line,message", [
        ("seed = abc", "config value for seed: invalid literal for int() with base 10: 'abc'"),
        ("ply_binary = maybe", "config value for ply_binary must be boolean, got 'maybe'"),
    ])
    def test_bad_config_value_exits_1_at_its_line(
        self, fixture_dir, tmp_path, capsys, line, message
    ):
        # a bad value once named neither the file nor the line
        conf = tmp_path / "run.conf"
        conf.write_text(f"# settings\nkey_frames = 1\n{line}\n")
        out = tmp_path / "out" / "ds.csv"
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--config", str(conf),
        )
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {conf}:3: {message}\n"
        assert not out.parent.exists()



class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert run("train", "--bogus", "x") == 1

    def test_missing_required_path_exits_1(self, capsys):
        assert run("train") == 1
        assert "required" in capsys.readouterr().err

    def test_bad_beta_exits_1(self, fixture_dir, tmp_path, capsys):
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "d.csv"), "--beta", "1.5",
        )
        assert code == 1
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,name", [
        ("--max-train-points", "0", "max_train_points"),
        ("--max-train-points", "-3", "max_train_points"),
        ("--seed", "-1", "seed"),
        ("--key-frames", "0", "key_frames"),
        ("--train-fraction", "0", "train_fraction"),
        ("--train-fraction", "1.5", "train_fraction"),
    ])
    def test_out_of_range_setting_exits_1_before_any_file(
        self, fixture_dir, tmp_path, capsys, flag, value, name
    ):
        out = tmp_path / "run"
        code = run("pipeline", "--model-dir", str(fixture_dir), "--output", str(out), flag, value)
        assert code == 1
        assert f"usage error: {name} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,template", [
        ("--output", "{tmp}/run #1"),
        ("--output", "{tmp}/run\n"),
        ("--output", "{tmp}/a\u2028b"),
        ("--model-dir", " {tmp}/colmap"),
        ("--model-dir", "{tmp}/colmap\t"),
        ("--model-dir", "#colmap"),
        ("--depth-dir", "{tmp}/depth\udc85"),
    ])
    def test_path_run_config_cannot_record_exits_1_before_any_file(
        self, fixture_dir, tmp_path, capsys, flag, template
    ):
        paths = {"--model-dir": str(fixture_dir), "--output": str(tmp_path / "run")}
        paths[flag] = template.format(tmp=tmp_path)
        code = run("pipeline", *(arg for item in paths.items() for arg in item))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flag} ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["colmap"]

    def test_negative_seed_from_config_exits_1_before_any_file(
        self, fixture_dir, tmp_path, capsys
    ):
        # a negative seed once passed validation and crashed in the
        # dataset split, after run-config.txt was written
        conf = tmp_path / "run.conf"
        conf.write_text("seed = -1\n")
        out = tmp_path / "run"
        code = run("pipeline", "--model-dir", str(fixture_dir), "--output", str(out),
                   "--config", str(conf))
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: seed must be >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-dataset", "train", "pipeline"])
    def test_empty_output_exits_1_before_any_file(
        self, fixture_dir, tmp_path, capsys, monkeypatch, command
    ):
        # an empty path once meant the working directory: every command
        # wrote run-config.txt there, and pipeline all of its artifacts
        source = ["--model-dir", str(fixture_dir)]
        if command == "train":
            dataset = tmp_path / "ds.csv"
            assert run("build-dataset", *source, "--output", str(dataset)) == 0
            source = ["--dataset", str(dataset)]
        conf = tmp_path / "run.conf"
        conf.write_text("output =\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for output in (["--output", ""], ["--config", str(conf)]):
            capsys.readouterr()
            assert run(command, *source, *output) == 1
            assert capsys.readouterr().err == "usage error: --output must not be empty\n"
            assert list(work.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_l2_weight_without_a_finite_penalty_exits_1(
        self, fixture_dir, tmp_path, capsys, value
    ):
        # nan once ran every fit on NaN losses and wrote a model at its
        # start; inf and 1e308 (an infinite penalty at the box's corners)
        # ended in a traceback
        conf = tmp_path / "run.conf"
        conf.write_text(f"l2_weight = {value}\n")
        out = tmp_path / "run"
        for source in (["--l2-weight", value], ["--config", str(conf)]):
            code = run("pipeline", "--model-dir", str(fixture_dir), "--output", str(out), *source)
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("usage error: l2_weight must be >= 0 with a finite penalty")
            assert "Traceback" not in err
            assert not out.exists()

    def test_config_file_not_utf8_exits_1(self, fixture_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"seed = 3\n\xff\xfe\n")
        code = run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(tmp_path / "ds.csv"), "--config", str(conf),
        )
        assert code == 1
        assert "can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "ds.csv").exists()


def test_import_leaves_scipy_optimize_unloaded(surface_dir, tmp_path):
    # importing scipy.optimize costs start-up time and memory, and nothing
    # in gpgs needs it: neither the CLI's import nor a training loads it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, gpgs.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

    ds = tmp_path / "ds.csv"
    assert run("build-dataset", "--model-dir", str(surface_dir), "--output", str(ds)) == 0
    train = (
        "import sys, gpgs.cli; code = gpgs.cli.main(sys.argv[1:]); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", train, "train", "--dataset", str(ds),
         "--output", str(tmp_path / "model.txt"), "--iterations", "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
