"""Command-level tests: flags, config files, exit codes, artifacts."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpgs import cli, gp, model_io, sfm_io
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
        assert run(
            "train", "--dataset", str(dataset), "--output", str(model_path),
            "--iterations", "20",
        ) == 0
        lines = (tmp_path / "model_loss.csv").read_text().splitlines()
        assert lines[0] == "iter,group,loss"
        # one curve per fit group, each of at most --iterations rows
        groups = [line.split(",")[1] for line in lines[1:]]
        assert sorted(set(groups)) == ["rgb", "x", "y", "z"]
        assert all(groups.count(name) <= 20 for name in set(groups))
        assert len(lines) == 1 + 20 * 4

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

    def test_warns_when_budget_ends_the_fit(self, dataset, tmp_path, capsys):
        assert run(
            "train", "--dataset", str(dataset), "--output", str(tmp_path / "m.txt"),
            "--iterations", "1",
        ) == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "warning: frame 1 densify: outputs x, y, z, rgb used all 1 evaluations"
        )

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

    def test_densification_fit_starts_where_evaluation_fit_ended(
        self, surface_dir, tmp_path, monkeypatch
    ):
        fits = []  # (start, kept theta) of every output group's fit, in order
        original = gp._minimize_within

        def recorded(fun, theta0, *args):
            theta, curve = original(fun, theta0, *args)
            fits.append((np.array(theta0), theta))
            return theta, curve

        monkeypatch.setattr(gp, "_minimize_within", recorded)
        out = tmp_path / "run"
        assert run(
            "pipeline", "--model-dir", str(surface_dir), "--output", str(out),
            "--iterations", "30",
        ) == 0
        # the evaluation fit, then the densification fit, four groups each
        assert len(fits) == 8
        template = gp.default_kernel().log_params()
        for (eval_start, eval_kept), (start, kept) in zip(fits[:4], fits[4:]):
            assert np.array_equal(eval_start, template)
            assert np.array_equal(start, eval_kept)
        saved = model_io.load_model(out / "model.txt").configs
        assert [cfg.log_params().tolist() for cfg in saved] == [
            fits[4 + g][1].tolist() for g, outputs in enumerate(gp.OUTPUT_GROUPS)
            for _ in outputs
        ]

    def test_budget_of_one_matches_two_cold_fits(self, tmp_path, monkeypatch, capsys):
        # at --iterations 1 every fit keeps its start, and every start is the
        # kernel's: artifacts equal those of two cold fits per frame
        model_dir, _, _ = surface_colmap_model(tmp_path / "surface", 2000, 420, seed=0)
        calls = []
        original_fit = gp._fit_outputs

        def counted(X, *args):
            calls.append(len(X))
            return original_fit(X, *args)

        monkeypatch.setattr(gp, "_fit_outputs", counted)
        flags = ("--model-dir", str(model_dir), "--iterations", "1")
        assert run("pipeline", "--output", str(tmp_path / "new" / "run"), *flags) == 0
        assert calls == [336, 420]
        err = capsys.readouterr().err
        assert [ln.split(": outputs")[0] for ln in err.splitlines()] == [
            "warning: frame 1 evaluate", "warning: frame 1 densify",
        ]

        original_train = gp.train_gp
        monkeypatch.setattr(
            gp, "train_gp", lambda ds, kernel, cfg, starts=None: original_train(ds, kernel, cfg)
        )
        assert run("pipeline", "--output", str(tmp_path / "cold" / "run"), *flags) == 0
        names = sorted(p.name for p in (tmp_path / "new" / "run").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "cold" / "run").iterdir())
        for name in names:
            if name != "run-config.txt":  # it records the output path
                new = (tmp_path / "new" / "run" / name).read_bytes()
                assert new == (tmp_path / "cold" / "run" / name).read_bytes(), name

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
        ("outputs", "5", "outputs: 5, not 6"),
        ("outputs", "7", "outputs: 7, not 6"),
        ("norm_std", "0", "norm_std: 0.0 is not positive"),
        ("norm_std", "-1", "norm_std: -1.0 is not positive"),
        ("jitter", "-1e-08", "jitter: -1e-08 is below 0"),
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

    def test_env_seed_fallback(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        out = tmp_path / "ds.csv"
        run("build-dataset", "--model-dir", str(fixture_dir), "--output", str(out))
        assert "seed = 123" in (tmp_path / "run-config.txt").read_text()

    def test_flag_beats_env_seed(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        out = tmp_path / "ds.csv"
        run(
            "build-dataset", "--model-dir", str(fixture_dir),
            "--output", str(out), "--seed", "7",
        )
        assert "seed = 7" in (tmp_path / "run-config.txt").read_text()


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


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs start-up time that only training needs, so the
    # CLI imports it lazily; this guards that laziness.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, gpgs.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
