"""Command-line interface.

Subcommands wire the pipeline stages together: build-dataset, train,
densify, evaluate, and pipeline (all four in sequence). Every command is
deterministic given its inputs, flags, and seed. Exit codes: 0 success,
1 usage error, 2 input-data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import densify as dn
from . import gp, metrics, model_io, sfm_io
from .errors import (
    EmptyDataset,
    InputDataError,
    MalformedLine,
    NumericalError,
    UsageError,
)

# The name of each group of outputs that training fits together: xyz, rgb.
_GROUP_NAMES = tuple(
    "".join(metrics.OUTPUT_NAMES[j] for j in outputs) for outputs in gp.OUTPUT_GROUPS
)
# The log-parameters whose place on +-gp.LOG_PARAM_BOUND training warns about.
_BOUNDED_KEYS = ("log_signal_var", "log_lengthscale")


@dataclass
class RunConfig:
    """Effective configuration of a run after merging defaults, the config
    file, and command-line flags (in that order). The defaults are the
    module configs' own."""

    model_dir: Optional[str] = None
    dataset: Optional[str] = None
    gp_model: Optional[str] = None
    output: Optional[str] = None
    depth_dir: Optional[str] = None
    kernel: str = gp.KernelConfig.family
    nu: float = gp.KernelConfig.nu
    key_frames: int = 1
    beta: float = dn.SamplingConfig.beta
    angular_resolution: int = dn.SamplingConfig.angular_resolution
    filter_quantile: float = dn.FilterConfig.quantile
    iterations: int = gp.TrainConfig.iterations
    l2_weight: float = gp.TrainConfig.l2_weight
    max_train_points: int = gp.TrainConfig.max_train_points
    train_fraction: float = 0.8
    seed: int = gp.TrainConfig.seed
    ply_binary: bool = True

    def kernel_template(self) -> gp.KernelConfig:
        return gp.default_kernel(self.kernel, self.nu)

    def train_config(self) -> gp.TrainConfig:
        return gp.TrainConfig(
            iterations=self.iterations,
            l2_weight=self.l2_weight,
            max_train_points=self.max_train_points,
            seed=self.seed,
        )

    def sampling_config(self) -> dn.SamplingConfig:
        return dn.SamplingConfig(beta=self.beta, angular_resolution=self.angular_resolution)

    def filter_config(self) -> dn.FilterConfig:
        return dn.FilterConfig(quantile=self.filter_quantile)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _convert(key: str, raw: str, where: str):
    kind = _FIELD_TYPES[key]
    if kind in ("Optional[str]", "str"):
        return raw
    if kind == "bool":
        lowered = raw.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise UsageError(f"{where}: config value for {key} must be boolean, got {raw!r}")
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError as exc:
        raise UsageError(f"{where}: config value for {key}: {exc}") from exc


# A '#' at the start of a line or after whitespace starts a comment, so a
# path such as scene#1 reads whole.
_COMMENT = re.compile(r"(?:^|\s)#")


def _recordable(value: str) -> bool:
    """Whether a `key = value` line in UTF-8 reads the value back whole:
    sfm_io.text_lines ends a line at \\n and \\r."""
    return (
        value == value.strip()
        and "\n" not in value and "\r" not in value
        and not _COMMENT.search(f" {value}")
        and value.encode("utf-8", "replace").decode("utf-8") == value
    )


def parse_config_file(path) -> dict:
    """Plain-text `key = value` lines, read by sfm_io.text_lines; '#' at the
    start of a line or after whitespace starts a comment. A byte that is
    not UTF-8 is a usage error, an unreadable file an input error."""
    path = Path(path)
    try:
        lines = list(sfm_io.text_lines(path))
    except MalformedLine as exc:
        raise UsageError(str(exc)) from exc
    values = {}
    for lineno, raw in lines:
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _convert(key, value.strip(), f"{path}:{lineno}")
    return values


def write_run_config(cfg: RunConfig, out_dir: Path) -> None:
    """Write the run's settings as a config file that --config replays;
    paths not given are left out."""
    with sfm_io.writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{field.name} = {getattr(cfg, field.name)}"
        for field in dataclasses.fields(RunConfig)
        if getattr(cfg, field.name) is not None
    ]
    sfm_io.write_lines(out_dir / "run-config.txt", lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for this command")


def _suffixed(path: Path, image_id: int, multi: bool) -> Path:
    if not multi:
        return path
    return path.with_name(f"{path.stem}_frame{image_id}{path.suffix}")


def _depth_path(cfg: RunConfig, model: sfm_io.SparseModel, image_id: int) -> Path:
    """<depth-dir>/<image stem>.pfm, the depth map of an image."""
    return Path(cfg.depth_dir) / (Path(model.image_by_id(image_id).name).stem + ".pfm")


# Stages: each takes and returns objects; they print progress but write no file.

def frame_datasets(
    cfg: RunConfig, model: sfm_io.SparseModel
) -> list[tuple[sfm_io.PixelToPointDataset, Optional[sfm_io.DepthMap]]]:
    """Rank the key frames, print the ranking, and build one dataset per frame.

    Returns (dataset, depth map) per key frame; the depth map is None
    without --depth-dir. Two key frames whose image names share a stem
    would read one depth map: an input error, before any map is read.
    """
    frames = sfm_io.select_key_frames(model, cfg.key_frames)
    print("rank  image_id  linked  name")
    for rank, image_id in enumerate(frames, start=1):
        img = model.image_by_id(image_id)
        print(f"{rank:<5} {image_id:<9} {img.linked_count():<7} {img.name}")
    paths = [_depth_path(cfg, model, image_id) if cfg.depth_dir else None for image_id in frames]
    for i, path in enumerate(paths):
        if path and path in paths[:i]:
            names = (model.image_by_id(frames[j]).name for j in (paths.index(path), i))
            raise InputDataError(f"key frames {' and '.join(names)} both read {path}")

    datasets = []
    for image_id, path in zip(frames, paths):
        depth = sfm_io.read_depth_pfm(path) if path else None
        ds = sfm_io.build_pixel_dataset(model, image_id, depth)
        dropped = model.image_by_id(image_id).linked_count() - len(ds)
        if dropped:
            print(f"frame {image_id}: dropped {dropped} samples on invalid depth")
        datasets.append((ds, depth))
    return datasets


def train_model(cfg: RunConfig, ds: sfm_io.PixelToPointDataset, label: str) -> gp.TrainedGP:
    """Train the GPs on a dataset.

    Prints warnings on standard error, headed by the fit's label: one
    naming the output groups whose fit used all --iterations evaluations
    (the budget, not convergence, ended their search), and one per group
    that kept a log signal variance or log lengthscale on
    +-gp.LOG_PARAM_BOUND. A noise variance at its floor is expected on
    noise-free targets and gets no warning.
    """
    model = gp.train_gp(ds, cfg.kernel_template(), cfg.train_config())
    spent = [
        name for name, curve in zip(_GROUP_NAMES, model.loss_curves)
        if len(curve) == cfg.iterations
    ]
    if spent:
        print(
            f"warning: {label}: outputs {', '.join(spent)} used all {cfg.iterations} evaluations "
            "of --iterations; their hyperparameters may not have converged",
            file=sys.stderr,
        )
    for name, outputs in zip(_GROUP_NAMES, gp.OUTPUT_GROUPS):
        theta = model.configs[outputs[0]].log_params()
        on_bound = [f"{key} {value:g}" for key, value in zip(_BOUNDED_KEYS, theta)
                    if abs(value) >= gp.LOG_PARAM_BOUND]
        if on_bound:
            print(
                f"warning: {label}: outputs {name} kept {', '.join(on_bound)}, on the bound "
                f"+-{gp.LOG_PARAM_BOUND:g}; the fit may have degenerated",
                file=sys.stderr,
            )
    return model


def holdout_split(cfg: RunConfig, ds: sfm_io.PixelToPointDataset) -> sfm_io.SplitResult:
    """The dataset's train/test split, checked to hold the 2 test rows that
    scoring needs."""
    split = sfm_io.split_dataset(ds, cfg.train_fraction, cfg.seed)
    if len(split.test) < 2:
        raise EmptyDataset(
            f"test split is empty or has one row ({len(split.test)} of n={len(ds)} at "
            f"train_fraction={cfg.train_fraction}); scoring needs at least 2"
        )
    return split


# Artifact writers

def _write_datasets(datasets, out: Path) -> list[Path]:
    written = []
    for ds in datasets:
        path = _suffixed(out, ds.image_id, multi=len(datasets) > 1)
        sfm_io.write_dataset_csv(ds, path)
        print(f"frame {ds.image_id}: wrote {len(ds)} samples to {path}")
        written.append(path)
    return written


def _write_model(model: gp.TrainedGP, curves, out: Path) -> None:
    """Write the model file and, beside it, the loss curves of the fit that
    chose its hyperparameters."""
    model_io.save_model(model, out)
    loss_path = out.with_name(out.stem + "_loss.csv")
    lines = ["iter,group,loss"]
    for name, curve in zip(_GROUP_NAMES, curves):
        lines += [f"{it},{name},{loss:.17g}" for it, loss in enumerate(curve)]
    sfm_io.write_lines(loss_path, lines)
    # training keeps each group's lowest-loss evaluation, not its last one
    finals = "  ".join(f"{name}={curve.min():.6g}" for name, curve in zip(_GROUP_NAMES, curves))
    print(f"model on {model.X.shape[0]} points; its fit's final per-group NLL: {finals}")
    print(f"model: {out}\nloss curve: {loss_path}")


def cmd_build_dataset(cfg: RunConfig) -> list[Path]:
    """Parse the SfM model, rank key frames, and write dataset CSVs."""
    _require(cfg, "model_dir", "output")
    datasets = [ds for ds, _ in frame_datasets(cfg, sfm_io.parse_colmap_model(cfg.model_dir))]
    out = Path(cfg.output)
    write_run_config(cfg, out.parent)
    return _write_datasets(datasets, out)


def cmd_train(cfg: RunConfig) -> Path:
    """Train the GPs on a dataset CSV and write the model file."""
    _require(cfg, "dataset", "output")
    ds = sfm_io.read_dataset_csv(cfg.dataset)
    model = train_model(cfg, ds, f"frame {ds.image_id} train")
    out = Path(cfg.output)
    write_run_config(cfg, out.parent)
    _write_model(model, model.loss_curves, out)
    return out


# The relative spread of the colour variances at or below which they cannot
# rank the candidates: a colour fit to constant colours spreads about 5e-5,
# smooth scenes 0.97 to 0.997, and 1e-3 lies far from both.
_RANKLESS_SPREAD = 1e-3


def _candidates(cfg: RunConfig, X: np.ndarray, size, depth, frame: str) -> np.ndarray:
    """Candidate inputs sampled around the training pixels of the inputs X
    of an image of size (width, height), with a depth column from depth,
    the key frame's depth map, when X has one. frame names the key frame
    or model in the error raised when no candidate is left."""
    pixels = X[:, :2] * size
    candidates = dn.generate_samples(pixels, *size, cfg.sampling_config())
    if X.shape[1] == 3:
        candidates = dn.attach_depth(candidates, depth, *size)
    if len(candidates) == 0:
        raise EmptyDataset(
            f"{frame}: no candidate left by sampling around {len(pixels)} training pixels at "
            f"beta={cfg.beta} and angular_resolution={cfg.angular_resolution}"
        )
    return candidates


def _filtered(cfg: RunConfig, model: gp.TrainedGP, candidates, frame: str):
    """The predictions at the candidates, filtered by colour variance.

    Prints a warning on standard error, headed by frame, when the colour
    variances cannot rank the candidates (_RANKLESS_SPREAD), and one when
    ties at the threshold make the filter keep more than its quantile.
    """
    preds = dn.infer_dense(model, candidates)
    lo, hi = preds.mean_rgb_var.min(), preds.mean_rgb_var.max()
    if len(preds) > 1 and hi - lo <= _RANKLESS_SPREAD * hi:
        print(
            f"warning: {frame}: the colour variances of all {len(preds)} candidates lie "
            f"between {lo:.6g} and {hi:.6g}, too close to rank them for the filter",
            file=sys.stderr,
        )
    filtered = dn.filter_by_variance(preds, cfg.filter_config())
    kept, m = filtered.retained_count(), len(filtered)
    if kept > math.ceil(cfg.filter_quantile * m):
        tau = filtered.mean_rgb_var[filtered.retained].max()
        print(
            f"warning: {frame}: the filter kept {kept} of {m} predictions at quantile "
            f"{cfg.filter_quantile:g}: ties at its threshold {tau:.6g}",
            file=sys.stderr,
        )
    return filtered


def _concat_predictions(parts: list[dn.PredictedPointSet]) -> dn.PredictedPointSet:
    return dn.PredictedPointSet(
        mean6=np.concatenate([part.mean6 for part in parts]),
        mean_rgb_var=np.concatenate([part.mean_rgb_var for part in parts]),
        retained=np.concatenate([part.retained for part in parts]),
    )


def cmd_densify(cfg: RunConfig) -> Path:
    """Predict new points from a trained model and merge with the SfM cloud."""
    _require(cfg, "model_dir", "gp_model", "output")
    model = model_io.load_model(cfg.gp_model)
    sparse = sfm_io.parse_colmap_model(cfg.model_dir)
    depth = None
    if model.input_dim == 3:
        if cfg.dataset is None or cfg.depth_dir is None:
            raise UsageError(
                "depth-trained model needs --dataset (for the key frame id) and --depth-dir"
            )
        image_id = sfm_io.read_dataset_csv(cfg.dataset).image_id
        depth = sfm_io.read_depth_pfm(_depth_path(cfg, sparse, image_id))
    frame = f"model {cfg.gp_model}"
    candidates = _candidates(cfg, model.X, (model.width, model.height), depth, frame)
    filtered = _filtered(cfg, model, candidates, frame)

    out = Path(cfg.output)
    write_run_config(cfg, out.parent)
    _write_cloud(cfg, sparse, filtered, out)
    return out


def _write_cloud(cfg: RunConfig, sparse, preds: dn.PredictedPointSet, out: Path) -> None:
    """Merge the predictions with the sparse points; write the PLY and the
    variance report beside it."""
    cloud = dn.merge_clouds(sparse, preds)
    sfm_io.write_ply(cloud, out, binary=cfg.ply_binary)
    report = dn.variance_reduction_report(preds)
    print(
        f"sparse points: {len(sparse.points3d)}  candidates: {len(preds)}  "
        f"retained: {preds.retained_count()}  output points: {len(cloud)}"
    )
    print("channel   original      filtered      reduction")
    print(
        f"rgb_mean  {report.original:<13.6g} {report.filtered:<13.6g} "
        f"{report.reduction_pct:.2f}%"
    )
    sfm_io.write_lines(out.with_name(out.stem + "_variance.csv"), [
        "channel,original,filtered,reduction_pct",
        f"rgb_mean,{report.original:.17g},{report.filtered:.17g},{report.reduction_pct:.17g}",
    ])
    print(f"cloud: {out}")


def _write_metrics(report: metrics.HoldoutReport, out: Path) -> None:
    lines = ["metric,output,value"]
    bundle = report.bundle
    lines.append(f"r2,joint,{bundle.r2:.17g}")
    lines.append(f"rmse,joint,{bundle.rmse:.17g}")
    lines.append(f"chamfer,joint,{bundle.chamfer:.17g}")
    lines.append(f"sample_count,joint,{bundle.sample_count}")
    for out_metrics in report.per_output:
        r2_text = "" if out_metrics.r2 is None else f"{out_metrics.r2:.17g}"
        lines.append(f"r2,{out_metrics.name},{r2_text}")
        lines.append(f"rmse,{out_metrics.name},{out_metrics.rmse:.17g}")
    sfm_io.write_lines(out, lines)
    print(
        f"holdout n={bundle.sample_count}: r2={bundle.r2:.4f} "
        f"rmse={bundle.rmse:.6g} chamfer={bundle.chamfer:.6g}"
    )
    print("output  r2        rmse")
    for om in report.per_output:
        r2_text = "-" if om.r2 is None else f"{om.r2:.4f}"
        print(f"{om.name:<7} {r2_text:<9} {om.rmse:.6g}")
    print(f"report: {out}")


def cmd_evaluate(cfg: RunConfig) -> Path:
    """Hold out a test split, train on the rest, and report metrics."""
    _require(cfg, "dataset", "output")
    ds = sfm_io.read_dataset_csv(cfg.dataset)
    split = holdout_split(cfg, ds)
    model = train_model(cfg, split.train, f"frame {ds.image_id} evaluate")
    report = metrics.evaluate_holdout(model, split.test)
    out = Path(cfg.output)
    write_run_config(cfg, out.parent)
    _write_metrics(report, out)
    return out


def cmd_pipeline(cfg: RunConfig) -> None:
    """build-dataset, evaluate, train, and densify in sequence, in memory.

    The COLMAP model is parsed once and each key frame's dataset is built
    once; the dataset, metrics, and model files are written as artifacts
    and never read back. Each key frame runs one hyperparameter search,
    the evaluation fit on its train split, which metrics.csv scores; its
    GPs are then conditioned on all the frame's samples at the configs it
    kept (gp.condition_gp), and the frame densifies with that model, the
    one its model file reloads to. The loss-curve file holds the
    evaluation fit's curves. The retained predictions of all frames are
    unioned before merging with the sparse cloud. Every frame's split and
    candidates, sampled around the inputs that the conditioning keeps, are
    checked before the first dataset is written or fit runs.
    """
    _require(cfg, "model_dir", "output")
    out_dir = Path(cfg.output)
    write_run_config(cfg, out_dir)

    sparse = sfm_io.parse_colmap_model(cfg.model_dir)
    frames = frame_datasets(cfg, sparse)
    splits = [holdout_split(cfg, ds) if len(ds) else None for ds, _ in frames]
    candidates = [
        _candidates(cfg, gp._training_data(ds, cfg.train_config())[0], (ds.width, ds.height),
                    depth, f"frame {ds.image_id}") if len(ds) else None
        for ds, depth in frames
    ]
    ds_paths = _write_datasets([ds for ds, _ in frames], out_dir / "dataset.csv")
    multi = len(frames) > 1
    filtered_parts = []
    for (ds, _), split, frame_candidates, ds_path in zip(frames, splits, candidates, ds_paths):
        if len(ds) == 0:
            print(f"skipping empty dataset {ds_path}")
            continue
        fit = train_model(cfg, split.train, f"frame {ds.image_id} evaluate")
        report = metrics.evaluate_holdout(fit, split.test)
        _write_metrics(report, _suffixed(out_dir / "metrics.csv", ds.image_id, multi))
        configs, curves = fit.configs, fit.loss_curves
        del fit  # free its inverse factors before the conditioning allocates its own
        model = gp.condition_gp(ds, configs, cfg.train_config())
        _write_model(model, curves, _suffixed(out_dir / "model.txt", ds.image_id, multi))
        filtered_parts.append(_filtered(cfg, model, frame_candidates, f"frame {ds.image_id}"))
        del model  # free its inverse factors before the next frame trains

    if not filtered_parts:
        raise EmptyDataset("no key frame produced a usable dataset")
    _write_cloud(cfg, sparse, _concat_predictions(filtered_parts), out_dir / "cloud.ply")


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpgs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("build-dataset", "parse a COLMAP model and write pixel-to-point dataset CSVs"),
        ("train", "train the GPs on a dataset CSV"),
        ("densify", "sample, infer, filter, and merge into a PLY cloud"),
        ("evaluate", "train/test split evaluation of the GP"),
        ("pipeline", "run all stages into an output directory"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="plain-text key = value config file")
        p.add_argument("--model-dir", help="COLMAP text model directory")
        p.add_argument("--dataset", help="pixel-to-point dataset CSV")
        p.add_argument("--gp-model", help="trained model file (densify)")
        p.add_argument("--output", help="output file, or directory for pipeline")
        p.add_argument("--depth-dir", help="directory of per-frame PFM depth maps")
        p.add_argument("--kernel", choices=(gp.MATERN, gp.RBF))
        p.add_argument("--nu", type=float, choices=gp.SUPPORTED_NU)
        p.add_argument("--key-frames", type=int)
        p.add_argument("--beta", type=float)
        p.add_argument("--angular-resolution", type=int)
        p.add_argument("--filter-quantile", type=float)
        p.add_argument("--iterations", type=int)
        p.add_argument("--l2-weight", type=float)
        p.add_argument("--max-train-points", type=int)
        p.add_argument("--train-fraction", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument(
            "--ascii-ply", dest="ply_binary", action="store_false", default=None,
            help="write ASCII instead of binary PLY",
        )
    return parser


def build_run_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in _FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def validate(cfg: RunConfig) -> None:
    """Range-check the run's settings, so that a bad value exits as a usage
    error before any file is touched.

    Most ranges live in the module configs, which check them when built.
    A path setting may be missing but not empty, and run-config.txt must
    be able to record it (_recordable).
    """
    for name, kind in _FIELD_TYPES.items():
        value, flag = getattr(cfg, name), f"--{name.replace('_', '-')}"
        if kind != "Optional[str]" or value is None:
            continue
        if value == "":
            raise UsageError(f"{flag} must not be empty")
        if not _recordable(value):
            raise UsageError(
                f"{flag} {value!r}: run-config.txt cannot record a path with leading or "
                "trailing whitespace, a line break, a '#' at its start or after whitespace, "
                "or a byte that is not UTF-8"
            )
    try:
        cfg.train_config()
        cfg.sampling_config()
        cfg.filter_config()
        cfg.kernel_template()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if cfg.key_frames < 1:
        raise UsageError(f"key_frames must be >= 1, got {cfg.key_frames}")
    if not 0.0 < cfg.train_fraction < 1.0:
        raise UsageError(f"train_fraction must be in (0, 1), got {cfg.train_fraction}")


_COMMANDS = {
    "build-dataset": cmd_build_dataset,
    "train": cmd_train,
    "densify": cmd_densify,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_run_config(args)
        validate(cfg)
        _COMMANDS[args.command](cfg)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
