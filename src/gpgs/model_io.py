"""Plain-text serialization of trained GP models.

The format is versioned ("gpgs-model v1") and stores the per-output
hyperparameters, the normalizer, and the embedded training data at 17
significant digits, which round-trips float64 exactly. A trained model's
x, y, z blocks and its r, g, b blocks each hold one set, written thrice.
Reloading fills, factors and inverts one Gram matrix per distinct
(hyperparameters, jitter) with the arithmetic training used
(TrainedGP.fit), so the inverse factors, and with them posterior outputs,
are bit-identical to the model that was saved. A file whose six outputs
all differ loads to six inverse factors.
A file with a width or height outside 1..sfm_io.MAX_IMAGE_SIDE, an
input_dim other than 2 (u, v) or 3 (u, v, depth), no training points or
more than its remaining lines can hold, other than six outputs, a
norm_std of 0 or below or a negative jitter is rejected at that line;
a log-parameter whose exponential overflows, or a log-lengthscale so
small that the kernel's sqrt(5)/lengthscale scaling does, at the line of
its output block; any other log-parameter outside the box training fits
in (gp._BOUNDS), at its line, since far outside it the kernel fill can
overflow into NaN.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import MalformedLine, MissingFile
from .gp import _BOUNDS, MATERN, KernelConfig, OutputNormalizer, TrainedGP
from .sfm_io import FLOAT32_MAX, MAX_IMAGE_SIDE, read_text, write_lines

MODEL_HEADER = "gpgs-model v1"
N_OUTPUTS = 6  # x, y, z, r, g, b
_LOG_PARAM_KEYS = ("log_signal_var", "log_lengthscale", "log_noise_var")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def save_model(model: TrainedGP, path) -> None:
    lines = [
        MODEL_HEADER,
        f"width {model.width}",
        f"height {model.height}",
        f"input_dim {model.input_dim}",
        f"train_points {model.X.shape[0]}",
        f"outputs {model.n_outputs}",
    ]
    for j, cfg in enumerate(model.configs):
        lines += [
            f"output {j}",
            f"family {cfg.family}",
            f"nu {cfg.nu if cfg.family == MATERN else 'none'}",
            f"log_signal_var {_fmt(cfg.log_signal_var)}",
            f"log_lengthscale {_fmt(cfg.log_lengthscale)}",
            f"log_noise_var {_fmt(cfg.log_noise_var)}",
            f"norm_mean {_fmt(model.normalizer.mean[j])}",
            f"norm_std {_fmt(model.normalizer.std[j])}",
            f"jitter {_fmt(model.jitters[j])}",
        ]
    lines.append("inputs")
    for row in model.X:
        lines.append(" ".join(_fmt(v) for v in row))
    lines.append("targets")
    for row in model.Z:
        lines.append(" ".join(_fmt(v) for v in row))
    lines.append("end")
    write_lines(path, lines)


def load_model(path) -> TrainedGP:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"missing model file {path}")
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != MODEL_HEADER:
        raise MalformedLine(path, 1, f"expected header {MODEL_HEADER!r}")

    pos = 1

    def take_kv(key: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise MalformedLine(path, pos + 1, f"unexpected end of file, wanted {key!r}")
        tokens = lines[pos].split(None, 1)
        if len(tokens) != 2 or tokens[0] != key:
            raise MalformedLine(path, pos + 1, f"expected {key!r}, got {lines[pos]!r}")
        pos += 1
        return tokens[1].strip()

    def take_number(key: str, kind=float):
        value = take_kv(key)
        try:
            number = kind(value)
        except ValueError as exc:
            raise MalformedLine(path, pos, f"{key}: {exc}") from exc
        if isinstance(number, float) and not math.isfinite(number):
            raise MalformedLine(path, pos, f"{key}: non-finite value {value}")
        return number

    def take_count(key: str, least: int = 0, most: float = math.inf) -> int:
        value = take_number(key, int)
        if value < least:
            raise MalformedLine(path, pos, f"{key}: {value} is below {least}")
        if value > most:
            raise MalformedLine(path, pos, f"{key}: above {most}")
        return value

    width = take_count("width", 1, MAX_IMAGE_SIDE)
    height = take_count("height", 1, MAX_IMAGE_SIDE)
    input_dim = take_count("input_dim")
    if input_dim not in (2, 3):
        raise MalformedLine(path, pos, f"input_dim: {input_dim}, not 2 or 3")
    # at most what the lines after it hold of the inputs and the targets: a
    # larger count made take_matrix raise MemoryError or ValueError allocating
    n = take_count("train_points", 1, (len(lines) - pos - 1) // 2)
    n_outputs = take_count("outputs")
    if n_outputs != N_OUTPUTS:
        raise MalformedLine(path, pos, f"outputs: {n_outputs}, not {N_OUTPUTS}")

    configs: list[KernelConfig] = []
    means, stds, jitters = [], [], []
    for j in range(n_outputs):
        block_line = pos + 1
        if take_number("output", int) != j:
            raise MalformedLine(path, pos, f"output blocks out of order near line {pos}")
        family = take_kv("family")
        nu = take_number("nu", lambda t: None if t == "none" else float(t))
        log_params, param_lines = [], []
        for key in _LOG_PARAM_KEYS:
            log_params.append(take_number(key))
            param_lines.append(pos)
        try:
            configs.append(KernelConfig(family, nu, *log_params))
        except ValueError as exc:
            raise MalformedLine(path, block_line, f"output {j}: {exc}") from exc
        for key, value, line, (low, high) in zip(
            _LOG_PARAM_KEYS, log_params, param_lines, _BOUNDS
        ):
            if not low <= value <= high:
                raise MalformedLine(
                    path, line, f"{key}: {value} is outside [{low}, {high}], "
                    "the box training fits in"
                )
        means.append(take_number("norm_mean"))
        stds.append(take_number("norm_std"))
        if stds[-1] <= 0:
            raise MalformedLine(path, pos, f"norm_std: {stds[-1]} is not positive")
        jitters.append(take_number("jitter"))
        if jitters[-1] < 0:
            raise MalformedLine(path, pos, f"jitter: {jitters[-1]} is below 0")

    def take_matrix(tag: str, rows: int, cols: int) -> np.ndarray:
        nonlocal pos
        if pos >= len(lines) or lines[pos].strip() != tag:
            raise MalformedLine(path, pos + 1, f"expected section {tag!r}")
        pos += 1
        out = np.empty((rows, cols))
        for i in range(rows):
            if pos >= len(lines):
                raise MalformedLine(path, pos + 1, f"{tag} section truncated at row {i}")
            tokens = lines[pos].split()
            if len(tokens) != cols:
                raise MalformedLine(path, pos + 1, f"expected {cols} values, got {len(tokens)}")
            try:
                out[i] = [float(t) for t in tokens]
            except ValueError as exc:
                raise MalformedLine(path, pos + 1, f"{tag} row {i}: {exc}") from exc
            if not np.isfinite(out[i]).all():
                raise MalformedLine(path, pos + 1, f"{tag} row {i}: non-finite value")
            # the dataset CSV's bound: larger inputs overflow the candidate pixels
            if tag == "inputs" and not (np.abs(out[i]) <= FLOAT32_MAX).all():
                raise MalformedLine(path, pos + 1, f"{tag} row {i}: beyond float32 range")
            pos += 1
        return out

    X = take_matrix("inputs", n, input_dim)
    Z = take_matrix("targets", n, n_outputs)
    if pos >= len(lines) or lines[pos].strip() != "end":
        raise MalformedLine(path, pos + 1, "missing 'end' marker")

    normalizer = OutputNormalizer(np.array(means), np.array(stds))
    return TrainedGP.fit(
        X, Z, configs, normalizer, width, height, jitter=tuple(jitters)
    )
