"""Plain-text serialization of trained GP models.

The format is versioned ("gpgs-model v1"). After its header line come the
HEAD_KEYS, one `key value` line each, then the BLOCK_KEYS once for each of
the six outputs, then an `inputs` line and train_points rows of input_dim
values, a `targets` line and train_points rows of six values, and `end`.
Floats are written at 17 significant digits, which round-trips float64
exactly. A trained model's x, y, z blocks and its r, g, b blocks each hold
one set, written thrice. Reloading fills, factors and inverts one Gram
matrix per distinct (hyperparameters, jitter) with the arithmetic training
used (TrainedGP.fit), so the inverse factors, and with them posterior
outputs, are bit-identical to the model that was saved. A file whose six
outputs all differ loads to six inverse factors.

load_model reads that layout and nothing else, and reports the first line
that departs from it. Each value has one rule, checked at its own line: a
float must be finite, and a value in RULES must pass its rule there. The
log-parameters must lie in gp._BOUNDS, the box training fits in: far
outside it the kernel fill can overflow into NaN. train_points must lie in
1..k, k half the lines that follow it, and output j's block opens with
`output j`. KernelConfig checks family and nu, and sfm_io.number_rows the
rows of inputs and targets, as it does a dataset CSV's rows.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import MalformedLine
from .gp import _BOUNDS, MATERN, KernelConfig, OutputNormalizer, TrainedGP
from .sfm_io import IMAGE_SIDE, line_value, number_rows, text_lines, within, write_lines

MODEL_HEADER = "gpgs-model v1"
N_OUTPUTS = 6  # x, y, z, r, g, b
LOG_PARAM_KEYS = ("log_signal_var", "log_lengthscale", "log_noise_var")
HEAD_KEYS = ("width", "height", "input_dim", "train_points", "outputs")
BLOCK_KEYS = ("output", "family", "nu", *LOG_PARAM_KEYS, "norm_mean", "norm_std", "jitter")


def _one_of(*allowed):
    return lambda v: None if v in allowed else f"{v}, not {' or '.join(map(str, allowed))}"


def _in_box(low: float, high: float):
    return lambda v: (
        None if low <= v <= high
        else f"{v} is outside [{low}, {high}], the box training fits in"
    )


# The rule of each bounded value but train_points, whose rule load_model
# sets by the lines that follow it.
RULES = {
    "width": IMAGE_SIDE,
    "height": IMAGE_SIDE,
    "input_dim": _one_of(2, 3),  # (u, v) or (u, v, depth)
    "outputs": _one_of(N_OUTPUTS),
    **{key: _in_box(*bounds) for key, bounds in zip(LOG_PARAM_KEYS, _BOUNDS)},
    "norm_std": lambda v: None if v > 0 else f"{v} is not positive",
    "jitter": within(0),
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def save_model(model: TrainedGP, path) -> None:
    head = (model.width, model.height, model.input_dim, model.X.shape[0], model.n_outputs)
    lines = [MODEL_HEADER] + [f"{key} {value}" for key, value in zip(HEAD_KEYS, head)]
    for j, cfg in enumerate(model.configs):
        block = (
            j, cfg.family, cfg.nu if cfg.family == MATERN else "none",
            *map(_fmt, cfg.log_params()), _fmt(model.normalizer.mean[j]),
            _fmt(model.normalizer.std[j]), _fmt(model.jitters[j]),
        )
        lines += [f"{key} {value}" for key, value in zip(BLOCK_KEYS, block)]
    lines.append("inputs")
    lines += [" ".join(map(_fmt, row)) for row in model.X]
    lines.append("targets")
    lines += [" ".join(map(_fmt, row)) for row in model.Z]
    lines.append("end")
    write_lines(path, lines)


def load_model(path) -> TrainedGP:
    path = Path(path)
    lines = [line.strip() for _, line in text_lines(path)]
    pos = 0

    def expect(tag: str) -> None:
        nonlocal pos
        if lines[pos:pos + 1] != [tag]:
            raise MalformedLine(path, pos + 1, f"expected {tag!r}")
        pos += 1

    def take(key: str, kind=float, rule=None):
        """The next line's value of key, which passes rule or else its RULES rule."""
        nonlocal pos
        pos += 1
        return line_value(path, lines, pos - 1, f"{key} ", kind, rule or RULES.get(key))

    def take_rows(tag: str, n_inputs: int, n_targets: int) -> np.ndarray:
        nonlocal pos
        expect(tag)
        rows = [lines[i].split() if i < len(lines) else [] for i in range(pos, pos + n)]
        pos += n
        return number_rows(path, range(pos - n + 1, pos + 1), rows, n_inputs, n_targets)

    expect(MODEL_HEADER)
    width, height, input_dim = take("width", int), take("height", int), take("input_dim", int)
    # at most the rows of inputs and targets that the lines after it hold
    n = take("train_points", int, within(1, (len(lines) - pos - 1) // 2))
    take("outputs", int)
    configs, means, stds, jitters = [], [], [], []
    for j in range(N_OUTPUTS):
        take("output", int, _one_of(j))
        # KernelConfig's ValueError names a family or nu it does not support
        family = take("family", lambda text: KernelConfig(text).family)
        nu = take("nu", lambda text: KernelConfig(
            family, None if text == "none" else float(text)).nu)
        configs.append(KernelConfig(family, nu, *map(take, LOG_PARAM_KEYS)))
        means.append(take("norm_mean"))
        stds.append(take("norm_std"))
        jitters.append(take("jitter"))
    X = take_rows("inputs", input_dim, 0)
    Z = take_rows("targets", 0, N_OUTPUTS)
    expect("end")

    normalizer = OutputNormalizer(np.array(means), np.array(stds))
    return TrainedGP.fit(X, Z, configs, normalizer, width, height, jitter=tuple(jitters))
