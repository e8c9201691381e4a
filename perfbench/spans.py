"""Spans around the calls into each gpgs layer, recorded from outside.

`Tracer.install` replaces module attributes of the program with thin
wrappers that record a span (name, start, end, parent, attributes) per
call and then call through unchanged; `Tracer.uninstall` puts the
originals back. No program file is edited. An attribute a later version
no longer has is skipped, so its metrics read zero calls.

`layer_metrics` turns the spans of one pipeline call into the per-layer
metrics of the benchmark. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict

# The clip bounds of the trained log-parameters, used when the gp module
# does not name them itself.
DEFAULT_LOG_PARAM_BOUND = 20.0
DEFAULT_NOISE_VAR_FLOOR = 1e-10


def _n_rows(args, kwargs):
    return {"n": int(args[0].shape[0])}


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _bound_hits(model, gp_module) -> int:
    bound = getattr(gp_module, "LOG_PARAM_BOUND", DEFAULT_LOG_PARAM_BOUND)
    floor = math.log(getattr(gp_module, "NOISE_VAR_FLOOR", DEFAULT_NOISE_VAR_FLOOR))
    hits = 0
    for cfg in getattr(model, "configs", ()):
        noise = cfg.log_noise_var
        hits += (abs(cfg.log_signal_var) >= bound) + (abs(cfg.log_lengthscale) >= bound)
        hits += (noise >= bound) + (noise <= floor)
    return int(hits)


def _safe(fn, *args):
    """Attributes of a span, or None where a later version's values lack them."""
    if fn is None:
        return None
    try:
        return fn(*args)
    except (AttributeError, TypeError, IndexError, KeyError):
        return None


def _targets(modules):
    """(owner, attribute, span name, before, after) per wrapped attribute.

    before(args, kwargs) and after(args, kwargs, result) give the span's
    attributes: work counts and sizes measured at the layer boundary.
    """
    sfm_io, gp, model_io, densify, metrics = (
        modules[k] for k in ("sfm_io", "gp", "model_io", "densify", "metrics")
    )
    after = {
        "sfm_io.parse_colmap_model": lambda a, k, r: {"points": len(r.points3d)},
        "sfm_io.build_pixel_dataset": lambda a, k, r: {"rows": len(r)},
        "sfm_io.read_depth_pfm": lambda a, k, r: {"bytes": _file_bytes(a[0])},
        "sfm_io.write_ply": lambda a, k, r: {"bytes": _file_bytes(a[1])},
        "gp.train_gp": lambda a, k, r: {
            "n": int(r.X.shape[0]),
            "evals": sum(len(c) for c in r.loss_curves),
            "bound_hits": _bound_hits(r, gp),
        },
        "gp.posterior": lambda a, k, r: {"queries": int(r.mean.shape[0])},
        "model_io.save_model": lambda a, k, r: {"bytes": _file_bytes(a[1])},
        "densify.generate_samples": lambda a, k, r: {"candidates": len(r)},
        "densify.filter_by_variance": lambda a, k, r: {
            "candidates": len(r), "retained": r.retained_count(),
        },
    }
    before = {
        "gp.dpotrf": _n_rows,
        "gp.dpotri": _n_rows,
    }
    plan = []
    for attr in ("parse_colmap_model", "select_key_frames", "build_pixel_dataset",
                 "split_dataset", "read_depth_pfm", "write_ply", "read_ply",
                 "write_dataset_csv", "read_dataset_csv"):
        plan.append((sfm_io, attr, f"sfm_io.{attr}"))
    for attr in ("train_gp", "posterior", "dpotrf", "dpotri", "solve_triangular", "cdist"):
        plan.append((gp, attr, f"gp.{attr}"))
    # densify and metrics bind gp.posterior under their own names.
    plan += [(densify, "posterior", "gp.posterior"), (metrics, "posterior", "gp.posterior")]
    plan += [(model_io, "save_model", "model_io.save_model"),
             (model_io, "load_model", "model_io.load_model")]
    for attr in ("generate_samples", "attach_depth", "infer_dense", "filter_by_variance",
                 "merge_clouds", "variance_reduction_report"):
        plan.append((densify, attr, f"densify.{attr}"))
    plan.append((metrics, "evaluate_holdout", "metrics.evaluate_holdout"))
    return [(owner, attr, name, before.get(name), after.get(name)) for owner, attr, name in plan]


class Tracer:
    """In-memory span recorder. Spans are lists [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            attrs = _safe(before, args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, clock(), 0.0, parent, attrs]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            extra = _safe(after, args, kwargs, result)
            if extra:
                span[4] = {**(attrs or {}), **extra}
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        for owner, attr, name, before, after in _targets(modules):
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, before, after))
        gp = modules["gp"]
        cls = getattr(gp, "TrainedGP", None)
        raw = cls.__dict__.get("fit") if cls is not None else None
        if isinstance(raw, classmethod):
            self._saved.append((cls, "fit", raw))
            setattr(cls, "fit", classmethod(self._wrap(raw.__func__, "gp.fit", None, None)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one pipeline call
# ---------------------------------------------------------------------------

MODULES = ("sfm_io", "gp", "model_io", "densify", "metrics")


def _has_ancestor(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list, pipeline_s: float) -> dict[str, float]:
    """Per-layer metrics (without units) of one traced pipeline call."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    total = defaultdict(float)
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    for i, (name, _, _, _, attrs) in enumerate(spans):
        total[name] += dur[i]
        calls[name] += 1
        self_by_name[name] += self_t[i]
        for key, value in (attrs or {}).items():
            attr_sum[name, key] += value
            attr_max[name, key] = max(attr_max[name, key], value)

    fit_in_train = sum(dur[i] for i, s in enumerate(spans)
                       if s[0] == "gp.fit" and _has_ancestor(spans, i, "gp.train_gp"))
    flops = 0.0
    for s_idx, s in enumerate(spans):
        if s[0] in ("gp.dpotrf", "gp.dpotri") and _has_ancestor(spans, s_idx, "gp.train_gp"):
            n = (s[4] or {}).get("n", 0)
            flops += n**3 / 3.0 if s[0] == "gp.dpotrf" else 2.0 * n**3 / 3.0
    evals = attr_sum["gp.train_gp", "evals"]
    candidates = attr_sum["densify.filter_by_variance", "candidates"]
    top_level = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)

    m = {
        "sfm_io.parse_s": total["sfm_io.parse_colmap_model"],
        "sfm_io.parse_calls": calls["sfm_io.parse_colmap_model"],
        "sfm_io.points_parsed": attr_sum["sfm_io.parse_colmap_model", "points"],
        "sfm_io.dataset_build_s": total["sfm_io.build_pixel_dataset"],
        "sfm_io.dataset_rows": attr_sum["sfm_io.build_pixel_dataset", "rows"],
        "sfm_io.csv_write_s": total["sfm_io.write_dataset_csv"],
        "sfm_io.csv_read_s": total["sfm_io.read_dataset_csv"],
        "sfm_io.csv_read_calls": calls["sfm_io.read_dataset_csv"],
        "sfm_io.pfm_read_calls": calls["sfm_io.read_depth_pfm"],
        "sfm_io.pfm_bytes": attr_sum["sfm_io.read_depth_pfm", "bytes"],
        "sfm_io.ply_write_s": total["sfm_io.write_ply"],
        "sfm_io.ply_bytes": attr_sum["sfm_io.write_ply", "bytes"],
        "gp.train_s": total["gp.train_gp"],
        "gp.train_calls": calls["gp.train_gp"],
        "gp.n_train": attr_max["gp.train_gp", "n"],
        "gp.nll_evals": evals,
        "gp.eval_ms": 1e3 * (total["gp.train_gp"] - fit_in_train) / evals if evals else 0.0,
        "gp.train_self_s": self_by_name["gp.train_gp"],
        "gp.dpotrf_s": total["gp.dpotrf"],
        "gp.dpotri_s": total["gp.dpotri"],
        "gp.solve_triangular_s": total["gp.solve_triangular"],
        "gp.cdist_s": total["gp.cdist"],
        "gp.train_gflop_computed": flops / 1e9,
        "gp.fit_s": total["gp.fit"],
        "gp.fit_calls": calls["gp.fit"],
        "gp.posterior_s": total["gp.posterior"],
        "gp.posterior_queries": attr_sum["gp.posterior", "queries"],
        "gp.bound_hits": attr_sum["gp.train_gp", "bound_hits"],
        "model_io.save_s": total["model_io.save_model"],
        "model_io.load_s": total["model_io.load_model"],
        "model_io.bytes": attr_sum["model_io.save_model", "bytes"],
        "densify.sample_s": total["densify.generate_samples"] + total["densify.attach_depth"],
        "densify.candidates": attr_sum["densify.generate_samples", "candidates"],
        "densify.attach_depth_calls": calls["densify.attach_depth"],
        "densify.infer_self_s": self_by_name["densify.infer_dense"],
        "densify.filter_s": total["densify.filter_by_variance"],
        "densify.merge_s": total["densify.merge_clouds"],
        "densify.kept_fraction": (
            attr_sum["densify.filter_by_variance", "retained"] / candidates if candidates else 0.0
        ),
        "metrics.holdout_s": total["metrics.evaluate_holdout"],
        "cli.self_s": pipeline_s - top_level,
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            v for name, v in self_by_name.items() if name.startswith(module + ".")
        )
    return m
