"""gpgs benchmark: end-to-end and per-layer timings of `gpgs pipeline`.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each run generates the workload's seeded synthetic COLMAP scene (untimed),
times `import gpgs.cli` in fresh interpreters (setup_s), then runs a closed
loop with one client: one `gpgs pipeline` call at a time, each in a fresh
interpreter (perfbench/worker.py), until --seconds have passed and at
least two calls were made. BLAS keeps its default thread count, which is
recorded. The program under test is imported from src/ of the checkout.

Every call's outputs are checked without trusting gpgs: exit code 0,
cloud.ply read by this benchmark's own reader, vertex count = SfM points +
GP points with the SfM points equal to points3D.txt, finite positions,
and byte-identical clouds across the calls of a run. A failed call's
timings are not used.

--trace 0 prints the end-to-end metrics (medians over the calls):
pipeline_s, setup_s, peak_rss_mb, chamfer_to_truth, holdout_r2, plus
fail_rate (the "failed" / "attempted" of the result line; it is 0 on a
healthy run, so it is not a bounded metric). --trace 1 alternates untraced
and traced calls and prints the per-layer metrics of perfbench/spans.py.
The last line of standard output is the JSON result. A record with the
machine and library facts, every call, and the spans of traced calls is
written to perfbench/_work/records/.

Which end-to-end metric each layer metric should move, and where:
  sfm_io.*                              -> pipeline_s on big-model
  gp.train_s/train_calls/n_train/nll_evals/eval_ms/train_self_s
                                        -> pipeline_s on defaults-300
  gp.dpotrf_s/dpotri_s/solve_triangular_s/cdist_s/train_gflop_computed
                                        -> pipeline_s on cap-2000
  gp.fit_s/fit_calls/posterior_s/posterior_queries
                                        -> pipeline_s, peak_rss_mb on cap-2000
  gp.bound_hits, densify.kept_fraction  -> holdout_r2, chamfer_to_truth
  model_io.*                            -> pipeline_s on cap-2000 and big-model
  densify.sample_s/candidates/attach_depth_calls/infer_self_s/filter_s/merge_s
                                        -> pipeline_s on big-model
  metrics.holdout_s                     -> pipeline_s on cap-2000
  cli.self_s, cli.artifact_bytes        -> pipeline_s on all workloads
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import scene
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
DEADLINE_S = 170.0     # a run ends well inside 180 s
SETUP_REPEATS = 5      # fresh-interpreter imports timed per run (after one warm-up)

WORKLOADS = {
    # North-star scene at default flags; --iterations caps training at 150
    # steps per output so that one call fits a run.
    "defaults-300": {
        "scene": lambda out, seed: scene.single_image_scene(out, seed, n_sparse=300),
        "flags": ["--iterations", "150"],
    },
    # 2,500 linked features, so both trainings subsample to the default
    # max_train_points = 2000; one step per output keeps the call short.
    "cap-2000": {
        "scene": lambda out, seed: scene.single_image_scene(out, seed, n_sparse=2500),
        "flags": ["--iterations", "1"],
    },
    # Many images and points: COLMAP parsing, CSV and ASCII PLY I/O and the
    # 3-D depth-input path; the GP stays small.
    "big-model": {
        "scene": lambda out, seed: scene.multi_image_scene(
            out, seed, n_images=60, features_per_image=3000, n_points=70000
        ),
        "flags": ["--key-frames", "2", "--max-train-points", "300",
                  "--iterations", "20", "--ascii-ply"],
    },
}


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Output checks (independent of gpgs)
# ---------------------------------------------------------------------------

_PLY_PROPS = [("float", "x"), ("float", "y"), ("float", "z"), ("uchar", "red"),
              ("uchar", "green"), ("uchar", "blue"), ("uchar", "source")]


def read_cloud(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(positions float32 (n, 3), source tags (n,)) of a gpgs cloud.ply."""
    raw = path.read_bytes()
    marker = b"end_header\n"
    end = raw.find(marker)
    if not raw.startswith(b"ply\n") or end < 0:
        raise CheckFailed(f"{path.name}: not a PLY file")
    fmt, count, props = None, None, []
    for line in raw[:end].decode("ascii").splitlines()[1:]:
        tokens = line.split()
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[:2] == ["element", "vertex"]:
            count = int(tokens[2])
        elif tokens[0] == "property":
            props.append((tokens[1], tokens[2]))
    if props != _PLY_PROPS or count is None:
        raise CheckFailed(f"{path.name}: unexpected header {props} count={count}")
    body = raw[end + len(marker):]
    if fmt == "binary_little_endian":
        dtype = np.dtype([(n, "<f4" if t == "float" else "u1") for t, n in props])
        if len(body) != count * dtype.itemsize:
            raise CheckFailed(f"{path.name}: body holds {len(body)} bytes for {count} vertices")
        table = np.frombuffer(body, dtype=dtype)
        xyz = np.stack([table["x"], table["y"], table["z"]], axis=1)
        source = table["source"].astype(np.int64)
    elif fmt == "ascii":
        rows = np.loadtxt(io.BytesIO(body), ndmin=2)
        if rows.shape != (count, 7):
            raise CheckFailed(f"{path.name}: body shape {rows.shape} for {count} vertices")
        xyz = rows[:, :3].astype(np.float32)
        source = rows[:, 6].astype(np.int64)
    else:
        raise CheckFailed(f"{path.name}: unsupported format {fmt}")
    return xyz, source


def check_call(out_dir: Path, sc: scene.Scene) -> np.ndarray:
    """Check one call's outputs; returns the cloud positions."""
    xyz, source = read_cloud(out_dir / "cloud.ply")
    n_sfm = int(np.count_nonzero(source == 0))
    n_gp = int(np.count_nonzero(source == 1))
    if n_sfm + n_gp != len(source):
        raise CheckFailed(f"source tags other than 0/1 in {len(source) - n_sfm - n_gp} vertices")
    if n_sfm != sc.n_points or n_gp < 1:
        raise CheckFailed(f"{n_sfm} SfM + {n_gp} GP vertices; points3D.txt has {sc.n_points}")
    if not np.array_equal(xyz[source == 0], sc.sparse_xyz.astype(np.float32)):
        raise CheckFailed("SfM vertices differ from points3D.txt")
    if not np.all(np.isfinite(xyz)):
        raise CheckFailed("non-finite vertex positions")
    return xyz


def holdout_r2(out_dir: Path) -> float:
    """Joint held-out r2 from the run's metrics*.csv, averaged over key frames."""
    values = []
    for path in sorted(out_dir.glob("metrics*.csv")):
        for line in path.read_text().splitlines():
            if line.startswith("r2,joint,"):
                values.append(float(line.split(",")[2]))
    if not values or not all(np.isfinite(values)):
        raise CheckFailed(f"no finite joint r2 in metrics*.csv: {values}")
    return float(np.mean(values))


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean nearest-neighbour distance."""
    d_ab, _ = cKDTree(b).query(a, k=1)
    d_ba, _ = cKDTree(a).query(b, k=1)
    return float(d_ab.mean() + d_ba.mean())


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Facts recorded with every result
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            continue
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("GPGS_SEED", None)  # the program's seed stays at its default
    return env


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter running `import gpgs.cli`.

    The wait blocks in waitpid: a wait with a timeout polls, which would
    round the time up to the poll interval. A timer kills a hung import.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import gpgs.cli"], env=env, cwd=ROOT)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return seconds


def run_call(argv: list, trace: bool, call_dir: Path, env: dict, timeout: float) -> dict:
    request = call_dir / "request.json"
    result = call_dir / "result.json"
    request.write_text(json.dumps({"argv": argv, "trace": trace, "src": str(ROOT / "src")}))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(request), str(result)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"rc": None, "error": "timed out"}
    if proc.returncode != 0 or not result.is_file():
        return {"rc": None, "error": f"worker exited with {proc.returncode}"}
    return json.loads(result.read_text())


def check_outputs(call: dict, out_dir: Path, sc: scene.Scene) -> None:
    """Fill in a call's failures and, if it passed, the values taken from its outputs."""
    call["failures"] = []
    if call["rc"] != 0:
        call["failures"].append(f"exit code {call['rc']}: {call.get('error')}")
        return
    try:
        call["xyz"] = check_call(out_dir, sc)
        call["ply_sha256"] = hashlib.sha256((out_dir / "cloud.ply").read_bytes()).hexdigest()
        call["holdout_r2"] = holdout_r2(out_dir)
        call["artifact_bytes"] = dir_bytes(out_dir)
    except (CheckFailed, OSError, ValueError) as exc:
        call["failures"].append(str(exc))


def run_calls(args, sc: scene.Scene, work: Path, env: dict, started: float) -> list[dict]:
    """Closed loop, one client: calls until --seconds have passed.

    At least two calls are made so that their clouds can be compared; in
    traced mode calls alternate untraced/traced and end on a traced one.
    """
    spec = WORKLOADS[args.workload]
    cli_argv = ["pipeline", "--model-dir", str(sc.model_dir)] + spec["flags"]
    if sc.depth_dir is not None:
        cli_argv += ["--depth-dir", str(sc.depth_dir)]
    calls: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        enough = len(calls) >= 2 and len(calls) % (2 if args.trace else 1) == 0
        longest = max((c.get("seconds", 0.0) for c in calls), default=0.0)
        now = time.perf_counter()
        if enough and (now - loop_start >= args.seconds
                       or now - started + 1.5 * longest > DEADLINE_S):
            return calls
        call_dir = work / f"call{len(calls):03d}"
        call_dir.mkdir()
        traced = bool(args.trace) and len(calls) % 2 == 1
        call = run_call(cli_argv + ["--output", str(call_dir / "out")], traced, call_dir, env,
                        DEADLINE_S - (now - started))
        call["traced"] = traced
        check_outputs(call, call_dir / "out", sc)
        calls.append(call)
        if call.get("error") == "timed out":
            return calls


def per_layer_values(good: list[dict]) -> dict[str, float]:
    """Medians over the traced calls; checks that self times cover each call."""
    plain = [c["seconds"] for c in good if not c["traced"]]
    traced = [c for c in good if c["traced"]]
    if not plain or not traced:
        return {}
    per_call = []
    for c in traced:
        m = spans.layer_metrics(c["spans"], c["seconds"])
        covered = m["cli.self_s"] + sum(m[f"{mod}.self_s"] for mod in spans.MODULES)
        if abs(covered - c["seconds"]) > 1e-6 * c["seconds"]:
            c["failures"].append(f"self times sum to {covered}, not {c['seconds']}")
        m["cli.artifact_bytes"] = c["artifact_bytes"]
        per_call.append(m)
    values = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    values["trace.pipeline_s"] = statistics.median(c["seconds"] for c in traced)
    values["trace.overhead_s"] = values["trace.pipeline_s"] - statistics.median(plain)
    return values


def end_to_end_values(good: list[dict], setup_times: list[float], sc: scene.Scene) -> dict:
    if not good:
        return {}
    # Clouds are byte-identical across good calls, so quality is read once.
    return {
        "pipeline_s": statistics.median(c["seconds"] for c in good),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good),
        "chamfer_to_truth": chamfer(good[0]["xyz"], sc.ground_truth),
        "holdout_r2": good[0]["holdout_r2"],
    }


def write_record(args, facts: dict, setup_times: list[float], calls: list[dict],
                 result: dict) -> None:
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    keep = ("traced", "rc", "seconds", "peak_rss_mb", "cpu_user_s", "cpu_sys_s",
            "ply_sha256", "failures")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "setup_times_s": setup_times,
        "calls": [{k: c.get(k) for k in keep} for c in calls],
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (records / f"{stem}-spans.json").write_text(
            json.dumps([c["spans"] for c in calls if c["traced"] and c.get("spans")])
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "gpgs" / "cli.py").is_file():
        print(f"no gpgs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sc = WORKLOADS[args.workload]["scene"](work / "scene", args.seed)
    env = child_env()
    time_import(env)  # warm-up: byte-compiles sources and fills the page cache
    setup_times = [time_import(env) for _ in range(SETUP_REPEATS)]
    calls = run_calls(args, sc, work, env, started)

    digests = {c["ply_sha256"] for c in calls if not c["failures"]}
    if len(digests) > 1:
        for c in calls:
            if not c["failures"]:
                c["failures"].append(f"cloud.ply differs between calls ({len(digests)} digests)")
    good = [c for c in calls if not c["failures"]]
    if args.trace:
        values = per_layer_values(good)
    else:
        values = end_to_end_values(good, setup_times, sc)
    failed = sum(1 for c in calls if c["failures"])
    for c in calls:
        if c["failures"]:
            print(f"call failed: {'; '.join(c['failures'])}", file=sys.stderr)
    if not values:
        print("no usable calls; no metrics", file=sys.stderr)
        return 1

    facts = machine_facts()
    facts.update(next((c["facts"] for c in calls if c.get("facts")), {}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    write_record(args, facts, setup_times, calls, result)
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls, {failed} failed")
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"fail_rate = {failed / len(calls):.6g} fraction")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
