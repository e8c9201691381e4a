"""One `gpgs pipeline` call in a fresh interpreter, timed from inside.

Usage: python3 perfbench/worker.py <request.json> <result.json>
(run.py starts it with its standard output discarded).

The request holds the CLI arguments and whether to trace. The worker
imports gpgs.cli (import time is not part of the measurement), records
machine and library facts, then times cli.main(argv) from the call to its
return. It writes the exit code, the wall time, the peak resident set of
this process and, when traced, the spans to the result file.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import spans  # perfbench/spans.py; this script's directory leads sys.path


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process, by library file."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = int(fn())
                break
    return out


def library_facts() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    def blas(config):
        deps = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": deps.get("name"), "version": deps.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    from gpgs import cli, densify, gp, metrics, model_io, sfm_io

    src = Path(request["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"gpgs was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    facts = library_facts()
    tracer = None
    if request["trace"]:
        tracer = spans.Tracer()
        tracer.install({"sfm_io": sfm_io, "gp": gp, "model_io": model_io,
                        "densify": densify, "metrics": metrics})
    gc.collect()
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(request["argv"])
    except Exception:  # a traceback is a failed run, reported to the parent
        rc = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "seconds": seconds,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "error": error,
        "facts": facts,
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
