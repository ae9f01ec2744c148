"""One benchmark pass in a fresh Python process.

    python3 perfbench/child.py --workload NAME --seed N --dir PASS_DIR [--trace] [--oracle]

A pass imports ``smoa`` from ``src/``, writes the workload's config files
to ``PASS_DIR/cfg``, and runs the workload's invocations through
``smoa.cli.main(argv)`` with ``PASS_DIR/out`` as working directory, which
is exactly the code behind ``smoa <subcommand>``.  Each invocation's
stdout goes to ``out/stdout.<i>.txt``.  With ``--trace`` the pass records
spans (see tracing.py) and writes them to ``PASS_DIR/spans.json``.  With
``--oracle`` it writes the reference outputs instead (see oracle.py) and
does not import ``smoa``.

The BLAS thread count comes from the environment the parent sets.  The
last stdout line is a JSON object with the pass's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def openblas_runtime() -> dict:
    """Thread count and core configuration reported by numpy's OpenBLAS.

    The symbols are looked up through numpy's linalg extension, which
    links the BLAS; both values are None when it is not OpenBLAS.
    """
    import numpy.linalg._umath_linalg as linalg

    lib = ctypes.CDLL(linalg.__file__)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if threads is not None and config is not None:
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return {"threads": int(threads()), "config": config().decode()}
    return {"threads": None, "config": None}


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "numpy_config": config,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "openblas_runtime": openblas_runtime(),
    }


def run_pass(workload, seed: int, pass_dir: Path, traced: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import smoa.cli

    cfg_dir, out_dir = pass_dir / "cfg", pass_dir / "out"
    cfg_dir.mkdir(parents=True)
    out_dir.mkdir()
    for name, content in workloads.configs(workload, seed).items():
        (cfg_dir / name).write_text(json.dumps(content, indent=2) + "\n", encoding="ascii")
    os.chdir(out_dir)
    setup_done = time.monotonic()

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records, stdouts = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for i, argv in enumerate(workloads.invocations(workload)):
        if tracer is not None:
            tracer.invocation = i
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = smoa.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed invocation, reported below
                error = traceback.format_exc()
        records.append({"argv": argv, "exit": code, "error": error, "stderr": err.getvalue()})
        stdouts.append(out.getvalue())
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    for i, text in enumerate(stdouts):
        (out_dir / f"stdout.{i}.txt").write_text(text, encoding="utf-8")
    result = {"setup_done": setup_done, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "invocations": records, "env": environment()}
    if tracer is not None:
        from tracing import layer_metrics, self_times

        result["layers"] = layer_metrics(self_times(tracer.spans))
        with open(pass_dir / "spans.json", "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "invocation"],
                       "spans": tracer.spans}, fh)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.oracle:
        import oracle

        oracle.write_expected(workload, args.seed, args.dir / "out")
        result = {"env": environment()}
    else:
        result = run_pass(workload, args.seed, args.dir, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
