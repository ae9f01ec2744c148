"""The smoa benchmark: end-to-end CLI workloads, checked and optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file.  Workloads are
defined in workloads.py.  A run does, one process at a time:

1. a reference pass (oracle.py) in a fresh process, at the gated BLAS
   thread count, that writes the outputs every pass must reproduce;
2. ``--trace 0``: fresh-process passes of the workload, with BLAS threads
   set to ``nproc``, until S seconds have passed (at least three), then
   one ungated pass with one BLAS thread, the serial baseline;
   ``--trace 1``: untraced and traced passes in turn until S seconds
   have passed (at least one of each).

Every pass's outputs are checked against the reference (check.py).  The
run prints each metric with its unit, appends a full record (every
sample, the environment, output hashes) to ``perfbench/out/results.jsonl``
and prints, as its last line, the JSON summary
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  End-to-end metrics are medians over the run's passes:

* ``wall_s``: first ``cli.main`` call to the return of the last one;
* ``units_per_s``: CSV rows (sweep) or optimizer steps (train) per second;
* ``setup_s``: process start until ``smoa`` is imported and configs written;
* ``cpu_s``: user plus system CPU time of the timed part, all threads;
* ``peak_rss_mib``: peak resident memory of the pass's process;
* ``success_frac``: invocations that exited 0 with correct outputs, over
  those attempted (the failed fraction is ``1 - success_frac``).

``--record-hashes`` (with ``--trace 0``) stores the output hashes of both
thread counts in reference_hashes.json; later runs of that seed on the
same OpenBLAS core report whether their bytes still match
(``recorded_match`` in the results record).  Seed 0 is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from child import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HASHES = HERE / "reference_hashes.json"

MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
RUN_BUDGET_S = 165  # a run must end within 180 s

UNITS = {"wall_s": "s", "units_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
         "peak_rss_mib": "MiB", "success_frac": "frac"}


class Run:
    """One benchmark run: its passes, their checks and the tallies."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = time.monotonic()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.expected = work / "expected"
        self.count = 0

    def child(self, threads: int, *flags: str) -> tuple[dict | None, float, Path]:
        """Run child.py in a fresh process; return (its JSON, spawn time, pass dir)."""
        self.count += 1
        pass_dir = self.expected if "--oracle" in flags else self.work / f"pass-{self.count}"
        env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--dir", str(pass_dir), *flags]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{' '.join(flags) or 'pass'}: timed out")
            return None, spawned, pass_dir
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"{' '.join(flags) or 'pass'}: exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
            return None, spawned, pass_dir
        return json.loads(lines[-1]), spawned, pass_dir

    def measure(self, threads: int, traced: bool = False) -> dict | None:
        """One pass: run it, check its outputs, return its samples."""
        n_inv = len(workloads.invocations(self.workload))
        self.attempted += n_inv
        result, spawned, pass_dir = self.child(threads, *(["--trace"] if traced else []))
        if result is None:
            self.failed += n_inv
            return None
        bad = set()
        for i, inv in enumerate(result["invocations"]):
            if inv["exit"] != 0 or inv["error"]:
                bad.add(i)
                self.problems.append(f"invocation {inv['argv']}: exit {inv['exit']} "
                                     f"{(inv['error'] or inv['stderr']).strip()[-2000:]}")
        checked = check.compare_dirs(pass_dir / "out", self.expected / "out",
                                     self.workload.rtol)
        for problem in checked.problems:
            bad.add(owner(self.workload, problem.split(":")[0]))
            self.problems.append(f"{threads} thread(s): {problem}")
        self.failed += len(bad)
        rows = 0
        sweep_csv = pass_dir / "out" / "sweep.csv"
        if sweep_csv.is_file():
            rows = len(sweep_csv.read_text(encoding="ascii").splitlines()) - 1
        units = workloads.units_per_pass(self.workload, rows)
        sample = {
            "threads": threads, "traced": traced, "ok": not bad,
            "bit_exact": checked.bit_exact, "max_rel_diff": checked.max_rel_diff,
            "hashes": checked.hashes, "env": result["env"],
            "wall_s": result["wall_s"], "units_per_s": units / result["wall_s"],
            "setup_s": result["setup_done"] - spawned, "cpu_s": result["cpu_s"],
            "peak_rss_mib": result["peak_rss_mib"], "layers": result.get("layers"),
            "failed_invocations": len(bad), "invocations": n_inv,
        }
        if traced:
            shutil.copyfile(pass_dir / "spans.json", OUT / f"spans-{self.workload.name}.json")
        shutil.rmtree(pass_dir)
        return sample

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def owner(workload, file_name: str) -> int:
    """Index of the invocation that writes an output file."""
    if file_name.startswith("stdout."):
        return int(file_name.split(".")[1])
    for i, (method, _, _) in enumerate(workloads.TRAIN_METHODS):
        if workload.kind == "train" and file_name.startswith(f"{method}."):
            return i
    return 0


def median(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(samples) -> dict[str, float]:
    metrics = {key: median(samples, key) for key in UNITS if key != "success_frac"}
    total = sum(s["invocations"] for s in samples)
    metrics["success_frac"] = 1.0 - sum(s["failed_invocations"] for s in samples) / total
    return metrics


def per_layer(traced, untraced, problems) -> dict[str, float]:
    calls = {k: v for k, v in traced[0]["layers"].items() if k.endswith(".calls")}
    for s in traced[1:]:
        if {k: s["layers"][k] for k in calls} != calls:
            problems.append("traced passes disagree on call counts")
    metrics = {k: calls[k] if k in calls else statistics.median(s["layers"][k] for s in traced)
               for k in traced[0]["layers"]}
    metrics["trace.overhead_s"] = median(traced, "wall_s") - median(untraced, "wall_s")
    return metrics


def hash_key(seed: int, sample) -> str:
    core = sample["env"]["openblas_runtime"]["config"]
    return f"seed={seed}|{core}|threads={sample['threads']}"


def recorded_match(workload, seed: int, sample) -> bool | None:
    """Do the outputs match the hashes recorded for this seed, OpenBLAS core
    and thread count?  None when nothing is recorded for them."""
    if not HASHES.is_file():
        return None
    recorded = json.loads(HASHES.read_text(encoding="utf-8"))
    entry = recorded.get(workload.name, {}).get(hash_key(seed, sample))
    return None if entry is None else entry == sample["hashes"]


def record_hashes(workload, seed: int, samples) -> None:
    recorded = json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.is_file() else {}
    for s in samples:
        recorded.setdefault(workload.name, {})[hash_key(seed, s)] = s["hashes"]
    HASHES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="ascii")


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def unit_of(name: str) -> str:
    return UNITS.get(name) or ("count" if name.endswith(".calls") else "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="smoa end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl")
    parser.add_argument("--record-hashes", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "smoa" / "__init__.py").is_file():
        print(f"benchmark: no smoa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_hashes and args.trace:
        parser.error("--record-hashes needs --trace 0")

    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, work)

    # untraced passes are the gated ones under --trace 0
    untraced, traced, serial = [], [], None
    oracle, _, _ = run.child(nproc, "--oracle")
    last = 0.0
    while oracle is not None:
        enough = (min(len(untraced), len(traced)) >= 1 if args.trace
                  else len(untraced) >= MIN_PASSES)
        if enough and (run.elapsed() >= args.seconds
                       or run.elapsed() + 2 * last > RUN_BUDGET_S):
            break
        began = time.monotonic()
        tracing = bool(args.trace) and len(traced) < len(untraced)
        sample = run.measure(nproc, traced=tracing)
        if sample is None:
            break
        (traced if tracing else untraced).append(sample)
        last = time.monotonic() - began
    if not args.trace and untraced and run.elapsed() + last < RUN_BUDGET_S:
        serial = run.measure(1)

    samples = traced if args.trace else untraced
    metrics = {}
    if args.trace and traced:
        metrics = per_layer(traced, untraced, run.problems)
    elif not args.trace and untraced:
        metrics = end_to_end(untraced)
    correct = (oracle is not None and not run.problems and bool(samples)
               and (bool(args.trace) or serial is not None))
    if args.record_hashes and correct:
        record_hashes(workload, args.seed, [untraced[0], serial])

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"BLAS threads {nproc}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    if samples:
        print(f"bit_exact = {all(s['bit_exact'] for s in samples)} "
              f"(max relative difference {max(s['max_rel_diff'] for s in samples):.3g})")
    if serial is not None:
        print(f"serial baseline (1 BLAS thread, ungated): wall_s = {serial['wall_s']:.6g} s, "
              f"cpu_s = {serial['cpu_s']:.6g} s, units_per_s = {serial['units_per_s']:.6g} 1/s, "
              f"ok = {serial['ok']}, bit_exact vs the {nproc}-thread reference = "
              f"{serial['bit_exact']}")
    for problem in run.problems:
        print(f"problem: {problem}")

    checked = ([samples[0]] if samples else []) + ([serial] if serial else [])
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "time": time.time(), **git_state(),
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics, "problems": run.problems,
        "bit_exact": bool(samples) and all(s["bit_exact"] for s in samples),
        "recorded_match": {str(s["threads"]): recorded_match(workload, args.seed, s)
                           for s in checked},
        "passes": untraced + traced, "serial": serial,
        "oracle_env": oracle and oracle["env"],
    }
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
