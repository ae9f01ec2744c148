"""Command-line entry point.

Subcommands: ``analyze`` (spectrum and subspace partition of a stored
matrix), ``rank-bench`` (rank-comparison sweep to CSV), ``train``
(planted-task training runs), ``gradcheck`` (analytic vs finite-difference
gradients).  Exit codes: 0 success, 1 validation failure, 2 numerical
failure, 3 I/O failure.  All randomness flows from explicit seeds, so
repeated invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import adapters, matrix_io, rank_analysis, spectral, training
from .errors import FormatError, NumericalError, ValidationError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default", spectral.EmptySubspaceWarning)
        warnings.showwarning = _warning_printer(args.command, warnings.showwarning)
        try:
            return args.handler(args)
        except ValidationError as exc:
            print(f"smoa {args.command}: validation error: {exc}", file=sys.stderr)
            return 1
        except NumericalError as exc:
            print(f"smoa {args.command}: numerical error: {exc}", file=sys.stderr)
            return 2
        except (FormatError, OSError) as exc:
            print(f"smoa {args.command}: i/o error: {exc}", file=sys.stderr)
            return 3


def _warning_printer(command: str, show):
    """A warnings.showwarning that prints an EmptySubspaceWarning as one
    line in the CLI's words, instead of the library source line it names,
    and hands every other warning to show."""
    def printer(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, spectral.EmptySubspaceWarning):
            print(f"smoa {command}: warning: {message}", file=sys.stderr)
        else:
            show(message, category, filename, lineno, file, line)
    return printer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoa",
        description="Subspace-modulated adapters: spectral analysis, rank sweeps, training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectrum, cumulative energy, and K-way partition")
    p.add_argument("--input", required=True, help="matrix file (.csv or binary)")
    p.add_argument("--k", type=int, required=True, help="number of subspaces")
    p.add_argument("--json", default=None, help="optional JSON dump of the partition")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("rank-bench", help="rank-comparison sweep, written as CSV")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_rank_bench)

    p = sub.add_parser("train", help="train an adapter on a planted-update task")
    p.add_argument("--config", required=True, help="train config JSON")
    p.add_argument("--method", required=True, choices=adapters.METHODS)
    p.add_argument("--out-prefix", required=True, help="prefix for loss CSV and adapter files")
    p.add_argument("--seeds", type=int, default=1,
                   help="run this many consecutive seeds starting at the config seed")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("gradcheck", help="compare analytic and finite-difference gradients")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", required=True, choices=adapters.METHODS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_gradcheck)
    return parser


def _cmd_analyze(args) -> int:
    w0 = matrix_io.read_matrix(args.input)
    dec = spectral.decompose(w0)
    energy = spectral.cumulative_energy(dec.sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spectral.EmptySubspaceWarning)
        part = spectral.partition(energy, args.k)
    print(f"matrix: {w0.shape[0]}x{w0.shape[1]}")
    print("sigma: " + " ".join(f"{s:.6g}" for s in dec.sigma))
    print("cumulative energy: " + " ".join(f"{e:.6g}" for e in energy))
    print(f"K = {part.K}")
    for k, idx in enumerate(part.index_sets):
        members = ",".join(str(i + 1) for i in idx)
        print(f"I_{k + 1} = {{{members}}} (share {part.shares[k]:.3f})")
    empty = part.empty_sets()
    if empty:
        print("diagnostic: empty subspaces: " + ", ".join(f"I_{k + 1}" for k in empty))
    if args.json:
        payload = {
            "K": part.K,
            "index_sets": [[int(i) + 1 for i in idx] for idx in part.index_sets],
            "shares": [float(s) for s in part.shares],
            "sigma": [float(s) for s in dec.sigma],
            "cumulative_energy": [float(e) for e in energy],
            "empty_subspaces": [k + 1 for k in empty],
        }
        matrix_io.write_json(payload, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_rank_bench(args) -> int:
    cfg = matrix_io.read_sweep_config(args.config)
    report = rank_analysis.rank_sweep(**dataclasses.asdict(cfg))
    skipped = report.metadata["skipped"]
    if not report.rows and skipped:
        raise ValidationError(skipped[0])
    matrix_io.write_report(report.rows, args.out)
    sidecar = args.out + ".meta.json"
    matrix_io.write_json(report.metadata, sidecar)
    for line in skipped:
        print(f"skipped {line}")
    medians = report.median_ranks()
    if medians:
        print("method,r,K,median_rank")
        for (method, r, k), value in medians.items():
            print(f"{method},{r},{k},{value:g}")
    print(f"wrote {len(report.rows)} rows to {args.out}")
    print(f"wrote {sidecar}")
    violations = report.violations()
    for row in violations:
        print(
            f"rank bound violated: method={row.method} r={row.r} K={row.K} "
            f"seed={row.seed}: rank {row.numerical_rank} > bound {row.rank_upper_bound}",
            file=sys.stderr,
        )
    if violations:
        raise NumericalError(
            f"{len(violations)} of {len(report.rows)} rows violate their rank bound")
    return 0


def _cmd_train(args) -> int:
    cfg = matrix_io.read_train_config(args.config)
    adapters.param_count(args.method, cfg, (cfg.d, cfg.d))  # plan before any file
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be ≥ 1, got {args.seeds}")
    # every output is the prefix plus a suffix; Path(prefix).parent loses "sub" of "adir/sub/"
    Path(f"{args.out_prefix}.seed").parent.mkdir(parents=True, exist_ok=True)
    seeds = range(cfg.seed, cfg.seed + args.seeds)
    runs, traces = training.train_seeds(args.method, cfg, args.seeds)
    for seed, adapter, trace in zip(seeds, runs, traces):
        training.write_loss_trace(trace, f"{args.out_prefix}.seed{seed}.loss.csv")
        adapters.save_adapter(adapter, f"{args.out_prefix}.seed{seed}")
        print(f"seed {seed}: initial loss {trace[0]:.6e}, final loss {trace[-1]:.6e}")
    print(f"trainable parameters: {runs[0].params.size}")
    if args.seeds > 1:
        print(f"median initial loss: {np.median(traces[:, 0]):.6e}")
        print(f"median final loss: {np.median(traces[:, -1]):.6e}")
    print(f"wrote loss traces and adapters under prefix {args.out_prefix}")
    return 0


def _cmd_gradcheck(args) -> int:
    mode = "budget" if args.r >= args.k else "flexible"
    cfg = matrix_io.RunConfig(K=args.k, r=args.r, seed=args.seed, mode=mode)
    n = 2 * args.d
    with training.one_thread_if_small(n, args.d, args.d):
        task = training.make_task(args.d, max(1, args.d // 2), n, 0.0, args.seed)
        adapter = adapters.build_adapter(args.method, cfg, task.w0)
        adapters.randomize_factors(adapter, np.random.default_rng([args.seed, 1]), std=0.5)
        report = training.grad_check(adapter, task, seed=args.seed)
    role, k, i, j = report.worst
    print(f"checked {report.n_checked} entries")
    print(f"max relative error: {report.max_rel_error:.6e}")
    print(f"worst entry: {role}[{k}][{i},{j}] analytic {report.worst_analytic:.6e} "
          f"numeric {report.worst_numeric:.6e}")
    if not report.passed:
        raise NumericalError(f"gradient check failed at {role}[{k}][{i},{j}]: relative error "
                             f"{report.max_rel_error:.6e} exceeds {report.tol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
