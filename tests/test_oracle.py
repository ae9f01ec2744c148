"""The CLI against the benchmark's independent oracle, on small workloads.

perfbench/oracle.py renders what the CLI must write with straight-line
numpy and no ``smoa``; perfbench/check.py compares two output
directories.  Both are imported from perfbench/ and used as they are.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

from smoa import cli  # noqa: E402

SWEEP = {"methods": ["smoa", "lora", "block_lora", "hadamard_w0"], "d": 16,
         "r_values": [2, 4, 8], "K_values": [1, 2, 4], "n_seeds": 2, "base_seed": 0}
TRAIN = workloads.Workload("train-d16", kind="train", d=16, rtol=1e-6, train_seeds=2,
                           steps=200, n_samples=32, target_rank=8)


def run_cli(out: Path, invocations) -> list[tuple[int, str]]:
    """Run each argv from out, write its stdout to out/stdout.<i>.txt, and
    return the (exit code, stderr) of each."""
    results = []
    for i, argv in enumerate(invocations):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            results.append((cli.main(argv), stderr.getvalue()))
        (out / f"stdout.{i}.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return results


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    """(cfg, out, expected) directories; the CLI runs from out, as a benchmark pass does."""
    cfg, out, expected = (tmp_path / name for name in ("cfg", "out", "expected"))
    for path in (cfg, out, expected):
        path.mkdir()
    monkeypatch.chdir(out)
    return cfg, out, expected


def test_rank_sweep_matches_the_oracle(dirs):
    cfg, out, expected = dirs
    (cfg / "sweep.json").write_text(json.dumps(SWEEP), encoding="ascii")
    assert run_cli(out, [["rank-bench", "--config", "../cfg/sweep.json",
                          "--out", "sweep.csv"]]) == [(0, "")]
    lines = oracle.sweep(SWEEP, expected)
    (expected / "stdout.0.txt").write_text("".join(line + "\n" for line in lines),
                                           encoding="utf-8")
    rtol = workloads.WORKLOADS["sweep-d128"].rtol
    assert check.compare_dirs(out, expected, rtol=rtol).problems == []


def test_train_matches_the_oracle(dirs):
    cfg, out, expected = dirs
    for name, content in workloads.configs(TRAIN, 0).items():
        (cfg / name).write_text(json.dumps(content), encoding="ascii")
    assert run_cli(out, workloads.invocations(TRAIN)) == [(0, "")] * 2
    oracle.write_expected(TRAIN, 0, expected)
    assert check.compare_dirs(out, expected, rtol=TRAIN.rtol).problems == []
