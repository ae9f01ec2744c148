"""Tests of the benchmark's output checker, span arithmetic and compare verdicts.

Run with ``python -m pytest perfbench``.
"""

import importlib
import json
import shutil
import sys

import numpy as np
import pytest

import check
import compare
import oracle
from tracing import FUNCTIONS, LAYERS, Tracer, layer_metrics, self_times

RANK_LINE = "smoa,128,4,2,0,512,16,2.0000000000000004\n"


@pytest.fixture
def dirs(tmp_path):
    """A reference output directory and an identical copy to tamper with."""
    expected = tmp_path / "expected"
    expected.mkdir()
    (expected / "sweep.csv").write_text(
        oracle.REPORT_HEADER + "\n" + RANK_LINE + "lora,128,2,2,0,512,2,1.5\n",
        encoding="ascii")
    oracle.write_json({"skipped": [], "tolerance_factor": 1e-10, "timestamp": "t0"},
                      expected / "sweep.csv.meta.json")
    oracle.write_json({"K": 2, "scale": [2.0, 2.0]}, expected / "smoa.seed0.manifest.json")
    oracle.write_matrix(np.array([[1.0, -0.5], [0.25, 0.0]]), expected / "smoa.seed0.B0.smoa")
    (expected / "stdout.0.txt").write_text("seed 0: initial loss 1.234568e+00\n",
                                          encoding="utf-8")
    actual = tmp_path / "actual"
    shutil.copytree(expected, actual)
    return actual, expected


def _bump(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def test_identical_outputs_are_bit_exact(dirs):
    actual, expected = dirs
    oracle.write_json({"skipped": [], "tolerance_factor": 1e-10, "timestamp": "t1"},
                      actual / "sweep.csv.meta.json")
    result = check.compare_dirs(actual, expected, rtol=1e-9)
    assert not result.problems and result.bit_exact


def test_last_ulp_float_changes_are_accepted(dirs):
    actual, expected = dirs
    csv = actual / "sweep.csv"
    csv.write_text(csv.read_text().replace("2.0000000000000004",
                                           repr(_bump(2.0000000000000004))))
    oracle.write_matrix(np.array([[_bump(1.0), -0.5], [0.25, 0.0]]),
                        actual / "smoa.seed0.B0.smoa")
    oracle.write_json({"K": 2, "scale": [_bump(2.0), 2.0]}, actual / "smoa.seed0.manifest.json")
    (actual / "stdout.0.txt").write_text("seed 0: initial loss 1.234567e+00\n")
    result = check.compare_dirs(actual, expected, rtol=1e-9)
    assert not result.problems, result.problems
    assert not result.bit_exact
    assert 0 < result.max_rel_diff < 1e-6


def test_rank_off_by_one_is_rejected(dirs):
    actual, expected = dirs
    csv = actual / "sweep.csv"
    csv.write_text(csv.read_text().replace(RANK_LINE, RANK_LINE.replace(",16,", ",17,")))
    result = check.compare_dirs(actual, expected, rtol=1e-9)
    assert result.problems
    assert "integer 17 != 16" in result.problems[0]


def test_missing_and_extra_files_are_rejected(dirs):
    actual, expected = dirs
    (actual / "smoa.seed0.B0.smoa").unlink()
    (actual / "stray.csv").write_text("1\n")
    result = check.compare_dirs(actual, expected, rtol=1e-9)
    assert result.problems == ["smoa.seed0.B0.smoa: missing", "stray.csv: not expected"]


@pytest.mark.parametrize("name, content", [
    ("smoa.seed0.manifest.json", '{"K": 3, "scale": [2.0, 2.0]}\n'),
    ("smoa.seed0.manifest.json", '{"K": 2, "scale": [2.1, 2.0]}\n'),
    ("sweep.csv", oracle.REPORT_HEADER + "\n" + RANK_LINE + "lora,128,2,2,0,512,2,1.6\n"),
    ("stdout.0.txt", "seed 0: initial loss 1.234570e+00\n"),
])
def test_wrong_values_are_rejected(dirs, name, content):
    actual, expected = dirs
    (actual / name).write_text(content)
    assert check.compare_dirs(actual, expected, rtol=1e-9).problems


@pytest.mark.parametrize("name", ["sweep.csv.meta.json", "smoa.seed0.manifest.json",
                                  "stdout.0.txt"])
def test_unparsable_outputs_are_rejected(dirs, name):
    actual, expected = dirs
    (actual / name).write_bytes(b"{\xff")
    assert check.compare_dirs(actual, expected, rtol=1e-9).problems


def test_wrong_matrix_shape_is_rejected(dirs):
    actual, expected = dirs
    oracle.write_matrix(np.zeros((1, 4)), actual / "smoa.seed0.B0.smoa")
    result = check.compare_dirs(actual, expected, rtol=1e-9)
    assert "header" in result.problems[0]


def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_of_a_nested_call_tree():
    main, sweep, build, decompose, rank = (
        "cli.main", "rank_analysis.rank_sweep", "adapters.build_adapter",
        "spectral.decompose", "rank_analysis.numerical_rank")
    spans = [
        _span(main, 0.0, 10.0, -1),       # 0: children 1 and 4 cover 3 + 4
        _span(sweep, 1.0, 4.0, 0),        # 1: child 2 covers 1
        _span(build, 2.0, 3.0, 1),        # 2: leaf
        _span(rank, 11.0, 12.5, -1),      # 3: a second root
        _span(sweep, 5.0, 9.0, 0),        # 4: children 5 and 6 overlap on [6, 7]
        _span(decompose, 5.5, 7.0, 4),    # 5
        _span(rank, 6.0, 8.0, 4),         # 6
    ]
    times = self_times(spans)
    assert times[main] == (1, pytest.approx(3.0))
    assert times[sweep] == (2, pytest.approx(2.0 + 1.5))
    assert times[build] == (1, pytest.approx(1.0))
    assert times[decompose] == (1, pytest.approx(1.5))
    assert times[rank] == (2, pytest.approx(1.5 + 2.0))
    assert times["training.forward"] == (0, 0.0)

    metrics = layer_metrics(times)
    assert metrics["rank_analysis.self_s"] == pytest.approx(2.0 + 1.5 + 1.5 + 2.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["training.self_s"] == 0.0
    assert len(metrics) == 2 * len(FUNCTIONS) + len(LAYERS)


def test_tracer_wraps_every_binding_and_counts_calls():
    smoa = pytest.importorskip("smoa")
    for layer in LAYERS:
        importlib.import_module(f"smoa.{layer}")
    modules = [m for key, m in list(sys.modules.items())
               if key == "smoa" or key.startswith("smoa.")]
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = Tracer()
    try:
        tracer.install()
        assert smoa.rank_analysis.build_adapter is smoa.adapters.build_adapter
        assert smoa.adapters.decompose is smoa.spectral.decompose
        assert smoa.adapters.decompose.__wrapped__ is not None
        smoa.rank_analysis.rank_sweep(["smoa", "lora"], d=8, r_values=[2], K_values=[1, 2],
                                      n_seeds=2)
    finally:
        for module, namespace in saved:
            vars(module).update(namespace)
    times = self_times(tracer.spans)
    # 2 cells x 2 seeds x 2 methods built; 2 weights plus 8 updates ranked
    assert times["adapters.build_adapter"][0] == 8
    assert times["spectral.decompose"][0] == 4
    assert times["rank_analysis.numerical_rank"][0] == 10
    assert times["training.random_weight"][0] == 2
    assert all(span is not None for span in tracer.spans)
    assert json.dumps(tracer.spans)


@pytest.mark.parametrize("factor, noisy, expected", [
    (0.8, False, "improved"),
    (1.3, False, "worse"),
    (1.1, False, "unchanged"),
    (1.0, True, "unresolved"),
])
def test_compare_verdicts(factor, noisy, expected):
    parent = [10.0 + 0.1 * i for i in range(10)]
    if noisy:
        parent = [10.0 * (1 + 0.5 * (i % 2)) for i in range(10)]
    change = [x * factor for x in reversed(parent)] if noisy else [x * factor for x in parent]
    assert compare.verdict(parent, change, lower_is_better=True, bound=0.25)[0] == expected


def test_compare_counts_without_bound():
    assert compare.verdict([220] * 10, [220] * 10, True, None)[0] == "unchanged"
    assert compare.verdict([220] * 10, [20] * 10, True, None) == ("improved", 10, 0)
    assert compare.verdict([20] * 10, [220] * 10, True, None)[0] == "worse"
