import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from smoa import matrix_io
from smoa.errors import FormatError, ValidationError
from smoa.matrix_io import RunConfig, SweepConfig, TrainConfig, config_from_dict
from smoa.rank_analysis import RankRecord


def test_read_binary_identity(tmp_path):
    # hand-built file: magic, version, dims, row-major payload
    path = tmp_path / "eye.smoa"
    blob = b"SMOA" + bytes([1]) + struct.pack("<II", 2, 2) + struct.pack("<4d", 1, 0, 0, 1)
    path.write_bytes(blob)
    assert_array_equal(matrix_io.read_matrix(path), np.eye(2))


def test_read_csv_transcription(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("3.0,2.0\n1.0,0.5\n")
    assert_array_equal(matrix_io.read_matrix(path), [[3.0, 2.0], [1.0, 0.5]])


def test_binary_roundtrip_is_bitwise(tmp_path):
    arr = np.random.default_rng(42).standard_normal((64, 64))
    first = tmp_path / "a.smoa"
    second = tmp_path / "b.smoa"
    matrix_io.write_matrix(arr, first)
    back = matrix_io.read_matrix(first)
    assert back.tobytes() == arr.tobytes()
    matrix_io.write_matrix(back, second)
    assert first.read_bytes() == second.read_bytes()


def test_binary_header_is_13_bytes(tmp_path):
    path = tmp_path / "zero.smoa"
    matrix_io.write_matrix(np.zeros((1, 1)), path)
    assert path.stat().st_size == 13 + 8


def test_binary_2x3_payload_48_bytes(tmp_path):
    path = tmp_path / "m.smoa"
    matrix_io.write_matrix(np.arange(6.0).reshape(2, 3), path)
    assert path.stat().st_size == 13 + 48


def test_identity_roundtrip(tmp_path):
    path = tmp_path / "eye.smoa"
    matrix_io.write_matrix(np.eye(4), path)
    assert_array_equal(matrix_io.read_matrix(path), np.eye(4))


def test_csv_roundtrip_value_identical(tmp_path):
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((16, 9)) * np.exp(rng.uniform(-30, 30, size=(16, 9)))
    arr[0, 0] = 1.0 / 3.0
    arr[0, 1] = -0.0
    path = tmp_path / "m.csv"
    matrix_io.write_matrix(arr, path)
    assert_array_equal(matrix_io.read_matrix(path), arr)


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"SM", "truncated header"),
        (b"XXXX" + bytes([1]) + struct.pack("<II", 1, 1) + b"\0" * 8, "bad magic"),
        (b"SMOA" + bytes([9]) + struct.pack("<II", 1, 1) + b"\0" * 8, "version"),
        (b"SMOA" + bytes([1]) + struct.pack("<II", 2, 2) + b"\0" * 16, "payload"),
        (b"SMOA" + bytes([1]) + struct.pack("<II", 1, 1) + b"\0" * 16, "payload"),
        (b"SMOA" + bytes([1]) + struct.pack("<II", 0, 3), "dims"),
    ],
)
def test_malformed_binary_rejected(tmp_path, blob, message):
    path = tmp_path / "bad.smoa"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=message):
        matrix_io.read_matrix(path)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), seed=st.integers(0, 2**16),
       flips=st.lists(st.integers(1, 255), min_size=13, max_size=13))
def test_truncated_or_corrupted_binary_is_format_error(rows, cols, seed, flips):
    # every proper prefix of a written file, and the file with any one
    # header byte changed, raises FormatError and nothing else
    arr = np.random.default_rng(seed).standard_normal((rows, cols))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "m.smoa"
        matrix_io.write_matrix(arr, path)
        blob = path.read_bytes()
        bad = Path(folder) / "bad.smoa"
        for size in range(len(blob)):
            bad.write_bytes(blob[:size])
            with pytest.raises(FormatError):
                matrix_io.read_matrix(bad)
        for i, flip in enumerate(flips):
            corrupted = bytearray(blob)
            corrupted[i] ^= flip
            bad.write_bytes(bytes(corrupted))
            with pytest.raises(FormatError):
                matrix_io.read_matrix(bad)


def test_nonfinite_rejected_on_write(tmp_path):
    with pytest.raises(FormatError, match="non-finite"):
        matrix_io.write_matrix(np.array([[np.nan]]), tmp_path / "bad.smoa")


def test_nonfinite_rejected_on_read(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,inf\n2.0,3.0\n")
    with pytest.raises(FormatError, match="non-finite"):
        matrix_io.read_matrix(path)


def test_malformed_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,zap\n")
    with pytest.raises(FormatError, match="malformed"):
        matrix_io.read_matrix(path)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        matrix_io.read_matrix(tmp_path / "nope.smoa")


def test_non_2d_rejected():
    with pytest.raises(ValidationError, match="2-D"):
        matrix_io.validate_matrix(np.zeros(3))


def test_config_defaults():
    cfg = config_from_dict(RunConfig, {"d_out": 64, "d_in": 64, "K": 2, "r": 16, "seed": 7})
    assert cfg.alpha == 16.0
    assert cfg.mode == "budget"
    assert cfg.init_std == 0.02


def test_config_rejects_k_zero():
    with pytest.raises(ValidationError, match="K must be ≥ 1"):
        config_from_dict(RunConfig, {"d_out": 4, "d_in": 4, "K": 0, "r": 2, "seed": 0})


@pytest.mark.parametrize("field, value, message", [
    ("K", True, "K must be of type int"),
    ("seed", False, "seed must be of type int"),
    ("seed", -1, "seed must be ≥ 0"),
    ("r", 2.0, "r must be of type int"),
    ("alpha", "x", "alpha must be of type float"),
])
def test_config_rejects_wrong_types(field, value, message):
    raw = {"d_out": 4, "d_in": 4, "K": 1, "r": 2, "seed": 0, field: value}
    with pytest.raises(ValidationError, match=message):
        config_from_dict(RunConfig, raw)


def test_config_rejects_unknown_field():
    with pytest.raises(ValidationError, match="unknown config field"):
        config_from_dict(RunConfig, 
            {"d_out": 4, "d_in": 4, "K": 1, "r": 2, "seed": 0, "rnak": 3}
        )


def test_config_rejects_k_above_dims():
    with pytest.raises(ValidationError, match="min\\(d_out, d_in\\)"):
        config_from_dict(RunConfig, {"d_out": 4, "d_in": 8, "K": 5, "r": 5, "seed": 0})


def test_config_rejects_budget_r_below_k():
    with pytest.raises(ValidationError, match="r must be ≥ K"):
        config_from_dict(RunConfig, {"d_out": 8, "d_in": 8, "K": 4, "r": 2, "seed": 0})


def test_config_flexible_allows_r_below_k():
    cfg = config_from_dict(RunConfig, 
        {"d_out": 8, "d_in": 8, "K": 4, "r": 2, "seed": 0, "mode": "flexible"}
    )
    assert cfg.r == 2


def test_write_report_header_and_rows(tmp_path):
    path = tmp_path / "report.csv"
    row = RankRecord(method="lora", d=64, r=4, K=1, seed=0, param_count=512,
                     numerical_rank=4, rank_upper_bound=4, frobenius_norm=2.5)
    matrix_io.write_report([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == matrix_io.REPORT_HEADER
    assert lines[1] == "lora,64,4,1,0,512,4,2.5"


def test_write_report_empty(tmp_path):
    path = tmp_path / "report.csv"
    matrix_io.write_report([], path)
    assert path.read_text() == matrix_io.REPORT_HEADER + "\n"


def test_sweep_config_strict():
    raw = {"methods": ["lora"], "d": 64, "r_values": [4], "K_values": [1], "n_seeds": 3}
    cfg = config_from_dict(SweepConfig, raw)
    assert cfg.budget_match is True
    with pytest.raises(ValidationError, match="unknown sweep config"):
        config_from_dict(SweepConfig, {**raw, "extra": 1})
    with pytest.raises(ValidationError, match="unknown method"):
        config_from_dict(SweepConfig, {**raw, "methods": ["loar"]})


def test_train_config_strict_and_defaults():
    raw = {"d": 64, "target_rank": 48, "n_samples": 128, "seed": 0}
    cfg = config_from_dict(TrainConfig, raw)
    assert cfg.steps == 2000
    assert cfg.learning_rate == 1e-3
    assert cfg.noise_std == 0.0
    assert cfg.target_blocks is None
    with pytest.raises(ValidationError, match="unknown train config"):
        config_from_dict(TrainConfig, {**raw, "stepz": 10})
    with pytest.raises(ValidationError, match="target_rank"):
        config_from_dict(TrainConfig, {**raw, "target_rank": 65})


@pytest.mark.parametrize("make", [
    lambda: matrix_io.SweepConfig(methods=["lora"], d=8, r_values=[2], K_values=[1],
                                  n_seeds=1, tol_factor=float("nan")),
    lambda: matrix_io.SweepConfig(methods=["lora"], d=8, r_values=[2], K_values=[1],
                                  n_seeds=1, tol_factor=float("inf")),
    lambda: matrix_io.TrainConfig(d=8, target_rank=2, n_samples=8, seed=0,
                                  beta1=float("nan")),
    lambda: matrix_io.TrainConfig(d=8, target_rank=2, n_samples=8, seed=0,
                                  weight_decay=float("inf")),
    lambda: matrix_io.TrainConfig(d=8, target_rank=2, n_samples=8, seed=0,
                                  learning_rate=float("-inf")),
    lambda: matrix_io.TrainConfig(d=8, target_rank=2, n_samples=8, seed=0,
                                  noise_std=float("nan")),
    lambda: matrix_io.RunConfig(d_out=4, d_in=4, K=1, r=2, seed=0, alpha=float("inf")),
    lambda: matrix_io.RunConfig(d_out=4, d_in=4, K=1, r=2, seed=0, init_std=float("nan")),
], ids=["sweep-tol-nan", "sweep-tol-inf", "train-beta1-nan", "train-weight-decay-inf",
        "train-lr-minus-inf", "train-noise-nan", "run-alpha-inf", "run-init-std-nan"])
def test_configs_reject_non_finite_floats(make):
    with pytest.raises(ValidationError, match="must be finite"):
        make()


@pytest.mark.parametrize("name, value", [
    ("learning_rate", 0.0), ("learning_rate", -1.0), ("beta1", 1.0), ("beta2", 2.0),
    ("beta2", -0.1), ("epsilon", 0.0), ("weight_decay", -0.1),
])
def test_train_config_rejects_finite_optimizer_settings_out_of_range(name, value):
    # training reads these settings unchecked, so TrainConfig is the one
    # place that keeps each inside AdamW's domain
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        TrainConfig(d=8, target_rank=2, n_samples=8, seed=0, **{name: value})


def test_train_config_run_config_ignores_k_for_full_matrix_methods():
    cfg = config_from_dict(TrainConfig, 
        {"d": 64, "target_rank": 8, "n_samples": 64, "seed": 1, "r": 8, "K": 2}
    )
    assert cfg.run_config("lora").K == 1
    assert cfg.run_config("smoa").K == 2
