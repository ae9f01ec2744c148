import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import blas_threads, flip_largest_gradient, requires_pin
from smoa import adapters, matrix_io, rank_analysis, training
from smoa.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def diag_matrix(tmp_path):
    path = tmp_path / "w.smoa"
    matrix_io.write_matrix(np.diag([3.0, 2.0, 1.0]), path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_prints_partition(capsys, diag_matrix):
    code, out, err = run_cli(capsys, "analyze", "--input", str(diag_matrix), "--k", "2")
    assert code == 0
    assert "I_1 = {1} (share 0.500)" in out
    assert "I_2 = {2,3} (share 0.500)" in out
    assert err == ""


def test_analyze_single_subspace(capsys, diag_matrix):
    code, out, _ = run_cli(capsys, "analyze", "--input", str(diag_matrix), "--k", "1")
    assert code == 0
    assert "I_1 = {1,2,3} (share 1.000)" in out


def test_analyze_k_above_p_exits_1(capsys, diag_matrix):
    code, _, err = run_cli(capsys, "analyze", "--input", str(diag_matrix), "--k", "4")
    assert code == 1
    assert "K must be ≤ 3" in err


def test_analyze_missing_input_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.smoa"),
                           "--k", "2")
    assert code == 3
    assert "i/o error" in err


def test_analyze_empty_csv_exits_3(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--k", "2")
    assert code == 3
    assert out == ""
    assert err == f"smoa analyze: i/o error: {path}: empty CSV matrix\n"


def test_analyze_exits_2_when_the_svd_does_not_converge(capsys, diag_matrix, monkeypatch):
    def diverging_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", diverging_svd)
    code, out, err = run_cli(capsys, "analyze", "--input", str(diag_matrix), "--k", "2")
    assert (code, out) == (2, "")
    assert err == "smoa analyze: numerical error: SVD did not converge: SVD did not converge\n"


def test_analyze_of_a_spectrum_whose_sum_overflows_exits_2_with_one_line(tmp_path):
    # run apart, so that numpy's RuntimeWarnings would reach stderr as they
    # do for a user, not pytest's warning capture
    path = tmp_path / "huge.csv"
    path.write_text("1e308,0\n0,1e308\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "smoa", "analyze", "--input", str(path),
                             "--k", "2"], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("smoa analyze: numerical error: spectrum overflows: the sum of its "
                             "2 singular values exceeds the float64 range\n")


def test_analyze_empty_subspace_diagnostic(capsys, tmp_path):
    path = tmp_path / "spike.smoa"
    matrix_io.write_matrix(np.diag([100.0, 1.0, 1.0]), path)
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--k", "3")
    assert code == 0
    assert "diagnostic: empty subspaces: I_1, I_2" in out


def test_analyze_json_dump(capsys, diag_matrix, tmp_path):
    out_json = tmp_path / "part.json"
    code, _, _ = run_cli(capsys, "analyze", "--input", str(diag_matrix), "--k", "2",
                         "--json", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["K"] == 2
    assert payload["index_sets"] == [[1], [2, 3]]
    assert payload["empty_subspaces"] == []


def write_sweep_config(tmp_path, **overrides):
    cfg = {"methods": ["lora"], "d": 64, "r_values": [4], "K_values": [1], "n_seeds": 5}
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_rank_bench_writes_report(capsys, tmp_path):
    cfg = write_sweep_config(tmp_path)
    out_csv = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "rank-bench", "--config", str(cfg), "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == matrix_io.REPORT_HEADER
    assert len(lines) == 6
    assert all(line.split(",")[6] == "4" for line in lines[1:])
    assert "lora,4,1,4" in out
    assert (tmp_path / "report.csv.meta.json").exists()


def test_rank_bench_no_methods_writes_header_only(capsys, tmp_path):
    cfg = write_sweep_config(tmp_path, methods=[])
    out_csv = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "rank-bench", "--config", str(cfg), "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_text() == matrix_io.REPORT_HEADER + "\n"


def test_rank_bench_all_cells_invalid_exits_1(capsys, tmp_path):
    cfg = write_sweep_config(tmp_path, methods=["smoa"], r_values=[2], K_values=[4])
    code, _, err = run_cli(capsys, "rank-bench", "--config", str(cfg),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert "r must be ≥ K" in err


def test_rank_bench_unknown_field_exits_1(capsys, tmp_path):
    cfg = write_sweep_config(tmp_path, extra_field=1)
    code, _, err = run_cli(capsys, "rank-bench", "--config", str(cfg),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert "unknown sweep config" in err


@pytest.mark.parametrize("field, value, message", [
    ("base_seed", -1, "base_seed must be ≥ 0"),
    ("budget_match", "no", "budget_match must be of type bool"),
    ("n_seeds", 1.5, "n_seeds must be of type int"),
    ("r_values", 4, "r_values must be a list"),
])
def test_rank_bench_bad_field_value_exits_1(capsys, tmp_path, field, value, message):
    cfg = write_sweep_config(tmp_path, **{field: value})
    code, _, err = run_cli(capsys, "rank-bench", "--config", str(cfg),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert message in err


def test_rank_bench_nan_tolerance_exits_1(capsys, tmp_path):
    # json writes and reads NaN, which once ranked every row 0 and exited 0
    cfg = write_sweep_config(tmp_path, tol_factor=float("nan"))
    assert '"tol_factor": NaN' in cfg.read_text()
    out_csv = tmp_path / "r.csv"
    code, _, err = run_cli(capsys, "rank-bench", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert "tol_factor must be finite" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("field, value", [
    ("methods", ["smoa", "smoa"]),
    ("r_values", [2, 2]),
    ("K_values", [1, 1]),
])
def test_rank_bench_repeated_entry_exits_1(capsys, tmp_path, field, value):
    # a repeated entry once wrote every row of its cells twice and exited 0
    cell = {"methods": ["smoa"], "d": 8, "r_values": [2], "K_values": [1], "n_seeds": 1}
    cfg = write_sweep_config(tmp_path, **{**cell, field: value})
    out_csv = tmp_path / "r.csv"
    code, _, err = run_cli(capsys, "rank-bench", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert f"{field} must not repeat an entry" in err
    assert not out_csv.exists()


def test_rank_bench_missing_config_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rank-bench", "--config", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 3


@pytest.mark.parametrize("command, extra", [
    ("rank-bench", ["--out", "r.csv"]),
    ("train", ["--method", "lora", "--out-prefix", "run"]),
])
def test_config_with_invalid_utf8_exits_3(capsys, tmp_path, command, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"d": 8}\xff')
    code, out, err = run_cli(capsys, command, "--config", str(cfg),
                             *(str(tmp_path / a) if a in ("r.csv", "run") else a for a in extra))
    assert code == 3
    assert f"smoa {command}: i/o error: {cfg}: malformed JSON" in err
    assert out == ""


def test_rank_bench_is_idempotent(capsys, tmp_path):
    cfg = write_sweep_config(tmp_path, methods=["lora", "smoa"], r_values=[4],
                             K_values=[2], n_seeds=3, d=32)
    first_csv = tmp_path / "a.csv"
    second_csv = tmp_path / "b.csv"
    code_a, out_a, _ = run_cli(capsys, "rank-bench", "--config", str(cfg),
                               "--out", str(first_csv))
    code_b, out_b, _ = run_cli(capsys, "rank-bench", "--config", str(cfg),
                               "--out", str(second_csv))
    assert code_a == code_b == 0
    assert first_csv.read_bytes() == second_csv.read_bytes()
    assert out_a.replace("a.csv", "") == out_b.replace("b.csv", "")


def test_rank_bench_reports_every_bound_violation(capsys, tmp_path, monkeypatch):
    cfg = write_sweep_config(tmp_path, methods=["lora", "block_lora"], r_values=[4],
                             K_values=[1, 2], n_seeds=2, d=16)
    code, clean_out, clean_err = run_cli(capsys, "rank-bench", "--config", str(cfg),
                                         "--out", str(tmp_path / "r.csv"))
    assert (code, clean_err) == (0, "")
    monkeypatch.setattr(rank_analysis, "theoretical_bound", lambda *args, **kwargs: 0)
    code, out, err = run_cli(capsys, "rank-bench", "--config", str(cfg),
                             "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert out == clean_out
    lines = err.splitlines()
    expected = [f"rank bound violated: method={method} r={r} K={K} seed={seed}: "
                f"rank {r} > bound 0"
                for method, r, K in (("block_lora", 4, 1), ("block_lora", 4, 2),
                                     ("lora", 2, 2), ("lora", 4, 1))
                for seed in (0, 1)]
    assert lines == expected + [
        "smoa rank-bench: numerical error: 8 of 8 rows violate their rank bound"]


def write_train_config(tmp_path, **overrides):
    cfg = {"d": 16, "target_rank": 2, "n_samples": 32, "seed": 3,
           "r": 4, "K": 2, "steps": 200}
    cfg.update(overrides)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_writes_trace_and_adapter(capsys, tmp_path):
    cfg = write_train_config(tmp_path)
    prefix = tmp_path / "run"
    code, out, _ = run_cli(capsys, "train", "--config", str(cfg), "--method", "lora",
                           "--out-prefix", str(prefix))
    assert code == 0
    trace = (tmp_path / "run.seed3.loss.csv").read_text().splitlines()
    assert trace[0] == "step,loss"
    assert len(trace) == 202
    assert (tmp_path / "run.seed3.manifest.json").exists()
    assert "trainable parameters: 128" in out
    first = float(trace[1].split(",")[1])
    last = float(trace[-1].split(",")[1])
    assert last < first


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must be ≥ 0"),
    ("noise_std", "x", "noise_std must be of type float"),
    ("steps", True, "steps must be of type int"),
])
def test_train_bad_field_value_exits_1(capsys, tmp_path, field, value, message):
    cfg = write_train_config(tmp_path, **{field: value})
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                           "--out-prefix", str(tmp_path / "run"))
    assert code == 1
    assert message in err


@pytest.mark.parametrize("method", ["lora", "smoa"])
@pytest.mark.parametrize("value, message", [
    ("two", "K must be of type int"),
    (0, "K must be ≥ 1"),
    (-3, "K must be ≥ 1"),
    (True, "K must be of type int"),
    (1.5, "K must be of type int"),
])
def test_train_bad_k_exits_1_for_every_method(capsys, tmp_path, method, value, message):
    # full-matrix methods ignore K, but a malformed K is still rejected at load
    cfg = write_train_config(tmp_path, K=value)
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--method", method,
                           "--out-prefix", str(tmp_path / "run"))
    assert code == 1
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]


@pytest.mark.parametrize("method, field, value, message", [
    ("lora", "r", "4", "r must be of type int, got '4'"),
    ("lora", "r", 0, "r must be ≥ 1, got 0"),
    ("lora", "mode", "bogus", "mode must be one of"),
    ("lora", "alpha", -1.0, "alpha must be positive"),
    ("lora", "alpha", True, "alpha must be of type float"),
    ("lora", "init_std", 0.0, "init_std must be positive"),
    # a K that only the blocked methods use is checked against d and r
    ("smoa", "K", 20, "K must be ≤ min(d_out, d_in) = 16, got K=20"),
    ("block_lora", "r", 1, "r must be ≥ K in budget mode, got r=1, K=2"),
    ("block_lora", "K", 17, "K must be ≤ min(d_out, d_in) = 16, got K=17"),
    ("smoa", "r", 1, "r must be ≥ K in budget mode, got r=1, K=2"),
])
def test_train_bad_adapter_field_exits_1_before_creating_the_out_dir(capsys, tmp_path, method,
                                                                     field, value, message):
    cfg = write_train_config(tmp_path, **{field: value})
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--method", method,
                           "--out-prefix", str(tmp_path / "out" / "run"))
    assert code == 1
    assert message in err
    assert not (tmp_path / "out").exists()


def test_train_null_target_blocks_exits_1_before_creating_the_out_dir(capsys, tmp_path):
    # the dense plant is target_blocks 1, so null is a mistyped count
    cfg = write_train_config(tmp_path, target_blocks=None)
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                           "--out-prefix", str(tmp_path / "out" / "run"))
    assert code == 1
    assert "target_blocks must be of type int" in err
    assert not (tmp_path / "out").exists()


def test_train_is_deterministic(capsys, tmp_path):
    cfg = write_train_config(tmp_path)
    run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
            "--out-prefix", str(tmp_path / "one"))
    run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
            "--out-prefix", str(tmp_path / "two"))
    assert ((tmp_path / "one.seed3.loss.csv").read_bytes()
            == (tmp_path / "two.seed3.loss.csv").read_bytes())


def test_train_multiple_seeds_prints_medians(capsys, tmp_path):
    cfg = write_train_config(tmp_path, steps=50)
    code, out, _ = run_cli(capsys, "train", "--config", str(cfg), "--method", "lora",
                           "--out-prefix", str(tmp_path / "multi"), "--seeds", "3")
    assert code == 0
    assert "median final loss" in out
    assert (tmp_path / "multi.seed5.loss.csv").exists()


def written_files(folder):
    """The bytes of every file a train run wrote under the prefix exp."""
    return {p.name: p.read_bytes() for p in folder.glob("exp.*")}


def test_train_seeds_run_together_write_what_each_seed_writes_alone(capsys, tmp_path):
    # the seeds are trained in one stacked call; that must not couple them
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    cfg = write_train_config(tmp_path, steps=60, noise_std=0.01, weight_decay=0.01)
    code, out, _ = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                           "--out-prefix", str(together / "exp"), "--seeds", "3")
    assert code == 0
    lines = []
    for seed in (3, 4, 5):
        cfg = write_train_config(tmp_path, steps=60, noise_std=0.01, weight_decay=0.01, seed=seed)
        code, single, _ = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                                  "--out-prefix", str(alone / "exp"))
        assert code == 0
        lines.append(single.splitlines()[0])
    assert out.splitlines()[:3] == lines
    # per seed: the loss trace, the manifest, A0, B0, A1, B1 and two mask blocks
    assert len(written_files(together)) == 3 * 8
    assert written_files(together) == written_files(alone)


def test_train_out_prefix_in_missing_directory(capsys, tmp_path):
    cfg = write_train_config(tmp_path, steps=20)
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                           "--out-prefix", str(tmp_path / "new" / "nested" / "exp"))
    assert (code, err) == (0, "")
    code, _, _ = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                         "--out-prefix", str(tmp_path / "exp"))
    assert code == 0
    nested = written_files(tmp_path / "new" / "nested")
    assert len(nested) == 8
    assert nested == written_files(tmp_path)


def test_train_out_prefix_ending_in_a_slash_writes_into_that_directory(capsys, tmp_path):
    # the outputs are the prefix plus a suffix, so they go into adir/sub
    cfg = write_train_config(tmp_path, steps=20)
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                           "--out-prefix", f"{tmp_path / 'adir' / 'sub'}/")
    assert (code, err) == (0, "")
    written = sorted(p.name for p in (tmp_path / "adir" / "sub").iterdir())
    assert len(written) == 8 and ".seed3.loss.csv" in written


def test_train_uncreatable_out_prefix_exits_3_before_training(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(training, "train_seeds", lambda *args: pytest.fail("trained"))
    cfg = write_train_config(tmp_path)
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                             "--out-prefix", str(tmp_path / "file" / "exp"))
    assert (code, out) == (3, "")
    assert "i/o error" in err


OVERCOMMIT = Path("/proc/sys/vm/overcommit_memory")


@pytest.mark.parametrize("seeds", [
    pytest.param(10**8, marks=pytest.mark.skipif(
        OVERCOMMIT.exists() and OVERCOMMIT.read_text().strip() == "1",
        reason="the kernel grants any allocation, so 10**8 seeds would start training")),
    10**15,
])
def test_train_too_many_seeds_to_allocate_exits_1_in_one_line(capsys, tmp_path, seeds):
    # the stacked inputs of 10**8 seeds at d=64 take 6.5e12 bytes, and numpy's
    # MemoryError once escaped as a traceback; 10**15 seeds overflow numpy's size
    cfg = write_train_config(tmp_path, d=64, target_rank=48, n_samples=128)
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "lora",
                             "--out-prefix", str(tmp_path / "run"), "--seeds", str(seeds))
    assert (code, out) == (1, "")
    assert err == (f"smoa train: validation error: {seeds} seeds need {3 * 8 * seeds * 128 * 64:,}"
                   f" bytes of stacked arrays, more than can be allocated\n")


def test_train_divergence_exits_2_and_writes_nothing(capsys, tmp_path):
    # one diverging seed stops every seed of the call: no seed writes files
    cfg = write_train_config(tmp_path, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                                 "--out-prefix", str(tmp_path / "run"), "--seeds", "3")
    assert (code, out) == (2, "")
    assert "numerical error: training diverged: non-finite loss at step 1" in err
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]


def test_train_divergence_reports_one_line_under_warnings_as_errors(capsys, tmp_path):
    # numpy's overflow warning once reached stderr ahead of the error line,
    # and under -W error::RuntimeWarning it escaped as a traceback
    cfg = write_train_config(tmp_path, learning_rate=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                                 "--out-prefix", str(tmp_path / "run"))
    assert (code, out) == (2, "")
    assert err == "smoa train: numerical error: training diverged: non-finite loss at step 1\n"


def test_gradcheck_passes(capsys):
    code, out, err = run_cli(capsys, "gradcheck", "--d", "8", "--k", "2", "--r", "4",
                             "--method", "smoa", "--seed", "0")
    assert code == 0
    assert "max relative error" in out
    assert err == ""


@pytest.mark.parametrize("method", ["lora", "block_lora", "hadamard_w0"])
def test_gradcheck_passes_all_baselines(capsys, method):
    code, _, _ = run_cli(capsys, "gradcheck", "--d", "8", "--k", "2", "--r", "4",
                         "--method", method)
    assert code == 0


@pytest.mark.parametrize("method", ["lora", "hadamard_w0"])
def test_full_matrix_methods_ignore_k_in_gradcheck_and_train(capsys, tmp_path, method):
    # one full-matrix block has no K to check against d or r
    code, out, err = run_cli(capsys, "gradcheck", "--d", "8", "--k", "20", "--r", "4",
                             "--method", method)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "gradcheck", "--d", "8", "--k", "2", "--r", "4",
                          "--method", method)[1]
    for K, folder in ((20, "k20"), (2, "k2")):
        cfg = write_train_config(tmp_path, K=K, r=1, steps=20)
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--method", method,
                               "--out-prefix", str(tmp_path / folder / "exp"))
        assert (code, err) == (0, "")
    assert written_files(tmp_path / "k20") == written_files(tmp_path / "k2")


@pytest.mark.parametrize("method", ["smoa", "block_lora"])
def test_gradcheck_blocked_methods_reject_k_above_d(capsys, method):
    code, out, err = run_cli(capsys, "gradcheck", "--d", "8", "--k", "20", "--r", "4",
                             "--method", method)
    assert (code, out) == (1, "")
    assert err == ("smoa gradcheck: validation error: "
                   "K must be ≤ min(d_out, d_in) = 8, got K=20\n")


def test_train_and_gradcheck_report_an_empty_subspace_in_one_line(capsys, tmp_path):
    # the raw warning named a library source line and printed that line's text
    code, out, err = run_cli(capsys, "gradcheck", "--d", "7", "--k", "7", "--r", "7",
                             "--method", "smoa")
    assert (code, err) == (0, "smoa gradcheck: warning: empty subspace index set(s): I_1\n")
    assert out.startswith("checked 14 entries\n")
    cfg = write_train_config(tmp_path, d=6, target_rank=2, n_samples=12, r=6, K=6, steps=5)
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--method", "smoa",
                             "--out-prefix", str(tmp_path / "run"), "--seeds", "3")
    assert (code, err) == (0, "smoa train: warning: empty subspace index set(s): I_1\n")
    assert out.startswith("seed 3: initial loss")
    assert len(list(tmp_path.glob("run.seed*.loss.csv"))) == 3


def test_gradcheck_corruption_exits_2(capsys, monkeypatch):
    flip_largest_gradient(monkeypatch)
    code, _, err = run_cli(capsys, "gradcheck", "--d", "8", "--k", "2", "--r", "4",
                           "--method", "smoa")
    assert code == 2
    assert "gradient check failed" in err


def test_gradcheck_failure_ends_stderr_with_one_cli_error_line(capsys, monkeypatch):
    flip_largest_gradient(monkeypatch)
    code, out, err = run_cli(capsys, "gradcheck", "--d", "1", "--k", "1", "--r", "1",
                             "--method", "smoa")
    assert code == 2
    assert out.startswith("checked 2 entries\n")
    assert err == ("smoa gradcheck: numerical error: gradient check failed at A[0][0,0]: "
                   "relative error 2.000000e+00 exceeds 1e-06\n")


@pytest.mark.parametrize("command, config, message", [
    ("rank-bench", {"methods": ["lora"], "d": 4, "r_values": [2], "n_seeds": 1},
     "missing sweep config field(s): K_values"),
    ("train", {"d": 4, "target_rank": 2, "seed": 0}, "missing train config field(s): n_samples"),
])
def test_config_missing_a_required_field_exits_1_and_writes_nothing(capsys, tmp_path, command,
                                                                   config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    extra = (["--out", str(tmp_path / "out" / "r.csv")] if command == "rank-bench" else
             ["--method", "lora", "--out-prefix", str(tmp_path / "out" / "run")])
    code, _, err = run_cli(capsys, command, "--config", str(path), *extra)
    assert (code, err) == (1, f"smoa {command}: validation error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "smoa", "gradcheck", "--d", "8", "--k", "2", "--r", "4",
         "--method", "lora"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "max relative error" in result.stdout


@pytest.mark.parametrize("method, seed", [
    ("smoa", 2), ("smoa", 5), ("hadamard_w0", 4), ("hadamard_w0", 5),
])
def test_gradcheck_d256_passes_where_loss_differences_cancelled(capsys, method, seed):
    # subtracting the two perturbed losses put these cases at 1.1e-6 to 7.2e-6
    code, out, err = run_cli(capsys, "gradcheck", "--d", "256", "--k", "4", "--r", "16",
                             "--method", method, "--seed", str(seed))
    assert code == 0, out + err


@requires_pin
def test_train_and_gradcheck_write_the_same_bytes_at_one_and_two_blas_threads(capsys, tmp_path):
    # Both commands run wholly at one BLAS thread.  Unpinned, make_task's
    # norms, BLAS dots, moved with the count at task seeds 2 and 3.  d=128
    # with n=256 is the largest run split by runs (n d^2 = 2**22); d=256 with
    # n=128 is above it, where smoa's two blocks train in two processes
    cases = [({"d": 128, "target_rank": 64, "n_samples": 256, "seed": 2, "target_blocks": 2,
               "r": 16, "K": 2, "steps": 5}, "128"),
             ({"d": 256, "target_rank": 128, "n_samples": 128, "seed": 2, "target_blocks": 2,
               "r": 16, "K": 2, "steps": 5}, "256")]
    outputs = []
    for threads in (1, 2):
        out_dir = tmp_path / f"threads{threads}"
        with blas_threads(threads):
            for config, d in cases:
                cfg = tmp_path / f"train{d}.json"
                cfg.write_text(json.dumps(config))
                for method in ("smoa", "lora"):
                    assert main(["train", "--config", str(cfg), "--method", method,
                                 "--out-prefix", str(out_dir / f"{method}{d}"),
                                 "--seeds", "2"]) == 0
                for method in adapters.METHODS:
                    assert main(["gradcheck", "--d", d, "--k", "2", "--r", "8", "--seed", "3",
                                 "--method", method]) == 0
        out = capsys.readouterr().out.replace(str(out_dir), "")
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        outputs.append((out, files))
    (out_1, files_1), (out_2, files_2) = outputs
    # per case and seed: each method's trace and manifest, smoa's 6 tensors and lora's 2
    assert len(files_1) == 2 * 2 * (2 * 2 + 6 + 2)
    assert files_1 == files_2
    assert out_1 == out_2
