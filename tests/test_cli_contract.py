"""A property test of the CLI contract: main() on generated argv and small
configs, valid or malformed, through all four subcommands.

Whatever the input, main() exits 0, 1, 2 or 3; a failure ends stderr with
exactly one ``smoa <command>: ... error: ...`` line and prints no
traceback; and a failed call writes no file.  A call that exits 1 or 3
also makes no directory; a train run that diverges (exit 2) has made its
output directory by then, and writes nothing into it.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from smoa import matrix_io
from smoa.cli import main
from smoa.matrix_io import METHODS

METHOD = st.sampled_from(METHODS)
BAD_VALUES = st.sampled_from([None, "x", True, 1.5, -1, 0, float("nan"), float("inf"), 1e308,
                              [], {}])
EDITS = ("none",) * 4 + ("value", "value", "missing", "unknown", "not-object", "not-json")


@st.composite
def config_bytes(draw, valid: dict) -> bytes:
    """A config file: valid, or malformed by one edit."""
    raw = dict(valid)
    edit = draw(st.sampled_from(EDITS))
    if edit == "value":
        raw[draw(st.sampled_from(sorted(raw)))] = draw(BAD_VALUES)
    elif edit == "missing":
        del raw[draw(st.sampled_from(sorted(raw)))]
    elif edit == "unknown":
        raw["stepz"] = 1
    elif edit == "not-object":
        raw = draw(st.sampled_from([[], 3, "cfg", None]))
    elif edit == "not-json":
        return draw(st.sampled_from([b"", b"{", b"\xff\xfe", b"{'d': 4}"]))
    return json.dumps(raw).encode()


@st.composite
def train_call(draw):
    d = draw(st.integers(1, 12))
    cfg = {"d": d, "target_rank": draw(st.integers(1, d)), "n_samples": draw(st.integers(1, 12)),
           "seed": draw(st.integers(0, 3)), "r": draw(st.integers(1, 6)),
           "K": draw(st.integers(1, 3)), "steps": draw(st.integers(1, 5))}
    cfg |= draw(st.fixed_dictionaries({}, optional={
        "target_blocks": st.integers(1, 3), "noise_std": st.sampled_from([0.0, 0.1]),
        "learning_rate": st.sampled_from([1e-2, 1e308]), "weight_decay": st.just(0.01),
        "mode": st.sampled_from(["budget", "flexible"])}))
    prefix = draw(st.sampled_from(["{tmp}/out/run", "{tmp}/out/sub/", "{tmp}/afile/run"]))
    argv = ["train", "--config", "{tmp}/cfg.json", "--method", draw(METHOD),
            "--out-prefix", prefix, "--seeds", str(draw(st.integers(-1, 2)))]
    return argv, {"cfg.json": draw(config_bytes(cfg))}


@st.composite
def rank_bench_call(draw):
    small_ints = st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True)
    cfg = {"methods": draw(st.lists(METHOD, max_size=4, unique=True)),
           "d": draw(st.integers(1, 12)), "r_values": draw(small_ints),
           "K_values": draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)),
           "n_seeds": draw(st.integers(0, 2))}
    cfg |= draw(st.fixed_dictionaries({}, optional={
        "base_seed": st.integers(0, 3), "tol_factor": st.sampled_from([1e-10, 1e-3]),
        "budget_match": st.booleans()}))
    out = draw(st.sampled_from(["{tmp}/sweep.csv", "{tmp}/missing/sweep.csv", "{tmp}/adir"]))
    argv = ["rank-bench", "--config", "{tmp}/cfg.json", "--out", out]
    return argv, {"cfg.json": draw(config_bytes(cfg))}


@st.composite
def analyze_call(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = np.arange(1, rows * cols + 1, dtype=float).reshape(rows, cols) ** draw(
        st.sampled_from([0.5, 2]))
    edit = draw(st.sampled_from(["none"] * 4 + ["zero", "nan", "ragged", "empty", "garbage",
                                                "missing"]))
    name = "w" + draw(st.sampled_from([".csv", ".smoa"]))
    if edit in ("zero", "nan"):
        m[...] = 0.0 if edit == "zero" else np.nan
    text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n"
    if name.endswith(".smoa") and edit != "garbage":
        blob = matrix_io._HEADER.pack(matrix_io.MAGIC, 1, rows, cols) + m.astype("<f8").tobytes()
    else:
        blob = {"ragged": text + "1\n", "empty": "", "garbage": "SMOA\x01junk"}.get(edit, text)
        blob = blob.encode()
    files = {} if edit == "missing" else {name: blob}
    argv = ["analyze", "--input", "{tmp}/" + name,
            "--k", str(draw(st.sampled_from([-1, 0, 1, 1, 2, 2, 3])))]
    argv += draw(st.sampled_from([[], ["--json", "{tmp}/part.json"],
                                  ["--json", "{tmp}/missing/part.json"]]))
    return argv, files


@st.composite
def gradcheck_call(draw):
    values = {"--d": [-1, 0, 1, 2, 5, 8, 12, 12], "--k": [-1, 0, 1, 1, 2, 3],
              "--r": [-1, 0, 1, 2, 4, 8], "--seed": [-1, 0, 1, 3]}
    argv = ["gradcheck", "--method", draw(METHOD)]
    for option, choices in values.items():
        argv += [option, str(draw(st.sampled_from(choices)))]
    return argv, {}


@st.composite
def malformed_argv(draw, call):
    """A call, or the same call with one option dropped or given a word
    where the parser wants an integer or a method (paths stay under the
    temporary folder)."""
    argv, files = draw(call)
    edit = draw(st.sampled_from(["none"] * 6 + ["drop", "word"]))
    options = [i for i, arg in enumerate(argv) if arg.startswith("--") and i + 1 < len(argv)
               and not argv[i + 1].startswith("--")]
    words = [i for i in options if "{tmp}" not in argv[i + 1]]
    if edit == "drop":
        i = draw(st.sampled_from(options))
        argv = argv[:i] + argv[i + 2:]
    elif edit == "word" and words:
        i = draw(st.sampled_from(words))
        argv = argv[:i + 1] + ["two"] + argv[i + 2:]
    return argv, files


CALLS = {"analyze": analyze_call(), "gradcheck": gradcheck_call(),
         "rank-bench": rank_bench_call(), "train": train_call()}


def tree(folder: Path) -> tuple[set, set]:
    """The files and the directories under folder."""
    paths = list(folder.rglob("*"))
    return {p for p in paths if p.is_file()}, {p for p in paths if p.is_dir()}


@pytest.mark.parametrize("command", sorted(CALLS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_cli_call_exits_with_a_code_and_one_error_line(command, data):
    argv, files = data.draw(malformed_argv(CALLS[command]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "afile").write_text("")
        (folder / "adir").mkdir()
        for name, blob in files.items():
            (folder / name).write_bytes(blob)
        before = tree(folder)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([arg.replace("{tmp}", tmp) for arg in argv])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        after = tree(folder)
    err = err.getvalue()
    event(f"smoa {argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    if code == 0:
        return
    assert "Traceback" not in err
    lines = err.splitlines()
    pattern = re.compile(rf"smoa {argv[0]}: (\S+ )*error: \S")
    assert [line for line in lines if pattern.match(line)] == lines[-1:], err
    assert after[0] == before[0], "a failed call wrote a file"
    if code in (1, 3):
        assert after[1] == before[1], "a failed call made a directory"
