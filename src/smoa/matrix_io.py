"""Matrix, config, and report serialization.

Binary matrix format ("SMOA"): 4 magic bytes ``SMOA``, one version byte
(0x01), rows and cols as 32-bit little-endian unsigned integers, then
rows*cols IEEE-754 doubles, little-endian, row-major.  The format
round-trips bit-exactly.  CSV matrices carry no header and use 17
significant digits, which preserves 64-bit values exactly.

Report CSV files carry the fixed header row
``method,d,r,K,seed,param_count,numerical_rank,frobenius_error``.

Configs and adapter manifests are JSON, read by one reader, _load_json,
which raises FormatError for a file that cannot be read or is not valid
JSON.  RunConfig holds an adapter's settings; TrainConfig is a RunConfig
with the planted task's and the optimizer's fields.  Both take keyword
arguments only and check every field on construction.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"SMOA"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBII")

REPORT_HEADER = "method,d,r,K,seed,param_count,numerical_rank,frobenius_error"

MODES = ("budget", "flexible")
METHODS = ("smoa", "lora", "block_lora", "hadamard_w0")


def validate_matrix(m) -> np.ndarray:
    """Coerce to a 2-D float64 array and reject empty or non-finite data;
    data numpy cannot convert to float64 raises ValidationError."""
    try:
        arr = np.asarray(m, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix must hold numbers: {exc}") from exc
    if arr.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"matrix dims must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("matrix contains non-finite entries")
    return arr


def write_matrix(m, path) -> None:
    """Write a matrix to `path`; .csv extension selects CSV, anything else binary."""
    arr = validate_matrix(m)
    path = Path(path)
    try:
        if path.suffix.lower() == ".csv":
            _write_csv(arr, path)
        else:
            _write_binary(arr, path)
    except OSError as exc:
        raise FormatError(f"cannot write matrix to {path}: {exc}") from exc


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by write_matrix (format selected by extension)."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".csv":
            arr = _read_csv(path)
        else:
            arr = _read_binary(path)
    except OSError as exc:
        raise FormatError(f"cannot read matrix from {path}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: matrix contains non-finite entries")
    return arr


def _write_binary(arr: np.ndarray, path: Path) -> None:
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_binary(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, rows, cols = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: non-positive dims ({rows}, {cols})")
    payload = blob[_HEADER.size:]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload of {len(payload)} bytes does not match "
            f"{rows}x{cols} header (expected {expected})"
        )
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return data.reshape(rows, cols)


def _write_csv(arr: np.ndarray, path: Path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in arr:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def _read_csv(path: Path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as a FormatError, not as numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed CSV matrix: {exc}") from exc
    if arr.size == 0:
        raise FormatError(f"{path}: empty CSV matrix")
    return arr


def _check_field(name: str, value, kind: type, low: int | None = None,
                 high: int | None = None, positive: bool = False) -> None:
    """Raise ValidationError unless value is a kind (int, float or bool), at
    least low, if given, at most high, if given with low, and above 0 if
    positive.  A bool passes only as bool, since JSON true/false would
    otherwise pass as the integers 1/0; an int passes as a float.  A float
    must be finite: Python's json reads NaN and Infinity, and NaN passes
    every ordered comparison check."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValidationError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be ≥ {low}, got {value!r}")
    if positive and value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")


def _check_int(name: str, value) -> None:
    """Raise ValidationError, naming value and its type, unless value is a
    Python or numpy int and no bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):  # np.bool_ is neither
        raise ValidationError(f"{name} must be an int, got {value!r} "
                              f"of type {type(value).__name__}")


def _check_type(name: str, value, cls: type, called: str | None = None) -> None:
    """Raise ValidationError, naming value's type, unless value is a cls;
    called names cls in the message, "a {cls.__name__}" by default."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be {called or 'a ' + cls.__name__}, "
                              f"got {type(value).__name__}")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Adapter construction parameters for a single weight matrix.

    `r` is the total rank budget in budget mode and the per-subspace rank
    in flexible mode.  An omitted `alpha` stays None and means `r`,
    resolved where the scales are computed (adapters.build_adapter), so
    dataclasses.replace(cfg, r=...) rescales with the new r.  `init_std`
    defaults to 0.02.  The weight's shape is not part of the config: the
    adapter plan over that shape checks K against it, and r against K.
    Every field is passed by keyword.
    """

    K: int
    r: int
    seed: int
    mode: str = "budget"
    alpha: float | None = None
    init_std: float = 0.02

    def __post_init__(self):
        for name in ("K", "r"):
            _check_field(name, getattr(self, name), int, 1)
        _check_field("seed", self.seed, int, 0)
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.alpha is not None:
            _check_field("alpha", self.alpha, float, positive=True)
        _check_field("init_std", self.init_std, float, positive=True)


def write_json(obj, path) -> None:
    """Write obj as ASCII JSON with sorted keys, a two-space indent and a
    trailing newline, the form of every JSON file the package writes."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path) -> dict:
    """Parsed JSON of a config or manifest file; FormatError if it cannot
    be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path}: malformed JSON: {exc}") from exc


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition for a rank-comparison sweep."""

    methods: tuple[str, ...]
    d: int
    r_values: tuple[int, ...]
    K_values: tuple[int, ...]
    n_seeds: int
    base_seed: int = 0
    tol_factor: float = 1e-10
    budget_match: bool = True

    def __post_init__(self):
        for name in ("methods", "r_values", "K_values"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValidationError(f"{name} must be a list, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in self.methods:
            if name not in METHODS:
                raise ValidationError(
                    f"unknown method {name!r}, expected one of {METHODS}"
                )
        _check_field("d", self.d, int, 1)
        _check_field("n_seeds", self.n_seeds, int, 0)
        _check_field("base_seed", self.base_seed, int, 0)
        for name in ("r_values", "K_values"):
            for value in getattr(self, name):
                _check_field(f"every entry of {name}", value, int, 1)
        for name in ("methods", "r_values", "K_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValidationError(f"{name} must not repeat an entry, got {list(values)}")
        _check_field("tol_factor", self.tol_factor, float, positive=True)
        _check_field("budget_match", self.budget_match, bool)


def read_sweep_config(path) -> SweepConfig:
    return config_from_dict(SweepConfig, _load_json(path))


@dataclass(frozen=True, kw_only=True)
class TrainConfig(RunConfig):
    """Planted-task definition plus optimizer settings, over the adapter
    settings of RunConfig, whose fields and checks it inherits; only the
    defaults of K and r differ.  The adapter of seed s is built from
    dataclasses.replace(cfg, seed=s).

    target_blocks confines the planted update to that many diagonal blocks
    (rank split evenly), the support blocked adapters can actually reach;
    the default, 1, is one block over the whole matrix, a dense update.
    """

    K: int = 2
    r: int = 8
    d: int
    target_rank: int
    n_samples: int
    noise_std: float = 0.0
    target_blocks: int = 1
    steps: int = 2000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        for name in ("d", "n_samples", "steps"):
            _check_field(name, getattr(self, name), int, 1)
        for name in ("noise_std", "beta1", "beta2", "weight_decay"):
            _check_field(name, getattr(self, name), float, 0)
        for name in ("learning_rate", "epsilon"):
            _check_field(name, getattr(self, name), float, positive=True)
        _check_field("target_rank", self.target_rank, int, 1, self.d)
        _check_field("target_blocks", self.target_blocks, int, 1, self.d)
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if value >= 1.0:
                raise ValidationError(f"{name} must be in [0, 1), got {value}")
        super().__post_init__()


def read_train_config(path) -> TrainConfig:
    return config_from_dict(TrainConfig, _load_json(path))


_CONFIG_NAMES = {RunConfig: "config", SweepConfig: "sweep config", TrainConfig: "train config"}


def config_from_dict(cls, raw: dict):
    """Strict construction of a RunConfig, SweepConfig or TrainConfig:
    unknown keys are rejected to catch typos, and a missing required key
    is a ValidationError like any other bad field."""
    name = _CONFIG_NAMES[cls]
    if not isinstance(raw, dict):
        raise ValidationError(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValidationError(f"unknown {name} field(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValidationError(f"missing {name} field(s): {', '.join(missing)}")
    return cls(**raw)


def write_report(rows, path) -> None:
    """Write rank-report rows (a list or tuple of RankRecord objects) as CSV
    with the fixed header."""
    _check_type("rows", rows, (list, tuple), "a list of rank records")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(REPORT_HEADER + "\n")
        for row in rows:
            fh.write(f"{row.method},{row.d},{row.r},{row.K},{row.seed},{row.param_count},"
                     f"{row.numerical_rank},{row.frobenius_norm:.17g}\n")
