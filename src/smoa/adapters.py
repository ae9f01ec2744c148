"""Adapter construction: subspace-modulated updates and budget-matched baselines.

The main adapter splits the weight into K diagonal blocks; block k holds
trainable factors B_k (rows_k x r_k) and A_k (r_k x cols_k) whose product
is Hadamard-multiplied by the frozen k-th diagonal block of that
subspace's modulation tensor, scaled by alpha / r_k.  Blocks occupy
disjoint row/column ranges, so the ranks of the per-block updates add.

Baselines share the same factor/zero-init conventions:

* ``lora``         full-matrix low-rank update, delta = scale * B @ A
* ``block_lora``   K independent diagonal LoRA blocks (rank r/K each)
* ``hadamard_w0``  full-matrix factors Hadamard-multiplied with frozen W0
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import matrix_io
from .errors import FormatError, ValidationError
from .matrix_io import METHOD_NAMES, RunConfig, validate_matrix
from .spectral import EnergyPartition, cumulative_energy, decompose, modulation_tensor, partition

METHODS = METHOD_NAMES
BASELINE_KINDS = tuple(m for m in METHODS if m != "smoa")


@dataclass(frozen=True)
class BlockLayout:
    """Contiguous half-open row/column intervals covering the weight shape.

    Interval sizes differ by at most one; the first d mod K intervals on
    each axis take the extra element.
    """

    row_ranges: tuple[tuple[int, int], ...]
    col_ranges: tuple[tuple[int, int], ...]

    @property
    def K(self) -> int:
        return len(self.row_ranges)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_ranges[-1][1], self.col_ranges[-1][1])

    def block_shape(self, k: int) -> tuple[int, int]:
        (r0, r1), (c0, c1) = self.row_ranges[k], self.col_ranges[k]
        return (r1 - r0, c1 - c0)


def block_layout(d_out: int, d_in: int, K: int) -> BlockLayout:
    if K < 1 or K > min(d_out, d_in):
        raise ValidationError(f"K must be in [1, min(d_out, d_in)], got K={K}")
    return BlockLayout(row_ranges=_axis_ranges(d_out, K), col_ranges=_axis_ranges(d_in, K))


def _axis_ranges(n: int, K: int) -> tuple[tuple[int, int], ...]:
    base, extra = divmod(n, K)
    edges = [0]
    for k in range(K):
        edges.append(edges[-1] + base + (1 if k < extra else 0))
    return tuple((edges[k], edges[k + 1]) for k in range(K))


def subspace_ranks(cfg: RunConfig) -> tuple[int, ...]:
    """Per-subspace ranks: r split across K in budget mode (first r mod K
    subspaces take one extra unit), r for every subspace in flexible mode."""
    if cfg.mode == "flexible":
        return (cfg.r,) * cfg.K
    base, extra = divmod(cfg.r, cfg.K)
    return tuple(base + (1 if k < extra else 0) for k in range(cfg.K))


class Block(NamedTuple):
    """One additive update block: rows [row0, row1) x cols [col0, col1).

    mask is the frozen Hadamard factor for the block, or None for an
    implicit all-ones mask.
    """

    row0: int
    row1: int
    col0: int
    col1: int
    mask: np.ndarray | None
    A: np.ndarray
    B: np.ndarray
    scale: float

    def update(self) -> np.ndarray:
        """The block's rows x cols update, scale * (B @ A), masked if it has a mask."""
        update = self.scale * (self.B @ self.A)
        if self.mask is not None:
            update *= self.mask
        return update


@dataclass
class SMoAAdapter:
    layout: BlockLayout
    mod_blocks: tuple[np.ndarray, ...]
    A: list[np.ndarray]
    B: list[np.ndarray]
    r_per_subspace: tuple[int, ...]
    scale: tuple[float, ...]
    partition: EnergyPartition

    kind = "smoa"

    @property
    def shape(self) -> tuple[int, int]:
        return self.layout.shape

    def blocks(self) -> list[Block]:
        return [
            Block(*self.layout.row_ranges[k], *self.layout.col_ranges[k],
                  self.mod_blocks[k], self.A[k], self.B[k], self.scale[k])
            for k in range(self.layout.K)
        ]


@dataclass
class BaselineAdapter:
    kind: str
    layout: BlockLayout
    A: list[np.ndarray]
    B: list[np.ndarray]
    r_per_subspace: tuple[int, ...]
    scale: tuple[float, ...]
    reference: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.layout.shape

    def blocks(self) -> list[Block]:
        out = []
        for k in range(self.layout.K):
            mask = self.reference if self.kind == "hadamard_w0" else None
            out.append(Block(*self.layout.row_ranges[k], *self.layout.col_ranges[k],
                             mask, self.A[k], self.B[k], self.scale[k]))
        return out


def build_smoa(cfg: RunConfig, w0) -> SMoAAdapter:
    """Decompose w0, partition its spectrum, and assemble the adapter.

    A_k entries are i.i.d. Gaussian(0, init_std^2) from the config seed;
    B_k starts at zero, so the initial update is exactly zero.  The
    modulation blocks are frozen (marked read-only).
    """
    w0 = validate_matrix(w0)
    d_out, d_in = w0.shape
    _check_shape(cfg, d_out, d_in)
    dec = decompose(w0)
    part = partition(cumulative_energy(dec.sigma), cfg.K)
    layout = block_layout(d_out, d_in, cfg.K)
    ranks = subspace_ranks(cfg)
    rng = np.random.default_rng(cfg.seed)
    mod_blocks, A, B, scale = [], [], [], []
    for k in range(cfg.K):
        (r0, r1), (c0, c1) = layout.row_ranges[k], layout.col_ranges[k]
        mb = np.ascontiguousarray(modulation_tensor(dec, part, k)[r0:r1, c0:c1])
        mb.setflags(write=False)
        mod_blocks.append(mb)
        A.append(rng.normal(0.0, cfg.init_std, size=(ranks[k], c1 - c0)))
        B.append(np.zeros((r1 - r0, ranks[k])))
        scale.append(cfg.alpha / ranks[k])
    return SMoAAdapter(layout=layout, mod_blocks=tuple(mod_blocks), A=A, B=B,
                       r_per_subspace=ranks, scale=tuple(scale), partition=part)


def build_baseline(kind: str, cfg: RunConfig, w0) -> BaselineAdapter:
    if kind not in BASELINE_KINDS:
        raise ValidationError(f"unknown baseline kind {kind!r}, expected one of {BASELINE_KINDS}")
    w0 = validate_matrix(w0)
    d_out, d_in = w0.shape
    _check_shape(cfg, d_out, d_in)
    rng = np.random.default_rng(cfg.seed)
    if kind == "block_lora":
        layout = block_layout(d_out, d_in, cfg.K)
        ranks = subspace_ranks(cfg)
    else:
        layout = block_layout(d_out, d_in, 1)
        ranks = (cfg.r,)
    A, B, scale = [], [], []
    for k in range(layout.K):
        (r0, r1), (c0, c1) = layout.row_ranges[k], layout.col_ranges[k]
        A.append(rng.normal(0.0, cfg.init_std, size=(ranks[k], c1 - c0)))
        B.append(np.zeros((r1 - r0, ranks[k])))
        scale.append(cfg.alpha / ranks[k])
    reference = None
    if kind == "hadamard_w0":
        reference = w0.copy()
        reference.setflags(write=False)
    return BaselineAdapter(kind=kind, layout=layout, A=A, B=B, r_per_subspace=ranks,
                           scale=tuple(scale), reference=reference)


def build_adapter(method: str, cfg: RunConfig, w0):
    """Dispatch on method name; see build_smoa and build_baseline."""
    if method == "smoa":
        return build_smoa(cfg, w0)
    return build_baseline(method, cfg, w0)


def _check_shape(cfg: RunConfig, d_out: int, d_in: int) -> None:
    if (cfg.d_out, cfg.d_in) != (d_out, d_in):
        raise ValidationError(
            f"config dims ({cfg.d_out}, {cfg.d_in}) do not match weight shape ({d_out}, {d_in})"
        )


def delta(adapter) -> np.ndarray:
    """Assemble the full update matrix from the adapter's blocks."""
    d_out, d_in = adapter.shape
    out = np.zeros((d_out, d_in))
    for blk in adapter.blocks():
        out[blk.row0:blk.row1, blk.col0:blk.col1] += blk.update()
    return out


def merge(adapter, w0) -> np.ndarray:
    """Return w0 + delta(adapter); w0 is left untouched."""
    w0 = validate_matrix(w0)
    if w0.shape != adapter.shape:
        raise ValidationError(
            f"weight shape {w0.shape} does not match adapter shape {adapter.shape}"
        )
    return w0 + delta(adapter)


def param_count(method: str, cfg: RunConfig) -> int:
    """Closed-form trainable-entry count for a method under cfg.

    Matches the constructed adapter exactly: sum_k r_k * (rows_k + cols_k)
    for the blocked methods, r * (d_out + d_in) for the full-matrix ones.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}, expected one of {METHODS}")
    if method in ("lora", "hadamard_w0"):
        return cfg.r * (cfg.d_out + cfg.d_in)
    layout = block_layout(cfg.d_out, cfg.d_in, cfg.K)
    ranks = subspace_ranks(cfg)
    return sum(
        rk * (rows + cols)
        for rk, (rows, cols) in zip(ranks, (layout.block_shape(k) for k in range(cfg.K)))
    )


def trainable_parameter_count(adapter) -> int:
    return sum(a.size + b.size for a, b in zip(adapter.A, adapter.B))


def randomize_factors(adapter, rng: np.random.Generator, std: float = 1.0) -> None:
    """Fill every A_k and B_k with i.i.d. Gaussian entries, in place.

    Rank sweeps use this to measure achievable rank; the zero-init state
    would make every measured rank 0.
    """
    for k in range(len(adapter.A)):
        adapter.A[k][...] = rng.normal(0.0, std, size=adapter.A[k].shape)
        adapter.B[k][...] = rng.normal(0.0, std, size=adapter.B[k].shape)


# ---------------------------------------------------------------------------
# serialization: one binary file per tensor plus a JSON manifest

def save_adapter(adapter, prefix) -> list[Path]:
    """Write adapter state as `{prefix}.<role><k>.smoa` tensors plus
    `{prefix}.manifest.json` naming each tensor's role, shape, and subspace."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    tensors = []
    written = []

    def _emit(role: str, k: int, arr: np.ndarray) -> None:
        name = f"{prefix.name}.{role}{k}.smoa"
        matrix_io.write_matrix(arr, prefix.parent / name)
        tensors.append({"role": role, "subspace": k, "shape": list(arr.shape), "file": name})
        written.append(prefix.parent / name)

    for k in range(len(adapter.A)):
        _emit("A", k, adapter.A[k])
        _emit("B", k, adapter.B[k])
    if adapter.kind == "smoa":
        for k, mb in enumerate(adapter.mod_blocks):
            _emit("mod_block", k, mb)
    elif adapter.kind == "hadamard_w0":
        _emit("reference", 0, adapter.reference)

    manifest = {
        "kind": adapter.kind,
        "d_out": adapter.shape[0],
        "d_in": adapter.shape[1],
        "K": adapter.layout.K,
        "row_ranges": [list(rr) for rr in adapter.layout.row_ranges],
        "col_ranges": [list(cr) for cr in adapter.layout.col_ranges],
        "r_per_subspace": list(adapter.r_per_subspace),
        "scale": list(adapter.scale),
        "tensors": tensors,
    }
    if adapter.kind == "smoa":
        manifest["index_sets"] = [s.tolist() for s in adapter.partition.index_sets]
        manifest["shares"] = adapter.partition.shares.tolist()
    manifest_path = prefix.parent / f"{prefix.name}.manifest.json"
    with open(manifest_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)
    return written


def load_adapter(prefix):
    """Read an adapter written by save_adapter.

    A manifest that is not valid JSON, is not an object, or lacks a key
    or a tensor entry the adapter needs raises FormatError.
    """
    prefix = Path(prefix)
    manifest_path = prefix.parent / f"{prefix.name}.manifest.json"
    try:
        with open(manifest_path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(
            f"{manifest_path}: manifest must be a JSON object, got {type(manifest).__name__}"
        )
    try:
        return _adapter_from_manifest(manifest, prefix.parent)
    except KeyError as exc:
        raise FormatError(f"{manifest_path}: missing manifest entry {exc}") from exc


def _adapter_from_manifest(manifest: dict, folder: Path):
    by_role: dict[tuple[str, int], np.ndarray] = {}
    for entry in manifest["tensors"]:
        arr = matrix_io.read_matrix(folder / entry["file"])
        if list(arr.shape) != entry["shape"]:
            raise ValidationError(
                f"tensor {entry['file']} has shape {list(arr.shape)}, "
                f"manifest says {entry['shape']}"
            )
        by_role[(entry["role"], entry["subspace"])] = arr
    layout = BlockLayout(
        row_ranges=tuple(tuple(rr) for rr in manifest["row_ranges"]),
        col_ranges=tuple(tuple(cr) for cr in manifest["col_ranges"]),
    )
    K = manifest["K"]
    A = [by_role[("A", k)] for k in range(K if manifest["kind"] in ("smoa", "block_lora") else 1)]
    B = [by_role[("B", k)] for k in range(len(A))]
    ranks = tuple(manifest["r_per_subspace"])
    scale = tuple(manifest["scale"])
    if manifest["kind"] == "smoa":
        mod_blocks = []
        for k in range(K):
            mb = by_role[("mod_block", k)]
            mb.setflags(write=False)
            mod_blocks.append(mb)
        index_sets = tuple(np.asarray(s, dtype=int) for s in manifest["index_sets"])
        part = EnergyPartition(K=K, index_sets=index_sets,
                               shares=np.asarray(manifest["shares"]))
        return SMoAAdapter(layout=layout, mod_blocks=tuple(mod_blocks), A=A, B=B,
                           r_per_subspace=ranks, scale=scale, partition=part)
    reference = by_role.get(("reference", 0))
    if reference is not None:
        reference.setflags(write=False)
    return BaselineAdapter(kind=manifest["kind"], layout=layout, A=A, B=B,
                           r_per_subspace=ranks, scale=scale, reference=reference)
