"""Adapters: scaled, optionally masked low-rank blocks over a frozen weight.

Every method is one ``Adapter``: its kind and K ``Block``s, which tile
the weight in the K-block layout of block_layout.  Block k owns
rows [row0, row1) and cols [col0, col1), holds trainable factors B_k
(rows_k x r_k) and A_k (r_k x cols_k) and adds s_k (B_k A_k) with
s_k = alpha / r_k, Hadamard-multiplied by its frozen mask where it has
one.  Because the blocks are disjoint, the ranks of the per-block updates
add.  The methods differ only in their layout and masks:

* ``smoa``         K diagonal blocks, block k masked by the same block of
                   the k-th subspace's modulation tensor, built from the
                   block's rows of U and columns of Vt alone
* ``lora``         one full-matrix block, unmasked
* ``block_lora``   K unmasked diagonal blocks (rank r/K each)
* ``hadamard_w0``  one full-matrix block masked by a frozen copy of W0

An adapter's plan, its block ranges and ranks, follows from the method,
the RunConfig and the weight's shape; _plan alone makes and checks it.
The full-matrix methods of FULL_MATRIX ignore K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import matrix_io
from .errors import FormatError, ValidationError
from .matrix_io import METHODS, RunConfig, _check_field, _check_int, _check_type, validate_matrix
from .spectral import EnergyPartition, cumulative_energy, decompose, partition

FULL_MATRIX = ("lora", "hadamard_w0")  # one full-matrix block; these methods ignore K
_MASKED = ("smoa", "hadamard_w0")


def _split(n: int, K: int) -> tuple[int, ...]:
    """n split into K non-increasing parts that differ by at most one: the
    first n mod K parts take one more."""
    base, extra = divmod(n, K)
    return tuple(base + (1 if k < extra else 0) for k in range(K))


def _segments(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Reshaped views of consecutive segments of flat's last axis, one of
    each shape, each with flat's leading axes."""
    bounds = tuple(accumulate((math.prod(shape) for shape in shapes), initial=0))
    return [flat[..., a:b].reshape(*flat.shape[:-1], *shape)
            for a, b, shape in zip(bounds, bounds[1:], shapes)]


def block_layout(d_out: int, d_in: int, K: int) -> tuple[tuple[int, int, int, int], ...]:
    """The (row0, row1, col0, col1) of each block of the K-block layout of a
    d_out x d_in weight: contiguous half-open row and column intervals that
    cover the shape, whose sizes are the _split of each axis into K.  K
    must be a Python or numpy int, not a bool, and d_out and d_in ints of
    at least 1."""
    _check_field("d_out", d_out, int, 1)
    _check_field("d_in", d_in, int, 1)
    _check_int("K", K)
    if K < 1:
        raise ValidationError(f"K must be ≥ 1, got K={K}")
    if K > min(d_out, d_in):
        raise ValidationError(f"K must be ≤ min(d_out, d_in) = {min(d_out, d_in)}, got K={K}")
    rows, cols = (tuple(accumulate(_split(n, K), initial=0)) for n in (d_out, d_in))
    return tuple((rows[k], rows[k + 1], cols[k], cols[k + 1]) for k in range(K))


def subspace_ranks(cfg: RunConfig) -> tuple[int, ...]:
    """Per-subspace ranks: the _split of r across K in budget mode, which
    needs r ≥ K, and r for every subspace in flexible mode."""
    if cfg.mode == "flexible":
        return (cfg.r,) * cfg.K
    if cfg.r < cfg.K:
        raise ValidationError(f"r must be ≥ K in budget mode, got r={cfg.r}, K={cfg.K}")
    return _split(cfg.r, cfg.K)


class Block(NamedTuple):
    """One additive update block: rows [row0, row1) x cols [col0, col1).

    mask is the frozen Hadamard factor for the block, or None for an
    implicit all-ones mask.  A, B and mask may carry the same leading
    axes, one entry per member of a stack of adapters trained together;
    scale is shared.
    """

    row0: int
    row1: int
    col0: int
    col1: int
    mask: np.ndarray | None
    A: np.ndarray
    B: np.ndarray
    scale: float

    def update(self, out: np.ndarray | None = None) -> np.ndarray:
        """The block's rows x cols update, scale * (B @ A), masked if it has
        a mask; written into out when given."""
        update = np.matmul(self.B, self.A, out=out)
        update *= self.scale
        if self.mask is not None:
            update *= self.mask
        return update


@dataclass(eq=False)
class Adapter:
    """Any adapter: a kind and K scaled, optionally masked B_k A_k blocks.

    Block k's mask is its frozen, read-only Hadamard mask, or None: the
    block of the k-th modulation tensor for ``smoa``, the W0 copy for
    ``hadamard_w0``.  partition is the energy partition behind the smoa
    masks.  The constructor rejects any adapter whose parts disagree, and
    any whose blocks do not tile their shape in the K-block layout of
    block_layout: a gap, an overlap or a shifted range raises
    ValidationError.

    The trainable state is one flat float64 buffer, params, laid out
    A_0, B_0, A_1, B_1, ...  The constructor copies the given factors into
    it and stores blocks whose A and B are reshaped views of it, so writing
    into adapter.blocks[k].A writes params.  blocks is a tuple of named
    tuples, so no factor can be rebound.  Adapters compare by identity.
    """

    kind: str
    blocks: tuple[Block, ...]
    partition: EnergyPartition | None = None
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in METHODS:
            raise ValidationError(f"unknown method {self.kind!r}, expected one of {METHODS}")
        K = len(self.blocks)
        ranges = [blk[:4] for blk in self.blocks]
        for blk_range in ranges:
            for bound in blk_range:
                _check_field("every block bound", bound, int)
        shape = (ranges[-1][1], ranges[-1][3]) if ranges else (0, 0)
        if not 1 <= K <= min(shape) or tuple(ranges) != block_layout(*shape, K):
            raise ValidationError(f"the block ranges {ranges} are not the {K}-block layout "
                                  f"of a {shape[0]}x{shape[1]} weight")
        for k, blk in enumerate(self.blocks):
            _check_field("every scale", blk.scale, float)
            if blk.scale <= 0:
                raise ValidationError(f"every scale must be finite and positive, got {blk.scale}")
            rows, cols = blk.row1 - blk.row0, blk.col1 - blk.col0
            rk = blk.A.shape[0]
            if rk < 1:
                raise ValidationError(f"{self.kind} block {k} has rank {rk}, must be ≥ 1")
            want = ((rk, cols), (rows, rk), (rows, cols) if self.kind in _MASKED else None)
            have = (blk.A.shape, blk.B.shape, None if blk.mask is None else blk.mask.shape)
            if have != want:
                raise ValidationError(f"{self.kind} block {k} is {rows}x{cols}, so its A, B and "
                                      f"mask shapes must be {want}, got {have}")
        if (self.partition is not None) != (self.kind == "smoa"):
            raise ValidationError("an adapter has an energy partition if and only if it is smoa")
        if self.partition is not None:
            sets, p = self.partition.index_sets, min(shape)
            if (len(sets) != K or np.shape(self.partition.shares) != (K,)
                    or not np.array_equal(np.concatenate(sets), np.arange(p))):
                raise ValidationError(f"the partition must split 0..{p - 1} into {K} contiguous "
                                      f"index sets in order, with one share each")
        self.params = np.concatenate([np.ravel(t) for blk in self.blocks for t in (blk.A, blk.B)],
                                     dtype=np.float64)
        self.blocks = self.over(self.params)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.blocks[-1].row1, self.blocks[-1].col1)

    @property
    def r_per_subspace(self) -> tuple[int, ...]:
        return tuple(blk.A.shape[0] for blk in self.blocks)

    def factor_views(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
        """Reshaped views of a buffer laid out like params along its last
        axis: the A_k views, then the B_k views, each with flat's leading axes."""
        views = _segments(flat, [shape for blk in self.blocks
                                 for shape in (blk.A.shape, blk.B.shape)])
        return tuple(views[0::2]), tuple(views[1::2])

    def over(self, params: np.ndarray, masks=None) -> tuple[Block, ...]:
        """The adapter's blocks over a buffer laid out like params along its
        last axis, such as a stack of params, and over masks[k] in place of
        block k's own mask when masks is given."""
        A, B = self.factor_views(params)
        if masks is None:
            masks = [blk.mask for blk in self.blocks]
        return tuple(blk._replace(mask=mask, A=a, B=b)
                     for blk, mask, a, b in zip(self.blocks, masks, A, B))


def _plan(method: str, cfg: RunConfig,
          shape: tuple[int, int]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The block ranges and per-block ranks of a method under cfg over a
    weight of this shape: one block of rank r for the full-matrix methods,
    which ignore K, the K-block layout with subspace_ranks otherwise.  A
    bad method, a cfg that is no RunConfig, a shape that is no pair of
    ints of at least 1, or a bad K or budget r raises ValidationError
    here."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}, expected one of {METHODS}")
    _check_type("cfg", cfg, RunConfig)
    if not isinstance(shape, (tuple, list)) or len(shape) != 2:
        raise ValidationError(f"shape must be a (d_out, d_in) pair, got {shape!r}")
    if method in FULL_MATRIX:
        return block_layout(*shape, 1), (cfg.r,)
    return block_layout(*shape, cfg.K), subspace_ranks(cfg)


def smoa_masks(w0, K: int) -> tuple[EnergyPartition, tuple[np.ndarray, ...]]:
    """The frozen state of a K-block smoa adapter over w0: the energy
    partition of w0's spectrum and the K read-only diagonal mask blocks.

    Block k's mask is (U[rows_k, I_k] * sigma[I_k]) @ Vt[I_k, cols_k], the
    block of the k-th modulation tensor, formed without the full tensor
    (zeros for an empty I_k).  The state depends on w0 and K alone, so
    every smoa adapter over one weight with K blocks can share it.
    """
    dec = decompose(w0)
    layout = block_layout(dec.U.shape[0], dec.Vt.shape[1], K)
    part = partition(cumulative_energy(dec.sigma), K)
    masks = []
    for (r0, r1, c0, c1), idx in zip(layout, part.index_sets):
        mask = (dec.U[r0:r1, idx] * dec.sigma[idx]) @ dec.Vt[idx, c0:c1]
        mask.setflags(write=False)
        masks.append(mask)
    return part, tuple(masks)


def build_adapter(method: str, cfg: RunConfig, w0, smoa_state=None) -> Adapter:
    """Build a method's adapter over w0, planned over w0's shape.

    A_k entries are i.i.d. Gaussian(0, init_std^2) from the config seed;
    B_k starts at zero, so the initial update is exactly zero.  Block k's
    scale is alpha / r_k, with alpha = cfg.r when cfg.alpha is None.  ``smoa``
    takes its partition and masks from smoa_state, a smoa_masks(w0, cfg.K)
    result, when given, and builds them from w0 otherwise; smoa_state for
    any other method, or with another K, raises ValidationError, and the
    constructor rejects masks of the wrong shape.  Masks are frozen
    (marked read-only).
    """
    w0 = validate_matrix(w0)
    layout, ranks = _plan(method, cfg, w0.shape)
    if smoa_state is not None and method != "smoa":
        raise ValidationError(f"an smoa state was given for a {method} adapter")
    part, masks = None, (None,) * len(layout)
    if method == "smoa":
        part, masks = smoa_masks(w0, cfg.K) if smoa_state is None else smoa_state
        if len(masks) != cfg.K:
            raise ValidationError(f"the smoa state has {len(masks)} masks, "
                                  f"the config has K={cfg.K}")
    elif method == "hadamard_w0":
        masks = (w0.copy(),)
        masks[0].setflags(write=False)
    alpha = float(cfg.r) if cfg.alpha is None else cfg.alpha
    rng = np.random.default_rng(cfg.seed)
    blocks = []
    for (r0, r1, c0, c1), rk, mask in zip(layout, ranks, masks):
        A = rng.normal(0.0, cfg.init_std, size=(rk, c1 - c0))
        blocks.append(Block(r0, r1, c0, c1, mask, A, np.zeros((r1 - r0, rk)), alpha / rk))
    return Adapter(kind=method, blocks=blocks, partition=part)


def delta(adapter) -> np.ndarray:
    """Assemble the full update matrix from the adapter's blocks."""
    _check_adapter(adapter)
    d_out, d_in = adapter.shape
    out = np.zeros((d_out, d_in))
    for blk in adapter.blocks:
        out[blk.row0:blk.row1, blk.col0:blk.col1] += blk.update()
    return out


def merge(adapter, w0) -> np.ndarray:
    """Return w0 + delta(adapter); w0 is left untouched."""
    return _host_weight(adapter, w0) + delta(adapter)


def _check_adapter(adapter) -> None:
    """Raise ValidationError, naming adapter's type, unless it is an Adapter;
    every public function that takes an adapter calls it first."""
    _check_type("adapter", adapter, Adapter, "an Adapter")


def _host_weight(adapter, w0) -> np.ndarray:
    """w0 as validate_matrix returns it; ValidationError unless adapter is
    an Adapter (_check_adapter) and w0 has its shape."""
    _check_adapter(adapter)
    w0 = validate_matrix(w0)
    if w0.shape != adapter.shape:
        raise ValidationError(f"weight shape {w0.shape} does not match adapter shape "
                              f"{adapter.shape}")
    return w0


def param_count(method: str, cfg: RunConfig, shape: tuple[int, int]) -> int:
    """Closed-form trainable-entry count for a method under cfg over a
    weight of this shape: sum_k r_k * (rows_k + cols_k), which the adapter
    build_adapter makes over such a weight matches exactly."""
    layout, ranks = _plan(method, cfg, shape)
    return sum(rk * (r1 - r0 + c1 - c0) for (r0, r1, c0, c1), rk in zip(layout, ranks))


def randomize_factors(adapter, rng: np.random.Generator, std: float = 1.0) -> None:
    """Fill every A_k and B_k with i.i.d. Gaussian entries, in place.

    One draw fills params; in its A_0, B_0, A_1, B_1, ... order that equals
    one draw per tensor in that order.  Rank sweeps use this to measure
    achievable rank; the zero-init state would make every measured rank 0.
    rng must be an np.random.Generator and std a finite float of at least 0.
    """
    _check_adapter(adapter)
    _check_type("rng", rng, np.random.Generator, "an np.random.Generator")
    _check_field("std", std, float, 0)
    adapter.params[...] = rng.normal(0.0, std, size=adapter.params.size)


# ---------------------------------------------------------------------------
# serialization: one binary file per tensor plus a JSON manifest

def save_adapter(adapter, prefix) -> list[Path]:
    """Write adapter state as `{prefix}.<role><k>.smoa` tensors plus
    `{prefix}.manifest.json` naming each tensor's role, shape, and subspace.
    An adapter that is no Adapter raises ValidationError before any
    directory or file is made."""
    _check_adapter(adapter)
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    tensors = []
    written = []

    def _emit(role: str, k: int, arr: np.ndarray) -> None:
        name = f"{prefix.name}.{role}{k}.smoa"
        matrix_io.write_matrix(arr, prefix.parent / name)
        tensors.append({"role": role, "subspace": k, "shape": list(arr.shape), "file": name})
        written.append(prefix.parent / name)

    for k, blk in enumerate(adapter.blocks):
        _emit("A", k, blk.A)
        _emit("B", k, blk.B)
    role = _mask_role(adapter.kind)
    for k, blk in enumerate(adapter.blocks):
        if blk.mask is not None:
            _emit(role, k, blk.mask)

    manifest = {
        "kind": adapter.kind,
        "d_out": adapter.shape[0],
        "d_in": adapter.shape[1],
        "K": len(adapter.blocks),
        "row_ranges": [[blk.row0, blk.row1] for blk in adapter.blocks],
        "col_ranges": [[blk.col0, blk.col1] for blk in adapter.blocks],
        "r_per_subspace": list(adapter.r_per_subspace),
        "scale": [blk.scale for blk in adapter.blocks],
        "tensors": tensors,
    }
    if adapter.partition is not None:
        manifest["index_sets"] = [s.tolist() for s in adapter.partition.index_sets]
        manifest["shares"] = adapter.partition.shares.tolist()
    manifest_path = prefix.parent / f"{prefix.name}.manifest.json"
    matrix_io.write_json(manifest, manifest_path)
    written.append(manifest_path)
    return written


def _mask_role(kind: str) -> str:
    """The manifest role name of a kind's mask tensors."""
    return "reference" if kind == "hadamard_w0" else "mod_block"


def load_adapter(prefix) -> Adapter:
    """Read an adapter written by save_adapter.

    The blocks are built from the manifest's ranges, so the constructor
    rejects ranges that do not tile the K-block layout.  A manifest that
    cannot be read (a missing one included), is not valid JSON, is not an
    object, lacks a key or a tensor entry the adapter needs, holds a value
    of the wrong type (a float d_out, d_in, K or rank, a bool scale), lists
    a tensor entry twice or one the adapter has no place for, lists a
    partition index that is not a non-negative int or a share that is not
    a finite, non-negative float, or disagrees with its tensors or with
    itself raises FormatError.
    """
    prefix = Path(prefix)
    manifest_path = prefix.parent / f"{prefix.name}.manifest.json"
    manifest = matrix_io._load_json(manifest_path)
    if not isinstance(manifest, dict):
        raise FormatError(
            f"{manifest_path}: manifest must be a JSON object, got {type(manifest).__name__}"
        )
    try:
        return _adapter_from_manifest(manifest, prefix.parent)
    except KeyError as exc:
        raise FormatError(f"{manifest_path}: missing manifest entry {exc}") from exc
    except (FormatError, ValidationError, TypeError, ValueError) as exc:
        # TypeError and ValueError: a manifest value of the wrong type or shape
        raise FormatError(f"{manifest_path}: {exc}") from exc


def _adapter_from_manifest(manifest: dict, folder: Path) -> Adapter:
    kind, K = manifest["kind"], manifest["K"]
    for name in ("d_out", "d_in", "K"):
        _check_field(name, manifest[name], int, 1)
    for name in ("row_ranges", "col_ranges", "r_per_subspace", "scale"):
        if len(manifest[name]) != K:
            raise FormatError(f"{name} must have one entry per block, K={K}, "
                              f"got {manifest[name]}")
    for rk in manifest["r_per_subspace"]:
        _check_field("every entry of r_per_subspace", rk, int, 1)
    role = _mask_role(kind)
    by_role: dict[tuple[str, int], np.ndarray] = {}
    for entry in manifest["tensors"]:
        key = (entry["role"], entry["subspace"])
        if key[0] not in ("A", "B", role) or key[1] not in range(K):
            raise FormatError(f"unexpected tensor entry {key[0]}{key[1]} "
                              f"for a {K}-block {kind} adapter")
        if key in by_role:
            raise FormatError(f"tensor entry {key[0]}{key[1]} is listed twice")
        arr = matrix_io.read_matrix(folder / entry["file"])
        if list(arr.shape) != entry["shape"]:
            raise FormatError(
                f"tensor {entry['file']} has shape {list(arr.shape)}, "
                f"manifest says {entry['shape']}"
            )
        if key[0] == role:
            arr.setflags(write=False)
        by_role[key] = arr
    part = None
    if "index_sets" in manifest or "shares" in manifest:
        for index_set in manifest["index_sets"]:
            for i in index_set:
                _check_field("every index of index_sets", i, int, 0)
        for share in manifest["shares"]:
            _check_field("every share", share, float, 0)
        part = EnergyPartition(
            index_sets=tuple(np.asarray(s, dtype=int) for s in manifest["index_sets"]),
            shares=np.asarray(manifest["shares"], dtype=np.float64))
    blocks = [Block(*manifest["row_ranges"][k], *manifest["col_ranges"][k],
                    by_role.get((role, k)), by_role[("A", k)], by_role[("B", k)],
                    manifest["scale"][k])
              for k in range(K)]
    adapter = Adapter(kind=kind, blocks=blocks, partition=part)
    have = (*adapter.shape, list(adapter.r_per_subspace))
    want = (manifest["d_out"], manifest["d_in"], manifest["r_per_subspace"])
    if have != want:
        raise FormatError(f"the blocks give d_out, d_in and r_per_subspace {have}, "
                          f"the manifest says {want}")
    return adapter
