"""Spectral decomposition of a frozen weight and its energy-balanced partition.

The pipeline is: SVD of the weight, cumulative spectral energy over the
singular values (first powers), deterministic split of the
singular directions into K contiguous index sets by evenly dividing the
cumulative energy, and reconstruction of one frozen modulation tensor per
subspace from its singular triples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .matrix_io import _check_int, validate_matrix


class EmptySubspaceWarning(UserWarning):
    """A subspace received no singular directions (one direction dominates)."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """SVD factors U, sigma, Vt with p = min(d_out, d_in) columns/rows.

    sigma is non-increasing; U and Vt have orthonormal columns/rows. The
    sign convention (first nonzero entry of each U column non-negative,
    Vt following) makes the factorization deterministic for fixed input.
    """

    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray


@dataclass(frozen=True)
class EnergyPartition:
    """K disjoint, contiguous index sets over singular directions.

    index_sets holds 0-based indices into sigma; sets are contiguous runs
    and their union is {0, ..., p-1}.  shares are the fractions of total
    spectral energy per set and sum to 1.  K is the number of sets.
    """

    index_sets: tuple[np.ndarray, ...]
    shares: np.ndarray

    @property
    def K(self) -> int:
        return len(self.index_sets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.index_sets)

    def empty_sets(self) -> tuple[int, ...]:
        """0-based subspace indices that received no singular directions."""
        return tuple(k for k, s in enumerate(self.index_sets) if len(s) == 0)


def _svd(arr: np.ndarray, compute_uv: bool = True):
    """np.linalg.svd(arr, full_matrices=False, compute_uv=compute_uv), the
    one SVD call of the package: a failure to converge raises NumericalError."""
    try:
        return np.linalg.svd(arr, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def decompose(w0) -> SpectralDecomposition:
    """Thin SVD of w0 with a deterministic sign convention.

    Raises NumericalError if the underlying SVD fails to converge.
    """
    U, sigma, Vt = _svd(validate_matrix(w0))
    first = U[np.argmax(U != 0, axis=0), np.arange(U.shape[1])]
    signs = np.where(first < 0, -1.0, 1.0)
    U *= signs
    Vt *= signs[:, None]
    U.setflags(write=False)
    sigma.setflags(write=False)
    Vt.setflags(write=False)
    return SpectralDecomposition(U=U, sigma=sigma, Vt=Vt)


def cumulative_energy(sigma) -> np.ndarray:
    """Cumulative spectral energy E(i) = sum_{j<=i} sigma_j / sum_j sigma_j.

    sigma must be finite, non-negative, non-increasing, and not all zero,
    and its sum must not overflow float64, else NumericalError.  The ratio
    uses the running partial sums, so E(p) equals 1.0 exactly.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValidationError("sigma must be a non-empty 1-D vector")
    if not (np.isfinite(s).all() and np.all(s >= 0)):
        raise ValidationError("sigma must be finite and non-negative")
    if np.any(np.diff(s) > 0):
        raise ValidationError("sigma must be non-increasing")
    if s[0] == 0.0:
        raise NumericalError("degenerate spectrum: all singular values are zero")
    with np.errstate(over="ignore"):
        partial = np.cumsum(s)
    if not np.isfinite(partial[-1]):
        raise NumericalError(f"spectrum overflows: the sum of its {s.size} singular values "
                             f"exceeds the float64 range")
    return partial / partial[-1]


def partition(E, K: int) -> EnergyPartition:
    """Split indices into K sets: index i joins set k iff (k-1)/K < E(i) <= k/K.

    E must be a cumulative energy: finite, non-decreasing, within [0, 1]
    and ending at exactly 1, as cumulative_energy returns it; anything
    else raises ValidationError.  Boundaries are evaluated on the computed
    64-bit values; an E(i) equal to a boundary goes to the lower set.
    K must be a Python or numpy int, not a bool; any other type raises
    ValidationError naming it.  Empty sets are permitted and reported via
    EmptySubspaceWarning, not an error.
    """
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 1 or E.size == 0:
        raise ValidationError("E must be a non-empty 1-D vector")
    if not (np.isfinite(E).all() and E[0] >= 0.0 and E[-1] == 1.0 and np.all(np.diff(E) >= 0)):
        raise ValidationError("E must be finite, non-decreasing, in [0, 1] and end at 1")
    _check_int("K", K)
    if K < 1:
        raise ValidationError(f"K must be ≥ 1, got {K!r}")
    if K > E.size:
        raise ValidationError(f"K must be ≤ {E.size} (number of singular directions), got {K}")
    bounds = np.arange(1, K + 1, dtype=np.float64) / K
    bins = np.searchsorted(bounds, E, side="left")
    index_sets = tuple(np.flatnonzero(bins == k) for k in range(K))
    per_index = np.diff(E, prepend=0.0)
    shares = np.array([per_index[s].sum() if len(s) else 0.0 for s in index_sets])
    part = EnergyPartition(index_sets=index_sets, shares=shares)
    empty = part.empty_sets()
    if empty:
        warnings.warn(
            "empty subspace index set(s): "
            + ", ".join(f"I_{k + 1}" for k in empty),
            EmptySubspaceWarning,
            stacklevel=2,
        )
    return part


def modulation_tensor(dec: SpectralDecomposition, part: EnergyPartition, k: int) -> np.ndarray:
    """Frozen modulation tensor of subspace k (0-based): U diag(mask*sigma) Vt.

    Only the singular triples whose indices fall in the k-th set
    contribute; the result has numerical rank equal to the number of
    above-tolerance singular values in that set, and is zero for an empty
    set.  k must be a Python or numpy int, not a bool.
    """
    _check_int("k", k)
    if not 0 <= k < part.K:
        raise ValidationError(f"subspace index must be in [0, {part.K}), got {k}")
    idx = part.index_sets[k]
    return (dec.U[:, idx] * dec.sigma[idx]) @ dec.Vt[idx, :]
