import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from smoa import spectral
from smoa.errors import FormatError, NumericalError, ValidationError
from smoa.rank_analysis import numerical_rank
from smoa.training import random_weight


def test_decompose_diagonal():
    dec = spectral.decompose(np.diag([3.0, 2.0, 1.0]))
    assert_allclose(dec.sigma, [3.0, 2.0, 1.0], rtol=1e-14)
    assert_allclose(dec.U, np.eye(3), atol=1e-14)
    assert_allclose(dec.Vt.T, np.eye(3), atol=1e-14)


def test_decompose_zero_matrix():
    dec = spectral.decompose(np.zeros((4, 4)))
    assert_array_equal(dec.sigma, np.zeros(4))


@pytest.mark.parametrize("shape", [(8, 5), (5, 8), (16, 16)])
def test_decompose_reconstruction(shape):
    for seed in range(5):
        w = np.random.default_rng(seed).standard_normal(shape)
        dec = spectral.decompose(w)
        recon = (dec.U * dec.sigma) @ dec.Vt
        assert np.linalg.norm(recon - w) <= 1e-9 * np.linalg.norm(w)
        p = min(shape)
        assert np.abs(dec.U.T @ dec.U - np.eye(p)).max() <= 1e-10
        assert np.abs(dec.Vt @ dec.Vt.T - np.eye(p)).max() <= 1e-10
        assert np.all(np.diff(dec.sigma) <= 0)


def test_decompose_sign_convention_and_determinism():
    w = np.random.default_rng(3).standard_normal((12, 7))
    dec = spectral.decompose(w)
    for j in range(dec.U.shape[1]):
        col = dec.U[:, j]
        assert col[np.flatnonzero(col)[0]] > 0
    again = spectral.decompose(w.copy())
    assert dec.U.tobytes() == again.U.tobytes()
    assert dec.sigma.tobytes() == again.sigma.tobytes()
    assert dec.Vt.tobytes() == again.Vt.tobytes()


def _loop_signs(w):
    """Reference sign fix, one column at a time."""
    U, _, Vt = np.linalg.svd(w, full_matrices=False)
    for j in range(U.shape[1]):
        nz = np.flatnonzero(U[:, j])
        if nz.size and U[nz[0], j] < 0:
            U[:, j] = -U[:, j]
            Vt[j, :] = -Vt[j, :]
    return U, Vt


@pytest.mark.parametrize("w", [
    np.random.default_rng(5).standard_normal((9, 6)),
    np.random.default_rng(6).standard_normal((6, 9)),
    np.diag([1.0, -2.0, 3.0, 0.0]),  # leading zeros and an all-zero direction
    np.vstack([np.zeros((3, 5)), np.random.default_rng(7).standard_normal((4, 5))]),
], ids=["tall", "wide", "diagonal", "zero-rows"])
def test_decompose_signs_match_loop_reference(w):
    dec = spectral.decompose(w)
    U, Vt = _loop_signs(w)
    assert dec.U.tobytes() == U.tobytes()
    assert dec.Vt.tobytes() == Vt.tobytes()


def test_decompose_rejects_nonfinite():
    with pytest.raises(FormatError):
        spectral.decompose(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_decompose_returns_factors_that_reject_writes():
    dec = spectral.decompose(random_weight(6, 4, np.random.default_rng(0)))
    for name in ("U", "sigma", "Vt"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(dec, name)[0] = 1.0


def test_decompose_raises_numerical_error_when_the_svd_does_not_converge(monkeypatch):
    def diverging_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", diverging_svd)
    with pytest.raises(NumericalError, match="^SVD did not converge: SVD did not converge$"):
        spectral.decompose(np.eye(3))


def test_cumulative_energy_hand_values():
    # partial sums 3/6, 5/6, 6/6
    energy = spectral.cumulative_energy([3.0, 2.0, 1.0])
    assert_allclose(energy, [0.5, 5.0 / 6.0, 1.0], rtol=1e-15)
    assert energy[-1] == 1.0


def test_cumulative_energy_single_value():
    assert_array_equal(spectral.cumulative_energy([5.0]), [1.0])


def test_cumulative_energy_equal_values():
    assert_allclose(spectral.cumulative_energy([1.0] * 4), [0.25, 0.5, 0.75, 1.0], rtol=1e-15)


def test_cumulative_energy_rejects_degenerate():
    with pytest.raises(NumericalError, match="degenerate"):
        spectral.cumulative_energy([0.0, 0.0])


def test_cumulative_energy_rejects_a_spectrum_whose_sum_overflows():
    # each value is finite, but their sum is not; no numpy warning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^spectrum overflows: the sum of its 2 "
                                                 "singular values exceeds the float64 range$"):
            spectral.cumulative_energy([1e308, 1e308])
    assert spectral.cumulative_energy([1e307, 1e307])[-1] == 1.0


@pytest.mark.parametrize("values", [[], [[3.0, 1.0]]], ids=["empty", "2-D"])
def test_cumulative_energy_and_partition_reject_what_is_not_a_non_empty_vector(values):
    with pytest.raises(ValidationError, match="^sigma must be a non-empty 1-D vector$"):
        spectral.cumulative_energy(values)
    energy = [[0.75, 1.0]] if values else []
    with pytest.raises(ValidationError, match="^E must be a non-empty 1-D vector$"):
        spectral.partition(energy, 1)


def test_cumulative_energy_rejects_bad_order():
    with pytest.raises(ValidationError, match="non-increasing"):
        spectral.cumulative_energy([1.0, 2.0])
    with pytest.raises(ValidationError, match="non-negative"):
        spectral.cumulative_energy([1.0, -0.5])
    # NaN returned NaN energies, and inf warned on inf / inf
    for sigma in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValidationError, match="finite"):
            spectral.cumulative_energy(sigma)


def test_partition_hand_case():
    part = spectral.partition([0.5, 5.0 / 6.0, 1.0], 2)
    assert [s.tolist() for s in part.index_sets] == [[0], [1, 2]]
    assert_allclose(part.shares, [0.5, 0.5], rtol=1e-15)
    assert part.empty_sets() == ()


def test_partition_equal_values_give_singletons():
    part = spectral.partition([0.25, 0.5, 0.75, 1.0], 4)
    assert [s.tolist() for s in part.index_sets] == [[0], [1], [2], [3]]


def test_partition_dominant_direction_empties_first_set():
    # sigma = [10, 1, 1]: E(1) = 10/12 already exceeds 1/2, so the first
    # set is empty under the half-open interval rule
    energy = spectral.cumulative_energy([10.0, 1.0, 1.0])
    with pytest.warns(spectral.EmptySubspaceWarning, match="I_1"):
        part = spectral.partition(energy, 2)
    assert [s.tolist() for s in part.index_sets] == [[], [0, 1, 2]]
    assert_allclose(part.shares, [0.0, 1.0])


def test_partition_two_empty_sets():
    energy = spectral.cumulative_energy([100.0, 1.0, 1.0])
    with pytest.warns(spectral.EmptySubspaceWarning, match="I_1, I_2"):
        part = spectral.partition(energy, 3)
    assert part.sizes == (0, 0, 3)
    assert part.empty_sets() == (0, 1)


def test_partition_trailing_zeros_land_in_last_set():
    # E stays at exactly 1 past the last nonzero singular value
    energy = spectral.cumulative_energy([1.0, 1.0, 0.0, 0.0])
    part = spectral.partition(energy, 2)
    assert [s.tolist() for s in part.index_sets] == [[0], [1, 2, 3]]


@pytest.mark.parametrize("E", [
    [0.9, 0.1, 1.0],  # decreasing: the sets would be ({1}, {0, 2}), shares (-0.8, 1.8)
    [np.nan, 1.0],  # NaN and out-of-range values fell outside every set
    [0.5, 2.0],
    [-0.5, 1.0],
    [0.25, 0.5],  # not ending at 1
    [0.5, np.inf],
], ids=["decreasing", "nan", "above-1", "below-0", "short-of-1", "inf"])
def test_partition_rejects_what_is_not_a_cumulative_energy(E):
    with pytest.raises(ValidationError, match="non-decreasing, in \\[0, 1\\] and end at 1"):
        spectral.partition(E, 2)


def test_partition_rejects_k_above_p():
    with pytest.raises(ValidationError, match="K must be ≤ 3"):
        spectral.partition([0.5, 0.8, 1.0], 4)
    with pytest.raises(ValidationError, match="K must be ≥ 1"):
        spectral.partition([0.5, 1.0], 0)


@pytest.mark.parametrize("K, named", [
    (True, "True of type bool"),  # a bool is an int to Python
    (np.True_, "np.True_ of type bool"),
    (2.0, "2.0 of type float"),
    (np.float64(2.0), "np.float64(2.0) of type float64"),
    ("2", "'2' of type str"),
    (None, "None of type NoneType"),
], ids=["bool", "numpy-bool", "float", "numpy-float", "str", "none"])
def test_partition_rejects_a_k_that_is_not_an_int_naming_its_type(K, named):
    with pytest.raises(ValidationError, match=rf"^K must be an int, got {re.escape(named)}$"):
        spectral.partition([0.5, 1.0], K)


@pytest.mark.parametrize("K", [2, np.int64(2), np.int32(2), np.uint8(2)],
                         ids=["int", "int64", "int32", "uint8"])
def test_partition_accepts_python_and_numpy_ints(K):
    part = spectral.partition([0.5, 1.0], K)
    assert part.K == 2
    assert [list(s) for s in part.index_sets] == [[0], [1]]


@pytest.mark.parametrize("d", [16, 64])
@pytest.mark.parametrize("K", [1, 2, 4, 8])
def test_partition_properties_on_random_weights(d, K):
    for seed in range(10):
        dec = spectral.decompose(random_weight(d, d, np.random.default_rng(seed)))
        energy = spectral.cumulative_energy(dec.sigma)
        with warnings.catch_warnings(record=True) as caught:
            # at d=16 the leading direction leaves I_1 empty for K=8
            warnings.simplefilter("always", spectral.EmptySubspaceWarning)
            part = spectral.partition(energy, K)
        assert len(caught) == (1 if part.empty_sets() else 0)
        covered = np.concatenate([s for s in part.index_sets])
        assert_array_equal(np.sort(covered), np.arange(d))
        for s in part.index_sets:
            if len(s) > 1:
                assert_array_equal(np.diff(s), 1)
        assert abs(part.shares.sum() - 1.0) <= 1e-12
        slack = dec.sigma[0] / dec.sigma.sum()
        for k, s in enumerate(part.index_sets):
            if len(s):
                assert abs(part.shares[k] - 1.0 / K) <= slack


# any float vector: NaN, +-inf, decreasing and out of range included, or
# a sorted draw from [0, 1] that ends at 1, so both outcomes are common
ANY_ENERGY = st.one_of(
    st.lists(st.floats(), min_size=1, max_size=40),
    st.lists(st.floats(0.0, 1.0), max_size=39).map(lambda e: sorted(e) + [1.0]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(E=ANY_ENERGY, k_pick=st.integers(1, 40))
def test_partition_of_any_vector_is_rejected_or_keeps_its_invariants(E, k_pick):
    K = min(k_pick, len(E))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spectral.EmptySubspaceWarning)
            part = spectral.partition(E, K)
    except ValidationError:
        return
    assert part.K == K
    assert_array_equal(np.concatenate(part.index_sets), np.arange(len(E)))
    for s in part.index_sets:
        assert_array_equal(np.diff(s), 1)
    assert np.all(part.shares >= 0.0)
    assert abs(part.shares.sum() - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40).filter(any),
       k_pick=st.integers(1, 40))
def test_partition_invariants_on_arbitrary_spectra(values, k_pick):
    # any non-increasing, non-negative, not all-zero spectrum, including
    # ties, trailing zeros and single dominant values
    sigma = np.array(sorted(values, reverse=True))
    K = min(k_pick, sigma.size)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part = spectral.partition(spectral.cumulative_energy(sigma), K)
    assert part.K == len(part.index_sets) == K
    assert_array_equal(np.concatenate(part.index_sets), np.arange(sigma.size))
    for s in part.index_sets:
        assert_array_equal(np.diff(s), 1)
    assert np.all(part.shares >= 0.0)
    assert abs(part.shares.sum() - 1.0) <= 1e-12
    empty_warnings = [w for w in caught if issubclass(w.category,
                                                      spectral.EmptySubspaceWarning)]
    assert len(empty_warnings) == (1 if part.empty_sets() else 0)
    for k in part.empty_sets():
        assert f"I_{k + 1}" in str(empty_warnings[0].message)


def test_modulation_tensor_diagonal_cases():
    dec = spectral.decompose(np.diag([3.0, 2.0, 1.0]))
    part = spectral.partition(spectral.cumulative_energy(dec.sigma), 2)
    assert_allclose(spectral.modulation_tensor(dec, part, 0), np.diag([3.0, 0.0, 0.0]), atol=1e-14)
    assert_allclose(spectral.modulation_tensor(dec, part, 1), np.diag([0.0, 2.0, 1.0]), atol=1e-14)


def test_modulation_tensors_sum_to_weight():
    for seed in range(5):
        for K in (1, 3, 8):
            w = random_weight(24, 24, np.random.default_rng(seed))
            dec = spectral.decompose(w)
            part = spectral.partition(spectral.cumulative_energy(dec.sigma), K)
            total = sum(spectral.modulation_tensor(dec, part, k) for k in range(K))
            assert np.linalg.norm(total - w) <= 1e-9 * np.linalg.norm(w)


def test_modulation_tensor_rank_matches_set_size():
    w = random_weight(16, 16, np.random.default_rng(0))
    dec = spectral.decompose(w)
    part = spectral.partition(spectral.cumulative_energy(dec.sigma), 4)
    for k in range(4):
        assert numerical_rank(spectral.modulation_tensor(dec, part, k)) == part.sizes[k]


def test_modulation_tensor_empty_set_is_zero():
    energy = spectral.cumulative_energy([100.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spectral.EmptySubspaceWarning)
        part = spectral.partition(energy, 3)
    dec = spectral.decompose(np.diag([100.0, 1.0, 1.0]))
    assert_array_equal(spectral.modulation_tensor(dec, part, 0), np.zeros((3, 3)))


def test_modulation_tensor_rejects_bad_subspace_index():
    dec = spectral.decompose(np.eye(3))
    part = spectral.partition(spectral.cumulative_energy(dec.sigma), 3)
    with pytest.raises(ValidationError, match="subspace index"):
        spectral.modulation_tensor(dec, part, 3)
