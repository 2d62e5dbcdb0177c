import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poromor.pod import PodBasis, ipod_update, truncation_rank


def feed_columns(matrix, eps=1.0, bunch=1):
    basis = PodBasis.empty(matrix.shape[0], eps)
    for start in range(0, matrix.shape[1], bunch):
        basis = ipod_update(basis, matrix[:, start:start + bunch])
    return basis


def principal_angles(A, B):
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def test_truncation_rank_examples():
    assert truncation_rank([3.0, 2.0, 1.0], 14.0, 0.9) == 2
    assert truncation_rank([3.0, 2.0, 1.0], 14.0, 0.0) == 1
    assert truncation_rank([3.0, 2.0, 1.0], 14.0, 1.0) == 3
    # energy was discarded earlier: full sum cannot reach eps -> full rank
    assert truncation_rank([3.0, 2.0], 14.0, 1.0) == 2


def test_first_snapshot_normalized():
    v = np.array([3.0, 4.0])
    basis = ipod_update(PodBasis.empty(2, 1.0), v)
    assert basis.rank == 1
    np.testing.assert_allclose(np.abs(basis.modes[:, 0]), np.abs(v) / 5.0)
    assert basis.singular_values[0] == pytest.approx(5.0)
    assert basis.total_energy == pytest.approx(25.0)


@pytest.mark.parametrize("seed", range(50), ids=lambda seed: f"seed{seed}")
def test_snapshot_in_span_keeps_rank(seed):
    # a snapshot already in the span must not add a rounding-level mode
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((30, 3))
    basis = feed_columns(cols, eps=1.0)
    rank = basis.rank
    version = basis.version
    coeffs = [0.5, -1.0, 2.0] if seed == 0 else rng.standard_normal(3)
    repeat = cols @ coeffs
    updated = ipod_update(basis, repeat)
    assert updated.rank == rank
    assert updated.version == version + 1
    assert updated.total_energy == pytest.approx(
        basis.total_energy + repeat @ repeat)


def test_equal_columns_give_rank_one():
    v = np.random.default_rng(5).standard_normal(12)
    basis = ipod_update(PodBasis.empty(12, 1.0), np.column_stack([v, v]))
    assert basis.rank == 1
    assert basis.singular_values[0] == pytest.approx(np.sqrt(2 * v @ v))


def test_bunch_wider_than_free_space():
    rng = np.random.default_rng(11)
    basis = ipod_update(PodBasis.empty(4, 1.0), rng.standard_normal(4))
    basis = ipod_update(basis, rng.standard_normal((4, 5)))
    assert basis.rank <= 4
    assert basis.orthonormality_defect() <= 1e-10


def test_zero_snapshot_skipped(caplog):
    basis = ipod_update(PodBasis.empty(4, 1.0), np.zeros(4))
    assert basis.rank == 0
    assert basis.total_energy == 0.0
    assert "skipping 1 zero-norm snapshot column(s)" in caplog.text
    # later nonzero column still works
    basis = ipod_update(basis, np.ones(4))
    assert basis.rank == 1


@pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "overflow"])
def test_non_finite_snapshot_energy_raises(bad):
    # a nan column has nan energy, which the zero-norm test (energy > 0)
    # would skip; a 1e200 column's energy overflows to inf
    basis = ipod_update(PodBasis.empty(4, 1.0), np.ones(4))
    bunch = np.ones((4, 2))
    bunch[1, 1] = bad
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            ipod_update(basis, bunch)
    # a zero column beside it is still skipped
    bunch[:, 1] = 0.0
    assert ipod_update(basis, bunch).total_energy == 8.0


def test_column_by_column_matches_batch_svd():
    rng = np.random.default_rng(42)
    Y = rng.standard_normal((100, 30))
    basis = feed_columns(Y, eps=1.0)
    sigs_batch = np.linalg.svd(Y, compute_uv=False)
    assert basis.rank == 30
    np.testing.assert_allclose(basis.singular_values, sigs_batch, rtol=1e-8)
    modes_batch = np.linalg.svd(Y, full_matrices=False)[0]
    assert principal_angles(basis.modes, modes_batch).max() < 1e-6


def test_orthonormality_after_every_update():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((60, 40))
    basis = PodBasis.empty(60, 1.0)
    for j in range(Y.shape[1]):
        basis = ipod_update(basis, Y[:, j])
        assert basis.orthonormality_defect() <= 1e-10


def test_bunch_update_matches_batch():
    rng = np.random.default_rng(9)
    Y = rng.standard_normal((80, 24))
    basis = feed_columns(Y, eps=1.0, bunch=5)
    sigs = np.linalg.svd(Y, compute_uv=False)
    np.testing.assert_allclose(basis.singular_values, sigs, rtol=1e-8)


def test_truncation_drops_noise_modes():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(50)
    # one dominant direction plus tiny noise
    cols = np.outer(u, rng.standard_normal(10))
    cols += 1e-9 * rng.standard_normal(cols.shape)
    basis = feed_columns(cols, eps=1.0 - 1e-7)
    assert basis.rank == 1
    assert np.sum(basis.singular_values**2) <= basis.total_energy * (1 + 1e-12)


def test_monotone_energy_and_rank():
    rng = np.random.default_rng(8)
    basis = PodBasis.empty(40, 1.0 - 1e-9)
    prev_energy = 0.0
    prev_rank = 0
    for _ in range(15):
        basis = ipod_update(basis, rng.standard_normal(40))
        assert basis.total_energy > prev_energy
        assert basis.rank >= prev_rank
        prev_energy = basis.total_energy
        prev_rank = basis.rank


def test_dimension_mismatch():
    basis = PodBasis.empty(5, 1.0)
    with pytest.raises(ValueError):
        ipod_update(basis, np.ones(4))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_ipod_batch_equivalence_property(n_rows_extra, n_cols, seed):
    rng = np.random.default_rng(seed)
    n = n_cols + n_rows_extra
    Y = rng.standard_normal((n, n_cols))
    basis = feed_columns(Y, eps=1.0)
    sigs = np.linalg.svd(Y, compute_uv=False)
    np.testing.assert_allclose(basis.singular_values, sigs,
                               rtol=1e-8, atol=1e-10 * sigs[0])
    assert basis.total_energy == pytest.approx(np.sum(Y * Y), rel=1e-12)
    assert basis.orthonormality_defect() <= 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ipod_column_order_invariance(seed):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((20, 8))
    order = rng.permutation(8)
    a = feed_columns(Y, eps=1.0)
    b = feed_columns(Y[:, order], eps=1.0)
    np.testing.assert_allclose(a.singular_values, b.singular_values, rtol=1e-8)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_ipod_bunch_size_invariance(seed, bunch):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((25, 12))
    a = feed_columns(Y, eps=1.0, bunch=1)
    b = feed_columns(Y, eps=1.0, bunch=bunch)
    np.testing.assert_allclose(np.sort(a.singular_values),
                               np.sort(b.singular_values), rtol=1e-8)
    assert principal_angles(a.modes, b.modes).max() < 1e-6
