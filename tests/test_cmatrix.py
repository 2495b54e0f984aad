import numpy as np
import pytest

from hadcert import (
    DEFAULT_POLICY,
    NumericPolicy,
    fourier,
    numerical_rank,
)
from hadcert.cmatrix import as_mask, mask_from_indices, mask_indices


class TestPolicy:
    def test_defaults(self):
        p = NumericPolicy()
        assert p.tol_entry == 1e-9
        assert p.tol_unitary == 1e-9
        assert p.rank_rel_cut == 1e-8
        assert p.cert_gap_min == 1e4

    @pytest.mark.parametrize("kw", [
        {"tol_entry": 0.0},
        {"tol_unitary": -1.0},
        {"rank_rel_cut": 1.5},
        {"cert_gap_min": 0.0},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            NumericPolicy(**kw)

    @pytest.mark.parametrize("field, value", [
        ("tol_entry", "a"), ("rank_rel_cut", None), ("tol_unitary", 1j), ("cert_gap_min", True),
        ("tol_entry", 10**400),
    ])
    def test_rejects_non_reals_by_name(self, field, value):
        # one ValueError that names the field, not a TypeError from a comparison
        with pytest.raises(ValueError, match=field):
            NumericPolicy(**{field: value})

    def test_keeps_its_range_rules(self):
        with pytest.raises(ValueError, match="cert_gap_min"):
            NumericPolicy(cert_gap_min=np.nan)
        assert NumericPolicy(cert_gap_min=np.inf).cert_gap_min == np.inf
        assert NumericPolicy(tol_entry=np.float32(1e-6), cert_gap_min=10).cert_gap_min == 10


class TestMatmul:
    def test_fourier2_unitary(self):
        f2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(fourier(2) @ fourier(2).conj().T - np.eye(2))) < 1e-14
        assert np.max(np.abs(fourier(2) - f2)) < 1e-15


class TestAdjoint:
    def test_fourier3_entries(self):
        # conjugate of the construction formula, entry by entry
        eps = np.exp(2j * np.pi / 3)
        a = fourier(3).conj().T
        for i in range(3):
            for j in range(3):
                assert abs(a[i, j] - np.conj(eps ** (i * j)) / np.sqrt(3)) < 1e-15


class TestNumericalRank:
    def test_zero_matrix(self):
        rank, gap, sv = numerical_rank(np.zeros((4, 4)))
        assert rank == 0 and np.isinf(gap)

    def test_identity(self):
        rank, gap, sv = numerical_rank(np.eye(6))
        assert rank == 6 and np.isinf(gap)
        assert sv.shape == (6,)

    def test_rectangular(self, rng):
        a = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        rank, gap, _ = numerical_rank(a)
        assert rank == 3 and np.isinf(gap)

    def test_known_rank_with_gap(self, rng):
        u, _ = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        v, _ = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        s = np.array([3.0, 2.0, 1.0, 1e-13, 0, 0, 0])
        a = (u * s) @ v.conj().T
        rank, gap, _ = numerical_rank(a)
        assert rank == 3
        assert gap > 1e12

    def test_invariance_under_unitaries(self, rng):
        # certified-gap ranks survive multiplication by random unitaries
        u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        s = np.array([2.0, 1.0, 0.5, 0.2, 0, 0])
        a = u * s @ u.conj().T
        r0, gap, _ = numerical_rank(a)
        assert gap >= DEFAULT_POLICY.cert_gap_min
        for _ in range(5):
            w, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            v, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            assert numerical_rank(w @ a @ v)[0] == r0

    @pytest.mark.parametrize("a", [np.ones((2, 3, 3)), np.ones(3), np.float64(1.0), [[[1.0]]]],
                             ids=["stack", "1-D", "0-D", "nested-list"])
    def test_rejects_non_2d(self, a):
        # a stack would run a stacked SVD and fail on an ambiguous truth value
        with pytest.raises(ValueError, match=r"2-D matrix, got shape \("):
            numerical_rank(a)

    def test_nan_rejected(self):
        a = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            numerical_rank(a)

    @pytest.mark.parametrize("a", [np.full((3, 3), 1.7e308), np.full((3, 3), 1e308 + 0j)])
    def test_overflowing_singular_value_rejected(self, a):
        # finite entries, but sigma_max overflows to inf: no rank 0 with gap 0
        with pytest.raises(ValueError, match="singular values overflow"):
            numerical_rank(a)

    def test_real_input_stays_real(self, rng, monkeypatch):
        u, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        v, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        s = np.array([3.0, 2.0, 1.0, 1e-9, 1e-10, 1e-11, 1e-12])
        a = (u * s) @ v.T
        seen = []
        svd = np.linalg.svd

        def spy(m, **kwargs):
            seen.append(m.dtype)
            return svd(m, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rank, gap, sv = numerical_rank(a)
        crank, cgap, csv = numerical_rank(a.astype(np.complex128))
        assert seen == [np.float64, np.complex128]
        assert rank == crank == 3
        assert gap == pytest.approx(cgap, rel=1e-5)
        assert gap == pytest.approx(1e9, rel=1e-5)
        assert np.max(np.abs(sv - csv)) < 1e-14


@pytest.mark.parametrize("mask, n", [([[0, 1], [1, 0]], 4), ([[0], [1]], 2), (1, 1)],
                         ids=["2x2", "column", "scalar"])
def test_as_mask_needs_1d(mask, n):
    # it used to flatten: [[0, 1], [1, 0]] was the mask [0, 1, 1, 0]
    with pytest.raises(ValueError, match="mask must be 1-D"):
        as_mask(mask, n)


@pytest.mark.parametrize("mask", [[[0, 1]], np.ones((2, 2)), 1])
def test_mask_indices_needs_1d(mask):
    with pytest.raises(ValueError, match="mask must be 1-D"):
        mask_indices(mask)


def test_masks_accept_1d_sequences():
    assert as_mask((0, 1, 1), 3).tolist() == [0, 1, 1]
    assert mask_indices(np.array([1, 0, 1], dtype=np.int8)) == [0, 2]


@pytest.mark.parametrize("indices", ["ab", [1.5], None, 3, [True], {"a": 1}])
def test_mask_from_indices_rejects_non_integers(indices):
    with pytest.raises(ValueError):
        mask_from_indices(indices, 4)
