import numpy as np
import pytest

from hadcert import (
    DEFAULT_POLICY,
    NumericPolicy,
    fourier,
    numerical_rank,
    projection_matrix,
)
from hadcert.cmatrix import mask_from_indices


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


class TestTrace:
    def test_projection(self):
        p = projection_matrix(mask_from_indices([0], 4))
        assert np.trace(p) / 4 == pytest.approx(0.25)


class TestCommutator:
    def test_diagonals_commute(self):
        d1 = projection_matrix(mask_from_indices([0, 2], 4))
        d2 = projection_matrix(mask_from_indices([1, 2], 4))
        assert np.max(np.abs(d1 @ d2 - d2 @ d1)) == 0.0


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

    def test_nan_rejected(self):
        a = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
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


@pytest.mark.parametrize("indices", ["ab", [1.5], None, 3, [True], {"a": 1}])
def test_mask_from_indices_rejects_non_integers(indices):
    with pytest.raises(ValueError):
        mask_from_indices(indices, 4)
