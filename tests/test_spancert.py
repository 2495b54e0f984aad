import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import brute
from hadcert import (
    DEFAULT_POLICY,
    INCONCLUSIVE,
    ISOLATED,
    SPAN_FAILS,
    NumericPolicy,
    bjorck7,
    certify_isolation,
    fourier,
    numerical_rank,
    petrescu,
    reduced_minor,
    span_matrix,
)
from hadcert import cmatrix, spancert
from hadcert.spancert import _real_span_matrix

# Span ranks of the order-n Fourier matrix, frozen from the gcd-sum kernel
# count (see brute.gcd_sum_rank) and confirmed in exact integer arithmetic
# (brute.exact_fourier_span_rank) for n = 2, 3, 4, 5, 6 and 8 below.
FOURIER_RANKS = {2: 1, 3: 4, 4: 8, 5: 16, 6: 21, 7: 36, 8: 44, 9: 60,
                 10: 73, 11: 100, 12: 104, 13: 144, 14: 157, 15: 180,
                 16: 208, 17: 256, 18: 261, 19: 324, 20: 328, 21: 376,
                 22: 421, 23: 484, 24: 476, 25: 560, 26: 601, 27: 648,
                 28: 680, 29: 784, 30: 765, 31: 900, 32: 912}
PETRESCU_RANK = 33


class TestSpanMatrix:
    def test_shape(self):
        assert span_matrix(fourier(3)).shape == (9, 9)

    def test_overflow_is_an_error(self):
        # conj(u_jk) u_jl overflows: one ValueError, no numpy warning
        with pytest.raises(ValueError, match="span matrix overflows"):
            span_matrix(1e200 * np.eye(3))

    def test_diagonal_columns_vanish_exactly(self):
        for u in (fourier(5), bjorck7()):
            n = u.shape[0]
            a = span_matrix(u)
            for k in range(n):
                assert np.max(np.abs(a[:, k * n + k])) == 0.0

    def test_row_sums_vanish(self):
        # sum over i of the rows (i, j) is the commutator with the identity
        u = fourier(6)
        n = 6
        a = span_matrix(u)
        for j in range(n):
            block = sum(a[i * n + j] for i in range(n))
            assert np.max(np.abs(block)) < 1e-14
        for i in range(n):
            block = sum(a[i * n + j] for j in range(n))
            assert np.max(np.abs(block)) < 1e-14

    def test_entry_formula(self, rng):
        # direct loop evaluation of the defining formula
        u = brute.random_biunitary(4, rng)
        a = span_matrix(u)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    for l in range(4):
                        want = ((i == k) - (i == l)) * np.conj(u[j, k]) * u[j, l]
                        assert abs(a[i * 4 + j, k * 4 + l] - want) < 1e-15

    def test_bjorck_rank_36(self):
        rank, gap, _ = numerical_rank(span_matrix(bjorck7()))
        assert rank == 36
        assert gap > 1e10


class TestRealForm:
    """certify_isolation takes the rank from a real matrix R = A W, W unitary;
    its spectrum must be that of the complex span matrix A."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(11)
        yield "F1", fourier(1)
        for n in (2, 7, 16, 24):
            yield f"F{n}", fourier(n)
        yield "bjorck7", bjorck7()
        yield "petrescu(1)", petrescu(1.0)
        yield "petrescu(generic)", petrescu(np.exp(0.7j))
        yield "F2xF4", np.kron(fourier(2), fourier(4))
        for n in range(5, 10):
            yield f"random{n}", brute.random_biunitary(n, rng)

    def test_spectrum_matches_complex_svd(self):
        for label, u in self.inputs():
            a = span_matrix(u)
            want = np.linalg.svd(a, compute_uv=False)
            cert = certify_isolation(u)
            diff = np.max(np.abs(cert.singular_values - want))
            assert diff <= 1e-12 * want[0], label
            assert cert.rank == numerical_rank(a)[0], label

    def test_entry_formula(self, rng):
        u = brute.random_biunitary(4, rng)
        r = _real_span_matrix(u)
        assert r.dtype == np.float64
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    for l in range(4):
                        z = ((i == k) - (i == l)) * np.conj(u[j, k]) * u[j, l]
                        want = np.sqrt(2) * (z.real if k < l else z.imag)
                        assert abs(r[i * 4 + j, k * 4 + l] - want) < 1e-15
                        if k == l:
                            assert r[i * 4 + j, k * 4 + l] == 0.0


def _numpy_exports_dgesdd():
    """Whether the LAPACK that numpy loaded exports a 64-bit-integer dgesdd."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    return any(hasattr(lib, name) for name in ("scipy_dgesdd_64_", "dgesdd_64_"))


class TestInPlaceSVD:
    """certify_isolation runs dgesdd on R itself rather than on numpy's copy
    of it; the singular values must be numpy's to the byte."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(31)
        for n in range(2, 25):
            yield f"F{n}", fourier(n)
            if n <= 16:
                yield f"F{n} scrambled", brute.random_equivalence_move(fourier(n), rng)
        yield "bjorck7", bjorck7()
        yield "petrescu(1)", petrescu(1.0)
        yield "petrescu(e^0.3i)", petrescu(np.exp(0.3j))
        yield "F2xF4", np.kron(fourier(2), fourier(4))
        yield "F3xF3", np.kron(fourier(3), fourier(3))
        yield "F32", fourier(32)

    def test_binding_active_when_exported(self):
        assert (cmatrix._DGESDD is not None) == _numpy_exports_dgesdd()

    def test_singular_values_are_numpys_bytes(self):
        for label, u in self.corpus():
            r = _real_span_matrix(u)
            assert r.flags.f_contiguous, label
            want = np.linalg.svd(r, compute_uv=False)
            assert cmatrix._singular_values_inplace(r).tobytes() == want.tobytes(), label

    def test_certify_takes_no_copy(self, monkeypatch):
        if cmatrix._DGESDD is None:
            pytest.skip("numpy's LAPACK exports no 64-bit-integer dgesdd")

        def copying_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", copying_svd)
        assert certify_isolation(fourier(7)).rank == 36

    def test_fallback_gives_the_same_certificate(self, monkeypatch):
        inputs = [fourier(2), fourier(7), fourier(12), bjorck7(), petrescu(1.0),
                  np.kron(fourier(3), fourier(3))]
        want = [certify_isolation(u) for u in inputs]
        monkeypatch.setattr(cmatrix, "_DGESDD", None)
        for u, c in zip(inputs, want):
            got = certify_isolation(u)
            assert got.to_json_dict() == c.to_json_dict()
            assert got.singular_values.tobytes() == c.singular_values.tobytes()

    def test_numerical_rank_leaves_its_input(self):
        r = _real_span_matrix(fourier(6))
        kept = r.copy(order="A")
        numerical_rank(r)
        assert r.tobytes(order="A") == kept.tobytes(order="A")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_certify_holds_one_span_matrix(self):
        # the peak of certify on F48 is its one 8 n^4 byte span matrix plus
        # LAPACK workspace; a copy of the matrix would add 42 MB more. The
        # child reads VmHWM, its own peak since exec: ru_maxrss would start
        # from the peak of this test process, which a vforked child inherits
        code = (
            "import hadcert\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))\n"
            "u = hadcert.fourier(48)\n"
            "hadcert.certify_isolation(hadcert.fourier(4))\n"
            "before = peak_kib()\n"
            "hadcert.certify_isolation(u)\n"
            "print(peak_kib() - before)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        growth = int(proc.stdout) * 1024
        assert growth <= 8 * 48 ** 4 + 24e6


class TestReducedMinor:
    def test_sizes(self):
        assert reduced_minor(span_matrix(fourier(7))).shape == (36, 36)
        assert reduced_minor(span_matrix(fourier(2))).shape == (1, 1)

    def test_bjorck_determinant_nonzero(self):
        m = reduced_minor(span_matrix(bjorck7()))
        _, logdet = np.linalg.slogdet(m)
        assert np.isfinite(logdet)
        rank, gap, _ = numerical_rank(m)
        assert rank == 36

    def test_route_consistency_small_orders(self):
        # rank(A) attains the bound iff the reduced minor is nonsingular
        for n in range(2, 8):
            a = span_matrix(fourier(n))
            rank_full = numerical_rank(a)[0]
            m = reduced_minor(a)
            rank_minor = numerical_rank(m)[0]
            attained = rank_full == (n - 1) ** 2
            assert (rank_minor == (n - 1) ** 2) == attained, n
        a = span_matrix(bjorck7())
        assert numerical_rank(reduced_minor(a))[0] == 36

    def test_rejects_non_square_grid(self):
        with pytest.raises(ValueError):
            reduced_minor(np.zeros((5, 5)))


class TestCertify:
    def test_fourier7_isolated(self):
        cert = certify_isolation(fourier(7))
        assert cert.rank == 36
        assert cert.expected == 36
        assert cert.verdict == ISOLATED
        assert cert.gap >= 1e4
        assert cert.singular_values.shape == (49,)

    def test_fourier4_span_fails(self):
        cert = certify_isolation(fourier(4))
        assert cert.rank == FOURIER_RANKS[4]
        assert cert.rank < cert.expected
        assert cert.verdict == SPAN_FAILS

    def test_petrescu_span_fails(self):
        cert = certify_isolation(petrescu(1.0))
        assert cert.verdict == SPAN_FAILS
        assert cert.rank == PETRESCU_RANK

    def test_frozen_ranks(self):
        for n, rank in FOURIER_RANKS.items():
            cert = certify_isolation(fourier(n))
            assert cert.rank == rank == brute.gcd_sum_rank(n), n
            assert cert.gap >= DEFAULT_POLICY.cert_gap_min, n

    @pytest.mark.parametrize("n, rank", [(42, 1569), (47, 2116), (48, 2064)])
    def test_frozen_ranks_large(self, n, rank):
        # the largest orders tracked, and n = 42, the smallest gap in 33..46
        # (1.3e13); all still clear cert_gap_min
        cert = certify_isolation(fourier(n))
        assert cert.rank == rank == brute.gcd_sum_rank(n)
        assert cert.gap >= DEFAULT_POLICY.cert_gap_min

    def test_order_cap(self, monkeypatch):
        # checked before the n^4 span matrix is built; F48 stays under the cap
        assert spancert.CERTIFY_CAP >= 48
        monkeypatch.setattr(spancert, "CERTIFY_CAP", 5)
        assert certify_isolation(fourier(5)).verdict == ISOLATED
        with pytest.raises(ValueError, match="order 6 exceeds the certify cap 5"):
            certify_isolation(fourier(6))

    def test_rejects_non_biunitary(self):
        with pytest.raises(ValueError):
            certify_isolation(np.eye(5))

    def test_absurd_policy_not_isolated(self):
        policy = NumericPolicy(rank_rel_cut=0.5)
        cert = certify_isolation(fourier(7), policy)
        assert cert.verdict in (INCONCLUSIVE, SPAN_FAILS)

    def test_rank_bound_random_biunitaries(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 10))
            u = brute.random_biunitary(n, rng)
            cert = certify_isolation(u)
            assert cert.rank <= cert.expected

    def test_rank_equivalence_invariance(self, rng):
        u = fourier(7)
        r0 = certify_isolation(u).rank
        for _ in range(5):
            v = brute.random_equivalence_move(u, rng)
            assert certify_isolation(v).rank == r0

    def test_json_key_order(self):
        doc = certify_isolation(fourier(3)).to_json_dict()
        assert list(doc.keys()) == [
            "n", "rank", "expected", "verdict", "gap", "singular_values", "policy",
        ]
        json.dumps(doc)  # serializable


class TestKernelDimension:
    """n^2 - rank: the kernel of (c_kl) -> sum c_kl [D_k, U* D_l U]."""

    def test_primes(self):
        for p in (3, 5, 7):
            assert p * p - certify_isolation(fourier(p)).rank == 2 * p - 1

    def test_composite(self):
        assert 16 - certify_isolation(fourier(4)).rank == 16 - FOURIER_RANKS[4]

    def test_order_one(self):
        assert 1 - certify_isolation(fourier(1)).rank == 1


class TestExactRankOracle:
    """The measured SVD ranks cross-checked in exact arithmetic, on both sides
    of the primality dichotomy: n = 2, 3 and 5 prime, n = 4, 6 and 8 not."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_fourier_exact(self, n):
        rank = brute.exact_fourier_span_rank(n)
        assert rank == FOURIER_RANKS[n] == brute.gcd_sum_rank(n)
        assert certify_isolation(fourier(n)).rank == rank
