import ctypes
import itertools
import json
import re

import numpy as np
import pytest

import brute
import corpus
import memchild
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

    LABELS = ["F1", "F2", "F7", "F16", "F24", "bjorck7", "petrescu1", "petrescu0.7i", "F2xF4",
              *(f"random{n}" for n in range(5, 10))]

    def test_spectrum_matches_complex_svd(self):
        for label in self.LABELS:
            u = corpus.get(label)
            a = span_matrix(u)
            want = np.linalg.svd(a, compute_uv=False)
            cert = certify_isolation(u)
            diff = np.max(np.abs(cert.singular_values - want))
            assert diff <= 1e-12 * want[0], label
            assert cert.rank == numerical_rank(a)[0], label

    @staticmethod
    def check_entries(u, r):
        n = u.shape[0]
        assert r.dtype == np.float64
        for i, j, k, l in itertools.product(range(n), repeat=4):
            z = ((i == k) - (i == l)) * np.conj(u[j, k]) * u[j, l]
            want = np.sqrt(2) * (z.real if k < l else z.imag)
            assert abs(r[i * n + j, k * n + l] - want) < 1e-15
            if k == l:
                assert r[i * n + j, k * n + l] == 0.0

    def test_entry_formula(self, rng):
        u = brute.random_biunitary(4, rng)
        self.check_entries(u, _real_span_matrix(u))

    def test_entry_formula_own_pages(self, rng):
        # from n = 12 up R is built in a mapping of its own, not by np.empty
        u = brute.random_biunitary(12, rng)
        r = _real_span_matrix(u)
        assert r.nbytes >= spancert._OWN_PAGES_MIN
        assert r.flags.f_contiguous and r.flags.writeable
        self.check_entries(u, r)


def _numpy_exports_dgesdd():
    """Whether the LAPACK that numpy loaded exports a 64-bit-integer dgesdd."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    return any(hasattr(lib, name) for name in ("scipy_dgesdd_64_", "dgesdd_64_"))


class TestInPlaceSVD:
    """certify_isolation runs dgesdd on R itself rather than on numpy's copy
    of it; the singular values must be numpy's to the byte."""

    LABELS = [*(f"F{n}" for n in range(2, 25)), *(f"F{n}s" for n in range(2, 17)),
              "bjorck7", "petrescu1", "petrescu0.3i", "F2xF4", "F3xF3", "F32"]

    def test_binding_active_when_exported(self):
        assert (cmatrix._DGESDD is not None) == _numpy_exports_dgesdd()

    def test_singular_values_are_numpys_bytes(self):
        for label in self.LABELS:
            r = _real_span_matrix(corpus.get(label))
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
        inputs = list(map(corpus.get, ["F2", "F7", "F12", "bjorck7", "petrescu1", "F3xF3"]))
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

    @pytest.mark.skipif(not memchild.HAS_STATUS, reason="needs /proc/self/status")
    def test_certify_holds_one_span_matrix(self):
        # the peak of certify on F48 is its one 8 n^4 byte span matrix plus
        # LAPACK workspace; a copy of the matrix would add 42 MB more
        code = (
            "import hadcert\n"
            "from memchild import status_kib\n"
            "u = hadcert.fourier(48)\n"
            "hadcert.certify_isolation(hadcert.fourier(4))\n"
            "before = status_kib('VmHWM')\n"
            "hadcert.certify_isolation(u)\n"
            "print(status_kib('VmHWM') - before)\n"
        )
        growth = int(memchild.run(code)) * 1024
        assert growth <= 8 * 48 ** 4 + 24e6

    @pytest.mark.skipif(not memchild.HAS_STATUS, reason="needs /proc/self/status")
    def test_certify_leaves_no_span_matrix_resident(self):
        # F32's 8 MB span matrix has pages of its own, unmapped when certify
        # returns. From the heap it would stay resident from the second call
        # on: glibc raises its mmap threshold to the size of each mapped
        # block it frees, and trims only past twice that threshold
        code = (
            "import hadcert\n"
            "from memchild import status_kib\n"
            "hadcert.certify_isolation(hadcert.fourier(4))\n"
            "before = status_kib('VmRSS')\n"
            "for _ in range(2):\n"
            "    hadcert.certify_isolation(hadcert.fourier(32))\n"
            "print(status_kib('VmRSS') - before)\n"
        )
        growth = int(memchild.run(code)) * 1024
        assert growth < 8 * 32 ** 4 / 2


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
        assert cert.rank == corpus.FACTS["F4"].rank
        assert cert.rank < cert.expected
        assert cert.verdict == SPAN_FAILS

    def test_petrescu_span_fails(self):
        cert = certify_isolation(petrescu(1.0))
        assert cert.verdict == SPAN_FAILS
        assert cert.rank == corpus.FACTS["petrescu1"].rank

    def test_frozen_ranks(self):
        # the corpus ranks of F_n and its scrambles, which
        # test_finder_output_is_frozen certifies, are the gcd-sum kernel count's
        rows = [(int(m[1]), f.rank) for label, f in corpus.FACTS.items()
                if (m := re.fullmatch(r"F(\d+)s?", label))]
        assert len(rows) == 31 + 13
        for n, rank in rows:
            assert rank == brute.gcd_sum_rank(n), n

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
            v = brute.random_equivalence_move(u, rng)[0]
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
        assert 16 - certify_isolation(fourier(4)).rank == 16 - corpus.FACTS["F4"].rank

    def test_order_one(self):
        assert 1 - certify_isolation(fourier(1)).rank == 1


class TestExactRankOracle:
    """The measured SVD ranks cross-checked in exact arithmetic, on both sides
    of the primality dichotomy: n = 2, 3 and 5 prime, n = 4, 6 and 8 not."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_fourier_exact(self, n):
        rank = brute.exact_fourier_span_rank(n)
        assert rank == corpus.FACTS[f"F{n}"].rank == brute.gcd_sum_rank(n)
        assert certify_isolation(fourier(n)).rank == rank
