import json
import warnings

import numpy as np
import pytest

import brute
import memchild
from hadcert import (
    DEFAULT_POLICY,
    bjorck7,
    circulant,
    dephase,
    equivalent,
    fourier,
    petrescu,
    qr_circulant,
    verify_biunitary,
)
from hadcert.hadamard import BJORCK7_A, quadratic_residues

PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


def f4(a):
    """Member a of the affine family F4(a) of order-4 complex Hadamard
    matrices (Tadej and Zyczkowski's F_4^(1)(a))."""
    e = 1j * np.exp(1j * a)
    return np.array([[1, 1, 1, 1], [1, e, -1, -e], [1, -1, 1, -1], [1, -e, -1, e]]) / 2


class TestFourier:
    def test_order_one(self):
        assert np.array_equal(fourier(1), np.array([[1.0 + 0j]]))

    def test_order_two(self):
        want = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(fourier(2) - want)) < 1e-15

    def test_fourier2_unitary(self):
        f2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(fourier(2) @ fourier(2).conj().T - np.eye(2))) < 1e-14
        assert np.max(np.abs(fourier(2) - f2)) < 1e-15

    def test_fourier3_entries(self):
        # conjugate of the construction formula, entry by entry
        eps = np.exp(2j * np.pi / 3)
        a = fourier(3).conj().T
        for i in range(3):
            for j in range(3):
                assert abs(a[i, j] - np.conj(eps ** (i * j)) / np.sqrt(3)) < 1e-15

    def test_biunitary_through_32(self):
        for n in range(1, 33):
            assert verify_biunitary(fourier(n)).is_biunitary, n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fourier(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_order(self, n):
        with pytest.raises(ValueError, match="order must be an integer"):
            fourier(n)

    def test_numpy_integer_order(self):
        assert np.array_equal(fourier(np.int64(5)), fourier(5))

    def test_unallocatable_order_is_a_value_error(self):
        # its index vector alone would take 7.3 TiB: the allocation fails at
        # once, and the error names the order instead of escaping as MemoryError
        with pytest.raises(ValueError, match=f"order {10**12} is too large"):
            fourier(10**12)


class TestVerifyBiunitary:
    def test_identity_fails(self):
        # off-diagonal zeros deviate by 1, diagonal ones by sqrt(n) - 1
        for n in (2, 3, 5):
            v = verify_biunitary(np.eye(n))
            assert not v.is_biunitary
            assert v.max_modulus_deviation == pytest.approx(max(1.0, np.sqrt(n) - 1))

    def test_fourier5(self):
        assert verify_biunitary(fourier(5)).is_biunitary

    def test_petrescu_on_circle(self):
        lam = np.exp(1j * np.pi / 5)
        assert verify_biunitary(petrescu(lam)).is_biunitary

    def test_invariant_under_moves(self, rng):
        u = fourier(6)
        for _ in range(5):
            v = brute.random_equivalence_move(u, rng)[0]
            assert verify_biunitary(v).is_biunitary
        w = np.eye(6)
        for _ in range(3):
            v = brute.random_equivalence_move(w, rng)[0]
            assert not verify_biunitary(v).is_biunitary

    @pytest.mark.parametrize("scale", [1e308, 1e200])
    def test_overflow_is_an_error(self, scale):
        # U U* overflows to inf, then inf - inf is nan: no verdict on it,
        # and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="residuals overflow"):
                verify_biunitary(fourier(3) * scale)


class TestCirculant:
    def test_identity_row(self):
        assert np.array_equal(circulant([1, 0, 0]), np.eye(3, dtype=complex))

    def test_shift_row(self):
        s = circulant([0, 1, 0, 0])
        want = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            want[i, (i + 1) % 4] = 1.0
        assert np.array_equal(s, want)

    def test_first_row_round_trip(self, rng):
        row = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.array_equal(circulant(row)[0], row)

    @pytest.mark.parametrize("row", [[], [[1, 0], [0, 1]], 1.0], ids=["empty", "2-D", "scalar"])
    def test_rejects_row_shape(self, row):
        with pytest.raises(ValueError, match="non-empty and 1-D"):
            circulant(row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_row(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            circulant([bad, 1.0])


class TestBjorck7:
    def test_value_unimodular(self):
        assert abs(abs(BJORCK7_A) - 1.0) < 1e-15  # 9/16 + 7/16 = 1

    def test_biunitary(self):
        v = verify_biunitary(bjorck7())
        assert v.is_biunitary
        assert v.max_unitarity_residual < 1e-12

    def test_row_pattern(self):
        # ones exactly on {0} u QR(7) = {0,1,2,4}
        assert quadratic_residues(7) == [0, 1, 2, 4]
        row = bjorck7()[0] * np.sqrt(7)
        for i in range(7):
            want = 1.0 if i in (0, 1, 2, 4) else BJORCK7_A
            assert abs(row[i] - want) < 1e-15

    def test_row_for_row_circulant(self):
        u = bjorck7()
        a = BJORCK7_A
        second = np.array([a, 1, 1, 1, a, 1, a]) / np.sqrt(7)
        third = np.array([a, a, 1, 1, 1, a, 1]) / np.sqrt(7)
        assert np.max(np.abs(u[1] - second)) < 1e-15
        assert np.max(np.abs(u[2] - third)) < 1e-15
        assert abs(u[1, 0] - a / np.sqrt(7)) < 1e-15


class TestQrCirculant:
    def test_known_value_matches(self):
        assert np.max(np.abs(qr_circulant(7, BJORCK7_A) - bjorck7())) < 1e-15

    def test_solve_recovers_root(self):
        u = qr_circulant(7, "solve")
        a = u[0, 3] * np.sqrt(7)
        roots = (-0.75 + 1j * np.sqrt(7) / 4, -0.75 - 1j * np.sqrt(7) / 4)
        assert min(abs(a - r) for r in roots) < 1e-8
        assert verify_biunitary(u).is_biunitary

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            qr_circulant(4, "solve")

    @pytest.mark.parametrize("n", [7.0, True])
    def test_rejects_non_integer_order(self, n):
        with pytest.raises(ValueError, match="order must be an integer"):
            qr_circulant(n)

    @pytest.mark.parametrize("a", ["solve", 1j])
    def test_unallocatable_order_is_a_value_error(self, a):
        # 10^12 + 39 is prime; its first row alone would take 7.3 TiB or more
        n = 10**12 + 39
        with pytest.raises(ValueError, match=f"order {n} is too large"):
            qr_circulant(n, a)

    def test_no_solution_reported(self):
        # the residue pattern admits no unimodular completion at n = 13
        with pytest.raises(ValueError, match="no unimodular"):
            qr_circulant(13, "solve")

    def test_solve_is_bjorck7(self):
        # the closed form at n = 7 is Bjorck's circulant to the last bit:
        # first row (1, 1, 1, a, 1, a, a)/sqrt(7), a = -3/4 + i sqrt(7)/4
        a = complex(-0.75, np.sqrt(7) / 4)
        row = np.array([1, 1, 1, a, 1, a, a]) / np.sqrt(7)
        want = np.array([np.roll(row, i) for i in range(7)])
        assert qr_circulant(7).tobytes() == want.tobytes()
        assert bjorck7().tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [p for p in PRIMES if p % 4 == 3])
    def test_solve_matches_closed_form(self, p):
        # Gauss-sum value of Bjorck's construction for p = 3 (mod 4), the
        # root with Im a > 0 of the conjugate pair. A circulant's eigenvalues
        # are the DFT of its first row, so unimodular DFT moduli show that it
        # is unitary independently of how a was derived
        u = qr_circulant(p, "solve")
        j = next(j for j in range(p) if j not in quadratic_residues(p))
        a = u[0, j] * np.sqrt(p)
        assert abs(a - (1 - p + 2j * np.sqrt(p)) / (p + 1)) < 1e-14
        assert a.imag > 0
        assert np.max(np.abs(np.abs(np.fft.fft(u[0])) - 1.0)) < 1e-13

    @pytest.mark.parametrize("p", [p for p in PRIMES if p % 4 != 3])
    def test_no_solution_one_mod_four(self, p):
        # 2 and every prime p = 1 (mod 4)
        with pytest.raises(ValueError, match="no unimodular"):
            qr_circulant(p, "solve")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, cause", [
        (None, "a must be a complex number, got None"),
        ([1, 2], r"a must be a complex number, got \[1, 2\]"),
        (True, "a must be a complex number, got True"),
        (complex("inf"), "a must be finite"),
        (complex("nan"), "a must be finite"),
    ], ids=["None", "list", "True", "inf", "nan"])
    def test_names_a_bad_value(self, a, cause):
        # one ValueError that names a, before any numpy warning
        with pytest.raises(ValueError, match=cause):
            qr_circulant(7, a)


# Runs one call in a child whose address space is capped at 3 GB, and reports
# its outcome, the time the call took and the child's own peak RSS as JSON.
REFUSAL_CHILD = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from memchild import status_kib
from hadcert import fourier, qr_circulant
from hadcert.cli import main
out = io.StringIO()
start = time.perf_counter()
try:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        outcome = eval(sys.argv[1])
except ValueError as exc:
    outcome = str(exc)
seconds = time.perf_counter() - start
outcome = outcome if isinstance(outcome, (int, str)) else type(outcome).__name__
print(json.dumps({"outcome": outcome, "stdout": out.getvalue(), "seconds": seconds,
                  "maxrss_mb": status_kib("VmHWM") / 1024}))
"""


@pytest.mark.skipif(not memchild.HAS_STATUS, reason="needs /proc/self/status")
@pytest.mark.parametrize("call, outcome", [
    ("fourier(10**8)", "order 100000000 is too large"),
    ("fourier(10**12)", "order 1000000000000 is too large"),
    ("qr_circulant(10**7 + 19)", "order 10000019 is too large"),
    ("qr_circulant(10**8 + 7)", "order 100000007 is too large"),
    ("qr_circulant(10**14 + 31)", "order 100000000000031 is too large"),
    ("main(['gen', 'fourier', '--n', '100000000'])", 2),
    ("main(['gen', 'qr-circulant', '--n', '10000019'])", 2),
], ids=["fourier-1e8", "fourier-1e12", "qr-1e7+19", "qr-1e8+7", "qr-1e14+31", "gen-fourier-1e8",
        "gen-qr-1e7+19"])
def test_unbuildable_order_is_refused_before_any_work(call, outcome):
    # the n x n result is allocated first, and fails at once at these orders:
    # nothing of size n is built before it, and no primality test runs (trial
    # division takes about a second at 10^14 + 31, a prime = 3 mod 4)
    report = json.loads(memchild.run(REFUSAL_CHILD, call))
    if isinstance(outcome, str):
        assert outcome in report["outcome"]
    else:
        assert (report["outcome"], report["stdout"]) == (outcome, "")
    assert report["seconds"] < 0.1
    assert report["maxrss_mb"] < 100


class TestPetrescu:
    def test_lambda_one_entries(self):
        u = petrescu(1.0)
        w = np.exp(2j * np.pi / 6)
        assert abs(u[0, 1] - w ** 4 / np.sqrt(7)) < 1e-15
        assert abs(u[0, 0] - w / np.sqrt(7)) < 1e-15

    def test_lambda_blocks(self):
        lam = np.exp(0.9j)
        u = petrescu(lam)
        w = np.exp(2j * np.pi / 6)
        assert abs(u[0, 0] - lam * w / np.sqrt(7)) < 1e-15
        assert abs(u[2, 2] - np.conj(lam) * w / np.sqrt(7)) < 1e-15

    def test_last_row_flat(self):
        for ang in (0.0, 1.1, 4.0):
            u = petrescu(np.exp(1j * ang))
            assert np.max(np.abs(u[6, :] - 1 / np.sqrt(7))) < 1e-15
            assert np.max(np.abs(u[:, 6] - 1 / np.sqrt(7))) < 1e-15

    def test_biunitary_generic_lambda(self):
        assert verify_biunitary(petrescu(np.exp(2.1j))).is_biunitary

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            petrescu(1.1)

    def test_rejects_nan(self):
        for lam in (complex("nan+0j"), np.exp(1j * np.nan)):
            with pytest.raises(ValueError, match="not 1"):
                petrescu(lam)

    @pytest.mark.parametrize("lam", [None, True, "1", [1.0]], ids=["None", "True", "str-1", "list"])
    def test_names_a_bad_lambda(self, lam):
        # "1" and True used to be accepted through complex()
        with pytest.raises(ValueError, match="lambda must be a complex number, got "):
            petrescu(lam)


class TestDephase:
    def test_fourier_fixed_point(self):
        for n in (2, 3, 7):
            assert np.max(np.abs(dephase(fourier(n)) - fourier(n))) < 1e-14

    def test_global_phase_removed(self):
        u = np.exp(0.37j) * fourier(3)
        assert np.max(np.abs(dephase(u) - fourier(3))) < 1e-14

    def test_idempotent(self, rng):
        u = brute.random_equivalence_move(fourier(5), rng)[0]
        once = dephase(u)
        assert np.max(np.abs(dephase(once) - once)) < 1e-14

    def test_first_line_flat_and_moduli_kept(self, rng):
        for n in (4, 6, 7):
            u = brute.random_equivalence_move(fourier(n), rng)[0]
            v = dephase(u)
            assert np.max(np.abs(v[0, :] - 1 / np.sqrt(n))) < 1e-13
            assert np.max(np.abs(v[:, 0] - 1 / np.sqrt(n))) < 1e-13
            assert np.max(np.abs(np.abs(v) - np.abs(u))) < 1e-13

    def test_rejects_non_biunitary(self):
        with pytest.raises(ValueError):
            dephase(np.eye(4))


class TestEquivalent:
    def test_reflexive(self):
        for u in (fourier(4), petrescu(1.0)):
            assert equivalent(u, u)

    def test_recovers_random_moves(self, rng):
        u = fourier(7)
        for _ in range(3):
            assert equivalent(u, brute.random_equivalence_move(u, rng)[0])

    def test_symmetric_on_samples(self, rng):
        u = fourier(5)
        v = brute.random_equivalence_move(u, rng)[0]
        assert equivalent(u, v) and equivalent(v, u)
        x = fourier(5) * np.exp(0.2j)
        assert equivalent(u, x) and equivalent(x, u)

    def test_fourier7_vs_petrescu_negative(self):
        assert not equivalent(fourier(7), petrescu(1.0))
        # independent full-enumeration confirmation
        assert not brute.brute_equivalent(fourier(7), petrescu(1.0))

    def test_agrees_with_brute_oracle(self, rng):
        cases = [
            (fourier(5), brute.random_equivalence_move(fourier(5), rng)[0]),
            (fourier(3), np.conj(fourier(3))),
            (fourier(4), np.kron(fourier(2), fourier(2))),
            (fourier(4), brute.random_equivalence_move(np.kron(fourier(2), fourier(2)), rng)[0]),
            (f4(0.3), f4(0.3).T),
            (f4(0.3), np.conj(f4(0.3))),
            (f4(0.3), brute.random_equivalence_move(f4(0.3).T, rng)[0]),
            (f4(0.3), brute.random_equivalence_move(f4(0.3), rng)[0]),
            (f4(0.3), f4(-0.3)),
            (f4(0.3), f4(1.1)),
            # passes the quadruple-product filter, so the search decides it
            (f4(0.3), f4(0.3 + 3e-9)),
        ]
        for a, b in cases:
            assert equivalent(a, b) == brute.brute_equivalent(a, b)

    def test_entries_on_a_rounding_boundary(self, rng):
        # some dephased entries of this member lie half-way between multiples
        # of 1e-7, where copies equal to 1e-16 round apart
        u = petrescu(np.exp(1.094396372590179j))
        for _ in range(20):
            assert equivalent(u, brute.random_equivalence_move(u, rng)[0])

    def test_petrescu_family_members_inequivalent(self):
        assert not equivalent(petrescu(1.0), petrescu(np.exp(0.5j)))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="exhaustive cap 8"):
            equivalent(fourier(9), fourier(9))

    def test_different_orders(self):
        assert not equivalent(fourier(3), fourier(4))

    def test_overflow_is_an_error(self):
        # the quadruple invariants overflow to nan: no warning, and the
        # biunitarity gate names the overflow
        u = 1e300 * np.eye(3)
        with pytest.raises(ValueError, match="residuals overflow"):
            equivalent(u, u)
