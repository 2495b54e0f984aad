"""Construction, verification and comparison of biunitary (complex Hadamard)
matrices.

A biunitary of order n is a unitary matrix whose entries all have modulus
1/sqrt(n). Built-in constructors: the Fourier matrix, circulants (including
the quadratic-residue circulant of Bjorck type at n=7) and Petrescu's 7x7
one-parameter family.
"""

from dataclasses import dataclass

import numpy as np

from .cmatrix import DEFAULT_POLICY, _number, as_matrix

__all__ = [
    "BiunitaryVerdict",
    "fourier",
    "verify_biunitary",
    "circulant",
    "bjorck7",
    "qr_circulant",
    "petrescu",
    "dephase",
    "equivalent",
    "EQUIVALENT_CAP",
]

# equivalent backtracks over row and column matchings, exponential in n
EQUIVALENT_CAP = 8

@dataclass(frozen=True)
class BiunitaryVerdict:
    is_biunitary: bool
    max_modulus_deviation: float
    max_unitarity_residual: float


def _order(n):
    """Raise ValueError unless n is an integer (not bool) >= 1."""
    if _number(n, "order", int) < 1:
        raise ValueError("order must be >= 1")


def _allocate(n):
    """An uninitialised n x n complex matrix. A failed allocation, which numpy
    reports as MemoryError or, past the largest array size, as ValueError,
    becomes a ValueError that names the order."""
    try:
        return np.empty((n, n), dtype=np.complex128)
    except (MemoryError, ValueError):
        raise ValueError(f"order {n} is too large: its matrices do not fit in memory") from None


def fourier(n):
    """Order-n Fourier biunitary: entry (i,j) = eps^(i*j)/sqrt(n), eps = e^(2*pi*i/n),
    allocated before any other work so that an unbuildable order fails at once."""
    _order(n)
    u = _allocate(n)
    k = np.arange(n)
    np.outer(k, k, out=u)
    np.multiply(2j * np.pi, u, out=u)
    np.divide(u, n, out=u)
    np.exp(u, out=u)
    return np.divide(u, np.sqrt(n), out=u)


def verify_biunitary(u, policy=DEFAULT_POLICY):
    """Report both residuals: flatness of entry moduli and unitarity.

    is_biunitary holds iff max| |u_ij|*sqrt(n) - 1 | <= tol_entry and
    ||U U* - I||_F <= tol_unitary. Entries near the float limit make a
    residual overflow to inf or nan: that raises ValueError rather than
    report a verdict on it.
    """
    u = as_matrix(u)
    n = u.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mod_dev = float(np.max(np.abs(np.abs(u) * np.sqrt(n) - 1.0)))
        uni_res = float(np.linalg.norm(u @ u.conj().T - np.eye(n)))
    if not (np.isfinite(mod_dev) and np.isfinite(uni_res)):
        raise ValueError(f"the biunitarity residuals overflow (modulus deviation {mod_dev:.3e}, "
                         f"unitarity residual {uni_res:.3e}): matrix entries are too large")
    ok = mod_dev <= policy.tol_entry and uni_res <= policy.tol_unitary
    return BiunitaryVerdict(ok, mod_dev, uni_res)


def _require_biunitary(u, policy, what):
    """Raise a ValueError naming what and both residuals unless u passes
    verify_biunitary (which itself raises when a residual overflows)."""
    verdict = verify_biunitary(u, policy)
    if not verdict.is_biunitary:
        raise ValueError(
            f"{what} is not biunitary "
            f"(modulus deviation {verdict.max_modulus_deviation:.3e}, "
            f"unitarity residual {verdict.max_unitarity_residual:.3e})"
        )


def circulant(row):
    """Circulant matrix S with S[i,j] = row[(j - i) mod n]. The row must be
    a non-empty 1-D sequence of finite values."""
    row = np.asarray(row, dtype=np.complex128)
    if row.ndim != 1 or row.size == 0:
        raise ValueError(f"a circulant row must be non-empty and 1-D, got shape {row.shape}")
    if not np.all(np.isfinite(row)):
        raise ValueError("circulant row entries must be finite")
    return _circulant_into(_allocate(row.size), row)


def _circulant_into(u, row):
    """Fill the n x n matrix u with the circulant of row and return it."""
    n = row.size
    for i in range(n):
        u[i, :i] = row[n - i:]
        u[i, i:] = row[:n - i]
    return u


def quadratic_residues(n):
    """The set {x^2 mod n}, 0 included."""
    return sorted({(x * x) % n for x in range(n)})


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _qr_row(n, a):
    row = np.full(n, a, dtype=np.complex128)
    for i in quadratic_residues(n):
        row[i] = 1.0
    return row / np.sqrt(n)


def bjorck7():
    """The order-7 quadratic-residue circulant biunitary, qr_circulant(7).

    First row (1,1,1,a,1,a,a)/sqrt(7) with a = BJORCK7_A = -3/4 + i*sqrt(7)/4:
    value 1 at positions {0} u QR(7) = {0,1,2,4}, a elsewhere.
    """
    return qr_circulant(7)


def qr_circulant(n, a="solve", policy=DEFAULT_POLICY):
    """Circulant with 1/sqrt(n) on the quadratic residues mod n and a/sqrt(n)
    on the rest, for a prime n.

    a is a finite complex number, or "solve" for the unimodular value that
    makes the matrix unitary, a = (1 - n + 2i sqrt(n)) / (n + 1): it exists
    exactly for the primes n = 3 (mod 4) (see _solve_qr_phase). The result
    is allocated before any O(sqrt n) or O(n) work: big orders fail at once.
    Raises if n is not prime or has no solution; the returned matrix always
    passes verify_biunitary.
    """
    _order(n)
    if isinstance(a, str):
        if a != "solve":
            raise ValueError(f"unknown mode {a!r}")
    else:
        a = _number(a, "a", complex)
        if not np.isfinite(a):
            raise ValueError(f"a must be finite, got {a!r}")
    u = _allocate(n)
    if not is_prime(n):
        raise ValueError(f"n={n} is not prime")
    if a == "solve":
        a = _solve_qr_phase(n)
    _circulant_into(u, _qr_row(n, a))
    _require_biunitary(u, policy, "qr_circulant matrix")
    return u


def _solve_qr_phase(n):
    """For a prime n, the unimodular a with Im a > 0 that makes the order-n
    quadratic-residue circulant unitary: (1 - n + 2i sqrt(n)) / (n + 1) for
    n = 3 (mod 4), and a ValueError for every other prime.

    Proof. The circulant is unitary iff each eigenvalue lambda_k = sum_j
    row_j w^(jk), w = e^(2 pi i/n), has modulus 1. With chi the Legendre
    symbol and G = sum_j chi(j) w^j the Gauss sum (sqrt(n) for n = 1 mod 4,
    i sqrt(n) for n = 3 mod 4), sqrt(n) lambda_0 = ((n+1) + a(n-1))/2 and,
    for k != 0, sqrt(n) lambda_k = (1 + chi(k) G)(1 - a)/2. Both signs of
    chi occur, so n = 1 (mod 4) has no solution, as |1 + sqrt(n)| != |1 -
    sqrt(n)|; n = 2 has no non-residue, and its circulant is singular. For
    n = 3 (mod 4), |1 +- i sqrt(n)|^2 = n + 1 forces |1 - a|^2 = 4n/(n + 1),
    so Re a = (1 - n)/(n + 1) and Im a = +-2 sqrt(n)/(n + 1); then
    |(n+1) + a(n-1)|^2 = (n+1)^2 - (n-1)^2 = 4n, and lambda_0 is unimodular.
    """
    if n % 4 != 3:
        raise ValueError(f"no unimodular circulant value exists for n={n}")
    return complex((1 - n) / (n + 1), 2 * np.sqrt(n) / (n + 1))


BJORCK7_A = _solve_qr_phase(7)


_PETRESCU_POWERS = np.array(
    [
        [1, 4, 5, 3, 3, 1, 0],
        [4, 1, 3, 5, 3, 1, 0],
        [5, 3, 1, 4, 1, 3, 0],
        [3, 5, 4, 1, 1, 3, 0],
        [3, 3, 1, 1, 4, 5, 0],
        [1, 1, 3, 3, 5, 4, 0],
        [0, 0, 0, 0, 0, 0, 0],
    ]
)


def petrescu(lam, policy=DEFAULT_POLICY):
    """Petrescu's 7x7 biunitary family member U(lambda), |lambda| = 1.

    Powers of w = e^(2*pi*i/6) per the classical listing; the (rows 0-1 x
    cols 0-1) block carries lambda, the (rows 2-3 x cols 2-3) block carries
    conj(lambda), the last row and column of the power table are w^0.
    """
    lam = _number(lam, "lambda", complex)
    if not abs(abs(lam) - 1.0) <= policy.tol_entry:
        raise ValueError(f"|lambda| = {abs(lam)} is not 1 within tolerance")
    w = np.exp(2j * np.pi / 6)
    u = w ** _PETRESCU_POWERS.astype(np.complex128)
    u[0:2, 0:2] *= lam
    u[2:4, 2:4] *= np.conj(lam)
    return u / np.sqrt(7)


def dephase(u, policy=DEFAULT_POLICY):
    """Normal form under diagonal phases: row 0 and column 0 real positive.

    Entry moduli are unchanged; idempotent. Requires a biunitary input.
    """
    u = as_matrix(u)
    _require_biunitary(u, policy, "dephase input")
    return _dephased(u)


def _dephased(u):
    d2 = np.conj(u[0, :]) / np.abs(u[0, :])
    v = u * d2[None, :]
    d1 = np.conj(v[:, 0]) / np.abs(v[:, 0])
    return d1[:, None] * v


def equivalent(u, v, policy=DEFAULT_POLICY):
    """Is v = D1 P1 u P2 D2 for permutations P1, P2 and unimodular diagonals?

    A gap in the phase-invariant multiset of closed quadruple products
    (_haagerup_distance) answers no at once. Otherwise both inputs must be
    biunitary, and the answer is yes iff for some anchor (r, c) of u the
    dephased v and u, dephased with row r and column c moved first, agree
    entry by entry within tol = max(tol_entry, 1e-12) after a permutation of
    rows and of columns. The rows are assigned by backtracking, pruned as
    soon as a column of v has no partner column left, and a short search
    then looks for a column bijection. No entry is rounded. Only n <=
    EQUIVALENT_CAP is accepted; equivalence at larger orders is refused
    rather than answered heuristically.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    n = u.shape[0]
    if v.shape[0] != n:
        return False
    if n > EQUIVALENT_CAP:
        raise ValueError(f"order {n} exceeds the exhaustive cap {EQUIVALENT_CAP}")
    tol = max(policy.tol_entry, 1e-12)

    # entries near the float limit overflow the invariants to inf or nan:
    # only a finite gap answers no, and the gate below names the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _haagerup_distance(u, v)
    if np.isfinite(gap) and gap > 10.0 * tol:
        return False

    _require_biunitary(u, policy, "equivalent input")
    _require_biunitary(v, policy, "equivalent input")
    C = _dephased(v)
    for r in range(n):
        rows = [r] + [i for i in range(n) if i != r]
        for c in range(n):
            cols = [c] + [j for j in range(n) if j != c]
            B = _dephased(u[np.ix_(rows, cols)])
            close = np.abs(C[:, None, :, None] - B[None, :, None, :]) < tol
            if _matches(close, 1, close[0, 0], tuple(range(1, n))):
                return True
    return False


def _matches(close, i, ok, free):
    """Can rows i.. of C go one each to the rows free of B so that some
    column bijection sigma has close[i, k, j, sigma(j)] on every assigned
    pair (i, k)? ok[j, l] says column j of C still fits column l of B on
    the rows assigned so far."""
    if i == len(close):
        return _has_bijection(ok)
    for t, k in enumerate(free):
        fit = ok & close[i, k]
        if fit.any(axis=1).all() and _matches(close, i + 1, fit, free[:t] + free[t + 1:]):
            return True
    return False


def _has_bijection(ok, j=0, taken=()):
    """Is there sigma with ok[j', sigma(j')] for j' >= j, avoiding taken?"""
    if j == len(ok):
        return True
    return any(_has_bijection(ok, j + 1, taken + (l,))
               for l in np.flatnonzero(ok[j]) if l not in taken)


def _haagerup_distance(u, v):
    """Separation of the closed-quadruple invariants u_ij u_kl conj(u_il u_kj).

    The multiset of these products is invariant under both equivalence moves.
    Sorted real and imaginary marginals are compared (sorting reals is
    1-Lipschitz, so near-ties cannot flip the answer); a gap well above
    tolerance certifies inequivalence cheaply.
    """

    def quads(x):
        g = np.einsum("ij,kl->ikjl", x, x) * np.conj(np.einsum("il,kj->ikjl", x, x))
        return g.ravel()

    qu, qv = quads(u), quads(v)
    return max(
        float(np.max(np.abs(np.sort(qu.real) - np.sort(qv.real)))),
        float(np.max(np.abs(np.sort(qu.imag) - np.sort(qv.imag)))),
    )
