"""Correctness oracles that share no code with the hadcert layers they check.

Everything here is written against numpy alone: the closed-form Fourier rank,
the real phase Jacobian of unitarity (a second construction of the span
rank), dense commutators built as P Q - Q P, and a biunitarity test.
"""

from math import gcd

import numpy as np

TOL = 1e-9          # the library's default tol_entry / tol_unitary
CERT_GAP = 1e4      # the library's default cert_gap_min
RANK_CUT = 1e-8     # the library's default rank_rel_cut


def fourier_matrix(n):
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def fourier_rank(n):
    """Span rank of the order-n Fourier matrix: n^2 - sum_s gcd(s, n).

    The kernel of the span map has dimension 2n - 1 + d(F_n), and the defect
    of the Fourier matrix is d(F_n) = sum_{s=0}^{n-1} gcd(s, n) - (2n - 1)
    (Tadej & Zyczkowski, "Defect of a unitary matrix", Linear Algebra Appl.
    429 (2008)); gcd(0, n) = n.
    """
    return n * n - sum(gcd(s, n) for s in range(n))


def expected_verdict(n, rank, gap):
    """The certificate rule restated: a certified gap plus rank == n^2-2n+1
    is Isolated, a certified gap plus a lower rank is SpanFails, anything
    else Inconclusive."""
    if gap >= CERT_GAP and rank == n * n - 2 * n + 1:
        return "Isolated"
    if gap >= CERT_GAP and rank < n * n - 2 * n + 1:
        return "SpanFails"
    return "Inconclusive"


def phase_jacobian(u):
    """Real Jacobian of the off-diagonal entries of U U* with respect to the
    n^2 entry phases, shape (n(n-1), n^2).

    With U(theta) = U o exp(i theta), d(U U*)_ab = i sum_k u_ak conj(u_bk)
    (theta_ak - theta_bk); each pair a < b gives a real and an imaginary row.
    Its rank equals the span-matrix rank (both kernels are the tangent
    directions that keep the matrix unitary to first order).
    """
    n = u.shape[0]
    a, b = np.triu_indices(n, k=1)
    w = 1j * u[a, :] * np.conj(u[b, :])                  # (P, n)
    jac = np.zeros((a.size, n, n), dtype=np.complex128)
    rows = np.arange(a.size)
    jac[rows, a, :] += w
    jac[rows, b, :] -= w
    jac = jac.reshape(a.size, n * n)
    return np.vstack([jac.real, jac.imag])


def phase_jacobian_rank(u):
    """(rank, gap) of the phase Jacobian at the library's default cut."""
    s = np.linalg.svd(phase_jacobian(u), compute_uv=False)
    rank = int(np.sum(s > RANK_CUT * s[0]))
    gap = float(s[rank - 1] / s[rank]) if rank < s.size and s[rank] > 0 else float("inf")
    return rank, gap


def biunitarity_defect(u):
    """(max | |u_ij| sqrt(n) - 1 |, ||U U* - I||_F) computed directly."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    flat = float(np.max(np.abs(np.abs(u) * np.sqrt(n) - 1.0)))
    gram = u @ u.conj().T - np.eye(n)
    return flat, float(np.sqrt(np.sum(np.abs(gram) ** 2)))


def is_biunitary(u, tol=TOL):
    flat, uni = biunitarity_defect(u)
    return flat <= tol and uni <= tol


def conjugated_projections(u, masks):
    """Stack of U diag(d) U* for a (W, n) array of 0/1 masks."""
    u = np.asarray(u, dtype=np.complex128)
    d = np.asarray(masks, dtype=np.float64)
    return np.einsum("ik,wk,jk->wij", u, d, u.conj())


def _diag_stack(masks):
    m = np.asarray(masks, dtype=np.float64)
    out = np.zeros(m.shape + (m.shape[-1],))
    idx = np.arange(m.shape[-1])
    out[:, idx, idx] = m
    return out


def dense_commutator_norms(u, p, d):
    """||P Q - Q P||_F for each row of the (W, n) mask arrays p and d, with
    P = diag(p) and Q = U diag(d) U*."""
    pm = _diag_stack(p)
    q = conjugated_projections(u, d)
    k = pm @ q - q @ pm
    return np.sqrt(np.sum(np.abs(k) ** 2, axis=(1, 2)))


def dense_block_norms(u, p1, p2, d1, d2):
    """||[P1, Q1] - [P2, Q2]||_F for each row of the (W, n) mask arrays."""
    a = _diag_stack(p1)
    b = _diag_stack(p2)
    q1 = conjugated_projections(u, d1)
    q2 = conjugated_projections(u, d2)
    k = (a @ q1 - q1 @ a) - (b @ q2 - q2 @ b)
    return np.sqrt(np.sum(np.abs(k) ** 2, axis=(1, 2)))


def scramble(u, rng):
    """A seeded equivalent copy D1 P1 U P2 D2 (random permutations and
    unimodular diagonal phases)."""
    n = u.shape[0]
    r = rng.permutation(n)
    c = rng.permutation(n)
    d1 = np.exp(2j * np.pi * rng.random(n))
    d2 = np.exp(2j * np.pi * rng.random(n))
    return d1[:, None] * u[np.ix_(r, c)] * d2[None, :]
