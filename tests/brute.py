"""Independent reference implementations used as oracles.

Everything here is written the dumb, obviously-correct way (full enumeration,
direct matrix arithmetic, finite differences) and deliberately shares no code
path with the library routines it cross-checks.
"""

import itertools
from math import gcd

import numpy as np


def bits(mask, n):
    return np.array([(mask >> k) & 1 for k in range(n)], dtype=float)


def commutator(a, b):
    return a @ b - b @ a


def conjugated(u, dvec):
    return u @ np.diag(dvec).astype(complex) @ u.conj().T


def brute_commuting_pairs(u, tol=1e-9):
    """All canonical (p, d) bitmask pairs with [diag(p), U diag(d) U*] = 0,
    by direct enumeration. Canonical: bit 0 clear on both masks."""
    n = u.shape[0]
    N = 1 << n
    out = []
    for p in range(2, N - 1, 2):
        P = np.diag(bits(p, n)).astype(complex)
        for d in range(2, N - 1, 2):
            q = conjugated(u, bits(d, n))
            if np.linalg.norm(commutator(P, q)) <= tol:
                out.append((p, d))
    return sorted(out)


def support_graph_commuting_count(u, zero=1e-6):
    """Number of canonical (p, d) pairs with [diag(p), U diag(d) U*] = 0,
    without enumerating p: the commutator vanishes iff p is a union of
    connected components of the graph joining i and j when |q_ij| > zero.
    With c components there are 2^(c-1) - 1 such p with bit 0 clear."""
    n = u.shape[0]
    total = 0
    for d in range(2, (1 << n) - 1, 2):
        reach = (np.abs(conjugated(u, bits(d, n))) > zero) | np.eye(n, dtype=bool)
        for _ in range(n.bit_length()):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        components = len({tuple(row) for row in reach})
        total += 2 ** (components - 1) - 1
    return total


def brute_block_pairs(u, tol=1e-9):
    """All quadruple bitmasks (p1, p2, d1, d2), p1 < p2, sides disjoint and
    non-trivial, excluding (p2, d2) == (~p1, ~d1), with
    [P1, Q1] - [P2, Q2] = 0. Full scan; practical for n <= 6."""
    n = u.shape[0]
    N = 1 << n
    full = N - 1
    out = []
    for p1 in range(1, full):
        P1 = np.diag(bits(p1, n)).astype(complex)
        for p2 in range(p1 + 1, full):
            if p1 & p2:
                continue
            P2 = np.diag(bits(p2, n)).astype(complex)
            for d1 in range(1, full):
                q1 = conjugated(u, bits(d1, n))
                k1 = commutator(P1, q1)
                for d2 in range(1, full):
                    if d1 & d2:
                        continue
                    if p2 == full ^ p1 and d2 == full ^ d1:
                        continue
                    q2 = conjugated(u, bits(d2, n))
                    if np.linalg.norm(k1 - commutator(P2, q2)) <= tol:
                        out.append((p1, p2, d1, d2))
    return sorted(out)


def brute_equivalent(u, v, tol=1e-9):
    """Is v = D1 P1 u P2 D2? Scan of all column permutations with the phases
    eliminated row by row. Practical for n <= 7."""
    n = u.shape[0]
    if v.shape[0] != n:
        return False
    for sigma in itertools.permutations(range(n)):
        us = u[:, sigma]
        for r0 in range(n):
            # fix a_0 = 1; the first row determines the column phases
            b = v[0, :] / us[r0, :]
            w = v / b[None, :]
            # row i of w must be a constant multiple of some unused row of us
            compat = np.zeros((n, n), dtype=bool)
            for i in range(n):
                ratios = w[i, None, :] / us
                dev = np.max(np.abs(ratios - ratios[:, :1]), axis=1)
                compat[i] = dev < tol
            if not compat[0, r0]:
                continue
            if _has_perfect_matching(compat, forced={0: r0}):
                return True
    return False


def _has_perfect_matching(compat, forced):
    n = compat.shape[0]
    used = [False] * n
    for i, j in forced.items():
        used[j] = True

    def bt(i):
        if i == n:
            return True
        if i in forced:
            return bt(i + 1)
        for j in range(n):
            if compat[i, j] and not used[j]:
                used[j] = True
                if bt(i + 1):
                    return True
                used[j] = False
        return False

    return bt(0)


def gcd_sum_rank(n):
    """Independent prediction of the span rank of the order-n Fourier matrix:
    the kernel dimension is sum_{s mod n} gcd(s, n) (chains of equal
    coefficients split into gcd(s, n) classes), so the rank is n^2 minus it."""
    return n * n - sum(gcd(s, n) for s in range(n))


def fd_gradient(theta, cfg, h=1e-6):
    """Central finite differences of the smoothed search objective,
    recomputed from scratch."""
    n = cfg.n

    def smoothed(th):
        u = np.exp(1j * th) / np.sqrt(n)
        r = u @ u.conj().T - np.eye(n)
        q3 = u @ np.diag(cfg.p3).astype(complex) @ u.conj().T
        q4 = u @ np.diag(cfg.p4).astype(complex) @ u.conj().T
        k = (
            commutator(np.diag(cfg.p1).astype(complex), q3)
            - commutator(np.diag(cfg.p2).astype(complex), q4)
        )
        return float(np.sum(np.abs(r) ** 2) + np.sum(np.abs(k) ** 2))

    g = np.zeros_like(theta)
    for i in range(n):
        for j in range(n):
            e = np.zeros_like(theta)
            e[i, j] = h
            g[i, j] = (smoothed(theta + e) - smoothed(theta - e)) / (2 * h)
    return g


def random_biunitary(n, rng):
    """diagonal . Fourier . permutation . diagonal product; biunitary by
    construction."""
    k = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    d1 = np.exp(2j * np.pi * rng.random(n))
    d2 = np.exp(2j * np.pi * rng.random(n))
    perm = np.eye(n)[rng.permutation(n)]
    return (d1[:, None] * f) @ perm * d2[None, :]


def random_equivalence_move(u, rng):
    """D1 P1 u P2 D2 with random unimodular diagonals and permutations."""
    n = u.shape[0]
    d1 = np.exp(2j * np.pi * rng.random(n))
    d2 = np.exp(2j * np.pi * rng.random(n))
    p1 = np.eye(n)[rng.permutation(n)]
    p2 = np.eye(n)[rng.permutation(n)]
    return (d1[:, None] * p1) @ u @ (p2 * d2[None, :])
