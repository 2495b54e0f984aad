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


def indices(mask):
    """Positions of the ones of a 0/1 mask, by a loop."""
    return [k for k, x in enumerate(mask) if x == 1]


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


def expm_member(spec, t):
    """exp(i t P q) U of a commuting-pair spec by its definition: the
    spectral decomposition of the Hermitian P q, each eigenvalue w turned
    into the phase exp(i t w)."""
    u = spec.base
    pq = np.diag(spec.p_mask).astype(complex) @ conjugated(u, spec.d_mask)
    w, v = np.linalg.eigh(pq)
    return (v * np.exp(1j * t * w)) @ v.conj().T @ u


def reference_local_search(cfg):
    """The phase descent of hadcert.search written as it stood before the
    evaluations were shared: every objective, smoothed objective and
    gradient call rebuilds U, U U*, U P3 U*, U P4 U* and the mask
    differences from the phases. Same floating-point expressions, so the
    library's fused loop must reproduce it bit for bit. Returns (phases,
    objective, iterations, converged, trace)."""
    n = cfg.n

    def terms(theta):
        u = np.exp(1j * theta) / np.sqrt(n)
        r = u @ u.conj().T - np.eye(n)
        q3 = (u * cfg.p3[None, :]) @ u.conj().T
        q4 = (u * cfg.p4[None, :]) @ u.conj().T
        k = (cfg.p1[:, None] - cfg.p1[None, :]) * q3 - (cfg.p2[:, None] - cfg.p2[None, :]) * q4
        return float(np.sum(np.abs(r) ** 2)), float(np.sum(np.abs(k) ** 2))

    def objective(theta):
        t1, t2 = terms(theta)
        return float(np.sqrt(t1) + np.sqrt(t2))

    def smoothed(theta):
        t1, t2 = terms(theta)
        return t1 + t2

    def gradient(theta):
        u = np.exp(1j * theta) / np.sqrt(n)
        r = u @ u.conj().T - np.eye(n)
        q3 = (u * cfg.p3[None, :]) @ u.conj().T
        q4 = (u * cfg.p4[None, :]) @ u.conj().T
        s1 = cfg.p1[:, None] - cfg.p1[None, :]
        s2 = cfg.p2[:, None] - cfg.p2[None, :]
        k = s1 * q3 - s2 * q4
        w = r @ u + (s1 * k) @ (u * cfg.p3[None, :]) - (s2 * k) @ (u * cfg.p4[None, :])
        return 4.0 * np.imag(np.conj(u) * w)

    if cfg.seed_phases is not None:
        theta = cfg.seed_phases.copy()
    else:
        theta = np.random.default_rng(cfg.rng_seed).uniform(0.0, 2.0 * np.pi, (n, n))
    f = smoothed(theta)
    g = gradient(theta)
    d = -g
    step = cfg.step0
    trace = [f]
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        if objective(theta) <= cfg.tol_obj:
            break
        gd = float(np.sum(g * d))
        if gd >= 0.0:
            d = -g
            gd = -float(np.sum(g * g))
        if gd == 0.0:
            break
        s = step
        accepted = False
        for _ in range(60):
            f_new = smoothed(theta + s * d)
            if f_new <= f + 1e-4 * s * gd:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        theta = theta + s * d
        g_new = gradient(theta)
        beta = max(0.0, float(np.sum(g_new * (g_new - g))) / max(float(np.sum(g * g)), 1e-300))
        d = -g_new + beta * d
        g = g_new
        f = f_new
        trace.append(f)
        iterations = it
        step = min(s * 2.0, 1e3)
    final = objective(theta)
    return theta, final, iterations, final <= cfg.tol_obj, trace
