"""Isolation certificates for biunitary matrices via the commutator-span rank.

For a biunitary U of order n the commutators [D_i, U* D_j U] of diagonal
projections span a subspace of dimension at most n^2 - 2n + 1. When that
bound is attained the corresponding commuting square is rigid: no nearby
inequivalent biunitary exists. The certificate records the measured rank of
the stacked-commutator matrix, its full singular spectrum and the spectral
gap at the cut, and issues a three-valued verdict.

The rank is measured on a real matrix with the same singular values as the
complex span matrix A. Column (l,k) of A is minus the conjugate of column
(k,l), so for each k < l the unitary 2x2 mix

    ((c_kl - c_lk) / sqrt2, -i (c_kl + c_lk) / sqrt2) = (sqrt2 Re c_kl, sqrt2 Im c_kl)

turns the pair into two real columns. Together with the identically zero
diagonal columns this is A W for a unitary W, so the spectrum is unchanged,
and the real SVD takes about half the time of the complex one.
"""

import contextlib
import mmap
from dataclasses import dataclass

import numpy as np

from .cmatrix import (
    DEFAULT_POLICY,
    NumericPolicy,
    _rank_gap,
    _singular_values_inplace,
    as_matrix,
)
from .hadamard import _require_biunitary

__all__ = [
    "ISOLATED",
    "SPAN_FAILS",
    "INCONCLUSIVE",
    "SpanCertificate",
    "span_matrix",
    "reduced_minor",
    "certify_isolation",
    "CERTIFY_CAP",
]

# certify builds an n^2 x n^2 float64 matrix, 8 n^4 bytes: 134 MB at n = 64
# and 800 MB at n = 100. The SVD overwrites it in place, and from n = 12 up
# the matrix has pages of its own, unmapped when certify returns, so the peak
# is that one matrix above the resident process, whatever ran before (the
# certify benchmark, F2-F48 on a 2-core Xeon: 107.7 -> 90.0 MB); the SVD's
# time grows as n^6
CERTIFY_CAP = 64

# The span matrix gets a mapping of its own from this size up (n >= 12):
# glibc's default M_MMAP_THRESHOLD, from which malloc itself starts out
# mapping. Below it, a syscall pair and fresh page faults on each call cost
# more than the build of the matrix
_OWN_PAGES_MIN = 128 * 1024

ISOLATED = "Isolated"
SPAN_FAILS = "SpanFails"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SpanCertificate:
    """Outcome of the span-rank isolation test.

    verdict semantics: Isolated requires rank == expected with a certified
    gap; SpanFails requires rank < expected with a certified gap and means
    only that the rank test fails, not that a family must exist; anything
    else (no clean gap, or rank above the bound under an absurd policy) is
    Inconclusive.
    """

    n: int
    rank: int
    expected: int
    singular_values: np.ndarray
    gap: float
    verdict: str
    policy: NumericPolicy

    def to_json_dict(self):
        """Canonical JSON object; key order is part of the wire format."""
        return {
            "n": self.n,
            "rank": self.rank,
            "expected": self.expected,
            "verdict": self.verdict,
            "gap": None if np.isinf(self.gap) else float(self.gap),
            "singular_values": [float(s) for s in self.singular_values],
            "policy": {
                "tol_entry": self.policy.tol_entry,
                "tol_unitary": self.policy.tol_unitary,
                "rank_rel_cut": self.policy.rank_rel_cut,
                "cert_gap_min": self.policy.cert_gap_min,
            },
        }


def span_matrix(u):
    """The n^2 x n^2 stacked-commutator matrix A.

    Row (i,j) holds the entries of [D_i, U* D_j U]; explicitly
    A[(i,j),(k,l)] = (delta_ik - delta_il) * conj(u_jk) * u_jl, with both
    index pairs in lexicographic 0-based order. Entries near the float limit
    overflow the products: that raises ValueError.
    """
    u = as_matrix(u)
    n = u.shape[0]
    E = np.eye(n)
    deltas = E[:, None, :, None] - E[:, None, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        prods = np.conj(u)[None, :, :, None] * u[None, :, None, :]
        a = (deltas * prods).reshape(n * n, n * n)
    if not np.all(np.isfinite(a)):
        raise ValueError("the span matrix overflows: matrix entries are too large")
    return a


def _real_span_matrix(u):
    """Real n^2 x n^2 matrix R = A W, W unitary, A = span_matrix(u).

    R[(i,j),(k,l)] = sqrt2 (delta_ik - delta_il) Re(conj(u_jk) u_jl) for
    k < l and the same with Im for k > l (Im of column (k,l) equals Im of
    column (l,k)); the diagonal columns are zero. Built without the complex
    n^4 array, and Fortran-ordered: column by column, each column one
    contiguous run of memory, so that LAPACK can work on R itself.

    From 128 KiB up (n >= 12) R lives in a private anonymous mapping of its
    own, unmapped when the last view of it goes, as certify returns. From
    malloc a freed R would stay resident: glibc raises its mmap threshold
    to the size of each mapped block it frees, so the next R of that size
    comes from the heap, which it trims only past twice that threshold
    (certify benchmark peak RSS: 107.7 MB from malloc, 90.0 MB from own
    mappings). The mapping is advised for transparent hugepages, as numpy
    advises its own arrays of 4 MiB and up: on 4 KiB pages, filling F48's
    R takes 10,368 page faults rather than 659, and twice the time. Below
    128 KiB, and off Linux (no MADV_HUGEPAGE), R comes from np.empty.
    """
    n = u.shape[0]
    E = np.eye(n)
    # R[(i,j),(k,l)] = deltas[k, l, i, 0] * parts[k, l, 0, j], both factors
    # contiguous along their last axis
    deltas = E[:, None, :, None] - E[None, :, :, None]
    ut = np.ascontiguousarray(u.T)
    prods = np.conj(ut)[:, None, None, :] * ut[None, :, None, :]
    upper = np.arange(n)[:, None, None, None] < np.arange(n)[None, :, None, None]
    parts = np.sqrt(2.0) * np.where(upper, prods.real, prods.imag)
    size = 8 * n ** 4
    if size < _OWN_PAGES_MIN or not hasattr(mmap, "MADV_HUGEPAGE"):
        r = np.empty((n, n, n, n))
    else:
        mm = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        with contextlib.suppress(OSError):  # a kernel without hugepages
            mm.madvise(mmap.MADV_HUGEPAGE)
        r = np.ndarray((n, n, n, n), buffer=mm)
    np.multiply(deltas, parts, out=r)
    return r.reshape(n * n, n * n).T


def reduced_minor(a):
    """The (n-1)^2 x (n-1)^2 minor with the linearly dependent rows and
    columns removed.

    Rows {(i,0) for all i} u {(0,j) for all j} are dependent because the
    commutators sum to zero over either index; columns {(k,k)} vanish
    identically and columns {(0,l)} carry the matching dependencies. 2n-1
    of each are removed.
    """
    a = np.asarray(a)
    n2 = a.shape[0]
    n = int(round(np.sqrt(n2)))
    if n * n != n2 or a.shape != (n2, n2):
        raise ValueError(f"expected an n^2 x n^2 matrix, got {a.shape}")
    rows_rm = {i * n for i in range(n)} | set(range(n))
    cols_rm = {k * n + k for k in range(n)} | set(range(n))
    rk = [x for x in range(n2) if x not in rows_rm]
    ck = [x for x in range(n2) if x not in cols_rm]
    return a[np.ix_(rk, ck)]


def certify_isolation(u, policy=DEFAULT_POLICY):
    """Span-rank certificate for a biunitary matrix. Raises on non-biunitary
    input and past the order cap CERTIFY_CAP."""
    u = as_matrix(u)
    if u.shape[0] > CERTIFY_CAP:
        raise ValueError(f"order {u.shape[0]} exceeds the certify cap {CERTIFY_CAP}")
    _require_biunitary(u, policy, "certify_isolation input")
    n = u.shape[0]
    expected = n * n - 2 * n + 1
    # the SVD overwrites R, the one n^4 array certify holds
    rank, gap, sv = _rank_gap(_singular_values_inplace(_real_span_matrix(u)), policy)
    if gap >= policy.cert_gap_min and rank == expected:
        label = ISOLATED
    elif gap >= policy.cert_gap_min and rank < expected:
        label = SPAN_FAILS
    else:
        label = INCONCLUSIVE
    return SpanCertificate(
        n=n,
        rank=rank,
        expected=expected,
        singular_values=sv,
        gap=gap,
        verdict=label,
        policy=policy,
    )
