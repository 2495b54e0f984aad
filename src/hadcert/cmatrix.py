"""Dense complex matrix kernel: the numeric policy, singular values and
numerical rank, and diagonal 0/1 masks.

Matrices are numpy arrays of complex128, except that numerical_rank also
takes real input and keeps it float64. Indices are 0-based throughout; add 1
to translate to the 1-based conventions common in the literature.
"""

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericPolicy",
    "DEFAULT_POLICY",
    "as_matrix",
    "numerical_rank",
    "as_mask",
    "mask_from_indices",
    "mask_indices",
]


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances shared across the verification and certification routines.

    tol_entry      entrywise unimodularity check, |entry|*sqrt(n) vs 1
    tol_unitary    Frobenius residual for unitarity / commutation checks
    rank_rel_cut   singular values below rank_rel_cut * sigma_max count as zero
    cert_gap_min   minimum sigma_rank / sigma_{rank+1} ratio for a certified verdict
    """

    tol_entry: float = 1e-9
    tol_unitary: float = 1e-9
    rank_rel_cut: float = 1e-8
    cert_gap_min: float = 1e4

    def __post_init__(self):
        for name in ("tol_entry", "tol_unitary", "rank_rel_cut", "cert_gap_min"):
            if not _number(getattr(self, name), name, float) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.rank_rel_cut < 1:
            raise ValueError("rank_rel_cut must be < 1")


# conversion -> (the numbers ABC a value must be, how messages name it)
_NUMBER_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    complex: (numbers.Complex, "a complex number"),
}


def _number(value, name, kind):
    """value converted by kind (int, float or complex), or a ValueError that
    names name: value must be an instance of the matching numbers ABC and not
    a bool, and fit in a float. nan and inf pass; ranges are the caller's."""
    abc, what = _NUMBER_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {value!r}") from None


DEFAULT_POLICY = NumericPolicy()


def as_matrix(a):
    """Coerce to a square complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def numerical_rank(a, policy=DEFAULT_POLICY):
    """SVD-based rank with the spectral gap at the cut.

    Returns (rank, gap, singular_values). rank counts singular values above
    rank_rel_cut * sigma_max; gap = sigma_rank / sigma_{rank+1}, infinite for
    full rank (or an exactly zero tail). Real input is decomposed as float64,
    complex input as complex128. Finite entries near the float limit can make
    a singular value overflow: that raises ValueError rather than report a
    rank on it.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"numerical_rank needs a 2-D matrix, got shape {a.shape}")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    s = np.linalg.svd(a, compute_uv=False)
    if not np.all(np.isfinite(s)):
        raise ValueError(f"the singular values overflow (sigma_max {s[0]:.3e}): "
                         f"matrix entries are too large")
    if s.size == 0 or s[0] == 0.0:
        return 0, np.inf, s
    rank = int(np.sum(s > policy.rank_rel_cut * s[0]))
    if rank >= s.size or s[rank] == 0.0:
        gap = np.inf
    else:
        gap = float(s[rank - 1] / s[rank])
    return rank, gap, s


# --- diagonal 0/1 projections -------------------------------------------------

def _mask(mask):
    """mask as a 1-D array, or ValueError naming its shape."""
    m = np.asarray(mask)
    if m.ndim != 1:
        raise ValueError(f"a mask must be 1-D, got shape {m.shape}")
    return m


def as_mask(mask, n):
    """mask as a length-n int8 0/1 vector. Raises ValueError unless it is
    1-D and every value is exactly 0 or 1; the values are checked before the
    cast, so 1.9 or 0.5 is rejected rather than truncated."""
    m = _mask(mask)
    if m.size != n or not np.all((m == 0) | (m == 1)):
        raise ValueError(f"expected a 0/1 mask of length {n}")
    return m.astype(np.int8)


def mask_from_indices(indices, n):
    """Length-n 0/1 vector with ones at the given positions. Raises
    ValueError unless indices is a sequence of integers in 0..n-1."""
    if isinstance(indices, (str, bytes)) or not hasattr(indices, "__iter__"):
        raise ValueError(f"expected a list of indices, got {indices!r}")
    m = np.zeros(n, dtype=np.int8)
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ValueError(f"index {i!r} is not an integer")
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for order {n}")
        m[i] = 1
    return m


def mask_indices(mask):
    """Sorted list of positions where the 1-D mask is 1."""
    return _mask(mask).nonzero()[0].tolist()
