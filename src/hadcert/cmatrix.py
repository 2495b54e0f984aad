"""Dense complex matrix kernel: the numeric policy, singular values and
numerical rank, and diagonal 0/1 masks.

Matrices are numpy arrays of complex128, except that numerical_rank also
takes real input and keeps it float64. Indices are 0-based throughout; add 1
to translate to the 1-based conventions common in the literature.
"""

import ctypes
import functools
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
    return _rank_gap(np.linalg.svd(a, compute_uv=False), policy)


def _rank_gap(s, policy):
    """(rank, gap, s) for the descending singular values s of a finite
    matrix, by the rule numerical_rank documents."""
    if not np.all(np.isfinite(s)):
        raise ValueError(f"the singular values overflow (sigma_max {s[0]:.3e}): "
                         f"matrix entries are too large")
    if s.size == 0:
        return 0, np.inf, s
    rank = int(np.sum(s > policy.rank_rel_cut * s[0]))
    if rank >= s.size or s[rank] == 0.0:
        gap = np.inf
    else:
        gap = float(s[rank - 1] / s[rank])
    return rank, gap, s


# --- singular values in place ------------------------------------------------

def _load_dgesdd():
    """dgesdd from the LAPACK that numpy's linalg module loaded, with 64-bit
    integers (an OpenBLAS64 build), or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for name in ("scipy_dgesdd_64_", "dgesdd_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            # JOBZ M N A LDA S U LDU VT LDVT WORK LWORK IWORK INFO; ctypes
            # passes a c_double or c_int64 given for a pointer by reference
            dp, ip = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
            fn.argtypes = [ctypes.c_char_p, ip, ip, dp, ip, dp, dp, ip, dp, ip, dp, ip, ip, ip]
            fn.restype = None
            return fn
    return None


_DGESDD = _load_dgesdd()


def _gesdd(a, s, ints, work, iwork):
    """One dgesdd call with JOBZ='N', as numpy makes it, on the matrix whose
    first entry is a. ints holds M, N, LDA = max(M, 1), LDVT = 1 and LWORK.
    U and VT are not referenced for 'N', so s stands in for them. Raises
    LinAlgError when INFO is not 0."""
    m, n, lda, ldvt, lwork = ints
    info = ctypes.c_int64(0)
    _DGESDD(b"N", m, n, a, lda, s, s, lda, s, ldvt, work, lwork, iwork, info)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge (dgesdd info {info.value})")


@functools.lru_cache(maxsize=64)
def _gesdd_shape(m, n):
    """(ints, work type, iwork type) for dgesdd on an m x n matrix: the
    integer arguments, which LAPACK only reads and so are made once per
    shape, and the ctypes array types of WORK and of IWORK (8 min(m, n)
    integers). LWORK is what the workspace query returns, truncated to an
    integer and at least 1, as numpy takes it."""
    dims = tuple(ctypes.c_int64(x) for x in (m, n, max(m, 1), 1))
    query = ctypes.c_double(0.0)
    _gesdd(query, query, dims + (ctypes.c_int64(-1),), query, ctypes.c_int64(0))
    lwork = max(int(query.value), 1)
    return (dims + (ctypes.c_int64(lwork),), ctypes.c_double * lwork,
            ctypes.c_int64 * (8 * min(m, n)))


def _singular_values_inplace(a):
    """Singular values of the Fortran-ordered float64 matrix a, in descending
    order, by numpy's own LAPACK call (dgesdd, JOBZ='N') made on a itself:
    no copy of a is taken, and a is overwritten. Without a 64-bit-integer
    dgesdd to bind, np.linalg.svd on a gives the same values from a copy.
    Raises LinAlgError when the SVD does not converge."""
    if a.ndim != 2 or a.dtype != np.float64 or not a.flags.f_contiguous or a.size == 0:
        raise ValueError("expected a non-empty Fortran-ordered float64 matrix")
    if _DGESDD is None:
        return np.linalg.svd(a, compute_uv=False)
    ints, work, iwork = _gesdd_shape(*a.shape)
    s = np.empty(min(a.shape))
    # a.T is C-ordered, as from_buffer needs, and shares a's memory
    double = ctypes.c_double
    _gesdd(double.from_buffer(a.T), double.from_buffer(s), ints, work(), iwork())
    return s


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
