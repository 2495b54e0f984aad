"""Algebraic witnesses that break the span condition, and the one-parameter
families of biunitaries they generate.

Two kinds of witness on a biunitary base U, both with diagonal 0/1 masks and
the conjugated projections q = U diag(d) U*:

  * a commuting pair (p, d): [diag(p), q] = 0. The family is
    exp(i t diag(p) q) U, a curve of biunitaries through U.
  * a block quadruple (p1, p2, d1, d2) with p1 p2 = 0, d1 d2 = 0 and
    [P1, q1] = [P2, q2]. The family is
    (I + (lam - 1) P1 q1 + (conj(lam) - 1) P2 q2) U, which multiplies the
    (p1 x d1) block of U by lam and the (p2 x d2) block by conj(lam).

Both families are block-phase multiplications and share one constructor:
for a commuting pair, P q is a projection, so exp(i t P q) = I + (e^{it} - 1)
P q, the same factor with lam = e^{it} and no second term.

The finders are exhaustive over 0/1 masks (caps: n <= 14 for pairs, n <= 10
for quadruples). Quadruples of the shape (p, ~p, d, ~d) satisfy the identity
for every biunitary and generate only diagonal-phase equivalences, so they
are excluded as degenerate. The specs a finder returns share read-only views
of one table of its distinct masks. Serialization reads one table, theorem
tag -> (spec class, spec builder); JSON keys are the *_mask fields, unsuffixed.
"""

from dataclasses import dataclass

import numpy as np

from .cmatrix import (
    DEFAULT_POLICY,
    as_mask,
    as_matrix,
    frobenius_norm,
    mask_from_indices,
    mask_indices,
    projection_matrix,
)
from .hadamard import verify_biunitary

__all__ = [
    "CommutingPairSpec",
    "BlockPairSpec",
    "commuting_residual",
    "block_residual",
    "commuting_pair_spec",
    "block_pair_spec",
    "find_commuting_pairs",
    "find_block_pairs",
    "constr1_family",
    "constr2_family",
    "verify_unitarity_identity",
    "spec_to_json_dict",
    "spec_from_json_dict",
    "COMMUTING_CAP",
    "BLOCK_CAP",
]

COMMUTING_CAP = 14
BLOCK_CAP = 10
# scan candidates of one subset test, far above the 6,832 of the largest
# real input seen (a perturbed F2xF2xF2); a loose tol_unitary can make every
# edge vanish and ask for billions
CANDIDATE_CAP = 1 << 20


@dataclass(frozen=True)
class CommutingPairSpec:
    """A diagonal projection p and conjugated projection q = U diag(d) U*
    with [p, q] = 0 (residual is the measured commutator norm)."""

    base: np.ndarray
    p_mask: np.ndarray
    d_mask: np.ndarray
    residual: float


@dataclass(frozen=True)
class BlockPairSpec:
    """Disjoint projections p1, p2 and disjoint d1, d2 with
    [P1, q1] - [P2, q2] = 0 for q_i = U diag(d_i) U*."""

    base: np.ndarray
    p1_mask: np.ndarray
    p2_mask: np.ndarray
    d1_mask: np.ndarray
    d2_mask: np.ndarray
    residual: float


def _conjugated(u, d_mask):
    """q = U diag(d) U* for each mask of a (..., n) stack."""
    d = np.asarray(d_mask, dtype=np.float64)
    return (u * d[..., None, :]) @ u.conj().T


def _difference(p_mask):
    """s = p[:, None] - p[None, :] for each mask p of a stack: [diag(p), q] = s * q."""
    p = np.asarray(p_mask, dtype=np.float64)
    return p[..., :, None] - p[..., None, :]


def _residuals(s, q):
    """||s1 * q1 - s2 * q2||_F, or ||s1 * q1||_F, per row of (C, terms, n, n)
    stacks. As np.linalg.norm: sqrt(re.re + im.im) on the strided views, by a
    (C, 1, L) @ (C, L, 1) matmul that calls the same BLAS dot: the same floats."""
    k = s[:, 0] * q[:, 0]
    if s.shape[1] > 1:
        k -= s[:, 1] * q[:, 1]
    re, im = (x.reshape(len(k), 1, -1) for x in (k.real, k.imag))
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel()


def _residual(u, p_masks, d_masks):
    """_residuals of one row. Entries near the float limit overflow the
    products: the residual is then nan or inf, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_residuals(_difference([p_masks]), _conjugated(u, [d_masks]))[0])


def commuting_residual(u, p_mask, d_mask):
    """||[diag(p), U diag(d) U*]||_F."""
    return _residual(u, [p_mask], [d_mask])


def block_residual(u, p1_mask, p2_mask, d1_mask, d2_mask):
    """||[P1, U diag(d1) U*] - [P2, U diag(d2) U*]||_F."""
    return _residual(u, [p1_mask, p2_mask], [d1_mask, d2_mask])


def _check_certified(res, what, policy):
    """Raise unless the residual res of a spec is within policy.tol_unitary;
    a residual that overflowed gets its own message."""
    if not np.isfinite(res):
        raise ValueError(f"uncertified {what}: the residual overflows ({res:.3e}): "
                         f"matrix entries are too large")
    if not res <= policy.tol_unitary:
        raise ValueError(f"uncertified {what}: residual {res:.3e}")


def _mask_fields(cls):
    """The *_mask field names of a spec class, in order: the p masks, then
    as many d masks (its init fields are base, the masks, residual)."""
    return cls.__match_args__[1:-1]


def _spec(cls, residual, u, masks):
    """A cls spec on u with the measured residual, after checking the masks:
    0/1 of length n, non-trivial, and disjoint within each side."""
    u = as_matrix(u)
    n = u.shape[0]
    masks = [as_mask(m, n) for m in masks]
    for m, name in zip(masks, _mask_fields(cls)):
        if m.sum() in (0, n):
            raise ValueError(f"{name} must not be all-0 or all-1")
    half = len(masks) // 2
    if any(np.sum(side, axis=0).max() > 1 for side in (masks[:half], masks[half:])):
        raise ValueError("masks within each side must be disjoint")
    return cls(u, *masks, residual(u, *masks))


def commuting_pair_spec(u, p_mask, d_mask):
    """Build a CommutingPairSpec with the measured residual; both masks must
    be non-trivial."""
    return _spec(CommutingPairSpec, commuting_residual, u, (p_mask, d_mask))


def block_pair_spec(u, p1_mask, p2_mask, d1_mask, d2_mask):
    """Build a BlockPairSpec with the measured residual; masks must be
    pairwise disjoint within each side and non-trivial."""
    return _spec(BlockPairSpec, block_residual, u, (p1_mask, p2_mask, d1_mask, d2_mask))


# theorem tag -> (spec class, spec builder)
_KINDS = {
    "constr1": (CommutingPairSpec, commuting_pair_spec),
    "constr2": (BlockPairSpec, block_pair_spec),
}


# --- exhaustive finders -------------------------------------------------------
#
# Both finders scan with subset tests on edge bitsets, tabulated only for the
# masks each scan reads and tested a word at a time on the pairs still left.
# [P, Q] is +-Q on the edges (i, j), i < j, that cross the mask of P and 0 on
# the others, and Q[m] = U diag(m) U* is linear in m, so Q[d1] + Q[d2] =
# Q[d1 | d2] for disjoint masks: every zero test is "these edges vanish in Q[m]".
#
# The scan candidates then pass an exact filter: the residual of the public
# function, kept if <= tol_unitary. _find stacks q = U diag(d) U* and
# s = p[:, None] - p[None, :] once over the distinct masks, then hands chunks
# of candidates to _residuals, the kernel of block_residual and
# commuting_residual: the floats are theirs, bit for bit.

def _bitsets(flags):
    """Rows of per-edge flags packed into rows of uint64 words."""
    rows, n_edges = flags.shape
    padded = np.zeros((rows, -(-n_edges // 64) * 64), dtype=bool)
    padded[:, :n_edges] = flags
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _edge_tables(u, tol, masks):
    """Tables over the edges (i, j), i < j, for the masks a scan reads:

    zero[r]  = bitset of the edges e with |Q[masks[r]]_e|^2 <= 2 tol^2
    cross[r] = bitset of the edges that cross masks[r]

    A bitset is a row of uint64 words; n = 14 has 91 edges.
    """
    n = u.shape[0]
    ei, ej = np.triu_indices(n, k=1)
    n_edges = len(ei)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    rows = bits.astype(np.float64)
    # Q[m] on edge e is the sum of u_ik conj(u_jk) over k in m: rows[m] @ terms
    # gives its real parts, then its imaginary parts
    terms = u[ei, :] * np.conj(u[ej, :])
    terms = np.concatenate([terms.real, terms.imag]).T
    # The gate is per edge and needs no slack. The squared residual of a pair
    # or quadruple is twice a sum of |Q_e|^2 over edges (for a quadruple Q is
    # Q[d1], Q[d2] or Q[d1 | d2] by zone), so a combination the exact residual
    # accepts has every term <= tol^2 / 2. This Q differs from the dense Q of
    # the residual only by rounding (~1e-16), so the scans keep every such
    # combination and the finders return exactly what the exact filter accepts.
    flags = np.empty((len(rows), n_edges), dtype=bool)
    for lo in range(0, len(rows), 2048):
        q = rows[lo:lo + 2048] @ terms
        q *= q
        np.less_equal(q[:, :n_edges] + q[:, n_edges:], 2.0 * tol * tol,
                      out=flags[lo:lo + 2048])
    return _bitsets(flags), _bitsets(bits[:, ei] != bits[:, ej])


def _covering(sets, rows):
    """Index pairs (i, r) with bitset sets[i] a subset of bitset rows[r].

    The subset test runs once per distinct row, over chunks of sets: word 0
    on every pair of a chunk, each later word on the pairs still left. Over
    CANDIDATE_CAP pairs raise ValueError before any is expanded.
    """
    if not len(sets) or not len(rows):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    order = np.lexsort(rows.T)
    rows = rows[order]
    first = np.flatnonzero(np.append(True, np.any(rows[1:] != rows[:-1], axis=1)))
    size = np.diff(np.append(first, len(rows)))
    holes = ~rows[first]
    step = max(1, (1 << 20) // holes.size)
    found_i, found_k, total = [], [], 0
    for lo in range(0, len(sets), step):
        chunk = sets[lo:lo + step]
        i, k = np.nonzero((chunk[:, None, 0] & holes[None, :, 0]) == 0)
        for w in range(1, holes.shape[1]):
            kept = (chunk[i, w] & holes[k, w]) == 0
            i, k = i[kept], k[kept]
        total += int(size[k].sum())
        if total > CANDIDATE_CAP:
            raise ValueError(f"the mask scan found more than {CANDIDATE_CAP} candidates; "
                             "a smaller tol_unitary admits fewer")
        found_i.append(i + lo)
        found_k.append(k)
    i, k = np.concatenate(found_i), np.concatenate(found_k)
    # expand each hit on a distinct row to every row equal to it
    size = size[k]
    start = first[k] - (np.cumsum(size) - size)
    return np.repeat(i, size), order[np.repeat(start, size) + np.arange(size.sum())]


def _disjoint_pairs(n):
    """Every ordered pair (a, b) of disjoint n-bit masks, as two int64 arrays."""
    a = b = np.zeros(1, dtype=np.int64)
    for k in range(n):
        a, b = np.concatenate([a, a | (1 << k), a]), np.concatenate([b, b, b | (1 << k)])
    return a, b


def _scan_commuting_pairs(u, tol):
    """Candidate pairs (p, d) of canonical bitmasks (bit 0 clear, not 0) as a
    (K, 2) array: [diag(p), Q[d]] = 0 iff Q[d] vanishes on every edge
    crossing p. Only the canonical masks are tabulated."""
    canon = np.arange(2, (1 << len(u)) - 1, 2)
    zero, cross = _edge_tables(u, tol, canon)
    ds = zero.any(axis=1)
    i, k = _covering(cross, zero[ds])
    return np.stack([canon[i], canon[ds][k]], axis=1)


def _scan_block_pairs(u, tol):
    """Candidate quadruples (p1, p2, d1, d2) of bitmasks as a (K, 4) array:
    p1 < p2, all four masks proper, each side disjoint, (p2, d2) never
    (~p1, ~d1), and [P1, Q[d1]] - [P2, Q[d2]] zero on every edge by the gate.

    With r = ~(p1 | p2), that difference is Q[d1] on the edges between p1
    and r, Q[d2] on those between p2 and r, and Q[d1 | d2] on those between
    p1 and p2. Every mask is tabulated: d1, d2 and p1 range over all of them.
    """
    full = (1 << len(u)) - 1
    zero, cross = _edge_tables(u, tol, np.arange(full + 1))
    a, b = _disjoint_pairs(len(u))
    ps = (a > 0) & (a < b)
    ds = (a > 0) & (b > 0)
    d1, d2 = a[ds], b[ds]
    d12 = d1 | d2
    # r empty (p2 = ~p1): only the edges crossing p1 are left, and every split
    # of a d1 | d2 other than full is a candidate; the splits of full are the
    # degenerate complement pattern
    p1 = a[ps & ((a | b) == full)]
    keep = (d12 != full) & zero[d12].any(axis=1)
    i, k = _covering(cross[p1], zero[d12[keep]])
    whole = np.stack([p1[i], full ^ p1[i], d1[keep][k], d2[keep][k]], axis=1)
    # r non-empty: every zone is non-empty, so d1, d2 and d1 | d2 each need a
    # vanishing edge
    pairs = ps & ((a | b) != full)
    p1, p2 = a[pairs], b[pairs]
    c1, c2 = cross[p1], cross[p2]
    sets = np.concatenate([c1 & ~c2, c2 & ~c1, c1 & c2], axis=1)
    z1, z2, z12 = zero[d1], zero[d2], zero[d12]
    keep = z1.any(axis=1) & z2.any(axis=1) & z12.any(axis=1)
    i, k = _covering(sets, np.concatenate([z1, z2, z12], axis=1)[keep])
    split = np.stack([p1[i], p2[i], d1[keep][k], d2[keep][k]], axis=1)
    return np.concatenate([whole, split])


def _in_index_order(found, n):
    """The distinct bitmasks of a (K, c) array as 0/1 int8 rows sorted by
    their index lists, and its rows as indices into them sorted column by
    column: finder order."""
    values, inv = np.unique(found, return_inverse=True)
    rows = ((values[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    # each index list padded with -1, which sorts before any index, so a
    # lexsort of the padded lists is Python's list order
    padded = np.sort(np.where(rows == 1, np.arange(n), n), axis=1)
    padded[padded == n] = -1
    order = np.lexsort(padded.T[::-1])
    keys = np.argsort(order)[inv.reshape(found.shape)]
    return rows[order], keys[np.lexsort(keys.T[::-1])]


def _find(u, policy, cap, scan, spec, name):
    """The witnesses of one kind on u: scan candidates (p masks, then as
    many d masks) in index order, kept when the residual of the matching
    public function is <= policy.tol_unitary."""
    u = as_matrix(u)
    n = u.shape[0]
    if n > cap:
        raise ValueError(f"order {n} exceeds the exhaustive cap {cap}")
    if n < 2:
        return []
    if not verify_biunitary(u, policy).is_biunitary:
        raise ValueError(f"{name} requires a biunitary matrix")
    tol = policy.tol_unitary
    found = scan(u, tol)
    if not len(found):
        return []
    masks, keys = _in_index_order(found, n)
    masks.flags.writeable = False
    diffs, projs = _difference(masks), _conjugated(u, masks)
    rows = list(masks)
    half = keys.shape[1] // 2
    step = (1 << 15) // (n * n)
    out = []
    for lo in range(0, len(keys), step):
        chunk = keys[lo:lo + step]
        res = _residuals(diffs[chunk[:, :half]], projs[chunk[:, half:]])
        kept = res <= tol
        out += [spec(u, *[rows[k] for k in key], r)
                for key, r in zip(chunk[kept].tolist(), res[kept].tolist())]
    return out


def find_commuting_pairs(u, policy=DEFAULT_POLICY):
    """All non-trivial (p_mask, d_mask) with [diag(p), U diag(d) U*] = 0
    within policy.tol_unitary.

    Exhaustive over 0/1 masks; complement duplicates are removed on each side
    (both [~p, q] and [p, ~q] vanish together with [p, q]) by keeping the
    representative that excludes index 0. Only n <= 14 is accepted.
    """
    return _find(u, policy, COMMUTING_CAP, _scan_commuting_pairs, CommutingPairSpec,
                 "find_commuting_pairs")


def find_block_pairs(u, policy=DEFAULT_POLICY):
    """All certified block quadruples (p1, p2 | d1, d2) on u, up to the
    (1 <-> 2) swap and excluding the degenerate complement pattern
    (p2, d2) = (~p1, ~d1).

    Exhaustive over disjoint 0/1 mask pairs; only n <= 10 is accepted.
    """
    return _find(u, policy, BLOCK_CAP, _scan_block_pairs, BlockPairSpec,
                 "find_block_pairs")


# --- family constructors ------------------------------------------------------

def _sides(spec):
    """The p masks and the d masks of a spec, one of each per side."""
    masks = [getattr(spec, f) for f in _mask_fields(type(spec))]
    half = len(masks) // 2
    return masks[:half], masks[half:]


def _block_phase(spec, lam, what, policy):
    """(I + (lam - 1) P1 q1 + (conj(lam) - 1) P2 q2) U from a certified spec,
    with the second term only for a block quadruple; verified biunitary."""
    u = spec.base
    ps, ds = _sides(spec)
    _check_certified(_residual(u, ps, ds), what, policy)
    if lam == 1.0:
        return u.copy()
    f = np.eye(len(u))
    for c, p, d in zip((lam, np.conj(lam)), ps, ds):
        f = f + (c - 1.0) * projection_matrix(p) @ _conjugated(u, d)
    v = f @ u
    verd = verify_biunitary(v, policy)
    if not verd.is_biunitary:
        raise ValueError(
            "family member failed biunitarity "
            f"(unitarity residual {verd.max_unitarity_residual:.3e})"
        )
    return v


def constr1_family(spec, t, policy=DEFAULT_POLICY):
    """Family member exp(i t P q) U from a certified commuting pair.

    P q is a projection (the factors commute), so exp(i t P q) is the
    block-phase factor I + (e^{it} - 1) P q: 2*pi-periodic in t.
    """
    if not np.isfinite(t):
        raise ValueError(f"constr1_family needs a finite t, got t={t}")
    return _block_phase(spec, np.exp(1j * t), "commuting pair", policy)


def constr2_family(spec, lam, policy=DEFAULT_POLICY):
    """Family member (I + (lam-1) P1 q1 + (conj(lam)-1) P2 q2) U from a
    certified block quadruple; |lam| must be 1.

    Entrywise this multiplies the (p1 x d1) block of U by lam and the
    (p2 x d2) block by conj(lam), leaving all moduli unchanged.
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= policy.tol_entry:
        raise ValueError(f"|lambda| = {abs(lam)} is not 1 within tolerance")
    return _block_phase(spec, lam, "block quadruple", policy)


def verify_unitarity_identity(spec):
    """||P1 q1 P1 + P2 q2 P2 - q1 P1 - P2 q2||_F.

    This combination vanishes whenever [P1, q1] = [P2, q2] with disjoint
    projections, and is what makes the block-phase factor unitary.
    """
    ps, ds = _sides(spec)
    (p1, q1), (p2, q2) = [(projection_matrix(p), _conjugated(spec.base, d))
                          for p, d in zip(ps, ds)]
    return frobenius_norm(p1 @ q1 @ p1 + p2 @ q2 @ p2 - q1 @ p1 - p2 @ q2)


# --- serialization ------------------------------------------------------------

def spec_to_json_dict(spec, base_ref):
    """JSON form of a family spec; matrices are carried by reference. Key
    order is part of the wire format: theorem, base, the masks as index
    lists in field order, residual."""
    for tag, (cls, _) in _KINDS.items():
        if isinstance(spec, cls):
            doc = {"theorem": tag, "base": base_ref}
            for f in _mask_fields(cls):
                doc[f[:-5]] = mask_indices(getattr(spec, f))
            doc["residual"] = float(spec.residual)
            return doc
    raise TypeError(f"not a family spec: {type(spec)}")


def spec_from_json_dict(doc, base):
    """Rebuild a spec against the given base matrix; the residual is
    recomputed, not trusted."""
    if not isinstance(doc, dict):
        raise ValueError(f"a family spec is a JSON object, not {type(doc).__name__}")
    base = as_matrix(base)
    tag = doc.get("theorem")
    if not isinstance(tag, str) or tag not in _KINDS:
        raise ValueError(f"unknown family spec tag {tag!r}")
    cls, build = _KINDS[tag]
    keys = [f[:-5] for f in _mask_fields(cls)]
    for key in keys:
        if key not in doc:
            raise ValueError(f"{tag} spec has no {key!r} mask")
    return build(base, *(mask_from_indices(doc[key], base.shape[0]) for key in keys))
