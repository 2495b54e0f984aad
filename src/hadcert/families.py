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

The finders are exhaustive over 0/1 masks (caps: n <= 14 for pairs, n <= 10
for quadruples). Quadruples of the shape (p, ~p, d, ~d) satisfy the identity
for every biunitary and generate only diagonal-phase equivalences, so they
are excluded as degenerate.
"""

from dataclasses import dataclass

import numpy as np

from .cmatrix import (
    DEFAULT_POLICY,
    as_mask,
    as_matrix,
    expi_hermitian,
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


def commuting_residual(u, p_mask, d_mask):
    """||[diag(p), U diag(d) U*]||_F."""
    return float(_residuals(_difference([[p_mask]]), _conjugated(u, [[d_mask]]))[0])


def block_residual(u, p1_mask, p2_mask, d1_mask, d2_mask):
    """||[P1, U diag(d1) U*] - [P2, U diag(d2) U*]||_F."""
    return float(_residuals(_difference([[p1_mask, p2_mask]]),
                            _conjugated(u, [[d1_mask, d2_mask]]))[0])


def _check_nontrivial(mask, name):
    s = int(np.sum(mask))
    if s == 0 or s == mask.size:
        raise ValueError(f"{name} must not be all-0 or all-1")


def commuting_pair_spec(u, p_mask, d_mask):
    """Build a CommutingPairSpec with the measured residual."""
    u = as_matrix(u)
    n = u.shape[0]
    p = as_mask(p_mask, n)
    d = as_mask(d_mask, n)
    _check_nontrivial(p, "p_mask")
    _check_nontrivial(d, "d_mask")
    return CommutingPairSpec(u, p, d, commuting_residual(u, p, d))


def block_pair_spec(u, p1_mask, p2_mask, d1_mask, d2_mask):
    """Build a BlockPairSpec with the measured residual; masks must be
    pairwise disjoint within each side and non-trivial."""
    u = as_matrix(u)
    n = u.shape[0]
    p1 = as_mask(p1_mask, n)
    p2 = as_mask(p2_mask, n)
    d1 = as_mask(d1_mask, n)
    d2 = as_mask(d2_mask, n)
    for m, name in ((p1, "p1_mask"), (p2, "p2_mask"), (d1, "d1_mask"), (d2, "d2_mask")):
        _check_nontrivial(m, name)
    if np.any(p1 * p2) or np.any(d1 * d2):
        raise ValueError("masks within each side must be disjoint")
    return BlockPairSpec(u, p1, p2, d1, d2, block_residual(u, p1, p2, d1, d2))


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
    """The distinct bitmasks of a (K, c) array, and its rows as indices into
    them sorted by the masks' index lists, column by column: finder order."""
    values, inv = np.unique(found, return_inverse=True)
    indices = [[k for k in range(n) if (m >> k) & 1] for m in values.tolist()]
    rank = np.empty(len(values), dtype=np.intp)
    rank[sorted(range(len(values)), key=indices.__getitem__)] = np.arange(len(values))
    keys = inv.reshape(found.shape)
    return values, keys[np.lexsort(rank[keys].T[::-1])]


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
    values, keys = _in_index_order(found, n)
    masks = ((values[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    diffs, projs = _difference(masks), _conjugated(u, masks)
    half = keys.shape[1] // 2
    step = (1 << 15) // (n * n)
    out = []
    for lo in range(0, len(keys), step):
        chunk = keys[lo:lo + step]
        res = _residuals(diffs[chunk[:, :half]], projs[chunk[:, half:]])
        kept = res <= tol
        # the spec fields column by column: each mask, then the residual
        fields = [list(m) for m in masks[chunk[kept]].transpose(1, 0, 2)]
        out += [spec(u, *f) for f in zip(*fields, res[kept].tolist())]
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

def constr1_family(spec, t, policy=DEFAULT_POLICY):
    """Family member exp(i t p q) U from a certified commuting pair.

    p q is Hermitian (the factors commute), so the conjugating factor is
    unitary to rounding; the result is verified biunitary before returning.
    """
    u = spec.base
    res = commuting_residual(u, spec.p_mask, spec.d_mask)
    if res > policy.tol_unitary:
        raise ValueError(f"uncertified commuting pair: residual {res:.3e}")
    if t == 0.0:
        return u.copy()
    h = projection_matrix(spec.p_mask) @ _conjugated(u, spec.d_mask)
    v = expi_hermitian(h, t, policy) @ u
    verd = verify_biunitary(v, policy)
    if not verd.is_biunitary:
        raise ValueError(
            f"family member failed biunitarity at t={t} "
            f"(unitarity residual {verd.max_unitarity_residual:.3e})"
        )
    return v


def constr2_family(spec, lam, policy=DEFAULT_POLICY):
    """Family member (I + (lam-1) P1 q1 + (conj(lam)-1) P2 q2) U from a
    certified block quadruple; |lam| must be 1.

    Entrywise this multiplies the (p1 x d1) block of U by lam and the
    (p2 x d2) block by conj(lam), leaving all moduli unchanged.
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= policy.tol_entry:
        raise ValueError(f"|lambda| = {abs(lam)} is not 1 within tolerance")
    u = spec.base
    res = block_residual(u, spec.p1_mask, spec.p2_mask, spec.d1_mask, spec.d2_mask)
    if res > policy.tol_unitary:
        raise ValueError(f"uncertified block quadruple: residual {res:.3e}")
    if lam == 1.0:
        return u.copy()
    n = u.shape[0]
    p1 = projection_matrix(spec.p1_mask)
    p2 = projection_matrix(spec.p2_mask)
    q1 = _conjugated(u, spec.d1_mask)
    q2 = _conjugated(u, spec.d2_mask)
    v = (np.eye(n) + (lam - 1.0) * p1 @ q1 + (np.conj(lam) - 1.0) * p2 @ q2) @ u
    verd = verify_biunitary(v, policy)
    if not verd.is_biunitary:
        raise ValueError(
            f"family member failed biunitarity "
            f"(unitarity residual {verd.max_unitarity_residual:.3e})"
        )
    return v


def verify_unitarity_identity(spec):
    """||P1 q1 P1 + P2 q2 P2 - q1 P1 - P2 q2||_F.

    This combination vanishes whenever [P1, q1] = [P2, q2] with disjoint
    projections, and is what makes the block-phase factor unitary.
    """
    u = spec.base
    p1 = projection_matrix(spec.p1_mask)
    p2 = projection_matrix(spec.p2_mask)
    q1 = _conjugated(u, spec.d1_mask)
    q2 = _conjugated(u, spec.d2_mask)
    return frobenius_norm(p1 @ q1 @ p1 + p2 @ q2 @ p2 - q1 @ p1 - p2 @ q2)


# --- serialization ------------------------------------------------------------

def spec_to_json_dict(spec, base_ref):
    """JSON form of a family spec; matrices are carried by reference."""
    if isinstance(spec, CommutingPairSpec):
        return {
            "theorem": "constr1",
            "base": base_ref,
            "p": mask_indices(spec.p_mask),
            "d": mask_indices(spec.d_mask),
            "residual": float(spec.residual),
        }
    if isinstance(spec, BlockPairSpec):
        return {
            "theorem": "constr2",
            "base": base_ref,
            "p1": mask_indices(spec.p1_mask),
            "p2": mask_indices(spec.p2_mask),
            "d1": mask_indices(spec.d1_mask),
            "d2": mask_indices(spec.d2_mask),
            "residual": float(spec.residual),
        }
    raise TypeError(f"not a family spec: {type(spec)}")


def spec_from_json_dict(doc, base):
    """Rebuild a spec against the given base matrix; the residual is
    recomputed, not trusted."""
    if not isinstance(doc, dict):
        raise ValueError(f"a family spec is a JSON object, not {type(doc).__name__}")
    base = as_matrix(base)
    tag = doc.get("theorem")

    def masks(*fields):
        for field in fields:
            if field not in doc:
                raise ValueError(f"{tag} spec has no {field!r} mask")
        return [mask_from_indices(doc[field], base.shape[0]) for field in fields]

    if tag == "constr1":
        return commuting_pair_spec(base, *masks("p", "d"))
    if tag == "constr2":
        return block_pair_spec(base, *masks("p1", "p2", "d1", "d2"))
    raise ValueError(f"unknown family spec tag {tag!r}")
