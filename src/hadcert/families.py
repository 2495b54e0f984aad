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
of one table of its distinct masks. One table, theorem tag -> (spec class,
spec builder, kind name), gives a kind its JSON tag (keys: the unsuffixed
*_mask fields), its name in messages and the one constructor that takes it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .cmatrix import DEFAULT_POLICY, _number, as_mask, as_matrix, mask_from_indices, mask_indices
from .hadamard import _require_biunitary

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
# elements of the largest temporary of one subset-test step
_STEP = 1 << 20


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
    """_residuals of one row, and the q = U diag(d) U* of its d masks as a
    stack. Entries near the float limit overflow the products: the residual
    is then nan or inf, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = _conjugated(u, [d_masks])
        return float(_residuals(_difference([p_masks]), q)[0]), q[0]


def commuting_residual(u, p_mask, d_mask):
    """||[diag(p), U diag(d) U*]||_F."""
    return _residual(u, [p_mask], [d_mask])[0]


def block_residual(u, p1_mask, p2_mask, d1_mask, d2_mask):
    """||[P1, U diag(d1) U*] - [P2, U diag(d2) U*]||_F."""
    return _residual(u, [p1_mask, p2_mask], [d1_mask, d2_mask])[0]


def _check_certified(spec, policy):
    """Raise unless the residual of spec, recomputed from its masks, is within
    policy.tol_unitary; a residual that overflowed gets its own message.
    Returns the q = U diag(d) U* of the spec's d masks, one per side."""
    res, q = _residual(spec.base, *_sides(spec))
    if not res <= policy.tol_unitary:
        why = (f"the residual overflows ({res:.3e}): matrix entries are too large"
               if not np.isfinite(res) else f"residual {res:.3e}")
        raise ValueError(f"uncertified {_KINDS[_kind(spec)][2]}: {why}")
    return q


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


# theorem tag -> (spec class, spec builder, kind name)
_KINDS = {
    "constr1": (CommutingPairSpec, commuting_pair_spec, "commuting pair"),
    "constr2": (BlockPairSpec, block_pair_spec, "block quadruple"),
}


def _kind(spec):
    """The theorem tag of spec's class, or None for what is no family spec."""
    return next((tag for tag, (cls, *_) in _KINDS.items() if isinstance(spec, cls)), None)


# --- exhaustive finders -------------------------------------------------------
#
# Both finders scan with subset tests on edge bitsets, tabulated only for the
# masks each scan reads. _covering sorts the distinct bitsets word 0 first, so
# those that share word 0 are one run: it tests word 0 once per run, and each
# later word on the pairs still left.
# [P, Q] is +-Q on the edges (i, j), i < j, that cross the mask of P and 0 on
# the others, and Q[m] = U diag(m) U* is linear in m, so Q[d1] + Q[d2] =
# Q[d1 | d2] for disjoint masks: every zero test is "these edges vanish in Q[m]".
#
# What depends on the order alone is a scan plan, built on the first call at
# that order and kind, cached for the process and read-only: the masks a scan
# reads (int16), their 0/1 rows (int8), their cross bitsets and, for the
# block scan, the disjoint d pairs and the p pairs with their zone bitsets.
# The caps bound the orders: the largest plan (block, n = 10) takes 1.1 MB,
# all of them 2.2 MB. A finder call builds only what depends on U: the zero
# bitsets, in blocks of 256 masks that stay in cache, then the subset tests.
#
# The scan candidates then pass an exact filter: the residual of the public
# function, kept if <= tol_unitary. _find stacks q = U diag(d) U* and
# s = p[:, None] - p[None, :] once over the distinct masks, then gathers
# chunks of candidates into two buffers and hands them to _residuals, the
# kernel of block_residual and commuting_residual: the floats are theirs, bit
# for bit. _new_specs builds the specs it keeps.

def _read_only(*arrays):
    """The arrays, each marked read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _mask_rows(masks, n):
    """The 0/1 int8 rows of an array of n-bit masks: row[k] is bit k."""
    return ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)


def _ranges(start, count):
    """The index ranges start[j], ..., start[j] + count[j] - 1, concatenated."""
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())


@functools.cache
def _edges(n):
    """The edges (i, j), i < j, of order n as two read-only index arrays."""
    return _read_only(*np.triu_indices(n, k=1))


def _cross(rows):
    """Bitsets of the edges that cross each mask, from its 0/1 row. A bitset
    is a row of uint64 words; n = 14 has 91 edges."""
    ei, ej = _edges(rows.shape[1])
    padded = np.zeros((len(rows), -(-len(ei) // 64) * 64), dtype=bool)
    padded[:, :len(ei)] = rows[:, ei] != rows[:, ej]
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _edge_tables(u, tol, rows):
    """zero[r] = bitset of the edges e with |Q[m]_e|^2 <= 2 tol^2, for the
    mask m whose 0/1 row is rows[r] (edges and bitsets as in _cross).

    The products run 256 masks at a time, the real and the imaginary half
    each into a contiguous buffer allocated once (about 0.4 MB at n = 14), so
    they stay in L2 and fault in no new pages. A block of two or more masks
    rounds each Q entry as a product over more masks does; a block of one
    goes through gemv, and the scans' row counts (2^n and 2^(n-1) - 1)
    leave none behind unless it is the only mask.
    """
    n = u.shape[0]
    ei, ej = _edges(n)
    n_edges = len(ei)
    # Q[m] on edge e is the sum of u_ik conj(u_jk) over k in m: rows[m] @ terms
    # gives its real parts, then its imaginary parts, one half of terms each
    terms = u[ei, :] * np.conj(u[ej, :])
    terms = np.concatenate([terms.real, terms.imag]).T
    # The gate is per edge and needs no slack. The squared residual of a pair
    # or quadruple is twice a sum of |Q_e|^2 over edges (for a quadruple Q is
    # Q[d1], Q[d2] or Q[d1 | d2] by zone), so a combination the exact residual
    # accepts has every term <= tol^2 / 2. This Q differs from the dense Q of
    # the residual only by rounding (~1e-16), so the scans keep every such
    # combination and the finders return exactly what the exact filter accepts.
    gate = 2.0 * tol * tol
    size = max(1, min(len(rows), 256))
    block = np.empty((size, n))
    q = np.empty((2, size, n_edges))
    flags = np.empty((size, n_edges), dtype=bool)
    zero = np.zeros((len(rows), -(-n_edges // 64)), dtype=np.uint64)
    zero_bytes = zero.view(np.uint8)[:, :-(-n_edges // 8)]
    for lo in range(0, len(rows), size):
        k = min(size, len(rows) - lo)
        block[:k] = rows[lo:lo + k]
        re, im = q[0, :k], q[1, :k]
        np.matmul(block[:k], terms[:, :n_edges], out=re)
        np.matmul(block[:k], terms[:, n_edges:], out=im)
        np.multiply(q[:, :k], q[:, :k], out=q[:, :k])
        np.add(re, im, out=re)
        np.less_equal(re, gate, out=flags[:k])
        zero_bytes[lo:lo + k] = np.packbits(flags[:k], axis=1, bitorder="little")
    return zero


def _covering(sets, rows):
    """Index pairs (i, r) with bitset sets[i] a subset of bitset rows[r],
    ordered by i, then by rows[r] in lexsort order with word 0 first, then
    by r.

    The test runs on the distinct rows sorted word 0 first, so the rows that
    share a word-0 value are one run (a block row is a (z1, z2, z12) triple
    and word 0 is z1, which takes at most 2^n values). Over chunks of sets,
    word 0 is tested once per run; each hit is expanded to the distinct rows
    of its run, about 2^20 pairs at a time, and each later word is tested on
    the pairs still left. Over CANDIDATE_CAP pairs, counting equal rows,
    raise ValueError before any is expanded to them.
    """
    if not len(sets) or not len(rows):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.flatnonzero(np.append(True, (rows[1:] != rows[:-1]).any(axis=1)))
    size = np.append(first[1:], len(rows)) - first
    holes = ~rows[first]
    # run g is holes[start[g]:start[g] + count[g]], whose word 0 is values[g]
    start = np.flatnonzero(np.append(True, holes[1:, 0] != holes[:-1, 0]))
    values, count = holes[start, 0], np.append(start[1:], len(holes)) - start
    step = max(1, _STEP // len(values))
    found_i, found_k, total = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], 0
    for lo in range(0, len(sets), step):
        chunk = sets[lo:lo + step]
        # a row of the test per run, over the chunk's word 0 made contiguous;
        # read through the transpose, the hits come by set, then by run
        i, g = np.nonzero(((values[:, None] & np.ascontiguousarray(chunk[:, 0])) == 0).T)
        if not len(g):
            continue
        ends = np.cumsum(count[g])
        cuts = np.searchsorted(ends, np.arange(0, ends[-1], _STEP), side="right")
        for a, b in zip(cuts, np.append(cuts[1:], len(g))):
            # one piece: each hit's set against every distinct row of its run
            n_pairs = count[g[a:b]]
            pi, k = np.repeat(i[a:b], n_pairs), _ranges(start[g[a:b]], n_pairs)
            for w in range(1, holes.shape[1]):
                kept = (chunk[pi, w] & holes[k, w]) == 0
                pi, k = pi[kept], k[kept]
            total += int(size[k].sum())
            if total > CANDIDATE_CAP:
                raise ValueError(f"the mask scan found more than {CANDIDATE_CAP} candidates; "
                                 "a smaller tol_unitary admits fewer")
            found_i.append(pi + lo)
            found_k.append(k)
    i, k = np.concatenate(found_i), np.concatenate(found_k)
    # expand each hit on a distinct row to every row equal to it
    return np.repeat(i, size[k]), order[_ranges(first[k], size[k])]


def _disjoint_pairs(n):
    """Every ordered pair (a, b) of disjoint n-bit masks, as two int16 arrays."""
    a = b = np.zeros(1, dtype=np.int16)
    for k in range(n):
        a, b = np.concatenate([a, a | (1 << k), a]), np.concatenate([b, b, b | (1 << k)])
    return a, b


@functools.cache
def _commuting_plan(n):
    """The canonical masks of order n (bit 0 clear, not 0: one of each
    complement pair), their 0/1 rows and their cross bitsets; read-only."""
    canon = np.arange(2, (1 << n) - 1, 2, dtype=np.int16)
    rows = _mask_rows(canon, n)
    return _read_only(canon, rows, _cross(rows))


@functools.cache
def _block_plan(n):
    """The order-n tables of the block scan, read-only, masks as int16:

    rows          the 0/1 row of every mask, the masks the scan tabulates
    d1, d2, d12   each ordered pair of disjoint non-empty masks, and d1 | d2
    whole, cross  each p1 > 0 with p1 < ~p1, and its cross bitset
    p1, p2, sets  each p1 < p2, p1 > 0, disjoint, with r = ~(p1 | p2) not
                  empty, and its edges between p1 and r, between p2 and r
                  and between p1 and p2, as three bitsets
    """
    full = (1 << n) - 1
    rows = _mask_rows(np.arange(full + 1), n)
    cross = _cross(rows)
    a, b = _disjoint_pairs(n)
    ds = (a > 0) & (b > 0)
    d1, d2 = a[ds], b[ds]
    ps = (a > 0) & (a < b)
    whole = a[ps & ((a | b) == full)]
    pairs = ps & ((a | b) != full)
    p1, p2 = a[pairs], b[pairs]
    c1, c2 = cross[p1], cross[p2]
    sets = np.concatenate([c1 & ~c2, c2 & ~c1, c1 & c2], axis=1)
    return _read_only(rows, d1, d2, d1 | d2, whole, cross[whole], p1, p2, sets)


def _scan_commuting_pairs(u, tol):
    """Candidate pairs (p, d) of canonical bitmasks (bit 0 clear, not 0) as a
    (K, 2) array: [diag(p), Q[d]] = 0 iff Q[d] vanishes on every edge
    crossing p. Only the canonical masks are tabulated."""
    canon, rows, cross = _commuting_plan(len(u))
    zero = _edge_tables(u, tol, rows)
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
    rows, d1, d2, d12, whole, cross, p1, p2, sets = _block_plan(len(u))
    zero = _edge_tables(u, tol, rows)
    vanish = zero.any(axis=1)
    # r empty (p2 = ~p1): only the edges crossing p1 are left, and every split
    # of a d1 | d2 other than full is a candidate; the splits of full are the
    # degenerate complement pattern
    keep = (d12 != full) & vanish[d12]
    i, k = _covering(cross, zero[d12[keep]])
    found = [np.stack([whole[i], full ^ whole[i], d1[keep][k], d2[keep][k]], axis=1)]
    # r non-empty: every zone is non-empty, so d1, d2 and d1 | d2 each need a
    # vanishing edge
    keep = vanish[d1] & vanish[d2] & vanish[d12]
    d1, d2, d12 = d1[keep], d2[keep], d12[keep]
    i, k = _covering(sets, np.concatenate([zero[d1], zero[d2], zero[d12]], axis=1))
    found.append(np.stack([p1[i], p2[i], d1[k], d2[k]], axis=1))
    return np.concatenate(found)


def _in_index_order(found, n):
    """The distinct bitmasks of a (K, c) array as 0/1 int8 rows sorted by
    their index lists, and its rows as indices into them sorted column by
    column: finder order."""
    values, inv = np.unique(found, return_inverse=True)
    rows = _mask_rows(values, n)
    # each index list padded with -1, which sorts before any index, so a
    # lexsort of the padded lists is Python's list order
    padded = np.sort(np.where(rows == 1, np.arange(n), n), axis=1)
    padded[padded == n] = -1
    order = np.lexsort(padded.T[::-1])
    keys = np.argsort(order)[inv.reshape(found.shape)]
    return rows[order], keys[np.lexsort(keys.T[::-1])]


def _new_specs(cls, u, rows, keys, residuals):
    """A cls spec on u per (key, residual), with the masks rows[k] for k in
    key: the instance cls(u, *masks, residual) builds, filled field by field
    into its __dict__ instead of by the frozen __init__'s object.__setattr__
    per field, which took most of the exact filter's time."""
    names = _mask_fields(cls)
    new = object.__new__
    out = []
    for key, r in zip(keys, residuals):
        spec = new(cls)
        fields = spec.__dict__
        fields["base"] = u
        for name, k in zip(names, key):
            fields[name] = rows[k]
        fields["residual"] = r
        out.append(spec)
    return out


def _find(u, policy, cap, scan, spec, name):
    """The witnesses of one kind on u: scan candidates (p masks, then as
    many d masks) in index order, kept when the residual of the matching
    public function is <= policy.tol_unitary."""
    u = as_matrix(u)
    n = u.shape[0]
    if n > cap:
        raise ValueError(f"order {n} exceeds the exhaustive cap {cap}")
    _require_biunitary(u, policy, f"{name} input")
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
    # each chunk's s and q are gathered into the same two buffers, which
    # stay in cache (keys index the distinct masks, so no index is clipped)
    s = np.empty((min(step, len(keys)), half, n, n))
    q = np.empty(s.shape, dtype=np.complex128)
    out = []
    for lo in range(0, len(keys), step):
        chunk = keys[lo:lo + step]
        res = _residuals(np.take(diffs, chunk[:, :half], axis=0, out=s[:len(chunk)], mode="clip"),
                         np.take(projs, chunk[:, half:], axis=0, out=q[:len(chunk)], mode="clip"))
        kept = res <= tol
        out += _new_specs(spec, u, rows, chunk[kept].tolist(), res[kept].tolist())
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


def _require_kind(spec, tag):
    """Raise ValueError, naming the kind needed and the kind got, unless spec
    is of the kind tagged tag, the one that {tag}_family builds from."""
    got = _kind(spec)
    if got != tag:
        what = f"a {_KINDS[got][2]} spec" if got else type(spec).__name__
        raise ValueError(f"{tag}_family needs a {_KINDS[tag][2]} spec, got {what}")


def _block_phase(spec, lam, policy):
    """(I + (lam - 1) P1 q1 + (conj(lam) - 1) P2 q2) U from a certified spec
    of either kind (one term for a commuting pair). Every member passes the
    biunitarity gate, the lam = 1 member (the base's bits) included, so a
    spec over a base that is not biunitary yields none."""
    qs = _check_certified(spec, policy)
    u = spec.base
    f = np.eye(len(u))
    # a dense diag(p) product: p[:, None] * q would move the last bits
    for c, p, q in zip((lam, np.conj(lam)), _sides(spec)[0], qs):
        f = f + (c - 1.0) * np.diag(np.asarray(p, dtype=np.complex128)) @ q
    v = f @ u
    _require_biunitary(v, policy, "family member")
    return v


def constr1_family(spec, t, policy=DEFAULT_POLICY):
    """Family member exp(i t P q) U from a certified commuting pair; t must
    be a finite real number.

    P q is a projection (the factors commute), so exp(i t P q) is the
    block-phase factor I + (e^{it} - 1) P q: 2*pi-periodic in t.
    """
    t = _number(t, "t", float)
    if not np.isfinite(t):
        raise ValueError(f"constr1_family needs a finite t, got t={t}")
    _require_kind(spec, "constr1")
    return _block_phase(spec, np.exp(1j * t), policy)


def constr2_family(spec, lam, policy=DEFAULT_POLICY):
    """Family member (I + (lam-1) P1 q1 + (conj(lam)-1) P2 q2) U from a
    certified block quadruple; lam must be a complex number with |lam| = 1.

    Entrywise this multiplies the (p1 x d1) block of U by lam and the
    (p2 x d2) block by conj(lam), leaving all moduli unchanged.
    """
    lam = _number(lam, "lambda", complex)
    if not abs(abs(lam) - 1.0) <= policy.tol_entry:
        raise ValueError(f"|lambda| = {abs(lam)} is not 1 within tolerance")
    _require_kind(spec, "constr2")
    return _block_phase(spec, lam, policy)


# --- serialization ------------------------------------------------------------

def spec_to_json_dict(spec, base_ref):
    """JSON form of a family spec; matrices are carried by reference. Key
    order is part of the wire format: theorem, base, the masks as index
    lists in field order, residual."""
    tag = _kind(spec)
    if tag is None:
        raise ValueError(f"not a family spec: {type(spec).__name__}")
    masks = {f[:-5]: mask_indices(getattr(spec, f)) for f in _mask_fields(type(spec))}
    return {"theorem": tag, "base": base_ref, **masks, "residual": float(spec.residual)}


def spec_from_json_dict(doc, base):
    """Rebuild a spec against the given base matrix; the residual is
    recomputed, not trusted."""
    if not isinstance(doc, dict):
        raise ValueError(f"a family spec is a JSON object, not {type(doc).__name__}")
    base = as_matrix(base)
    tag = doc.get("theorem")
    if not isinstance(tag, str) or tag not in _KINDS:
        raise ValueError(f"unknown family spec tag {tag!r}")
    cls, build, _ = _KINDS[tag]
    keys = [f[:-5] for f in _mask_fields(cls)]
    for key in keys:
        if key not in doc:
            raise ValueError(f"{tag} spec has no {key!r} mask")
    return build(base, *(mask_from_indices(doc[key], base.shape[0]) for key in keys))
