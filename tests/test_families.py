import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import brute
from hadcert import (
    DEFAULT_POLICY,
    bjorck7,
    block_pair_spec,
    certify_isolation,
    commuting_pair_spec,
    constr1_family,
    constr2_family,
    find_block_pairs,
    find_commuting_pairs,
    fourier,
    mask_from_indices,
    mask_indices,
    petrescu,
    span_matrix,
    verify_biunitary,
    verify_unitarity_identity,
)
from hadcert.families import (
    BLOCK_CAP,
    _edge_tables,
    _in_index_order,
    _residuals,
    _scan_block_pairs,
    _scan_commuting_pairs,
    block_residual,
    commuting_residual,
    spec_from_json_dict,
    spec_to_json_dict,
)
from hadcert.spancert import ISOLATED


def bitmask(spec_mask):
    return sum(1 << i for i in mask_indices(spec_mask))


@pytest.fixture(scope="module")
def petrescu_specs():
    return find_block_pairs(petrescu(1.0))


@pytest.fixture(scope="module")
def f4_pairs():
    return find_commuting_pairs(fourier(4))


class TestFindCommutingPairs:
    def test_fourier4_contains_classical_pair(self, f4_pairs):
        masks = [(mask_indices(s.p_mask), mask_indices(s.d_mask)) for s in f4_pairs]
        assert ([1, 3], [1, 3]) in [(p, d) for p, d in masks]
        for s in f4_pairs:
            assert s.residual < 1e-12

    def test_fourier5_empty(self):
        assert find_commuting_pairs(fourier(5)) == []

    def test_trivial_masks_never_returned(self, f4_pairs):
        for s in f4_pairs:
            assert 0 < int(np.sum(s.p_mask)) < 4
            assert 0 < int(np.sum(s.d_mask)) < 4

    def test_matches_brute_small_orders(self, rng):
        for u in (fourier(4), fourier(5), fourier(6), brute.random_biunitary(5, rng)):
            got = [(bitmask(s.p_mask), bitmask(s.d_mask)) for s in find_commuting_pairs(u)]
            assert sorted(got) == brute.brute_commuting_pairs(u)

    @pytest.mark.parametrize("n, count", [(12, 97), (14, 126)])
    def test_counts_past_64_edges(self, n, count):
        # 66 and 91 edges take two words per bitset. On a Fourier matrix the
        # scan alone is exact, so a lost edge shows as an extra candidate.
        u = fourier(n)
        _, zero, cross = _edge_tables(u, 1e-9)
        assert len(_scan_commuting_pairs(zero, cross, n)) == count
        assert len(find_commuting_pairs(u)) == count
        assert brute.support_graph_commuting_count(u) == count

    def test_nonempty_iff_composite(self):
        for n in range(2, 13):
            pairs = find_commuting_pairs(fourier(n))
            composite = any(n % k == 0 for k in range(2, n))
            assert bool(pairs) == composite, n

    @pytest.mark.parametrize("n", [12, 14])
    def test_residual_is_the_public_one(self, n, rng):
        u = brute.random_equivalence_move(fourier(n), rng)
        specs = find_commuting_pairs(u)
        assert specs
        for s in specs:
            assert s.residual == commuting_residual(u, s.p_mask, s.d_mask)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            find_commuting_pairs(fourier(15))

    def test_rejects_non_biunitary(self):
        with pytest.raises(ValueError):
            find_commuting_pairs(np.eye(4))

    def test_all_ones_mask_rejected(self):
        with pytest.raises(ValueError, match="all-0 or all-1"):
            commuting_pair_spec(fourier(4), np.ones(4, dtype=np.int8),
                                mask_from_indices([1], 4))


@pytest.mark.parametrize("bad", [[0, 1.9, 0, 1], [0, 0.5, 0, 1]])
def test_spec_builders_reject_non_binary_masks(bad):
    # checked on the values, not after a cast that would read 1.9 as 1
    u = fourier(4)
    odd = mask_from_indices([1, 3], 4)
    even = mask_from_indices([0, 2], 4)
    with pytest.raises(ValueError, match="0/1 mask"):
        commuting_pair_spec(u, bad, odd)
    with pytest.raises(ValueError, match="0/1 mask"):
        commuting_pair_spec(u, odd, bad)
    with pytest.raises(ValueError, match="0/1 mask"):
        block_pair_spec(u, bad, even, odd, even)
    with pytest.raises(ValueError, match="0/1 mask"):
        block_pair_spec(u, odd, even, bad, even)


class TestConstr1:
    def test_t_zero_is_base(self, f4_pairs):
        spec = f4_pairs[0]
        assert np.array_equal(constr1_family(spec, 0.0), spec.base)

    def test_members_biunitary(self, f4_pairs):
        spec = f4_pairs[0]
        for t in np.linspace(-np.pi, np.pi, 16):
            assert verify_biunitary(constr1_family(spec, float(t))).is_biunitary
        # a base carrying a certified pair is never certified isolated
        assert certify_isolation(spec.base).verdict != ISOLATED

    def test_projector_spectrum_gives_2pi_period(self, f4_pairs):
        # p q is a projection when the factors commute, so the family closes
        # up after 2*pi
        spec = f4_pairs[0]
        h = np.diag(spec.p_mask).astype(complex) @ (
            spec.base @ np.diag(spec.d_mask).astype(complex) @ spec.base.conj().T
        )
        w = np.linalg.eigvalsh(h)
        assert np.max(np.abs(w - np.round(w))) < 1e-12
        t = 1.234
        assert np.max(np.abs(constr1_family(spec, t + 2 * np.pi) - constr1_family(spec, t))) < 1e-12

    def test_rejects_uncertified(self):
        u = fourier(5)
        spec = commuting_pair_spec(u, mask_from_indices([0], 5), mask_from_indices([1], 5))
        assert spec.residual > 0.01
        with pytest.raises(ValueError, match="uncertified"):
            constr1_family(spec, 0.5)


class TestFindBlockPairs:
    def test_petrescu_contains_classical_quadruple(self, petrescu_specs):
        keys = [
            (
                mask_indices(s.p1_mask),
                mask_indices(s.p2_mask),
                mask_indices(s.d1_mask),
                mask_indices(s.d2_mask),
            )
            for s in petrescu_specs
        ]
        assert ([0, 1], [2, 3], [0, 1], [2, 3]) in keys
        for s in petrescu_specs:
            assert s.residual < 1e-12

    def test_fourier7_empty(self, petrescu_specs):
        # consistent with the rank-36 certificate: an isolated base admits no
        # block quadruple
        assert certify_isolation(fourier(7)).verdict == ISOLATED
        assert find_block_pairs(fourier(7)) == []

    def test_matches_brute_small_orders(self, rng):
        for u in (fourier(4), fourier(5), brute.random_biunitary(4, rng),
                  brute.random_biunitary(5, rng), fourier(6)):
            got = [
                (bitmask(s.p1_mask), bitmask(s.p2_mask), bitmask(s.d1_mask), bitmask(s.d2_mask))
                for s in find_block_pairs(u)
            ]
            assert sorted(got) == brute.brute_block_pairs(u)

    @pytest.mark.parametrize("make, count", [
        (lambda: fourier(8), 1040),
        (lambda: fourier(9), 1242),
        (lambda: np.kron(fourier(2), fourier(4)), 3056),
        (lambda: np.kron(fourier(3), fourier(3)), 4968),
        (lambda: petrescu(1.0), 9),
        (lambda: fourier(10), 5880),
    ], ids=["F8", "F9", "F2xF4", "F3xF3", "petrescu1", "F10"])
    def test_counts(self, make, count):
        assert len(find_block_pairs(make())) == count

    @pytest.mark.parametrize("make", [
        lambda rng: fourier(8),
        lambda rng: brute.random_equivalence_move(fourier(9), rng),
        lambda rng: np.kron(fourier(2), fourier(4)),
        lambda rng: petrescu(1.0),
        lambda rng: petrescu(np.exp(0.9j)),
    ], ids=["F8", "F9scrambled", "F2xF4", "petrescu1", "petrescu0.9i"])
    def test_residual_is_the_public_one(self, make, rng):
        # the finder filters from projections it builds once per mask; each
        # residual it returns must still be block_residual's, bit for bit
        u = make(rng)
        specs = find_block_pairs(u)
        assert specs
        for s in specs:
            assert s.residual == block_residual(u, s.p1_mask, s.p2_mask, s.d1_mask, s.d2_mask)

    def test_exact_filter_rejects(self):
        # at lambda = exp(2.5e-9 i) six of the nine scan candidates miss
        # the tolerance by a hair (residual ~1.5e-9 > 1e-9); the three left
        # are the quadruples of petrescu(exp(1e-6 i))
        u = petrescu(np.exp(2.5e-9j))
        _, zero, cross = _edge_tables(u, 1e-9)
        assert len(_scan_block_pairs(zero, cross, 7)) == 9
        got = [tuple(mask_indices(m) for m in (s.p1_mask, s.p2_mask, s.d1_mask, s.d2_mask))
               for s in find_block_pairs(u)]
        assert got == [
            ([0, 1], [2, 3], [0, 1], [2, 3]),
            ([0, 1], [4, 5, 6], [4, 5, 6], [2, 3]),
            ([2, 3], [4, 5, 6], [4, 5, 6], [0, 1]),
        ]

    def test_disjointness_and_nontriviality(self, petrescu_specs):
        for s in petrescu_specs:
            assert not np.any(s.p1_mask * s.p2_mask)
            assert not np.any(s.d1_mask * s.d2_mask)
            for m in (s.p1_mask, s.p2_mask, s.d1_mask, s.d2_mask):
                assert 0 < int(np.sum(m)) < 7

    def test_degenerate_complements_excluded(self, petrescu_specs):
        full = np.ones(7, dtype=np.int8)
        for s in petrescu_specs:
            degenerate = np.array_equal(s.p2_mask, full - s.p1_mask) and np.array_equal(
                s.d2_mask, full - s.d1_mask
            )
            assert not degenerate

    def test_witnesses_break_span_bound(self, petrescu_specs, f4_pairs):
        # any base carrying a witness must sit strictly below the rank bound
        from hadcert import numerical_rank

        for u in (petrescu(1.0), fourier(4), fourier(6)):
            has_witness = bool(
                find_commuting_pairs(u) or (u.shape[0] <= 10 and find_block_pairs(u))
            )
            rank = numerical_rank(span_matrix(u))[0]
            n = u.shape[0]
            assert has_witness == (rank < (n - 1) ** 2)

    def test_rejects_same_support(self):
        u = petrescu(1.0)
        with pytest.raises(ValueError, match="disjoint"):
            block_pair_spec(
                u,
                mask_from_indices([0, 1], 7),
                mask_from_indices([1, 2], 7),
                mask_from_indices([0], 7),
                mask_from_indices([1], 7),
            )

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            find_block_pairs(fourier(11))


class TestConstr2:
    def test_lambda_one_is_base(self, petrescu_specs):
        spec = petrescu_specs[0]
        assert np.array_equal(constr2_family(spec, 1.0), spec.base)

    def test_reproduces_petrescu_entrywise(self, petrescu_specs):
        spec = next(
            s
            for s in petrescu_specs
            if mask_indices(s.p1_mask) == [0, 1]
            and mask_indices(s.p2_mask) == [2, 3]
            and mask_indices(s.d1_mask) == [0, 1]
            and mask_indices(s.d2_mask) == [2, 3]
        )
        for ang in np.linspace(0.1, 2 * np.pi - 0.1, 8):
            lam = np.exp(1j * ang)
            assert np.max(np.abs(constr2_family(spec, lam) - petrescu(lam))) < 1e-12

    def test_members_unitary(self, petrescu_specs):
        spec = petrescu_specs[0]
        for ang in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            v = constr2_family(spec, np.exp(1j * ang))
            assert np.linalg.norm(v @ v.conj().T - np.eye(7)) < 1e-12
            assert verify_biunitary(v).is_biunitary

    def test_moduli_preserved_exactly(self, petrescu_specs):
        spec = petrescu_specs[0]
        v = constr2_family(spec, np.exp(2.3j))
        assert np.max(np.abs(np.abs(v) - np.abs(spec.base))) < 1e-15

    def test_rejects_off_circle(self, petrescu_specs):
        with pytest.raises(ValueError):
            constr2_family(petrescu_specs[0], 1.2)

    def test_rejects_nan(self, petrescu_specs):
        with pytest.raises(ValueError, match="not 1"):
            constr2_family(petrescu_specs[0], np.exp(1j * np.nan))

    def test_rejects_uncertified(self):
        u = bjorck7()
        spec = block_pair_spec(
            u,
            mask_from_indices([0, 1], 7),
            mask_from_indices([2, 3], 7),
            mask_from_indices([0, 1], 7),
            mask_from_indices([2, 3], 7),
        )
        assert spec.residual > 0.01
        with pytest.raises(ValueError, match="uncertified"):
            constr2_family(spec, np.exp(1j))


class TestUnitarityIdentity:
    def test_petrescu_specs(self, petrescu_specs):
        for s in petrescu_specs:
            assert verify_unitarity_identity(s) < 1e-12

    def test_random_masks_fail(self, rng):
        u = bjorck7()
        vals = []
        for _ in range(10):
            perm = rng.permutation(7)
            s = block_pair_spec(
                u,
                mask_from_indices(sorted(int(x) for x in perm[:2]), 7),
                mask_from_indices(sorted(int(x) for x in perm[2:4]), 7),
                mask_from_indices(sorted(int(x) for x in perm[4:6]), 7),
                mask_from_indices([int(perm[6])], 7),
            )
            vals.append(verify_unitarity_identity(s))
        assert max(vals) > 0.1

    def test_zero_masks_zero(self):
        # degenerate all-zero projections: the combination is identically 0;
        # bypass the nontriviality gate by evaluating the formula directly
        from hadcert.families import BlockPairSpec, verify_unitarity_identity

        z = np.zeros(7, dtype=np.int8)
        s = BlockPairSpec(petrescu(1.0), z, z, z, z, 0.0)
        assert verify_unitarity_identity(s) == 0.0


class TestSerialization:
    def test_round_trip_block(self, petrescu_specs):
        spec = petrescu_specs[0]
        doc = spec_to_json_dict(spec, "base.mat")
        assert doc["theorem"] == "constr2"
        back = spec_from_json_dict(doc, spec.base)
        assert np.array_equal(back.p1_mask, spec.p1_mask)
        assert np.array_equal(back.d2_mask, spec.d2_mask)
        assert back.residual == pytest.approx(spec.residual, abs=1e-15)

    def test_round_trip_commuting(self, f4_pairs):
        spec = f4_pairs[0]
        doc = spec_to_json_dict(spec, "f4.mat")
        assert doc["theorem"] == "constr1"
        back = spec_from_json_dict(doc, spec.base)
        assert np.array_equal(back.p_mask, spec.p_mask)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            spec_from_json_dict({"theorem": "constr9"}, fourier(4))


def test_python_scan_matches_brute(rng):
    # the raw candidates of the bitset block scan, before the exact filter
    for u in (fourier(4), brute.random_biunitary(5, rng)):
        _, zero, cross = _edge_tables(u, 1e-9)
        got = sorted(map(tuple, _scan_block_pairs(zero, cross, u.shape[0]).tolist()))
        assert got == brute.brute_block_pairs(u)


def _public_loop(u, scan, residual):
    """The finder's answer by a plain loop of the public residual over the
    ordered scan candidates: the kept (mask index lists, residual.hex())
    rows, the candidate count and the positions of the rejected ones."""
    tol = DEFAULT_POLICY.tol_unitary
    n = u.shape[0]
    bits, zero, cross = _edge_tables(u, tol)
    values, keys = _in_index_order(scan(zero, cross, n), n)
    kept, rejected = [], []
    for i, key in enumerate(keys.tolist()):
        masks = bits[values[key]]
        res = residual(u, *masks)
        if res <= tol:
            kept.append((*map(mask_indices, masks), res.hex()))
        else:
            rejected.append(i)
    return kept, len(keys), rejected


def _rows(specs):
    return [(*(mask_indices(getattr(s, f)) for f in s.__dataclass_fields__ if f.endswith("mask")),
             s.residual.hex()) for s in specs]


@pytest.mark.parametrize("make, counts", [
    # a 2e-9 step along a family of F2xF4 or F2xF2xF2 breaks some of its
    # witnesses by about the tolerance: (block candidates, rejected,
    # commuting candidates, rejected)
    (lambda: constr2_family(find_block_pairs(np.kron(fourier(2), fourier(4)))[0],
                            np.exp(2e-9j)), (3056, 374, 37, 6)),
    (lambda: constr1_family(find_commuting_pairs(
        np.kron(np.kron(fourier(2), fourier(2)), fourier(2)))[0], 2e-9), (6832, 1436, 77, 12)),
], ids=["F2xF4-constr2", "F2xF2xF2-constr1"])
def test_exact_filter_is_the_public_loop(make, counts):
    # the finders filter stacked chunks of candidates, 512 to a chunk at
    # n = 8: the block candidates fill 6 or 14 chunks and each chunk has
    # rejections; the commuting candidates fit in one chunk
    u = make()
    block, n_block, rej_block = _public_loop(u, _scan_block_pairs, block_residual)
    pairs, n_pairs, rej_pairs = _public_loop(u, _scan_commuting_pairs, commuting_residual)
    assert (n_block, len(rej_block), n_pairs, len(rej_pairs)) == counts
    assert {i // 512 for i in rej_block} == set(range(-(-n_block // 512)))
    assert _rows(find_block_pairs(u)) == block
    assert _rows(find_commuting_pairs(u)) == pairs


@pytest.mark.parametrize("n", [2, 9, 10, 14])
def test_stacked_norm_is_linalg_norm(n, rng):
    # _residuals takes its norms by one stacked matmul; each must be the
    # np.linalg.norm of its slice, bit for bit
    c = 300
    scale = 10.0 ** rng.uniform(-20, 5, (c, 1, 1, 1))
    q = (rng.standard_normal((c, 2, n, n)) + 1j * rng.standard_normal((c, 2, n, n))) * scale
    s = rng.standard_normal((c, 2, n, n))
    assert _residuals(np.ones((c, 1, n, n)), q[:, :1]).tolist() == [
        np.linalg.norm(x) for x in q[:, 0]]
    assert _residuals(s, q).tolist() == [
        np.linalg.norm(x[0] * y[0] - x[1] * y[1]) for x, y in zip(s, q)]


def test_benchmark_oracles_reject_corrupted_witnesses():
    # perfbench's witness oracles must keep rejecting every dropped or
    # invented witness and every corrupted family member
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "perfbench/selftest.py", "--workload", "witness"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("u", [
    fourier(4), fourier(6), fourier(8), petrescu(1.0),
    np.kron(fourier(2), fourier(4)), fourier(7), fourier(12),
], ids=["F4", "F6", "F8", "petrescu", "F2xF4", "F7", "F12"])
def test_witnesses_span_left_kernel(u):
    # certify_isolation and the finders share no code: each witness gives a
    # left null vector of the span matrix, p x d for a commuting pair and
    # p1 x d1 - p2 x d2 for a block quadruple, and with the 2n - 1 trivial
    # vectors e_i x 1 and 1 x e_j they span the whole left kernel
    n = u.shape[0]
    vecs = [np.kron(s.p_mask, s.d_mask) for s in find_commuting_pairs(u)]
    if n <= BLOCK_CAP:
        vecs += [np.kron(s.p1_mask, s.d1_mask) - np.kron(s.p2_mask, s.d2_mask)
                 for s in find_block_pairs(u)]
    eye, ones = np.eye(n), np.ones(n)
    vecs += [np.kron(e, ones) for e in eye] + [np.kron(ones, e) for e in eye]
    x = np.array(vecs, dtype=np.float64)
    a = span_matrix(u)
    residual = np.linalg.norm(x @ a, axis=1) / np.linalg.norm(x, axis=1)
    assert residual.max() <= 1e-13 * np.linalg.norm(a, 2)
    assert np.linalg.matrix_rank(x) == n * n - certify_isolation(u).rank
