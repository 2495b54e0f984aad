import hashlib
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import mpmath
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
from hadcert import families
from hadcert.families import (
    BLOCK_CAP,
    _covering,
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
        assert len(_scan_commuting_pairs(u, 1e-9)) == count
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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_t(self, f4_pairs, t):
        # one ValueError that names t, and no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"t={t}"):
                constr1_family(f4_pairs[0], t)

    def test_matches_spectral_exponential(self, rng):
        # the closed form (I + (e^{it} - 1) P q) U against exp(i t P q) U
        # taken through the eigenvectors of P q
        specs = (find_commuting_pairs(fourier(4)) + find_commuting_pairs(fourier(6))
                 + find_commuting_pairs(fourier(8))[::3] + find_commuting_pairs(fourier(12))[::10]
                 + find_commuting_pairs(brute.random_equivalence_move(fourier(6), rng)))
        assert len(specs) == 1 + 6 + 5 + 10 + 6
        for spec in specs:
            for t in np.linspace(-2 * np.pi, 2 * np.pi, 9):
                err = np.max(np.abs(constr1_family(spec, float(t)) - brute.expm_member(spec, t)))
                assert err < 1e-13

    @pytest.mark.parametrize("big_t", [1e6, 1e9, 1e12, 1e15])
    def test_large_t_is_the_reduced_angle(self, big_t):
        # the family is 2*pi-periodic: a member far out is the member at the
        # angle reduced to [0, 2*pi), which mpmath gives to 40 digits
        with mpmath.workdps(40):
            t = float(mpmath.fmod(big_t, 2 * mpmath.pi))
        for spec in find_commuting_pairs(fourier(4)) + find_commuting_pairs(fourier(12))[::10]:
            v = constr1_family(spec, big_t)
            assert verify_biunitary(v).is_biunitary
            assert np.max(np.abs(v - brute.expm_member(spec, t))) < 1e-12


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
        assert len(_scan_block_pairs(u, 1e-9)) == 9
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


# constr2_family members and verify_unitarity_identity, frozen: sha256 over
# the member bytes at each FROZEN_LAMBDAS, then the hex of the identity
# residual. Both family constructors share one block-phase factor; these
# bits must not move with it.
FROZEN_LAMBDAS = [np.exp(0.7j), np.exp(-2.5j), -1.0]
FROZEN_CONSTR2 = [
    (lambda: block_pair_spec(petrescu(1.0), *(mask_from_indices(m, 7) for m in
                                              ([0, 1], [2, 3], [0, 1], [2, 3]))),
     "b3ce6ab986f18663f9267cd27074d892fcbd368c50e6f80f20e0a9ca87d2a954"),
    (lambda: find_block_pairs(fourier(8))[517],
     "102934944e19be40f403942c1e8ecbb0b08ac3b1894715864e6b8976e810f881"),
    (lambda: find_block_pairs(np.kron(fourier(3), fourier(3)))[2024],
     "ef2cefaa382431a82c71202f89e87be5969af89e02de98d48ebdbcd79bad7936"),
]


@pytest.mark.parametrize("make, digest", FROZEN_CONSTR2, ids=["petrescu1", "F8", "F3xF3"])
def test_constr2_members_are_frozen(make, digest):
    spec = make()
    h = hashlib.sha256()
    for lam in FROZEN_LAMBDAS:
        h.update(constr2_family(spec, lam).tobytes())
    h.update(verify_unitarity_identity(spec).hex().encode())
    assert h.hexdigest() == digest


SPEC_KINDS = [
    (commuting_pair_spec, constr1_family, 0.5, [[0, 1], [0, 1]]),
    (block_pair_spec, constr2_family, np.exp(1j), [[0, 1], [2, 3], [0, 1], [2, 3]]),
]


@pytest.mark.parametrize("build, family, arg, masks", SPEC_KINDS, ids=["constr1", "constr2"])
def test_nan_residual_is_uncertified(build, family, arg, masks):
    # a finite base with a 1e308 entry in a column of d: U diag(d) U*
    # overflows and the residual is nan, which must fail the certification
    u = petrescu(1.0).copy()
    u[0, 0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        spec = build(u, *(mask_from_indices(m, 7) for m in masks))
        assert np.isnan(spec.residual)
        with pytest.raises(ValueError, match="uncertified"):
            family(spec, arg)


@pytest.mark.parametrize("build, family, arg, masks", SPEC_KINDS, ids=["constr1", "constr2"])
def test_overflowing_base_names_the_overflow(build, family, arg, masks):
    # the residual overflows: one ValueError says so, and numpy warns nothing
    u = petrescu(1.0).copy()
    u[0, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = build(u, *(mask_from_indices(m, 7) for m in masks))
        with pytest.raises(ValueError, match="uncertified .*: the residual overflows"):
            family(spec, arg)


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

    def test_round_trip_every_f6_spec(self):
        u = fourier(6)
        specs = find_block_pairs(u) + find_commuting_pairs(u)
        assert len(specs) == 174
        for s in specs:
            back = spec_from_json_dict(spec_to_json_dict(s, "f6.mat"), u)
            assert type(back) is type(s)
            assert back.residual == s.residual
            for f in s.__dataclass_fields__:
                if f.endswith("_mask"):
                    assert getattr(back, f).dtype == getattr(s, f).dtype == np.int8
                    assert np.array_equal(getattr(back, f), getattr(s, f))

    def test_finder_masks_are_read_only(self, f4_pairs, petrescu_specs):
        # the specs share views of one table of distinct masks: a write
        # through one would change the others
        for s in (f4_pairs[0], petrescu_specs[0]):
            for f in s.__dataclass_fields__:
                if f.endswith("_mask"):
                    with pytest.raises(ValueError, match="read-only"):
                        getattr(s, f)[0] = 1

    @pytest.mark.parametrize("tag", [None, 1, ["constr1"], {"a": 1}])
    def test_tag_of_any_type(self, tag):
        with pytest.raises(ValueError, match="unknown family spec tag"):
            spec_from_json_dict({"theorem": tag, "p": [1], "d": [1]}, fourier(4))

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            spec_from_json_dict({"theorem": "constr9"}, fourier(4))

    @pytest.mark.parametrize("theorem, field", [
        ("constr1", "p"), ("constr1", "d"),
        ("constr2", "p1"), ("constr2", "p2"), ("constr2", "d1"), ("constr2", "d2"),
    ])
    def test_missing_mask_is_a_value_error(self, f4_pairs, petrescu_specs, theorem, field):
        spec = (f4_pairs if theorem == "constr1" else petrescu_specs)[0]
        doc = spec_to_json_dict(spec, "base.mat")
        del doc[field]
        with pytest.raises(ValueError, match=f"no '{field}' mask"):
            spec_from_json_dict(doc, spec.base)


def test_python_scan_matches_brute(rng):
    # the raw candidates of the bitset block scan, before the exact filter
    for u in (fourier(4), brute.random_biunitary(5, rng)):
        got = sorted(map(tuple, _scan_block_pairs(u, 1e-9).tolist()))
        assert got == brute.brute_block_pairs(u)


@pytest.mark.parametrize("n", range(1, 15))
def test_in_index_order_is_python_list_order(n, rng):
    # columns drawn from a small pool, so masks and whole rows repeat
    pool = rng.integers(0, 1 << n, 10)
    found = pool[rng.integers(0, len(pool), (80, 3))]
    rows, keys = _in_index_order(found, n)

    def index_list(m):
        return [k for k in range(n) if (int(m) >> k) & 1]

    distinct = sorted({tuple(index_list(m)) for m in found.ravel()})
    assert rows.dtype == np.int8
    assert [tuple(brute.indices(r)) for r in rows] == distinct
    want = sorted([index_list(m) for m in row] for row in found.tolist())
    assert [[brute.indices(rows[k]) for k in key] for key in keys.tolist()] == want


def _public_loop(u, scan, residual):
    """The finder's answer by a plain loop of the public residual over the
    ordered scan candidates: the kept (mask index lists, residual.hex())
    rows, the candidate count and the positions of the rejected ones."""
    tol = DEFAULT_POLICY.tol_unitary
    n = u.shape[0]
    rows, keys = _in_index_order(scan(u, tol), n)
    kept, rejected = [], []
    for i, key in enumerate(keys.tolist()):
        masks = [row.astype(float) for row in rows[key]]
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
    # commuting candidates, rejected). The counts hang on the last bits of
    # the input, so the commuting step is the spectral exponential that made
    # them, not constr1_family's closed form (which rejects 1644)
    (lambda: constr2_family(find_block_pairs(np.kron(fourier(2), fourier(4)))[0],
                            np.exp(2e-9j)), (3056, 374, 37, 6)),
    (lambda: brute.expm_member(find_commuting_pairs(
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


def _brute_covering(sets, rows):
    """Every (i, r) with sets[i] & ~rows[r] zero in every word, by a loop."""
    return sorted((i, r) for i in range(len(sets)) for r in range(len(rows))
                  if not np.any(sets[i] & ~rows[r]))


@pytest.mark.parametrize("words", [1, 2, 3])
def test_covering_is_the_brute_subset_test(words, rng):
    # rows drawn from a small pool repeat, and rows that agree on word 0
    # differ on later words; sets are sparse subsets of rows with one word
    # (for words > 1 a later one) spoiled by a bit outside the row, so many
    # pass word 0 and fail later
    def draw(shape, density):
        flags = rng.random((*shape, 64)) < density
        return np.packbits(flags, axis=-1, bitorder="little").view(np.uint64).reshape(shape)

    pool = draw((12, words), 0.85)
    pool[6:, 0] = pool[:6, 0]
    rows = pool[rng.integers(0, len(pool), 40)]
    sets = rows[rng.integers(0, len(rows), 150)] & draw((150, words), 0.1)
    spoil = rng.random(150) < 0.5
    w = rng.integers(1 if words > 1 else 0, words, 150)
    sets[spoil, w[spoil]] |= np.uint64(1) << rng.integers(0, 64, spoil.sum()).astype(np.uint64)
    sets = np.concatenate([sets, draw((50, words), 0.05)])
    i, r = _covering(sets, rows)
    got = sorted(zip(i.tolist(), r.tolist()))
    want = _brute_covering(sets, rows)
    assert got == want and want
    assert len(set(map(bytes, rows))) < len(rows)
    if words > 1:
        assert sum(not (s[0] & ~row[0]) for s in sets for row in rows) > len(want)


def test_covering_cap(monkeypatch):
    # full rows cover every set: 3 sets x 5 rows (one distinct) are 15 pairs
    sets = np.arange(3, dtype=np.uint64).reshape(3, 1)
    rows = np.full((5, 1), ~np.uint64(0))
    monkeypatch.setattr(families, "CANDIDATE_CAP", 15)
    assert len(_covering(sets, rows)[0]) == 15
    monkeypatch.setattr(families, "CANDIDATE_CAP", 14)
    with pytest.raises(ValueError, match="more than 14 candidates"):
        _covering(sets, rows)


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("scrambled", [False, True], ids=["plain", "scrambled"])
def test_commuting_tables_are_rows_of_the_full_table(n, scrambled, monkeypatch, rng):
    # the commuting finder tabulates only the canonical masks; each of its
    # rows must be the matching row of the table over every mask, bit for bit
    u = brute.random_equivalence_move(fourier(n), rng) if scrambled else fourier(n)
    calls = []

    def recording(u, tol, masks):
        calls.append((masks, *_edge_tables(u, tol, masks)))
        return calls[-1][1:]

    monkeypatch.setattr(families, "_edge_tables", recording)
    assert len(find_commuting_pairs(u)) == {12: 97, 14: 126}[n]
    (masks, zero, cross), = calls
    assert masks.tolist() == list(range(2, (1 << n) - 1, 2))
    full_zero, full_cross = _edge_tables(u, DEFAULT_POLICY.tol_unitary, np.arange(1 << n))
    assert np.array_equal(zero, full_zero[masks])
    assert np.array_equal(cross, full_cross[masks])


# The finders' output on a fixed corpus, frozen: per input the witness count
# and a digest of the mask index lists in finder order, for the block finder
# (None past BLOCK_CAP) and the commuting finder. Residual bits are left out,
# as they depend on the BLAS build. A label ending in "s" is a scrambled copy,
# seeded by its label, of the input it extends.
FROZEN_BASES = {
    **{f"F{n}": (lambda n=n: fourier(n)) for n in range(2, 11)},
    "F2xF3": lambda: np.kron(fourier(2), fourier(3)),
    "F2xF2xF2": lambda: np.kron(np.kron(fourier(2), fourier(2)), fourier(2)),
    "F2xF4": lambda: np.kron(fourier(2), fourier(4)),
    "F3xF3": lambda: np.kron(fourier(3), fourier(3)),
    "petrescu1": lambda: petrescu(1.0),
    "petrescu0.7i": lambda: petrescu(np.exp(0.7j)),
    "petrescu2.5e-9i": lambda: petrescu(np.exp(2.5e-9j)),
    "bjorck7": bjorck7,
    "F12": lambda: fourier(12),
    "F14": lambda: fourier(14),
}
EMPTY = (0, "4f53cda18c2baa0c")
FROZEN = [
    ("F2", EMPTY, EMPTY),
    ("F2s", EMPTY, EMPTY),
    ("F3", EMPTY, EMPTY),
    ("F3s", EMPTY, EMPTY),
    ("F4", (8, "dd2774401e158906"), (1, "d1d79c44c6969437")),
    ("F4s", (8, "9daa28ebcbea49ba"), (1, "d4a3a40920ae8732")),
    ("F5", EMPTY, EMPTY),
    ("F5s", EMPTY, EMPTY),
    ("F6", (168, "6192dc85df9cd2ac"), (6, "71eed18bfcb8067b")),
    ("F6s", (168, "b4ad774782d66d4f"), (6, "a35883fd0fe5df27")),
    ("F7", EMPTY, EMPTY),
    ("F7s", EMPTY, EMPTY),
    ("F8", (1040, "9dcd9c3375a796ae"), (13, "1ff289f48f0c1ab2")),
    ("F8s", (1040, "2086840f10b7ff14"), (13, "2d890ddea719c39d")),
    ("F9", (1242, "6856cc0597182c30"), (9, "96ae762964189dc7")),
    ("F9s", (1242, "384fff3cbde44ebb"), (9, "962469285c628e21")),
    ("F10", (5880, "2b054f5e65882432"), (30, "7e12ab2dc0494ee6")),
    ("F10s", (5880, "b699f1b2480c9a76"), (30, "732ef869e66516af")),
    ("F2xF3", (168, "c091eb0ec0f131eb"), (6, "84018cd4e5d585e8")),
    ("F2xF3s", (168, "bc02ce9a9a9b83b4"), (6, "42d55a5fceaeee56")),
    ("F2xF2xF2", (6832, "baa1d0b9aa696253"), (77, "93818e387f027adb")),
    ("F2xF2xF2s", (6832, "4b163213fada4157"), (77, "84524b4b0c882a85")),
    ("F2xF4", (3056, "f997b554376a3104"), (37, "0c078e0d0c411e60")),
    ("F2xF4s", (3056, "2653feddccb554ea"), (37, "7845003448cabab2")),
    ("F3xF3", (4968, "72d936a16e6ff311"), (36, "bf724bd7491b098b")),
    ("F3xF3s", (4968, "9115bb1191d3b355"), (36, "182071a20c53d4c3")),
    ("petrescu1", (9, "c231cc4c806f17e4"), EMPTY),
    ("petrescu1s", (9, "b0202fb4b5096f71"), EMPTY),
    ("petrescu0.7i", (3, "73fb52feb2624fa2"), EMPTY),
    ("petrescu0.7is", (3, "f73d6cb3f263fe5e"), EMPTY),
    ("petrescu2.5e-9i", (3, "73fb52feb2624fa2"), EMPTY),
    ("petrescu2.5e-9is", (3, "a1d948bbce52391f"), EMPTY),
    ("bjorck7", EMPTY, EMPTY),
    ("bjorck7s", EMPTY, EMPTY),
    ("F12", None, (97, "c84c6a8bf9531627")),
    ("F12s", None, (97, "fe0caeebe84869a7")),
    ("F14", None, (126, "1baab89fdbb87c25")),
    ("F14s", None, (126, "caf18813d0d8d3cb")),
]


def _frozen_input(label):
    if label in FROZEN_BASES:
        return FROZEN_BASES[label]()
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    return brute.random_equivalence_move(FROZEN_BASES[label[:-1]](), rng)


def _count_and_digest(specs):
    masks = [tuple(mask_indices(getattr(s, f)) for f in s.__dataclass_fields__
                   if f.endswith("mask")) for s in specs]
    return len(masks), hashlib.sha256(repr(masks).encode()).hexdigest()[:16]


@pytest.mark.parametrize("label, block, commuting", FROZEN, ids=[x[0] for x in FROZEN])
def test_finder_output_is_frozen(label, block, commuting):
    u = _frozen_input(label)
    if block is not None:
        assert _count_and_digest(find_block_pairs(u)) == block
    assert _count_and_digest(find_commuting_pairs(u)) == commuting
