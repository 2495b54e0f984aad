import dataclasses
import hashlib
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import brute
import corpus
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
)
from hadcert import families
from hadcert.families import (
    BLOCK_CAP,
    COMMUTING_CAP,
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

    def test_matches_brute_small_orders(self):
        for u in map(corpus.get, ["F4", "F5", "F6", "random5"]):
            got = [(brute.mask_int(s.p_mask), brute.mask_int(s.d_mask))
                   for s in find_commuting_pairs(u)]
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
    def test_residual_is_the_public_one(self, n):
        u = corpus.get(f"F{n}s")
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


@pytest.mark.parametrize("find", [find_commuting_pairs, find_block_pairs])
def test_order_one_is_gated(find):
    # order 1 passes the biunitarity gate as every other order does, and a
    # biunitary of order 1 has no witness
    with pytest.raises(ValueError, match=f"^{find.__name__} input is not biunitary"):
        find([[2.0]])
    assert find([[np.exp(0.3j)]]) == []


class TestConstr1:
    def test_t_zero_is_base(self, f4_pairs):
        spec = f4_pairs[0]
        assert constr1_family(spec, 0.0).tobytes() == spec.base.tobytes()

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

    def test_matches_spectral_exponential(self):
        # the closed form (I + (e^{it} - 1) P q) U against exp(i t P q) U
        # taken through the eigenvectors of P q
        specs = [s for label, step in [("F4", 1), ("F6", 1), ("F8", 3), ("F12", 10), ("F6s", 1)]
                 for s in find_commuting_pairs(corpus.get(label))[::step]]
        assert len(specs) == 1 + 6 + 5 + 10 + 6
        for spec in specs:
            for t in np.linspace(-2 * np.pi, 2 * np.pi, 9):
                err = np.max(np.abs(constr1_family(spec, float(t)) - brute.expm_member(spec, t)))
                assert err < 1e-13

    @pytest.mark.parametrize("big_t", [1e6, 1e9, 1e12, 1e15])
    def test_large_t_is_the_reduced_angle(self, big_t):
        # the family is 2*pi-periodic: a member far out is the member at the
        # angle reduced to [0, 2*pi) exactly, with pi from Machin's formula
        assert float(brute.PI) == np.pi
        t = float(Fraction(big_t) % (2 * brute.PI))
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

    def test_matches_brute_small_orders(self):
        for u in map(corpus.get, ["F4", "F5", "random4", "random5", "F6"]):
            got = [tuple(brute.mask_int(m) for m in (s.p1_mask, s.p2_mask, s.d1_mask, s.d2_mask))
                   for s in find_block_pairs(u)]
            assert sorted(got) == brute.brute_block_pairs(u)

    @pytest.mark.parametrize("label", ["F8", "F9", "F2xF4", "F3xF3", "petrescu1", "F10"])
    def test_counts(self, label):
        # the count alone, so a miscount reads apart from a reordering that
        # only moves the digest test_finder_output_is_frozen also checks
        assert len(find_block_pairs(corpus.get(label))) == corpus.FACTS[label].block[0]

    @pytest.mark.parametrize("label", ["F8", "F9s", "F2xF4", "petrescu1", "petrescu0.9i"],
                             ids=["F8", "F9scrambled", "F2xF4", "petrescu1", "petrescu0.9i"])
    def test_residual_is_the_public_one(self, label):
        # the finder filters from projections it builds once per mask; each
        # residual it returns must still be block_residual's, bit for bit
        u = corpus.get(label)
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
        assert constr2_family(spec, 1.0).tobytes() == spec.base.tobytes()

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


# A certified spec on 2 diag(1, i, -1), which is not biunitary: P = diag(e0)
# commutes with the diagonal q = U diag(e0) U*, and the quadruple's sides
# each do, so every residual is exactly 0.
@pytest.mark.parametrize("build, family, unit, masks", [
    (commuting_pair_spec, constr1_family, 0.0, [[0], [0]]),
    (block_pair_spec, constr2_family, 1.0, [[0], [1], [0], [1]]),
], ids=["constr1", "constr2"])
def test_unit_member_is_gated(build, family, unit, masks):
    # the member at lambda = 1 is built and gated as every other member
    spec = build(2 * np.diag([1, 1j, -1]), *(mask_from_indices(m, 3) for m in masks))
    assert spec.residual == 0.0
    with pytest.raises(ValueError, match="^family member is not biunitary"):
        family(spec, unit)


# Every member is brute.reference_block_phase to the bit, on any BLAS kernel,
# at lambda = 1 (t = 0) too.
@pytest.mark.parametrize("label, step", [
    ("F4", 1), ("F6", 1), ("F12", 8), ("F6s", 1), ("F2xF4", 3),
], ids=["F4", "F6", "F12", "F6-scrambled", "F2xF4"])
def test_constr1_members_are_the_reference(label, step):
    for spec in find_commuting_pairs(corpus.get(label))[::step]:
        for t in (0.0, 0.7, -2.5, np.pi, 1e6):
            want = brute.reference_block_phase(spec, np.exp(1j * t))
            assert constr1_family(spec, t).tobytes() == want.tobytes()


@pytest.mark.parametrize("label, step", [
    ("petrescu1", 1), ("petrescu0.9i", 1), ("F6", 11), ("F8s", 97), ("F3xF3", 331),
], ids=["petrescu1", "petrescu0.9", "F6", "F8-scrambled", "F3xF3"])
def test_constr2_members_are_the_reference(label, step):
    for spec in find_block_pairs(corpus.get(label))[::step]:
        for lam in (1.0, np.exp(0.7j), np.exp(-2.5j), -1.0, 1j):
            want = brute.reference_block_phase(spec, lam)
            assert constr2_family(spec, lam).tobytes() == want.tobytes()


# constr2_family members and verify_unitarity_identity, frozen: sha256 over
# the member bytes at each FROZEN_LAMBDAS, then the hex of the identity
# residual, per BLAS kernel, for one block quadruple (by its place in the
# finder's output) of each input. Both family constructors share one
# block-phase factor; these bits must not move with it. The members are also
# checked against brute.reference_block_phase first, which runs on any
# kernel; the digests guard the same host against a change made to both.
FROZEN_LAMBDAS = [np.exp(0.7j), np.exp(-2.5j), -1.0]
FROZEN_CONSTR2 = [
    ("petrescu1", 0, {
        "SkylakeX": "b3ce6ab986f18663f9267cd27074d892fcbd368c50e6f80f20e0a9ca87d2a954",
        "Haswell": "2957cc65973871919c075715c585fd8a6177a7d4c5e5dff66d65efed38220768",
        "Sandybridge": "fc8b30827e7ce6d0e06b9e3accb8891b506937ca2c58de3ce2876e7d2c0fa426",
    }),
    ("F8", 517, {
        "SkylakeX": "102934944e19be40f403942c1e8ecbb0b08ac3b1894715864e6b8976e810f881",
        "Haswell": "95e5ba2d974dc9d7ab878c9604fce880dd576e2568a9b49bf9ee1a0840d2a1d9",
        "Sandybridge": "802709bfb6b42ab43be75daeefdb9cfe30bab315df0fcb486b420e963b40a6cb",
    }),
    ("F3xF3", 2024, {
        "SkylakeX": "ef2cefaa382431a82c71202f89e87be5969af89e02de98d48ebdbcd79bad7936",
        "Haswell": "6a4966790ff5ffc0fc37ac86a7bdb045cd323383f5cf45f38b256ea89845d715",
        "Sandybridge": "5f9b2b217518a37bde6c12ed6e836c1f0fde2764abef55ce343f34dd254d116f",
    }),
]


@pytest.mark.parametrize("label, index, digests", FROZEN_CONSTR2, ids=["petrescu1", "F8", "F3xF3"])
def test_constr2_members_are_frozen(label, index, digests, frozen):
    spec = find_block_pairs(corpus.get(label))[index]
    h = hashlib.sha256()
    for lam in FROZEN_LAMBDAS:
        member = constr2_family(spec, lam)
        assert member.tobytes() == brute.reference_block_phase(spec, lam).tobytes()
        h.update(member.tobytes())
    h.update(brute.verify_unitarity_identity(spec).hex().encode())
    frozen(digests, h.hexdigest())


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


class TestKindAndParameter:
    """Each constructor takes only its own kind of spec and a number for its
    parameter; anything else is one ValueError that names what is wrong,
    with no numpy warning on the way."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_constr2_rejects_a_commuting_pair(self, f4_pairs):
        # it used to return a 4x4 member of the commuting family
        with pytest.raises(ValueError, match="constr2_family needs a block quadruple spec, "
                                             "got a commuting pair spec"):
            constr2_family(f4_pairs[0], 1j)

    def test_constr1_rejects_a_block_quadruple(self, petrescu_specs):
        # it used to return the block family at lam = e^{it}
        with pytest.raises(ValueError, match="constr1_family needs a commuting pair spec, "
                                             "got a block quadruple spec"):
            constr1_family(petrescu_specs[0], 0.5)

    @pytest.mark.parametrize("family, arg", [(constr1_family, 0.5), (constr2_family, 1j)])
    @pytest.mark.parametrize("spec", [None, object(), {"theorem": "constr1"}],
                             ids=["None", "object", "dict"])
    def test_rejects_a_non_spec(self, family, arg, spec):
        with pytest.raises(ValueError, match=f"needs a .* spec, got {type(spec).__name__}"):
            family(spec, arg)

    @pytest.mark.parametrize("t", [None, "a", 1j, "1", [0.5]], ids=["None", "a", "1j", "str-1", "list"])
    def test_constr1_names_a_bad_t(self, f4_pairs, t):
        with pytest.raises(ValueError, match=r"t must be a real number, got "):
            constr1_family(f4_pairs[0], t)

    @pytest.mark.parametrize("lam", [None, "a", "1", [1.0]], ids=["None", "a", "str-1", "list"])
    def test_constr2_names_a_bad_lambda(self, petrescu_specs, lam):
        # "1" used to be accepted through complex("1")
        with pytest.raises(ValueError, match="lambda must be a complex number, got "):
            constr2_family(petrescu_specs[0], lam)

    def test_the_parameter_is_checked_before_the_spec(self):
        with pytest.raises(ValueError, match="t must be"):
            constr1_family(None, None)
        with pytest.raises(ValueError, match="lambda must be"):
            constr2_family(None, None)

    def test_numpy_parameters_keep_their_bits(self, f4_pairs, petrescu_specs):
        for spec in f4_pairs:
            for t in (0.3, -2.5, 1e6):
                assert np.array_equal(constr1_family(spec, np.float64(t)), constr1_family(spec, t))
            assert np.array_equal(constr1_family(spec, np.int64(2)), constr1_family(spec, 2.0))
        for spec in petrescu_specs[:20]:
            for a in (0.3, -2.5):
                lam = np.exp(1j * a)
                assert np.array_equal(constr2_family(spec, np.complex128(lam)),
                                      constr2_family(spec, complex(lam)))
            assert np.array_equal(constr2_family(spec, np.float64(-1.0)), constr2_family(spec, -1))

    @pytest.mark.parametrize("spec", [object(), None, "constr1"])
    def test_serializing_a_non_spec(self, spec):
        with pytest.raises(ValueError, match=f"not a family spec: {type(spec).__name__}"):
            spec_to_json_dict(spec, "x")

    def test_the_cli_member_is_the_constructor(self, f4_pairs, petrescu_specs):
        # families._block_phase at e^{it}, which `hadcert family` calls for
        # both kinds, is constr1_family at t and constr2_family at e^{it},
        # bit for bit
        for t in (0.0, 1.3, -2.5, 1e6):
            lam = np.exp(1j * t)
            for spec in f4_pairs:
                assert np.array_equal(families._block_phase(spec, lam, DEFAULT_POLICY),
                                      constr1_family(spec, t))
            for spec in petrescu_specs[::40]:
                assert np.array_equal(families._block_phase(spec, lam, DEFAULT_POLICY),
                                      constr2_family(spec, lam))


class TestUnitarityIdentity:
    def test_petrescu_specs(self, petrescu_specs):
        for s in petrescu_specs:
            assert brute.verify_unitarity_identity(s) < 1e-12

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
            vals.append(brute.verify_unitarity_identity(s))
        assert max(vals) > 0.1

    def test_zero_masks_zero(self):
        # degenerate all-zero projections: the combination is identically 0;
        # bypass the nontriviality gate by evaluating the formula directly
        from hadcert.families import BlockPairSpec

        z = np.zeros(7, dtype=np.int8)
        s = BlockPairSpec(petrescu(1.0), z, z, z, z, 0.0)
        assert brute.verify_unitarity_identity(s) == 0.0

    def test_commuting_pair_names_the_kind(self):
        spec = find_commuting_pairs(fourier(4))[0]
        with pytest.raises(ValueError, match="needs a block quadruple, not a CommutingPairSpec"):
            brute.verify_unitarity_identity(spec)


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


def test_python_scan_matches_brute():
    # the raw candidates of the bitset block scan, before the exact filter
    for u in map(corpus.get, ["F4", "random5"]):
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
    # witnesses by about the tolerance: (block candidates, commuting
    # candidates). Which of them the exact residual rejects hangs on the last
    # bits of the input, and so on the BLAS kernel. The commuting step is the
    # spectral exponential, not constr1_family's closed form (which rejects
    # 1644 block candidates)
    (lambda: constr2_family(find_block_pairs(corpus.get("F2xF4"))[0], np.exp(2e-9j)),
     (3056, 37)),
    (lambda: brute.expm_member(find_commuting_pairs(corpus.get("F2xF2xF2"))[0], 2e-9),
     (6832, 77)),
], ids=["F2xF4-constr2", "F2xF2xF2-constr1"])
def test_exact_filter_is_the_public_loop(make, counts):
    # the finders filter stacked chunks of candidates, 512 to a chunk at
    # n = 8: the block candidates fill 6 or 14 chunks and each chunk has
    # rejections; the commuting candidates fit in one chunk, which has
    # rejections too
    u = make()
    block, n_block, rej_block = _public_loop(u, _scan_block_pairs, block_residual)
    pairs, n_pairs, rej_pairs = _public_loop(u, _scan_commuting_pairs, commuting_residual)
    assert (n_block, n_pairs) == counts
    assert {i // 512 for i in rej_block} == set(range(-(-n_block // 512)))
    assert rej_pairs
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


@pytest.mark.parametrize("label", ["F4", "F6", "F8", "petrescu1", "F2xF4", "F7", "F12"],
                         ids=["F4", "F6", "F8", "petrescu", "F2xF4", "F7", "F12"])
def test_witnesses_span_left_kernel(label):
    # certify_isolation and the finders share no code: each witness gives a
    # left null vector of the span matrix, p x d for a commuting pair and
    # p1 x d1 - p2 x d2 for a block quadruple, and with the 2n - 1 trivial
    # vectors e_i x 1 and 1 x e_j they span the whole left kernel
    u = corpus.get(label)
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
    # many distinct rows on few word-0 values: a word-0 hit expands to a
    # whole group and the later words decide
    sets, rows = _grouped_pool(rng, words)
    i, r = _covering(sets, rows)
    assert list(zip(i.tolist(), r.tolist())) == _covering_order(sets, rows)
    assert sorted(zip(i.tolist(), r.tolist())) == _brute_covering(sets, rows)
    if words > 1:
        assert len(set(rows[:, 0].tolist())) <= 4 < len(set(map(bytes, rows)))
        assert ~np.uint64(0) in rows[:, 0]
        assert sum(not (s[0] & ~row[0]) for s in sets for row in rows) > len(i) > 0


def _grouped_pool(rng, words):
    """Sets and rows for _covering: 60 rows drawn from 30 distinct ones on at
    most four word-0 values, one of them all ones; sets are subsets of rows
    with one word (for words > 1 a later one) spoiled, and a few sparse sets."""
    def draw(shape, density):
        flags = rng.random((*shape, 64)) < density
        return np.packbits(flags, axis=-1, bitorder="little").view(np.uint64).reshape(shape)

    pool = draw((30, words), 0.7)
    pool[:, 0] = draw((3, 1), 0.6)[rng.integers(0, 3, 30), 0]
    pool[:10, 0] = ~np.uint64(0)
    rows = pool[rng.integers(0, len(pool), 60)]
    sets = rows[rng.integers(0, len(rows), 100)] & draw((100, words), 0.3)
    w = rng.integers(1 if words > 1 else 0, words, 100)
    sets[np.arange(100), w] |= np.uint64(1) << rng.integers(0, 64, 100).astype(np.uint64)
    return np.concatenate([sets, draw((30, words), 0.05)]), rows


def _covering_order(sets, rows):
    """The covering pairs in _covering's order: by set, then by row in a
    lexsort of the rows (word 0 first), then by row index."""
    rank = np.empty(len(rows), dtype=np.intp)
    rank[np.lexsort(rows.T[::-1])] = np.arange(len(rows))
    return sorted(_brute_covering(sets, rows), key=lambda ir: (ir[0], rank[ir[1]]))


def test_covering_cap(monkeypatch):
    # full rows cover every set: 3 sets x 5 rows (one distinct) are 15 pairs
    sets = np.arange(3, dtype=np.uint64).reshape(3, 1)
    rows = np.full((5, 1), ~np.uint64(0))
    monkeypatch.setattr(families, "CANDIDATE_CAP", 15)
    assert len(_covering(sets, rows)[0]) == 15
    monkeypatch.setattr(families, "CANDIDATE_CAP", 14)
    with pytest.raises(ValueError, match="more than 14 candidates"):
        _covering(sets, rows)


@pytest.mark.parametrize("step", [1, 5, 64])
@pytest.mark.parametrize("words", [1, 3])
def test_covering_in_small_steps(step, words, monkeypatch, rng):
    # a step of a few elements puts one or a few sets in a chunk and cuts the
    # word-0 hits into pieces of a few pairs (empty pieces too, when a group
    # is larger than a step): the pairs and their order stay the same
    sets, rows = _grouped_pool(rng, words)
    want = list(zip(*_covering(sets, rows)))
    monkeypatch.setattr(families, "_STEP", step)
    i, r = _covering(sets, rows)
    assert list(zip(i, r)) == want == [tuple(x) for x in _covering_order(sets, rows)]


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("scrambled", [False, True], ids=["plain", "scrambled"])
def test_commuting_tables_are_rows_of_the_full_table(n, scrambled, monkeypatch):
    # the commuting finder tabulates only the canonical masks; each of its
    # zero rows must be the matching row of the table over every mask, bit for
    # bit, and so must each cross row of the order's commuting plan
    label = f"F{n}s" if scrambled else f"F{n}"
    u = corpus.get(label)
    calls = []

    def recording(u, tol, rows):
        calls.append((rows, _edge_tables(u, tol, rows)))
        return calls[-1][1]

    monkeypatch.setattr(families, "_edge_tables", recording)
    assert len(find_commuting_pairs(u)) == corpus.FACTS[label].commuting[0]
    (rows, zero), = calls
    masks = np.arange(2, (1 << n) - 1, 2)
    every = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.int8)
    assert np.array_equal(rows, every[masks])
    full_zero = _edge_tables(u, DEFAULT_POLICY.tol_unitary, every)
    assert np.array_equal(zero, full_zero[masks])
    canon, _, cross = families._commuting_plan(n)
    assert canon.tolist() == masks.tolist()
    assert np.array_equal(cross, families._cross(every)[masks])


PLANS = (families._edges, families._commuting_plan, families._block_plan)


def test_scan_plans_are_read_only_and_change_nothing():
    # the per-order plans are built once and shared by every call: writing to
    # one raises, and the finders give the same output from a cold cache as
    # from a warm one
    inputs = list(map(corpus.get, ["F6", "petrescu1", "F2xF4", "F9s"]))

    def run():
        return [(_rows(find_block_pairs(u)), _rows(find_commuting_pairs(u))) for u in inputs]

    for plan in PLANS:
        plan.cache_clear()
    cold = run()
    assert all(plan.cache_info().currsize == 4 for plan in PLANS)
    assert run() == cold and cold[0][0] and cold[1][0]
    assert all(plan.cache_info().hits >= 4 for plan in PLANS)
    for n in (6, 9):
        arrays = [a for plan in PLANS for a in plan(n)]
        assert len(arrays) == 14
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert all(plan(n) is plan(n) for plan in PLANS)


@pytest.mark.parametrize("find, label", [
    (find_commuting_pairs, "F2xF4"), (find_block_pairs, "petrescu1"),
], ids=["constr1", "constr2"])
def test_finder_specs_are_constructor_specs(find, label):
    # the finders fill each spec's fields straight into its __dict__; each
    # must be the spec the class constructor builds from the same fields
    specs = find(corpus.get(label))
    assert specs
    for spec in specs:
        cls = type(spec)
        names = [f.name for f in dataclasses.fields(cls)]
        built = cls(*(getattr(spec, name) for name in names))
        assert list(vars(spec)) == list(vars(built)) == names
        assert all(getattr(spec, name) is getattr(built, name) for name in names)
        assert spec.residual.hex() == built.residual.hex()
        assert type(spec.residual) is float
        assert repr(spec) == repr(built)
        assert repr(dataclasses.replace(spec, residual=0.5)) == repr(
            dataclasses.replace(built, residual=0.5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.residual = 0.0


def _count_and_digest(specs):
    masks = [tuple(mask_indices(getattr(s, f)) for f in s.__dataclass_fields__
                   if f.endswith("mask")) for s in specs]
    return len(masks), hashlib.sha256(repr(masks).encode()).hexdigest()[:16]


@pytest.mark.parametrize("label", corpus.FACTS)
def test_finder_output_is_frozen(label):
    # each row of the corpus table: the certified span rank, and the count and
    # digest of each finder's output, or no output past the finder's cap
    u = corpus.get(label)
    rank, block, commuting = corpus.FACTS[label]
    cert = certify_isolation(u)
    assert cert.rank == rank and cert.gap >= DEFAULT_POLICY.cert_gap_min
    assert (block is None, commuting is None) == (len(u) > BLOCK_CAP, len(u) > COMMUTING_CAP)
    if block is not None:
        assert _count_and_digest(find_block_pairs(u)) == block
    if commuting is not None:
        assert _count_and_digest(find_commuting_pairs(u)) == commuting
