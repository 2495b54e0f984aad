"""The commuting square's symmetries as oracles: duality and equivalence.

Conjugating by U* turns [diag(p), U diag(d) U*] into [U* diag(p) U, diag(d)],
so the witnesses of U* are those of U with the p and d sides traded, and the
span rank is the same for U, U*, its transpose and its conjugate. An
equivalence move D1 P1 U P2 D2 permutes the witnesses by P1 on the p side and
by P2 on the d side; the phases D1, D2 leave them and the rank unchanged.
Sets of masks and ranks are compared, never float bits.
"""

import numpy as np
import pytest

from hadcert import certify_isolation, find_block_pairs, find_commuting_pairs, fourier, petrescu
from hadcert.families import BLOCK_CAP

BASES = {
    "F6": lambda: fourier(6),
    "F8": lambda: fourier(8),
    "F2xF4": lambda: np.kron(fourier(2), fourier(4)),
    "F3xF3": lambda: np.kron(fourier(3), fourier(3)),
    "petrescu1": lambda: petrescu(1.0),
    "petrescu0.9i": lambda: petrescu(np.exp(0.9j)),
    "F12": lambda: fourier(12),
}


def _bits(mask):
    """The integer whose bit k is entry k of a 0/1 mask."""
    return sum(int(b) << k for k, b in enumerate(mask))


def _commuting(u):
    return {(_bits(s.p_mask), _bits(s.d_mask)) for s in find_commuting_pairs(u)}


def _block(u):
    return {(_bits(s.p1_mask), _bits(s.p2_mask), _bits(s.d1_mask), _bits(s.d2_mask))
            for s in find_block_pairs(u)}


@pytest.mark.parametrize("label", BASES)
def test_adjoint_trades_the_sides(label):
    u = BASES[label]()
    n = len(u)
    adjoint = u.conj().T
    pairs = _commuting(u)
    assert _commuting(adjoint) == {(d, p) for p, d in pairs}
    if n <= BLOCK_CAP:
        # (p1, p2 | d1, d2) of U is (d1, d2 | p1, p2) of U*, with the sides
        # 1 and 2 swapped where that puts the smaller p mask first
        quads = _block(u)
        assert pairs or quads
        assert _block(adjoint) == {(d1, d2, p1, p2) if d1 < d2 else (d2, d1, p2, p1)
                                   for p1, p2, d1, d2 in quads}
    if n <= 9:
        rank = certify_isolation(u).rank
        assert [certify_isolation(v).rank for v in (adjoint, u.T, u.conj())] == [rank] * 3


def _move(u, rng):
    """D1 P1 u P2 D2 with seeded unimodular diagonals and permutations, and
    the permutations as index arrays: entry (a, b) is u[rows[a], cols[b]]
    times a phase."""
    n = len(u)
    d1, d2 = np.exp(2j * np.pi * rng.random((2, n)))
    rows, cols = rng.permutation(n), rng.permutation(n)
    return d1[:, None] * u[rows][:, cols] * d2[None, :], rows, cols


def _permuted(mask, perm):
    """The mask whose bit k is bit perm[k] of mask."""
    return sum(((mask >> int(j)) & 1) << k for k, j in enumerate(perm))


@pytest.mark.parametrize("label", ["F8", "F3xF3", "petrescu1", "F12"])
def test_equivalence_moves_permute_the_witnesses(label, rng):
    # D1 P1 U P2 D2 conjugates [diag(p), U diag(d) U*] by D1 P1, with p read
    # through the rows of P1 and d through the columns of P2. Each side is
    # then put back in the finders' canonical form: a commuting mask with
    # bit 0 set is replaced by its complement, and a quadruple takes the
    # 1 <-> 2 swap that puts the smaller p mask first
    u = BASES[label]()
    n = len(u)
    full = (1 << n) - 1
    pairs = _commuting(u)
    quads = _block(u) if n <= BLOCK_CAP else set()
    assert pairs or quads
    rank = certify_isolation(u).rank if n <= 9 else None
    for _ in range(2):
        v, rows, cols = _move(u, rng)
        moved = {(_permuted(p, rows), _permuted(d, cols)) for p, d in pairs}
        assert _commuting(v) == {(p ^ full * (p & 1), d ^ full * (d & 1)) for p, d in moved}
        if n <= BLOCK_CAP:
            moved = {(_permuted(p1, rows), _permuted(p2, rows), _permuted(d1, cols),
                      _permuted(d2, cols)) for p1, p2, d1, d2 in quads}
            assert _block(v) == {(p1, p2, d1, d2) if p1 < p2 else (p2, p1, d2, d1)
                                 for p1, p2, d1, d2 in moved}
        if rank is not None:
            assert certify_isolation(v).rank == rank
