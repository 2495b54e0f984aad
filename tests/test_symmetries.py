"""The commuting square's symmetries as oracles: duality.

Conjugating by U* turns [diag(p), U diag(d) U*] into [U* diag(p) U, diag(d)],
so the witnesses of U* are those of U with the p and d sides traded, and the
span rank is the same for U, U*, its transpose and its conjugate. Sets of
masks and ranks are compared, never float bits.
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
