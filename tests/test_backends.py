"""The bitset block scan, on its own, must match a brute-force search.

There is a single scan implementation; this checks its raw candidates,
before the exact residual filter, on orders small enough to brute-force.
"""

from hadcert import fourier
from hadcert.families import _edge_tables, _scan_block_pairs

import brute


def run_scan(u, tol=1e-9):
    _, zero, cross = _edge_tables(u, tol)
    return sorted(map(tuple, _scan_block_pairs(zero, cross, u.shape[0]).tolist()))


def test_python_scan_matches_brute(rng):
    for u in (fourier(4), brute.random_biunitary(5, rng)):
        got = run_scan(u)
        assert got == brute.brute_block_pairs(u)
