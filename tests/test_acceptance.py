"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import brute
from hadcert import (
    SearchConfig,
    certify_isolation,
    constr1_family,
    constr2_family,
    find_block_pairs,
    find_commuting_pairs,
    fourier,
    gradient,
    local_search,
    mask_from_indices,
    mask_indices,
    petrescu,
    verify_biunitary,
)
from hadcert.cli import format_matrix
from hadcert.spancert import ISOLATED, SPAN_FAILS

# |det| of the 36x36 reduced minor of the order-7 quadratic-residue
# circulant: LU, SVD-product and eigenvalue-product routes agree on this
# value to ~1e-14 relative; regression-checked at 1e-6.
BJORCK_MINOR_ABS_DET = 3.5870832787711775e-21

PRIMES = (2, 3, 5, 7, 11, 13)
COMPOSITES = (4, 6, 8, 9, 10, 12)


def report(ok, msg):
    print(f"[{'PASS' if ok else 'FAIL'}] {msg}", flush=True)
    assert ok, msg


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hadcert", *args],
        capture_output=True, text=True, input=stdin,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_1_fourier_primality_dichotomy():
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in PRIMES:
        cert = certify_isolation(fourier(n))
        good = cert.rank == (n - 1) ** 2 and cert.verdict == ISOLATED and cert.gap >= 1e4
        ok &= good
        detail.append(f"{n}:{cert.verdict}")
    for n in COMPOSITES:
        cert = certify_isolation(fourier(n))
        pairs = find_commuting_pairs(fourier(n))
        good = cert.verdict == SPAN_FAILS and cert.gap >= 1e4 and len(pairs) > 0
        ok &= good
        detail.append(f"{n}:{cert.verdict}/{len(pairs)}p")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(ok, f"criterion 1: Fourier primality dichotomy ({', '.join(detail)}; {elapsed:.1f}s)")


def test_criterion_2_kernel_dimension():
    dims = {p: p * p - certify_isolation(fourier(p)).rank for p in (3, 5, 7, 11)}
    ok = all(dims[p] == 2 * p - 1 for p in dims)
    report(ok, f"criterion 2: kernel dimension 2p-1 exactly ({dims})")


def test_criterion_3_minor_reproduction():
    t0 = time.monotonic()
    code, out, _ = run_cli(["repro"])
    elapsed = time.monotonic() - t0
    doc = json.loads(out)
    rel = abs(doc["abs_det_minor"] - BJORCK_MINOR_ABS_DET) / BJORCK_MINOR_ABS_DET
    gap_ok = doc["gap"] is not None and doc["gap"] >= 1e4
    ok = (
        code == 0
        and doc["rank"] == 36
        and gap_ok
        and doc["minor_full_rank"]
        and rel <= 1e-6
        and elapsed < 5.0
    )
    report(ok, f"criterion 3: order-7 circulant rank 36, |det(M)| rel err "
               f"{rel:.2e}, {elapsed:.2f}s")


def test_criterion_4_petrescu_family():
    specs = find_block_pairs(petrescu(1.0))
    spec = next(
        s for s in specs
        if mask_indices(s.p1_mask) == [0, 1] and mask_indices(s.p2_mask) == [2, 3]
        and mask_indices(s.d1_mask) == [0, 1] and mask_indices(s.d2_mask) == [2, 3]
    )
    ok = spec.residual < 1e-12
    worst_entry = 0.0
    for ang in np.linspace(0.2, 2 * np.pi - 0.2, 8):
        lam = np.exp(1j * ang)
        member = constr2_family(spec, lam)
        worst_entry = max(worst_entry, float(np.max(np.abs(member - petrescu(lam)))))
        v = verify_biunitary(member)
        ok &= v.max_modulus_deviation <= 1e-9 and v.max_unitarity_residual <= 1e-9
    ok &= worst_entry < 1e-12
    report(ok, f"criterion 4: block family matches the 7x7 one-parameter matrix "
               f"entrywise (worst {worst_entry:.2e}, residual {spec.residual:.2e})")


def test_criterion_5_commuting_family_composite():
    ok = True
    counts = {}
    for n in (4, 6):
        pairs = find_commuting_pairs(fourier(n))
        counts[n] = len(pairs)
        ok &= len(pairs) > 0
        spec = pairs[0]
        ok &= spec.residual <= 1e-9
        for t in np.linspace(-np.pi, np.pi, 16):
            v = verify_biunitary(constr1_family(spec, float(t)))
            ok &= v.max_modulus_deviation <= 1e-9 and v.max_unitarity_residual <= 1e-9
    report(ok, f"criterion 5: commuting-pair families at n=4,6 ({counts})")


def test_criterion_6_unitarity_identity():
    worst = 0.0
    specs = []
    for u in (petrescu(1.0), fourier(4), fourier(6)):
        specs.extend(find_block_pairs(u))
    for s in specs:
        worst = max(worst, brute.verify_unitarity_identity(s))
    ok = bool(specs) and worst < 1e-12
    report(ok, f"criterion 6: unitarity identity on {len(specs)} certified "
               f"quadruples (worst {worst:.2e})")


def test_criterion_7_rank_equivalence_invariance():
    rng = np.random.default_rng(7171)
    from hadcert import bjorck7

    ok = True
    for base in (fourier(7), bjorck7()):
        r0 = certify_isolation(base).rank
        for _ in range(20):
            moved = brute.random_equivalence_move(base, rng)
            ok &= certify_isolation(moved).rank == r0
    report(ok, "criterion 7: certified rank invariant under 20 random "
               "equivalence moves on both order-7 bases")


def test_criterion_8_span_rank_upper_bound():
    rng = np.random.default_rng(8181)
    ok = True
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(4, 10))
        cert = certify_isolation(brute.random_biunitary(n, rng))
        ok &= cert.rank <= cert.expected
        worst = max(worst, cert.rank - cert.expected)
    report(ok, f"criterion 8: 50 random biunitaries respect the rank bound "
               f"(max rank-expected = {worst})")


def test_criterion_9_search_recovery():
    rng = np.random.default_rng(9191)
    masks = dict(
        p1=mask_from_indices([0, 1], 7), p2=mask_from_indices([2, 3], 7),
        p3=mask_from_indices([0, 1], 7), p4=mask_from_indices([2, 3], 7),
    )
    theta0 = np.angle(petrescu(1.0)) + rng.uniform(-1e-3, 1e-3, (7, 7))
    cfg = SearchConfig(n=7, seed_phases=theta0, **masks)
    t0 = time.monotonic()
    res = local_search(cfg)
    elapsed = time.monotonic() - t0
    ok = res.converged and res.objective < 1e-10 and elapsed < 10.0

    n = 5
    cfg5 = SearchConfig(
        n=n,
        p1=mask_from_indices([0], n), p2=mask_from_indices([1, 2], n),
        p3=mask_from_indices([0, 4], n), p4=mask_from_indices([1], n),
    )
    worst_rel = 0.0
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, (n, n))
        g = gradient(theta, cfg5)
        fd = brute.fd_gradient(theta, cfg5, h=1e-6)
        worst_rel = max(worst_rel, float(np.max(np.abs(g - fd)) / np.max(np.abs(fd))))
    ok &= worst_rel < 1e-5
    report(ok, f"criterion 9: search recovery (objective {res.objective:.2e} in "
               f"{elapsed:.1f}s; gradient FD rel err {worst_rel:.2e})")


def test_criterion_10_cli_determinism(tmp_path):
    f = tmp_path / "f7.mat"
    f.write_text(format_matrix(fourier(7)))
    invocations = [
        ["certify", str(f)],
        ["repro"],
        ["search", "--n", "4", "--masks", ";;;", "--seed", "5", "--starts", "2",
         "--max-iters", "60"],
    ]
    ok = True
    for args in invocations:
        c1, o1, _ = run_cli(args)
        c2, o2, _ = run_cli(args)
        ok &= c1 == c2 and o1 == o2 and o1 != ""
    report(ok, "criterion 10: repeated CLI invocations byte-identical")
