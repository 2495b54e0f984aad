"""The four benchmark workloads: inputs, jobs and their oracles.

Every workload is closed loop with one client: a job starts when the one
before it has finished and been checked. A workload object builds its inputs
from the seed once (``__init__``), warms up (``warm_up``) and then hands out
one cycle of jobs at a time (``jobs``); a run repeats whole cycles, so every
run sees the same input mix.

A job's ``run`` is the timed call into hadcert. Its ``check`` is the oracle,
untimed, returning None or the reason the output is wrong. ``corrupt`` makes
a deliberately wrong copy of an output (a rank off by one, a dropped
witness, a flipped stdout byte), which the self-test feeds to ``check``.
Library calls are looked up on the module at call time, so the traced run's
hooks see them.
"""

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

import oracles as orc

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    corrupt: Optional[Callable[[object], object]] = None
    solution: Callable[[object], bool] = field(default=lambda out: True)


def load_refs():
    with open(os.path.join(DATA, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_phase_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def petrescu_angle(rng, refs):
    lo, hi = refs["petrescu_angle_range"]
    return float(rng.uniform(lo, hi))


def kron_inputs():
    f = orc.fourier_matrix
    return {
        "F2xF3": np.kron(f(2), f(3)),
        "F2xF2xF2": np.kron(np.kron(f(2), f(2)), f(2)),
        "F2xF4": np.kron(f(2), f(4)),
        "F3xF3": np.kron(f(3), f(3)),
        "F4xF4": np.kron(f(4), f(4)),
    }


# --- certify ------------------------------------------------------------------

# Orders up to 16 run this many times per cycle and F24-F48 once: the large
# orders still take most of the time, and the median and tail are then order
# statistics inside clusters of repeated inputs rather than single samples.
SMALL_REPEATS = 5

class Certify:
    """certify_isolation over small and large orders.

    Fourier F2-F16, bjorck7, petrescu at a seeded lambda and five Kronecker
    products, each with a seeded scrambled copy, then F24-F48. The SVD is nearly
    all of the time from F32 up, so throughput and memory follow the large
    orders while the median job is a small order (verify, span build and
    Python overhead). The span matrix is n^4 * 16 B: 1 MiB at F16, 85 MB at
    F48. Per cycle the orders up to 16 run SMALL_REPEATS times.
    """

    name = "certify"
    min_cycles = 1

    def __init__(self, seed, hc):
        self.hc = hc
        self.refs = load_refs()
        rng = np.random.default_rng([seed, 1])
        self.inputs = []     # (label, matrix, expected rank)
        for n in range(2, 17):
            f = orc.fourier_matrix(n)
            self.inputs.append((f"F{n}", f, orc.fourier_rank(n)))
            self.inputs.append((f"F{n}s", orc.scramble(f, rng), orc.fourier_rank(n)))
        lam = np.exp(1j * petrescu_angle(rng, self.refs))
        others = {"bjorck7": hc.bjorck7(), "petrescu": hc.petrescu(lam), **kron_inputs()}
        for label, u in others.items():
            self.inputs.append((label, u, self.refs["rank"][label]))
            self.inputs.append((label + "s", orc.scramble(u, rng), self.refs["rank"][label]))
        for n in (24, 32, 40, 48):
            self.inputs.append((f"F{n}", orc.fourier_matrix(n), orc.fourier_rank(n)))

    def warm_up(self):
        for label, u, _ in self.inputs:
            if u.shape[0] <= 24:
                self.hc.certify_isolation(u)

    def jobs(self, cycle):
        small = [x for x in self.inputs if x[1].shape[0] <= 16]
        large = [x for x in self.inputs if x[1].shape[0] > 16]
        # one large order between repeats, so that the small jobs sample
        # the whole cycle rather than one stretch of it
        order = []
        for r in range(SMALL_REPEATS):
            order += small + large[r::SMALL_REPEATS]
        for label, u, rank in order:
            yield Job(label, lambda u=u: self.hc.certify_isolation(u),
                      lambda c, n=u.shape[0], r=rank: _check_cert(c, n, r),
                      corrupt=lambda c: replace(c, rank=c.rank + 1))


def _check_cert(cert, n, rank):
    if cert.n != n or cert.expected != n * n - 2 * n + 1:
        return f"order {cert.n}, expected {cert.expected}"
    if cert.rank != rank:
        return f"rank {cert.rank}, oracle {rank}"
    if not cert.gap >= orc.CERT_GAP:
        return f"gap {cert.gap:.3e} below the certified minimum"
    want = orc.expected_verdict(n, cert.rank, cert.gap)
    if cert.verdict != want:
        return f"verdict {cert.verdict}, rule gives {want}"
    s = np.asarray(cert.singular_values)
    if s.size != n * n or int(np.sum(s > orc.RANK_CUT * s[0])) != cert.rank:
        return "rank disagrees with the returned spectrum"
    return None


# --- witness ------------------------------------------------------------------

# Per cycle the block finder runs once on the inputs of order >= 8 (about 12 s
# of mask scan), one of them before each of CHEAP_REPEATS passes over the
# cheap jobs (orders <= 9), so that the millisecond jobs that set the median
# sample the whole cycle rather than a few seconds of it. The commuting
# finder on F12 and F14 runs on every MID_EVERY-th pass only, as it costs
# 0.1-0.6 s a call.
CHEAP_REPEATS = 9
MID_EVERY = 3


class Witness:
    """Exhaustive witness finders and the families they generate.

    find_block_pairs on witness-rich inputs (F8, F2xF4, F3xF3, F9, each with
    a scrambled copy, and petrescu(1)) and on inputs with few or no witnesses
    (bjorck7, F7, petrescu at a seeded lambda, a stored generic isolated
    n=9 biunitary); find_commuting_pairs on the same inputs plus F12 and F14
    and their copies; one constr1/constr2 member at seeded parameters from
    the first witness of each list found on an unscrambled input. The mask
    scan dominates find_block_pairs from n=8, and the rich/poor split
    separates enumeration cost from candidate and filter cost. n=10 is left
    out: one numpy-scan call takes about 18 s.
    """

    name = "witness"
    min_cycles = 1

    def __init__(self, seed, hc):
        self.hc = hc
        self.refs = load_refs()
        self.rng = np.random.default_rng([seed, 2])
        f = orc.fourier_matrix
        kr = kron_inputs()
        g9 = read_phase_file(os.path.join(DATA, "generic9.phase"))
        lam = np.exp(1j * petrescu_angle(self.rng, self.refs))
        base = [("F8", f(8)), ("F2xF4", kr["F2xF4"]), ("F3xF3", kr["F3xF3"]),
                ("F9", f(9))]
        self.inputs = []     # (label, ref key, matrix, base label or None, block?)
        for label, u in base:
            self.inputs.append((label, label, u, None, True))
            self.inputs.append((label + "s", label, orc.scramble(u, self.rng), label, True))
        self.inputs += [
            ("petrescu1", "petrescu1", hc.petrescu(1.0), None, True),
            ("bjorck7", "bjorck7", hc.bjorck7(), None, True),
            ("F7", "F7", f(7), None, True),
            ("petrescu", "petrescu", hc.petrescu(lam), None, True),
            ("generic9", "generic9", g9, None, True),
        ]
        for n in (12, 14):
            u = f(n)
            self.inputs.append((f"F{n}", f"F{n}", u, None, False))
            self.inputs.append((f"F{n}s", f"F{n}", orc.scramble(u, self.rng), f"F{n}", False))

    def warm_up(self):
        u = orc.fourier_matrix(6)
        self.hc.find_block_pairs(u)
        self.hc.constr1_family(self.hc.find_commuting_pairs(u)[0], 0.5)

    def jobs(self, cycle):
        counts = {}
        specs = {}
        heavy = [x for x in self.inputs if x[4] and x[2].shape[0] >= 8]
        for r in range(CHEAP_REPEATS):
            # a share of the heavy jobs between repeats, so that the cheap
            # jobs sample the whole cycle; bases still precede their copies
            for label, key, u, base, block in heavy[r * len(heavy) // CHEAP_REPEATS:
                                                    (r + 1) * len(heavy) // CHEAP_REPEATS]:
                yield self._finder("block", label, key, u, base, counts, specs)
            for label, key, u, base, block in self.inputs:
                if u.shape[0] > 9 and r % MID_EVERY:
                    continue
                if block and u.shape[0] < 8:
                    yield self._finder("block", label, key, u, base, counts, specs)
                yield self._finder("commuting", label, key, u, base, counts, specs)
                if ("block", label) in specs:
                    spec = specs["block", label]
                    lam = np.exp(1j * self.rng.uniform(0.1, 2.0 * np.pi - 0.1))
                    yield Job(f"constr2 {label}",
                              lambda s=spec, lam=lam: self.hc.constr2_family(s, lam),
                              lambda v, s=spec, lam=lam: _check_constr2(v, s, lam),
                              corrupt=_flip_entry)
                if ("commuting", label) in specs:
                    spec = specs["commuting", label]
                    t = float(self.rng.uniform(0.1, 3.0))
                    yield Job(f"constr1 {label}",
                              lambda s=spec, t=t: self.hc.constr1_family(s, t),
                              lambda v, s=spec, t=t: _check_constr1(v, s, t),
                              corrupt=_flip_entry)

    def _finder(self, kind, label, key, u, base, counts, specs):
        """One finder job; a base input's first witness is kept in ``specs``
        for the family jobs that follow it."""
        check = _check_block if kind == "block" else _check_commuting
        ref = self.refs["block_pairs" if kind == "block" else "commuting_pairs"][key]

        def find():
            out = (self.hc.find_block_pairs if kind == "block"
                   else self.hc.find_commuting_pairs)(u)
            if base is None and out:
                specs[kind, label] = out[0]
            return out

        def checked(out):
            counts[kind, label] = len(out)
            return check(out, u, ref, counts.get((kind, base)))

        return Job(f"{kind} {label}", find, checked,
                   corrupt=_drop_or_invent_block if kind == "block" else _drop_or_invent_pair)


def _mask_rows(specs, names):
    return [np.array([np.asarray(getattr(s, k), dtype=np.float64) for s in specs])
            for k in names]


def _check_block(specs, u, ref_count, base_count):
    if len(specs) != ref_count:
        return f"{len(specs)} quadruples, reference {ref_count}"
    if base_count is not None and len(specs) != base_count:
        return f"{len(specs)} quadruples, base matrix gave {base_count}"
    if not specs:
        return None
    n = u.shape[0]
    p1, p2, d1, d2 = _mask_rows(specs, ("p1_mask", "p2_mask", "d1_mask", "d2_mask"))
    for m in (p1, p2, d1, d2):
        s = m.sum(axis=1)
        if np.any((m != 0) & (m != 1)) or np.any(s == 0) or np.any(s == n):
            return "a mask is not a proper 0/1 mask"
    if np.any(p1 * p2) or np.any(d1 * d2):
        return "masks on one side overlap"
    if np.any(np.all(p1 + p2 == 1, axis=1) & np.all(d1 + d2 == 1, axis=1)):
        return "degenerate complement quadruple returned"
    keys = {tuple(r) for r in np.hstack([p1, p2, d1, d2]).astype(int)}
    keys |= {tuple(r) for r in np.hstack([p2, p1, d2, d1]).astype(int)}
    if len(keys) != 2 * len(specs):
        return "duplicate quadruple (up to the 1 <-> 2 swap)"
    norms = orc.dense_block_norms(u, p1, p2, d1, d2)
    if np.max(norms) > orc.TOL:
        return f"dense commutator residual {np.max(norms):.3e}"
    return None


def _check_commuting(specs, u, ref_count, base_count):
    if len(specs) != ref_count:
        return f"{len(specs)} pairs, reference {ref_count}"
    if base_count is not None and len(specs) != base_count:
        return f"{len(specs)} pairs, base matrix gave {base_count}"
    if not specs:
        return None
    n = u.shape[0]
    p, d = _mask_rows(specs, ("p_mask", "d_mask"))
    for m in (p, d):
        s = m.sum(axis=1)
        if np.any((m != 0) & (m != 1)) or np.any(s == 0) or np.any(s == n) or np.any(m[:, 0]):
            return "a mask is trivial or not the representative without index 0"
    if len({tuple(r) for r in np.hstack([p, d]).astype(int)}) != len(specs):
        return "duplicate pair"
    norms = orc.dense_commutator_norms(u, p, d)
    if np.max(norms) > orc.TOL:
        return f"dense commutator residual {np.max(norms):.3e}"
    return None


def _check_constr2(v, spec, lam):
    """Block-phase member: biunitary, and U with the p1 x d1 block times lam
    and the p2 x d2 block times conj(lam)."""
    if not orc.is_biunitary(v):
        return f"member not biunitary: {orc.biunitarity_defect(v)}"
    u = np.asarray(spec.base)
    f = np.ones(u.shape, dtype=np.complex128)
    f[np.ix_(np.asarray(spec.p1_mask) == 1, np.asarray(spec.d1_mask) == 1)] = lam
    f[np.ix_(np.asarray(spec.p2_mask) == 1, np.asarray(spec.d2_mask) == 1)] = np.conj(lam)
    err = float(np.max(np.abs(v - u * f)))
    # the two forms agree up to the base's own defects (about 1e-11 for a
    # base found by search, rounding for an exact one)
    slack = 1e-12 + 10.0 * (spec.residual + orc.biunitarity_defect(u)[1])
    return None if err <= slack else f"member differs from the block-phase form by {err:.3e}"


def _check_constr1(v, spec, t):
    """Commuting-pair member: P Q is a projection, so exp(i t P Q) U equals
    (I + (e^{it} - 1) P Q) U."""
    if not orc.is_biunitary(v):
        return f"member not biunitary: {orc.biunitarity_defect(v)}"
    u = np.asarray(spec.base)
    n = u.shape[0]
    pq = np.diag(np.asarray(spec.p_mask, dtype=np.float64)) @ orc.conjugated_projections(
        u, [spec.d_mask])[0]
    want = (np.eye(n) + (np.exp(1j * t) - 1.0) * pq) @ u
    err = float(np.max(np.abs(v - want)))
    return None if err <= 1e-12 else f"member differs from (I + (e^it - 1) P Q) U by {err:.3e}"


def _drop_or_invent_block(specs):
    if specs:
        return specs[:-1]
    n = 7
    one = np.zeros(n, dtype=np.int8)
    a, b = one.copy(), one.copy()
    a[0], b[1] = 1, 1
    return [_FakeBlock(a, b, a, b)]


def _drop_or_invent_pair(specs):
    if specs:
        return specs[:-1]
    p = np.zeros(7, dtype=np.int8)
    p[1] = 1
    return [_FakePair(p, p)]


@dataclass
class _FakeBlock:
    p1_mask: np.ndarray
    p2_mask: np.ndarray
    d1_mask: np.ndarray
    d2_mask: np.ndarray


@dataclass
class _FakePair:
    p_mask: np.ndarray
    d_mask: np.ndarray


def _flip_entry(v):
    w = np.array(v, copy=True)
    w[0, 0] = -w[0, 0]
    return w


# --- search -------------------------------------------------------------------

# Caps bound the cost of an unlucky start, so that a run's cost depends
# little on which starts the seed draws. The n=6 starts never converge and
# spend exactly their cap, which puts them above every other start: the
# tail then falls inside that cluster of equal-work jobs.
SEARCH_MIX = [
    # (label, n, masks p1;p2;p3;p4, starts per cycle, iteration cap)
    ("n7-petrescu", 7, "0,1;2,3;0,1;2,3", 6, 400),
    ("n8-unitary", 8, ";;;", 1, 400),
    ("n9-unitary", 9, ";;;", 1, 400),
    ("n6-capped", 6, "0;1,2;0,4;1", 1, 800),
]


def _masks(n, spec):
    """0/1 masks from ';'-separated comma index lists, as the CLI takes them."""
    return [_indicator([int(i) for i in filter(None, part.split(","))], n)
            for part in spec.split(";")]


class Search:
    """local_search from seeded start phases, each converged start promoted.

    n=7 with the Petrescu masks (converges in about 130-200 iterations);
    unitarity-only starts at n=8 and n=9, some of which reach the cap; n=6
    masks that do not converge and spend the whole budget. Every converged
    masked start is promoted and turned into a constr2_family member. All
    the work is <= 9x9 numpy calls, so per-call overhead and line-search
    evaluations dominate; no SVD, no scan.
    """

    name = "search"
    min_cycles = 16

    def __init__(self, seed, hc):
        self.hc = hc
        self.seed = seed
        self.configs = [(label, n, _masks(n, spec), starts, cap)
                        for label, n, spec, starts, cap in SEARCH_MIX]

    def warm_up(self):
        label, n, m, _, _ = self.configs[0]
        self.hc.local_search(self.hc.SearchConfig(n=n, p1=m[0], p2=m[1], p3=m[2], p4=m[3],
                                                  rng_seed=self.seed, max_iters=50))

    def jobs(self, cycle):
        rng = np.random.default_rng([self.seed, 3, cycle])
        for label, n, m, starts, cap in self.configs:
            masked = any(x.any() for x in m)
            for _ in range(starts):
                theta = rng.uniform(0.0, 2.0 * np.pi, (n, n))
                lam = np.exp(1j * rng.uniform(0.1, 2.0 * np.pi - 0.1))
                cfg = self.hc.SearchConfig(n=n, p1=m[0], p2=m[1], p3=m[2], p4=m[3],
                                           seed_phases=theta, max_iters=cap)
                yield Job(label, lambda cfg=cfg, lam=lam, masked=masked:
                          self._run(cfg, lam, masked),
                          lambda out, cfg=cfg, lam=lam, masked=masked:
                          _check_search(out, cfg, lam, masked),
                          corrupt=_corrupt_search,
                          solution=lambda out, masked=masked:
                          bool(out[0].converged and (out[1] is not None or not masked)))

    def _run(self, cfg, lam, masked):
        res = self.hc.local_search(cfg)
        if not (res.converged and masked):
            return res, None, None
        spec = self.hc.promote(res, cfg)
        return res, spec, self.hc.constr2_family(spec, lam)


def _check_search(out, cfg, lam, masked):
    res, spec, member = out
    n = cfg.n
    if res.iterations > cfg.max_iters:
        return f"{res.iterations} iterations over the cap {cfg.max_iters}"
    u = np.exp(1j * np.asarray(res.phases)) / np.sqrt(n)
    _, uni = orc.biunitarity_defect(u)
    com = float(orc.dense_block_norms(u, [cfg.p1], [cfg.p2], [cfg.p3], [cfg.p4])[0])
    obj = uni + com
    # a value within rounding of the tolerance may land on either side
    if abs(obj - cfg.tol_obj) > 1e-6 * cfg.tol_obj and res.converged != (obj <= cfg.tol_obj):
        return f"converged={res.converged} but the recomputed objective is {obj:.3e}"
    if abs(res.objective - obj) > 1e-12 + 1e-6 * obj:
        return f"objective {res.objective:.6e}, recomputed {obj:.6e}"
    if res.converged and masked:
        if spec is None or member is None:
            return "converged start was not promoted"
        if com > orc.TOL or abs(spec.residual - com) > 1e-12:
            return f"promoted residual {spec.residual:.3e}, recomputed {com:.3e}"
        return _check_constr2(member, spec, lam)
    if res.converged and not orc.is_biunitary(u):
        return f"converged start is not biunitary: {orc.biunitarity_defect(u)}"
    return None


def _corrupt_search(out):
    res, spec, member = out
    theta = np.array(res.phases, copy=True)
    theta[0, 0] += 1e-3
    return replace(res, phases=theta, converged=True), spec, member


# --- cli ----------------------------------------------------------------------

def _fmt(x):
    return "%.17g" % x


def write_cart(path, u):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"CART {u.shape[0]}\n")
        for row in u:
            fh.write(" ".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row) + "\n")


def write_phase(path, u):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"PHASE {u.shape[0]}\n")
        for row in u:
            fh.write(" ".join(_fmt(t) for t in np.angle(row)) + "\n")


def parse_matrix_text(text):
    """The benchmark's own reader for CART / PHASE output."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    kind, n = lines[0][0], int(lines[0][1])
    if len(lines) != n + 1 or any(len(r) != n for r in lines[1:]):
        raise ValueError("matrix shape does not match its header")
    if kind == "CART":
        vals = [[complex(*map(float, tok.split(","))) for tok in r] for r in lines[1:]]
        return np.array(vals)
    if kind == "PHASE":
        return np.exp(1j * np.array([[float(t) for t in r] for r in lines[1:]])) / np.sqrt(n)
    raise ValueError(f"unknown header {kind}")


def _is_circulant(u):
    n = u.shape[0]
    return all(np.allclose(u[i], np.roll(u[0], i), atol=1e-12) for i in range(n))


def _qr_circulant_ok(u, n):
    """Biunitary circulant with 1/sqrt(n) on {0} u QR(n) and one unimodular
    value a/sqrt(n) elsewhere."""
    if u.shape != (n, n) or not orc.is_biunitary(u) or not _is_circulant(u):
        return False
    row = u[0] * np.sqrt(n)
    qr = sorted({(x * x) % n for x in range(n)})
    rest = [j for j in range(n) if j not in qr]
    return bool(np.allclose(row[qr], 1.0, atol=1e-12)
                and np.allclose(row[rest], row[rest[0]], atol=1e-12))


class Cli:
    """``python -m hadcert`` children, one at a time, over the README commands.

    Each call pays interpreter start and ``import hadcert.cli`` (about 0.6 s,
    most of it scipy.optimize), which dominates here and nowhere else.
    """

    name = "cli"
    min_cycles = 2

    def __init__(self, seed, hc, workdir, src):
        self.hc = hc
        self.refs = load_refs()
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.stdout_seen = {}
        self.child_peak_mb = 0.0
        rng = np.random.default_rng([seed, 4])
        f = orc.fourier_matrix
        self.alpha = petrescu_angle(rng, self.refs)
        self.beta = float(rng.uniform(0.1, 2.0 * np.pi - 0.1))
        self.search_seed = int(rng.integers(0, 2 ** 31))
        self.pet = hc.petrescu(np.exp(1j * self.alpha))
        self.f6s = orc.scramble(f(6), rng)
        self.f7s = orc.scramble(f(7), rng)
        self.f12 = f(12)
        os.makedirs(workdir, exist_ok=True)
        write_cart(self.path("petrescu.mat"), self.pet)
        write_cart(self.path("f6s.mat"), self.f6s)
        write_phase(self.path("f7s.phase"), self.f7s)
        write_phase(self.path("f12.phase"), self.f12)
        with open(self.path("spec.json"), "w", encoding="utf-8") as fh:
            json.dump({"theorem": "constr2", "base": "petrescu.mat", "p1": [0, 1],
                       "p2": [2, 3], "d1": [0, 1], "d2": [2, 3], "residual": 0.0}, fh)
        with open(self.path("f7s.phase"), "rb") as fh:
            self.f7s_bytes = fh.read()
        self.commands = self._commands()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def _commands(self):
        """(label, argv, stdin, expected exit code, output check). Paths are
        relative to the work directory, the children's cwd, so that stdout
        does not depend on where the checkout lives."""
        a = self.alpha
        return [
            ("gen fourier", ["gen", "fourier", "--n", "7"], None, 0, self._ok_fourier),
            ("gen petrescu", ["gen", "petrescu", "--lambda-angle", repr(a)], None, 0,
             self._ok_petrescu),
            ("gen bjorck7", ["gen", "bjorck7"], None, 0, self._ok_bjorck),
            ("gen qr-circulant 7", ["gen", "qr-circulant", "--n", "7", "--a", "solve"], None, 0,
             lambda out: None if _qr_circulant_ok(parse_matrix_text(out), 7)
             else "not a quadratic-residue biunitary circulant"),
            ("gen qr-circulant 23", ["gen", "qr-circulant", "--n", "23", "--a", "solve"], None, 0,
             lambda out: None if _qr_circulant_ok(parse_matrix_text(out), 23)
             else "not a quadratic-residue biunitary circulant"),
            ("verify", ["verify", "petrescu.mat"], None, 0, self._ok_verify),
            ("certify file", ["certify", "f6s.mat"], None, 1,
             lambda out: self._ok_cert(out, 6)),
            ("certify stdin", ["certify", "-"], self.f7s_bytes, 0,
             lambda out: self._ok_cert(out, 7)),
            ("pairs block", ["pairs", "petrescu.mat", "--mode", "block"], None, 0,
             self._ok_block),
            ("pairs commuting", ["pairs", "f12.phase", "--mode", "commuting"], None, 0,
             self._ok_commuting),
            ("family", ["family", "petrescu.mat", "--spec", "spec.json",
                        "--param", repr(self.beta)], None, 0, self._ok_family),
            ("search", ["search", "--n", "7", "--masks", "0,1;2,3;0,1;2,3",
                        "--seed", str(self.search_seed), "--starts", "4"], None, None,
             self._ok_search),
            ("repro", ["repro"], None, 0, self._ok_repro),
        ]

    def warm_up(self):
        """Nothing to warm: every job is a fresh process."""

    def child(self, argv, stdin):
        """Run one CLI child; return (exit code, stdout bytes). Its peak RSS
        is read from wait4."""
        out_path = self.path("child.out")
        err_path = self.path("child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            p = subprocess.Popen([sys.executable, "-m", "hadcert", *argv], cwd=self.workdir,
                                 env=self.env, stdout=out, stderr=err,
                                 stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL)
            timer = threading.Timer(150.0, p.kill)
            timer.start()
            try:
                if stdin is not None:
                    p.stdin.write(stdin)
                    p.stdin.close()
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            p.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_mb = max(self.child_peak_mb, usage.ru_maxrss / 1024.0)
        with open(out_path, "rb") as fh:
            return p.returncode, fh.read()

    def jobs(self, cycle):
        for label, argv, stdin, code, ok in self.commands:
            yield Job(label, lambda argv=argv, stdin=stdin: self.child(argv, stdin),
                      lambda out, label=label, code=code, ok=ok: self._check(out, label, code, ok),
                      corrupt=lambda out, c=cycle: _flip_byte(out, c))

    def _check(self, out, label, code, ok):
        rc, data = out
        if code is not None and rc != code:
            return f"exit {rc}, expected {code}"
        if rc not in (0, 1):
            return f"exit {rc}"
        seen = self.stdout_seen.setdefault(label, data)
        if seen != data:
            return "stdout differs from the first run of the same command"
        try:
            return ok(data.decode("utf-8")) if code is not None else ok(data.decode("utf-8"), rc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output: {exc!r}"

    def _ok_fourier(self, out):
        err = float(np.max(np.abs(parse_matrix_text(out) - orc.fourier_matrix(7))))
        return None if err <= 1e-15 else f"differs from F7 by {err:.3e}"

    def _ok_petrescu(self, out):
        u = parse_matrix_text(out)
        if u.shape != (7, 7) or not orc.is_biunitary(u):
            return "not a 7x7 biunitary"
        # the last row and column of the power table are w^0; the (0,0) entry
        # is w * lambda with w = exp(2 pi i / 6)
        edge = np.concatenate([u[6], u[:, 6]]) * np.sqrt(7)
        want = np.exp(2j * np.pi / 6) * np.exp(1j * self.alpha)
        if not np.allclose(edge, 1.0, atol=1e-12) or abs(u[0, 0] * np.sqrt(7) - want) > 1e-12:
            return "entries do not carry lambda where the family puts it"
        return None

    def _ok_bjorck(self, out):
        u = parse_matrix_text(out)
        a = -0.75 + 1j * np.sqrt(7.0) / 4.0
        want = np.array([1, 1, 1, a, 1, a, a]) / np.sqrt(7.0)
        if not _is_circulant(u) or float(np.max(np.abs(u[0] - want))) > 1e-15:
            return "not the order-7 quadratic-residue circulant"
        return None

    def _ok_verify(self, out):
        doc = json.loads(out)
        if list(doc) != ["is_biunitary", "max_modulus_deviation", "max_unitarity_residual"]:
            return f"keys {list(doc)}"
        flat, uni = orc.biunitarity_defect(self.pet)
        if doc["is_biunitary"] is not True or doc["max_unitarity_residual"] > orc.TOL:
            return "verdict disagrees with the direct check"
        # the same quantities up to summation order
        for got, want in ((doc["max_unitarity_residual"], uni),
                          (doc["max_modulus_deviation"], flat)):
            if abs(got - want) > 1e-6 * want + 1e-300:
                return "residuals disagree with the direct check"
        return None

    def _ok_cert(self, out, n):
        doc = json.loads(out)
        rank = orc.fourier_rank(n)
        if doc["n"] != n or doc["rank"] != rank or doc["expected"] != n * n - 2 * n + 1:
            return f"rank {doc['rank']} for order {doc['n']}, oracle {rank}"
        gap = doc["gap"] if doc["gap"] is not None else float("inf")
        if doc["verdict"] != orc.expected_verdict(n, doc["rank"], gap):
            return f"verdict {doc['verdict']} does not follow from rank and gap"
        if len(doc["singular_values"]) != n * n:
            return "spectrum has the wrong length"
        return None

    def _ok_block(self, out):
        doc = json.loads(out)
        if len(doc) != self.refs["block_pairs"]["petrescu"]:
            return f"{len(doc)} quadruples, reference {self.refs['block_pairs']['petrescu']}"
        rows = [[_indicator(d[k], 7) for d in doc] for k in ("p1", "p2", "d1", "d2")]
        norms = orc.dense_block_norms(self.pet, *rows)
        return None if np.max(norms) <= orc.TOL else f"dense residual {np.max(norms):.3e}"

    def _ok_commuting(self, out):
        doc = json.loads(out)
        if len(doc) != self.refs["commuting_pairs"]["F12"]:
            return f"{len(doc)} pairs, reference {self.refs['commuting_pairs']['F12']}"
        p = [_indicator(d["p"], 12) for d in doc]
        q = [_indicator(d["d"], 12) for d in doc]
        norms = orc.dense_commutator_norms(self.f12, p, q)
        return None if np.max(norms) <= orc.TOL else f"dense residual {np.max(norms):.3e}"

    def _ok_family(self, out):
        v = parse_matrix_text(out)
        lam = np.exp(1j * self.beta)
        f = np.ones((7, 7), dtype=np.complex128)
        f[0:2, 0:2] = lam
        f[2:4, 2:4] = np.conj(lam)
        if not orc.is_biunitary(v):
            return "member not biunitary"
        err = float(np.max(np.abs(v - self.pet * f)))
        return None if err <= 1e-12 else f"member differs from the block-phase form by {err:.3e}"

    def _ok_search(self, out, rc):
        doc = json.loads(out)
        theta = np.array(doc["phases"], dtype=np.float64).reshape(7, 7)
        u = np.exp(1j * theta) / np.sqrt(7)
        m = _masks(7, "0,1;2,3;0,1;2,3")
        obj = orc.biunitarity_defect(u)[1] + float(orc.dense_block_norms(u, *[[x] for x in m])[0])
        if abs(obj - doc["objective"]) > 1e-12 + 1e-6 * obj:
            return f"objective {doc['objective']:.6e}, recomputed {obj:.6e}"
        if doc["converged"] != (rc == 0) or doc["converged"] != (obj <= 1e-10):
            return "exit code, converged flag and objective disagree"
        return None

    def _ok_repro(self, out):
        doc = json.loads(out)
        want = {"matrix": "bjorck7", "n": 7, "rank": 36, "expected": 36,
                "verdict": "Isolated", "minor_order": 36, "minor_full_rank": True}
        bad = {k: doc.get(k) for k, v in want.items() if doc.get(k) != v}
        if bad:
            return f"unexpected fields {bad}"
        if not doc["gap"] >= orc.CERT_GAP or not doc["abs_det_minor"] > 0:
            return "gap or minor determinant out of range"
        return None


def _indicator(indices, n):
    m = np.zeros(n)
    m[list(indices)] = 1.0
    return m


def _flip_byte(out, cycle):
    """Change the (cycle+1)-th digit of stdout, so that repeats differ too."""
    rc, data = out
    b = bytearray(data or b"x")
    digits = [k for k, c in enumerate(b) if chr(c).isdigit()] or [0]
    i = digits[min(cycle, len(digits) - 1)]
    b[i] = ord("0") + (b[i] - ord("0") + 1) % 10 if chr(b[i]).isdigit() else b[i] ^ 1
    return rc, bytes(b)


WORKLOADS = {"certify": Certify, "witness": Witness, "search": Search, "cli": Cli}
