#!/usr/bin/env python3
"""Regenerate the benchmark's stored inputs and reference answers.

    python3 perfbench/make_refs.py

Writes perfbench/data/generic9.phase, a generic isolated order-9 biunitary
(a seeded unitarity-only phase search, polished to machine precision by
Gauss-Newton on the phase Jacobian), and perfbench/data/refs.json:

* ``rank``: span ranks of the non-Fourier inputs, from the real phase
  Jacobian of unitarity (oracles.phase_jacobian_rank), not from the span
  matrix the library builds;
* ``commuting_pairs``: commuting-pair counts from a component count over
  the support graph of U diag(d) U* (below), not from the library's scan;
* ``block_pairs``: block-quadruple counts frozen from hadcert at the commit
  that added the benchmark. They are a regression reference only; the run
  re-checks every returned witness with a dense commutator and requires a
  scrambled copy to give the same count as its base.

The Petrescu inputs use lambda = exp(i a) with a drawn from
``petrescu_angle_range``; the rank and counts stored for them are checked
here to be constant over that range.
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hadcert as hc  # noqa: E402

from oracles import fourier_matrix, phase_jacobian, phase_jacobian_rank  # noqa: E402
from workloads import kron_inputs, read_phase_file  # noqa: E402

DATA = os.path.join(HERE, "data")
PETRESCU_ANGLES = (0.3, 0.75)


def commuting_count(u, zero=1e-6):
    """Number of commuting pairs (p, d) with bit 0 clear in both masks.

    [diag(p), Q] = 0 iff p is constant on every connected component of the
    graph joining i and j when |Q_ij| > zero. With c components, the
    non-trivial p that exclude index 0 number 2^(c-1) - 1.
    """
    n = u.shape[0]
    total = 0
    for d in range(2, 1 << n, 2):
        bits = np.array([(d >> k) & 1 for k in range(n)], dtype=np.float64)
        q = (u * bits[None, :]) @ u.conj().T
        adj = np.abs(q) > zero
        seen = np.zeros(n, dtype=bool)
        comps = 0
        for s in range(n):
            if seen[s]:
                continue
            comps += 1
            stack = [s]
            seen[s] = True
            while stack:
                i = stack.pop()
                for j in np.nonzero(adj[i] & ~seen)[0]:
                    seen[j] = True
                    stack.append(int(j))
        total += 2 ** (comps - 1) - 1
    return total


def generic9():
    """Phases of a generic isolated order-9 biunitary."""
    z = np.zeros(9)
    cfg = hc.SearchConfig(n=9, p1=z, p2=z, p3=z, p4=z, rng_seed=0, max_iters=3000)
    res = hc.local_search(cfg)
    if not res.converged:
        raise SystemExit("seed search did not converge")
    theta = res.phases
    a, b = np.triu_indices(9, k=1)
    for _ in range(4):
        u = np.exp(1j * theta) / 3.0
        g = u @ u.conj().T - np.eye(9)
        r = np.concatenate([g[a, b].real, g[a, b].imag])
        step = np.linalg.lstsq(phase_jacobian(u), -r, rcond=1e-10)[0]
        theta = theta + step.reshape(9, 9)
    return np.mod(theta, 2.0 * np.pi)


def main():
    os.makedirs(DATA, exist_ok=True)
    theta = generic9()
    path = os.path.join(DATA, "generic9.phase")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("PHASE 9\n")
        for row in theta:
            fh.write(" ".join("%.17g" % t for t in row) + "\n")
    # re-read what was written, so the references match the stored matrix
    g9 = read_phase_file(path)

    f = fourier_matrix
    inputs = {**kron_inputs(), "bjorck7": hc.bjorck7(), "generic9": g9}
    refs = {"rank": {}, "jacobian_gap": {}, "commuting_pairs": {}, "block_pairs": {},
            "petrescu_angle_range": list(PETRESCU_ANGLES)}
    for name, u in inputs.items():
        rank, gap = phase_jacobian_rank(u)
        refs["rank"][name] = rank
        refs["jacobian_gap"][name] = gap

    angles = np.linspace(*PETRESCU_ANGLES, 12)
    pr = {phase_jacobian_rank(hc.petrescu(np.exp(1j * a)))[0] for a in angles}
    pb = {len(hc.find_block_pairs(hc.petrescu(np.exp(1j * a)))) for a in angles}
    pc = {commuting_count(hc.petrescu(np.exp(1j * a))) for a in angles}
    if len(pr) != 1 or len(pb) != 1 or len(pc) != 1:
        raise SystemExit(f"petrescu references vary over the angle range: {pr} {pb} {pc}")
    refs["rank"]["petrescu"] = pr.pop()

    witness_inputs = {
        "F7": f(7), "F8": f(8), "F9": f(9), "F12": f(12), "F14": f(14),
        "F2xF4": inputs["F2xF4"], "F3xF3": inputs["F3xF3"],
        "petrescu1": hc.petrescu(1.0), "bjorck7": inputs["bjorck7"],
        "generic9": g9,
    }
    for name, u in witness_inputs.items():
        refs["commuting_pairs"][name] = commuting_count(u)
        if u.shape[0] <= 10:
            refs["block_pairs"][name] = len(hc.find_block_pairs(u))
    refs["commuting_pairs"]["petrescu"] = pc.pop()
    refs["block_pairs"]["petrescu"] = pb.pop()

    with open(os.path.join(DATA, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(refs, sort_keys=True))


if __name__ == "__main__":
    main()
