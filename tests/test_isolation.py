"""Isolated means descent-stable: the paper's isolation theorem as an oracle.

Near a biunitary U whose commuting square satisfies the span condition, every
biunitary lies on U's orbit D1 U D2. So a descent on the unitarity defect
alone, started from a small perturbation theta0 + eps eta of U's phases, must
stop on that orbit: the dephased stop point equals the dephased U. A base
with a witness family drifts along the family instead, by about eps. This
checks certify's verdicts with arithmetic that shares no code with the span
matrix (local_search and dephase), and the Isolated set is certify's at run
time, not a list. Nothing is asserted on a SpanFails input without a
witness: SpanFails does not imply a family.

Measured on a 2-core Xeon: drift / eps is 3e-12 to 6e-10 on the Isolated
inputs and 0.46 to 1.19 on F6-F10, in 23-346 iterations. F2xF4, F3xF3 and
the Petrescu matrices are left out: there the descent does not converge in
20,000 iterations.
"""

import numpy as np
import pytest

import corpus
from hadcert import certify_isolation, dephase
from hadcert.search import SearchConfig, local_search
from hadcert.spancert import ISOLATED

EPSILONS = (1e-2, 1e-3)
SEEDS = (0, 1, 2)


def _drift(u, eps, seed):
    """max |angle(dephase(V) / dephase(U))| at the point V where the
    unitarity-only descent from theta0 + eps eta stops, with theta0 the
    phases of sqrt(n) U and eta seeded standard normal."""
    n = len(u)
    eta = np.random.default_rng(seed).standard_normal((n, n))
    empty = np.zeros(n)
    result = local_search(SearchConfig(n, empty, empty, empty, empty,
                                       seed_phases=np.angle(np.sqrt(n) * u) + eps * eta,
                                       max_iters=2000, tol_obj=1e-13))
    assert result.converged
    v = np.exp(1j * result.phases) / np.sqrt(n)
    return float(np.max(np.abs(np.angle(dephase(v) / dephase(u)))))


@pytest.mark.parametrize("label", ["F5", "F5s", "F7", "F7s", "F11", "F11s", "F13", "F13s",
                                   "bjorck7", "bjorck7s", "F6", "F8", "F9", "F10"])
def test_isolated_inputs_stay_on_their_orbit(label):
    u = corpus.get(label)
    drifts = {eps: [_drift(u, eps, seed) for seed in SEEDS] for eps in EPSILONS}
    facts = corpus.FACTS[label]
    if certify_isolation(u).verdict == ISOLATED:
        assert all(max(d) <= 1e-6 * eps for eps, d in drifts.items()), drifts
    elif any(f is not None and f[0] > 0 for f in (facts.block, facts.commuting)):
        assert all(max(d) >= 0.05 * eps for eps, d in drifts.items()), drifts
