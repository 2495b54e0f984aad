"""Local search for biunitary bases admitting block-phase families.

The matrix is parametrized by its phases, U = exp(i theta)/sqrt(n), which
makes the flat-modulus constraint exact; the descent target is the smoothed
objective

    ||U U* - I||_F^2 + ||[P1, U P3 U*] - [P2, U P4 U*]||_F^2

whose zero set is exactly the biunitaries carrying a certified block
quadruple (p1, p2 | p3, p4). The reported objective is the un-squared sum of
the two Frobenius norms. The sign between the commutators is fixed by the
requirement that the objective vanish on the known 7x7 block-phase family
with its canonical masks.

The backtracking line search tries the steps s, s/2, s/4, ... and
evaluates them two at a time, as one call on a (2, n, n) stack of phase
matrices. At the orders the search runs at, an evaluation costs numpy call
overhead more than flops, so the second trial comes almost free; when the
first trial is accepted, the second is discarded. Each slice of a stacked
evaluation is bit-identical to evaluating its matrix alone, so the descent
is exactly the one that tries the steps one at a time. The accepted
trial's slice of the products (U, U U* - I, U P3, U P4 and the commutator
defect) gives the convergence test, the trace entry and the gradient at
that point; no point is evaluated twice.
"""

from dataclasses import dataclass, field

import numpy as np

from .cmatrix import DEFAULT_POLICY, _number, as_mask
from .families import _check_certified, block_pair_spec

__all__ = ["SearchConfig", "SearchResult", "objective", "gradient", "local_search", "promote"]


@dataclass(frozen=True)
class SearchConfig:
    """Fixed masks and knobs for one local search run.

    seed_phases: starting phase matrix; drawn uniformly from [0, 2*pi) with
    rng_seed when omitted. The masks are 0/1 vectors of length n >= 1, stored
    as float64; p1/p2 and p3/p4 must be exactly disjoint (they may be empty,
    which reduces the objective to the unitarity term). n, max_iters and
    rng_seed must be integers (not bool), max_iters at least 1, rng_seed at
    least 0, seed_phases finite, step0 a finite real > 0, tol_obj a finite
    real >= 0.
    """

    n: int
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    seed_phases: np.ndarray | None = None
    max_iters: int = 10000
    step0: float = 0.1
    tol_obj: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n", "max_iters", "rng_seed"):
            _number(getattr(self, name), name, int)
        if self.n < 1:
            raise ValueError("order must be >= 1")
        for name in ("p1", "p2", "p3", "p4"):
            m = as_mask(getattr(self, name), self.n).astype(np.float64)
            object.__setattr__(self, name, m)
        if np.any(self.p1 * self.p2) or np.any(self.p3 * self.p4):
            raise ValueError("p1/p2 and p3/p4 must be disjoint")
        if self.seed_phases is not None:
            s = np.asarray(self.seed_phases, dtype=np.float64)
            if s.shape != (self.n, self.n):
                raise ValueError(f"seed_phases must be {self.n}x{self.n}")
            if not np.isfinite(s).all():
                raise ValueError("seed_phases must be finite")
            object.__setattr__(self, "seed_phases", s)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not 0 < _number(self.step0, "step0", float) < np.inf:
            raise ValueError(f"step0 must be finite and > 0, got {self.step0}")
        if not 0 <= _number(self.tol_obj, "tol_obj", float) < np.inf:
            raise ValueError(f"tol_obj must be finite and >= 0, got {self.tol_obj}")


@dataclass(frozen=True)
class SearchResult:
    phases: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def _evaluator(cfg):
    """(evaluate, grad) for one config, with its constants built once.

    evaluate(thetas) takes a stack of phase matrices, shape (B, n, n), and
    returns (t1, t2, parts): the squared unitarity and commutator defects of
    each, shape (B,), and the stacked products (u, r, u P3, u P4, k) they
    were built from. Each slice is bit-identical to evaluating its matrix
    alone. grad(parts, j) forms the gradient of t1 + t2 at slice j from
    those products. The commutator term is skipped when (p1, p2) or
    (p3, p4) are both empty, since it then vanishes identically.
    """
    n = cfg.n
    root_n = np.sqrt(n)
    eye = np.eye(n)
    p3 = cfg.p3[None, :]
    p4 = cfg.p4[None, :]
    s1 = cfg.p1[:, None] - cfg.p1[None, :]
    s2 = cfg.p2[:, None] - cfg.p2[None, :]
    commutes = (cfg.p1.any() or cfg.p2.any()) and (cfg.p3.any() or cfg.p4.any())

    def evaluate(thetas):
        u = np.exp(1j * thetas) / root_n
        uh = u.conj().swapaxes(-2, -1)
        r = u @ uh - eye
        t1 = (np.abs(r) ** 2).sum(axis=(-2, -1))
        if not commutes:
            return t1, np.zeros_like(t1), (u, r, None, None, None)
        u3 = u * p3
        u4 = u * p4
        k = s1 * (u3 @ uh) - s2 * (u4 @ uh)
        return t1, (np.abs(k) ** 2).sum(axis=(-2, -1)), (u, r, u3, u4, k)

    def grad(parts, j):
        u, r, u3, u4, k = parts
        u = u[j]
        w = r[j] @ u
        if k is not None:
            k = k[j]
            w = w + (s1 * k) @ u3[j] - (s2 * k) @ u4[j]
        return 4.0 * np.imag(np.conj(u) * w)

    return evaluate, grad


def _unsquared(t1, t2):
    return float(np.sqrt(t1) + np.sqrt(t2))


def _phases(theta, cfg):
    """theta as a float64 (n, n) phase matrix with finite entries, or ValueError."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.n, cfg.n):
        raise ValueError(f"phase matrix must be {cfg.n}x{cfg.n}, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("phase matrix entries must be finite")
    return theta


def objective(theta, cfg):
    """||U U* - I||_F + ||[P1, U P3 U*] - [P2, U P4 U*]||_F (un-squared)."""
    t1, t2, _ = _evaluator(cfg)[0](_phases(theta, cfg)[None])
    return _unsquared(t1[0], t2[0])


def gradient(theta, cfg):
    """Gradient of the smoothed (squared-norm) objective in the phases.

    With dU/dtheta_ab = i U_ab elementwise, both terms reduce to
    4 Im(conj(U) * W) for the appropriate W; matches central finite
    differences to ~1e-9 relative.
    """
    evaluate, grad = _evaluator(cfg)
    return grad(evaluate(_phases(theta, cfg)[None])[2], 0)


# Armijo trial steps evaluated per stacked call. About three iterations in
# four accept the first or second trial, and up to n = 16 a call on two
# trials costs little more than a call on one; at n = 32, where flops start
# to count, the descent is a few per cent slower per iteration.
_TRIALS_PER_CALL = 2


def local_search(cfg):
    """Conjugate-gradient descent with a monotone backtracking line search.

    Deterministic for a fixed config (including rng_seed). The line search
    tries the steps s, s/2, s/4, ... (at most 60) and accepts the first that
    meets the Armijo condition. It evaluates them two per stacked call, so
    the trial after the accepted one may be evaluated and discarded; the
    accepted trial's products give the convergence test, the trace entry and
    the next gradient. The result is bit-identical to trying the steps one
    at a time. The trace records the smoothed objective after every accepted
    step and never increases; converged means the reported (un-squared)
    objective reached cfg.tol_obj.
    """
    if cfg.seed_phases is not None:
        theta = cfg.seed_phases.copy()
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, (cfg.n, cfg.n))

    evaluate, grad = _evaluator(cfg)
    t1s, t2s, parts = evaluate(theta[None])
    t1, t2 = t1s[0], t2s[0]
    f = float(t1 + t2)
    g = grad(parts, 0)
    d = -g
    step = cfg.step0
    trace = [f]
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        if _unsquared(t1, t2) <= cfg.tol_obj:
            break
        gd = float((g * d).sum())
        if gd >= 0.0:
            d = -g
            gd = -float((g * g).sum())
        if gd == 0.0:
            break
        s = step
        for _ in range(0, 60, _TRIALS_PER_CALL):
            steps = []
            for _ in range(_TRIALS_PER_CALL):
                steps.append(s)
                s *= 0.5
            trials = theta + np.multiply.outer(steps, d)
            t1s, t2s, parts = evaluate(trials)
            fs = (t1s + t2s).tolist()
            passed = [j for j in range(_TRIALS_PER_CALL) if fs[j] <= f + 1e-4 * steps[j] * gd]
            if passed:
                break
        else:  # no step in 60 halvings met the Armijo condition
            break
        j = passed[0]
        s = steps[j]
        theta = trials[j]
        t1, t2 = t1s[j], t2s[j]
        g_new = grad(parts, j)
        beta = max(0.0, float((g_new * (g_new - g)).sum()) / max(float((g * g).sum()), 1e-300))
        d = -g_new + beta * d
        g = g_new
        f = fs[j]
        trace.append(f)
        iterations = it
        step = min(s * 2.0, 1e3)

    final = _unsquared(t1, t2)
    return SearchResult(
        phases=theta,
        objective=final,
        iterations=iterations,
        converged=final <= cfg.tol_obj,
        trace=trace,
    )


def promote(result, cfg, policy=DEFAULT_POLICY):
    """Certify a converged search result as a BlockPairSpec.

    Builds U from the final phases, checked as objective and gradient check
    theirs, and certifies the quadruple (p1, p2 | p3, p4) by the rule the
    family constructors apply: the residual must be within
    policy.tol_unitary, and a residual that overflowed is named as such.
    Raises ValueError on a non-converged result or an uncertified quadruple.
    """
    if not result.converged:
        raise ValueError("cannot promote a non-converged search result")
    u = np.exp(1j * _phases(result.phases, cfg)) / np.sqrt(cfg.n)
    spec = block_pair_spec(u, cfg.p1, cfg.p2, cfg.p3, cfg.p4)
    _check_certified(spec, policy)
    return spec
