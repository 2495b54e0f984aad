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

The backtracking line search tries the steps s, s/2, s/4, ... one at a time,
and the accepted trial's products give the convergence test, the trace
entry and the gradient at that point, so no point is evaluated twice.
"""

import math
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

    evaluate(theta) takes one (n, n) phase matrix and returns (t1, t2,
    parts): the squared unitarity and commutator defects as floats, and the
    products they were built from, x = (U, U P3, U P4) and q = (U U* - I,
    k, ...) with k the commutator defect. U U*, U P3 U* and U P4 U* are
    taken as one stacked product x @ U*, each slice the same gemm as its
    product alone. grad(parts) forms the gradient of t1 + t2 from them. The
    commutator term is skipped when (p1, p2) or (p3, p4) are both empty,
    since it then vanishes identically; x and q then hold only U and
    U U* - I.
    """
    n = cfg.n
    root_n = np.sqrt(n)
    eye = np.eye(n)
    commutes = (cfg.p1.any() or cfg.p2.any()) and (cfg.p3.any() or cfg.p4.any())
    cols = np.stack([np.ones(n), cfg.p3, cfg.p4])[:3 if commutes else 1, None]
    s = np.stack([cfg.p1[:, None] - cfg.p1[None, :], cfg.p2[:, None] - cfg.p2[None, :]])

    def evaluate(theta):
        u = np.exp(1j * theta) / root_n
        x = u * cols
        q = x @ u.conj().T
        q[0] -= eye
        if not commutes:
            return float((np.abs(q[0]) ** 2).sum()), 0.0, (x, q)
        q[1:] *= s
        q[1] -= q[2]
        t1, t2 = (np.abs(q[:2]) ** 2).sum(axis=(1, 2)).tolist()
        return t1, t2, (x, q)

    def grad(parts):
        x, q = parts
        u = x[0]
        w = q[0] @ u
        if commutes:
            m = (s * q[1]) @ x[1:]
            w = w + m[0] - m[1]
        return 4.0 * np.imag(np.conj(u) * w)

    return evaluate, grad


def _unsquared(t1, t2):
    return math.sqrt(t1) + math.sqrt(t2)


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
    t1, t2, _ = _evaluator(cfg)[0](_phases(theta, cfg))
    return _unsquared(t1, t2)


def gradient(theta, cfg):
    """Gradient of the smoothed (squared-norm) objective in the phases.

    With dU/dtheta_ab = i U_ab elementwise, both terms reduce to
    4 Im(conj(U) * W) for the appropriate W; matches central finite
    differences to ~1e-9 relative.
    """
    evaluate, grad = _evaluator(cfg)
    return grad(evaluate(_phases(theta, cfg))[2])


def local_search(cfg):
    """Conjugate-gradient descent with a monotone backtracking line search.

    Deterministic for a fixed config (including rng_seed). The line search
    tries the steps s, s/2, s/4, ... (at most 60) one at a time and accepts
    the first that meets the Armijo condition; the accepted trial's products
    give the convergence test, the trace entry and the next gradient. The
    trace records the smoothed objective after every accepted step and never
    increases; converged means the reported (un-squared) objective reached
    cfg.tol_obj.
    """
    if cfg.seed_phases is not None:
        theta = cfg.seed_phases.copy()
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, (cfg.n, cfg.n))

    evaluate, grad = _evaluator(cfg)
    t1, t2, parts = evaluate(theta)
    f = t1 + t2
    g = grad(parts)
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
        for _ in range(60):
            trial = theta + s * d
            new = evaluate(trial)
            if new[0] + new[1] <= f + 1e-4 * s * gd:
                break
            s *= 0.5
        else:  # no step in 60 halvings met the Armijo condition
            break
        theta = trial
        t1, t2, parts = new
        g_new = grad(parts)
        beta = max(0.0, float((g_new * (g_new - g)).sum()) / max(float((g * g).sum()), 1e-300))
        d = -g_new + beta * d
        g = g_new
        f = t1 + t2
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
