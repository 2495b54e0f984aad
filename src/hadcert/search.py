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

Each point the descent visits is evaluated once. The evaluation the line
search accepts gives the convergence test, the trace entry and the
products (U, U U* - I, U P3, U P4 and the commutator defect) that the
gradient at that point is formed from.
"""

from dataclasses import dataclass, field

import numpy as np

from .cmatrix import DEFAULT_POLICY, as_mask
from .families import block_pair_spec

__all__ = ["SearchConfig", "SearchResult", "objective", "gradient", "local_search", "promote"]


@dataclass(frozen=True)
class SearchConfig:
    """Fixed masks and knobs for one local search run.

    seed_phases: starting phase matrix; drawn uniformly from [0, 2*pi) with
    rng_seed when omitted. The masks are 0/1 vectors of length n >= 1, stored
    as float64; p1/p2 and p3/p4 must be exactly disjoint (they may be empty,
    which reduces the objective to the unitarity term). max_iters must be at
    least 1, step0 finite and > 0, tol_obj finite and >= 0.
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
            object.__setattr__(self, "seed_phases", s)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.step0 < np.inf:
            raise ValueError(f"step0 must be finite and > 0, got {self.step0}")
        if not 0 <= self.tol_obj < np.inf:
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

    evaluate(theta) returns (t1, t2, parts): the squared unitarity and
    commutator defects, and the products (u, r, u P3, u P4, k) they were
    built from. grad(parts) forms the gradient of t1 + t2 from those
    products. The commutator term is skipped when (p1, p2) or (p3, p4) are
    both empty, since it then vanishes identically.
    """
    n = cfg.n
    root_n = np.sqrt(n)
    eye = np.eye(n)
    p3 = cfg.p3[None, :]
    p4 = cfg.p4[None, :]
    s1 = cfg.p1[:, None] - cfg.p1[None, :]
    s2 = cfg.p2[:, None] - cfg.p2[None, :]
    commutes = (cfg.p1.any() or cfg.p2.any()) and (cfg.p3.any() or cfg.p4.any())

    def evaluate(theta):
        u = np.exp(1j * theta) / root_n
        uh = u.conj().T
        r = u @ uh - eye
        t1 = float(np.sum(np.abs(r) ** 2))
        if not commutes:
            return t1, 0.0, (u, r, None, None, None)
        u3 = u * p3
        u4 = u * p4
        k = s1 * (u3 @ uh) - s2 * (u4 @ uh)
        return t1, float(np.sum(np.abs(k) ** 2)), (u, r, u3, u4, k)

    def grad(parts):
        u, r, u3, u4, k = parts
        w = r @ u
        if k is not None:
            w = w + (s1 * k) @ u3 - (s2 * k) @ u4
        return 4.0 * np.imag(np.conj(u) * w)

    return evaluate, grad


def _unsquared(t1, t2):
    return float(np.sqrt(t1) + np.sqrt(t2))


def objective(theta, cfg):
    """||U U* - I||_F + ||[P1, U P3 U*] - [P2, U P4 U*]||_F (un-squared)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.n, cfg.n):
        raise ValueError(f"phase matrix must be {cfg.n}x{cfg.n}")
    t1, t2, _ = _evaluator(cfg)[0](theta)
    return _unsquared(t1, t2)


def gradient(theta, cfg):
    """Gradient of the smoothed (squared-norm) objective in the phases.

    With dU/dtheta_ab = i U_ab elementwise, both terms reduce to
    4 Im(conj(U) * W) for the appropriate W; matches central finite
    differences to ~1e-9 relative.
    """
    evaluate, grad = _evaluator(cfg)
    return grad(evaluate(np.asarray(theta, dtype=np.float64))[2])


def local_search(cfg):
    """Conjugate-gradient descent with a monotone backtracking line search.

    Deterministic for a fixed config (including rng_seed). Each point is
    evaluated once: the evaluation the line search accepts also gives the
    convergence test, the trace entry and the products the next gradient
    is formed from. The trace records the smoothed objective after every
    accepted step and never increases; converged means the reported
    (un-squared) objective reached cfg.tol_obj.
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
        gd = float(np.sum(g * d))
        if gd >= 0.0:
            d = -g
            gd = -float(np.sum(g * g))
        if gd == 0.0:
            break
        s = step
        for _ in range(60):
            trial = theta + s * d
            point = evaluate(trial)
            if point[0] + point[1] <= f + 1e-4 * s * gd:
                break
            s *= 0.5
        else:  # no step in 60 halvings met the Armijo condition
            break
        theta = trial
        t1, t2, parts = point
        g_new = grad(parts)
        beta = max(0.0, float(np.sum(g_new * (g_new - g))) / max(float(np.sum(g * g)), 1e-300))
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

    Builds U from the final phases and checks the quadruple
    (p1, p2 | p3, p4) at policy.tol_unitary; raises on a non-converged
    result or when the residual exceeds tolerance.
    """
    if not result.converged:
        raise ValueError("cannot promote a non-converged search result")
    u = np.exp(1j * result.phases) / np.sqrt(cfg.n)
    spec = block_pair_spec(u, cfg.p1, cfg.p2, cfg.p3, cfg.p4)
    if not spec.residual <= policy.tol_unitary:
        raise ValueError(
            f"promotion rejected: commutator residual {spec.residual:.3e} "
            f"exceeds {policy.tol_unitary:.3e}"
        )
    return spec
