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
"""

from dataclasses import dataclass, field

import numpy as np

from .cmatrix import DEFAULT_POLICY
from .families import block_pair_spec

__all__ = ["SearchConfig", "SearchResult", "objective", "gradient", "local_search", "promote"]


@dataclass(frozen=True)
class SearchConfig:
    """Fixed masks and knobs for one local search run.

    seed_phases: starting phase matrix; drawn uniformly from [0, 2*pi) with
    rng_seed when omitted. p1/p2 and p3/p4 must be exactly disjoint (they may
    be empty, which reduces the objective to the unitarity term). max_iters
    must be at least 1.
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
        for name in ("p1", "p2", "p3", "p4"):
            m = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            if m.size != self.n or not np.all((m == 0) | (m == 1)):
                raise ValueError(f"{name} must be a 0/1 mask of length {self.n}")
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


@dataclass(frozen=True)
class SearchResult:
    phases: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def _terms(theta, cfg):
    """(unitarity defect^2, commutator defect^2) at the given phases."""
    n = cfg.n
    u = np.exp(1j * theta) / np.sqrt(n)
    r = u @ u.conj().T - np.eye(n)
    q3 = (u * cfg.p3[None, :]) @ u.conj().T
    q4 = (u * cfg.p4[None, :]) @ u.conj().T
    k = (cfg.p1[:, None] - cfg.p1[None, :]) * q3 - (cfg.p2[:, None] - cfg.p2[None, :]) * q4
    return float(np.sum(np.abs(r) ** 2)), float(np.sum(np.abs(k) ** 2))


def objective(theta, cfg):
    """||U U* - I||_F + ||[P1, U P3 U*] - [P2, U P4 U*]||_F (un-squared)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.n, cfg.n):
        raise ValueError(f"phase matrix must be {cfg.n}x{cfg.n}")
    t1, t2 = _terms(theta, cfg)
    return float(np.sqrt(t1) + np.sqrt(t2))


def _smoothed(theta, cfg):
    t1, t2 = _terms(theta, cfg)
    return t1 + t2


def gradient(theta, cfg):
    """Gradient of the smoothed (squared-norm) objective in the phases.

    With dU/dtheta_ab = i U_ab elementwise, both terms reduce to
    4 Im(conj(U) * W) for the appropriate W; matches central finite
    differences to ~1e-9 relative.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = cfg.n
    u = np.exp(1j * theta) / np.sqrt(n)
    r = u @ u.conj().T - np.eye(n)
    q3 = (u * cfg.p3[None, :]) @ u.conj().T
    q4 = (u * cfg.p4[None, :]) @ u.conj().T
    s1 = cfg.p1[:, None] - cfg.p1[None, :]
    s2 = cfg.p2[:, None] - cfg.p2[None, :]
    k = s1 * q3 - s2 * q4
    w = r @ u + (s1 * k) @ (u * cfg.p3[None, :]) - (s2 * k) @ (u * cfg.p4[None, :])
    return 4.0 * np.imag(np.conj(u) * w)


def local_search(cfg):
    """Conjugate-gradient descent with a monotone backtracking line search.

    Deterministic for a fixed config (including rng_seed). The trace records
    the smoothed objective after every accepted step and never increases;
    converged means the reported (un-squared) objective reached cfg.tol_obj.
    """
    if cfg.seed_phases is not None:
        theta = cfg.seed_phases.copy()
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, (cfg.n, cfg.n))

    f = _smoothed(theta, cfg)
    g = gradient(theta, cfg)
    d = -g
    step = cfg.step0
    trace = [f]
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        if objective(theta, cfg) <= cfg.tol_obj:
            break
        gd = float(np.sum(g * d))
        if gd >= 0.0:
            d = -g
            gd = -float(np.sum(g * g))
        if gd == 0.0:
            break
        s = step
        accepted = False
        for _ in range(60):
            f_new = _smoothed(theta + s * d, cfg)
            if f_new <= f + 1e-4 * s * gd:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        theta = theta + s * d
        g_new = gradient(theta, cfg)
        beta = max(0.0, float(np.sum(g_new * (g_new - g))) / max(float(np.sum(g * g)), 1e-300))
        d = -g_new + beta * d
        g = g_new
        f = f_new
        trace.append(f)
        iterations = it
        step = min(s * 2.0, 1e3)

    final = objective(theta, cfg)
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
    if spec.residual > policy.tol_unitary:
        raise ValueError(
            f"promotion rejected: commutator residual {spec.residual:.3e} "
            f"exceeds {policy.tol_unitary:.3e}"
        )
    return spec
