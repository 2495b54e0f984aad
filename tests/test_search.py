import hashlib

import numpy as np
import pytest

import brute
from hadcert import (
    SearchConfig,
    fourier,
    gradient,
    local_search,
    mask_from_indices,
    objective,
    petrescu,
    promote,
    verify_biunitary,
)
from hadcert.cli import main
from hadcert.families import block_residual
from hadcert.search import _evaluator

# The line search may evaluate a trial step it then discards; no such trial
# may add a numpy warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PETRESCU_MASKS = dict(
    p1=mask_from_indices([0, 1], 7),
    p2=mask_from_indices([2, 3], 7),
    p3=mask_from_indices([0, 1], 7),
    p4=mask_from_indices([2, 3], 7),
)


def petrescu_cfg(**kw):
    return SearchConfig(n=7, **PETRESCU_MASKS, **kw)


def zero_cfg(n, **kw):
    z = mask_from_indices([], n)
    return SearchConfig(n=n, p1=z, p2=z, p3=z, p4=z, **kw)


class TestObjective:
    def test_vanishes_at_petrescu_with_its_masks(self):
        # fixes the sign convention between the two commutator terms
        theta = np.angle(petrescu(1.0))
        assert objective(theta, petrescu_cfg()) < 1e-10

    def test_fourier_with_zero_masks(self):
        for n in (3, 5, 7):
            theta = np.angle(fourier(n))
            cfg = zero_cfg(n)
            assert objective(theta, cfg) < 1e-13

    def test_positive_at_random(self, rng):
        cfg = petrescu_cfg()
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi, (7, 7))
            assert objective(theta, cfg) > 1e-3

    def test_nonnegative_and_zero_iff_certified(self, rng):
        cfg = petrescu_cfg()
        theta = np.angle(petrescu(1.0))
        assert objective(theta, cfg) >= 0.0
        u = np.exp(1j * theta) / np.sqrt(7)
        assert block_residual(u, cfg.p1, cfg.p2, cfg.p3, cfg.p4) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            SearchConfig(
                n=4,
                p1=mask_from_indices([0, 1], 4),
                p2=mask_from_indices([1, 2], 4),
                p3=mask_from_indices([0], 4),
                p4=mask_from_indices([1], 4),
            )
        for bad in (0, -5):
            with pytest.raises(ValueError, match="max_iters"):
                zero_cfg(4, max_iters=bad)
        for bad in (np.nan, np.inf, 0.0, -0.5):
            with pytest.raises(ValueError, match="step0"):
                zero_cfg(4, step0=bad)
        for bad in (np.nan, np.inf, -1e-10):
            with pytest.raises(ValueError, match="tol_obj"):
                zero_cfg(4, tol_obj=bad)
        zero_cfg(4, tol_obj=0.0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="order must be >= 1"):
                SearchConfig(n=bad, p1=[], p2=[], p3=[], p4=[])
        with pytest.raises(ValueError, match="0/1 mask"):
            SearchConfig(n=4, p1=[0, 1.9, 0, 1], p2=[0] * 4, p3=[0] * 4, p4=[0] * 4)

    @pytest.mark.parametrize("field, value", [
        ("n", 4.0), ("n", True), ("max_iters", 2.5), ("max_iters", True),
        ("max_iters", np.True_),
    ], ids=["n-float", "n-bool", "max_iters-float", "max_iters-bool", "max_iters-numpy-bool"])
    def test_config_rejects_non_integers(self, field, value):
        kw = {"n": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(p1=[0] * 4, p2=[0] * 4, p3=[0] * 4, p4=[0] * 4, **kw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite_seed(self, bad):
        theta = np.zeros((4, 4))
        theta[1, 2] = bad
        with pytest.raises(ValueError, match="seed_phases must be finite"):
            zero_cfg(4, seed_phases=theta)


class TestGradient:
    def test_zero_at_solution(self):
        theta = np.angle(petrescu(1.0))
        assert np.linalg.norm(gradient(theta, petrescu_cfg())) < 1e-8

    def test_shape_and_realness(self, rng):
        theta = rng.uniform(0, 2 * np.pi, (7, 7))
        g = gradient(theta, petrescu_cfg())
        assert g.shape == (7, 7)
        assert g.dtype == np.float64

    def test_matches_finite_differences(self, rng):
        n = 5
        cfg = SearchConfig(
            n=n,
            p1=mask_from_indices([0], n),
            p2=mask_from_indices([1, 2], n),
            p3=mask_from_indices([0, 4], n),
            p4=mask_from_indices([1], n),
        )
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi, (n, n))
            g = gradient(theta, cfg)
            fd = brute.fd_gradient(theta, cfg, h=1e-6)
            rel = np.max(np.abs(g - fd)) / np.max(np.abs(fd))
            assert rel < 1e-5


class TestLocalSearch:
    def test_basin_of_attraction(self, rng):
        theta0 = np.angle(petrescu(1.0)) + rng.uniform(-1e-3, 1e-3, (7, 7))
        cfg = petrescu_cfg(seed_phases=theta0)
        res = local_search(cfg)
        assert res.converged
        assert res.objective < 1e-10

    def test_exact_seed_converges_immediately(self):
        cfg = petrescu_cfg(seed_phases=np.angle(petrescu(1.0)))
        res = local_search(cfg)
        assert res.converged
        assert res.iterations <= 2

    def test_trace_monotone(self, rng):
        theta0 = np.angle(petrescu(1.0)) + rng.uniform(-0.05, 0.05, (7, 7))
        res = local_search(petrescu_cfg(seed_phases=theta0))
        t = res.trace
        assert all(t[i + 1] <= t[i] for i in range(len(t) - 1))
        assert t[0] == pytest.approx(sum(_evaluator(petrescu_cfg())[0](theta0)[:2]), rel=1e-12)

    def test_unitarity_only_converges(self):
        # zero masks reduce the objective to the unitarity defect
        res = local_search(zero_cfg(5, rng_seed=1))
        assert res.converged
        u = np.exp(1j * res.phases) / np.sqrt(5)
        assert verify_biunitary(u).is_biunitary

    def test_deterministic(self):
        a = local_search(petrescu_cfg(rng_seed=11, max_iters=200))
        b = local_search(petrescu_cfg(rng_seed=11, max_iters=200))
        assert np.array_equal(a.phases, b.phases)
        assert a.objective == b.objective
        assert a.trace == b.trace

    def test_non_convergence_reported(self):
        res = local_search(petrescu_cfg(rng_seed=0, max_iters=1))
        assert not res.converged
        assert res.iterations <= 1

    # (n, masks, iteration cap, edge). The edges: step0 1e308 fails all 60
    # halvings at the first iteration, step0 1e3 makes long halving chains,
    # a cap of 1 stops after one step, and the Fourier start is already a
    # solution.
    REFERENCE_ROWS = [
        (7, "0,1;2,3;0,1;2,3", 400, ""),    # the Petrescu masks
        (6, "0;1,2;0,4;1", 800, ""),        # runs into the cap
        (8, ";;;", 400, ""),                # unitarity only
        (9, ";;;", 400, ""),
        (6, "0,1;;0,2;", 400, ""),          # only p1 and p3 non-empty
        (1, ";;;", 50, ""),
        (16, "0,1;2,3;0,1;2,3", 100, ""),
        (7, "0,1;2,3;0,1;2,3", 400, "step0=1e308"),
        (8, ";;;", 400, "step0=1e308"),
        (7, "0,1;2,3;0,1;2,3", 400, "step0=1e3"),
        (9, ";;;", 400, "step0=1e3"),
        (7, "0,1;2,3;0,1;2,3", 1, ""),
        (8, ";;;", 1, ""),
        (7, ";;;", 400, "fourier"),
        (6, ";;;", 400, "fourier"),
    ]
    EDGES = {
        "": lambda n: {},
        "step0=1e308": lambda n: {"step0": 1e308},
        "step0=1e3": lambda n: {"step0": 1e3},
        "fourier": lambda n: {"seed_phases": np.angle(fourier(n))},
    }

    @pytest.mark.parametrize("n,masks,cap,edge", REFERENCE_ROWS,
                             ids=["-".join(map(str, r if r[3] else r[:3]))
                                  for r in REFERENCE_ROWS])
    def test_matches_reference_loop(self, n, masks, cap, edge):
        # the stacked line search must not move the descent by a single bit
        p = [mask_from_indices([int(i) for i in part.split(",") if i], n)
             for part in masks.split(";")]
        for seed in (0, 1):
            cfg = SearchConfig(n=n, p1=p[0], p2=p[1], p3=p[2], p4=p[3],
                               max_iters=cap, rng_seed=seed, **self.EDGES[edge](n))
            res = local_search(cfg)
            phases, obj, iterations, converged, trace = brute.reference_local_search(cfg)
            assert np.array_equal(res.phases, phases)
            assert res.iterations == iterations
            assert res.objective == obj
            assert res.converged == converged
            assert res.trace == trace
            if edge == "step0=1e308":
                assert iterations == 0
            if edge == "fourier":
                assert converged and iterations == 0


# `hadcert search` stdout and exit code, frozen: (argv, exit code, sha256 of
# stdout). The README command, a unitarity-only search, and masks that run
# into the cap.
FROZEN_SEARCHES = [
    (["--n", "7", "--masks", "0,1;2,3;0,1;2,3", "--seed", "1", "--starts", "8"], 0,
     "3ca2144f6384f9543733895d5764ecd4a1af3a4461de04bc1e7c4d1603a2b325"),
    (["--n", "9", "--masks", ";;;"], 0,
     "89e2951dc2b3ba2285b36a5bb77e20cc1d609b2f0a9c141f5ab046f89c4dbbf1"),
    (["--n", "6", "--masks", "0;1,2;0,4;1", "--max-iters", "800"], 1,
     "d37c708a98c73cf1907b628bab8d85119b14651b4974866bf537498fb0c30182"),
]


@pytest.mark.parametrize("argv, code, digest", FROZEN_SEARCHES,
                         ids=["readme", "n9-unitary", "n6-capped"])
def test_search_output_is_frozen(argv, code, digest, capsys):
    assert main(["search", *argv]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPromote:
    def test_promotes_perturbed_petrescu(self, rng):
        theta0 = np.angle(petrescu(1.0)) + rng.uniform(-1e-3, 1e-3, (7, 7))
        cfg = petrescu_cfg(seed_phases=theta0)
        res = local_search(cfg)
        spec = promote(res, cfg)
        assert np.array_equal(spec.p1_mask, cfg.p1.astype(np.int8))
        assert spec.residual <= 1e-9
        # the recovered base lies on the same block-phase family: estimate
        # lambda through a diagonal-move-invariant cross ratio and compare
        # dephased forms
        from hadcert import dephase

        u = spec.base
        w = np.exp(2j * np.pi / 6)
        lam = (u[0, 0] * u[2, 5]) / (u[0, 5] * u[2, 0]) * w ** 2
        lam /= abs(lam)
        assert np.max(np.abs(dephase(u) - dephase(petrescu(lam)))) < 1e-6

    def test_promoted_spec_feeds_family(self, rng):
        theta0 = np.angle(petrescu(1.0)) + rng.uniform(-1e-3, 1e-3, (7, 7))
        cfg = petrescu_cfg(seed_phases=theta0)
        spec = promote(local_search(cfg), cfg)
        from hadcert import constr2_family, verify_unitarity_identity

        assert verify_unitarity_identity(spec) <= 1e-9
        for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            v = constr2_family(spec, np.exp(1j * ang))
            assert verify_biunitary(v).is_biunitary

    def test_rejects_non_converged(self):
        res = local_search(petrescu_cfg(rng_seed=0, max_iters=1))
        with pytest.raises(ValueError, match="non-converged"):
            promote(res, petrescu_cfg(rng_seed=0, max_iters=1))
