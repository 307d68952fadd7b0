"""Multi-chain runner: seeding, barriers, determinism and validation."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import reference_chain_major_run, reference_mh_step, trace_csv_bytes
from rgess.adaptation import AdaptationConfig, Scheme, initial_mixture
from rgess.distributions import Gaussian, MixtureModel
from rgess.runner import Kernel, RunConfig, RunError, run
from rgess.samplers import ChainState, TargetDensity, gmrgess_step, mh_step, tmrgess_step
from rgess.targets import gauss_mix_target


def _std_normal_target(dim):
    return TargetDensity(dim=dim, log_pi=lambda x: -0.5 * float(x @ x))


def _bimodal_target_1d():
    mix = MixtureModel(
        [0.5, 0.5], [Gaussian([-4.0], [[1.0]]), Gaussian([4.0], [[1.0]])]
    )
    return TargetDensity(dim=1, log_pi=mix.log_density)


def _truncated_target_2d():
    # zero density right of x0 = 1: proposals there must be rejected outright
    mix = MixtureModel(
        [0.3, 0.7],
        [Gaussian([-2.0, 0.5], [[1.0, 0.2], [0.2, 0.5]]), Gaussian([0.5, 2.0], np.eye(2))],
    )
    return TargetDensity(
        dim=2, log_pi=lambda x: -np.inf if x[0] > 1.0 else mix.log_density(x)
    )


def _determinism_cases():
    """``(name, config, make_target, shrink_cap)`` inputs of the chain-major
    comparison; ``shrink_cap`` replaces ``MAX_SHRINK_ITERS`` when not None."""
    def config(kernel, scheme, components, init, seed, **kwargs):
        adaptation = AdaptationConfig(
            scheme=scheme, components=components, interval=15, reg_radius=0.1,
        )
        return RunConfig(chains=8, iterations=60, burn_in=10, kernel=kernel, init=init,
                         adaptation=adaptation, master_seed=seed, **kwargs)

    wide_1d = Gaussian([0.0], [[4.0]])
    return [
        ("gmrgess", config(Kernel.RGESS, Scheme.EM_GMM, 2, wide_1d, 2718),
         _bimodal_target_1d, None),
        ("gess", config(Kernel.RGESS, Scheme.EM_TMM, 1, wide_1d, 31,
                        steps_per_iteration=2),
         _bimodal_target_1d, None),
        ("tmrgess-2d-zero-region",
         config(Kernel.RGESS, Scheme.EM_TMM, 2, Gaussian([-1.5, 0.5], 0.1 * np.eye(2)), 33),
         _truncated_target_2d, None),
        ("tmrgess-shrink-cap-2", config(Kernel.RGESS, Scheme.EM_TMM, 2, wide_1d, 34),
         _bimodal_target_1d, 2),
        ("tmrgess-batched-target",
         config(Kernel.RGESS, Scheme.EM_TMM, 2, Gaussian([5.0, 5.0], 10.0 * np.eye(2)), 35),
         lambda: gauss_mix_target().as_target_density(), None),
    ]


class TestValidation:
    def test_mh_requires_proposal(self):
        with pytest.raises(ValueError, match="the mh kernel requires mh_proposal_scale"):
            RunConfig(
                chains=1, iterations=10, burn_in=0, kernel=Kernel.MH,
                init=Gaussian([0.0], [[1.0]]),
            )

    @pytest.mark.parametrize("scheme", [Scheme.EM_GMM, Scheme.EM_TMM])
    def test_proposal_only_for_mh(self, scheme):
        with pytest.raises(ValueError, match="ignores mh_proposal_scale"):
            RunConfig(
                chains=4, iterations=10, burn_in=0, kernel=Kernel.RGESS,
                init=Gaussian([0.0], [[1.0]]), mh_proposal_scale=1.0,
                adaptation=AdaptationConfig(scheme=scheme, components=2),
            )

    @pytest.mark.parametrize("burn_in", [10, -1])
    def test_burn_in_bounds(self, burn_in):
        with pytest.raises(ValueError, match=r"burn_in must lie in \[0, 10\)"):
            RunConfig(
                chains=1, iterations=10, burn_in=burn_in, kernel=Kernel.MH,
                init=Gaussian([0.0], [[1.0]]), mh_proposal_scale=1.0,
            )

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            RunConfig(
                chains=1, iterations=10, burn_in=0, kernel=Kernel.MH,
                init=Gaussian([0.0], [[1.0]]), mh_proposal_scale=1.0, master_seed=-1,
            )

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_mh_proposal_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="mh_proposal_scale must be finite and > 0"):
            RunConfig(
                chains=1, iterations=10, burn_in=0, kernel=Kernel.MH,
                init=Gaussian([0.0, 0.0], np.eye(2)), mh_proposal_scale=scale,
            )

    def test_last_iteration_above_burn_in_is_enough(self):
        config = RunConfig(
            chains=1, iterations=30, burn_in=29, kernel=Kernel.MH,
            init=Gaussian([0.0], [[1.0]]), mh_proposal_scale=1.0,
        )
        traces = run(config, _std_normal_target(1)).traces
        assert [rec.iteration for rec in traces[0]] == list(range(1, 31))

    def test_chains_must_cover_components(self):
        with pytest.raises(ValueError, match="snapshot fit"):
            RunConfig(
                chains=2, iterations=10, burn_in=0, kernel=Kernel.RGESS,
                init=Gaussian([0.0], [[1.0]]),
                adaptation=AdaptationConfig(scheme=Scheme.EM_GMM, components=4),
            )


class TestSingleChainEquivalence:
    def test_mh_run_matches_sequential_steps(self):
        init = Gaussian([0.0, 0.0], np.eye(2))
        target = _std_normal_target(2)
        config = RunConfig(
            chains=1, iterations=100, burn_in=0, kernel=Kernel.MH,
            init=init, master_seed=314, mh_proposal_scale=0.5,
        )
        result = run(config, target)

        # The runner factorizes the proposal covariance once and carries
        # log_pi at the current point; the reference does neither.
        children = np.random.SeedSequence(314).spawn(2)
        rng = np.random.default_rng(children[0])
        state = ChainState(point=init.sample(rng))
        expected = []
        for _ in range(100):
            outcome = reference_mh_step(state, 0.5 * np.eye(2), target, rng)
            state = outcome.next
            expected.append((state.point, outcome.rejections))
        assert len(result.traces[0]) == len(expected)
        for rec, (point, rejections) in zip(result.traces[0], expected):
            np.testing.assert_array_equal(rec.point, point)
            assert rec.rejections == rejections


class TestDeterminism:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_thread_count_does_not_change_traces(self, threads, tmp_path, monkeypatch):
        # ``run`` steps the regional ESS kernels as one batch in pipelined
        # rounds; the chain-major reference steps each chain through a whole
        # barrier segment before the next with the per-chain kernels. The
        # bytes must agree, also when several runs share the process at once.
        for name, config, make_target, shrink_cap in _determinism_cases():
            with monkeypatch.context() as patch:
                if shrink_cap is not None:
                    # read by both the batched and the per-chain kernels at call time
                    patch.setattr("rgess.samplers.MAX_SHRINK_ITERS", shrink_cap)
                traces, history = reference_chain_major_run(config, make_target())
                assert [it for it, _ in history] == [0, 15, 30, 45, 60]
                expected = trace_csv_bytes(traces, history, tmp_path / f"{name}-reference")
                if shrink_cap is not None:
                    hits = [rec.rejections for chain in traces for rec in chain]
                    assert shrink_cap in hits and min(hits) < shrink_cap

                with ThreadPoolExecutor(max_workers=threads) as pool:
                    results = list(pool.map(
                        lambda _: run(config, make_target()), range(threads)
                    ))
            for i, result in enumerate(results):
                got = trace_csv_bytes(
                    result.traces, result.mixture_history, tmp_path / f"{name}-run{i}"
                )
                assert got == expected, name

    def test_same_config_twice_identical(self):
        config = RunConfig(
            chains=4, iterations=40, burn_in=0, kernel=Kernel.RGESS,
            init=Gaussian([0.0], [[4.0]]),
            adaptation=AdaptationConfig(
                scheme=Scheme.EM_TMM, components=2, interval=10, reg_radius=0.1
            ),
            master_seed=11,
        )
        a = run(config, _bimodal_target_1d())
        b = run(config, _bimodal_target_1d())
        for chain_a, chain_b in zip(a.traces, b.traces):
            for rec_a, rec_b in zip(chain_a, chain_b):
                np.testing.assert_array_equal(rec_a.point, rec_b.point)
                assert rec_a.rejections == rec_b.rejections


class TestChainIndependence:
    def test_perturbing_one_chain_seed_is_local(self):
        # Each chain of run() equals that chain stepped alone from its own
        # spawned seed, so its trace depends on no other chain's seed.
        target = _std_normal_target(1)
        config = RunConfig(
            chains=4, iterations=30, burn_in=0, kernel=Kernel.MH,
            init=Gaussian([0.0], [[1.0]]), master_seed=5,
            mh_proposal_scale=1.0,
        )
        result = run(config, target)
        seeds = np.random.SeedSequence(config.master_seed).spawn(config.chains + 1)
        for k in range(config.chains):
            rng = np.random.default_rng(seeds[k])
            state = ChainState(point=config.init.sample(rng))
            assert len(result.traces[k]) == config.iterations
            for rec in result.traces[k]:
                outcome = mh_step(state, config.mh_proposal_scale * np.eye(1), target, rng)
                state = outcome.next
                np.testing.assert_array_equal(rec.point, state.point)
                assert rec.rejections == outcome.rejections


class TestBarriers:
    def test_history_timestamps_are_interval_multiples(self):
        config = RunConfig(
            chains=6, iterations=50, burn_in=0, kernel=Kernel.RGESS,
            init=Gaussian([0.0], [[4.0]]),
            adaptation=AdaptationConfig(
                scheme=Scheme.EM_GMM, components=2, interval=10, reg_radius=0.1
            ),
            master_seed=77,
        )
        result = run(config, _bimodal_target_1d())
        stamps = [it for it, _ in result.mixture_history]
        assert all(it % 10 == 0 for it in stamps)
        # first refit is delayed to max(interval, 2 M) = 10
        assert stamps == [0, 10, 20, 30, 40, 50]

    def test_recorded_regions_match_active_mixture(self):
        config = RunConfig(
            chains=6, iterations=40, burn_in=0, kernel=Kernel.RGESS,
            init=Gaussian([0.0], [[4.0]]),
            adaptation=AdaptationConfig(
                scheme=Scheme.EM_GMM, components=2, interval=10, reg_radius=0.1
            ),
            master_seed=13,
        )
        result = run(config, _bimodal_target_1d())
        history = result.mixture_history
        for chain in result.traces:
            for rec in chain:
                active = [m for it, m in history if it <= rec.iteration][-1]
                assert rec.region == active.assign_region(rec.point)

    def test_sa_updates_once_per_barrier(self):
        config = RunConfig(
            chains=8, iterations=40, burn_in=0, kernel=Kernel.RGESS,
            init=Gaussian([0.0], [[4.0]]),
            adaptation=AdaptationConfig(
                scheme=Scheme.SA_GMM, components=2, interval=10, reg_radius=0.1
            ),
            master_seed=21,
        )
        result = run(config, _bimodal_target_1d())
        assert len(result.mixture_history) == 5  # init + barriers 10..40
        # consecutive SA mixtures differ by one bounded step
        for (_, m1), (_, m2) in zip(result.mixture_history, result.mixture_history[1:]):
            assert m1.n_components == m2.n_components == 2


class TestBookkeeping:
    def test_every_chain_records_every_iteration(self):
        config = RunConfig(
            chains=3, iterations=30, burn_in=0, kernel=Kernel.MH,
            init=Gaussian([0.0], [[1.0]]), master_seed=9, mh_proposal_scale=1.0,
        )
        result = run(config, _std_normal_target(1))
        for k, chain in enumerate(result.traces):
            assert [(rec.chain, rec.iteration) for rec in chain] == [
                (k, n) for n in range(1, 31)]

    def test_steps_per_iteration_accumulates_rejections(self):
        config = RunConfig(
            chains=2, iterations=10, burn_in=0, kernel=Kernel.MH,
            init=Gaussian([5.0], [[0.01]]), master_seed=10,
            mh_proposal_scale=25.0, steps_per_iteration=4,
        )
        result = run(config, _std_normal_target(1))
        max_rej = max(rec.rejections for chain in result.traces for rec in chain)
        assert 0 < max_rej <= 4


class TestRunErrors:
    def test_nonfinite_start_aborts_with_context(self):
        # support excludes the starting point: the chain errors immediately
        def truncated(x):
            return 0.0 if abs(x[0]) < 1.0 else -np.inf

        target = TargetDensity(dim=1, log_pi=truncated)
        init = Gaussian([50.0], [[0.01]])
        configs = [
            RunConfig(chains=2, iterations=5, burn_in=0, kernel=Kernel.MH, init=init,
                      master_seed=3, mh_proposal_scale=1.0),
            RunConfig(chains=2, iterations=5, burn_in=0, kernel=Kernel.RGESS, init=init,
                      master_seed=3, adaptation=AdaptationConfig(scheme=Scheme.EM_TMM)),
            RunConfig(chains=2, iterations=5, burn_in=0, kernel=Kernel.RGESS, init=init,
                      master_seed=3, adaptation=AdaptationConfig(scheme=Scheme.EM_GMM)),
        ]
        for config in configs:
            with pytest.raises(RunError) as info:
                run(config, target)
            assert info.value.iteration == 1, config.kernel
            assert 0 <= info.value.chain < 2
            assert "not finite" in str(info.value.cause)


def _bounded_normal_target():
    """The standard normal in 1-D; evaluating it beyond |x| = 2.5 raises."""
    def log_pi(x):
        if abs(x[0]) > 2.5:
            raise ValueError("beyond the bound")
        return -0.5 * float(x[0] * x[0])

    return TargetDensity(dim=1, log_pi=log_pi)


def _first_failures(config):
    """``(iteration, target evaluations)`` at which each chain of ``run``
    first raises on the bounded target, stepped alone with its per-chain
    kernel from ``run``'s seeds, or None when it never does. The config must
    have no barrier."""
    children = np.random.SeedSequence(config.master_seed).spawn(config.chains + 1)
    rngs = [np.random.default_rng(child) for child in children[:-1]]
    points = [config.init.sample(rng) for rng in rngs]
    if config.kernel is Kernel.MH:
        cov = config.mh_proposal_scale * np.eye(1)

        def step(state, target, rng):
            return mh_step(state, cov, target, rng)
    else:
        mixture = initial_mixture(config.adaptation, points,
                                  np.random.default_rng(children[-1]))
        kernel = gmrgess_step if mixture.kind == "gaussian" else tmrgess_step

        def step(state, target, rng):
            return kernel(state, mixture, target, rng)
    failures = []
    for point, rng in zip(points, rngs):
        calls = [0]
        bounded = _bounded_normal_target()

        def counted(x, bounded=bounded, calls=calls):
            calls[0] += 1
            return bounded.log_pi(x)

        target = TargetDensity(dim=1, log_pi=counted)
        state = ChainState(point=point, region=0 if config.kernel is Kernel.MH
                           else mixture.assign_region(point))
        failure = None
        for n in range(1, config.iterations + 1):
            try:
                for _ in range(config.steps_per_iteration):
                    state = step(state, target, rng).next
            except ValueError:
                failure = (n, calls[0])
                break
        failures.append(failure)
    return failures


def _failing_config(kernel, scheme, seed):
    """Two chains on the bounded target, with no barrier in 30 iterations."""
    if kernel is Kernel.MH:
        return RunConfig(chains=2, iterations=30, burn_in=0, kernel=kernel,
                         init=Gaussian([0.0], [[1.0]]), master_seed=seed,
                         mh_proposal_scale=4.0)
    return RunConfig(chains=2, iterations=30, burn_in=0, kernel=kernel,
                     init=Gaussian([0.0], [[1.0]]), master_seed=seed,
                     adaptation=AdaptationConfig(scheme=scheme, components=1,
                                                 interval=100))


class TestFailureOrder:
    """``RunError`` names the lowest failing iteration, then the lowest
    chain failing in it, whatever order the chains fail in: a failed chain
    stops, and the others run until none can fail lower."""

    @pytest.mark.parametrize("kernel, scheme, seed", [
        (Kernel.RGESS, Scheme.EM_GMM, 562),
        (Kernel.RGESS, Scheme.EM_TMM, 19),
        (Kernel.MH, Scheme.EM_GMM, 4),
    ], ids=["gaussian", "student_t", "mh"])
    def test_earlier_iteration_of_higher_chain_is_named(self, kernel, scheme, seed):
        config = _failing_config(kernel, scheme, seed)
        (n0, calls0), (n1, calls1) = _first_failures(config)
        # Chain 1 fails at an earlier iteration. The regional batch meets
        # chain 0's failure first: a chain proposes once per round, and
        # chain 0 fails after fewer proposals. The mh kernel steps chain 0
        # through the segment first.
        assert n1 < n0
        assert kernel is Kernel.MH or calls0 < calls1
        with pytest.raises(RunError, match="beyond the bound") as info:
            run(config, _bounded_normal_target())
        assert (info.value.iteration, info.value.chain) == (n1, 1)

    @pytest.mark.parametrize("scheme, seed", [(Scheme.EM_GMM, 1), (Scheme.EM_TMM, 700)],
                             ids=["gaussian", "student_t"])
    def test_lowest_chain_of_the_iteration_is_named(self, scheme, seed):
        # both chains fail in the same iteration
        config = _failing_config(Kernel.RGESS, scheme, seed)
        (n0, _), (n1, _) = _first_failures(config)
        assert n0 == n1
        with pytest.raises(RunError, match="beyond the bound") as info:
            run(config, _bounded_normal_target())
        assert (info.value.iteration, info.value.chain) == (n0, 0)
