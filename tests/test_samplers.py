"""Transition kernels: slice thresholds, shrinkage behavior, regional
acceptance ratios and reduction properties."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import (
    BIMODAL_MEAN,
    BIMODAL_P_NEGATIVE,
    BIMODAL_SECOND_MOMENT,
    bimodal_logpdf,
    jump_chain,
    random_mixture_stacks,
    reference_mixture,
    reference_regional_ess_step,
    reference_regional_mh_step,
    sample_bimodal,
)
from rgess.distributions import Gaussian, MixtureModel, StudentT
from rgess.samplers import (
    MAX_SHRINK_ITERS,
    ChainFailure,
    ChainState,
    TargetDensity,
    _jump_accepts,
    _log_pi_held,
    ess_step,
    gmrgess_step,
    jump_block,
    mh_step,
    regional_ess_segment,
    regional_mh_step,
    tmrgess_step,
)

FIG2_COV = np.array([[10.0, 3.0], [3.0, 2.0]])


def constant_loglik(_x):
    return 0.0


class TestEssStep:
    def test_constant_likelihood_accepts_first_proposal(self):
        prior = Gaussian([0.0, 0.0], FIG2_COV)
        state = ChainState(point=np.array([1.0, 1.0]))
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = ess_step(state, prior, constant_loglik, rng)
            assert out.rejections == 0
            state = out.next

    def test_constant_likelihood_reduces_to_prior(self):
        prior = Gaussian([0.0, 0.0], FIG2_COV)
        state = ChainState(point=np.array([0.0, 0.0]))
        rng = np.random.default_rng(99)
        draws = []
        for _ in range(4000):
            state = ess_step(state, prior, constant_loglik, rng).next
            draws.append(state.point)
        draws = np.stack(draws)
        for i in range(2):
            sd = math.sqrt(FIG2_COV[i, i])
            assert stats.kstest(draws[:, i], "norm", args=(0.0, sd)).pvalue > 0.001

    def test_nonfinite_loglik_at_current_point_raises(self):
        prior = Gaussian([0.0], [[1.0]])
        state = ChainState(point=np.array([0.0]))
        with pytest.raises(ValueError):
            ess_step(state, prior, lambda x: -np.inf, np.random.default_rng(0))

    def test_conjugate_gaussian_posterior(self):
        # prior N(0, S), likelihood N(x | m, I): posterior has
        # cov (S^-1 + I)^-1 and mean cov @ m
        prior = Gaussian([0.0, 0.0], FIG2_COV)
        m_lik = np.array([2.0, 2.0])

        def loglik(x):
            d = x - m_lik
            return -0.5 * float(d @ d)

        post_cov = np.linalg.inv(np.linalg.inv(FIG2_COV) + np.eye(2))
        post_mean = post_cov @ m_lik

        rng = np.random.default_rng(12)
        state = ChainState(point=np.array([0.0, 0.0]))
        draws = []
        for i in range(6000):
            state = ess_step(state, prior, loglik, rng).next
            if i >= 1000:
                draws.append(state.point)
        draws = np.stack(draws)
        mean_hat = draws.mean(axis=0)
        cov_hat = np.cov(draws, rowvar=False)
        assert np.all(np.abs(mean_hat - post_mean) <= 0.1 * np.abs(post_mean))
        assert np.all(np.abs(np.diag(cov_hat) - np.diag(post_cov)) <= 0.1 * np.diag(post_cov))

    def test_shrinkage_monotone_and_theta_in_final_bracket(self):
        prior = Gaussian([0.0, 0.0], np.eye(2))
        # likelihood concentrated away from the prior forces several shrinks
        def loglik(x):
            d = x - np.array([2.5, -1.5])
            return -8.0 * float(d @ d)

        rng = np.random.default_rng(4)
        state = ChainState(point=np.array([2.5, -1.5]))
        saw_multi_rejections = False
        for _ in range(50):
            clone = copy.deepcopy(rng)
            out = ess_step(state, prior, loglik, rng)
            brackets = _replay_ess_brackets(clone, prior.dim, out.rejections)
            widths = [hi - lo for lo, hi, _ in brackets]
            # The initial angle sits exactly at theta_max, so the first
            # rejection cannot shrink the bracket; afterwards every rejected
            # angle is interior and the width strictly decreases.
            assert all(w <= widths[0] for w in widths[:2])
            assert all(w2 < w1 for w1, w2 in zip(widths[1:], widths[2:]))
            lo, hi, theta = brackets[-1]
            assert lo <= theta <= hi
            assert out.angle_final == theta
            assert clone.bit_generator.state == rng.bit_generator.state
            if out.rejections > 1:
                saw_multi_rejections = True
            state = out.next
        assert saw_multi_rejections


def _replay_ess_brackets(rng, dim, rejections):
    """``(theta_min, theta_max, theta)`` of every proposal of an accepted
    ``ess_step`` with ``rejections`` rejections, rebuilt from a copy of the
    generator it stepped with: the prior's noise, log u, the first angle,
    then one uniform per rejection."""
    rng.standard_normal(dim)
    rng.random()
    theta = 2.0 * math.pi * rng.random()
    theta_min, theta_max = theta - 2.0 * math.pi, theta
    brackets = [(theta_min, theta_max, theta)]
    for _ in range(rejections):
        if theta < 0.0:
            theta_min = theta
        else:
            theta_max = theta
        theta = theta_min + (theta_max - theta_min) * rng.random()
        brackets.append((theta_min, theta_max, theta))
    return brackets


def _gaussian_pair_mixture():
    return MixtureModel(
        [0.5, 0.5],
        [Gaussian([-3.0], [[1.5]]), Gaussian([3.0], [[0.8]])],
    )


def _t_pair_mixture():
    return MixtureModel(
        [0.4, 0.6],
        [StudentT([-3.0], [[1.5]], 5.0), StudentT([3.0], [[0.8]], 7.0)],
    )


def _bimodal_target():
    mix = MixtureModel(
        [0.6, 0.4], [Gaussian([-3.5], [[1.0]]), Gaussian([3.0], [[1.2]])]
    )
    return TargetDensity(dim=1, log_pi=mix.log_density)


class TestGmrgessStep:
    def test_target_equals_pseudo_prior_never_rejects(self):
        g = Gaussian([1.0, -1.0], FIG2_COV)
        mixture = MixtureModel([1.0], [g])
        target = TargetDensity(dim=2, log_pi=g.log_density)
        rng = np.random.default_rng(5)
        state = ChainState(point=np.array([1.0, -1.0]), region=0)
        for _ in range(300):
            out = gmrgess_step(state, mixture, target, rng)
            assert out.rejections == 0
            state = out.next

    def test_requires_gaussian_components(self):
        with pytest.raises(ValueError):
            gmrgess_step(
                ChainState(point=np.array([0.0])),
                _t_pair_mixture(),
                _bimodal_target(),
                np.random.default_rng(0),
            )

    def test_region_consistency_over_random_steps(self):
        mixture = _gaussian_pair_mixture()
        target = _bimodal_target()
        rng = np.random.default_rng(21)
        x = np.array([-3.0])
        state = ChainState(point=x, region=mixture.assign_region(x))
        for _ in range(500):
            out = gmrgess_step(state, mixture, target, rng)
            assert out.next.region == mixture.assign_region(out.next.point)
            state = out.next

    def test_deterministic_given_seed(self):
        mixture = _gaussian_pair_mixture()
        target = _bimodal_target()
        state = ChainState(point=np.array([-2.0]), region=0)
        a = gmrgess_step(state, mixture, target, np.random.default_rng(77))
        b = gmrgess_step(state, mixture, target, np.random.default_rng(77))
        np.testing.assert_array_equal(a.next.point, b.next.point)
        assert a.rejections == b.rejections
        assert a.angle_final == b.angle_final

    def test_nonfinite_target_at_current_point_raises(self):
        mixture = _gaussian_pair_mixture()
        target = TargetDensity(dim=1, log_pi=lambda _x: -np.inf)
        with pytest.raises(ValueError):
            gmrgess_step(
                ChainState(point=np.array([0.0]), region=0),
                mixture, target, np.random.default_rng(0),
            )

    def test_theta_zero_recovery_terminates_on_point_mass(self):
        # A target supported on the current point alone: the bracket shrinks
        # until the proposal underflows to the current point, which is then
        # accepted. The step must terminate well before the guard cap.
        mixture = _gaussian_pair_mixture()
        anchor = np.array([-3.0])

        def point_mass(x):
            return 0.0 if np.array_equal(x, anchor) else -np.inf

        target = TargetDensity(dim=1, log_pi=point_mass)
        state = ChainState(point=anchor, region=mixture.assign_region(anchor))
        out = gmrgess_step(state, mixture, target, np.random.default_rng(3))
        assert 0 < out.rejections < MAX_SHRINK_ITERS
        np.testing.assert_array_equal(out.next.point, anchor)
        assert out.next.region == state.region

    def test_shrinkage_cap_returns_current_point(self, monkeypatch):
        # Exhaust the guard before the bracket underflows to recovery.
        monkeypatch.setattr("rgess.samplers.MAX_SHRINK_ITERS", 10)
        mixture = _gaussian_pair_mixture()
        anchor = np.array([-3.0])

        def point_mass(x):
            return 0.0 if np.array_equal(x, anchor) else -np.inf

        target = TargetDensity(dim=1, log_pi=point_mass)
        state = ChainState(point=anchor, region=mixture.assign_region(anchor))
        out = gmrgess_step(state, mixture, target, np.random.default_rng(3))
        assert out.rejections == 10
        np.testing.assert_array_equal(out.next.point, anchor)
        assert out.next.region == state.region
        assert out.angle_final == 0.0


def _first_t_proposal(mean, dof, x, alpha, beta, seed):
    """The first proposal of ``tmrgess_step`` from ``x`` under the one
    identity-scale t component (``mean``, ``dof``), and the same proposal
    replayed with the auxiliary scale drawn from IG(``alpha``, ``beta``).
    The target is the component itself, so the first proposal is accepted."""
    comp = StudentT(mean, np.eye(len(mean)), dof)
    target = TargetDensity(dim=len(mean), log_pi=comp.log_density)
    out = tmrgess_step(ChainState(point=x, region=0), MixtureModel([1.0], [comp]),
                       target, np.random.default_rng(seed))
    assert out.rejections == 0
    rng = np.random.default_rng(seed)
    s = 1.0 / rng.gamma(alpha, 1.0 / beta)
    noise = rng.standard_normal(len(mean))
    rng.random()  # log u
    theta = 2.0 * math.pi * rng.random()
    replayed = (x - comp.mean) * math.cos(theta) + math.sqrt(s) * noise * math.sin(theta)
    return out.next.point, replayed + comp.mean


class TestTmrgessStep:
    def test_auxiliary_params_at_mean(self):
        # alpha' = (D + nu)/2 = 4 and beta' = nu/2 = 3 at the mean.
        x = np.array([1.0, 2.0])
        got, want = _first_t_proposal([1.0, 2.0], 6.0, x, 4.0, 3.0, seed=21)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_auxiliary_params_unit_offset(self):
        # alpha' = (2 + 4)/2 = 3 and beta' = (4 + 2)/2 = 3 at unit offset.
        x = np.array([1.0, 1.0])
        got, want = _first_t_proposal([0.0, 0.0], 4.0, x, 3.0, 3.0, seed=22)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_target_equals_t_pseudo_prior_samples_the_t(self):
        comp = StudentT([0.5], [[1.0]], 6.0)
        mixture = MixtureModel([1.0], [comp])
        target = TargetDensity(dim=1, log_pi=comp.log_density)
        rng = np.random.default_rng(10)
        state = ChainState(point=np.array([0.5]), region=0)
        draws = []
        for _ in range(10_000):
            out = tmrgess_step(state, mixture, target, rng)
            assert out.rejections == 0
            state = out.next
            draws.append(state.point[0])
        pvalue = stats.kstest(
            np.array(draws), lambda q: stats.t.cdf(q, df=6.0, loc=0.5, scale=1.0)
        ).pvalue
        assert pvalue > 0.001

    def test_requires_t_components(self):
        with pytest.raises(ValueError):
            tmrgess_step(
                ChainState(point=np.array([0.0])),
                _gaussian_pair_mixture(),
                _bimodal_target(),
                np.random.default_rng(0),
            )

    def test_region_consistency_and_determinism(self):
        mixture = _t_pair_mixture()
        target = _bimodal_target()
        state = ChainState(point=np.array([2.5]), region=1)
        rng = np.random.default_rng(31)
        for _ in range(300):
            out = tmrgess_step(state, mixture, target, rng)
            assert out.next.region == mixture.assign_region(out.next.point)
            state = out.next
        a = tmrgess_step(state, mixture, target, np.random.default_rng(5))
        b = tmrgess_step(state, mixture, target, np.random.default_rng(5))
        np.testing.assert_array_equal(a.next.point, b.next.point)


_ENTRY_STEPS = pytest.mark.parametrize(
    "step, make_mixture",
    [(gmrgess_step, _gaussian_pair_mixture), (tmrgess_step, _t_pair_mixture)],
    ids=["gmrgess", "tmrgess"],
)


class TestRegionalStepEntry:
    """A current point the step cannot start from is a ValueError at step
    entry, which the runner reports as a RunError with chain and iteration."""

    @_ENTRY_STEPS
    def test_nan_current_point_raises(self, step, make_mixture):
        state = ChainState(point=np.array([np.nan]), region=0)
        with pytest.raises(ValueError, match="non-finite current point"):
            step(state, make_mixture(), _bimodal_target(), np.random.default_rng(0))

    @_ENTRY_STEPS
    def test_inf_current_point_raises(self, step, make_mixture):
        state = ChainState(point=np.array([np.inf]), region=1)
        with pytest.raises(ValueError, match="non-finite current point"):
            step(state, make_mixture(), _bimodal_target(), np.random.default_rng(0))

    def test_tmrgess_overflowing_current_point_raises(self):
        # [1e200] is finite, but its Mahalanobis term overflows, so the rate
        # of the inverse-gamma auxiliary scale is infinite.
        state = ChainState(point=np.array([1e200]), region=1)
        flat = TargetDensity(dim=1, log_pi=lambda _x: 0.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="auxiliary rate"):
            tmrgess_step(state, _t_pair_mixture(), flat, np.random.default_rng(0))
        # The batched step names the lowest chain that cannot start.
        with pytest.raises(ChainFailure, match="auxiliary rate") as info:
            _batch_step([[0.5], [1e200], [np.nan]], _t_pair_mixture(), flat)
        assert info.value.chain == 1

    def test_gmrgess_overflowing_current_point_raises(self):
        # At [1e200] the quadratic forms overflow, so every Gaussian component
        # log density is -inf and no proposal could clear the slice threshold.
        state = ChainState(point=np.array([1e200]), region=1)
        flat = TargetDensity(dim=1, log_pi=lambda _x: 0.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="current region"):
            gmrgess_step(state, _gaussian_pair_mixture(), flat, np.random.default_rng(0))
        with pytest.raises(ChainFailure, match="current region") as info:
            _batch_step([[0.5], [1e200], [np.nan]], _gaussian_pair_mixture(), flat)
        assert info.value.chain == 1
        with pytest.raises(ChainFailure, match="non-finite current point") as info:
            _batch_step([[np.nan], [1e200]], _gaussian_pair_mixture(), flat)
        assert info.value.chain == 0


class TestNonFiniteStart:
    """ess_step and mh_step refuse a non-finite current point, as the
    regional kernels do, instead of returning a nan or inf point."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_ess_step_raises(self, bad):
        state = ChainState(point=np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="non-finite current point"):
            ess_step(state, Gaussian([0.0, 0.0], np.eye(2)), constant_loglik,
                     np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_mh_step_raises(self, bad):
        state = ChainState(point=np.array([bad, 0.0]))
        flat = TargetDensity(dim=2, log_pi=lambda _x: 0.0)
        with pytest.raises(ValueError, match="non-finite current point"):
            mh_step(state, np.eye(2), flat, np.random.default_rng(0))


def _batch_step(points, mixture, target):
    """A ``regional_ess_segment`` of one step from ``points``."""
    points = np.array(points, dtype=float)
    rngs = [np.random.default_rng(k) for k in range(len(points))]
    return regional_ess_segment(points, mixture, target, rngs,
                                np.random.default_rng(len(points)), 1, 1)


@st.composite
def _batch_case(draw, kinds=("gaussian", "student_t")):
    """A random pseudo-prior mixture of one of ``kinds`` (M in 1..4, D in
    1..9), a random Gaussian-mixture target of the same dimension, K in
    1..6 starting points drawn from the target, and a generator seed per
    chain, the last for the jump block."""
    kind = draw(st.sampled_from(kinds))
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 9))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixture = reference_mixture(*random_mixture_stacks(rng, kind, m, d))
    target_mix = reference_mixture(*random_mixture_stacks(rng, "gaussian", 3, d))
    points = np.stack([target_mix.sample(rng) for _ in range(k)])
    seeds = rng.integers(2**32, size=k + 1).tolist()
    return mixture, TargetDensity(dim=d, log_pi=target_mix.log_density), points, seeds


class TestBatchEqualsPerChainSteps:
    """A ``regional_ess_segment`` of one step over K chains equals K calls of
    the per-chain kernel, each followed by the chain's jump from the block
    that ``jump_block`` draws from an equally seeded generator, bit for bit:
    points, regions, rejections and the generators' final states."""

    @settings(deadline=None, max_examples=100)
    @given(_batch_case())
    def test_one_step_bitwise(self, case):
        mixture, target, points, (*seeds, jump_seed) = case
        step = gmrgess_step if mixture.kind == "gaussian" else tmrgess_step
        starts = points.copy()
        rngs = [np.random.default_rng(seed) for seed in seeds]
        _, regions, rejections = regional_ess_segment(
            points, mixture, target, rngs, np.random.default_rng(jump_seed), 1, 1)
        jump = jump_block(mixture, target, np.random.default_rng(jump_seed), 1, len(seeds))
        regions, rejections = regions[0], rejections[0]
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            state = ChainState(point=starts[k], region=mixture.assign_region(starts[k]))
            out = step(state, mixture, target, rng)
            state = jump_chain(out.next, jump, 0, k, len(seeds), mixture, target)
            assert state.point.tobytes() == points[k].tobytes()
            assert state.region == regions[k]
            assert out.rejections == rejections[k]
            assert rng.bit_generator.state == rngs[k].bit_generator.state


class TestSegmentEqualsChainMajorSteps:
    """A ``regional_ess_segment`` of 1-4 iterations of 1-3 steps over K
    chains equals each chain stepped alone through the segment with the
    per-chain kernel, with jump (i, k) after iteration i's steps from the
    block that ``jump_block`` draws from an equally seeded generator, bit
    for bit: every iteration's points, regions and rejection sums, the
    final points and the generators' final states. A small
    shrinkage cap makes steps end at the cap."""

    @settings(deadline=None, max_examples=100)
    @given(_batch_case(), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([1, 3, MAX_SHRINK_ITERS]))
    def test_segment_bitwise(self, case, iterations, steps_per_iteration, cap):
        mixture, target, points, (*seeds, jump_seed) = case
        step = gmrgess_step if mixture.kind == "gaussian" else tmrgess_step
        starts = points.copy()
        rngs = [np.random.default_rng(seed) for seed in seeds]
        jump = jump_block(mixture, target, np.random.default_rng(jump_seed), iterations,
                          len(seeds))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("rgess.samplers.MAX_SHRINK_ITERS", cap)
            got_points, got_regions, got_rejections = regional_ess_segment(
                points, mixture, target, rngs, np.random.default_rng(jump_seed),
                iterations, steps_per_iteration)
            for k, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                state = ChainState(point=starts[k], region=mixture.assign_region(starts[k]))
                for i in range(iterations):
                    rejections = 0
                    for _ in range(steps_per_iteration):
                        out = step(state, mixture, target, rng)
                        state, rejections = out.next, rejections + out.rejections
                    state = jump_chain(state, jump, i, k, len(seeds), mixture, target)
                    assert state.point.tobytes() == got_points[i, k].tobytes()
                    assert state.region == got_regions[i, k]
                    assert rejections == got_rejections[i, k]
                assert state.point.tobytes() == points[k].tobytes()
                assert rng.bit_generator.state == rngs[k].bit_generator.state


class TestStartLogPi:
    def test_raising_start_points_fail_the_lowest_chain_at_iteration_0(self):
        # The batch raises at the start rows of chains 2 and 3, so the
        # segment evaluates the rows one at a time and names chain 2.
        def log_pi(x):
            if x[0] > 1.0:
                raise ValueError(f"{x[0]} is out of range")
            return -0.5 * float(x @ x)

        target = TargetDensity(dim=1, log_pi=log_pi,
                               log_pi_batch=lambda xs: np.array([log_pi(x) for x in xs]))
        mixture = MixtureModel([1.0], [Gaussian([0.0], [[0.01]])])
        with pytest.raises(ChainFailure, match="2.0 is out of range") as info:
            _batch_step([[0.0], [0.5], [2.0], [3.0]], mixture, target)
        assert (info.value.chain, info.value.iteration) == (2, 0)


def _assert_carried_values_fresh(point, quad, comps, mixture):
    """``quad`` and ``comps`` equal a fresh ``_mahalanobis_sq(point)`` and
    ``_log_densities(point)`` bit for bit."""
    assert quad.tobytes() == mixture._mahalanobis_sq(point).tobytes()
    assert comps.tobytes() == mixture._log_densities(point).tobytes()


class TestCarriedDistancesStayFresh:
    """The squared distances and component log densities that a regional
    kernel keeps with its point in ``ChainState.cache`` equal a fresh
    evaluation at that point after every step, accepted or not; the
    regions a segment records equal a fresh evaluation too."""

    @settings(deadline=None, max_examples=60)
    @given(_batch_case())
    def test_per_chain_kernels(self, case):
        mixture, target, points, (*seeds, _) = case
        ess = gmrgess_step if mixture.kind == "gaussian" else tmrgess_step
        for step in (ess, regional_mh_step):
            for x, seed in zip(points, seeds):
                rng = np.random.default_rng(seed)
                state = ChainState(point=x, region=mixture.assign_region(x))
                for _ in range(4):
                    state = step(state, mixture, target, rng).next
                    cache = state.cache
                    assert cache[0] is state.point and cache[1] is mixture
                    assert cache[3] == target.log_pi(state.point)
                    _assert_carried_values_fresh(state.point, cache[5], cache[4], mixture)

    @settings(deadline=None, max_examples=60)
    @given(_batch_case())
    def test_batch(self, case):
        mixture, target, points, (*seeds, jump_seed) = case
        rngs = [np.random.default_rng(seed) for seed in seeds]
        jump_rng = np.random.default_rng(jump_seed)
        for _ in range(4):
            regions = regional_ess_segment(points, mixture, target, rngs, jump_rng,
                                           1, 1)[1][-1]
            for k, x in enumerate(points):
                assert regions[k] == mixture.assign_region(x)


class TestJumpBlockRowsFresh:
    """Every finite row of a ``jump_block`` carries the log pi, component
    log densities and squared distances of a single-point evaluation at its
    point, bit for bit, and the region ``assign_region`` gives it; its w is
    ``log_pi(x) - mixture.log_density(x)``, or -inf where that is not
    finite. An accepted jump writes the row into its chain's state, and the
    per-chain reference copies the same row, so only this test sees a stale
    one."""

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    @settings(deadline=None, max_examples=40)
    @given(case=st.data(), iterations=st.integers(1, 3))
    def test_rows_equal_a_single_point_evaluation(self, kind, case, iterations):
        mixture, target, _, seeds = case.draw(_batch_case(kinds=(kind,)))
        d, m = mixture.dim, mixture.n_components
        jump = jump_block(mixture, target, np.random.default_rng(seeds[-1]), iterations,
                          len(seeds) - 1)
        finite = np.isfinite(jump.rows[:, :d]).all(axis=1)
        assert finite.any()
        for row, region in zip(jump.rows[finite], jump.regions[finite]):
            x = row[:d]
            log_pi = target.log_pi(x)
            assert row[d:d + 1].tobytes() == np.array([log_pi]).tobytes()
            w = log_pi - mixture.log_density(x)
            w = w if math.isfinite(w) else -math.inf
            assert row[d + 1:d + 2].tobytes() == np.array([w]).tobytes()
            _assert_carried_values_fresh(x, row[d + 2 + m:], row[d + 2:d + 2 + m], mixture)
            assert region == mixture.assign_region(x)


# Pseudo-prior mixtures and target of the criterion-3 stationarity check.
_C3_MIXTURES = {
    "gaussian": lambda: MixtureModel(
        [0.5, 0.5], [Gaussian([-2.5], [[4.0]]), Gaussian([2.5], [[6.25]])]
    ),
    "student_t": lambda: MixtureModel(
        [0.5, 0.5],
        [StudentT([-2.5], [[4.0]], 5.0), StudentT([2.5], [[6.25]], 7.0)],
    ),
}
_C3_MIXTURES["regional_mh"] = _C3_MIXTURES["gaussian"]
_C3_TARGET = MixtureModel(
    [0.6, 0.4], [Gaussian([-2.5], [[1.0]]), Gaussian([2.5], [[2.25]])]
).log_density

_KERNELS = {
    "gaussian": gmrgess_step, "student_t": tmrgess_step, "regional_mh": regional_mh_step,
}


def _three_component_2d_mixture(kind):
    means = ([-2.0, 0.0], [2.0, 1.0], [0.0, 3.0])
    covs = ([[1.5, 0.4], [0.4, 1.0]], [[2.0, -0.3], [-0.3, 0.8]], np.eye(2))
    if kind == "student_t":
        comps = [StudentT(m, c, dof) for m, c, dof in zip(means, covs, (4.0, 6.0, 9.0))]
    else:
        comps = [Gaussian(m, c) for m, c in zip(means, covs)]
    return MixtureModel([0.5, 0.2, 0.3], comps)


_SWAPPED_MIXTURES = {
    "gaussian": lambda: MixtureModel(
        [0.3, 0.7], [Gaussian([-2.0], [[2.0]]), Gaussian([3.0], [[3.0]])]
    ),
    "student_t": lambda: MixtureModel(
        [0.3, 0.7],
        [StudentT([-2.0], [[2.0]], 3.0), StudentT([3.0], [[3.0]], 12.0)],
    ),
}

_SWAPPED_MIXTURES["regional_mh"] = _SWAPPED_MIXTURES["gaussian"]

_TARGET_2D = MixtureModel(
    [0.3, 0.7],
    [Gaussian([-2.0, 0.5], [[1.0, 0.2], [0.2, 0.5]]), Gaussian([1.5, 2.0], np.eye(2))],
).log_density


def _truncated_c3_target(x):
    # zero density right of 1.5: proposals there must be rejected outright
    return -np.inf if x[0] > 1.5 else _C3_TARGET(x)


def _reference_step(kind, point, region, mixture, log_pi, rng):
    if kind != "regional_mh":
        return reference_regional_ess_step(kind, point, region, mixture, log_pi, rng)
    out = reference_regional_mh_step(
        ChainState(point=point, region=region), mixture,
        TargetDensity(dim=len(point), log_pi=log_pi), rng,
    )
    return out.next.point, out.next.region, out.rejections, out.angle_final


def _compare_with_reference(kind, mixture_at, log_pi, x0, n_steps, seed):
    """Step the kernel and the reference side by side from equal generators.

    ``mixture_at(n)`` is the mixture for step n; when it changes, regions are
    reassigned with ``ChainState._replace`` as the runner does at a barrier.
    Returns the per-step rejection counts.
    """
    step = _KERNELS[kind]
    target = TargetDensity(dim=len(x0), log_pi=log_pi)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    mixture = mixture_at(0)
    state = ChainState(point=x0, region=mixture.assign_region(x0))
    point, region = x0, state.region
    rejections = []
    for n in range(n_steps):
        if mixture_at(n) is not mixture:
            mixture = mixture_at(n)
            state = state._replace(region=mixture.assign_region(state.point))
            region = mixture.assign_region(point)
        out = step(state, mixture, target, rng)
        point, region, rej, angle = _reference_step(
            kind, point, region, mixture, log_pi, rng_ref
        )
        assert np.array_equal(out.next.point, point), f"step {n}"
        assert out.next.region == region, f"step {n}"
        assert out.rejections == rej, f"step {n}"
        assert out.angle_final == angle, f"step {n}"
        rejections.append(rej)
        state = out.next
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    return np.array(rejections)


_ALL_KINDS = pytest.mark.parametrize("kind", ["gaussian", "student_t", "regional_mh"])
_ESS_KINDS = pytest.mark.parametrize("kind", ["gaussian", "student_t"])


class TestRegionalKernelsMatchReference:
    """The regional kernels reproduce the straightforward reference step
    exactly: points, regions, rejections and final angles. Kind "gaussian" is
    ``gmrgess_step``, "student_t" is ``tmrgess_step``, and "regional_mh" is
    ``regional_mh_step`` against its uncached reference."""

    @_ALL_KINDS
    def test_criterion_3_mixtures(self, kind):
        mixture = _C3_MIXTURES[kind]()
        rej = _compare_with_reference(
            kind, lambda _n: mixture, _C3_TARGET, np.array([-2.5]), 2000, 1003
        )
        # MH steps reject at most once; ESS steps also shrink repeatedly
        assert rej.min() == 0
        assert rej.max() > (0 if kind == "regional_mh" else 1)

    @_ALL_KINDS
    def test_three_components_in_two_dimensions(self, kind):
        mixture = _three_component_2d_mixture(kind)
        _compare_with_reference(
            kind, lambda _n: mixture, _TARGET_2D, np.array([-2.0, 0.5]), 500, 11
        )

    @_ALL_KINDS
    def test_target_with_zero_density_region(self, kind):
        mixture = _C3_MIXTURES[kind]()
        _compare_with_reference(
            kind, lambda _n: mixture, _truncated_c3_target, np.array([-2.5]), 500, 12
        )

    @_ESS_KINDS
    def test_shrinkage_cap(self, kind, monkeypatch):
        monkeypatch.setattr("rgess.samplers.MAX_SHRINK_ITERS", 2)
        mixture = _C3_MIXTURES[kind]()
        rej = _compare_with_reference(
            kind, lambda _n: mixture, _C3_TARGET, np.array([-2.5]), 500, 13
        )
        assert np.any(rej == 2) and np.any(rej < 2)

    @_ALL_KINDS
    def test_mixture_swapped_between_steps(self, kind):
        # a stale density cache would change the acceptance thresholds
        first, second = _C3_MIXTURES[kind](), _SWAPPED_MIXTURES[kind]()
        _compare_with_reference(
            kind, lambda n: first if (n // 3) % 2 == 0 else second,
            _C3_TARGET, np.array([-2.5]), 600, 14,
        )


class TestRegionalMhStep:
    def test_target_equals_single_component_always_accepts(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        mixture = MixtureModel([1.0], [g])
        target = TargetDensity(dim=2, log_pi=g.log_density)
        rng = np.random.default_rng(14)
        state = ChainState(point=np.array([0.3, -0.3]), region=0)
        for _ in range(300):
            out = regional_mh_step(state, mixture, target, rng)
            assert out.rejections == 0
            state = out.next

    def test_rejection_keeps_point_bitwise(self):
        mixture = _gaussian_pair_mixture()
        anchor = np.array([-3.0])

        def point_mass(x):
            return 0.0 if np.array_equal(x, anchor) else -np.inf

        target = TargetDensity(dim=1, log_pi=point_mass)
        state = ChainState(point=anchor, region=0)
        out = regional_mh_step(state, mixture, target, np.random.default_rng(2))
        assert out.rejections == 1
        assert out.next.point is anchor

    def test_empirical_stationary_matches_target(self):
        # small-scale version of the discretized oracle; the full-strength
        # variant lives in the acceptance suite. The pseudo-prior components
        # overlap the region boundary so cross-mode moves stay live.
        mixture = MixtureModel(
            [0.5, 0.5], [Gaussian([-2.5], [[4.0]]), Gaussian([2.5], [[6.25]])]
        )
        target_mix = MixtureModel(
            [0.6, 0.4], [Gaussian([-2.5], [[1.0]]), Gaussian([2.5], [[2.25]])]
        )
        target = TargetDensity(dim=1, log_pi=target_mix.log_density)
        rng = np.random.default_rng(8)
        x = np.array([-2.5])
        state = ChainState(point=x, region=mixture.assign_region(x))
        samples = []
        for i in range(40_000):
            state = regional_mh_step(state, mixture, target, rng).next
            if i >= 1000:
                samples.append(state.point[0])
        grid = np.linspace(-10.0, 10.0, 41)
        idx = np.clip(np.round((np.array(samples) + 10.0) / 0.5), 0, 40).astype(int)
        empirical = np.bincount(idx, minlength=41) / len(samples)
        dens = np.array([math.exp(target.log_pi(np.array([g]))) for g in grid])
        expected = dens / dens.sum()
        tv = 0.5 * np.abs(empirical - expected).sum()
        assert tv < 0.05


class TestMhStep:
    def test_uniform_box_always_accepts_inside(self):
        def box_logpdf(x):
            return 0.0 if np.all(np.abs(x) < 100.0) else -np.inf

        target = TargetDensity(dim=2, log_pi=box_logpdf)
        rng = np.random.default_rng(6)
        state = ChainState(point=np.array([0.0, 0.0]))
        for _ in range(200):
            out = mh_step(state, 0.01 * np.eye(2), target, rng)
            assert out.rejections == 0
            state = out.next

    def test_standard_normal_moments(self):
        target = TargetDensity(
            dim=1, log_pi=lambda x: -0.5 * float(x @ x)
        )
        rng = np.random.default_rng(15)
        state = ChainState(point=np.array([0.0]))
        draws = np.empty(100_000)
        for i in range(100_000):
            state = mh_step(state, np.eye(1), target, rng).next
            draws[i] = state.point[0]
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_rejection_keeps_point_bitwise(self):
        anchor = np.array([1.0, 2.0])

        def point_mass(x):
            return 0.0 if np.array_equal(x, anchor) else -np.inf

        target = TargetDensity(dim=2, log_pi=point_mass)
        state = ChainState(point=anchor)
        out = mh_step(state, np.eye(2), target, np.random.default_rng(1))
        assert out.rejections == 1
        assert out.next.point is anchor


def _mixture_as_target(mixture):
    """``mixture``'s log density as a target whose batch evaluates it
    exactly as the jump block evaluates log g."""
    return TargetDensity(
        dim=mixture.dim, log_pi=mixture.log_density,
        log_pi_batch=lambda xs: mixture._log_mixture(mixture._log_densities(xs)))


def _jump_case(kind, chains, seed):
    """A random two-component mixture of ``kind`` in 2-D and ``chains``
    points drawn from it."""
    rng = np.random.default_rng(seed)
    mixture = reference_mixture(*random_mixture_stacks(rng, kind, 2, 2))
    return mixture, np.stack([mixture.sample(rng) for _ in range(chains)])


class TestJumpRule:
    """The mixture-independence jump: its acceptance rule and what
    ``jump_block`` hands it."""

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_every_jump_accepted_when_g_is_the_target(self, kind):
        # log pi - log g is 0 at every point, so log u < 0 accepts
        mixture, points = _jump_case(kind, 6, 5)
        target = _mixture_as_target(mixture)
        rngs = [np.random.default_rng(k) for k in range(6)]
        got_points, got_regions, _ = regional_ess_segment(
            points, mixture, target, rngs, np.random.default_rng(6), 3, 2)
        jump = jump_block(mixture, target, np.random.default_rng(6), 3, 6)
        assert np.all(jump.rows[:, 3] == 0.0)  # w, column D + 1
        assert got_points.reshape(-1, 2).tobytes() == jump.rows[:, :2].tobytes()
        assert np.array_equal(got_regions.reshape(-1), jump.regions)

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_minus_inf_proposal_never_accepted(self, kind):
        mixture, points = _jump_case(kind, 2000, 7)
        log_pi = mixture.log_density
        target = TargetDensity(dim=2, log_pi=lambda x: -np.inf if x[0] > 0.0 else log_pi(x))
        jump = jump_block(mixture, target, np.random.default_rng(8), 1, 2000)
        outside = jump.rows[:, 0] > 0.0
        w = jump.rows[:, 3]  # column D + 1
        assert 0 < outside.sum() < 2000
        assert np.all(w[outside] == -np.inf)
        assert np.isfinite(w[~outside]).all()
        # a current point of tiny target density accepts every finite ratio
        accepted = _jump_accepts(jump.log_us, w,
                                 -700.0 - mixture._log_mixture(mixture._log_densities(points)))
        assert not accepted[outside].any()
        assert accepted[~outside].all()

    def test_non_finite_proposal_is_rejected_unevaluated(self):
        # dof 1e-3: the inverse-gamma scale overflows to inf for most rows
        mixture = MixtureModel([0.5, 0.5], [StudentT([-1.0], [[1.0]], 1e-3),
                                            StudentT([1.0], [[1.0]], 1e-3)])

        def finite_only(x):
            if not np.isfinite(x).all():
                raise AssertionError(f"evaluated at {x}")
            return -0.5 * float(x @ x)

        target = TargetDensity(dim=1, log_pi=finite_only)
        with np.errstate(all="raise"):
            jump = jump_block(mixture, target, np.random.default_rng(9), 4, 50)
        finite = np.isfinite(jump.rows[:, 0])
        assert 0 < finite.sum() < 200
        assert jump.failures == {}
        assert np.all(jump.rows[~finite, 2] == -np.inf)  # w, column D + 1

    def test_target_exception_is_held_per_iteration_and_chain(self):
        mixture, _ = _jump_case("gaussian", 1, 10)

        def raising(x):
            if x[0] > 0.0:
                raise ZeroDivisionError("division by zero")
            return 0.0

        jump = jump_block(mixture, TargetDensity(dim=2, log_pi=raising),
                          np.random.default_rng(11), 5, 8)
        rows = np.flatnonzero(jump.rows[:, 0] > 0.0)
        assert 0 < len(rows) < 40
        assert set(jump.failures) == {divmod(int(r), 8) for r in rows}
        assert all(type(exc) is ZeroDivisionError for exc in jump.failures.values())
        assert np.all(jump.rows[rows, 3] == -np.inf)  # w, column D + 1


class TestJumpInvariance:
    """One jump from N = 100k exact draws of criterion 3's target, under
    its fixed Gaussian and t mixtures, leaves them exact draws: the z of
    E[x], E[x^2] and P(x < 0) against their exact values, with iid standard
    errors, stays within 4. A jump is Metropolis-Hastings with an
    independence proposal, so this holds for any mixture."""

    @pytest.mark.parametrize("seed", [3101, 3102])
    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_one_jump_from_exact_starts(self, kind, seed):
        n = 100_000
        mixture = _C3_MIXTURES[kind]()
        target = TargetDensity(dim=1, log_pi=bimodal_logpdf)
        rng = np.random.default_rng(seed)
        starts = sample_bimodal(rng, n)
        jump = jump_block(mixture, target, rng, 1, n)
        accepted = _jump_accepts(jump.log_us, jump.rows[:, 2],  # w, column D + 1
                                 _log_pi_held(target, starts)[0]
                                 - mixture._log_mixture(mixture._log_densities(starts)))
        # enough mass moves for the check to see a wrong rule
        assert 0.3 < accepted.mean() < 0.95
        x = np.where(accepted, jump.rows[:, 0], starts[:, 0])
        for values, exact in ((x, BIMODAL_MEAN), (x * x, BIMODAL_SECOND_MOMENT),
                              (x < 0.0, BIMODAL_P_NEGATIVE)):
            values = values.astype(float)
            z = (values.mean() - exact) / (values.std() / math.sqrt(n))
            assert abs(z) <= 4.0, (kind, seed, exact, z)
