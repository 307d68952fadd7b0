"""Mixture fitters: EM, variational Bayes, stochastic approximation and the
Student's-t EM variant."""

import logging

import numpy as np
import pytest
import scipy.optimize
from scipy.special import digamma

from helpers import (
    assert_fit_matches_reference,
    assert_fits_equal,
    assert_sa_matches_fd,
    min_distance_to_outliers,
    outlier_fixture,
    outlier_fixture_true_mixture,
    random_sa_instance,
    reference_clean_cov,
    reference_em_fit,
    reference_em_gmm_fit,
    reference_em_tmm_fit,
    reference_mixture,
    reference_sa_update_directions,
    two_cluster_samples,
)
from rgess.adaptation import (
    AdaptationConfig,
    Scheme,
    _sa_rate,
    _solve_dof,
    em_gmm_fit,
    em_tmm_fit,
    initial_mixture,
    refit,
    sa_gmm_update,
    sa_update_directions,
    vi_gmm_fit,
)
from rgess.diagnostics import read_mixtures_csv, write_mixtures_csv
from rgess.distributions import Gaussian, MixtureModel, StudentT


def _config(**kwargs):
    defaults = dict(scheme=Scheme.EM_GMM, components=1, reg_radius=0.0)
    defaults.update(kwargs)
    return AdaptationConfig(**defaults)


# Five points in 1-D on which four-component EM re-seeds a collapsed
# component (at rng seed 288, reg_radius 0.01).
COLLAPSE_SAMPLES = np.array([
    0.4646202490186573, 1.1349235599799652, 0.011848969992453075,
    0.020085048490946805, -0.011561306510268795,
])[:, None]


def _reference_case(name):
    """``(samples, m, config keywords, rng seed)`` of a fitter-vs-reference case."""
    if name == "two_clusters":
        return two_cluster_samples(np.random.default_rng(1)), 2, {}, 2
    if name == "outliers":
        samples = np.vstack([outlier_fixture(), [[500.0, 500.0]]])
        return samples, 3, {"reg_radius": 0.1}, 5
    if name == "collapse":
        return COLLAPSE_SAMPLES, 4, {"reg_radius": 0.01}, 288
    if name == "heavy_tails":
        return np.random.default_rng(19).standard_t(3.0, size=(400, 2)), 2, {}, 20
    if name == "fixed_dof":
        return two_cluster_samples(np.random.default_rng(15)), 2, {"fixed_dof": 5.0}, 16
    if name == "collinear":
        return COLLINEAR_SAMPLES, 3, {"reg_radius": 0.0}, 7
    if name == "degenerate":
        return np.tile([2.0, -1.0], (6, 1)), 2, {"reg_radius": 0.0}, 0
    raise ValueError(name)


# 40 points on the line y = 0.5. Every covariance EM forms from them has a
# zero row and column, so at reg_radius 0 the batched Cholesky factorization
# of the hygiene pass fails and each matrix takes the nearest-PSD repair.
COLLINEAR_SAMPLES = np.column_stack([
    np.random.default_rng(31).normal(scale=3.0, size=40), np.full(40, 0.5),
])

BITWISE_CASES = ["two_clusters", "outliers", "heavy_tails", "fixed_dof",
                 "collapse", "collinear", "degenerate"]


def _assert_equals_reference_em(case, student_t):
    samples, m, kwargs, seed = _reference_case(case)
    if not student_t:
        kwargs.pop("fixed_dof", None)  # a Gaussian scheme rejects fixed_dof
    config = _config(scheme=Scheme.EM_TMM if student_t else Scheme.EM_GMM, **kwargs)
    fitter = em_tmm_fit if student_t else em_gmm_fit
    fit = fitter(samples, m, config, np.random.default_rng(seed))
    reference = reference_em_fit(samples, m, config, np.random.default_rng(seed),
                                 student_t=student_t)
    assert_fits_equal(fit, reference)
    return fit


def _assert_mixture_clean(mixture):
    assert abs(mixture.weights.sum() - 1.0) <= 1e-10
    for comp in mixture.components:
        mat = comp.cov if isinstance(comp, Gaussian) else comp.scale
        np.linalg.cholesky(mat)


class TestEmGmm:
    @pytest.mark.parametrize("samples", [[[-1.0], [1.0]], [[0.0, 1.0], [2.0, 3.0], [4.0, -1.0]]],
                             ids=["1d", "2d"])
    def test_single_component_closed_form(self, samples):
        # one component is the sample mean and the population covariance,
        # plus the regularization
        reg = 0.25
        samples = np.array(samples)
        fit = em_gmm_fit(samples, 1, _config(reg_radius=reg), np.random.default_rng(0))
        comp = fit.mixture.components[0]
        np.testing.assert_allclose(comp.mean, samples.mean(axis=0), atol=1e-12)
        mle = np.atleast_2d(np.cov(samples, rowvar=False, bias=True))
        np.testing.assert_allclose(comp.cov, mle + reg * np.eye(samples.shape[1]), atol=1e-9)

    def test_recovers_two_separated_clusters(self):
        samples = two_cluster_samples(np.random.default_rng(1))
        fit = em_gmm_fit(samples, 2, _config(), np.random.default_rng(2))
        means = sorted(c.mean[0] for c in fit.mixture.components)
        assert abs(means[0] + 10.0) < 0.5
        assert abs(means[1] - 10.0) < 0.5
        assert np.all(np.abs(fit.mixture.weights - 0.5) < 0.1)
        _assert_mixture_clean(fit.mixture)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(3)
        samples = two_cluster_samples(rng, n_per=200)
        fit = em_gmm_fit(samples, 2, _config(em_tol=0.0), np.random.default_rng(4))
        diffs = np.diff(fit.objective_history)
        assert np.all(diffs >= -1e-9)

    def test_too_few_samples_errors(self):
        with pytest.raises(ValueError):
            em_gmm_fit(np.array([[1.0]]), 2, _config(), np.random.default_rng(0))

    def test_degenerate_input_returns_point_mass_surrogate(self):
        samples = np.tile(np.array([2.0, -1.0]), (10, 1))
        fit = em_gmm_fit(samples, 3, _config(reg_radius=0.5), np.random.default_rng(0))
        assert fit.mixture.n_components == 3
        for comp in fit.mixture.components:
            np.testing.assert_array_equal(comp.mean, [2.0, -1.0])
            np.testing.assert_allclose(comp.cov, 0.5 * np.eye(2), atol=1e-9)
        np.testing.assert_allclose(fit.mixture.weights, 1.0 / 3.0)

    def test_cluster_data_with_outlier_survives(self):
        samples = np.vstack([outlier_fixture(), [[500.0, 500.0]]])
        fit = em_gmm_fit(samples, 3, _config(reg_radius=0.1), np.random.default_rng(5))
        _assert_mixture_clean(fit.mixture)


    @pytest.mark.parametrize("case", ["two_clusters", "outliers", "collapse"])
    def test_matches_separate_loop_reference(self, case, caplog):
        samples, m, kwargs, seed = _reference_case(case)
        config = _config(**kwargs)
        with caplog.at_level(logging.WARNING, logger="rgess.adaptation"):
            fit = em_gmm_fit(samples, m, config, np.random.default_rng(seed))
        collapsed = any("collapsed" in r.getMessage() for r in caplog.records)
        assert collapsed == (case == "collapse")
        reference = reference_em_gmm_fit(samples, m, config, np.random.default_rng(seed))
        assert_fit_matches_reference(fit, reference)

    @pytest.mark.parametrize("case", BITWISE_CASES)
    def test_equals_object_built_em_bitwise(self, case):
        fit = _assert_equals_reference_em(case, student_t=False)
        if case == "collinear":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(np.cov(COLLINEAR_SAMPLES, rowvar=False, bias=True))
            assert fit.iterations_used > 1


class TestViGmm:
    def test_recovers_two_separated_clusters(self):
        samples = two_cluster_samples(np.random.default_rng(6))
        fit = vi_gmm_fit(samples, 2, _config(scheme=Scheme.VI_GMM), np.random.default_rng(7))
        means = sorted(c.mean[0] for c in fit.mixture.components)
        assert abs(means[0] + 10.0) < 0.5
        assert abs(means[1] - 10.0) < 0.5
        _assert_mixture_clean(fit.mixture)

    def test_elbo_monotone(self):
        samples = two_cluster_samples(np.random.default_rng(8), n_per=200)
        fit = vi_gmm_fit(
            samples, 2, _config(scheme=Scheme.VI_GMM, em_tol=0.0),
            np.random.default_rng(9),
        )
        diffs = np.diff(fit.objective_history)
        assert np.all(diffs >= -1e-9)

    def test_single_component_posterior_mean(self):
        rng = np.random.default_rng(10)
        samples = rng.normal(3.0, 2.0, size=(400, 1))
        config = _config(scheme=Scheme.VI_GMM)
        fit = vi_gmm_fit(samples, 1, config, np.random.default_rng(11))
        sample_mean = samples.mean()
        # the prior mean is the sample mean, so with one component conjugate
        # shrinkage leaves the posterior mean there up to rounding
        tol = 3.0 * samples.std() / np.sqrt(len(samples))
        assert abs(fit.mixture.components[0].mean[0] - sample_mean) < tol
        assert fit.mixture.components[0].mean[0] == pytest.approx(sample_mean, rel=1e-12)


class TestSaGmm:
    def test_fixed_point_of_mean_update(self):
        mu = np.array([1.5, -0.5])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        current = MixtureModel([1.0], [Gaussian(mu, cov)])
        samples = np.tile(mu, (20, 1))
        r = 0.1
        updated = sa_gmm_update(current, samples, r)
        comp = updated.components[0]
        np.testing.assert_allclose(comp.mean, mu, atol=1e-12)
        # all samples at the mean: covariance contracts to (1 - r) Sigma
        np.testing.assert_allclose(comp.cov, (1.0 - r) * cov, atol=1e-10)
        assert updated.weights[0] == pytest.approx(1.0)

    def test_single_component_weight_direction_vanishes(self):
        current = MixtureModel([1.0], [Gaussian([0.0], [[1.0]])])
        samples = np.random.default_rng(12).normal(size=(20, 1))
        dw_raw, dw, _, _ = sa_update_directions(current, samples)
        assert dw[0] == pytest.approx(0.0, abs=1e-12)
        assert dw_raw[0] == pytest.approx(1.0, abs=1e-12)

    def test_update_matches_finite_difference_gradient(self):
        # one random instance here; the five-seed sweep runs in acceptance
        rng = np.random.default_rng(13)
        current = MixtureModel(
            [0.3, 0.7],
            [
                Gaussian(rng.normal(size=2), np.array([[1.2, 0.0], [0.0, 0.9]])),
                Gaussian(rng.normal(size=2), np.array([[1.0, 0.3], [0.3, 0.8]])),
            ],
        )
        samples = rng.normal(0.0, 1.5, size=(20, 2))
        assert_sa_matches_fd(current, samples)

    def test_small_rate_is_near_identity(self):
        rng = np.random.default_rng(14)
        current = MixtureModel(
            [0.4, 0.6],
            [Gaussian([-1.0, 0.0], np.eye(2)), Gaussian([1.5, 0.5], np.eye(2))],
        )
        samples = rng.normal(0.0, 2.0, size=(30, 2))
        ratios = []
        for r in (1e-3, 1e-4, 1e-5):
            updated = sa_gmm_update(current, samples, r)
            delta = max(
                np.max(np.abs(updated.weights - current.weights)),
                max(
                    np.max(np.abs(a.mean - b.mean))
                    for a, b in zip(updated.components, current.components)
                ),
                max(
                    np.max(np.abs(a.cov - b.cov))
                    for a, b in zip(updated.components, current.components)
                ),
            )
            ratios.append(delta / r)
        # ||update - phi|| <= C r with an r-independent constant
        assert max(ratios) / min(ratios) < 1.5

    def test_outlier_robustness_vs_em(self):
        samples = outlier_fixture()
        em_fit = em_gmm_fit(
            samples, 3, _config(reg_radius=0.05), np.random.default_rng(41)
        )
        assert min_distance_to_outliers(em_fit.mixture) < 1.0

        mixture = outlier_fixture_true_mixture()
        for step in range(1, 51):
            mixture = sa_gmm_update(mixture, samples, _sa_rate(step))
        assert min_distance_to_outliers(mixture) >= 1.0

    def test_nonfinite_update_skipped(self):
        current = MixtureModel([1.0], [Gaussian([0.0], [[1.0]])])
        overflow = np.array([[1e200]])
        assert sa_gmm_update(current, overflow, 0.1) is current

    @pytest.mark.parametrize("seed", range(40))
    def test_directions_equal_row_loop(self, seed):
        m, d = 1 + seed % 4, 1 + seed % 9
        current, samples = random_sa_instance(seed, m=m, d=d, k=7 + seed)
        got = sa_update_directions(current, samples)
        want = reference_sa_update_directions(current, samples)
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_rejects_t_mixture(self):
        current = MixtureModel([1.0], [StudentT([0.0], [[1.0]], 5.0)])
        with pytest.raises(ValueError):
            sa_gmm_update(current, np.zeros((5, 1)), 0.1)

    @pytest.mark.parametrize("rate", [0.0, -0.1, np.nan])
    def test_rejects_non_positive_rate(self, rate):
        current = MixtureModel([1.0], [Gaussian([0.0], [[1.0]])])
        with pytest.raises(ValueError, match="learning rate must be positive"):
            sa_gmm_update(current, np.zeros((5, 1)), rate)


class TestEmTmm:
    def test_gaussian_limit_recovers_clusters(self):
        samples = two_cluster_samples(np.random.default_rng(15))
        fit = em_tmm_fit(
            samples, 2, _config(scheme=Scheme.EM_TMM, fixed_dof=1e6),
            np.random.default_rng(16),
        )
        means = sorted(c.mean[0] for c in fit.mixture.components)
        assert abs(means[0] + 10.0) < 0.5
        assert abs(means[1] - 10.0) < 0.5
        _assert_mixture_clean(fit.mixture)

    def test_expected_precision_weight_at_mean(self):
        nu, dim = 8.0, 2
        comp = StudentT(np.zeros(dim), np.eye(dim), nu)
        mahal = comp.mahalanobis_sq(np.zeros(dim))
        u = (nu + dim) / (nu + mahal)
        assert u == pytest.approx((nu + dim) / nu)

    def test_log_likelihood_monotone(self):
        samples = two_cluster_samples(np.random.default_rng(17), n_per=200)
        fit = em_tmm_fit(
            samples, 2, _config(scheme=Scheme.EM_TMM, em_tol=0.0),
            np.random.default_rng(18),
        )
        diffs = np.diff(fit.objective_history)
        assert np.all(diffs >= -1e-9)

    def test_dof_estimated_for_heavy_tailed_data(self):
        rng = np.random.default_rng(19)
        samples = rng.standard_t(3.0, size=(2000, 1))
        fit = em_tmm_fit(
            samples, 1, _config(scheme=Scheme.EM_TMM), np.random.default_rng(20)
        )
        assert 1.0 < fit.mixture.components[0].dof < 10.0

    def test_degenerate_input_surrogate(self):
        samples = np.tile(np.array([1.0]), (8, 1))
        fit = em_tmm_fit(
            samples, 2, _config(scheme=Scheme.EM_TMM, reg_radius=0.3, fixed_dof=7.0),
            np.random.default_rng(0),
        )
        for comp in fit.mixture.components:
            assert comp.mean[0] == 1.0
            assert comp.dof == 7.0
            assert comp.scale[0, 0] == pytest.approx(0.3, abs=1e-9)


    @pytest.mark.parametrize(
        "case", ["two_clusters", "outliers", "heavy_tails", "fixed_dof"]
    )
    def test_matches_separate_loop_reference(self, case):
        samples, m, kwargs, seed = _reference_case(case)
        config = _config(scheme=Scheme.EM_TMM, **kwargs)
        fit = em_tmm_fit(samples, m, config, np.random.default_rng(seed))
        reference = reference_em_tmm_fit(samples, m, config, np.random.default_rng(seed))
        assert_fit_matches_reference(fit, reference)

    @pytest.mark.parametrize("case", BITWISE_CASES)
    def test_equals_object_built_em_bitwise(self, case):
        fit = _assert_equals_reference_em(case, student_t=True)
        if case == "collinear":
            assert fit.iterations_used > 1


class TestSolveDof:
    """Each branch of ``_solve_dof``; the estimating equation is written out
    here from Peel & McLachlan (2000)."""

    @staticmethod
    def _equation(nu_old, d, resp, u):
        const = (1.0 + (resp @ (np.log(u) - u)) / resp.sum()
                 + digamma(0.5 * (nu_old + d)) - np.log(0.5 * (nu_old + d)))
        return lambda nu: -digamma(0.5 * nu) + np.log(0.5 * nu) + const

    @staticmethod
    def _interior_case():
        resp = np.random.default_rng(4).uniform(0.1, 1.0, 50)
        u = np.random.default_rng(3).uniform(0.2, 2.0, 50)
        return 4.0, 2, resp, u

    def test_upper_bound_when_every_precision_is_one(self):
        # u = 1 is Gaussian data: the equation stays positive up to 200
        assert _solve_dof(1e6, 1, np.ones(5), np.ones(5)) == 200.0

    def test_lower_bound_when_precisions_are_tiny(self):
        assert _solve_dof(4.0, 1, np.ones(5), np.full(5, 1e-10)) == 0.1

    def test_interior_root_is_brentq_bitwise(self):
        nu_old, d, resp, u = self._interior_case()
        got = _solve_dof(nu_old, d, resp, u)
        want = scipy.optimize.brentq(self._equation(nu_old, d, resp, u), 0.1, 200.0,
                                     xtol=1e-8)
        assert 0.1 < got < 200.0
        assert got == want

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_failed_root_keeps_old_dof(self, monkeypatch, caplog, error):
        def fail(*_args, **_kwargs):
            raise error("no convergence")

        monkeypatch.setattr(scipy.optimize, "brentq", fail)
        nu_old, d, resp, u = self._interior_case()
        with caplog.at_level(logging.WARNING, logger="rgess.adaptation"):
            assert _solve_dof(nu_old, d, resp, u) == nu_old
        assert any("dof root-finding failed" in r.getMessage() for r in caplog.records)


class TestDegenerateSurrogate:
    @pytest.mark.parametrize("fitter", [em_gmm_fit, em_tmm_fit, vi_gmm_fit])
    def test_fits_without_iterating(self, fitter):
        samples = np.tile([3.0, -2.0], (10, 1))
        config = _config(reg_radius=0.1)
        fit = fitter(samples, 2, config, np.random.default_rng(0))
        assert fit.iterations_used == 0


class TestAdaptationConfig:
    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_em_max_iters_below_one(self, iters):
        with pytest.raises(ValueError, match="em_max_iters"):
            _config(em_max_iters=iters)

    @pytest.mark.parametrize("interval", [0, -1])
    def test_rejects_interval_below_one(self, interval):
        with pytest.raises(ValueError, match="adaptation interval must be >= 1"):
            _config(interval=interval)

    @pytest.mark.parametrize("components", [0, -1])
    def test_rejects_components_below_one(self, components):
        with pytest.raises(ValueError, match="components must be >= 1"):
            _config(components=components)

    @pytest.mark.parametrize("reg_radius", [np.nan, np.inf, -0.1])
    def test_rejects_bad_reg_radius(self, reg_radius):
        with pytest.raises(ValueError, match="reg_radius"):
            _config(reg_radius=reg_radius)

    @pytest.mark.parametrize("em_tol", [np.nan, -1e-6])
    def test_rejects_bad_em_tol(self, em_tol):
        with pytest.raises(ValueError, match="em_tol"):
            _config(em_tol=em_tol)

    def test_rejects_infinite_fixed_dof(self):
        with pytest.raises(ValueError, match="fixed_dof must be finite"):
            _config(scheme=Scheme.EM_TMM, fixed_dof=np.inf)

    @pytest.mark.parametrize("dof", [0.0, -2.0, np.nan])
    def test_rejects_non_positive_fixed_dof(self, dof):
        with pytest.raises(ValueError, match="fixed_dof must be finite and positive"):
            _config(scheme=Scheme.EM_TMM, fixed_dof=dof)

    @pytest.mark.parametrize("scheme", [Scheme.EM_GMM, Scheme.VI_GMM, Scheme.SA_GMM])
    def test_fixed_dof_applies_only_to_em_tmm(self, scheme):
        with pytest.raises(ValueError, match=f"fixed_dof applies only to the em_tmm scheme, "
                                             f"not {scheme.value}"):
            _config(scheme=scheme, fixed_dof=3.0)


def _assert_same_mixture(got, want):
    """Every cached stack equal bit for bit in the same layout."""
    for name in ("weights", "_log_weights", "_means", "_scales", "_chols", "_chol_inv",
                 "_log_norms", "_whiten_mat", "_whiten_off", "_dofs"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
            continue
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
            b.flags.c_contiguous, b.flags.f_contiguous)


class TestInitialMixture:
    def test_gaussian_moment_fit(self):
        samples = np.array([[0.0, 0.0], [2.0, 2.0]])
        mixture = initial_mixture(_config(reg_radius=0.5), samples, np.random.default_rng(0))
        (g,) = mixture.components
        np.testing.assert_allclose(g.mean, [1.0, 1.0])
        np.testing.assert_allclose(g.cov, [[1.5, 1.0], [1.0, 1.5]], atol=1e-12)

    def test_t_moment_fit_carries_dof(self):
        samples = np.random.default_rng(21).normal(size=(50, 2))
        config = _config(scheme=Scheme.EM_TMM, reg_radius=0.1, fixed_dof=6.0)
        (t,) = initial_mixture(config, samples, np.random.default_rng(0)).components
        assert t.dof == 6.0
        np.linalg.cholesky(t.scale)

    @pytest.mark.parametrize("scheme, dofs", [(Scheme.EM_GMM, None), (Scheme.VI_GMM, None),
                                              (Scheme.EM_TMM, [4.0])])
    @pytest.mark.parametrize("n, d", [(1, 1), (7, 1), (1, 3), (12, 3), (40, 9)])
    def test_equals_moment_fit_component_bitwise(self, scheme, dofs, n, d):
        # The one-component start equals the mixture of one moment-fitted
        # Gaussian or StudentT object in every cached stack, layout included.
        samples = np.random.default_rng(n + d).normal(scale=3.0, size=(n, d))
        config = _config(scheme=scheme, reg_radius=0.01)
        got = initial_mixture(config, samples, np.random.default_rng(0))
        cov = reference_clean_cov(np.cov(samples, rowvar=False, bias=True).reshape(d, d), 0.01)
        want = reference_mixture([1.0], [samples.mean(axis=0)], [cov], dofs)
        _assert_same_mixture(got, want)

    @pytest.mark.parametrize("scheme", [Scheme.EM_GMM, Scheme.EM_TMM, Scheme.SA_GMM])
    def test_overflowing_covariance_is_an_error(self, scheme):
        # finite points whose squared deviations sum past the float range;
        # SA starts from a two-component EM fit
        points = np.array([[1e154, -1e154], [-1e154, 1e154], [1.2e154, 0.9e154]])
        with pytest.raises(ValueError, match="the covariance of the 3 samples is not finite"):
            initial_mixture(_config(scheme=scheme, components=2), points,
                            np.random.default_rng(0))

    def test_sa_starts_from_em_fit(self):
        samples, m, kwargs, seed = _reference_case("two_clusters")
        config = _config(scheme=Scheme.SA_GMM, components=m, **kwargs)
        got = initial_mixture(config, samples, np.random.default_rng(seed))
        want = em_gmm_fit(samples, m, config, np.random.default_rng(seed)).mixture
        _assert_same_mixture(got, want)


class TestRefit:
    @pytest.mark.parametrize("scheme, fitter, case", [(Scheme.EM_GMM, em_gmm_fit, "outliers"),
                                                      (Scheme.VI_GMM, vi_gmm_fit, "outliers"),
                                                      (Scheme.EM_TMM, em_tmm_fit, "outliers"),
                                                      (Scheme.EM_TMM, em_tmm_fit, "fixed_dof"),
                                                      (Scheme.EM_GMM, em_gmm_fit, "two_clusters"),
                                                      (Scheme.VI_GMM, vi_gmm_fit, "two_clusters"),
                                                      (Scheme.EM_TMM, em_tmm_fit, "heavy_tails"),
                                                      (Scheme.EM_GMM, em_gmm_fit, "degenerate"),
                                                      (Scheme.VI_GMM, vi_gmm_fit, "degenerate"),
                                                      (Scheme.EM_TMM, em_tmm_fit, "degenerate")])
    def test_scheme_fits_with_its_fitter(self, scheme, fitter, case):
        samples, m, kwargs, seed = _reference_case(case)
        config = _config(scheme=scheme, components=m, **kwargs)
        got = refit(config, None, samples, np.random.default_rng(seed), 4)
        _assert_same_mixture(got, fitter(samples, m, config, np.random.default_rng(seed)).mixture)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, scheme, bad):
        current, samples = random_sa_instance(3)
        samples = samples.copy()
        samples[1, 0] = bad
        config = _config(scheme=scheme, components=current.n_components)
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            refit(config, current, samples, np.random.default_rng(0), 1)

    @pytest.mark.parametrize("scheme, case", [(Scheme.EM_GMM, "outliers"),
                                              (Scheme.VI_GMM, "outliers"),
                                              (Scheme.EM_TMM, "outliers"),
                                              (Scheme.EM_TMM, "fixed_dof"),
                                              (Scheme.SA_GMM, "outliers")])
    def test_fit_round_trips_through_mixtures_csv(self, tmp_path, scheme, case):
        # a fit written with write_mixtures_csv reads back equal in every stack
        samples, m, kwargs, seed = _reference_case(case)
        config = _config(scheme=scheme, components=m, **kwargs)
        current = em_gmm_fit(samples, m, config, np.random.default_rng(seed)).mixture
        fitted = refit(config, current, samples, np.random.default_rng(seed), 1)
        write_mixtures_csv([(0, fitted)], tmp_path / "mixture.csv")
        ((iteration, back),) = read_mixtures_csv(tmp_path / "mixture.csv")
        assert iteration == 0
        _assert_same_mixture(back, fitted)

    @pytest.mark.parametrize("update_index", [1, 5])
    def test_sa_steps_at_the_scheduled_rate(self, update_index):
        current, samples = random_sa_instance(3)
        config = _config(scheme=Scheme.SA_GMM, reg_radius=0.05)
        got = refit(config, current, samples, np.random.default_rng(0), update_index)
        _assert_same_mixture(got, sa_gmm_update(current, samples, 0.5 / (10 + update_index), 0.05))

    def test_successive_sa_refits_step_at_each_index(self):
        current, samples = random_sa_instance(4)
        config = _config(scheme=Scheme.SA_GMM, reg_radius=0.05)
        got = want = current
        for update_index in range(1, 4):
            got = refit(config, got, samples, np.random.default_rng(update_index), update_index)
            want = sa_gmm_update(want, samples, 0.5 / (10 + update_index), 0.05)
        _assert_same_mixture(got, want)
