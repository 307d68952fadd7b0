"""Distribution primitives: density values, sampling laws, region assignment
and covariance hygiene."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from helpers import reference_log_mixture
from rgess.distributions import (
    Gaussian,
    InverseGammaParams,
    MixtureModel,
    StudentT,
    ensure_spd,
    nearest_psd,
    regularize_cov,
    sample_inverse_gamma,
)

FIG2_COV = np.array([[10.0, 3.0], [3.0, 2.0]])


class TestGaussianLogDensity:
    def test_standard_normal_at_mode(self):
        g = Gaussian([0.0], [[1.0]])
        assert g.log_density(np.array([0.0])) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_2d_identity_product_of_1d(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        assert g.log_density(np.array([1.0, 1.0])) == pytest.approx(-math.log(2 * math.pi) - 1.0)

    def test_correlated_cov_at_origin(self):
        # det [[10,3],[3,2]] = 20 - 9 = 11 by cofactor expansion
        g = Gaussian([0.0, 0.0], FIG2_COV)
        expected = -math.log(2 * math.pi) - 0.5 * math.log(11.0)
        assert g.log_density(np.array([0.0, 0.0])) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            g.log_density(np.array([1.0]))

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError):
            Gaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_non_pd_cov_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_chol_reconstructs_cov(self):
        g = Gaussian([0.0, 0.0], FIG2_COV)
        np.testing.assert_allclose(g.chol @ g.chol.T, FIG2_COV, rtol=1e-8)


class TestGaussianSample:
    def test_identity_factor_reproduces_z(self):
        g = Gaussian([5.0, -3.0], np.eye(2))
        z = np.random.default_rng(11).standard_normal(2)
        drawn = g.sample(np.random.default_rng(11))
        np.testing.assert_array_equal(drawn, g.mean + z)

    def test_sample_mean_clt_bound(self):
        g = Gaussian([0.5, -0.5], np.eye(2))
        rng = np.random.default_rng(42)
        draws = np.stack([g.sample(rng) for _ in range(10_000)])
        # 4 sigma CLT bound per coordinate
        assert np.all(np.abs(draws.mean(axis=0) - g.mean) < 4.0 / math.sqrt(10_000))

    def test_sample_covariance_recovers_off_diagonal(self):
        g = Gaussian([0.0, 0.0], FIG2_COV)
        rng = np.random.default_rng(7)
        draws = np.stack([g.sample(rng) for _ in range(10_000)])
        cov = np.cov(draws, rowvar=False)
        assert abs(cov[0, 1] - 3.0) < 0.5

    def test_marginals_pass_ks(self):
        g = Gaussian([1.0, -2.0], FIG2_COV)
        rng = np.random.default_rng(3)
        draws = np.stack([g.sample(rng) for _ in range(10_000)])
        for i in range(2):
            sd = math.sqrt(FIG2_COV[i, i])
            p = stats.kstest(draws[:, i], "norm", args=(g.mean[i], sd)).pvalue
            assert p > 0.001


class TestStudentT:
    def test_gaussian_limit_at_mode(self):
        t = StudentT([0.0], [[1.0]], 1e6)
        assert t.log_density(np.array([0.0])) == pytest.approx(-0.9189385, abs=1e-4)

    def test_cauchy_at_mode(self):
        t = StudentT([0.0], [[1.0]], 1.0)
        assert t.log_density(np.array([0.0])) == pytest.approx(math.log(1.0 / math.pi))

    def test_unimodality(self):
        t = StudentT([0.0, 0.0], np.eye(2), 4.0)
        assert t.log_density(np.array([0.0, 0.0])) > t.log_density(np.array([3.0, 3.0]))

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            StudentT([0.0], [[1.0]], 0.0)

    def test_sample_mean_matches_t_variance_bound(self):
        nu = 10.0
        t = StudentT([2.0], [[1.0]], nu)
        rng = np.random.default_rng(5)
        draws = np.array([t.sample(rng)[0] for _ in range(10_000)])
        bound = 4.0 * math.sqrt(nu / ((nu - 2.0) * 10_000))
        assert abs(draws.mean() - 2.0) < bound

    def test_large_dof_quantile_matches_gaussian(self):
        t = StudentT([0.0], [[1.0]], 1e6)
        rng = np.random.default_rng(2)
        draws = np.array([t.sample(rng)[0] for _ in range(10_000)])
        q95 = np.quantile(draws, 0.95)
        gauss_q95 = stats.norm.ppf(0.95)
        assert abs(q95 - gauss_q95) / gauss_q95 < 0.02

    def test_sampling_deterministic(self):
        t = StudentT([0.0, 1.0], FIG2_COV, 3.0)
        a = t.sample(np.random.default_rng(123))
        b = t.sample(np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_gaussian_limit_on_grid(self):
        # nu = 1e6 tracks the Gaussian within 1e-4 in 1 and 2 dimensions
        for dim in (1, 2):
            cov = np.eye(dim)
            g = Gaussian(np.zeros(dim), cov)
            t = StudentT(np.zeros(dim), cov, 1e6)
            grid_1d = np.linspace(-3.0, 3.0, 100 if dim == 1 else 10)
            points = (
                grid_1d[:, None]
                if dim == 1
                else np.stack(np.meshgrid(grid_1d, grid_1d), axis=-1).reshape(-1, 2)
            )
            for x in points:
                assert abs(t.log_density(x) - g.log_density(x)) < 1e-4


class TestInverseGamma:
    def test_mean_matches_closed_form(self):
        params = InverseGammaParams(3.0, 2.0)
        rng = np.random.default_rng(9)
        draws = np.array([sample_inverse_gamma(params, rng) for _ in range(100_000)])
        # mean beta/(alpha-1) = 1, variance beta^2/((alpha-1)^2 (alpha-2)) = 1
        sigma_mean = math.sqrt(1.0 / 100_000)
        assert abs(draws.mean() - 1.0) < 3.0 * sigma_mean

    def test_support_positive(self):
        rng = np.random.default_rng(1)
        params = InverseGammaParams(0.5, 0.25)
        assert all(sample_inverse_gamma(params, rng) > 0 for _ in range(1000))

    def test_deterministic(self):
        params = InverseGammaParams(2.0, 5.0)
        a = sample_inverse_gamma(params, np.random.default_rng(8))
        b = sample_inverse_gamma(params, np.random.default_rng(8))
        assert a == b

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InverseGammaParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            InverseGammaParams(1.0, 0.0)


def _four_mode_benchmark():
    cov = 10.0 * np.eye(2)
    means = [(25.0, 50.0), (5.0, 5.0), (50.0, 5.0), (50.0, 50.0)]
    return MixtureModel(
        [0.25, 0.25, 0.25, 0.25], [Gaussian(np.array(m), cov) for m in means]
    )


class TestMixtureLogDensity:
    def test_single_component_degenerate(self):
        g = Gaussian([1.0, 2.0], FIG2_COV)
        m = MixtureModel([1.0], [g])
        x = np.array([0.3, -0.7])
        assert m.log_density(x) == pytest.approx(g.log_density(x), abs=1e-12)

    def test_equal_identical_components(self):
        g1 = Gaussian([0.0], [[2.0]])
        g2 = Gaussian([0.0], [[2.0]])
        m = MixtureModel([0.5, 0.5], [g1, g2])
        x = np.array([1.5])
        assert m.log_density(x) == pytest.approx(g1.log_density(x), abs=1e-12)

    def test_four_mode_benchmark_matches_direct_sum(self):
        m = _four_mode_benchmark()
        x = np.array([25.0, 50.0])
        direct = math.log(
            sum(0.25 * math.exp(c.log_density(x)) for c in m.components)
        )
        assert m.log_density(x) == pytest.approx(direct, abs=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureModel([0.5, 0.6], [Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            MixtureModel(
                [0.5, 0.5],
                [Gaussian([0.0], [[1.0]]), StudentT([0.0], [[1.0]], 2.0)],
            )


class TestRegionAssign:
    def test_single_component(self):
        m = MixtureModel([1.0], [Gaussian([0.0], [[1.0]])])
        assert m.assign_region(np.array([123.0])) == 0

    def test_closer_mean_wins(self):
        m = MixtureModel(
            [0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([10.0], [[1.0]])]
        )
        assert m.assign_region(np.array([2.0])) == 0

    def test_exact_tie_breaks_low(self):
        m = MixtureModel(
            [0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([10.0], [[1.0]])]
        )
        assert m.assign_region(np.array([5.0])) == 0

    def test_partition_is_total(self):
        m = _four_mode_benchmark()
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-20.0, 80.0, size=2)
            region = m.assign_region(x)
            assert 0 <= region < m.n_components

    def test_weighted_flag_changes_boundary(self):
        lopsided = MixtureModel(
            [0.999, 0.001],
            [Gaussian([0.0], [[1.0]]), Gaussian([4.0], [[1.0]])],
            weighted_regions=True,
        )
        plain = MixtureModel(
            [0.999, 0.001], [Gaussian([0.0], [[1.0]]), Gaussian([4.0], [[1.0]])]
        )
        x = np.array([2.2])  # just past the unweighted midpoint
        assert plain.assign_region(x) == 1
        assert lopsided.assign_region(x) == 0


@st.composite
def _mixture_and_batch(draw):
    """A random Gaussian or Student-t mixture with M in 1..4 components of
    dimension D in 1..9, random SPD scales, and an (n, D) batch, n in 1..64."""
    kind = draw(st.sampled_from(["gaussian", "student_t"]))
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 9))
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for _ in range(m):
        a = rng.normal(size=(d, d))
        scale = 10.0 ** rng.uniform(-2.0, 2.0) * (a @ a.T / d + 0.05 * np.eye(d))
        mean = rng.normal(scale=5.0, size=d)
        if kind == "gaussian":
            comps.append(Gaussian(mean, scale))
        else:
            comps.append(StudentT(mean, scale, rng.uniform(0.5, 30.0)))
    mixture = MixtureModel(rng.dirichlet(np.ones(m)), comps)
    coords = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e6, 1e6))
    points = draw(hnp.arrays(np.float64, (n, d), elements=coords))
    return mixture, points


class TestBatchedComponentDensities:
    @settings(deadline=None, max_examples=200)
    @given(_mixture_and_batch())
    def test_rows_equal_single_point_calls_bitwise(self, case):
        mixture, points = case
        batch = mixture._log_densities(points)
        assert batch.shape == (len(points), mixture.n_components)
        for row, x in zip(batch, points):
            single = mixture.component_log_densities(x.copy())
            assert row.tobytes() == single.tobytes()


class TestLogMixture:
    @settings(deadline=None, max_examples=200)
    @given(_mixture_and_batch())
    def test_equals_reference_bitwise(self, case):
        mixture, points = case
        # Every quadratic form overflows at this row, so all of its component
        # log densities are -inf.
        points = np.vstack([points, np.full(mixture.dim, 1e200)])
        with np.errstate(over="ignore"):
            comps = mixture._log_densities(points)
        assert np.all(comps[-1] == -np.inf)
        reference = reference_log_mixture(mixture._log_weights, comps)
        assert mixture._log_mixture(comps).tobytes() == reference.tobytes()
        assert reference[-1] == -np.inf
        for x, comp, expected in zip(points, comps, reference):
            assert mixture._log_mixture(comp).tobytes() == expected.tobytes()
            with np.errstate(over="ignore"):
                single = np.float64(mixture.log_density(x))
            assert single.tobytes() == expected.tobytes()


class TestMixtureNormalization:
    def test_1d_quadrature(self):
        m = MixtureModel(
            [0.3, 0.7], [Gaussian([-2.0], [[1.0]]), Gaussian([3.0], [[0.25]])]
        )
        xs = np.linspace(-12.0, 12.0, 4801)
        dens = np.array([math.exp(m.log_density(np.array([x]))) for x in xs])
        integral = np.trapezoid(dens, xs)
        assert abs(integral - 1.0) < 0.01

    def test_2d_quadrature(self):
        m = MixtureModel(
            [0.5, 0.5],
            [Gaussian([-1.0, 0.0], np.eye(2)), Gaussian([2.0, 1.0], 0.5 * np.eye(2))],
        )
        grid = np.linspace(-8.0, 8.0, 161)
        step = grid[1] - grid[0]
        total = 0.0
        for x0 in grid:
            row = np.array(
                [math.exp(m.log_density(np.array([x0, x1]))) for x1 in grid]
            )
            total += row.sum() * step * step
        assert abs(total - 1.0) < 0.01


class TestCovarianceHygiene:
    def test_regularize_zero_radius_identity(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(regularize_cov(cov, 0.0), cov)

    def test_regularize_zero_matrix(self):
        np.testing.assert_array_equal(regularize_cov(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_regularize_scales_diagonal(self):
        np.testing.assert_array_equal(
            regularize_cov(np.eye(2), 0.5), np.array([[1.5, 0.0], [0.0, 1.5]])
        )

    def test_nearest_psd_keeps_psd_input(self):
        out = nearest_psd(np.eye(2))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-9)

    def test_nearest_psd_clips_negative_eigenvalue(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1; clipping keeps 3 v v^T
        # with v = (1,1)/sqrt(2), i.e. [[1.5, 1.5], [1.5, 1.5]]
        out = nearest_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_allclose(out, [[1.5, 1.5], [1.5, 1.5]], atol=1e-9)

    def test_nearest_psd_min_eigenvalue_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            out = nearest_psd(a)
            min_eig = np.linalg.eigvalsh(out - 1e-10 * np.eye(4)).min()
            assert min_eig >= -1e-9

    def test_nearest_psd_idempotent_up_to_jitter(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = rng.normal(size=(3, 3))
            once = nearest_psd(a)
            twice = nearest_psd(once)
            assert np.linalg.norm(twice - once, "fro") <= 1e-8

    def test_nearest_psd_rejects_non_finite(self):
        with pytest.raises(ValueError):
            nearest_psd(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_ensure_spd_repairs_once(self):
        repaired = ensure_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.linalg.cholesky(repaired)  # must succeed after one repair
