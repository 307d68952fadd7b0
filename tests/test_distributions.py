"""Distribution primitives: density values, sampling laws, region assignment
and covariance hygiene."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.special import gammaln, logsumexp

from helpers import (
    InverseGammaParams,
    random_mixture_stacks,
    reference_location_scale,
    reference_log_mixture,
    reference_mixture,
    sample_inverse_gamma,
)
from rgess.distributions import (
    Gaussian,
    MixtureModel,
    StudentT,
    _gammaln,
    _logsumexp,
    _mixture,
    _t_log_gamma_ratio,
    ensure_spd,
    nearest_psd,
    regularize_cov,
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

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("dof", [1e9, 1e12, 1e17])
    def test_huge_dof_tends_to_gaussian_at_mode(self, dof, dim):
        # the t density at its mode exceeds N(0, I)'s by O(dim^2 / dof)
        t = StudentT(np.zeros(dim), np.eye(dim), dof)
        gaussian = -0.5 * dim * math.log(2.0 * math.pi)
        assert abs(t.log_density(np.zeros(dim)) - gaussian) < 1e-8

    @settings(deadline=None, max_examples=200)
    @given(st.floats(1e-3, 2e4), st.integers(1, 9))
    def test_dof_up_to_2e4_keeps_the_log_gamma_difference(self, dof, dim):
        want = gammaln(0.5 * (dof + dim)) - gammaln(0.5 * dof)
        assert _t_log_gamma_ratio(dof, dim) == want

    @pytest.mark.parametrize("dof", [2.5e4, 1e6, 1e8, 2e8, 1e12])
    def test_large_dof_ratio_is_exact_for_even_dim(self, dof):
        # Gamma(x + 1) / Gamma(x) = x and Gamma(x + 2) / Gamma(x) = x (x + 1)
        x = 0.5 * dof
        assert abs(_t_log_gamma_ratio(dof, 2) - math.log(x)) < 1e-13
        assert abs(_t_log_gamma_ratio(dof, 4) - (math.log(x) + math.log(x + 1.0))) < 1e-13


# Through every branch of cephes lgam: the reflection below -34, the
# recurrence for negative non-integers and on (0, 2) and [3, 13), the poles,
# the rational fit on [2, 3), Stirling's series with its correction on
# [13, 1000) and [1000, 1e8], without it above 1e8, the overflow above
# 2.556348e305, and the non-finite values.
_LGAM_GRID = np.concatenate([
    np.linspace(-1000.3, -34.1, 1000), -np.geomspace(35.5, 1e300, 300),
    np.linspace(-33.9, -0.001, 1000),
    [0.0, -0.0, -1.0, -2.0, -34.0, -35.0, -1e300],
    np.geomspace(1e-300, 2.0, 500, endpoint=False), np.linspace(0.0, 2.0, 500)[1:],
    np.linspace(2.0, 3.0, 500, endpoint=False),
    np.linspace(3.0, 13.0, 1000, endpoint=False),
    np.linspace(13.0, 1000.0, 1000, endpoint=False),
    np.geomspace(1000.0, 1e8, 1000),
    np.geomspace(np.nextafter(1e8, np.inf), 2.556348e305, 1000),
    [np.nextafter(2.556348e305, np.inf), 1e306, np.finfo(float).max],
    [np.inf, -np.inf, np.nan],
])


class TestGammaln:
    """``_gammaln`` equals ``scipy.special.gammaln`` bit for bit."""

    def test_every_branch_bitwise(self):
        assert _gammaln(_LGAM_GRID).tobytes() == gammaln(_LGAM_GRID).tobytes()

    @settings(deadline=None, max_examples=300)
    @given(hnp.arrays(np.float64, st.integers(0, 20),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_finite_floats_bitwise(self, x):
        assert _gammaln(x).tobytes() == gammaln(x).tobytes()

    @pytest.mark.parametrize("x", [2.5, -3.5, 0.0, np.float64(40.0), np.array(7.25), 3])
    def test_zero_d_input_gives_a_float64(self, x):
        got = _gammaln(x)
        assert type(got) is np.float64
        assert got.tobytes() == gammaln(x).tobytes()

    @pytest.mark.parametrize("x", [[0.5, 1.5, 2.5], np.arange(1, 6), [], np.array([-40.5])])
    def test_one_d_input_keeps_its_shape(self, x):
        got = _gammaln(x)
        assert (got.dtype, got.shape) == (np.float64, np.shape(x))
        assert got.tobytes() == gammaln(np.asarray(x, dtype=float)).tobytes()


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


@st.composite
def _stacks_and_batch(draw):
    """Parameter stacks of a Gaussian or Student-t mixture, M in 1..4 and D
    in 1..9, and an (n, D) batch, n in 1..64."""
    kind = draw(st.sampled_from(["gaussian", "student_t"]))
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 9))
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e6, 1e6))
    points = draw(hnp.arrays(np.float64, (n, d), elements=coords))
    return random_mixture_stacks(rng, kind, m, d), points


@st.composite
def _mixture_and_batch(draw):
    """The mixture of :func:`_stacks_and_batch` built from ``Gaussian`` or
    ``StudentT`` objects, and its batch."""
    stacks, points = draw(_stacks_and_batch())
    return reference_mixture(*stacks), points


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

    @settings(deadline=None, max_examples=100)
    @given(_mixture_and_batch())
    def test_inputs_left_unchanged(self, case):
        # The kernels keep the distances with the point and build the
        # densities from them, so neither routine may write to its input.
        mixture, points = case
        for x in (points, points[0]):
            x_before = x.copy()
            quad = mixture._mahalanobis_sq(x)
            quad_before = quad.copy()
            comps = mixture._log_densities_from_quad(quad)
            assert x.tobytes() == x_before.tobytes()
            assert quad.tobytes() == quad_before.tobytes()
            assert comps.tobytes() == mixture._log_densities(x).tobytes()


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


_MIXTURE_CACHES = ("weights", "_log_weights", "_means", "_scales", "_chols",
                   "_chol_inv", "_log_norms", "_whiten_mat", "_whiten_off",
                   "_dofs", "_half_dof_plus_dim")


def _assert_same_array(got, want):
    """Equal bit for bit, in the same shape, dtype and memory order."""
    if want is None:
        assert got is None
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous


def _assert_stacks_build_object_mixture(stacks, points):
    """``_mixture`` on parameter stacks, with and without their Cholesky
    factors, equals the mixture built from ``Gaussian``/``StudentT`` objects
    bit for bit; each object equals the scipy-wrapper formulas."""
    weights, means, scales, dofs = stacks
    built = reference_mixture(weights, means, scales, dofs)
    for mixture in (_mixture(weights, means, scales, dofs),
                    _mixture(weights, means, scales, dofs,
                             chols=np.linalg.cholesky(scales))):
        assert mixture.kind == built.kind
        for name in _MIXTURE_CACHES:
            _assert_same_array(getattr(mixture, name), getattr(built, name))
        for got, want in zip(mixture.components, built.components, strict=True):
            assert type(got) is type(want)
            assert getattr(got, "dof", None) == getattr(want, "dof", None)
        with np.errstate(over="ignore"):
            rows = mixture._log_densities(points)
            _assert_same_array(rows, built._log_densities(points))
    references = [reference_location_scale(means[k], scales[k],
                                           None if dofs is None else dofs[k])
                  for k in range(len(means))]
    for mixture in (built, _mixture(weights, means, scales, dofs)):
        for comp, (chol, chol_inv, offset, log_norm) in zip(
                mixture.components, references, strict=True):
            _assert_same_array(comp._chols[0], chol)
            _assert_same_array(comp._chol_inv[0], chol_inv)
            _assert_same_array(comp._whiten_off, offset)
            _assert_same_array(comp._log_norms[0], log_norm)
    # The stacked inverse factors keep the memory layout that stacking
    # scipy's Fortran-ordered results gives, which batched products read.
    _assert_same_array(built._chol_inv, np.stack([r[1] for r in references]))


class TestMixtureFromStacks:
    @settings(deadline=None, max_examples=200)
    @given(_stacks_and_batch())
    def test_equals_object_built_mixture_bitwise(self, case):
        _assert_stacks_build_object_mixture(*case)

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    @pytest.mark.parametrize("d", range(1, 10))
    def test_single_component_equals_object_built_bitwise(self, kind, d):
        # One component: a (1, D, D) stack is also Fortran-contiguous where
        # D = 1, the layout a stacked build must not leak into the factors.
        rng = np.random.default_rng(d)
        points = rng.normal(scale=5.0, size=(17, d))
        _assert_stacks_build_object_mixture(random_mixture_stacks(rng, kind, 1, d), points)

    def test_checks_match_component_checks(self):
        eye = np.eye(2)[None]
        with pytest.raises(ValueError, match="dof must be positive, got -1.0"):
            _mixture([1.0], [[0.0, 0.0]], eye, [-1.0])
        with pytest.raises(ValueError, match="cov is not symmetric"):
            _mixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.2, 1.0]]])
        with pytest.raises(ValueError, match="scale contains non-finite"):
            _mixture([1.0], [[0.0, 0.0]], [[[1.0, np.nan], [np.nan, 1.0]]], [3.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            _mixture([1.0], [[0.0, 0.0, 0.0]], eye)
        with pytest.raises(ValueError, match="sum to"):
            _mixture([0.5, 0.6], [[0.0, 0.0]] * 2, np.repeat(eye, 2, axis=0))
        with pytest.raises(np.linalg.LinAlgError):
            _mixture([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]])

    def test_rejects_infinite_dof(self):
        with pytest.raises(ValueError, match="dof must be finite, got inf"):
            _mixture([0.5, 0.5], [[0.0], [1.0]], np.ones((2, 1, 1)), [4.0, np.inf])
        with pytest.raises(ValueError, match="dof must be finite, got inf"):
            StudentT([0.0], [[1.0]], np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mean(self, bad):
        with pytest.raises(ValueError, match="mean contains non-finite entries"):
            _mixture([0.5, 0.5], [[0.0, 0.0], [1.0, bad]], np.repeat(np.eye(2)[None], 2, axis=0))
        with pytest.raises(ValueError, match="mean contains non-finite entries"):
            Gaussian([bad, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="mean contains non-finite entries"):
            StudentT([bad], [[1.0]], 4.0)


class TestComponentsAreRowsOfTheStack:
    """Component k built on its own and read from a mixture's
    ``components`` is the stack of one of the mixture's row k: both give
    that row's distances, densities and draws."""

    @settings(deadline=None, max_examples=200)
    @given(_stacks_and_batch(), st.integers(0, 2**32 - 1))
    def test_component_equals_its_row(self, case, seed):
        (weights, means, scales, dofs), points = case
        mixture = _mixture(weights, means, scales, dofs)
        with np.errstate(over="ignore"):
            quads = mixture._mahalanobis_sq(points)
            rows = mixture._log_densities(points)
        for k, from_mixture in enumerate(mixture.components):
            alone = (Gaussian(means[k], scales[k]) if dofs is None
                     else StudentT(means[k], scales[k], dofs[k]))
            for x, quad, row in zip(points, quads, rows):
                got = np.array([alone.mahalanobis_sq(x), alone.log_density(x)])
                read = np.array([from_mixture.mahalanobis_sq(x),
                                 from_mixture.log_density(x)])
                assert got.tobytes() == read.tobytes()
                want = np.array([quad[k], row[k]])
                if means.shape[0] == 1 or means.shape[1] == 1:
                    # The mixture is the stack of one itself, or every
                    # whitening product is a single multiplication.
                    assert got.tobytes() == want.tobytes()
                else:
                    # An M = 1 stack whitens through a Fortran-ordered (D, D)
                    # view and a taller stack through one C-ordered (M D, D)
                    # copy, and BLAS rounds the two products apart.
                    tol = 1e-13 * (1.0 + quad[k] + abs(row[k]))
                    assert np.all(np.abs(got - want) <= tol)
            for comp in (alone, from_mixture):
                rng = np.random.default_rng(seed)
                rng2 = np.random.default_rng(seed)
                assert comp.sample(rng).tobytes() == mixture._sample(k, rng2).tobytes()
                assert rng.bit_generator.state == rng2.bit_generator.state


@st.composite
def _log_terms(draw):
    """(n, M) log terms with ties, scattered -inf entries, values far enough
    apart for exp to underflow, and at least one row of all -inf."""
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, 6))
    elements = st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([-np.inf, -np.inf, -2.0, 0.0, 0.5, 700.0]),
    )
    terms = draw(hnp.arrays(np.float64, (n, m), elements=elements))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    terms[rows] = -np.inf
    return terms


class TestLogsumexp:
    @settings(deadline=None, max_examples=300)
    @given(_log_terms())
    def test_rows_within_rounding_of_scipy(self, terms):
        got = _logsumexp(terms)
        assert got.shape == (len(terms),)
        empty = np.all(terms == -np.inf, axis=1)
        assert empty.any()
        assert np.all(got[empty] == -np.inf)
        for row, value in zip(terms, got):
            assert _logsumexp(row).tobytes() == _logsumexp(row[None]).tobytes()
            assert _logsumexp(row[None])[0] == value
        finite = ~empty
        want = logsumexp(terms[finite], axis=1)
        # The largest finite term bounds the rounding of the shifted sum.
        scale = np.maximum(1.0, np.abs(np.where(np.isfinite(terms), terms, 0.0)).max(axis=1))
        bound = 4.0 * np.finfo(float).eps * scale[finite]
        assert np.all(np.abs(got[finite] - want) <= bound)


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

    def test_ensure_spd_repairs_at_large_scale(self):
        # a fixed 1e-10 jitter would be lost against entries of 1e50
        repaired = ensure_spd(1e50 * np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.linalg.cholesky(repaired)
