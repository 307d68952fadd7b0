"""Shared fixture builders and oracles for the unit and acceptance suites."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, logsumexp

from rgess import samplers
from rgess.adaptation import (
    _EMPTY_RESP,
    FitResult,
    _as_sample_matrix,
    _is_degenerate,
    _kmeanspp_centers,
    _solve_dof,
    initial_mixture,
    refit,
    sa_update_directions,
)
from rgess.diagnostics import Traces, write_trace_csv
from rgess.distributions import (
    Gaussian,
    MixtureModel,
    StudentT,
    _logsumexp,
    ensure_spd,
    regularize_cov,
)
from rgess.runner import Kernel, RunError
from rgess.samplers import (
    ChainState,
    StepOutcome,
    _jump_accepts,
    gmrgess_step,
    jump_block,
    mh_step,
    tmrgess_step,
)


# Criterion 3's 1-D target, 0.6 N(-2.5, 1) + 0.4 N(2.5, 1.5^2): its log
# density, an exact sampler and its exact E[x], E[x^2] and P(x < 0).
_LOG_W1, _LOG_W2 = math.log(0.6), math.log(0.4)
_C1 = -0.5 * math.log(2.0 * math.pi * 1.0)
_C2 = -0.5 * math.log(2.0 * math.pi * 2.25)
BIMODAL_MEAN = 0.6 * -2.5 + 0.4 * 2.5
BIMODAL_SECOND_MOMENT = 0.6 * (1.0 + 6.25) + 0.4 * (2.25 + 6.25)
BIMODAL_P_NEGATIVE = (0.6 * 0.5 * math.erfc(-2.5 / math.sqrt(2.0))
                      + 0.4 * 0.5 * math.erfc(2.5 / (1.5 * math.sqrt(2.0))))


def bimodal_logpdf(x):
    """Log density of criterion 3's target at the 1-D point ``x``."""
    v = x[0]
    a = _LOG_W1 + _C1 - 0.5 * (v + 2.5) ** 2
    b = _LOG_W2 + _C2 - 0.5 * (v - 2.5) ** 2 / 2.25
    m = a if a > b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def sample_bimodal(rng, n):
    """``n`` exact draws from criterion 3's target, shape (n, 1)."""
    left = rng.random(n) < 0.6
    return np.where(left, -2.5 + rng.standard_normal(n),
                    2.5 + 1.5 * rng.standard_normal(n))[:, None]


def jump_chain(state, block, i, k, chains, mixture, target):
    """Chain k's state after jump (i, k) of the ``JumpBlock`` ``block`` of
    ``chains`` chains: the rule the batch applies, ``samplers._jump_accepts``,
    on one row, with the current point's w = log pi - log g derived here
    from the log pi and component densities in ``state.cache``. An accepted
    jump's state carries the proposal's values in its cache. Raises the
    exception ``block.failures`` holds for (i, k)."""
    cause = block.failures.get((i, k))
    if cause is not None:
        raise cause
    row = i * chains + k
    d, m = mixture.dim, mixture.n_components
    cache = state.cache
    w = np.array([cache[3]]) - mixture._log_mixture(cache[4][None])
    accepted = _jump_accepts(block.log_us[row:row + 1], block.rows[row:row + 1, d + 1], w)
    if not accepted[0]:
        return state
    values = block.rows[row]
    point = values[:d].copy()
    return ChainState(point=point, region=int(block.regions[row]),
                      cache=(point, mixture, target.log_pi, float(values[d]),
                             values[d + 2:d + 2 + m].copy(), values[d + 2 + m:].copy()))


def two_cluster_samples(rng, n_per=500, center=10.0, sd=1.0):
    """1D data from two well-separated clusters at -center and +center."""
    left = rng.normal(-center, sd, size=n_per)
    right = rng.normal(center, sd, size=n_per)
    return np.concatenate([left, right])[:, None]


OUTLIER_CLUSTER_MEANS = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
OUTLIER_POINTS = np.array([[40.0, 40.0], [41.0, 39.0]])


def outlier_fixture(seed=2024):
    """200 points in three unit-covariance clusters plus two far outliers."""
    rng = np.random.default_rng(seed)
    sizes = (67, 67, 66)
    clusters = [
        rng.normal(0.0, 1.0, size=(size, 2)) + mean
        for size, mean in zip(sizes, OUTLIER_CLUSTER_MEANS)
    ]
    return np.vstack(clusters + [OUTLIER_POINTS])


def outlier_fixture_true_mixture():
    """The generating three-component mixture of the outlier fixture."""
    return MixtureModel(
        np.full(3, 1.0 / 3.0),
        [Gaussian(mean, np.eye(2)) for mean in OUTLIER_CLUSTER_MEANS],
    )


def min_distance_to_outliers(mixture):
    means = np.stack([c.mean for c in mixture.components])
    dists = np.linalg.norm(
        means[:, None, :] - OUTLIER_POINTS[None, :, :], axis=2
    )
    return float(dists.min())


def mc_kl_objective(weights, means, covs, samples):
    """Monte Carlo estimate of the KL divergence to the mixture, up to the
    parameter-free entropy term: (1/K) sum_k -log f(X_k; phi)."""
    terms = []
    for mean, cov, w in zip(means, covs, weights):
        g = Gaussian(mean, 0.5 * (cov + cov.T))
        terms.append(np.log(w) + np.array([g.log_density(x) for x in samples]))
    return -float(np.mean(logsumexp(np.stack(terms, axis=1), axis=1)))


def assert_sa_matches_fd(current, samples, rel_tol=1e-4):
    """Raw SA update directions against central finite differences of the
    Monte Carlo KL estimate.

    Mean blocks equal the negative gradient directly; weight blocks equal the
    negative gradient after centering onto the simplex; covariance blocks are
    the negative gradient preconditioned by Sigma on both sides (the update's
    natural-gradient form), so the comparison maps the finite differences
    through 2 Sigma g Sigma.
    """
    h = 1e-5
    weights = current.weights.copy()
    means = current._means.copy()
    covs = np.stack([c.cov for c in current.components])
    m, d = means.shape
    dw_raw, dw, dmeans, dcovs = sa_update_directions(current, samples)

    fd_w = np.zeros(m)
    for j in range(m):
        wp, wm = weights.copy(), weights.copy()
        wp[j] += h
        wm[j] -= h
        fd_w[j] = (
            mc_kl_objective(wp, means, covs, samples)
            - mc_kl_objective(wm, means, covs, samples)
        ) / (2 * h)
    np.testing.assert_allclose(dw_raw, -fd_w, rtol=rel_tol)
    np.testing.assert_allclose(dw, -(fd_w - fd_w.mean()), rtol=rel_tol, atol=1e-12)

    for j in range(m):
        fd_mu = np.zeros(d)
        for a in range(d):
            mp, mm = means.copy(), means.copy()
            mp[j, a] += h
            mm[j, a] -= h
            fd_mu[a] = (
                mc_kl_objective(weights, mp, covs, samples)
                - mc_kl_objective(weights, mm, covs, samples)
            ) / (2 * h)
        np.testing.assert_allclose(dmeans[j], -fd_mu, rtol=rel_tol)

    for j in range(m):
        fd_cov = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                cp, cm = covs.copy(), covs.copy()
                cp[j, a, b] += h
                cm[j, a, b] -= h
                fd_cov[a, b] = (
                    mc_kl_objective(weights, means, cp, samples)
                    - mc_kl_objective(weights, means, cm, samples)
                ) / (2 * h)
        mapped = covs[j] @ (-2.0 * fd_cov) @ covs[j]
        np.testing.assert_allclose(dcovs[j], mapped, rtol=rel_tol)


def random_sa_instance(seed, m=2, d=2, k=20):
    """Random small mixture plus samples for the SA gradient oracle."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(m, 5.0))
    comps = []
    for _ in range(m):
        a = rng.normal(scale=0.4, size=(d, d))
        cov = a @ a.T + np.eye(d)
        comps.append(Gaussian(rng.normal(scale=1.5, size=d), cov))
    mixture = MixtureModel(weights, comps)
    samples = rng.normal(scale=1.5, size=(k, d))
    return mixture, samples


def reference_sa_update_directions(current, samples):
    """Row-loop oracle for ``sa_update_directions``: the component densities
    of one sample at a time, through the checked single-point call."""
    x = _as_sample_matrix(samples, 1)
    k_n, d = x.shape
    m = current.n_components
    log_joint = np.empty((k_n, m))
    for idx in range(k_n):
        log_joint[idx] = current._log_weights + current.component_log_densities(x[idx])
    log_norm = _logsumexp(log_joint)
    with np.errstate(invalid="ignore"):
        resp = np.exp(log_joint - log_norm[:, None])
    dw_raw = resp.mean(axis=0) / current.weights
    dw = dw_raw - dw_raw.mean()
    dmeans = np.empty((m, d))
    dcovs = np.empty((m, d, d))
    for j in range(m):
        prec = current._chol_inv[j].T @ current._chol_inv[j]
        diff = x - current._means[j]
        dmeans[j] = (resp[:, j][:, None] * diff).mean(axis=0) @ prec
        outer = np.einsum("n,ni,nj->ij", resp[:, j], diff, diff) / k_n
        dcovs[j] = outer - resp[:, j].mean() * current._scales[j]
    return dw_raw, dw, dmeans, dcovs


def _reference_gauss_log_densities(x, means, covs):
    """(N, M) Gaussian log densities by a Cholesky solve per component."""
    n, d = x.shape
    out = np.empty((n, means.shape[0]))
    for k in range(means.shape[0]):
        chol = np.linalg.cholesky(covs[k])
        z = solve_triangular(chol, (x - means[k]).T, lower=True)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, k] = -0.5 * (d * np.log(2 * np.pi) + log_det + np.sum(z * z, axis=0))
    return out


def _reference_t_log_densities(x, means, scales, dofs):
    """(N, M) Student's-t log densities and squared Mahalanobis distances by
    a Cholesky solve per component."""
    n, d = x.shape
    m = means.shape[0]
    logdens = np.empty((n, m))
    mahal = np.empty((n, m))
    for k in range(m):
        chol = np.linalg.cholesky(scales[k])
        z = solve_triangular(chol, (x - means[k]).T, lower=True)
        quad = np.sum(z * z, axis=0)
        mahal[:, k] = quad
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        nu = dofs[k]
        logdens[:, k] = (
            gammaln(0.5 * (nu + d)) - gammaln(0.5 * nu)
            - 0.5 * d * np.log(nu * np.pi) - 0.5 * log_det
            - 0.5 * (nu + d) * np.log1p(quad / nu)
        )
    return logdens, mahal


def reference_log_mixture(log_weights, comp_log_densities):
    """Row-wise log-sum-exp of weighted (n, M) component log densities, as
    ``GaussMixTarget`` computed it before ``MixtureModel._log_mixture``:
    rows whose terms are all -inf give -inf."""
    terms = log_weights + comp_log_densities
    m = terms.max(axis=1)
    with np.errstate(invalid="ignore"):
        lse = m + np.log(np.exp(terms - m[:, None]).sum(axis=1))
    return np.where(np.isfinite(m), lse, m)


def reference_clean_cov(cov, reg_radius):
    """One matrix through the covariance hygiene pass, as the fitters did it
    before ``adaptation._clean_cov`` took a stack: symmetrize, add
    ``reg_radius * I``, then :func:`ensure_spd`."""
    cov = 0.5 * (cov + cov.T)
    return ensure_spd(regularize_cov(cov, reg_radius))


def random_mixture_stacks(rng, kind, m, d):
    """``(weights, means, scales, dofs)`` of a random M-component mixture of
    dimension D, with SPD scales over four orders of magnitude; ``kind`` is
    "gaussian" or "student_t"."""
    a = rng.normal(size=(m, d, d))
    scales = (10.0 ** rng.uniform(-2.0, 2.0, size=(m, 1, 1))
              * (a @ a.transpose(0, 2, 1) / d + 0.05 * np.eye(d)))
    scales = 0.5 * (scales + scales.transpose(0, 2, 1))
    means = rng.normal(scale=5.0, size=(m, d))
    dofs = None if kind == "gaussian" else rng.uniform(0.5, 30.0, size=m)
    return rng.dirichlet(np.ones(m)), means, scales, dofs


def reference_mixture(weights, means, scales, dofs=None):
    """A mixture built one ``Gaussian`` or ``StudentT`` object at a time."""
    if dofs is None:
        comps = [Gaussian(mu, s) for mu, s in zip(means, scales)]
    else:
        comps = [StudentT(mu, s, nu) for mu, s, nu in zip(means, scales, dofs)]
    return MixtureModel(weights, comps)


def reference_location_scale(mean, scale, dof=None):
    """``(chol, chol_inv, offset, log_norm)`` of one component, by the
    scipy-wrapper formulas ``Gaussian`` and ``StudentT`` used before they
    shared ``distributions._factorise``."""
    mean = np.asarray(mean, dtype=float)
    d = len(mean)
    chol = np.linalg.cholesky(scale)
    chol_inv = solve_triangular(chol, np.eye(d), lower=True)
    offset = -(chol_inv @ mean)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    if dof is None:
        log_norm = -0.5 * (d * np.log(2.0 * np.pi) + log_det)
    else:
        log_norm = (
            gammaln(0.5 * (dof + d)) - gammaln(0.5 * dof)
            - 0.5 * d * np.log(dof * np.pi) - 0.5 * log_det
        )
    return chol, chol_inv, offset, log_norm


def reference_em_fit(samples, m, config, rng, student_t):
    """EM as ``adaptation._em_fit`` ran it before it built iterates from
    parameter stacks: each iterate is built from ``Gaussian`` or ``StudentT``
    objects, each covariance is cleaned and factored on its own, the
    Mahalanobis distances are computed twice. Returns a ``FitResult``."""
    x = _as_sample_matrix(samples, m)
    n, d = x.shape
    reg = config.reg_radius
    dof0 = None
    if student_t:
        dof0 = config.fixed_dof if config.fixed_dof is not None else 10.0
    if _is_degenerate(x):
        cov = reference_clean_cov(reg * np.eye(d), 0.0)
        dofs = None if dof0 is None else [dof0] * m
        return FitResult(
            mixture=reference_mixture(np.full(m, 1.0 / m), [x[0]] * m, [cov] * m, dofs),
            converged=True, iterations_used=0,
        )

    means = _kmeanspp_centers(x, m, rng)
    global_cov = reference_clean_cov(np.cov(x, rowvar=False, bias=True).reshape(d, d), reg)
    scales = np.repeat(global_cov[None], m, axis=0)
    dofs = None if dof0 is None else np.full(m, float(dof0))
    weights = np.full(m, 1.0 / m)
    solve_dofs = student_t and config.fixed_dof is None

    history = []
    converged = False
    for it in range(1, config.em_max_iters + 1):
        mixture = reference_mixture(weights, means, scales, dofs)
        log_joint = mixture._log_densities(x) + mixture._log_weights
        log_norm = _logsumexp(log_joint)
        history.append(float(log_norm.sum()))
        resp = np.exp(log_joint - log_norm[:, None])
        u = 1.0 if dofs is None else (dofs + d) / (dofs + mixture._mahalanobis_sq(x))
        ru = resp * u

        nk = resp.sum(axis=0)
        new_weights = nk / n
        new_means = means.copy()
        new_scales = scales.copy()
        new_dofs = None if dofs is None else dofs.copy()
        for k in range(m):
            if nk[k] < _EMPTY_RESP:
                new_means[k] = x[rng.integers(n)]
                new_scales[k] = reference_clean_cov(reg * np.eye(d), 0.0)
                new_weights[k] = 1.0 / n
                continue
            new_means[k] = ru[:, k] @ x / ru[:, k].sum()
            diff = x - new_means[k]
            new_scales[k] = reference_clean_cov(
                (ru[:, k][:, None] * diff).T @ diff / nk[k], reg)
            if solve_dofs:
                new_dofs[k] = _solve_dof(dofs[k], d, resp[:, k], u[:, k])
        new_weights = new_weights / new_weights.sum()

        changes = [new_weights - weights, new_means - means, new_scales - scales]
        if dofs is not None:
            changes.append(new_dofs - dofs)
        delta = max(np.max(np.abs(c)) for c in changes)
        weights, means, scales, dofs = new_weights, new_means, new_scales, new_dofs
        if delta < config.em_tol:
            converged = True
            break

    return FitResult(
        mixture=reference_mixture(weights, means, scales, dofs), converged=converged,
        iterations_used=it, objective_history=tuple(history),
    )


def assert_fits_equal(fit, reference):
    """Two ``FitResult``s agree exactly: iteration count, convergence flag,
    objective history, and every weight, mean, scale and dof bit for bit."""
    assert fit.iterations_used == reference.iterations_used
    assert fit.converged == reference.converged
    assert fit.objective_history == reference.objective_history
    got, want = fit.mixture, reference.mixture
    assert got.kind == want.kind
    assert np.array_equal(got.weights, want.weights)
    for a, b in zip(got.components, want.components, strict=True):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.scale, b.scale)
        assert getattr(a, "dof", None) == getattr(b, "dof", None)


def reference_em_gmm_fit(samples, m, config, rng):
    """Separate-loop Gaussian-mixture EM with its own density code, the
    oracle for ``em_gmm_fit`` on non-degenerate samples. Returns
    ``(weights, means, covs, iterations_used, converged)``."""
    x = _as_sample_matrix(samples, m)
    n, d = x.shape
    reg = config.reg_radius
    means = _kmeanspp_centers(x, m, rng)
    global_cov = reference_clean_cov(np.cov(x, rowvar=False, bias=True).reshape(d, d), reg)
    covs = np.stack([global_cov.copy() for _ in range(m)])
    weights = np.full(m, 1.0 / m)
    converged = False
    for it in range(1, config.em_max_iters + 1):
        log_joint = _reference_gauss_log_densities(x, means, covs) + np.log(weights)
        log_norm = logsumexp(log_joint, axis=1)
        resp = np.exp(log_joint - log_norm[:, None])
        nk = resp.sum(axis=0)
        new_weights = nk / n
        new_means = means.copy()
        new_covs = covs.copy()
        for k in range(m):
            if nk[k] < _EMPTY_RESP:
                new_means[k] = x[rng.integers(n)]
                new_covs[k] = reference_clean_cov(reg * np.eye(d), 0.0)
                new_weights[k] = 1.0 / n
                continue
            new_means[k] = resp[:, k] @ x / nk[k]
            diff = x - new_means[k]
            cov = (resp[:, k][:, None] * diff).T @ diff / nk[k]
            new_covs[k] = reference_clean_cov(cov, reg)
        new_weights = new_weights / new_weights.sum()
        delta = max(
            np.max(np.abs(new_weights - weights)),
            np.max(np.abs(new_means - means)),
            np.max(np.abs(new_covs - covs)),
        )
        weights, means, covs = new_weights, new_means, new_covs
        if delta < config.em_tol:
            converged = True
            break
    return weights, means, covs, it, converged


def reference_em_tmm_fit(samples, m, config, rng):
    """Separate-loop Student's-t-mixture EM with its own density code, the
    oracle for ``em_tmm_fit`` on non-degenerate samples. Returns
    ``(weights, means, scales, dofs, iterations_used, converged)``."""
    x = _as_sample_matrix(samples, m)
    n, d = x.shape
    reg = config.reg_radius
    dof0 = config.fixed_dof if config.fixed_dof is not None else 10.0
    means = _kmeanspp_centers(x, m, rng)
    global_cov = reference_clean_cov(np.cov(x, rowvar=False, bias=True).reshape(d, d), reg)
    scales = np.stack([global_cov.copy() for _ in range(m)])
    dofs = np.full(m, float(dof0))
    weights = np.full(m, 1.0 / m)
    converged = False
    for it in range(1, config.em_max_iters + 1):
        log_comp, mahal = _reference_t_log_densities(x, means, scales, dofs)
        log_joint = log_comp + np.log(weights)
        log_norm = logsumexp(log_joint, axis=1)
        resp = np.exp(log_joint - log_norm[:, None])
        u = (dofs[None, :] + d) / (dofs[None, :] + mahal)
        nk = resp.sum(axis=0)
        new_weights = nk / n
        new_means = means.copy()
        new_scales = scales.copy()
        new_dofs = dofs.copy()
        for k in range(m):
            if nk[k] < _EMPTY_RESP:
                new_means[k] = x[rng.integers(n)]
                new_scales[k] = reference_clean_cov(reg * np.eye(d), 0.0)
                new_weights[k] = 1.0 / n
                continue
            ru = resp[:, k] * u[:, k]
            new_means[k] = ru @ x / ru.sum()
            diff = x - new_means[k]
            scale = (ru[:, None] * diff).T @ diff / nk[k]
            new_scales[k] = reference_clean_cov(scale, reg)
            if config.fixed_dof is None:
                new_dofs[k] = _solve_dof(dofs[k], d, resp[:, k], u[:, k])
        new_weights = new_weights / new_weights.sum()
        delta = max(
            np.max(np.abs(new_weights - weights)),
            np.max(np.abs(new_means - means)),
            np.max(np.abs(new_scales - scales)),
            np.max(np.abs(new_dofs - dofs)),
        )
        weights, means, scales, dofs = new_weights, new_means, new_scales, new_dofs
        if delta < config.em_tol:
            converged = True
            break
    return weights, means, scales, dofs, it, converged


def assert_fit_matches_reference(fit, reference, rel_tol=1e-10):
    """``fit`` (a ``FitResult``) against the output of ``reference_em_*_fit``:
    equal iteration count and convergence flag, and every parameter array
    within ``rel_tol`` of the reference, relative to the array's largest
    magnitude."""
    *params, iterations, converged = reference
    assert fit.iterations_used == iterations
    assert fit.converged == converged
    comps = fit.mixture.components
    fitted = [
        fit.mixture.weights,
        np.stack([c.mean for c in comps]),
        np.stack([c.scale if isinstance(c, StudentT) else c.cov for c in comps]),
    ]
    if len(params) == 4:
        fitted.append(np.array([c.dof for c in comps]))
    for got, want in zip(fitted, params, strict=True):
        assert np.max(np.abs(got - want)) <= rel_tol * np.max(np.abs(want))


@dataclass(frozen=True)
class InverseGammaParams:
    """Shape/rate parameters of an inverse-gamma distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"alpha and beta must be positive, got {self.alpha}, {self.beta}")


def sample_inverse_gamma(params: InverseGammaParams, rng: np.random.Generator) -> float:
    """Draw from the inverse gamma with density proportional to s^(-a-1) exp(-b/s)."""
    g = rng.gamma(shape=params.alpha, scale=1.0 / params.beta)
    return float(1.0 / g)


def reference_regional_ess_step(kind, point, region, mixture, log_pi, rng):
    """Straightforward regional ESS step, the oracle for the optimized
    ``gmrgess_step``/``tmrgess_step``.

    Draws from ``rng`` in the same order as the kernels, evaluates every
    density through the public checked API and tests each proposal in a
    closure. Returns ``(point, region, rejections, angle_final)``. The
    shrinkage cap is read from ``rgess.samplers.MAX_SHRINK_ITERS`` at call
    time.
    """
    x = point
    i = region
    comp = mixture.components[i]
    if kind == "gaussian":
        v = comp.sample(rng)
    else:
        # alpha' = (D + nu)/2, beta' = (nu + d^2)/2 at the current point
        quad = mixture._mahalanobis_sq(x)[i]
        params = InverseGammaParams(0.5 * (comp.dim + comp.dof), 0.5 * (comp.dof + quad))
        s = sample_inverse_gamma(params, rng)
        v = comp.mean + math.sqrt(s) * (comp.chol @ rng.standard_normal(comp.dim))
    log_pi_x = float(log_pi(x))
    if not np.isfinite(log_pi_x):
        raise ValueError("log target at current point is not finite")
    comp_at_x = mixture.component_log_densities(x)
    log_u = math.log(1.0 - rng.random())
    region_of = [i]

    def accepts(x_prop):
        log_pi_prop = float(log_pi(x_prop))
        if log_pi_prop == -np.inf:
            return False
        comp_at_prop = mixture.component_log_densities(x_prop)
        j = int(comp_at_prop.argmax())
        if log_pi_prop - comp_at_prop[i] > log_pi_x - comp_at_x[j] + log_u:
            region_of[0] = j
            return True
        return False

    mu = comp.mean
    theta = rng.uniform(0.0, 2.0 * math.pi)
    theta_min, theta_max = theta - 2.0 * math.pi, theta
    x_c = x - mu
    v_c = v - mu
    rejections = 0
    for _ in range(samplers.MAX_SHRINK_ITERS):
        x_prop = x_c * math.cos(theta) + v_c * math.sin(theta) + mu
        if accepts(x_prop):
            return x_prop, region_of[0], rejections, theta
        rejections += 1
        if theta < 0.0:
            theta_min = theta
        else:
            theta_max = theta
        theta = rng.uniform(theta_min, theta_max)
    return x, i, rejections, 0.0


def reference_regional_mh_step(state, mixture, target, rng):
    """Straightforward regional independence MH step, the oracle for the
    cached ``regional_mh_step``: it re-evaluates the target and the checked
    component densities at the current point on every step."""
    x = state.point
    i = state.region
    log_pi_x = float(target.log_pi(x))
    if not np.isfinite(log_pi_x):
        raise ValueError("log target at current point is not finite")
    x_prop = mixture.components[i].sample(rng)
    log_pi_prop = float(target.log_pi(x_prop))

    accepted = False
    j = i
    if log_pi_prop > -np.inf:
        comp_at_x = mixture.component_log_densities(x)
        comp_at_prop = mixture.component_log_densities(x_prop)
        j = int(np.argmax(comp_at_prop))
        log_alpha = log_pi_prop + comp_at_x[j] - log_pi_x - comp_at_prop[i]
        accepted = math.log(1.0 - rng.random()) < min(0.0, log_alpha)

    if accepted:
        return StepOutcome(next=ChainState(point=x_prop, region=j), rejections=0)
    return StepOutcome(next=state, rejections=1)


def reference_mh_step(state, proposal_cov, target, rng):
    """Straightforward random-walk MH step, the oracle for the cached
    ``mh_step``: it factorizes the proposal covariance and evaluates the
    target at the current point on every step."""
    x = state.point
    log_pi_x = float(target.log_pi(x))
    if not np.isfinite(log_pi_x):
        raise ValueError("log target at current point is not finite")
    chol = np.linalg.cholesky(np.asarray(proposal_cov, dtype=float))
    x_prop = x + chol @ rng.standard_normal(x.shape[0])
    log_pi_prop = float(target.log_pi(x_prop))

    accepted = (
        log_pi_prop > -np.inf
        and math.log(1.0 - rng.random()) < min(0.0, log_pi_prop - log_pi_x)
    )
    if accepted:
        return StepOutcome(next=ChainState(point=x_prop, region=state.region), rejections=0)
    return StepOutcome(next=state, rejections=1)


def trace_csv_bytes(traces, history, out_dir):
    """Write ``trace.csv`` and ``mixtures.csv`` into the new directory
    ``out_dir`` (a ``pathlib.Path``); return their bytes, in that order."""
    out_dir.mkdir()
    write_trace_csv(traces, history, out_dir / "trace.csv",
                    mixtures_path=out_dir / "mixtures.csv")
    return [(out_dir / name).read_bytes() for name in ("trace.csv", "mixtures.csv")]


def reference_chain_major_run(config, target):
    """Chain-major oracle for ``rgess.runner.run``; returns ``(traces,
    mixture_history)``, ``traces`` a ``Traces`` filled one record at a time.

    Seeds, barriers and refits are those of ``run``, but between two barriers
    chain 0 takes all of the segment's iterations, then chain 1, and so on,
    instead of every chain taking one iteration in turn. Chains that share
    nothing between barriers give the same traces in either order. Every
    kernel is stepped one chain at a time with its public per-chain step
    function, also those ``run`` steps as one batch; the rgess kernel steps
    ``gmrgess_step`` or ``tmrgess_step`` by the kind of the mixture, and
    ends each iteration with the segment's jump, from ``jump_block`` on
    ``run``'s jump seed, applied by :func:`jump_chain`.

    A chain that raises stops; the others run on, and ``RunError`` names
    the lowest failing (iteration, chain), as ``run`` does.
    """
    k_chains = config.chains
    children = np.random.SeedSequence(config.master_seed).spawn(k_chains + 2)
    rngs = [np.random.default_rng(child) for child in children[:k_chains]]
    adapt_rng = np.random.default_rng(children[k_chains])
    jump_rng = np.random.default_rng(children[k_chains + 1])
    acfg = config.adaptation
    kernel = config.kernel

    states = [ChainState(point=config.init.sample(rng)) for rng in rngs]
    uses_mixture = kernel is not Kernel.MH
    mixture = None
    history = []
    barriers = []
    if uses_mixture:
        mixture = initial_mixture(acfg, [s.point for s in states], adapt_rng)
        states = [s._replace(region=mixture.assign_region(s.point)) for s in states]
        history.append((0, mixture))
        first_adapt = max(acfg.interval, 2 * acfg.components)
        barriers = [n for n in range(first_adapt, config.iterations + 1)
                    if n % acfg.interval == 0]

    def step(state, rng):
        if kernel is Kernel.MH:
            cov = config.mh_proposal_scale * np.eye(config.init.dim)
            return mh_step(state, cov, target, rng)
        if mixture.kind == "gaussian":
            return gmrgess_step(state, mixture, target, rng)
        return tmrgess_step(state, mixture, target, rng)

    shape = (k_chains, config.iterations)
    traces = Traces(iterations=np.arange(1, config.iterations + 1),
                    points=np.empty(shape + (config.init.dim,)),
                    regions=np.empty(shape, dtype=int), rejections=np.empty(shape, dtype=int))
    starts = [1] + barriers
    ends = barriers + [config.iterations + 1]
    for update_index, (start, end) in enumerate(zip(starts, ends)):
        if update_index > 0:
            points = [np.array(s.point, copy=True) for s in states]
            mixture = refit(acfg, mixture, points, adapt_rng, update_index)
            history.append((start, mixture))
            states = [s._replace(region=mixture.assign_region(s.point)) for s in states]
        block = None
        if uses_mixture:
            block = jump_block(mixture, target, jump_rng, end - start, k_chains)
        failures = []
        for k in range(k_chains):
            state = states[k]
            for n in range(start, end):
                rejections = 0
                try:
                    for _ in range(config.steps_per_iteration):
                        outcome = step(state, rngs[k])
                        state = outcome.next
                        rejections += outcome.rejections
                    if block is not None:
                        state = jump_chain(state, block, n - start, k, k_chains, mixture,
                                           target)
                except Exception as exc:  # noqa: BLE001 - as run, any target error
                    failures.append((n, k, exc))
                    break
                traces.points[k, n - 1] = state.point
                traces.regions[k, n - 1] = state.region
                traces.rejections[k, n - 1] = rejections
            states[k] = state
        if failures:
            n, k, exc = min(failures, key=lambda failure: failure[:2])
            raise RunError(k, n, exc)
    return traces, history
