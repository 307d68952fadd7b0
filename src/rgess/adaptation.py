"""Mixture refitting from chain snapshots: EM, variational Bayes, and
stochastic-approximation updates for Gaussian mixtures, plus EM for
Student's-t mixtures.

EM and VI refit from scratch on every call; the SA update applies a single
learning-rate-scaled correction to an existing mixture, which keeps the
estimate anchored to its history and therefore robust to transient outliers
in the snapshot. Gaussian-mixture EM is Student's-t-mixture EM with every
expected precision u held at 1, so both run one EM body. EM and SA evaluate
component densities with :meth:`MixtureModel._log_densities`, the same
batched routine the kernels sample with. Every fitted covariance goes
through the same hygiene pass:
symmetrize, add ``reg_radius * I``, and repair to the nearest PSD matrix if
the Cholesky factorization fails.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import digamma, gammaln, logsumexp

from .distributions import (Gaussian, MixtureModel, StudentT, _mixture,
                            ensure_spd, regularize_cov)

__all__ = [
    "Scheme",
    "LearningRateSchedule",
    "VIHyperparams",
    "AdaptationConfig",
    "FitResult",
    "em_gmm_fit",
    "vi_gmm_fit",
    "em_tmm_fit",
    "sa_gmm_update",
    "sa_update_directions",
    "moment_fit_gaussian",
    "moment_fit_student_t",
]

logger = logging.getLogger(__name__)

_EMPTY_RESP = 1e-8
_WEIGHT_FLOOR = 1e-6
_DOF_BOUNDS = (0.1, 200.0)


class Scheme(str, enum.Enum):
    EM_GMM = "em_gmm"
    VI_GMM = "vi_gmm"
    SA_GMM = "sa_gmm"
    EM_TMM = "em_tmm"


@dataclass(frozen=True)
class LearningRateSchedule:
    """r_n = c / (n0 + n); satisfies the Robbins-Monro conditions."""

    c: float = 0.5
    n0: int = 10

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"learning rate c must be positive, got {self.c}")
        if self.n0 < 1:
            raise ValueError(f"learning rate n0 must be >= 1, got {self.n0}")

    def rate(self, n: int) -> float:
        return self.c / (self.n0 + n)


@dataclass(frozen=True)
class VIHyperparams:
    """Dirichlet + Normal-Wishart hyperpriors for the variational fit.

    ``m0=None`` defaults to the sample mean, ``w0_scale=None`` to 1/D and
    ``nu0=None`` to D+2 at fit time.
    """

    alpha0: float = 1.0
    beta0: float = 1.0
    m0: tuple | None = None
    w0_scale: float | None = None
    nu0: float | None = None


@dataclass(frozen=True)
class AdaptationConfig:
    scheme: Scheme = Scheme.EM_GMM
    components: int = 1
    interval: int = 20
    reg_radius: float = 0.0
    learning_rate: LearningRateSchedule = field(default_factory=LearningRateSchedule)
    em_max_iters: int = 100
    em_tol: float = 1e-6
    vi_hyperparams: VIHyperparams = field(default_factory=VIHyperparams)
    fixed_dof: float | None = None
    weighted_regions: bool = False

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError(f"adaptation interval must be >= 1, got {self.interval}")
        if self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components}")
        if self.reg_radius < 0:
            raise ValueError(f"reg_radius must be >= 0, got {self.reg_radius}")
        if self.em_max_iters < 1:
            raise ValueError(f"em_max_iters must be >= 1, got {self.em_max_iters}")
        if self.fixed_dof is not None and not self.fixed_dof > 0:
            raise ValueError(f"fixed_dof must be positive, got {self.fixed_dof}")


@dataclass(frozen=True)
class FitResult:
    mixture: MixtureModel
    converged: bool
    iterations_used: int
    log_likelihood: float | None = None
    lower_bound: float | None = None
    objective_history: tuple = ()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _as_sample_matrix(samples, m: int) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"samples must be a sequence of vectors, got shape {x.shape}")
    if x.shape[0] < m:
        raise ValueError(f"need at least {m} samples to fit {m} components, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    return x


def _clean_cov(cov: np.ndarray, reg_radius: float) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    return ensure_spd(regularize_cov(cov, reg_radius))


def _kmeanspp_centers(x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: centers drawn with probability proportional to the
    squared distance from the nearest already-chosen center."""
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    for _ in range(1, m):
        d2 = np.min(
            np.stack([np.sum((x - c) ** 2, axis=1) for c in centers]), axis=0
        )
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
        else:
            centers.append(x[rng.choice(n, p=d2 / total)])
    return np.stack(centers)


def _degenerate_surrogate(x: np.ndarray, m: int, reg_radius: float,
                          dof: float | None = None) -> MixtureModel:
    """Point-mass surrogate for all-identical samples: every component sits at
    the common point with covariance reg_radius * I, uniform weights; t
    components with ``dof`` when it is given."""
    cov = _clean_cov(reg_radius * np.eye(x.shape[1]), 0.0)
    dofs = None if dof is None else [dof] * m
    return _mixture(np.full(m, 1.0 / m), [x[0]] * m, [cov] * m, dofs)


def _is_degenerate(x: np.ndarray) -> bool:
    return bool(np.all(x == x[0]))


# ---------------------------------------------------------------------------
# EM for Gaussian and Student's-t mixtures
# ---------------------------------------------------------------------------


def _solve_dof(nu_old: float, d: int, resp_k: np.ndarray, u_k: np.ndarray) -> float:
    """Root of the degrees-of-freedom estimating equation on the bounded
    interval; the root is unique because the equation is decreasing in nu."""
    nk = resp_k.sum()
    const = (
        1.0
        + (resp_k @ (np.log(u_k) - u_k)) / nk
        + digamma(0.5 * (nu_old + d))
        - np.log(0.5 * (nu_old + d))
    )

    def eq(nu):
        return -digamma(0.5 * nu) + np.log(0.5 * nu) + const

    lo, hi = _DOF_BOUNDS
    try:
        if eq(hi) >= 0.0:
            return hi
        if eq(lo) <= 0.0:
            return lo
        return float(brentq(eq, lo, hi, xtol=1e-8))
    except (ValueError, RuntimeError):
        logger.warning("dof root-finding failed; retaining nu=%g", nu_old)
        return nu_old


def _em_fit(samples, m: int, config: AdaptationConfig,
            rng: np.random.Generator, student_t: bool) -> FitResult:
    """The EM body of :func:`em_gmm_fit` and :func:`em_tmm_fit`.

    EM for Student's-t mixtures (Peel & McLachlan 2000) with
    ``student_t=True``; with ``student_t=False`` the same iteration with
    every expected precision u held at 1, which is Gaussian-mixture EM.
    Each iteration evaluates the iterate's components through
    :meth:`MixtureModel._log_densities`, the routine the kernels sample with.
    """
    x = _as_sample_matrix(samples, m)
    n, d = x.shape
    reg = config.reg_radius
    dof0 = None
    if student_t:
        dof0 = config.fixed_dof if config.fixed_dof is not None else 10.0
    if _is_degenerate(x):
        return FitResult(
            mixture=_degenerate_surrogate(x, m, reg, dof0),
            converged=True, iterations_used=0, log_likelihood=None,
        )

    means = _kmeanspp_centers(x, m, rng)
    global_cov = _clean_cov(np.cov(x, rowvar=False, bias=True).reshape(d, d), reg)
    scales = np.repeat(global_cov[None], m, axis=0)
    dofs = None if dof0 is None else np.full(m, float(dof0))
    weights = np.full(m, 1.0 / m)
    solve_dofs = student_t and config.fixed_dof is None

    history = []
    converged = False
    for it in range(1, config.em_max_iters + 1):
        mixture = _mixture(weights, means, scales, dofs)
        log_joint = mixture._log_densities(x) + mixture._log_weights
        log_norm = logsumexp(log_joint, axis=1)
        history.append(float(log_norm.sum()))
        resp = np.exp(log_joint - log_norm[:, None])
        # expected precisions u = (nu + D) / (nu + mahalanobis^2); 1 for
        # Gaussian components
        u = 1.0 if dofs is None else (dofs + d) / (dofs + mixture._mahalanobis_sq(x))
        ru = resp * u

        nk = resp.sum(axis=0)
        new_weights = nk / n
        new_means = means.copy()
        new_scales = scales.copy()
        new_dofs = None if dofs is None else dofs.copy()
        for k in range(m):
            if nk[k] < _EMPTY_RESP:
                logger.warning("EM component %d collapsed; re-seeding", k)
                new_means[k] = x[rng.integers(n)]
                new_scales[k] = _clean_cov(reg * np.eye(d), 0.0)
                new_weights[k] = 1.0 / n
                continue
            new_means[k] = ru[:, k] @ x / ru[:, k].sum()
            diff = x - new_means[k]
            new_scales[k] = _clean_cov((ru[:, k][:, None] * diff).T @ diff / nk[k], reg)
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

    mixture = _mixture(weights, means, scales, dofs, config.weighted_regions)
    final_ll = float(
        logsumexp(mixture._log_densities(x) + mixture._log_weights, axis=1).sum()
    )
    return FitResult(
        mixture=mixture, converged=converged, iterations_used=it,
        log_likelihood=final_ll, objective_history=tuple(history),
    )


def em_gmm_fit(samples, m: int, config: AdaptationConfig,
               rng: np.random.Generator) -> FitResult:
    """Maximum-likelihood Gaussian mixture fit by expectation maximization.

    Initialization is k-means++ seeding from ``rng``; iteration stops when the
    largest absolute parameter change drops below ``config.em_tol`` or after
    ``config.em_max_iters`` rounds. Components whose responsibility mass
    collapses are re-seeded at a random sample.
    """
    return _em_fit(samples, m, config, rng, student_t=False)


def em_tmm_fit(samples, m: int, config: AdaptationConfig,
               rng: np.random.Generator) -> FitResult:
    """EM for Student's-t mixtures with latent inverse-gamma scales.

    The E-step computes responsibilities and the expected precisions
    u = (nu + D) / (nu + mahalanobis^2); the M-step uses u-weighted means and
    scale matrices. Degrees of freedom are held at ``config.fixed_dof`` when
    given, otherwise updated by root-finding on [0.1, 200].
    """
    return _em_fit(samples, m, config, rng, student_t=True)


# ---------------------------------------------------------------------------
# Variational Bayes for Gaussian mixtures
# ---------------------------------------------------------------------------


def _log_wishart_b(w_inv_chol_logdet: float, nu: float, d: int) -> float:
    # log B(W, nu) given log|W| = -w_inv_chol_logdet
    log_det_w = -w_inv_chol_logdet
    return (
        -0.5 * nu * log_det_w
        - 0.5 * nu * d * np.log(2.0)
        - 0.25 * d * (d - 1) * np.log(np.pi)
        - np.sum(gammaln(0.5 * (nu - np.arange(d))))
    )


def vi_gmm_fit(samples, m: int, config: AdaptationConfig,
               rng: np.random.Generator) -> FitResult:
    """Variational Bayes for a Gaussian mixture with Dirichlet and
    Normal-Wishart priors, coordinate ascent on the evidence lower bound.

    Returns the posterior-expected mixture: expected weights, posterior mean
    locations and inverse expected precisions as covariances. Components whose
    expected weight is tiny are retained; VI prunes softly by construction.
    """
    x = _as_sample_matrix(samples, m)
    n, d = x.shape
    reg = config.reg_radius
    hp = config.vi_hyperparams
    if _is_degenerate(x):
        return FitResult(
            mixture=_degenerate_surrogate(x, m, reg),
            converged=True, iterations_used=0, lower_bound=None,
        )

    alpha0 = float(hp.alpha0)
    beta0 = float(hp.beta0)
    m0 = np.asarray(hp.m0, dtype=float) if hp.m0 is not None else x.mean(axis=0)
    w0_scale = float(hp.w0_scale) if hp.w0_scale is not None else 1.0 / d
    nu0 = float(hp.nu0) if hp.nu0 is not None else d + 2.0
    w0 = w0_scale * np.eye(d)
    w0_inv = np.linalg.inv(w0)
    log_b0 = _log_wishart_b(float(np.linalg.slogdet(w0_inv)[1]), nu0, d)

    # hard-assignment responsibilities from k-means++ seeds
    centers = _kmeanspp_centers(x, m, rng)
    d2 = np.stack([np.sum((x - c) ** 2, axis=1) for c in centers], axis=1)
    resp = np.zeros((n, m))
    resp[np.arange(n), np.argmin(d2, axis=1)] = 1.0

    history = []
    converged = False
    it = 0
    ln2pi = np.log(2.0 * np.pi)
    for it in range(1, config.em_max_iters + 1):
        # ----- update q(pi), q(mu, Lambda) from responsibilities -----
        nk = resp.sum(axis=0) + 1e-12
        xbar = (resp.T @ x) / nk[:, None]
        alpha = alpha0 + resp.sum(axis=0)
        beta = beta0 + resp.sum(axis=0)
        nu = nu0 + resp.sum(axis=0)
        mk = (beta0 * m0 + nk[:, None] * xbar) / beta[:, None]
        w_inv = np.empty((m, d, d))
        sk = np.empty((m, d, d))
        for k in range(m):
            diff = x - xbar[k]
            sk[k] = (resp[:, k][:, None] * diff).T @ diff / nk[k]
            dm = (xbar[k] - m0)[:, None]
            w_inv[k] = w0_inv + nk[k] * sk[k] + (beta0 * nk[k] / (beta0 + nk[k])) * (dm @ dm.T)
        wk = np.stack([np.linalg.inv(w_inv[k]) for k in range(m)])

        ln_pi_tilde = digamma(alpha) - digamma(alpha.sum())
        ln_lambda_tilde = np.array([
            np.sum(digamma(0.5 * (nu[k] - np.arange(d)))) + d * np.log(2.0)
            + np.linalg.slogdet(wk[k])[1]
            for k in range(m)
        ])

        # ----- update q(Z) -----
        quad = np.empty((n, m))
        for k in range(m):
            diff = x - mk[k]
            quad[:, k] = d / beta[k] + nu[k] * np.einsum("ni,ij,nj->n", diff, wk[k], diff)
        log_rho = ln_pi_tilde + 0.5 * ln_lambda_tilde - 0.5 * d * ln2pi - 0.5 * quad
        log_resp = log_rho - logsumexp(log_rho, axis=1)[:, None]
        resp = np.exp(log_resp)

        # ----- evidence lower bound -----
        e_p_x = 0.5 * np.sum(nk * (
            ln_lambda_tilde - d / beta
            - nu * np.array([np.trace(sk[k] @ wk[k]) for k in range(m)])
            - nu * np.array([
                (xbar[k] - mk[k]) @ wk[k] @ (xbar[k] - mk[k]) for k in range(m)
            ])
            - d * ln2pi
        ))
        e_p_z = float(np.sum(resp * ln_pi_tilde))
        ln_c_alpha0 = gammaln(m * alpha0) - m * gammaln(alpha0)
        e_p_pi = ln_c_alpha0 + (alpha0 - 1.0) * np.sum(ln_pi_tilde)
        e_p_mu_lambda = float(
            0.5 * np.sum(
                d * np.log(beta0 / (2.0 * np.pi)) + ln_lambda_tilde - d * beta0 / beta
                - beta0 * nu * np.array([
                    (mk[k] - m0) @ wk[k] @ (mk[k] - m0) for k in range(m)
                ])
            )
            + m * log_b0
            + 0.5 * (nu0 - d - 1.0) * np.sum(ln_lambda_tilde)
            - 0.5 * np.sum(nu * np.array([np.trace(w0_inv @ wk[k]) for k in range(m)]))
        )
        e_q_z = float(np.sum(resp * np.where(resp > 0, np.log(np.where(resp > 0, resp, 1.0)), 0.0)))
        ln_c_alpha = gammaln(alpha.sum()) - np.sum(gammaln(alpha))
        e_q_pi = float(np.sum((alpha - 1.0) * ln_pi_tilde) + ln_c_alpha)
        wishart_entropy = np.array([
            -_log_wishart_b(np.linalg.slogdet(w_inv[k])[1], nu[k], d)
            - 0.5 * (nu[k] - d - 1.0) * ln_lambda_tilde[k] + 0.5 * nu[k] * d
            for k in range(m)
        ])
        e_q_mu_lambda = float(np.sum(
            0.5 * ln_lambda_tilde + 0.5 * d * np.log(beta / (2.0 * np.pi))
            - 0.5 * d - wishart_entropy
        ))
        elbo = e_p_x + e_p_z + e_p_pi + e_p_mu_lambda - e_q_z - e_q_pi - e_q_mu_lambda
        if history and abs(elbo - history[-1]) < config.em_tol:
            history.append(float(elbo))
            converged = True
            break
        history.append(float(elbo))

    exp_weights = alpha / alpha.sum()
    exp_covs = [np.linalg.inv(nu[k] * wk[k]) for k in range(m)]
    mixture = _mixture(
        exp_weights, mk, [_clean_cov(exp_covs[k], reg) for k in range(m)],
        weighted_regions=config.weighted_regions,
    )
    return FitResult(
        mixture=mixture, converged=converged, iterations_used=it,
        lower_bound=float(history[-1]), objective_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Stochastic approximation for Gaussian mixtures
# ---------------------------------------------------------------------------


def sa_update_directions(current: MixtureModel, samples):
    """Raw update directions of the stochastic-approximation step.

    Returns ``(dw_raw, dw, dmeans, dcovs)``: the per-weight ascent direction
    on the Monte Carlo mixture log score, its simplex-projected version
    (centered so the weight updates sum to zero), and the mean/covariance
    directions. Responsibilities are computed in the log domain.
    """
    if current.kind != "gaussian":
        raise ValueError("SA updates are defined for Gaussian mixtures")
    x = _as_sample_matrix(samples, 1)
    k_n, d = x.shape
    m = current.n_components
    weights = current.weights
    means = current._means
    # A huge sample overflows every component's quadratic form, so its log
    # densities are -inf and -inf minus -inf yields NaN responsibilities;
    # the caller detects the non-finite direction and skips the step.
    with np.errstate(over="ignore", invalid="ignore"):
        log_joint = current._log_weights + current._log_densities(x)
        log_norm = logsumexp(log_joint, axis=1)
        resp = np.exp(log_joint - log_norm[:, None])

    dw_raw = resp.mean(axis=0) / weights
    dw = dw_raw - dw_raw.mean()
    dmeans = np.empty((m, d))
    dcovs = np.empty((m, d, d))
    for j in range(m):
        comp = current.components[j]
        prec = comp._chol_inv.T @ comp._chol_inv
        diff = x - means[j]
        dmeans[j] = (resp[:, j][:, None] * diff).mean(axis=0) @ prec
        outer = np.einsum("n,ni,nj->ij", resp[:, j], diff, diff) / k_n
        dcovs[j] = outer - resp[:, j].mean() * comp.cov
    return dw_raw, dw, dmeans, dcovs


def sa_gmm_update(current: MixtureModel, samples, r_n: float,
                  reg_radius: float = 0.0) -> MixtureModel:
    """One stochastic-approximation step on a Gaussian mixture.

    Applies the learning-rate-scaled update directions to weights, means and
    covariances; weights are clipped to [1e-6, 1] and renormalized, and the
    covariances are symmetrized and hygiene-passed. A non-finite update is
    skipped and the current mixture returned unchanged.
    """
    if not r_n > 0:
        raise ValueError(f"learning rate must be positive, got {r_n}")
    _, dw, dmeans, dcovs = sa_update_directions(current, samples)
    new_weights = current.weights + r_n * dw
    new_means = current._means + r_n * dmeans
    new_covs = np.stack([c.cov for c in current.components]) + r_n * dcovs
    if not (
        np.all(np.isfinite(new_weights))
        and np.all(np.isfinite(new_means))
        and np.all(np.isfinite(new_covs))
    ):
        logger.warning("SA update produced non-finite values; skipping step")
        return current

    new_weights = np.clip(new_weights, _WEIGHT_FLOOR, 1.0)
    new_weights = new_weights / new_weights.sum()
    try:
        return _mixture(
            new_weights, new_means, [_clean_cov(c, reg_radius) for c in new_covs],
            weighted_regions=current.weighted_regions,
        )
    except np.linalg.LinAlgError:
        logger.warning("SA update produced an irreparable covariance; skipping step")
        return current


# ---------------------------------------------------------------------------
# single-pass moment fits (initial mixtures for the runner)
# ---------------------------------------------------------------------------


def moment_fit_gaussian(samples, reg_radius: float) -> Gaussian:
    """Sample mean and MLE covariance, hygiene-passed."""
    x = _as_sample_matrix(samples, 1)
    mean = x.mean(axis=0)
    if x.shape[0] == 1:
        cov = np.zeros((x.shape[1], x.shape[1]))
    else:
        cov = np.cov(x, rowvar=False, bias=True).reshape(x.shape[1], x.shape[1])
    return Gaussian(mean, _clean_cov(cov, reg_radius))


def moment_fit_student_t(samples, reg_radius: float, dof: float) -> StudentT:
    """Moment-based single-component t fit with the given degrees of freedom."""
    g = moment_fit_gaussian(samples, reg_radius)
    return StudentT(g.mean, g.cov, dof)
