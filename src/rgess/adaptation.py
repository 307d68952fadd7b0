"""Mixture refitting from chain snapshots: EM, variational Bayes, and
stochastic-approximation updates for Gaussian mixtures, plus EM for
Student's-t mixtures.

:func:`initial_mixture` builds the first pseudo-prior and :func:`refit` each
later one, for ``rgess.runner.run``: the only code that maps a
:class:`Scheme` to its fit.

EM and VI refit from scratch on every call; the SA update applies a single
learning-rate-scaled correction to an existing mixture, which keeps the
estimate anchored to its history and therefore robust to transient outliers
in the snapshot. Gaussian-mixture EM is Student's-t-mixture EM with every
expected precision u held at 1, so both run one EM body. EM and SA evaluate
component densities with the batched routines the kernels sample with:
SA calls :meth:`MixtureModel._log_densities` and reads the rows of the
mixture's stacks, and EM calls the two steps of that routine,
``_mahalanobis_sq`` and ``_log_densities_from_quad``, so that the expected
precisions reuse the same distances. Every fitted covariance goes
through the same hygiene pass, ``_clean_cov``, over the stack of all M:
symmetrize, add ``reg_radius * I``, factor in one batched Cholesky call, and
only if that fails, pass each matrix through ``ensure_spd``. The fitters pass
its factors to ``distributions._mixture``, which builds the mixture straight
from the parameter stacks, so an EM iteration factors each covariance once,
in one batched call, and runs no component constructor.

EM, VI and SA normalise responsibilities with ``distributions._logsumexp``,
the log-sum-exp that ``MixtureModel._log_mixture`` is built on, and EM's
expected precisions use the distances of ``MixtureModel._mahalanobis_sq``,
which also set the t kernels' auxiliary rate.

``scipy.optimize`` is imported inside ``_solve_dof``, at its first interior
root: only an ``em_tmm`` fit that estimates the dof calls ``brentq``, and a
module-level import would load it into every process that imports rgess.
``digamma`` is imported the same way, inside ``_solve_dof`` and
``vi_gmm_fit``, its only two callers, so ``scipy.special`` loads at the first
dof solve or VI fit and not on the sampling path. Every log-gamma here is
``distributions._gammaln``, which needs no scipy.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .distributions import MixtureModel, _gammaln, _logsumexp, _mixture, ensure_spd, regularize_cov

__all__ = [
    "Scheme",
    "AdaptationConfig",
    "FitResult",
    "em_gmm_fit",
    "vi_gmm_fit",
    "em_tmm_fit",
    "sa_gmm_update",
    "sa_update_directions",
    "initial_mixture",
    "refit",
]

logger = logging.getLogger(__name__)

_EMPTY_RESP = 1e-8
_WEIGHT_FLOOR = 1e-6
_DOF_BOUNDS = (0.1, 200.0)
# dof of the first single-t pseudo-prior when fixed_dof is None; long tails
# help early exploration.
_INITIAL_DOF = 4.0


class Scheme(str, enum.Enum):
    EM_GMM = "em_gmm"
    VI_GMM = "vi_gmm"
    SA_GMM = "sa_gmm"
    EM_TMM = "em_tmm"


def _sa_rate(n: int) -> float:
    """The learning rate of the n-th SA refit, 0.5 / (10 + n); satisfies the
    Robbins-Monro conditions."""
    return 0.5 / (10 + n)


@dataclass(frozen=True)
class AdaptationConfig:
    scheme: Scheme = Scheme.EM_GMM
    components: int = 1
    interval: int = 20
    reg_radius: float = 0.0
    em_max_iters: int = 100
    em_tol: float = 1e-6
    fixed_dof: float | None = None

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError(f"adaptation interval must be >= 1, got {self.interval}")
        if self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components}")
        if not 0 <= self.reg_radius < np.inf:
            raise ValueError(f"reg_radius must be finite and >= 0, got {self.reg_radius}")
        if self.em_max_iters < 1:
            raise ValueError(f"em_max_iters must be >= 1, got {self.em_max_iters}")
        if not self.em_tol >= 0:
            raise ValueError(f"em_tol must be >= 0, got {self.em_tol}")
        if self.fixed_dof is not None and not 0 < self.fixed_dof < np.inf:
            raise ValueError(f"fixed_dof must be finite and positive, got {self.fixed_dof}")
        if self.fixed_dof is not None and self.scheme is not Scheme.EM_TMM:
            raise ValueError(f"fixed_dof applies only to the em_tmm scheme, "
                             f"not {self.scheme.value}")


@dataclass(frozen=True)
class FitResult:
    """A fitted mixture. ``objective_history`` holds the objective at each
    iteration: the log-likelihood for EM, the evidence lower bound for VI."""

    mixture: MixtureModel
    converged: bool
    iterations_used: int
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


def _clean_cov(covs: np.ndarray, reg_radius: float):
    """The hygiene pass over a stack of M covariance matrices, (M, D, D):
    symmetrize, add ``reg_radius * I`` and factor all M in one batched
    Cholesky call. Only when that fails does each matrix go through
    :func:`ensure_spd` on its own, which repairs one that does not factor;
    a second failure propagates as ``LinAlgError``. Returns
    ``(covs, chols)``, the cleaned stack and its Cholesky factors, for
    :func:`_mixture`."""
    covs = regularize_cov(0.5 * (covs + covs.transpose(0, 2, 1)), reg_radius)
    try:
        return covs, np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        pass
    chols = np.empty_like(covs)
    for k, cov in enumerate(covs):
        covs[k] = ensure_spd(cov)
        chols[k] = np.linalg.cholesky(covs[k])
    return covs, chols


def _moment_cov(x: np.ndarray, reg_radius: float):
    """:func:`_clean_cov` of the MLE covariance of (n, D) samples, a stack of
    one. Finite samples can still overflow it (coordinates near 1e154);
    that raises ``ValueError``."""
    n, d = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.cov(x, rowvar=False, bias=True)
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"the covariance of the {n} samples is not finite")
    return _clean_cov(cov.reshape(1, d, d), reg_radius)


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
    the common point with covariance reg_radius * I and uniform weights; t
    components with ``dof`` when it is given."""
    cov, chol = _clean_cov(reg_radius * np.eye(x.shape[1])[None], 0.0)
    dofs = None if dof is None else [dof] * m
    return _mixture(np.full(m, 1.0 / m), [x[0]] * m, np.repeat(cov, m, axis=0),
                    dofs, np.repeat(chol, m, axis=0))


def _is_degenerate(x: np.ndarray) -> bool:
    return bool(np.all(x == x[0]))


# ---------------------------------------------------------------------------
# EM for Gaussian and Student's-t mixtures
# ---------------------------------------------------------------------------


def _solve_dof(nu_old: float, d: int, resp_k: np.ndarray, u_k: np.ndarray) -> float:
    """Root of the degrees-of-freedom estimating equation on the bounded
    interval; the root is unique because the equation is decreasing in nu."""
    from scipy.special import digamma

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
        from scipy.optimize import brentq

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
    Each iteration builds its iterate with :func:`_mixture` from the
    parameter stacks and the Cholesky factors of the previous M-step's
    :func:`_clean_cov`, so every scale matrix is factored once. It computes
    the squared Mahalanobis distances once, and takes the component
    densities from them with the density formula the kernels sample with.
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
            converged=True, iterations_used=0,
        )

    # before k-means++, whose squared distances overflow on the same samples
    global_cov, global_chol = _moment_cov(x, reg)
    means = _kmeanspp_centers(x, m, rng)
    scales = np.repeat(global_cov, m, axis=0)
    chols = np.repeat(global_chol, m, axis=0)
    dofs = None if dof0 is None else np.full(m, float(dof0))
    weights = np.full(m, 1.0 / m)
    solve_dofs = student_t and config.fixed_dof is None

    history = []
    converged = False
    for it in range(1, config.em_max_iters + 1):
        mixture = _mixture(weights, means, scales, dofs, chols=chols)
        quad = mixture._mahalanobis_sq(x)
        log_joint = mixture._log_densities_from_quad(quad) + mixture._log_weights
        log_norm = _logsumexp(log_joint)
        history.append(float(log_norm.sum()))
        resp = np.exp(log_joint - log_norm[:, None])
        # expected precisions u = (nu + D) / (nu + mahalanobis^2); 1 for
        # Gaussian components
        u = 1.0 if dofs is None else (dofs + d) / (dofs + quad)
        ru = resp * u

        nk = resp.sum(axis=0)
        new_weights = nk / n
        new_means = means.copy()
        # A collapsed component keeps a zero matrix here, which the
        # hygiene pass turns into reg * I.
        new_scales = np.zeros_like(scales)
        new_dofs = None if dofs is None else dofs.copy()
        for k in range(m):
            if nk[k] < _EMPTY_RESP:
                logger.warning("EM component %d collapsed; re-seeding", k)
                new_means[k] = x[rng.integers(n)]
                new_weights[k] = 1.0 / n
                continue
            new_means[k] = ru[:, k] @ x / ru[:, k].sum()
            diff = x - new_means[k]
            new_scales[k] = (ru[:, k][:, None] * diff).T @ diff / nk[k]
            if solve_dofs:
                new_dofs[k] = _solve_dof(dofs[k], d, resp[:, k], u[:, k])
        new_scales, new_chols = _clean_cov(new_scales, reg)
        new_weights = new_weights / new_weights.sum()

        changes = [new_weights - weights, new_means - means, new_scales - scales]
        if dofs is not None:
            changes.append(new_dofs - dofs)
        delta = max(np.abs(c).max() for c in changes)
        weights, means, scales, dofs, chols = (
            new_weights, new_means, new_scales, new_dofs, new_chols)
        if delta < config.em_tol:
            converged = True
            break

    return FitResult(
        mixture=_mixture(weights, means, scales, dofs, chols), converged=converged,
        iterations_used=it, objective_history=tuple(history),
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
        - np.sum(_gammaln(0.5 * (nu - np.arange(d))))
    )


def vi_gmm_fit(samples, m: int, config: AdaptationConfig,
               rng: np.random.Generator) -> FitResult:
    """Variational Bayes for a Gaussian mixture with Dirichlet and
    Normal-Wishart priors, coordinate ascent on the evidence lower bound.

    The hyperprior is fixed (Bishop 2006, PRML section 10.2): alpha0 = beta0
    = 1, W0 = I / D, nu0 = D + 2, and m0 the sample mean.

    Returns the posterior-expected mixture: expected weights, posterior mean
    locations and inverse expected precisions as covariances. Components whose
    expected weight is tiny are retained; VI prunes softly by construction.
    """
    from scipy.special import digamma

    x = _as_sample_matrix(samples, m)
    n, d = x.shape
    reg = config.reg_radius
    if _is_degenerate(x):
        return FitResult(
            mixture=_degenerate_surrogate(x, m, reg),
            converged=True, iterations_used=0,
        )

    alpha0 = 1.0
    beta0 = 1.0
    m0 = x.mean(axis=0)
    nu0 = d + 2.0
    w0_inv = np.linalg.inv((1.0 / d) * np.eye(d))
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
        log_resp = log_rho - _logsumexp(log_rho)[:, None]
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
        ln_c_alpha0 = _gammaln(m * alpha0) - m * _gammaln(alpha0)
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
        ln_c_alpha = _gammaln(alpha.sum()) - np.sum(_gammaln(alpha))
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
    exp_covs, chols = _clean_cov(
        np.stack([np.linalg.inv(nu[k] * wk[k]) for k in range(m)]), reg)
    return FitResult(mixture=_mixture(exp_weights, mk, exp_covs, chols=chols),
                     converged=converged, iterations_used=it,
                     objective_history=tuple(history))


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
        log_norm = _logsumexp(log_joint)
        resp = np.exp(log_joint - log_norm[:, None])

    dw_raw = resp.mean(axis=0) / weights
    dw = dw_raw - dw_raw.mean()
    dmeans = np.empty((m, d))
    dcovs = np.empty((m, d, d))
    for j in range(m):
        chol_inv = current._chol_inv[j]
        prec = chol_inv.T @ chol_inv
        diff = x - means[j]
        dmeans[j] = (resp[:, j][:, None] * diff).mean(axis=0) @ prec
        outer = np.einsum("n,ni,nj->ij", resp[:, j], diff, diff) / k_n
        dcovs[j] = outer - resp[:, j].mean() * current._scales[j]
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
    new_covs = current._scales + r_n * dcovs
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
        covs, chols = _clean_cov(new_covs, reg_radius)
        return _mixture(new_weights, new_means, covs, chols=chols)
    except np.linalg.LinAlgError:
        logger.warning("SA update produced an irreparable covariance; skipping step")
        return current


# ---------------------------------------------------------------------------
# the pseudo-prior lifecycle: the one map from a scheme to its fit
# ---------------------------------------------------------------------------


def initial_mixture(config: AdaptationConfig, points, rng: np.random.Generator) -> MixtureModel:
    """The pseudo-prior before the first refit, from the starting ``points``.

    SA starts from an M-component EM fit, because its update cannot change
    the component count. The other schemes start from one moment-fitted
    component: Gaussian, or for ``em_tmm`` Student's t with ``fixed_dof``
    or 4 degrees of freedom."""
    if config.scheme is Scheme.SA_GMM:
        return em_gmm_fit(points, config.components, config, rng).mixture
    x = _as_sample_matrix(points, 1)
    covs, chols = _moment_cov(x, config.reg_radius)
    dofs = None
    if config.scheme is Scheme.EM_TMM:
        dofs = [_INITIAL_DOF if config.fixed_dof is None else config.fixed_dof]
    return _mixture([1.0], [x.mean(axis=0)], covs, dofs, chols)


def refit(config: AdaptationConfig, mixture: MixtureModel, points,
          rng: np.random.Generator, update_index: int) -> MixtureModel:
    """The pseudo-prior after the ``update_index``-th refit (from 1) on
    ``points``: one SA step on ``mixture`` at ``_sa_rate(update_index)``, or
    an EM or VI fit from scratch. EM and VI ignore ``mixture`` and SA needs
    it; ``run()``, the one caller, always passes the current pseudo-prior."""
    if config.scheme is Scheme.SA_GMM:
        return sa_gmm_update(mixture, points, _sa_rate(update_index), config.reg_radius)
    # Built per call, so that a wrapper set on this module sees every refit.
    fit = {Scheme.EM_GMM: em_gmm_fit, Scheme.VI_GMM: vi_gmm_fit, Scheme.EM_TMM: em_tmm_fit}
    return fit[config.scheme](points, config.components, config, rng).mixture
