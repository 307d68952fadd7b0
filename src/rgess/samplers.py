"""One-step MCMC transition kernels.

All kernels are pure functions of ``(state, parameters, rng)``: nothing is
mutated except the caller's rng, so a chain's trajectory depends only on its
own state and generator and on the immutable mixture snapshot it reads.

The elliptical-slice family proposes points on the ellipse through the
current state and an auxiliary draw, shrinking the angle bracket toward zero
after every rejected proposal. The regional kernels recompute the slice
threshold at every proposal because the reverse pseudo-prior index depends on
which region the proposal lands in.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distributions import Gaussian, InverseGammaParams, MixtureModel

__all__ = [
    "MAX_SHRINK_ITERS",
    "TargetDensity",
    "ChainState",
    "StepOutcome",
    "ess_step",
    "gmrgess_step",
    "tmrgess_step",
    "regional_mh_step",
    "mh_step",
    "regional_log_ratio",
    "t_auxiliary_params",
]

# Bracket shrinkage cap: theta -> 0 recovers the current point so the slice is
# never empty, but floating-point underflow of the bracket needs a guard.
MAX_SHRINK_ITERS = 1000


class TargetDensity:
    """An evaluable, possibly unnormalized log target over R^D.

    ``log_pi`` must return finite values on the support; ``-inf`` is allowed
    outside it. For plain elliptical slice sampling the target may instead be
    supplied split into a Gaussian ``prior`` and a ``log_likelihood``.
    """

    __slots__ = ("dim", "log_pi", "log_likelihood", "prior")

    def __init__(self, dim: int, log_pi, log_likelihood=None, prior: Gaussian | None = None):
        self.dim = int(dim)
        self.log_pi = log_pi
        self.log_likelihood = log_likelihood
        self.prior = prior


class ChainState(NamedTuple):
    """Current point of one chain and the region it lies in.

    Immutable; a named tuple because kernels build one per step and a
    frozen dataclass costs about three times as much to construct.

    ``cache`` is written by the regional kernels only: the target and
    component log densities they already computed at ``point``. A kernel
    reuses it only for the same point, mixture and ``log_pi`` objects, so a
    new mixture (a runner barrier) or a replaced point invalidates it.
    """

    point: np.ndarray
    region: int = 0
    cache: tuple | None = None


class StepOutcome(NamedTuple):
    """Result of a single kernel step."""

    next: ChainState
    rejections: int
    angle_final: float = 0.0


def _log_uniform(rng: np.random.Generator) -> float:
    # Uniform(0, 1]: excludes 0 so the log-threshold stays finite.
    return math.log(1.0 - rng.random())


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite ({value}); slice is undefined here")
    return value


def _ellipse_shrink(x, mu, v, accept, rng, trace_brackets=None):
    """Shared angle-bracket shrinkage loop of the ESS family.

    ``accept(x_prop)`` returns None when a proposal misses the slice and any
    other value when it clears it. Returns ``(x_new, theta, rejections,
    accepted)`` with ``accepted`` the value ``accept`` returned; when the
    shrinkage cap is hit the current point is returned with ``accepted`` None.

    Angles are drawn as ``lo + (hi - lo) * rng.random()``, the same double
    ``rng.uniform(lo, hi)`` returns, without its argument handling.

    ``trace_brackets``, if given, collects ``(theta_min, theta_max, theta)``
    per proposal for the shrinkage-monotonicity tests.
    """
    theta = 2.0 * math.pi * rng.random()
    theta_min, theta_max = theta - 2.0 * math.pi, theta
    x_c = x - mu
    v_c = v - mu
    rejections = 0
    for _ in range(MAX_SHRINK_ITERS):
        if trace_brackets is not None:
            trace_brackets.append((theta_min, theta_max, theta))
        x_prop = x_c * math.cos(theta) + v_c * math.sin(theta) + mu
        accepted = accept(x_prop)
        if accepted is not None:
            return x_prop, theta, rejections, accepted
        rejections += 1
        if theta < 0.0:
            theta_min = theta
        else:
            theta_max = theta
        theta = theta_min + (theta_max - theta_min) * rng.random()
    return x, 0.0, rejections, None


def ess_step(state: ChainState, prior: Gaussian, log_likelihood, rng,
             trace_brackets=None) -> StepOutcome:
    """Elliptical slice sampling step for a Gaussian-prior model.

    Draws the auxiliary point from the prior, sets the slice threshold
    log y = log L(x) + log u with u ~ Uniform(0, 1], and rotates/shrinks until
    the proposal clears the threshold.
    """
    x = state.point
    if x.shape != (prior.dim,):
        raise ValueError(f"state/prior dimension mismatch: {x.shape} vs ({prior.dim},)")
    log_l_x = _require_finite(float(log_likelihood(x)), "log-likelihood at current point")

    v = prior.sample(rng)
    log_y = log_l_x + _log_uniform(rng)

    def accept(x_prop):
        return True if float(log_likelihood(x_prop)) > log_y else None

    x_new, theta, rejections, _ = _ellipse_shrink(
        x, prior.mean, v, accept, rng, trace_brackets
    )
    next_state = ChainState(point=x_new, region=state.region)
    return StepOutcome(next=next_state, rejections=rejections, angle_final=theta)


def regional_log_ratio(mixture: MixtureModel, target: TargetDensity,
                       x1, region1: int, x2, region2: int) -> float:
    """log of the regional acceptance ratio for moving x1 (in S_i) to x2 (in S_j).

    Equals log pi(x2) + log f_j(x1) - log pi(x1) - log f_i(x2), which is the
    residual form R_i(x2)/R_j(x1) expanded in the log domain.
    """
    comp_at_x1 = mixture.component_log_densities(x1)
    comp_at_x2 = mixture.component_log_densities(x2)
    return (
        float(target.log_pi(x2))
        + comp_at_x1[region2]
        - float(target.log_pi(x1))
        - comp_at_x2[region1]
    )


def _current_point_values(state: ChainState, mixture: MixtureModel,
                          target: TargetDensity):
    """Validate the current point; return ``(log_pi(x), component log
    densities at x)``, taken from ``state.cache`` when it is still valid."""
    x = state.point
    if x.shape != mixture._shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {mixture._shape}")
    cache = state.cache
    log_pi = target.log_pi
    if (cache is not None and cache[0] is x and cache[1] is mixture
            and cache[2] is log_pi):
        # A cached point is one a regional kernel built from finite values.
        log_pi_x, comp_at_x = cache[3], cache[4]
    else:
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite current point {x}")
        log_pi_x, comp_at_x = float(log_pi(x)), mixture._log_densities(x)
    _require_finite(log_pi_x, "log target at current point")
    return log_pi_x, comp_at_x


def _regional_ellipse_step(state, mixture, target, log_pi_x, comp_at_x, v, rng,
                           trace_brackets):
    """Ellipse/shrinkage core shared by the Gaussian- and t-mixture kernels."""
    x = state.point
    i = state.region
    log_pi = target.log_pi
    log_u = _log_uniform(rng)
    log_weights = mixture._log_weights if mixture.weighted_regions else None
    log_densities = mixture._log_densities

    def accept(x_prop):
        log_pi_prop = float(log_pi(x_prop))
        if log_pi_prop == -math.inf:
            return None
        comp_at_prop = log_densities(x_prop)
        if log_weights is None:
            j = int(comp_at_prop.argmax())
        else:
            j = int((comp_at_prop + log_weights).argmax())
        # Residual-form test: log R_I(x') > log R_J(x) + log u, with the
        # threshold recomputed per proposal because J depends on x'.
        if log_pi_prop - comp_at_prop[i] > log_pi_x - comp_at_x[j] + log_u:
            return j, log_pi_prop, comp_at_prop
        return None

    x_new, theta, rejections, accepted = _ellipse_shrink(
        x, mixture.components[i].mean, v, accept, rng, trace_brackets
    )
    if accepted is None:
        region_new, log_pi_new, comp_new = i, log_pi_x, comp_at_x
    else:
        region_new, log_pi_new, comp_new = accepted
    next_state = ChainState(
        point=x_new, region=region_new,
        cache=(x_new, mixture, log_pi, log_pi_new, comp_new),
    )
    return StepOutcome(next=next_state, rejections=rejections, angle_final=theta)


def gmrgess_step(state: ChainState, mixture: MixtureModel, target: TargetDensity,
                 rng, trace_brackets=None) -> StepOutcome:
    """Regional generalized ESS step with Gaussian-mixture pseudo-priors."""
    if mixture.kind != "gaussian":
        raise ValueError("gmrgess_step requires Gaussian mixture components")
    log_pi_x, comp_at_x = _current_point_values(state, mixture, target)
    v = mixture.components[state.region].sample(rng)
    return _regional_ellipse_step(
        state, mixture, target, log_pi_x, comp_at_x, v, rng, trace_brackets
    )


def _t_auxiliary_shape_rate(component, x) -> tuple[float, float]:
    return (
        0.5 * (component.dim + component.dof),
        0.5 * (component.dof + component.mahalanobis_sq(x)),
    )


def t_auxiliary_params(component, x) -> InverseGammaParams:
    """Inverse-gamma law of the latent scale given the current point:
    alpha' = (D + nu)/2, beta' = (nu + (x-mu)^T Sigma^-1 (x-mu))/2."""
    return InverseGammaParams(*_t_auxiliary_shape_rate(component, x))


def tmrgess_step(state: ChainState, mixture: MixtureModel, target: TargetDensity,
                 rng, trace_brackets=None) -> StepOutcome:
    """Regional generalized ESS step with Student's-t mixture pseudo-priors.

    The auxiliary point is drawn through the scale-mixture representation:
    s from :func:`t_auxiliary_params`, then v ~ N(mu_I, s Sigma_I).
    """
    if mixture.kind != "student_t":
        raise ValueError("tmrgess_step requires Student's-t mixture components")
    log_pi_x, comp_at_x = _current_point_values(state, mixture, target)
    comp = mixture.components[state.region]
    # The same draw as sample_inverse_gamma(t_auxiliary_params(...), rng).
    alpha, beta = _t_auxiliary_shape_rate(comp, state.point)
    if not math.isfinite(beta):
        # A finite but huge point can overflow the Mahalanobis term.
        raise ValueError(f"auxiliary rate is not finite ({beta}) at current point")
    s = 1.0 / rng.gamma(alpha, 1.0 / beta)
    v = comp.mean + math.sqrt(s) * (comp.chol @ rng.standard_normal(comp.dim))
    return _regional_ellipse_step(
        state, mixture, target, log_pi_x, comp_at_x, v, rng, trace_brackets
    )


def regional_mh_step(state: ChainState, mixture: MixtureModel,
                     target: TargetDensity, rng) -> StepOutcome:
    """Independence MH step proposing from the current region's component.

    Accepts with probability min{1, pi(x') f_J(x) / (pi(x) f_I(x'))}; the
    same formula covers within-region moves (I = J), where it is the usual
    importance-weighted independence ratio.
    """
    log_pi_x, comp_at_x = _current_point_values(state, mixture, target)
    x = state.point
    i = state.region
    log_pi = target.log_pi
    x_prop = mixture.components[i].sample(rng)
    log_pi_prop = float(log_pi(x_prop))
    if log_pi_prop > -math.inf:
        comp_at_prop = mixture._log_densities(x_prop)
        if mixture.weighted_regions:
            j = int((comp_at_prop + mixture._log_weights).argmax())
        else:
            j = int(comp_at_prop.argmax())
        log_alpha = log_pi_prop + comp_at_x[j] - log_pi_x - comp_at_prop[i]
        if _log_uniform(rng) < min(0.0, log_alpha):
            next_state = ChainState(
                point=x_prop, region=j,
                cache=(x_prop, mixture, log_pi, log_pi_prop, comp_at_prop),
            )
            return StepOutcome(next=next_state, rejections=0)
    next_state = ChainState(
        point=x, region=i, cache=(x, mixture, log_pi, log_pi_x, comp_at_x)
    )
    return StepOutcome(next=next_state, rejections=1)


def mh_step(state: ChainState, proposal_cov, target: TargetDensity,
            rng) -> StepOutcome:
    """Random-walk MH step with a symmetric Gaussian proposal."""
    x = state.point
    log_pi_x = _require_finite(float(target.log_pi(x)), "log target at current point")
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
