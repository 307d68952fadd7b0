"""One-step MCMC transition kernels.

All kernels are pure functions of ``(state, parameters, rng)``: nothing is
mutated except the caller's rng, so a chain's trajectory depends only on its
own state and generator and on the immutable mixture snapshot it reads.

The elliptical-slice family proposes points on the ellipse through the
current state and an auxiliary draw, shrinking the angle bracket toward zero
after every rejected proposal. The regional kernels recompute the slice
threshold at every proposal because the reverse pseudo-prior index depends on
which region the proposal lands in.

:func:`regional_ess_batch` takes one regional ESS step for many chains at
once. It draws from each chain's generator in the per-chain kernels' order
and evaluates each proposal round for all still-shrinking chains in one call,
so every chain's result equals the per-chain kernel's bit for bit.

:func:`gmrgess_step` and :func:`tmrgess_step` stay for single chains
(criterion 3, the kernel-1d benchmark), which they step about three times
faster: on criterion 3's set-up one batched chain took 120-145 us a step
against 40-46 us for :func:`tmrgess_step` (2-CPU Xeon, one BLAS thread).
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
    "ChainFailure",
    "ess_step",
    "gmrgess_step",
    "tmrgess_step",
    "regional_ess_batch",
    "log_pi_rows",
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

    ``log_pi_batch``, if given, maps an (n, D) array to the (n,) values of
    ``log_pi`` at its rows, each equal to ``log_pi`` at that row bit for bit.
    Without it, batched stepping calls ``log_pi`` once per row.
    """

    __slots__ = ("dim", "log_pi", "log_likelihood", "prior", "log_pi_batch")

    def __init__(self, dim: int, log_pi, log_likelihood=None, prior: Gaussian | None = None,
                 log_pi_batch=None):
        self.dim = int(dim)
        self.log_pi = log_pi
        self.log_likelihood = log_likelihood
        self.prior = prior
        self.log_pi_batch = log_pi_batch


class ChainState(NamedTuple):
    """Current point of one chain and the region it lies in.

    Immutable; a named tuple because kernels build one per step and a
    frozen dataclass costs about three times as much to construct.

    ``cache`` holds ``(point, mixture, log_pi, log_pi(point), component
    log densities at point)`` as a kernel already computed them; the MH
    kernel writes None for the mixture and the densities. A kernel reuses it
    only for the same point, mixture and ``log_pi`` objects, so a new
    mixture (a runner barrier) or a replaced point invalidates it.
    """

    point: np.ndarray
    region: int = 0
    cache: tuple | None = None


class StepOutcome(NamedTuple):
    """Result of a single kernel step."""

    next: ChainState
    rejections: int
    angle_final: float = 0.0


class ChainFailure(ValueError):
    """A ``ValueError`` raised while stepping chain ``chain`` of a batch."""

    def __init__(self, chain: int, cause: Exception):
        super().__init__(str(cause))
        self.chain = chain
        self.cause = cause


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


_REGION_DENSITY_NOT_FINITE = (
    "log density of the current region's component is not finite ({}) at current point"
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


def _regional_ellipse_step(state, mixture, target, log_pi_x, comp_at_x, v, rng):
    """Ellipse/shrinkage core shared by the Gaussian- and t-mixture kernels."""
    x = state.point
    i = state.region
    log_pi = target.log_pi
    log_u = _log_uniform(rng)
    log_densities = mixture._log_densities
    region_of = mixture._region_of

    def accept(x_prop):
        log_pi_prop = float(log_pi(x_prop))
        if log_pi_prop == -math.inf:
            return None
        comp_at_prop = log_densities(x_prop)
        j = int(region_of(comp_at_prop))
        # Residual-form test: log R_I(x') > log R_J(x) + log u, with the
        # threshold recomputed per proposal because J depends on x'.
        if log_pi_prop - comp_at_prop[i] > log_pi_x - comp_at_x[j] + log_u:
            return j, log_pi_prop, comp_at_prop
        return None

    x_new, theta, rejections, accepted = _ellipse_shrink(
        x, mixture.components[i].mean, v, accept, rng
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
                 rng) -> StepOutcome:
    """Regional generalized ESS step with Gaussian-mixture pseudo-priors."""
    if mixture.kind != "gaussian":
        raise ValueError("gmrgess_step requires Gaussian mixture components")
    log_pi_x, comp_at_x = _current_point_values(state, mixture, target)
    if not math.isfinite(comp_at_x[state.region]):
        # At a finite but huge point the quadratic form overflows, so this
        # density is -inf and no proposal could clear the slice threshold.
        raise ValueError(_REGION_DENSITY_NOT_FINITE.format(comp_at_x[state.region]))
    v = mixture.components[state.region].sample(rng)
    return _regional_ellipse_step(state, mixture, target, log_pi_x, comp_at_x, v, rng)


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
                 rng) -> StepOutcome:
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
    return _regional_ellipse_step(state, mixture, target, log_pi_x, comp_at_x, v, rng)


def log_pi_rows(target: TargetDensity, points: np.ndarray, chains) -> np.ndarray:
    """``log_pi`` at each row of ``points``, through ``target.log_pi_batch``
    when the target has one.

    Row r belongs to chain ``chains[r]``: a ``ValueError`` of ``log_pi`` at
    that row is raised as :class:`ChainFailure` of that chain, and one of
    ``log_pi_batch`` as a failure of ``chains[0]``.
    """
    batch = target.log_pi_batch
    if batch is not None:
        try:
            return np.asarray(batch(points), dtype=float)
        except ValueError as exc:
            raise ChainFailure(int(chains[0]), exc) from exc
    log_pi = target.log_pi
    out = np.empty(len(points))
    for r, x in enumerate(points):
        try:
            out[r] = log_pi(x)
        except ValueError as exc:
            raise ChainFailure(int(chains[r]), exc) from exc
    return out


def _first_entry_failure(points, log_pis, aux_ok, aux_message):
    """:class:`ChainFailure` of the lowest chain that cannot start a
    regional ESS step, or None when every chain can."""
    point_ok = np.isfinite(points).all(axis=1)
    log_pi_ok = np.isfinite(log_pis)
    ok = point_ok & log_pi_ok & aux_ok
    if ok.all():
        return None
    k = int(ok.argmin())
    if not point_ok[k]:
        message = f"non-finite current point {points[k]}"
    elif not log_pi_ok[k]:
        message = (f"log target at current point is not finite ({log_pis[k]}); "
                   "slice is undefined here")
    else:
        message = aux_message(k)
    return ChainFailure(k, ValueError(message))


def regional_ess_batch(points, regions, log_pis, comps, mixture: MixtureModel,
                       target: TargetDensity, rngs) -> list:
    """One :func:`gmrgess_step` or :func:`tmrgess_step` (by the mixture's
    kind) for each of K chains; returns the per-chain rejection counts.

    The chains' state is four arrays, updated in place: ``points`` (K, D),
    ``regions`` (K,), and ``log_pis`` (K,) and ``comps`` (K, M), the target
    and component log densities at ``points`` under ``mixture``. Chain k
    draws from ``rngs[k]`` in the per-chain kernel's order. Every shrinkage
    round proposes for the chains still shrinking only, and evaluates the
    target and the component densities of all its proposals in one call
    each. Each chain's new point, region and rejection count equal the
    per-chain kernel's bit for bit.

    A chain that cannot start a step fails the batch with
    :class:`ChainFailure` naming the lowest such chain: a non-finite point
    or current ``log_pi``, an infinite auxiliary rate (t mixtures), or a
    non-finite density of the current region's component (Gaussian
    mixtures).
    """
    k_chains = len(points)
    means = mixture._means[regions]
    student_t = mixture._dofs is not None
    if student_t:
        # The rate of the inverse-gamma auxiliary scale, as in
        # _t_auxiliary_shape_rate; a huge point can overflow it.
        with np.errstate(over="ignore", invalid="ignore"):
            z = (mixture._chol_inv[regions] @ points[:, :, None])[:, :, 0]
            z += mixture._offsets[regions]
            rate = 0.5 * (mixture._dofs[regions] + (z[:, None, :] @ z[:, :, None])[:, 0, 0])
        failure = _first_entry_failure(
            points, log_pis, np.isfinite(rate),
            lambda k: f"auxiliary rate is not finite ({rate[k]}) at current point")
    else:
        at_region = comps[np.arange(k_chains), regions]
        failure = _first_entry_failure(
            points, log_pis, np.isfinite(at_region),
            lambda k: _REGION_DENSITY_NOT_FINITE.format(at_region[k]))
    if failure is not None:
        raise failure

    # Each chain's draws, in the per-chain kernels' order: the auxiliary
    # point's (scale and) noise, then log u (as _log_uniform), then theta.
    two_pi, log = 2.0 * math.pi, math.log
    noise = np.empty(points.shape)
    scale_draw = [0.0] * k_chains
    log_u = [0.0] * k_chains
    theta = [0.0] * k_chains
    if student_t:
        shape = mixture._half_dof_plus_dim[regions].tolist()
        scale = (1.0 / rate).tolist()
    for k, rng in enumerate(rngs):
        if student_t:
            scale_draw[k] = 1.0 / rng.gamma(shape[k], scale[k])
        rng.standard_normal(out=noise[k])
        log_u[k] = log(1.0 - rng.random())
        theta[k] = two_pi * rng.random()
    spread = (mixture._chols[regions] @ noise[:, :, None])[:, :, 0]
    if student_t:
        spread = np.sqrt(scale_draw)[:, None] * spread
    v = means + spread
    log_u = np.array(log_u)

    # (K, 3, D): the centred point, the centred auxiliary point and the
    # centre of each chain's ellipse.
    ellipse = np.stack([points - means, v - means, means], axis=1)
    # The right side of the residual-form test of _regional_ellipse_step,
    # log pi(x) - log f_J(x) + log u, for every chain and every region J.
    # A chain's row stays valid while it shrinks: its state changes only
    # when it leaves the round loop.
    threshold = (log_pis[:, None] - comps) + log_u[:, None]
    theta_min = [t - two_pi for t in theta]
    theta_max = list(theta)
    rejections = [0] * k_chains
    log_densities = mixture._log_densities
    region_of = mixture._region_of
    cap = MAX_SHRINK_ITERS
    active = list(range(k_chains))
    while active:
        n = len(active)
        idx = np.array(active)
        angles = [theta[k] for k in active]
        cos_t = np.fromiter(map(math.cos, angles), float, n)[:, None]
        sin_t = np.fromiter(map(math.sin, angles), float, n)[:, None]
        e = ellipse[idx]
        x_prop = e[:, 0] * cos_t + e[:, 1] * sin_t + e[:, 2]
        log_pi_prop = log_pi_rows(target, x_prop, active)
        comp_prop = log_densities(x_prop)
        j = region_of(comp_prop)
        # A -inf target value fails the test without the per-chain early
        # exit: the left side is -inf, or nan when the density is -inf too.
        with np.errstate(invalid="ignore"):
            ok = (log_pi_prop - comp_prop[np.arange(n), regions[idx]]
                  > threshold[idx, j])
        done = idx[ok]
        if len(done):
            points[done] = x_prop[ok]
            regions[done] = j[ok]
            log_pis[done] = log_pi_prop[ok]
            comps[done] = comp_prop[ok]
        still = []
        for k, accepted in zip(active, ok.tolist()):
            if accepted:
                continue
            rejections[k] += 1
            t = theta[k]
            if t < 0.0:
                theta_min[k] = t
            else:
                theta_max[k] = t
            theta[k] = theta_min[k] + (theta_max[k] - theta_min[k]) * rngs[k].random()
            if rejections[k] < cap:
                still.append(k)
        active = still
    return rejections


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
        j = int(mixture._region_of(comp_at_prop))
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
    chol = np.linalg.cholesky(np.asarray(proposal_cov, dtype=float))
    return _mh_step(state, chol, target, rng)


def _mh_step(state: ChainState, chol, target: TargetDensity, rng) -> StepOutcome:
    """:func:`mh_step` given the Cholesky factor of the proposal covariance.

    ``log_pi`` at the current point is taken from ``state.cache`` when the
    cache holds this point and this ``log_pi``, and written there for the
    next step; the mixture slot of an MH cache is None.
    """
    x = state.point
    log_pi = target.log_pi
    cache = state.cache
    if cache is not None and cache[0] is x and cache[2] is log_pi:
        log_pi_x = cache[3]
    else:
        log_pi_x = float(log_pi(x))
    _require_finite(log_pi_x, "log target at current point")
    x_prop = x + chol @ rng.standard_normal(x.shape[0])
    log_pi_prop = float(log_pi(x_prop))

    accepted = (
        log_pi_prop > -np.inf
        and math.log(1.0 - rng.random()) < min(0.0, log_pi_prop - log_pi_x)
    )
    if accepted:
        next_state = ChainState(
            point=x_prop, region=state.region,
            cache=(x_prop, None, log_pi, log_pi_prop, None),
        )
        return StepOutcome(next=next_state, rejections=0)
    next_state = state._replace(cache=(x, None, log_pi, log_pi_x, None))
    return StepOutcome(next=next_state, rejections=1)
