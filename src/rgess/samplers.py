"""One-step MCMC transition kernels.

All kernels are pure functions of ``(state, parameters, rng)``: nothing is
mutated except the caller's rng, so a chain's trajectory depends only on its
own state and generator and on the immutable mixture snapshot it reads.

The elliptical-slice family proposes points on the ellipse through the
current state and an auxiliary draw, shrinking the angle bracket toward zero
after every rejected proposal. The regional kernels' slice threshold depends
on the region the proposal lands in, so a step computes it once for every
region and each proposal reads its region's. A step draws in a fixed order:
the auxiliary point, log u, the first angle, then one uniform per rejection,
so a copy of the generator taken before a step replays its angle brackets.

The regional kernels keep the current point's squared Mahalanobis distances
to every component (``MixtureModel._mahalanobis_sq``) with it, next to the
component log densities built from them
(``MixtureModel._log_densities_from_quad``): in ``ChainState.cache``, and in
the ``quads`` and ``comps`` arrays of :func:`regional_ess_batch`. Both t
kernels take the rate of the auxiliary inverse-gamma scale, (nu + d^2)/2,
from those distances, the ones the component densities and EM's expected
precisions are built on, so no distance is computed twice.

:func:`regional_ess_batch` takes one regional ESS step for many chains at
once. It draws from each chain's generator in the per-chain kernels' order
and evaluates each proposal round for all still-shrinking chains in one call,
so every chain's result equals the per-chain kernel's bit for bit. The
kernels read the region's row of the mixture's stacks, and gmrgess_step and
regional_mh_step draw from it with ``MixtureModel._sample``.

:func:`gmrgess_step` and :func:`tmrgess_step` stay for single chains
(criterion 3, the kernel-1d benchmark), which they step about four times
faster: on criterion 3's set-up one batched chain took 119-171 us a step
against 31-45 us for :func:`tmrgess_step` (medians of three alternating
runs, 2-CPU Xeon, one BLAS thread). They form each proposal in Python
floats, one coordinate at a time, with the same roundings as numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distributions import Gaussian, MixtureModel

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
]

# Bracket shrinkage cap: theta -> 0 recovers the current point so the slice is
# never empty, but floating-point underflow of the bracket needs a guard.
MAX_SHRINK_ITERS = 1000


class TargetDensity:
    """An evaluable, possibly unnormalized log target over R^D.

    ``log_pi`` must return finite values on the support; ``-inf`` is allowed
    outside it.

    ``log_pi_batch``, if given, maps an (n, D) array to the (n,) values of
    ``log_pi`` at its rows, each equal to ``log_pi`` at that row bit for bit.
    Without it, batched stepping calls ``log_pi`` once per row.
    """

    __slots__ = ("dim", "log_pi", "log_pi_batch")

    def __init__(self, dim: int, log_pi, log_pi_batch=None):
        self.dim = int(dim)
        self.log_pi = log_pi
        self.log_pi_batch = log_pi_batch


class ChainState(NamedTuple):
    """Current point of one chain and the region it lies in.

    Immutable; a named tuple because kernels build one per step and a
    frozen dataclass costs about three times as much to construct.

    ``cache`` holds six fields as a kernel already computed them:
    ``(point, mixture, log_pi, log_pi(point), component log densities at
    point, squared Mahalanobis distances of point)``, the last two of shape
    (M,), from ``MixtureModel._log_densities_from_quad`` and
    ``MixtureModel._mahalanobis_sq``. The MH kernel writes None for the
    mixture, the densities and the distances. A kernel reuses the cache only
    for the same point, mixture and ``log_pi`` objects, so a new mixture (a
    runner barrier) or a replaced point invalidates it.
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


def _ellipse_shrink(x, mu, v, accept, rng):
    """Shared angle-bracket shrinkage loop of the ESS family.

    ``x`` is the current point, an array; the centre ``mu`` and the
    auxiliary point ``v`` are lists of floats. ``accept(x_prop)`` returns
    None when a proposal misses the slice and any other value when it clears
    it. Returns ``(x_new, theta, rejections, accepted)`` with ``accepted``
    the value ``accept`` returned; when the shrinkage cap is hit the current
    point is returned with ``accepted`` None.

    The centred points and each proposal ``x_c cos(theta) + v_c sin(theta)
    + mu`` are formed one coordinate at a time in Python floats: the same
    multiplies and adds, in the same order, that numpy's elementwise
    operations round. Angles are drawn as ``lo + (hi - lo) * rng.random()``,
    the same double ``rng.uniform(lo, hi)`` returns, without its argument
    handling.
    """
    theta = 2.0 * math.pi * rng.random()
    theta_min, theta_max = theta - 2.0 * math.pi, theta
    centred = [(a - m, b - m, m) for a, m, b in zip(x.tolist(), mu, v)]
    cos, sin, array = math.cos, math.sin, np.array
    rejections = 0
    for _ in range(MAX_SHRINK_ITERS):
        c, s = cos(theta), sin(theta)
        x_prop = array([x_c * c + v_c * s + m for x_c, v_c, m in centred])
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


def ess_step(state: ChainState, prior: Gaussian, log_likelihood, rng) -> StepOutcome:
    """Elliptical slice sampling step for a Gaussian-prior model (Murray,
    Adams & MacKay 2010), for one chain; ``rgess.runner.run`` does not step it.

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

    x_new, theta, rejections, _ = _ellipse_shrink(x, prior.mean.tolist(), v.tolist(),
                                                  accept, rng)
    next_state = ChainState(point=x_new, region=state.region)
    return StepOutcome(next=next_state, rejections=rejections, angle_final=theta)


_REGION_DENSITY_NOT_FINITE = (
    "log density of the current region's component is not finite ({}) at current point"
)


def _current_point_values(state: ChainState, mixture: MixtureModel,
                          target: TargetDensity):
    """Validate the current point; return ``(log_pi(x), component log
    densities at x, squared Mahalanobis distances of x)``, taken from
    ``state.cache`` when it is still valid."""
    x = state.point
    if x.shape != mixture._shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {mixture._shape}")
    cache = state.cache
    log_pi = target.log_pi
    if (cache is not None and cache[0] is x and cache[1] is mixture
            and cache[2] is log_pi):
        # A cached point is one a regional kernel built from finite values.
        log_pi_x, comp_at_x, quad_at_x = cache[3], cache[4], cache[5]
    else:
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite current point {x}")
        log_pi_x, quad_at_x = float(log_pi(x)), mixture._mahalanobis_sq(x)
        comp_at_x = mixture._log_densities_from_quad(quad_at_x)
    _require_finite(log_pi_x, "log target at current point")
    return log_pi_x, comp_at_x, quad_at_x


def _regional_ellipse_step(state, mixture, target, current, mean, v, rng):
    """Ellipse/shrinkage core shared by the Gaussian- and t-mixture kernels,
    on the ellipse through the current point and ``v`` centred on ``mean``
    (lists of floats). ``current`` is what :func:`_current_point_values`
    returned."""
    x = state.point
    i = state.region
    log_pi = target.log_pi
    log_pi_x, comp_at_x, quad_at_x = current
    log_u = _log_uniform(rng)
    mahalanobis_sq = mixture._mahalanobis_sq
    from_quad = mixture._log_densities_from_quad
    region_of = mixture._region_of
    # Residual-form test: log R_I(x') > log R_J(x) + log u. The right side
    # depends on the proposal's region J, so it is kept for every J.
    threshold = [log_pi_x - c + log_u for c in comp_at_x.tolist()]

    def accept(x_prop):
        log_pi_prop = float(log_pi(x_prop))
        if log_pi_prop == -math.inf:
            return None
        quad_prop = mahalanobis_sq(x_prop)
        comp_at_prop = from_quad(quad_prop)
        j = int(region_of(comp_at_prop))
        if log_pi_prop - comp_at_prop[i] > threshold[j]:
            return j, log_pi_prop, comp_at_prop, quad_prop
        return None

    x_new, theta, rejections, accepted = _ellipse_shrink(x, mean, v, accept, rng)
    if accepted is None:
        region_new, log_pi_new, comp_new, quad_new = i, log_pi_x, comp_at_x, quad_at_x
    else:
        region_new, log_pi_new, comp_new, quad_new = accepted
    next_state = ChainState(
        point=x_new, region=region_new,
        cache=(x_new, mixture, log_pi, log_pi_new, comp_new, quad_new),
    )
    return StepOutcome(next=next_state, rejections=rejections, angle_final=theta)


def gmrgess_step(state: ChainState, mixture: MixtureModel, target: TargetDensity,
                 rng) -> StepOutcome:
    """Regional generalized ESS step with Gaussian-mixture pseudo-priors."""
    if mixture.kind != "gaussian":
        raise ValueError("gmrgess_step requires Gaussian mixture components")
    current = _current_point_values(state, mixture, target)
    i = state.region
    comp_at_x = current[1]
    if not math.isfinite(comp_at_x[i]):
        # At a finite but huge point the quadratic form overflows, so this
        # density is -inf and no proposal could clear the slice threshold.
        raise ValueError(_REGION_DENSITY_NOT_FINITE.format(comp_at_x[i]))
    v = mixture._sample(i, rng).tolist()
    return _regional_ellipse_step(state, mixture, target, current,
                                  mixture._means[i].tolist(), v, rng)


def tmrgess_step(state: ChainState, mixture: MixtureModel, target: TargetDensity,
                 rng) -> StepOutcome:
    """Regional generalized ESS step with Student's-t mixture pseudo-priors.

    The auxiliary point is drawn through the scale-mixture representation:
    s ~ IG((D + nu)/2, (nu + d^2)/2), with d^2 the squared Mahalanobis
    distance of the current point to the region's component, kept with the
    point (``ChainState.cache``), then v ~ N(mu_I, s Sigma_I). The draw is
    formed in Python floats, coordinate by coordinate, as mu + sqrt(s) (L z).
    """
    if mixture.kind != "student_t":
        raise ValueError("tmrgess_step requires Student's-t mixture components")
    current = _current_point_values(state, mixture, target)
    i = state.region
    # s ~ IG(alpha, beta), drawn as 1 / Gamma(alpha, scale=1/beta).
    beta = 0.5 * (mixture._dofs.item(i) + current[2].item(i))
    if not math.isfinite(beta):
        # A finite but huge point can overflow the Mahalanobis term.
        raise ValueError(f"auxiliary rate is not finite ({beta}) at current point")
    s = 1.0 / rng.gamma(mixture._half_dof_plus_dim.item(i), 1.0 / beta)
    root_s = math.sqrt(s)
    mean = mixture._means[i].tolist()
    spread = (mixture._chols[i] @ rng.standard_normal(mixture._dim)).tolist()
    v = [m + root_s * w for m, w in zip(mean, spread)]
    return _regional_ellipse_step(state, mixture, target, current, mean, v, rng)


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


def regional_ess_batch(points, regions, log_pis, comps, quads, mixture: MixtureModel,
                       target: TargetDensity, rngs) -> list:
    """One :func:`gmrgess_step` or :func:`tmrgess_step` (by the mixture's
    kind) for each of K chains; returns the per-chain rejection counts.

    The chains' state is five arrays, updated in place: ``points`` (K, D),
    ``regions`` (K,), ``log_pis`` (K,) and ``comps`` (K, M), the target and
    component log densities at ``points`` under ``mixture``, and ``quads``
    (K, M), the squared Mahalanobis distances of ``points`` that ``comps``
    is built from (``MixtureModel._mahalanobis_sq``). Chain k
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
        # The rate of the inverse-gamma auxiliary scale, as in tmrgess_step;
        # a huge point can overflow it.
        with np.errstate(over="ignore", invalid="ignore"):
            rate = 0.5 * (mixture._dofs[regions] + quads[np.arange(k_chains), regions])
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
    mahalanobis_sq = mixture._mahalanobis_sq
    from_quad = mixture._log_densities_from_quad
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
        quad_prop = mahalanobis_sq(x_prop)
        comp_prop = from_quad(quad_prop)
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
            quads[done] = quad_prop[ok]
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
    log_pi_x, comp_at_x, quad_at_x = _current_point_values(state, mixture, target)
    x = state.point
    i = state.region
    log_pi = target.log_pi
    x_prop = mixture._sample(i, rng)
    log_pi_prop = float(log_pi(x_prop))
    if log_pi_prop > -math.inf:
        quad_prop = mixture._mahalanobis_sq(x_prop)
        comp_at_prop = mixture._log_densities_from_quad(quad_prop)
        j = int(mixture._region_of(comp_at_prop))
        log_alpha = log_pi_prop + comp_at_x[j] - log_pi_x - comp_at_prop[i]
        if _log_uniform(rng) < min(0.0, log_alpha):
            next_state = ChainState(
                point=x_prop, region=j,
                cache=(x_prop, mixture, log_pi, log_pi_prop, comp_at_prop, quad_prop),
            )
            return StepOutcome(next=next_state, rejections=0)
    next_state = ChainState(
        point=x, region=i, cache=(x, mixture, log_pi, log_pi_x, comp_at_x, quad_at_x)
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
    next step; the mixture, density and distance slots of an MH cache are
    None.
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
            cache=(x_prop, None, log_pi, log_pi_prop, None, None),
        )
        return StepOutcome(next=next_state, rejections=0)
    next_state = state._replace(cache=(x, None, log_pi, log_pi_x, None, None))
    return StepOutcome(next=next_state, rejections=1)
