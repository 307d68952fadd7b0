"""One-step MCMC transition kernels.

All kernels are pure functions of ``(state, parameters, rng)``: nothing is
mutated except the caller's rng, so a chain's trajectory depends only on its
own state and generator and on the immutable mixture snapshot it reads.

The elliptical-slice family proposes points on the ellipse through the
current state and an auxiliary draw, shrinking the angle bracket toward zero
after every rejected proposal. The regional kernels' slice threshold depends
on the region the proposal lands in, so a step computes it once for every
region and each proposal reads its region's. A step draws in a fixed order,
held in one place, :func:`_step_draws`: the auxiliary scale (t only), the
noise, log u and the first angle; then one uniform per rejection, so a copy
of the generator taken before a step replays its angle brackets.

The regional kernels keep the current point's squared Mahalanobis distances
to every component (``MixtureModel._mahalanobis_sq``) with it, next to the
component log densities built from them
(``MixtureModel._log_densities_from_quad``): in ``ChainState.cache``, and in
the ``quads`` and ``comps`` arrays of :func:`regional_ess_segment`. Both t
kernels take the rate of the auxiliary inverse-gamma scale, (nu + d^2)/2,
from those distances, the ones the component densities and EM's expected
precisions are built on, so no distance is computed twice.

:func:`regional_ess_segment` steps many chains through a segment of
iterations, the iterations between two refit barriers, in rounds. Each round
evaluates one proposal of every chain still in the segment in one call, and
a chain that ends a step starts its next one in the next round. It draws
from each chain's generator in the per-chain kernels' order, so every
chain's result equals the per-chain kernel's bit for bit. The kernels read
the region's row of the mixture's stacks, and regional_mh_step draws from it
with ``MixtureModel._sample``.

:func:`gmrgess_step` and :func:`tmrgess_step` stay for single chains
(criterion 3, the kernel-1d benchmark), which they step three to five times
faster: on criterion 3's t set-up (20k steps from -2.5, seed 1003) a
segment of one chain took 128-183 us a step against 31-47 us for
:func:`tmrgess_step`, and both ended on the same point (six runs, each
timing both paths in one process and alternating which goes first; 2-CPU
Xeon VM, one BLAS thread). They form each proposal in Python floats, one
coordinate at a time, with the same roundings as numpy.
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
    "regional_ess_segment",
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
    """A ``ValueError`` raised while stepping chain ``chain`` of a batch, in
    the 0-based ``iteration`` of a segment (0 outside one)."""

    def __init__(self, chain: int, cause: Exception, iteration: int = 0):
        super().__init__(str(cause))
        self.chain = chain
        self.cause = cause
        self.iteration = iteration


def _step_draws(rng: np.random.Generator, shape, scale, z: np.ndarray):
    """``(s, log u, theta)``, one chain's draws before its first proposal, in
    order: s = 1 / Gamma(shape, scale) (1.0 when ``shape`` is None), noise
    into ``z``, u ~ Uniform(0, 1] (so log u is finite), the first angle."""
    s = 1.0 if shape is None else 1.0 / rng.gamma(shape, scale)
    rng.standard_normal(out=z)
    log_u = math.log(1.0 - rng.random())
    return s, log_u, 2.0 * math.pi * rng.random()


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite ({value}); slice is undefined here")
    return value


def _ellipse_shrink(x, mu, v, theta, accept, rng):
    """Shared angle-bracket shrinkage loop of the ESS family, from the first
    angle ``theta`` that :func:`_step_draws` drew.

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
    # Every step pays for this check, so it avoids numpy's per-call overhead.
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"non-finite current point {x}")
    log_l_x = _require_finite(float(log_likelihood(x)), "log-likelihood at current point")

    z = np.empty(prior.dim)
    _, log_u, theta = _step_draws(rng, None, None, z)
    v = prior.mean + prior.chol @ z
    log_y = log_l_x + log_u

    def accept(x_prop):
        return True if float(log_likelihood(x_prop)) > log_y else None

    x_new, theta, rejections, _ = _ellipse_shrink(x, prior.mean.tolist(), v.tolist(),
                                                  theta, accept, rng)
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


def _regional_ess_step(state: ChainState, mixture: MixtureModel, target: TargetDensity,
                       rng) -> StepOutcome:
    """Regional generalized ESS step of either mixture kind, on the ellipse
    centred on mu_I through the current point and v = mu_I + sqrt(s) (L_I z),
    formed in Python floats. s = 1 for Gaussian components; for t components
    s ~ IG((D + nu)/2, (nu + d^2)/2), the scale-mixture representation, with
    d^2 the current point's squared distance kept in ``ChainState.cache``."""
    x = state.point
    i = state.region
    log_pi = target.log_pi
    log_pi_x, comp_at_x, quad_at_x = _current_point_values(state, mixture, target)
    if mixture._dofs is None:
        if not math.isfinite(comp_at_x[i]):
            # At a finite but huge point the quadratic form overflows, so this
            # density is -inf and no proposal could clear the slice threshold.
            raise ValueError(_REGION_DENSITY_NOT_FINITE.format(comp_at_x[i]))
        shape = scale = None
    else:
        beta = 0.5 * (mixture._dofs.item(i) + quad_at_x.item(i))
        if not math.isfinite(beta):
            # A finite but huge point can overflow the Mahalanobis term.
            raise ValueError(f"auxiliary rate is not finite ({beta}) at current point")
        shape, scale = mixture._half_dof_plus_dim.item(i), 1.0 / beta
    z = np.empty(mixture._dim)
    s, log_u, theta = _step_draws(rng, shape, scale, z)
    root_s = math.sqrt(s)
    mean = mixture._means[i].tolist()
    v = [m + root_s * w for m, w in zip(mean, (mixture._chols[i] @ z).tolist())]

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

    x_new, theta, rejections, accepted = _ellipse_shrink(x, mean, v, theta, accept, rng)
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
    return _regional_ess_step(state, mixture, target, rng)


def tmrgess_step(state: ChainState, mixture: MixtureModel, target: TargetDensity,
                 rng) -> StepOutcome:
    """Regional generalized ESS step with Student's-t mixture pseudo-priors."""
    if mixture.kind != "student_t":
        raise ValueError("tmrgess_step requires Student's-t mixture components")
    return _regional_ess_step(state, mixture, target, rng)


def log_pi_rows(target: TargetDensity, points: np.ndarray, chains) -> np.ndarray:
    """``log_pi`` at each row of ``points``, through ``target.log_pi_batch``
    when the target has one.

    Row r belongs to chain ``chains[r]``: a ``ValueError`` of ``log_pi`` at
    that row is raised as :class:`ChainFailure` of that chain. When
    ``log_pi_batch`` raises one, the rows are evaluated again one at a time
    with ``log_pi``, which the contract makes equal bit for bit, so the
    failure names the chain of the first row that raises.
    """
    batch = target.log_pi_batch
    if batch is not None:
        try:
            return np.asarray(batch(points), dtype=float)
        except ValueError:
            pass
    log_pi = target.log_pi
    out = np.empty(len(points))
    for r, x in enumerate(points):
        try:
            out[r] = log_pi(x)
        except ValueError as exc:
            raise ChainFailure(int(chains[r]), exc) from exc
    return out


def _entry_failures(points, log_pis, aux, aux_message) -> list:
    """``(row, ValueError)`` for each row that cannot start a regional ESS
    step: a non-finite point or ``log_pi``, or a non-finite auxiliary value
    ``aux``, whose message is ``aux_message(row)``."""
    point_ok = np.isfinite(points).all(axis=1)
    log_pi_ok = np.isfinite(log_pis)
    failures = []
    for r in np.flatnonzero(~(point_ok & log_pi_ok & np.isfinite(aux))).tolist():
        if not point_ok[r]:
            message = f"non-finite current point {points[r]}"
        elif not log_pi_ok[r]:
            message = (f"log target at current point is not finite ({log_pis[r]}); "
                       "slice is undefined here")
        else:
            message = aux_message(r)
        failures.append((r, ValueError(message)))
    return failures


def regional_ess_segment(points, regions, log_pis, comps, quads, mixture: MixtureModel,
                         target: TargetDensity, rngs, iterations: int,
                         steps_per_iteration: int):
    """``iterations`` iterations of ``steps_per_iteration`` :func:`gmrgess_step`
    or :func:`tmrgess_step` steps (by the mixture's kind) for each of K
    chains; returns ``(points, regions, rejections)`` at the end of every
    iteration, of shapes (I, K, D), (I, K) and (I, K), the last summed over
    the iteration's steps.

    The chains' state is five arrays, updated in place: ``points`` (K, D),
    ``regions`` (K,), ``log_pis`` (K,) and ``comps`` (K, M), the target and
    component log densities at ``points`` under ``mixture``, and ``quads``
    (K, M), the squared Mahalanobis distances of ``points`` that ``comps``
    is built from (``MixtureModel._mahalanobis_sq``).

    The driver works in rounds. Each round proposes one point for every
    chain in the middle of a step and evaluates the target and the
    component densities of all of them in one call each. A chain whose
    proposal clears its slice, or whose step hits the shrinkage cap, starts
    its next step in the next round, so chains never wait for each other
    between barriers. Chain k draws only from ``rngs[k]``, through
    :func:`_step_draws` and then one uniform per rejection, and every row of
    a round is computed on its own, so each chain's points, regions and
    rejections equal the per-chain kernel's bit for bit.

    A chain that cannot start a step fails: a non-finite point or current
    ``log_pi``, an infinite auxiliary rate (t mixtures) or a non-finite
    density of the current region's component (Gaussian mixtures). So does a
    chain whose target evaluation raises ``ValueError``. A failed chain
    stops; the others run until none can fail at a lower (iteration, chain),
    and then :class:`ChainFailure` is raised for the lowest, with its
    ``iteration`` the 0-based index of the segment's iteration.
    """
    k_chains, dim = points.shape
    m = comps.shape[1]
    per = steps_per_iteration
    steps = iterations * per
    out_points = np.empty((iterations, k_chains, dim))
    out_regions = np.empty((iterations, k_chains), dtype=regions.dtype)
    out_rejections = np.empty((iterations, k_chains), dtype=int)
    flat_points = out_points.reshape(-1, dim)
    flat_regions, flat_rejections = out_regions.reshape(-1), out_rejections.reshape(-1)

    means, chols = mixture._means, mixture._chols
    student_t = mixture._dofs is not None
    dofs, shapes = mixture._dofs, mixture._half_dof_plus_dim
    mahalanobis_sq = mixture._mahalanobis_sq
    from_quad = mixture._log_densities_from_quad
    region_of = mixture._region_of
    cap = MAX_SHRINK_ITERS
    two_pi = 2.0 * math.pi
    cos, sin = math.cos, math.sin
    uniform = [rng.random for rng in rngs]
    first_rows = np.arange(k_chains)  # row numbers of a round's arrays

    # One row per chain, so that a round moves a chain's values in one
    # gather or scatter. ``current``: the point, log pi, the component log
    # densities and the squared distances at it. ``ellipse``: the step
    # under way, as the centred point, the centred auxiliary point, the
    # centre and the right side of the residual-form test of
    # _regional_ess_step, log pi(x) - log f_J(x) + log u for every region J.
    # A chain's rows change only when its step ends or starts.
    log_pi_col, comp_col, quad_col = dim, dim + 1, dim + 1 + m
    current = np.concatenate((points, log_pis[:, None], comps, quads), axis=1)
    ellipse = np.empty((k_chains, 3 * dim + m))
    theta = [0.0] * k_chains
    theta_min = [0.0] * k_chains
    theta_max = [0.0] * k_chains
    rejections = [0] * k_chains  # in the step under way
    summed = [0] * k_chains  # in the iteration under way
    taken = [0] * k_chains  # steps ended
    lowest = None  # (iteration, chain, cause) of the lowest failure

    def fail(k, cause):
        nonlocal lowest
        key = (taken[k] // per, k)
        if lowest is None or key < lowest[:2]:
            lowest = key + (cause,)

    active = []
    starting = list(range(k_chains))
    while True:
        if lowest is not None:
            active = [k for k in active if (taken[k] // per, k) < lowest[:2]]
            starting = [k for k in starting if (taken[k] // per, k) < lowest[:2]]
        if starting:
            s_idx = np.array(starting)
            now = current.take(s_idx, axis=0)
            r = regions.take(s_idx)
            log_pi_s = now[:, log_pi_col]
            # The rate of the inverse-gamma auxiliary scale, as in
            # _regional_ess_step, or the current region's density: either is
            # non-finite at a non-finite point. A huge point can overflow it.
            with np.errstate(over="ignore", invalid="ignore"):
                rows_s = first_rows[:len(r)]
                if student_t:
                    aux = 0.5 * (dofs.take(r) + now[rows_s, quad_col + r])
                else:
                    aux = now[rows_s, comp_col + r]
                entry_ok = np.isfinite(aux + log_pi_s).all()
            if not entry_ok:
                if student_t:
                    message = "auxiliary rate is not finite ({}) at current point"
                else:
                    message = _REGION_DENSITY_NOT_FINITE
                failed = dict(_entry_failures(now[:, :dim], log_pi_s, aux,
                                              lambda row: message.format(aux[row])))
                for row, exc in failed.items():
                    fail(starting[row], exc)
                keep = [row for row in range(len(starting)) if row not in failed]
                starting = [starting[row] for row in keep]
                s_idx, now, r, log_pi_s, aux = (
                    s_idx[keep], now[keep], r[keep], log_pi_s[keep], aux[keep])
        if starting:
            n_s = len(starting)
            noise = np.empty((n_s, dim))
            scale_draw = [0.0] * n_s
            log_u = [0.0] * n_s
            if student_t:
                shape = shapes.take(r).tolist()
                scale = (1.0 / aux).tolist()
            else:
                shape = scale = [None] * n_s
            for row, k in enumerate(starting):
                scale_draw[row], log_u[row], t = _step_draws(rngs[k], shape[row], scale[row],
                                                             noise[row])
                theta[k] = theta_max[k] = t
                theta_min[k] = t - two_pi
                rejections[k] = 0
            mu = means.take(r, axis=0)
            spread = (chols.take(r, axis=0) @ noise[:, :, None])[:, :, 0]
            if student_t:
                spread *= np.sqrt(scale_draw)[:, None]
            rows = np.empty((n_s, 3 * dim + m))
            np.subtract(now[:, :dim], mu, out=rows[:, :dim])
            np.subtract(mu + spread, mu, out=rows[:, dim:2 * dim])
            rows[:, 2 * dim:3 * dim] = mu
            threshold = rows[:, 3 * dim:]
            np.subtract(log_pi_s[:, None], now[:, comp_col:quad_col], out=threshold)
            threshold += np.array(log_u)[:, None]
            ellipse[s_idx] = rows
            active += starting
            starting = []
        if not active:
            break

        idx = np.array(active)
        angles = [theta[k] for k in active]
        n = len(active)
        cos_t = np.fromiter(map(cos, angles), float, n)[:, None]
        sin_t = np.fromiter(map(sin, angles), float, n)[:, None]
        e = ellipse.take(idx, axis=0)
        x_prop = e[:, :dim] * cos_t + e[:, dim:2 * dim] * sin_t + e[:, 2 * dim:3 * dim]
        while True:
            try:
                log_pi_prop = log_pi_rows(target, x_prop, active)
                break
            except ChainFailure as exc:
                fail(exc.chain, exc.cause)
                keep = [row for row, k in enumerate(active) if k != exc.chain]
                active = [active[row] for row in keep]
                idx, x_prop, e = idx[keep], x_prop[keep], e[keep]
        if not active:
            continue
        quad_prop = mahalanobis_sq(x_prop)
        comp_prop = from_quad(quad_prop)
        j = region_of(comp_prop)
        rows_n = first_rows[:len(active)]
        # A -inf target value fails the test without the per-chain early
        # exit: the left side is -inf, or nan when the density is -inf too.
        with np.errstate(invalid="ignore"):
            ok = (log_pi_prop - comp_prop[rows_n, regions.take(idx)]
                  > e[:, 3 * dim:][rows_n, j])
        done = idx.compress(ok)
        if len(done):
            current[done] = np.concatenate(
                (x_prop, log_pi_prop[:, None], comp_prop, quad_prop), axis=1).compress(ok, axis=0)
            regions[done] = j.compress(ok)
        still = []
        record = []
        for k, accepted in zip(active, ok.tolist()):
            if not accepted:
                rejected = rejections[k] + 1
                rejections[k] = rejected
                t = theta[k]
                if t < 0.0:
                    theta_min[k] = t
                else:
                    theta_max[k] = t
                theta[k] = theta_min[k] + (theta_max[k] - theta_min[k]) * uniform[k]()
                if rejected < cap:
                    still.append(k)
                    continue
            # The step ended: accepted, or the current point at the cap.
            summed[k] += rejections[k]
            ended = taken[k] + 1
            taken[k] = ended
            if ended % per == 0:
                record.append(k)
            if ended < steps:
                starting.append(k)
        active = still
        if record:
            rec = np.array(record)
            # rows of the outputs' (I K) flattening, iteration-major
            at = np.array([(taken[k] // per - 1) * k_chains + k for k in record])
            flat_points[at] = current[rec, :dim]
            flat_regions[at] = regions.take(rec)
            flat_rejections[at] = [summed[k] for k in record]
            for k in record:
                summed[k] = 0

    points[:] = current[:, :dim]
    log_pis[:] = current[:, log_pi_col]
    comps[:] = current[:, comp_col:quad_col]
    quads[:] = current[:, quad_col:]
    if lowest is not None:
        iteration, chain, cause = lowest
        raise ChainFailure(chain, cause, iteration)
    return out_points, out_regions, out_rejections


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
        if math.log(1.0 - rng.random()) < min(0.0, log_alpha):
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
    None. A point is checked for finiteness when it misses the cache, so a
    chain pays for the check once.
    """
    x = state.point
    log_pi = target.log_pi
    cache = state.cache
    if cache is not None and cache[0] is x and cache[2] is log_pi:
        log_pi_x = cache[3]
    else:
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite current point {x}")
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
