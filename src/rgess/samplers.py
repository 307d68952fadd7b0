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
each chain's packed state row inside :func:`regional_ess_segment` (the
point, log pi, w = log pi - log g, the densities and the distances, built by
:func:`_state_rows`). Both t kernels take the rate of the auxiliary
inverse-gamma scale, (nu + d^2)/2, from those distances, the ones the
component densities and EM's expected precisions are built on, so no
distance is computed twice.

:func:`regional_ess_segment` steps many chains through a segment of
iterations, the iterations between two refit barriers, in rounds. Between
barriers a chain's state is its point alone; on entry the segment
evaluates log pi there and derives everything else from its mixture. Each
round evaluates one proposal of every chain still in the segment in one
call, and a chain that ends a step starts its next one in the next round.
It draws from each chain's generator in the per-chain kernels' order, so
every chain's result equals the per-chain kernel's bit for bit. The kernels
read the region's row of the mixture's stacks, and regional_mh_step draws
from it with ``MixtureModel._sample``.

Every iteration of the segment ends with one mixture-independence jump:
x' ~ g, g the whole fitted mixture, accepted when log u < (log pi(x') -
log g(x')) - (log pi(x) - log g(x)). That is Metropolis-Hastings with an
independence proposal, so it leaves pi invariant for a fixed mixture, and
so does its composition with the ESS steps (Tierney 1994). It is not in the
paper's algorithm: it lets chains cross between well-separated modes, which
the regional steps alone do not. The proposals do not depend on the
chains, so the segment draws its whole block on entry with
:func:`jump_block`, from a generator of its own, and evaluates it in one
call each for the target and the densities; :func:`_jump_accepts` is the
one acceptance rule, over the rows' w = log pi - log g.

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
    "JumpBlock",
    "jump_block",
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
    Without it, or when it raises or returns another shape, batched stepping
    calls ``log_pi`` once per row.
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
    """``cause``, an exception raised while stepping chain ``chain`` of a
    batch, in the 0-based ``iteration`` of a segment."""

    def __init__(self, chain: int, cause: Exception, iteration: int):
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


def _log_pi_held(target: TargetDensity, points: np.ndarray):
    """``(values, raised)``: ``log_pi`` at each row of ``points``, through
    ``target.log_pi_batch`` when the target has one, and ``(row,
    exception)`` for each row at which ``log_pi`` raised an exception of any
    type, in row order; those rows' values are nan. When ``log_pi_batch``
    raises, or returns a result whose shape is not (n,), every row is
    evaluated again with ``log_pi``, which the contract makes equal bit for
    bit, so the raising rows are found."""
    batch = target.log_pi_batch
    if batch is not None:
        try:
            values = np.asarray(batch(points), dtype=float)
            if values.shape == (len(points),):
                return values, []
        except Exception:  # noqa: BLE001 - the row loop finds the raising rows
            pass
    log_pi = target.log_pi
    out = np.empty(len(points))
    raised = []
    for r, x in enumerate(points):
        try:
            out[r] = log_pi(x)
        except Exception as exc:  # noqa: BLE001 - a target failure fails its chain
            out[r] = math.nan
            raised.append((r, exc))
    return out, raised


def _log_pi_at_finite(target: TargetDensity, points: np.ndarray):
    """:func:`_log_pi_held` at the rows of ``points`` whose coordinates are
    all finite, with the raising rows numbered in ``points``; the other rows
    are not passed to the target, and their values are -inf."""
    values = np.full(len(points), -math.inf)
    evaluated = np.flatnonzero(np.isfinite(points).all(axis=1))
    values[evaluated], raised = _log_pi_held(target, points[evaluated])
    return values, [(int(evaluated[row]), exc) for row, exc in raised]


def _state_rows(mixture: MixtureModel, points: np.ndarray, log_pis: np.ndarray):
    """``(rows, regions)`` of (n, D) ``points`` with target values
    ``log_pis``: each row (D + 2 + 2 M,) holds the point, log pi, w (log pi
    minus log g, from ``MixtureModel._log_mixture``), the component log
    densities and the squared distances, computed apart from the other rows.
    Overflow and a non-finite w pass silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        quads = mixture._mahalanobis_sq(points)
        comps = mixture._log_densities_from_quad(quads)
        w = log_pis - mixture._log_mixture(comps)
    rows = np.concatenate((points, log_pis[:, None], w[:, None], comps, quads), axis=1)
    return rows, mixture._region_of(comps)


class JumpBlock(NamedTuple):
    """A segment's mixture-independence jump proposals, drawn and evaluated
    by :func:`jump_block`: one per iteration and chain, in iteration-major
    rows, row ``i K + k`` being chain k's jump at the end of the segment's
    iteration i.

    ``rows`` (I K, D + 2 + 2 M) are each proposal's state rows from
    :func:`_state_rows`, with -inf in the w column, column D + 1, wherever
    the jump must be rejected; ``regions`` is each proposal's region.
    ``log_us`` holds the accept draws, log u with u ~ Uniform(0, 1].
    ``failures`` maps ``(i, k)`` to the exception the target raised at that
    proposal; it is chain k's failure at iteration i if the chain gets
    there.
    """

    rows: np.ndarray
    regions: np.ndarray
    log_us: np.ndarray
    failures: dict


def jump_block(mixture: MixtureModel, target: TargetDensity, rng, iterations: int,
               chains: int) -> JumpBlock:
    """Draw and evaluate the independence proposals x' ~ g, g the whole
    ``mixture``, of ``iterations`` iterations of ``chains`` chains, from
    ``rng`` alone. They do not depend on the chains, so a segment's block
    is drawn before it starts.

    The draws, in order: each row's component, one uniform against the
    cumulative weights; the (I K, D) standard normal noise; for t
    components each row's scale s ~ IG(nu/2, nu/2); each row's log u. The
    target is evaluated for the whole block in one call, and
    :func:`_state_rows` builds its rows. A proposal with a non-finite
    coordinate (a t scale can overflow) is not passed to the target, and
    its w is -inf, as it is wherever log pi - log g is not finite: a -inf
    target value, or an exception, which is held in ``failures`` rather
    than raised.
    """
    n = iterations * chains
    cumulative = np.cumsum(mixture.weights)
    cumulative /= cumulative[-1]
    comp = np.searchsorted(cumulative, rng.random(n), side="right")
    noise = rng.standard_normal((n, mixture._dim))
    points = (mixture._chols[comp] @ noise[:, :, None])[:, :, 0]
    if mixture._dofs is not None:
        half_dofs = 0.5 * mixture._dofs[comp]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            points *= np.sqrt(1.0 / rng.gamma(half_dofs, 1.0 / half_dofs))[:, None]
    with np.errstate(invalid="ignore"):
        points += mixture._means[comp]
    log_us = np.log(1.0 - rng.random(n))

    log_pis, raised = _log_pi_at_finite(target, points)
    failures = {divmod(row, chains): exc for row, exc in raised}
    rows, regions = _state_rows(mixture, points, log_pis)
    w = rows[:, mixture._dim + 1]
    w[~np.isfinite(w)] = -math.inf
    return JumpBlock(rows, regions, log_us, failures)


def _jump_accepts(log_us, proposed, current):
    """The jump's acceptance rule over rows: accept x' when log u < w(x') -
    w(x), w = log pi - log g. ``log_us`` and ``proposed`` are rows of a
    :class:`JumpBlock`'s accept draws and w column, ``current`` the w of the
    current points' state rows. A nan difference rejects."""
    with np.errstate(invalid="ignore"):
        return log_us < proposed - current


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


def regional_ess_segment(points, mixture: MixtureModel, target: TargetDensity, rngs,
                         jump_rng, iterations: int, steps_per_iteration: int):
    """``iterations`` iterations for each of K chains, each iteration
    ``steps_per_iteration`` :func:`gmrgess_step` or :func:`tmrgess_step`
    steps (by the mixture's kind) and then one mixture-independence jump;
    returns ``(points, regions, rejections)`` at the end of every iteration,
    after its jump, of shapes (I, K, D), (I, K) and (I, K), the last the ESS
    shrink rejections summed over the iteration's steps. Jumps count in no
    column.

    Between barriers the chains' state is ``points`` (K, D), updated in
    place. On entry the segment derives the rest from the points: log pi at
    each (through ``log_pi_batch`` when the target has one) and, under
    ``mixture``, each chain's state row and region, with :func:`_state_rows`
    as for each round's proposals. It draws its :class:`JumpBlock` from
    ``jump_rng`` with :func:`jump_block`.

    The driver works in rounds. Each round proposes one point for every
    chain in the middle of a step and evaluates the target and the
    component densities of all of them in one call each. A chain whose
    proposal clears its slice, or whose step hits the shrinkage cap, starts
    its next step in the next round, so chains never wait for each other
    between barriers. Chain k draws only from ``rngs[k]``, through
    :func:`_step_draws` and then one uniform per rejection, and every row of
    a round is computed on its own, so each chain's points, regions and
    rejections equal the per-chain kernel's bit for bit.

    Jump (i, k), row i K + k of the block, is applied in the round in which
    chain k ends the last step of iteration i, before the iteration is
    recorded, so it adds no round. :func:`_jump_accepts` decides it from
    the w of the proposal's row and of the chain's; an accepted jump writes
    the proposal's row and region into the chain's state. A chain stepped
    alone by the per-chain kernel, with jump (i, k) of an equally seeded
    block applied by the same rule after iteration i's steps, gives the
    batch's results bit for bit.

    A chain that cannot start a step fails: a non-finite point, a current
    ``log_pi`` that raises or is not finite, an infinite auxiliary rate (t
    mixtures) or a non-finite density of the current region's component
    (Gaussian mixtures). So does a chain whose target evaluation raises any
    exception, and chain k when it ends iteration i's steps and the block's
    ``failures`` holds an exception for (i, k). A failed chain stops; the
    others run until none can fail at a lower (iteration, chain), and then
    :class:`ChainFailure` is raised for the lowest, with its ``iteration``
    the 0-based index of the segment's iteration.
    """
    k_chains, dim = points.shape
    m = mixture._m
    log_pis, raised = _log_pi_at_finite(target, points)
    # A huge point's distances overflow; the entry check fails its chain.
    current, regions = _state_rows(mixture, points, log_pis)
    jump = jump_block(mixture, target, jump_rng, iterations, k_chains)
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
    cap = MAX_SHRINK_ITERS
    two_pi = 2.0 * math.pi
    cos, sin = math.cos, math.sin
    uniform = [rng.random for rng in rngs]
    first_rows = np.arange(k_chains)  # row numbers of a round's arrays

    # One row per chain, so that a round moves a chain's values in one
    # gather or scatter. ``current``: the chain's row from _state_rows, the
    # point, log pi, w, the component log densities and the squared
    # distances at it. ``ellipse``: the step under way, as the centred
    # point, the centred auxiliary point, the centre and the right side of
    # the residual-form test of _regional_ess_step, log pi(x) - log f_J(x) +
    # log u for every region J.
    # A chain's rows change only when its step ends or starts.
    log_pi_col, w_col, comp_col, quad_col = dim, dim + 1, dim + 2, dim + 2 + m
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

    # A chain whose log pi raised fails in iteration 0; like every failed
    # chain, it is not below the lowest failure, so it never starts.
    for k, cause in raised:
        fail(k, cause)

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
        log_pi_prop, raised = _log_pi_held(target, x_prop)
        if raised:
            for row, exc in raised:
                fail(active[row], exc)
            failed = {row for row, _ in raised}
            keep = [row for row in range(n) if row not in failed]
            active = [active[row] for row in keep]
            idx, x_prop, e, log_pi_prop = idx[keep], x_prop[keep], e[keep], log_pi_prop[keep]
            if not active:
                continue
        prop, j = _state_rows(mixture, x_prop, log_pi_prop)
        rows_n = first_rows[:len(active)]
        # A -inf target value fails the test without the per-chain early
        # exit: the left side is -inf, or nan when the density is -inf too.
        with np.errstate(invalid="ignore"):
            ok = (log_pi_prop - prop[rows_n, comp_col + regions.take(idx)]
                  > e[:, 3 * dim:][rows_n, j])
        done = idx.compress(ok)
        if len(done):
            current[done] = prop.compress(ok, axis=0)
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
            if ended % per == 0:
                # The iteration's jump follows, unless the target raised at
                # its proposal: then the chain fails in this iteration.
                cause = jump.failures.get((ended // per - 1, k))
                if cause is not None:
                    fail(k, cause)
                    continue
                record.append(k)
            taken[k] = ended
            if ended < steps:
                starting.append(k)
        active = still
        if record:
            rec = np.array(record)
            # rows of the outputs' and the jump block's (I K) flattening,
            # iteration-major
            at = np.array([(taken[k] // per - 1) * k_chains + k for k in record])
            jumped = _jump_accepts(jump.log_us[at], jump.rows[at, w_col], current[rec, w_col])
            if jumped.any():
                current[rec[jumped]] = jump.rows[at[jumped]]
                regions[rec[jumped]] = jump.regions[at[jumped]]
            flat_points[at] = current[rec, :dim]
            flat_regions[at] = regions.take(rec)
            flat_rejections[at] = [summed[k] for k in record]
            for k in record:
                summed[k] = 0

    points[:] = current[:, :dim]
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
