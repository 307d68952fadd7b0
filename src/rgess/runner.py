"""Multi-chain orchestration: K chains stepped through barrier segments,
with periodic mixture adaptation at the barriers.

A segment is every iteration between two barriers. Chains share nothing
but the immutable mixture snapshot within a segment; each holds its own
state and random generator. So the order the chains are stepped in within
a segment never changes results: chain 0 through the whole segment, then
chain 1, gives the same traces as any interleaving. A refit reads the
chains' current points in chain order. Every iteration is recorded.

``run`` is one loop over segments: refit at the barrier, then one segment
of the run's kernel, which returns every iteration's points, regions and
rejection sums as (I, K, ...) arrays. ``run`` copies them into the arrays
of one :class:`rgess.diagnostics.Traces`, allocated for the whole run, so a
run holds no object per recorded iteration.

Between barriers a chain's state is its point alone: ``run`` holds one
(K, D) array of the points, which each segment updates in place and each
refit reads a copy of. ``run`` steps two kinds of chain. The regional ESS
kernel (``rgess``) advances all chains as one batch:
:func:`rgess.samplers.regional_ess_segment` evaluates log pi at the points
and derives everything else from the segment's mixture. It evaluates one
proposal of every chain still in the segment per round, a chain starting
its next step in the round after its last one ended. Each chain still draws
from its own generator through the per-chain kernels' draw routine,
:func:`rgess.samplers._step_draws`, so the traces equal those of the
per-chain kernels bit for bit. Every iteration of an rgess chain ends with
one independence jump from the segment's mixture, which is not in the
paper's algorithm (see :mod:`rgess.samplers`): each segment draws its
(I, K) block of proposals and accept draws from the run's jump generator
and applies jump (i, k) when chain k ends iteration i's steps, so a chain
stepped alone with the per-chain kernels and then the same jumps gives the
same trace. The mh kernel's :func:`_mh_segment` steps one chain at a time,
chain-major, with no mixture and every chain in region 0.
:func:`rgess.samplers.regional_mh_step` is a per-chain reference kernel
that ``run`` does not step.

A chain that fails stops; the others run until none can fail at a lower
(iteration, chain), and :class:`RunError` names the lowest: the same
failure whatever order the chains ran in. A chain fails when its kernel
raises ``ValueError`` or its target raises any exception.

The batch's pseudo-prior comes from ``rgess.adaptation.initial_mixture``
and, at each barrier, ``rgess.adaptation.refit``; its kind, t for ``em_tmm``
and Gaussian for the other schemes, picks the per-chain kernel it equals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .adaptation import AdaptationConfig, initial_mixture, refit
from .diagnostics import Traces
from .distributions import Gaussian
from .samplers import (  # noqa: F401 (gmrgess_step and tmrgess_step: see below)
    ChainFailure,
    ChainState,
    TargetDensity,
    _mh_step,
    gmrgess_step,
    regional_ess_segment,
    tmrgess_step,
)

__all__ = ["Kernel", "RunConfig", "RunResult", "RunError", "run"]


class Kernel(str, enum.Enum):
    RGESS = "rgess"
    MH = "mh"


# The per-chain gmrgess_step and tmrgess_step stay importable from this
# module, where the benchmark's tracer wraps them.


class RunError(RuntimeError):
    """A chain failed mid-run; carries the chain and iteration context."""

    def __init__(self, chain: int, iteration: int, cause: Exception):
        super().__init__(f"chain {chain} failed at iteration {iteration}: {cause}")
        self.chain = chain
        self.iteration = iteration
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    chains: int
    iterations: int
    burn_in: int
    kernel: Kernel
    init: Gaussian
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    master_seed: int = 0
    # ESS steps per iteration; each rgess iteration ends with one jump
    steps_per_iteration: int = 1
    # the mh kernel's proposal covariance is mh_proposal_scale * I
    mh_proposal_scale: float | None = None

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(f"burn_in must lie in [0, {self.iterations}) for "
                             f"{self.iterations} iterations, got {self.burn_in}")
        if self.steps_per_iteration < 1:
            raise ValueError(
                f"steps_per_iteration must be >= 1, got {self.steps_per_iteration}"
            )
        self._validate_kernel_scheme()

    def _validate_kernel_scheme(self):
        kernel = self.kernel
        if kernel is not Kernel.MH and self.chains < self.adaptation.components:
            raise ValueError(
                f"{self.chains} chains cannot support a "
                f"{self.adaptation.components}-component snapshot fit"
            )
        scale = self.mh_proposal_scale
        if kernel is not Kernel.MH and scale is not None:
            raise ValueError(f"kernel {kernel.value} ignores mh_proposal_scale; "
                             "only the mh kernel reads it")
        if kernel is Kernel.MH:
            if scale is None:
                raise ValueError("the mh kernel requires mh_proposal_scale")
            if not 0 < scale < np.inf:
                raise ValueError(f"mh_proposal_scale must be finite and > 0, got {scale}")


@dataclass(frozen=True)
class RunResult:
    """``traces`` holds every chain's point, region and rejection count at
    iterations 1..N; ``mixture_history`` the ``(iteration, mixture)`` of the
    initial fit and of every refit."""

    traces: Traces
    mixture_history: list


def _mh_segment(points, chol, target: TargetDensity, rngs, iterations: int,
                steps_per_iteration: int):
    """``iterations`` iterations of every chain of the mh kernel, chain-major,
    each from its row of ``points`` (K, D), to which it writes its last
    point; returns the ``(points, regions, rejections)`` of
    :func:`rgess.samplers.regional_ess_segment`, every chain in region 0.

    A chain that fails stops, and the later chains run only the iterations
    before it, so the :class:`ChainFailure` raised is the lowest (iteration,
    chain)."""
    k_chains, dim = points.shape
    out = np.empty((iterations, k_chains, dim))
    rejections = np.zeros((iterations, k_chains), dtype=int)
    failure = None
    for k, rng in enumerate(rngs):
        state = ChainState(point=points[k])
        for i in range(iterations if failure is None else failure.iteration):
            rejected = 0
            try:
                for _ in range(steps_per_iteration):
                    outcome = _mh_step(state, chol, target, rng)
                    state = outcome.next
                    rejected += outcome.rejections
            except Exception as exc:  # noqa: BLE001 - the target may raise anything
                failure = ChainFailure(k, exc, i)
                break
            out[i, k] = state.point
            rejections[i, k] = rejected
        points[k] = state.point
    if failure is not None:
        raise failure
    return out, np.zeros((iterations, k_chains), dtype=int), rejections


def _check_target(config: RunConfig, target: TargetDensity) -> None:
    """Raise ``ValueError`` unless the init distribution, the config's
    ``init.mean``, has the target's dimension."""
    if target.dim != config.init.dim:
        raise ValueError(
            f"init.mean has dimension {config.init.dim}, the target needs {target.dim}"
        )


def run(config: RunConfig, target: TargetDensity) -> RunResult:
    """Execute the configured multi-chain run against ``target``.

    Chain k draws from the k-th of K + 2 seeds spawned from the master seed,
    adaptation from the (K + 1)-th and the rgess kernel's jumps from the
    last, so the chains' and the refits' streams are those of K + 1 seeds.
    At a barrier the mixture is refitted from
    the pooled points that existed before the barrier's iteration, and the
    segment up to the next barrier assigns every chain its region under the
    new mixture before any chain advances.
    """
    _check_target(config, target)

    k_chains = config.chains
    seed_seq = np.random.SeedSequence(config.master_seed)
    children = seed_seq.spawn(k_chains + 2)
    rngs = [np.random.default_rng(children[k]) for k in range(k_chains)]
    adapt_rng = np.random.default_rng(children[k_chains])

    acfg = config.adaptation
    points = np.array([config.init.sample(rng) for rng in rngs])
    mixture = None
    mixture_history = []
    if config.kernel is Kernel.MH:
        chol = np.linalg.cholesky(config.mh_proposal_scale * np.eye(config.init.dim))
    else:
        mixture = initial_mixture(acfg, points.copy(), adapt_rng)
        mixture_history.append((0, mixture))
        jump_rng = np.random.default_rng(children[k_chains + 1])

    barriers = []
    if mixture is not None:
        first_adapt = max(acfg.interval, 2 * acfg.components)
        barriers = [n for n in range(first_adapt, config.iterations + 1)
                    if n % acfg.interval == 0]
    bounds = [1] + barriers + [config.iterations + 1]
    shape = (k_chains, config.iterations)
    traces = Traces(iterations=np.arange(1, config.iterations + 1),
                    points=np.empty(shape + (config.init.dim,)),
                    regions=np.empty(shape, dtype=int), rejections=np.empty(shape, dtype=int))

    for update_index, (start, end) in enumerate(zip(bounds, bounds[1:])):
        if update_index:
            mixture = refit(acfg, mixture, points.copy(), adapt_rng, update_index)
            mixture_history.append((start, mixture))
        try:
            if config.kernel is Kernel.MH:
                recorded = _mh_segment(points, chol, target, rngs, end - start,
                                       config.steps_per_iteration)
            else:
                recorded = regional_ess_segment(points, mixture, target, rngs, jump_rng,
                                                end - start, config.steps_per_iteration)
        except ChainFailure as exc:
            raise RunError(exc.chain, start + exc.iteration, exc.cause) from exc
        recorded_points, regions, rejections = recorded
        # the segment's (I, K) arrays fill columns start-1..end-2 of (K, N)
        traces.points[:, start - 1:end - 1] = recorded_points.swapaxes(0, 1)
        traces.regions[:, start - 1:end - 1] = regions.T
        traces.rejections[:, start - 1:end - 1] = rejections.T

    return RunResult(traces=traces, mixture_history=mixture_history)
