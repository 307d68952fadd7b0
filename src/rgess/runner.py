"""Multi-chain orchestration: K chains stepped through barrier segments,
with periodic mixture adaptation at the barriers.

A segment is every iteration between two barriers. Chains share nothing
but the immutable mixture snapshot within a segment; each holds its own
state and random generator. So the order the chains are stepped in within
a segment never changes results: chain 0 through the whole segment, then
chain 1, gives the same traces as any interleaving. A refit reads the
chains' current points in chain order. Every iteration is recorded.

``run`` is one loop over segments: refit at the barrier, then
``chains.segment``, which returns every iteration's points, regions and
rejection sums. It steps two kinds of chain. The regional ESS kernel
(``rgess``) advances all chains as one batch: the runner keeps their
points, regions, target and component log densities and squared
Mahalanobis distances as arrays, and
:func:`rgess.samplers.regional_ess_segment` evaluates one proposal of every
chain still in the segment per round, a chain starting its next step in the
round after its last one ended. Each chain still draws from its own
generator through the per-chain kernels' draw routine,
:func:`rgess.samplers._step_draws`, so the traces equal those of the
per-chain kernels bit for bit. The mh kernel steps one chain at a time,
chain-major, with no mixture and every chain in region 0.
:func:`rgess.samplers.regional_mh_step` is a per-chain reference kernel
that ``run`` does not step.

A chain that fails stops; the others run until none can fail at a lower
(iteration, chain), and :class:`RunError` names the lowest: the same
failure whatever order the chains ran in.

The batch's pseudo-prior comes from ``rgess.adaptation.initial_mixture``
and, at each barrier, ``rgess.adaptation.refit``; its kind, t for ``em_tmm``
and Gaussian for the other schemes, picks the per-chain kernel it equals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .adaptation import AdaptationConfig, initial_mixture, refit
from .diagnostics import TraceRecord
from .distributions import Gaussian, MixtureModel
from .samplers import (  # noqa: F401 (gmrgess_step and tmrgess_step: see below)
    ChainFailure,
    ChainState,
    TargetDensity,
    _mh_step,
    gmrgess_step,
    log_pi_rows,
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
    traces: list
    mixture_history: list


class _MH:
    """Chains of the mh kernel, stepped one at a time; every chain stays in
    region 0."""

    def __init__(self, config: RunConfig, target: TargetDensity, points):
        self.states = [ChainState(point=p) for p in points]
        self.chol = np.linalg.cholesky(config.mh_proposal_scale * np.eye(config.init.dim))
        self.target = target

    def segment(self, rngs, iterations: int, steps_per_iteration: int):
        """``iterations`` iterations of every chain, chain-major; returns the
        ``(points, regions, rejections)`` of
        :func:`rgess.samplers.regional_ess_segment`.

        A chain that fails stops, and the later chains run only the
        iterations before it, so the :class:`ChainFailure` raised is the
        lowest (iteration, chain)."""
        k_chains = len(self.states)
        points = np.empty((iterations, k_chains, len(self.states[0].point)))
        rejections = np.zeros((iterations, k_chains), dtype=int)
        chol, target = self.chol, self.target
        failure = None
        for k, rng in enumerate(rngs):
            state = self.states[k]
            for i in range(iterations if failure is None else failure.iteration):
                rejected = 0
                try:
                    for _ in range(steps_per_iteration):
                        outcome = _mh_step(state, chol, target, rng)
                        state = outcome.next
                        rejected += outcome.rejections
                except ValueError as exc:
                    failure = ChainFailure(k, exc, i)
                    break
                points[i, k] = state.point
                rejections[i, k] = rejected
            self.states[k] = state
        if failure is not None:
            raise failure
        return points, np.zeros((iterations, k_chains), dtype=int), rejections


class _Batched:
    """Chains of a regional ESS kernel, stepped together by
    :func:`rgess.samplers.regional_ess_segment`."""

    def __init__(self, target: TargetDensity, points, mixture: MixtureModel):
        self.target = target
        self.points = np.array(points, dtype=float)
        self.log_pis = log_pi_rows(target, self.points, range(len(self.points)))
        self.set_mixture(mixture)

    def set_mixture(self, mixture: MixtureModel):
        self.mixture = mixture
        self.quads = mixture._mahalanobis_sq(self.points)
        self.comps = mixture._log_densities_from_quad(self.quads)
        self.regions = mixture._region_of(self.comps)

    def snapshot(self) -> list:
        return list(self.points.copy())

    def segment(self, rngs, iterations: int, steps_per_iteration: int):
        return regional_ess_segment(self.points, self.regions, self.log_pis, self.comps,
                                    self.quads, self.mixture, self.target, rngs,
                                    iterations, steps_per_iteration)


def _check_target(config: RunConfig, target: TargetDensity) -> None:
    """Raise ``ValueError`` unless the init distribution, the config's
    ``init.mean``, has the target's dimension."""
    if target.dim != config.init.dim:
        raise ValueError(
            f"init.mean has dimension {config.init.dim}, the target needs {target.dim}"
        )


def run(config: RunConfig, target: TargetDensity) -> RunResult:
    """Execute the configured multi-chain run against ``target``.

    Chain k draws from the k-th of K + 1 seeds spawned from the master seed,
    and adaptation from the last. At a barrier the mixture is refitted from
    the pooled points that existed before the barrier's iteration, all chain
    regions are reassigned under the new mixture, and only then do chains
    advance, through the segment up to the next barrier.
    """
    _check_target(config, target)

    k_chains = config.chains
    seed_seq = np.random.SeedSequence(config.master_seed)
    children = seed_seq.spawn(k_chains + 1)
    rngs = [np.random.default_rng(children[k]) for k in range(k_chains)]
    adapt_rng = np.random.default_rng(children[k_chains])

    acfg = config.adaptation
    points = [config.init.sample(rng) for rng in rngs]
    mixture = None
    mixture_history = []
    if config.kernel is Kernel.MH:
        chains = _MH(config, target, points)
    else:
        mixture = initial_mixture(acfg, points, adapt_rng)
        mixture_history.append((0, mixture))
        try:
            chains = _Batched(target, points, mixture)
        except ChainFailure as exc:
            raise RunError(exc.chain, 1, exc.cause) from exc

    barriers = []
    if mixture is not None:
        first_adapt = max(acfg.interval, 2 * acfg.components)
        barriers = [n for n in range(first_adapt, config.iterations + 1)
                    if n % acfg.interval == 0]
    bounds = [1] + barriers + [config.iterations + 1]
    traces = [[] for _ in range(k_chains)]

    for update_index, (start, end) in enumerate(zip(bounds, bounds[1:])):
        if update_index:
            mixture = refit(acfg, mixture, chains.snapshot(), adapt_rng, update_index)
            mixture_history.append((start, mixture))
            chains.set_mixture(mixture)
        try:
            points, regions, rejections = chains.segment(rngs, end - start,
                                                         config.steps_per_iteration)
        except ChainFailure as exc:
            raise RunError(exc.chain, start + exc.iteration, exc.cause) from exc
        for k, trace in enumerate(traces):
            trace.extend(
                TraceRecord(chain=k, iteration=n, point=point, rejections=rej, region=region)
                for n, point, rej, region in zip(range(start, end), points[:, k],
                                                 rejections[:, k].tolist(),
                                                 regions[:, k].tolist())
            )

    return RunResult(traces=traces, mixture_history=mixture_history)
