"""Multi-chain orchestration: lockstep iterations across K chains with
periodic mixture adaptation at synchronization barriers.

Chains share nothing but the immutable mixture snapshot between barriers;
each holds its own state and random generator. Stepping chain 0 through a
whole segment between barriers, then chain 1, and so on, therefore gives the
same traces as the lockstep order ``run`` uses: the execution layout never
changes results. A refit reads the chains' current points in chain order.
The per-chain kernels never modify a point in place, so chains stepped one
at a time hand over their points without copies; the batch updates its
point array in place and hands over a copy.

The regional ESS kernels (gmrgess, tmrgess and gess) advance all chains as
one batch: the runner keeps their points, regions, target and component
log densities and squared Mahalanobis distances as arrays, and
:func:`rgess.samplers.regional_ess_batch` evaluates each shrinkage round for
all chains still shrinking in one call.
Each chain still draws from its own generator in the per-chain kernel's
order, so the traces equal those of the per-chain kernels bit for bit. The
mh and regional_mh kernels step one chain at a time.

The pseudo-prior comes from ``rgess.adaptation.initial_mixture`` and, at each
barrier, ``rgess.adaptation.refit``; its kind follows from the scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .adaptation import AdaptationConfig, Scheme, initial_mixture, refit
from .diagnostics import TraceRecord
from .distributions import Gaussian, MixtureModel
from .samplers import (  # noqa: F401 (gmrgess_step and tmrgess_step: see below)
    ChainFailure,
    ChainState,
    TargetDensity,
    _mh_step,
    gmrgess_step,
    log_pi_rows,
    regional_ess_batch,
    regional_mh_step,
    tmrgess_step,
)

__all__ = ["Kernel", "RunConfig", "RunResult", "RunError", "run"]


class Kernel(str, enum.Enum):
    GMRGESS = "gmrgess"
    TMRGESS = "tmrgess"
    REGIONAL_MH = "regional_mh"
    MH = "mh"
    GESS = "gess"


_GAUSSIAN_MIXTURE_KERNELS = {Kernel.GMRGESS, Kernel.REGIONAL_MH}
_T_MIXTURE_KERNELS = {Kernel.TMRGESS, Kernel.GESS}
_MIXTURE_KERNELS = _GAUSSIAN_MIXTURE_KERNELS | _T_MIXTURE_KERNELS
# Stepped by regional_ess_batch. The per-chain gmrgess_step and tmrgess_step
# stay importable from this module, where the benchmark's tracer wraps them.
_BATCHED_KERNELS = {Kernel.GMRGESS, Kernel.TMRGESS, Kernel.GESS}


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
    thinning: int = 1
    steps_per_iteration: int = 1
    mh_proposal_cov: np.ndarray | None = None

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.thinning < 1:
            raise ValueError(f"thinning must be >= 1, got {self.thinning}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        # The recorded iterations are the multiples of thinning.
        last_recorded = self.iterations - self.iterations % self.thinning
        if not 0 <= self.burn_in < last_recorded:
            raise ValueError(
                f"burn_in must lie in [0, {last_recorded}), the last recorded of "
                f"{self.iterations} iterations with thinning {self.thinning}; got {self.burn_in}"
            )
        if self.steps_per_iteration < 1:
            raise ValueError(
                f"steps_per_iteration must be >= 1, got {self.steps_per_iteration}"
            )
        self._validate_kernel_scheme()

    def _validate_kernel_scheme(self):
        kernel, scheme = self.kernel, self.adaptation.scheme
        if kernel in _T_MIXTURE_KERNELS and scheme is not Scheme.EM_TMM:
            raise ValueError(f"kernel {kernel.value} requires the em_tmm scheme, got {scheme.value}")
        if kernel in _GAUSSIAN_MIXTURE_KERNELS and scheme is Scheme.EM_TMM:
            raise ValueError(f"kernel {kernel.value} requires a Gaussian-mixture scheme")
        if kernel is Kernel.GESS and self.adaptation.components != 1:
            raise ValueError("the gess kernel is the single-component special case; set components = 1")
        if kernel in _MIXTURE_KERNELS and self.chains < self.adaptation.components:
            raise ValueError(
                f"{self.chains} chains cannot support a "
                f"{self.adaptation.components}-component snapshot fit"
            )
        if kernel is Kernel.MH:
            if self.mh_proposal_cov is None:
                raise ValueError("the mh kernel requires mh_proposal_cov")
            cov = np.asarray(self.mh_proposal_cov, dtype=float)
            if cov.shape != (self.init.dim, self.init.dim):
                raise ValueError(
                    f"mh_proposal_cov shape {cov.shape} does not match dimension {self.init.dim}"
                )
            if not np.isfinite(cov).all():
                raise ValueError("mh_proposal_cov contains non-finite entries")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError("mh_proposal_cov is not positive definite") from None


@dataclass(frozen=True)
class RunResult:
    traces: list
    mixture_history: list


class _PerChain:
    """Chains stepped one at a time with the configured kernel."""

    def __init__(self, config: RunConfig, target: TargetDensity, points, mixture):
        self.states = [ChainState(point=p) for p in points]
        if mixture is not None:
            self.set_mixture(mixture)
        if config.kernel is Kernel.MH:
            chol = np.linalg.cholesky(np.asarray(config.mh_proposal_cov, dtype=float))
            self._step = lambda state, rng: _mh_step(state, chol, target, rng)
        else:
            self._step = lambda state, rng: regional_mh_step(state, self.mixture, target, rng)

    def set_mixture(self, mixture: MixtureModel):
        self.mixture = mixture
        self.states = [s._replace(region=mixture.assign_region(s.point)) for s in self.states]

    def snapshot(self) -> list:
        return [s.point for s in self.states]

    def step(self, rngs) -> list:
        rejections = []
        for k, rng in enumerate(rngs):
            try:
                outcome = self._step(self.states[k], rng)
            except ValueError as exc:
                raise ChainFailure(k, exc) from exc
            self.states[k] = outcome.next
            rejections.append(outcome.rejections)
        return rejections

    def records(self):
        """``(point copy, region)`` of every chain."""
        return [(np.array(s.point, copy=True), s.region) for s in self.states]


class _Batched:
    """Chains of a regional ESS kernel, stepped together by
    :func:`rgess.samplers.regional_ess_batch`."""

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

    def step(self, rngs) -> list:
        return regional_ess_batch(self.points, self.regions, self.log_pis, self.comps,
                                  self.quads, self.mixture, self.target, rngs)

    def records(self):
        return zip(self.points.copy(), self.regions.tolist())


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
    advance.
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
    uses_mixture = config.kernel in _MIXTURE_KERNELS
    if uses_mixture:
        mixture = initial_mixture(acfg, points, adapt_rng)
    try:
        if config.kernel in _BATCHED_KERNELS:
            chains = _Batched(target, points, mixture)
        else:
            chains = _PerChain(config, target, points, mixture)
    except ChainFailure as exc:
        raise RunError(exc.chain, 1, exc.cause) from exc

    first_adapt = max(acfg.interval, 2 * acfg.components)
    traces = [[] for _ in range(k_chains)]
    mixture_history = []
    if uses_mixture:
        mixture_history.append((0, mixture))
    update_index = 0

    for n in range(1, config.iterations + 1):
        if uses_mixture and n % acfg.interval == 0 and n >= first_adapt:
            update_index += 1
            mixture = refit(acfg, mixture, chains.snapshot(), adapt_rng, update_index)
            mixture_history.append((n, mixture))
            chains.set_mixture(mixture)

        rejections = [0] * k_chains
        try:
            for _ in range(config.steps_per_iteration):
                rejections = [a + b for a, b in zip(rejections, chains.step(rngs))]
        except ChainFailure as exc:
            raise RunError(exc.chain, n, exc.cause) from exc
        if n % config.thinning == 0:
            for k, (point, region) in enumerate(chains.records()):
                traces[k].append(TraceRecord(
                    chain=k, iteration=n, point=point,
                    rejections=rejections[k], region=region,
                ))

    return RunResult(traces=traces, mixture_history=mixture_history)
