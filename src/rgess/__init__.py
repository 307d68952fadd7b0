"""Regional generalized elliptical slice sampling with adaptive mixture
pseudo-priors: transition kernels, mixture fitters, a deterministic
multi-chain runner and the benchmark targets they are exercised on."""

from .adaptation import (
    AdaptationConfig,
    FitResult,
    LearningRateSchedule,
    Scheme,
    em_gmm_fit,
    em_tmm_fit,
    sa_gmm_update,
    vi_gmm_fit,
)
from .distributions import (
    Gaussian,
    MixtureModel,
    StudentT,
    nearest_psd,
    regularize_cov,
)
from .runner import Kernel, RunConfig, RunResult, run
from .samplers import (
    ChainState,
    StepOutcome,
    TargetDensity,
    ess_step,
    gmrgess_step,
    mh_step,
    regional_mh_step,
    tmrgess_step,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "ChainState",
    "FitResult",
    "Gaussian",
    "Kernel",
    "LearningRateSchedule",
    "MixtureModel",
    "RunConfig",
    "RunResult",
    "Scheme",
    "StepOutcome",
    "StudentT",
    "TargetDensity",
    "em_gmm_fit",
    "em_tmm_fit",
    "ess_step",
    "gmrgess_step",
    "mh_step",
    "nearest_psd",
    "regional_mh_step",
    "regularize_cov",
    "run",
    "sa_gmm_update",
    "tmrgess_step",
    "vi_gmm_fit",
]
