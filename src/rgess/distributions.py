"""Multivariate Gaussian, Student's-t, inverse-gamma and mixture densities.

Everything here is immutable after construction and pure given an explicit
``numpy.random.Generator``, so instances can be shared freely between chains.
Cholesky factors and normalizing constants are cached at construction time
because the samplers evaluate these densities in tight loops.

``Gaussian`` and ``StudentT`` share one factorisation of their ``scale``.
``MixtureModel._log_densities`` and ``MixtureModel._log_mixture`` are the
one component-density and mixture log-density routines, and ``_mixture``
the one builder of mixtures from parameter stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln

__all__ = [
    "Gaussian",
    "StudentT",
    "InverseGammaParams",
    "MixtureModel",
    "sample_inverse_gamma",
    "regularize_cov",
    "nearest_psd",
    "ensure_spd",
]

_SYMMETRY_ATOL = 1e-10
_PSD_JITTER = 1e-10


def _validate_cov(cov: np.ndarray, name: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.max(np.abs(cov - cov.T)) > _SYMMETRY_ATOL:
        raise ValueError(f"{name} is not symmetric within {_SYMMETRY_ATOL}")
    return cov


class _LocationScale:
    """Location ``mean`` and SPD ``scale`` with its Cholesky factor; a
    subclass adds ``_normaliser(d, log_det)``, ``log_density`` and ``sample``."""

    __slots__ = ("mean", "scale", "chol", "_chol_inv", "_offset", "_log_norm")

    def __init__(self, mean, scale, name: str):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        scale = _validate_cov(scale, name)
        if mean.ndim != 1 or scale.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean/{name} dimension mismatch: {mean.shape} vs {scale.shape}"
            )
        self.mean = mean
        self.scale = scale
        self.chol = np.linalg.cholesky(scale)
        self._chol_inv = solve_triangular(self.chol, np.eye(len(mean)), lower=True)
        # whitening as one affine map: z = L^-1 x + offset
        self._offset = -(self._chol_inv @ mean)
        log_det = 2.0 * np.sum(np.log(np.diag(self.chol)))
        self._log_norm = self._normaliser(len(mean), log_det)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def mahalanobis_sq(self, x) -> float:
        z = self._chol_inv @ np.asarray(x, dtype=float) + self._offset
        return float(z @ z)

    def _checked_mahalanobis_sq(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self.mean.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {self.mean.shape}")
        return self.mahalanobis_sq(x)


class Gaussian(_LocationScale):
    """Multivariate normal with cached Cholesky factor.

    Parameters
    ----------
    mean : array_like, shape (D,)
    cov : array_like, shape (D, D)
        Symmetric positive definite; construction fails with
        ``numpy.linalg.LinAlgError`` if the Cholesky factorization does.
        Stored as ``scale``; ``cov`` reads the same matrix.
    """

    __slots__ = ()

    def __init__(self, mean, cov):
        super().__init__(mean, cov, "cov")

    def _normaliser(self, d: int, log_det):
        return -0.5 * (d * np.log(2.0 * np.pi) + log_det)

    @property
    def cov(self) -> np.ndarray:
        return self.scale

    def log_density(self, x) -> float:
        """Log density at ``x``, evaluated entirely in the log domain."""
        return float(self._log_norm - 0.5 * self._checked_mahalanobis_sq(x))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw mean + L z with z standard normal; deterministic given rng state."""
        z = rng.standard_normal(self.dim)
        return self.mean + self.chol @ z


class StudentT(_LocationScale):
    """Multivariate Student's t with location/scale parametrization.

    ``dof`` is the degrees of freedom nu > 0; ``scale`` plays the role of the
    shape matrix (the covariance is ``dof/(dof-2) * scale`` for ``dof > 2``).
    """

    __slots__ = ("dof",)

    def __init__(self, mean, scale, dof: float):
        dof = float(dof)
        if not dof > 0:
            raise ValueError(f"dof must be positive, got {dof}")
        self.dof = dof
        super().__init__(mean, scale, "scale")

    def _normaliser(self, d: int, log_det):
        return (
            gammaln(0.5 * (self.dof + d))
            - gammaln(0.5 * self.dof)
            - 0.5 * d * np.log(self.dof * np.pi)
            - 0.5 * log_det
        )

    def log_density(self, x) -> float:
        quad = self._checked_mahalanobis_sq(x)
        return float(self._log_norm - 0.5 * (self.dof + self.dim) * np.log1p(quad / self.dof))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw via the inverse-gamma scale mixture: s ~ IG(nu/2, nu/2), x ~ N(mean, s*scale)."""
        s = sample_inverse_gamma(InverseGammaParams(0.5 * self.dof, 0.5 * self.dof), rng)
        z = rng.standard_normal(self.dim)
        return self.mean + np.sqrt(s) * (self.chol @ z)


@dataclass(frozen=True)
class InverseGammaParams:
    """Shape/rate parameters of an inverse-gamma distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"alpha and beta must be positive, got {self.alpha}, {self.beta}")


def sample_inverse_gamma(params: InverseGammaParams, rng: np.random.Generator) -> float:
    """Draw from the inverse gamma with density proportional to s^(-a-1) exp(-b/s)."""
    g = rng.gamma(shape=params.alpha, scale=1.0 / params.beta)
    return float(1.0 / g)


class MixtureModel:
    """Finite mixture of Gaussian or Student's-t components (homogeneous kind).

    Weights must be nonnegative and sum to one within 1e-10; all components
    must share the same dimension. ``weighted_regions`` switches region
    assignment from the plain component-density argmax to the weighted one.
    """

    __slots__ = (
        "weights",
        "components",
        "weighted_regions",
        "_log_weights",
        "_means",
        "_chol_inv",
        "_chols",
        "_offsets",
        "_log_norms",
        "_dofs",
        "_half_dof_plus_dim",
        "_whiten_mat",
        "_whiten_off",
        "_m",
        "_dim",
        "_shape",
    )

    def __init__(self, weights, components, weighted_regions: bool = False):
        weights = np.asarray(weights, dtype=float)
        components = tuple(components)
        if len(components) < 1:
            raise ValueError("mixture needs at least one component")
        if weights.shape != (len(components),):
            raise ValueError(
                f"{len(weights)} weights for {len(components)} components"
            )
        if np.any(weights < 0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError(f"mixture weights sum to {weights.sum()!r}, not 1")
        kinds = {type(c) for c in components}
        if len(kinds) != 1 or kinds.pop() not in (Gaussian, StudentT):
            raise ValueError("components must be all Gaussian or all StudentT")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ValueError(f"components have mixed dimensions: {sorted(dims)}")

        self.weights = weights
        self.components = components
        self.weighted_regions = bool(weighted_regions)
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)
        # Stacked parameter caches: evaluating all M components reduces to one
        # (M D, D) matvec through the shared whitening map z = A x + b.
        self._means = np.stack([c.mean for c in components])
        self._chol_inv = np.stack([c._chol_inv for c in components])
        self._chols = np.stack([c.chol for c in components])
        self._log_norms = np.array([c._log_norm for c in components])
        dim = components[0].dim
        self._m = len(components)
        self._dim = dim
        self._shape = (dim,)
        self._whiten_mat = self._chol_inv.reshape(len(components) * dim, dim)
        self._whiten_off = np.concatenate([c._offset for c in components])
        self._offsets = self._whiten_off.reshape(len(components), dim)
        if isinstance(components[0], StudentT):
            self._dofs = np.array([c.dof for c in components])
            self._half_dof_plus_dim = 0.5 * (self._dofs + dim)
        else:
            self._dofs = self._half_dof_plus_dim = None

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def kind(self) -> str:
        return "student_t" if self._dofs is not None else "gaussian"

    def component_log_densities(self, x) -> np.ndarray:
        """Log density of every component at ``x``; shape (M,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {self._shape}")
        return self._log_densities(x)

    def _mahalanobis_sq(self, x: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance of ``x`` to every component: shape
        (M,) for ``x`` of shape (D,), (n, M) for a batch of shape (n, D).

        Every row of a batch equals the single-point call bit for bit. Each
        row is whitened by its own matrix-vector product: a single
        (n, D) @ (D, M D) matrix product rounds differently.
        """
        if x.ndim == 1:
            z = self._whiten_mat @ x + self._whiten_off
        else:
            z = (self._whiten_mat @ x[:, :, None])[:, :, 0] + self._whiten_off
        z2 = z * z
        dim = self._dim
        if dim == 1:
            return z2
        if dim == 2:
            return z2[..., 0::2] + z2[..., 1::2]
        return z2.reshape(z2.shape[:-1] + (self._m, dim)).sum(axis=-1)

    def _log_densities(self, x: np.ndarray) -> np.ndarray:
        """:meth:`component_log_densities` without the input check, for
        callers that have already checked that ``x`` has shape (D,).

        Also takes a batch of shape (n, D) and returns shape (n, M); every
        row equals the single-point call bit for bit. This is the one
        component-density routine: the kernels and the mixture fitters
        both call it.
        """
        quad = self._mahalanobis_sq(x)
        if self._dofs is None:
            return self._log_norms - 0.5 * quad
        return self._log_norms - self._half_dof_plus_dim * np.log1p(quad / self._dofs)

    def log_density(self, x) -> float:
        """log sum_m w_m f_m(x) via log-sum-exp."""
        return float(self._log_mixture(self.component_log_densities(x)))

    def _log_mixture(self, comp_log_densities: np.ndarray):
        """log sum_m w_m f_m from component log densities of shape (M,) or
        (n, M); -inf where every term is -inf."""
        terms = self._log_weights + comp_log_densities
        m = terms.max(axis=-1)
        with np.errstate(invalid="ignore"):  # nan where every term is -inf
            lse = m + np.log(np.exp(terms - m[..., None]).sum(axis=-1))
        return np.where(np.isfinite(m), lse, m)

    def assign_region(self, x) -> int:
        """Index of the component whose density is largest at ``x``.

        Ties break to the lowest index. With ``weighted_regions`` the argmax
        is taken over the weighted component densities instead.
        """
        return int(self._region_of(self.component_log_densities(x)))

    def _region_of(self, comp_log_densities: np.ndarray):
        """The region rule: argmax over the last axis of component log
        densities of shape (M,) or (n, M), plain or, with
        ``weighted_regions``, after adding the log weights."""
        if self.weighted_regions:
            comp_log_densities = comp_log_densities + self._log_weights
        return comp_log_densities.argmax(axis=-1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        idx = int(rng.choice(self.n_components, p=self.weights))
        return self.components[idx].sample(rng)


def _mixture(weights, means, scales, dofs=None,
             weighted_regions: bool = False) -> MixtureModel:
    """Mixture from stacks of weights, means and scale matrices: Gaussian
    components, or Student's-t components when ``dofs`` is given."""
    if dofs is None:
        comps = [Gaussian(mu, s) for mu, s in zip(means, scales)]
    else:
        comps = [StudentT(mu, s, nu) for mu, s, nu in zip(means, scales, dofs)]
    return MixtureModel(weights, comps, weighted_regions=weighted_regions)


def regularize_cov(cov, r: float) -> np.ndarray:
    """cov + r * I."""
    cov = np.asarray(cov, dtype=float)
    if r < 0:
        raise ValueError(f"regularization radius must be nonnegative, got {r}")
    return cov + r * np.eye(cov.shape[0])


def nearest_psd(a) -> np.ndarray:
    """Frobenius-nearest PSD matrix to a symmetric input, plus a tiny jitter.

    Symmetrizes, clips negative eigenvalues to zero, reconstructs, then adds
    1e-10 * I so a downstream Cholesky succeeds on the result.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    sym = 0.5 * (a + a.T)
    eigval, eigvec = np.linalg.eigh(sym)
    eigval = np.clip(eigval, 0.0, None)
    out = (eigvec * eigval) @ eigvec.T
    out = 0.5 * (out + out.T)
    return out + _PSD_JITTER * np.eye(a.shape[0])


def ensure_spd(cov) -> np.ndarray:
    """Return a Cholesky-factorizable version of ``cov``.

    Tries the matrix as-is, repairs via :func:`nearest_psd` on failure, and
    retries exactly once; a second failure propagates as a hard error.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        np.linalg.cholesky(cov)
        return cov
    except np.linalg.LinAlgError:
        pass
    repaired = nearest_psd(cov)
    np.linalg.cholesky(repaired)
    return repaired
