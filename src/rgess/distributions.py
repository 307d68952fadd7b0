"""Multivariate Gaussian, Student's-t and mixture densities.

Everything here is immutable after construction and pure given an explicit
``numpy.random.Generator``, so instances can be shared freely between chains.
Cholesky factors and normalizing constants are cached at construction time
because the samplers evaluate these densities in tight loops.

Every density here is a stack of M >= 1 location-scale components of one
kind, ``_LocationScale``: means, scales, Cholesky factors, the whitening
map, log normalisers and, for Student's t, degrees of freedom. ``Gaussian``
and ``StudentT`` are the stack of one, and ``MixtureModel`` is a stack with
weights, so one routine each gives the squared Mahalanobis distances,
``_mahalanobis_sq``, the component log densities,
``_log_densities_from_quad``, and a draw from row i, ``_sample``. The
kernels, the SA update and the CSV writer read rows of the stacks; a
mixture's ``components`` are built from its rows on each read.

``_factorise`` checks and factors a stack in one batched Cholesky call (or
takes factors already computed) and inverts each factor with ``dtrtrs``,
the LAPACK routine that ``scipy.linalg.solve_triangular`` wraps.
``Gaussian`` and ``StudentT`` call it on a stack of one. Every mixture is
built by ``MixtureModel._build``, which calls it on the whole stack:
``MixtureModel(weights, components)`` passes the components' stacked rows
and factors, and ``_mixture`` the parameter stacks, so a mixture built from
stacks equals one built from components bit for bit.
``MixtureModel._log_densities`` is the one component-density routine,
``_log_densities_from_quad(_mahalanobis_sq(x))``; the regional kernels call
its two halves themselves, because they keep the distances with the point.
Both halves work in place on temporaries of their own and never write to
their input. ``MixtureModel._log_mixture`` calls ``_logsumexp``, the one
log-sum-exp, which the mixture fitters also normalise with.

log Gamma, which the t normaliser, the litter target and the VI bound
need, is ``_gammaln``: cephes ``lgam`` (Moshier 1989), the routine
``scipy.special.gammaln`` evaluates, ported to Python and applied element
by element. It equals scipy's bit for bit, so the traces keep their bytes,
and no process loads ``scipy.special`` to sample. ``math.lgamma`` is not a
substitute: it differs from scipy's in the last bits for 53-96% of the
arguments tested, depending on the range. Nor is a numpy-vectorised port:
numpy's SIMD ``log`` rounds some arguments apart from the C library's
``log`` that cephes calls. The t normaliser's dof part,
``_t_log_gamma_ratio``, takes Stirling's difference in closed form, with
its first correction, beyond dof = 2e4, where the difference of the two
log-gammas loses digits to cancellation (2.2e-7 nats at dof = 2e8).

``dtrtrs`` comes from scipy's compiled LAPACK wrapper module,
``scipy.linalg._flapack``, which ``_flapack`` loads from its file after
importing the top-level ``scipy`` package alone. ``scipy.linalg``'s package
``__init__`` does not run: it would load some 330 more modules and about
27 MB for this one routine. The module is registered under its own name,
so a later ``import scipy.linalg`` (``scipy.optimize`` does one at the
first dof solve) reuses the same module object, and ``dtrtrs`` is the same
routine called with the same arguments either way. Two substitutes were
rejected: a numpy forward substitution changes the bits of L^-1 from
D = 3, because OpenBLAS's triangular solve uses fused multiply-adds, and
``ctypes`` into the bundled OpenBLAS depends on the wheel's library file
names.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

__all__ = [
    "Gaussian",
    "StudentT",
    "MixtureModel",
    "regularize_cov",
    "nearest_psd",
    "ensure_spd",
]

_SYMMETRY_ATOL = 1e-10
_PSD_JITTER = 1e-10
_LOG_2PI = np.log(2.0 * np.pi)
_FLAPACK = "scipy.linalg._flapack"


def _flapack():
    """scipy's LAPACK wrapper module ``scipy.linalg._flapack``, loaded from
    its file without running ``scipy.linalg``; the module already imported,
    if there is one. ImportError, naming the directory, if scipy has none."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy  # the top-level package only: scipy's own library set-up

    directory = os.path.join(scipy.__path__[0], "linalg")
    found = importlib.machinery.PathFinder.find_spec("_flapack", [directory])
    if found is None:
        raise ImportError(f"no _flapack module in {directory}", name=_FLAPACK)
    spec = importlib.util.spec_from_file_location(_FLAPACK, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


dtrtrs = _flapack().dtrtrs


def _check_weights(weights: np.ndarray, m: int) -> None:
    if m < 1:
        raise ValueError("mixture needs at least one component")
    if weights.shape != (m,):
        raise ValueError(f"{len(weights)} weights for {m} components")
    if not (weights >= 0).all():  # also false for nan
        raise ValueError(f"mixture weights must be nonnegative, got {weights.tolist()}")
    if abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, not 1")


def _logsumexp(terms: np.ndarray):
    """log sum exp over the last axis of ``terms``, shape (M,) or (n, M):
    the one log-sum-exp of the package. The largest term is shifted out
    before the sum; -inf where every term is -inf."""
    m = terms.max(axis=-1)
    with np.errstate(invalid="ignore"):  # nan where every term is -inf
        lse = m + np.log(np.exp(terms - m[..., None]).sum(axis=-1))
    return np.where(np.isfinite(m), lse, m)


# Coefficients of cephes lgam (Moshier 1989): A is the Stirling correction
# in 1/x^2 on [13, 1000), B / C the rational fit of log Gamma(2 + x) on [0, 1).
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_PI = 1.14472988584940017414
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_MAX = 2.556348e305
_LGAM_STIRLING_ONLY = 1.0e8
# dof / 2 beyond which _t_log_gamma_ratio takes Stirling's difference
_T_RATIO_STIRLING = 1.0e4


def _lgam(x: float) -> float:
    """log |Gamma(x)| of one float: cephes ``lgam``, step for step, so it
    equals ``scipy.special.gammaln`` bit for bit. +inf at the poles and
    beyond 2.556348e305; +-inf and nan are returned as given."""
    if not math.isfinite(x):
        return x
    if x < -34.0:
        # reflection: |Gamma(x)| = pi / (|x| |Gamma(|x|)| |sin(pi x)|)
        q = -x
        w = _lgam(q)
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOG_PI - math.log(z) - w
    if x < 13.0:
        # shift into [2, 3) by the recurrence, then the rational fit
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if z < 0.0:
            z = -z
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        b, c = _LGAM_B, _LGAM_C
        num = ((((b[0] * x + b[1]) * x + b[2]) * x + b[3]) * x + b[4]) * x + b[5]
        den = (((((x + c[0]) * x + c[1]) * x + c[2]) * x + c[3]) * x + c[4]) * x + c[5]
        return math.log(z) + x * num / den
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > _LGAM_STIRLING_ONLY:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _LGAM_A
    return q + ((((a[0] * p + a[1]) * p + a[2]) * p + a[3]) * p + a[4]) / x


def _gammaln(x):
    """log |Gamma(x)| element by element, equal to ``scipy.special.gammaln``
    bit for bit: a float64 scalar for 0-d input, else an array of its shape.
    The one log-gamma of the package."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(_lgam(float(x)))
    return np.array([_lgam(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


@functools.lru_cache(maxsize=256)
def _t_log_gamma_ratio(dof: float, d: int) -> float:
    """log Gamma((dof + d) / 2) - log Gamma(dof / 2), the dof part of a
    D-variate t normaliser. Memoised: a fixed-dof fit asks for the same
    value at every mixture it builds, one per EM iteration.

    Where x = dof / 2 exceeds ``_T_RATIO_STIRLING`` the two log-gammas,
    each of size x log x, would cancel most of their digits; there it is
    Stirling's difference in closed form with its first correction,
    -a / (12 x (x + a)) for a = d / 2, which tends to a log x. Every smaller
    dof gives the difference of the two log-gammas, bit for bit.
    """
    x = 0.5 * dof
    if x > _T_RATIO_STIRLING:
        a = 0.5 * d
        return (a * math.log(x) + (x + a - 0.5) * math.log1p(a / x) - a
                - a / (12.0 * x * (x + a)))
    return _lgam(0.5 * (dof + d)) - _lgam(x)


def _factorise(means: np.ndarray, scales: np.ndarray, dofs, name: str,
               chols=None):
    """Check and factor a stack of M location-scale components: the one
    factorisation of every ``Gaussian``, ``StudentT`` and mixture.

    ``means`` is (M, D) and finite, ``scales`` is (M, D, D) and finite, and
    ``dofs`` is (M,), finite and positive, for Student's-t components or None
    for Gaussian ones. ``chols``, when given, must be the Cholesky factors of
    ``scales``, which are then not factored again. Returns the stacks
    ``(chols, chol_inv, offsets, log_norms)``: the (M, D, D) factors L and
    inverse factors L^-1, the (M D,) whitening offsets -L^-1 mean, one row
    after another, and the (M,) log normalising constants.

    Each L^-1 is the LAPACK ``trtrs`` solution of L X = I, called as
    ``scipy.linalg.solve_triangular`` calls it on a C-ordered factor, and
    stacked in the Fortran order that routine returns. Each offset is
    computed from that array: a C-ordered copy or one batched product rounds
    the whitening differently.
    """
    if dofs is not None:
        if not (dofs > 0).all():
            raise ValueError(f"dof must be positive, got {float(dofs[~(dofs > 0)][0])}")
        if not np.isfinite(dofs).all():
            raise ValueError(f"dof must be finite, got {float(dofs[~np.isfinite(dofs)][0])}")
    if scales.ndim != 3 or scales.shape[1] != scales.shape[2]:
        raise ValueError(f"{name} must be a square matrix, got shape {scales.shape[1:]}")
    if not np.isfinite(scales).all():
        raise ValueError(f"{name} contains non-finite entries")
    if np.abs(scales - scales.transpose(0, 2, 1)).max() > _SYMMETRY_ATOL:
        raise ValueError(f"{name} is not symmetric within {_SYMMETRY_ATOL}")
    if means.ndim != 2 or scales.shape[1] != means.shape[1]:
        raise ValueError(
            f"mean/{name} dimension mismatch: {means.shape[1:]} vs {scales.shape[1:]}"
        )
    if not np.isfinite(means).all():
        raise ValueError("mean contains non-finite entries")
    if chols is None:
        chols = np.linalg.cholesky(scales)
    d = means.shape[1]
    eye = np.eye(d)
    chol_invs, offsets = [], []
    for chol, mean in zip(chols, means):
        # L X = I as the transposed upper-triangular system, without a copy
        chol_inv, info = dtrtrs(chol.T, eye, lower=False, trans=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular {name} factor")
        chol_invs.append(chol_inv)
        offsets.append(-(chol_inv @ mean))
    log_dets = 2.0 * np.log(chols.diagonal(axis1=1, axis2=2)).sum(axis=1)
    if dofs is None:
        log_norms = -0.5 * (d * _LOG_2PI + log_dets)
    else:
        log_norms = (
            np.array([_t_log_gamma_ratio(nu, d) for nu in dofs.tolist()])
            - 0.5 * d * np.log(dofs * np.pi)
            - 0.5 * log_dets
        )
    return chols, np.stack(chol_invs), np.concatenate(offsets), log_norms


class _LocationScale:
    """A stack of M >= 1 location-scale components, Gaussian (``_dofs``
    None) or Student's t."""

    __slots__ = ("_means", "_scales", "_chols", "_chol_inv", "_whiten_mat",
                 "_whiten_off", "_log_norms", "_dofs", "_half_dof_plus_dim",
                 "_m", "_dim", "_shape")

    def _fill(self, means, scales, dofs, chols, chol_inv, offsets, log_norms) -> None:
        """Set the stacks from (M, D) means, (M, D, D) scales, (M,) dofs or
        None, and the factors that ``_factorise`` returns."""
        m, dim = means.shape
        self._m = m
        self._dim = dim
        self._shape = (dim,)
        self._means = means
        self._scales = scales
        self._chols = chols
        self._chol_inv = chol_inv
        self._log_norms = log_norms
        # Evaluating all M components reduces to one (M D, D) matvec through
        # the shared whitening map z = A x + b. The reshape keeps the Fortran
        # order of a stack of one and copies a taller stack to C order; BLAS
        # rounds the two products apart, and the traces depend on both.
        self._whiten_mat = chol_inv.reshape(m * dim, dim)
        self._whiten_off = offsets
        self._dofs = dofs
        self._half_dof_plus_dim = None if dofs is None else 0.5 * (dofs + dim)

    @property
    def dim(self) -> int:
        return self._dim

    def _checked(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {self._shape}")
        return x

    def _mahalanobis_sq(self, x: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance of ``x`` to every component: shape
        (M,) for ``x`` of shape (D,), (n, M) for a batch of shape (n, D).

        Every row of a batch equals the single-point call bit for bit. Each
        row is whitened by its own matrix-vector product: a single
        (n, D) @ (D, M D) matrix product rounds differently. The arithmetic
        works in place on the product, never on ``x``.
        """
        if x.ndim == 1:
            z = self._whiten_mat @ x
        else:
            z = (self._whiten_mat @ x[:, :, None])[:, :, 0]
        z += self._whiten_off
        z *= z
        dim = self._dim
        if dim == 1:
            return z
        if dim == 2:
            return z[..., 0::2] + z[..., 1::2]
        return z.reshape(z.shape[:-1] + (self._m, dim)).sum(axis=-1)

    def _log_densities_from_quad(self, quad: np.ndarray) -> np.ndarray:
        """Component log densities from the squared Mahalanobis distances
        that :meth:`_mahalanobis_sq` returns, in the same shape.

        ``quad`` is left unchanged: the kernels keep it with the point. The
        arithmetic works in place on a temporary of its own.
        """
        if self._dofs is None:
            out = 0.5 * quad
        else:
            out = quad / self._dofs
            np.log1p(out, out=out)
            out *= self._half_dof_plus_dim
        return np.subtract(self._log_norms, out, out=out)

    def _sample(self, i: int, rng: np.random.Generator) -> np.ndarray:
        """Draw from component ``i``: mean + L z with z standard normal,
        for Student's t scaled by sqrt(s) with s ~ IG(nu/2, nu/2)."""
        if self._dofs is None:
            return self._means[i] + self._chols[i] @ rng.standard_normal(self._dim)
        half_dof = 0.5 * self._dofs[i]
        s = 1.0 / rng.gamma(half_dof, 1.0 / half_dof)  # IG(alpha, beta): 1 / Gamma(alpha, scale=1/beta)
        return self._means[i] + np.sqrt(s) * (self._chols[i] @ rng.standard_normal(self._dim))


class _Component(_LocationScale):
    """One component: the stack of one, whose row ``mean``, ``scale`` and
    ``chol`` read."""

    __slots__ = ()

    def __init__(self, mean, scale, name: str, dof=None):
        means = np.atleast_1d(np.asarray(mean, dtype=float))[None]
        scales = np.asarray(scale, dtype=float)[None]
        dofs = None if dof is None else np.array([float(dof)])
        self._fill(means, scales, dofs, *_factorise(means, scales, dofs, name))

    mean = property(lambda self: self._means[0])
    scale = property(lambda self: self._scales[0])
    chol = property(lambda self: self._chols[0])

    def mahalanobis_sq(self, x) -> float:
        return float(self._mahalanobis_sq(self._checked(x))[0])

    def log_density(self, x) -> float:
        """Log density at ``x``, evaluated entirely in the log domain."""
        return float(self._log_densities_from_quad(self._mahalanobis_sq(self._checked(x)))[0])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A draw, deterministic given the rng state: see :meth:`_sample`."""
        return self._sample(0, rng)


class Gaussian(_Component):
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
    cov = _Component.scale

    def __init__(self, mean, cov):
        super().__init__(mean, cov, "cov")


class StudentT(_Component):
    """Multivariate Student's t with location/scale parametrization.

    ``dof`` is the degrees of freedom nu > 0; ``scale`` plays the role of the
    shape matrix (the covariance is ``dof/(dof-2) * scale`` for ``dof > 2``).
    """

    __slots__ = ()
    dof = property(lambda self: float(self._dofs[0]))

    def __init__(self, mean, scale, dof: float):
        super().__init__(mean, scale, "scale", dof)


class MixtureModel(_LocationScale):
    """Finite mixture of Gaussian or Student's-t components (homogeneous kind).

    Weights must be nonnegative and sum to one within 1e-10; all components
    must share the same dimension. A point's region is the component of largest
    density there, so the weights and the stacks describe a mixture fully.
    The components are the rows of the stacks; ``components`` builds them as
    ``Gaussian`` or ``StudentT`` objects on each read.
    """

    __slots__ = ("weights", "_log_weights")

    def __init__(self, weights, components):
        weights = np.asarray(weights, dtype=float)
        components = tuple(components)
        _check_weights(weights, len(components))
        kinds = {type(c) for c in components}
        if len(kinds) != 1 or kinds.pop() not in (Gaussian, StudentT):
            raise ValueError("components must be all Gaussian or all StudentT")
        dimensions = {c.dim for c in components}
        if len(dimensions) != 1:
            raise ValueError(f"components have mixed dimensions: {sorted(dimensions)}")

        def stack(name):
            return np.concatenate([getattr(c, name) for c in components])

        self._build(weights, stack("_means"), stack("_scales"),
                    None if components[0]._dofs is None else stack("_dofs"),
                    stack("_chols"))

    def _build(self, weights, means, scales, dofs, chols) -> None:
        """The one build of a mixture: factor the stacks with ``_factorise``,
        then set the caches and the checked weights."""
        name = "cov" if dofs is None else "scale"
        self._fill(means, scales, dofs, *_factorise(means, scales, dofs, name, chols))
        self.weights = weights
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)

    @property
    def components(self) -> tuple:
        if self._dofs is None:
            return tuple(map(Gaussian, self._means, self._scales))
        return tuple(map(StudentT, self._means, self._scales, self._dofs))

    @property
    def n_components(self) -> int:
        return self._m

    @property
    def kind(self) -> str:
        return "student_t" if self._dofs is not None else "gaussian"

    def component_log_densities(self, x) -> np.ndarray:
        """Log density of every component at ``x``; shape (M,)."""
        return self._log_densities(self._checked(x))

    def _log_densities(self, x: np.ndarray) -> np.ndarray:
        """:meth:`component_log_densities` without the input check, for
        callers that have already checked that ``x`` has shape (D,).

        Also takes a batch of shape (n, D) and returns shape (n, M); every
        row equals the single-point call bit for bit. This is the one
        component-density routine: the mixture fitters call it, and the
        regional kernels call its two halves, :meth:`_mahalanobis_sq` and
        :meth:`_log_densities_from_quad`, to keep the distances as well.
        """
        return self._log_densities_from_quad(self._mahalanobis_sq(x))

    def log_density(self, x) -> float:
        """log sum_m w_m f_m(x) via log-sum-exp."""
        return float(self._log_mixture(self.component_log_densities(x)))

    def _log_mixture(self, comp_log_densities: np.ndarray):
        """log sum_m w_m f_m from component log densities of shape (M,) or
        (n, M); -inf where every term is -inf."""
        return _logsumexp(self._log_weights + comp_log_densities)

    def assign_region(self, x) -> int:
        """Index of the component whose density is largest at ``x``.

        Ties break to the lowest index. The weights play no part: this is the
        one region rule.
        """
        return int(self._region_of(self.component_log_densities(x)))

    def _region_of(self, comp_log_densities: np.ndarray):
        """The region rule: argmax over the last axis of component log
        densities of shape (M,) or (n, M)."""
        return comp_log_densities.argmax(axis=-1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        idx = int(rng.choice(self._m, p=self.weights))
        return self._sample(idx, rng)


def _mixture(weights, means, scales, dofs=None, chols=None) -> MixtureModel:
    """Mixture from stacks of weights, means and scale matrices: Gaussian
    components, or Student's-t components when ``dofs`` is given.

    The stacks are checked and factored once, by ``_factorise``; ``chols``,
    when given, must be the Cholesky factors of ``scales``. Equal, bit for
    bit, to ``MixtureModel`` built from ``Gaussian`` or ``StudentT``
    components, through the same ``MixtureModel._build``.
    """
    weights = np.asarray(weights, dtype=float)
    means = np.array(means, dtype=float)
    scales = np.array(scales, dtype=float)
    if dofs is not None:
        dofs = np.array(dofs, dtype=float)
    _check_weights(weights, len(means))
    mixture = MixtureModel.__new__(MixtureModel)
    mixture._build(weights, means, scales, dofs, chols)
    return mixture


def regularize_cov(cov, r: float) -> np.ndarray:
    """cov + r * I, for one matrix or a stack of them."""
    cov = np.asarray(cov, dtype=float)
    if r < 0:
        raise ValueError(f"regularization radius must be nonnegative, got {r}")
    return cov + r * np.eye(cov.shape[-1])


def nearest_psd(a) -> np.ndarray:
    """Frobenius-nearest PSD matrix to a symmetric input, plus a tiny jitter.

    Symmetrizes, clips negative eigenvalues to zero, reconstructs, then adds
    1e-10 * max(1, largest eigenvalue) * I so a downstream Cholesky succeeds
    on the result at any scale.
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
    return out + _PSD_JITTER * max(1.0, eigval[-1]) * np.eye(a.shape[0])


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
