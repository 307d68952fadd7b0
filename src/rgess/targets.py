"""Built-in target densities: the four-mode Gaussian mixture benchmark, the
logistic-regression likelihood (covtype or synthetic data), and the
two-binomial litter-survival model with its embedded dataset."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import ModeSpec, _parse_row, _read_csv
from .distributions import _gammaln, _mixture
from .samplers import TargetDensity

__all__ = [
    "GaussMixTarget",
    "LogisticTarget",
    "LitterTarget",
    "Dataset",
    "gauss_mix_target",
    "logistic_log_likelihood",
    "litter_log_likelihood",
    "embedded_litter_data",
    "load_covtype",
    "make_synthetic_logistic",
    "LITTER_TABLE",
]


def _finite_or_none(x) -> np.ndarray | None:
    x = np.asarray(x, dtype=float)
    return x if np.all(np.isfinite(x)) else None


# ---------------------------------------------------------------------------
# four-component Gaussian mixture benchmark
# ---------------------------------------------------------------------------


class GaussMixTarget:
    """Equal-weight four-Gaussian benchmark target on R^2.

    Means (25,50), (5,5), (50,5), (50,50); every covariance is 10 I.
    ``MODES`` puts a ball of three standard deviations around each mean.
    """

    WEIGHTS = (0.25, 0.25, 0.25, 0.25)
    MEANS = ((25.0, 50.0), (5.0, 5.0), (50.0, 5.0), (50.0, 50.0))
    COV_SCALE = 10.0
    MODES = ModeSpec(MEANS, 3 * math.sqrt(COV_SCALE))

    def __init__(self):
        cov = self.COV_SCALE * np.eye(2)
        self.mixture = _mixture(np.array(self.WEIGHTS), self.MEANS, [cov] * len(self.MEANS))

    @property
    def dim(self) -> int:
        return 2

    def log_density(self, x) -> float:
        x = _finite_or_none(x)
        if x is None:
            return -np.inf
        return self.mixture.log_density(x)

    def log_density_batch(self, points) -> np.ndarray:
        """:meth:`log_density` at each row of an (n, 2) array, bit for bit.

        ``MixtureModel._log_mixture`` of the batched component densities,
        the routine ``log_density`` calls; non-finite rows give -inf.
        """
        points = np.asarray(points, dtype=float)
        finite = np.isfinite(points).all(axis=1)
        mixture = self.mixture
        if finite.all():
            return mixture._log_mixture(mixture._log_densities(points))
        out = np.full(len(points), -np.inf)
        out[finite] = mixture._log_mixture(mixture._log_densities(points[finite]))
        return out

    def as_target_density(self) -> TargetDensity:
        return TargetDensity(dim=2, log_pi=self.log_density,
                             log_pi_batch=self.log_density_batch)


def gauss_mix_target() -> GaussMixTarget:
    return GaussMixTarget()


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


class LogisticTarget:
    """Logistic log-likelihood over a standardized training design."""

    def __init__(self, design, labels):
        design = np.asarray(design, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if design.ndim != 2 or labels.shape != (design.shape[0],):
            raise ValueError(
                f"design/labels shapes incompatible: {design.shape} vs {labels.shape}"
            )
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError("labels must be binary 0/1")
        if not np.isfinite(design).all():
            raise ValueError("design contains non-finite values")
        col_mean = design.mean(axis=0)
        col_var = design.var(axis=0)
        if np.max(np.abs(col_mean)) > 1e-8 or np.max(np.abs(col_var - 1.0)) > 1e-6:
            raise ValueError("design must be standardized to zero mean, unit variance")
        self.design = design
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def log_likelihood(self, beta) -> float:
        return logistic_log_likelihood(beta, self)

    def as_target_density(self) -> TargetDensity:
        return TargetDensity(dim=self.dim, log_pi=self.log_likelihood)


def logistic_log_likelihood(beta, data: LogisticTarget) -> float:
    """sum_n [y log p + (1-y) log(1-p)] with p = logistic(beta . x_n).

    Uses the log1p form, stable for all finite beta; the sum runs over the
    actual training set size.
    """
    beta = _finite_or_none(beta)
    if beta is None:
        return -np.inf
    if beta.shape != (data.dim,):
        raise ValueError(f"beta has dimension {beta.shape}, expected ({data.dim},)")
    t = data.design @ beta
    # y*log p + (1-y)*log(1-p) = -log(1+exp(-t)) - (1-y)*t
    return float(np.sum(-np.logaddexp(0.0, -t) - (1.0 - data.labels) * t))


@dataclass(frozen=True)
class Dataset:
    """Train/test split with the training-set standardization parameters."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    feature_mean: np.ndarray
    feature_sd: np.ndarray

    def training_target(self) -> LogisticTarget:
        return LogisticTarget(self.train_x, self.train_y)


def _standardize_split(train_x, test_x):
    """Standardize both splits by the training split's mean and sd; a
    constant training column, whose coefficient is unidentified, raises."""
    mean = train_x.mean(axis=0)
    sd = train_x.std(axis=0)
    constant = np.flatnonzero(sd < 1e-12)
    if len(constant):
        raise ValueError(f"feature column {constant[0]} (0-based) is constant over the "
                         f"{len(train_x)} training rows; its coefficient is not identified")
    return (train_x - mean) / sd, (test_x - mean) / sd, mean, sd


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _covtype_row(fields) -> list:
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise ValueError(f"unparseable value ({exc})") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    if not values[-1].is_integer():
        raise ValueError(f"class label {values[-1]!r} is not an integer")
    return values


def load_covtype(path, n_select: int, n_features: int, train_fraction: float,
                 seed: int) -> Dataset:
    """Load a covtype-format CSV: features plus an integer class label in the
    last column, every value finite. A first line with no numeric field is
    a header and is skipped.

    Rows of the two most frequent classes are kept (lower class label mapped
    to 0, higher to 1), ``n_select`` rows are subsampled uniformly with
    ``seed``, the first ``n_features`` columns are retained, and the features
    are standardized with training-split statistics; round(train_fraction *
    n_select) rows, 1 to ``n_select``, train.
    """
    for name, value in (("n_select", n_select), ("n_features", n_features)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rows = []
    for line, fields in _read_csv(path, "covtype CSV"):
        if line == 1 and not any(map(_is_number, fields)):
            continue
        width = len(rows[0]) if rows else len(fields)
        rows.append(_parse_row(path, line, fields, width, _covtype_row))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    if data.shape[1] < n_features + 1:
        raise ValueError(
            f"{path}: {data.shape[1]} columns, need {n_features} features + 1 class column"
        )

    classes = data[:, -1].astype(int)
    values, counts = np.unique(classes, return_counts=True)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least two classes, found {values.tolist()}")
    top_two = values[np.argsort(counts)[::-1][:2]]
    lo, hi = sorted(top_two)
    keep = np.isin(classes, (lo, hi))
    filtered = data[keep]
    labels = (filtered[:, -1].astype(int) == hi).astype(float)
    if filtered.shape[0] < n_select:
        raise ValueError(
            f"{path}: only {filtered.shape[0]} rows in the two majority classes, "
            f"need {n_select}"
        )

    rng = np.random.default_rng(seed)
    pick = rng.choice(filtered.shape[0], size=n_select, replace=False)
    x = filtered[pick, :n_features]
    y = labels[pick]
    n_train = int(round(train_fraction * n_select)) if np.isfinite(train_fraction) else 0
    if not 1 <= n_train <= n_select:
        raise ValueError(f"train_fraction must leave 1 to n_select = {n_select} training "
                         f"rows, got {train_fraction}")
    perm = rng.permutation(n_select)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    train_x, test_x, mean, sd = _standardize_split(x[train_idx], x[test_idx])
    return Dataset(train_x, y[train_idx], test_x, y[test_idx], mean, sd)


def make_synthetic_logistic(n_train: int, n_test: int, n_features: int, seed: int,
                            beta_scale: float = 2.0):
    """Self-contained logistic benchmark with a known true coefficient vector.

    Returns ``(dataset, beta_star)``. Features are standard normal; labels are
    Bernoulli with success probability logistic(beta_star . x), and
    ``beta_scale`` is the norm of ``beta_star``.
    """
    for name, value, least in (("n_train", n_train, 1), ("n_test", n_test, 0),
                               ("n_features", n_features, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if not 0 < beta_scale < np.inf:
        raise ValueError(f"beta_scale must be finite and positive, got {beta_scale}")
    rng = np.random.default_rng(seed)
    beta_star = rng.normal(0.0, 1.0, size=n_features)
    beta_star *= beta_scale / np.linalg.norm(beta_star)
    n = n_train + n_test
    x = rng.normal(0.0, 1.0, size=(n, n_features))
    train_x, test_x, mean, sd = _standardize_split(x[:n_train], x[n_train:])
    # Labels are generated in the standardized basis, so beta_star is exactly
    # the true coefficient vector of the model being fitted.
    t = np.concatenate([train_x @ beta_star, test_x @ beta_star])
    p = 1.0 / (1.0 + np.exp(-t))
    y = (rng.random(n) < p).astype(float)
    ds = Dataset(train_x, y[:n_train], test_x, y[n_train:], mean, sd)
    return ds, beta_star


# ---------------------------------------------------------------------------
# litter survival model
# ---------------------------------------------------------------------------

# Litter size n -> number of litters with x = 0..9 dead fetuses.
LITTER_TABLE = {
    1: (7, 0),
    2: (7, 0, 0),
    3: (6, 0, 0, 0, 0),
    4: (5, 2, 1, 0, 0),
    5: (8, 2, 1, 0, 1, 1),
    6: (8, 0, 0, 0, 0, 0, 0, 0, 0),
    7: (4, 4, 2, 1, 0, 0, 0, 0),
    8: (7, 7, 1, 0, 0, 0, 0, 0, 0, 0),
    9: (8, 9, 7, 1, 1, 0, 0, 0, 0, 0),
    10: (22, 17, 2, 0, 1, 0, 0, 1, 1, 0),
    11: (30, 18, 9, 1, 2, 0, 1, 0, 1, 0),
    12: (54, 27, 12, 2, 1, 0, 2, 1, 0, 0),
    13: (46, 30, 8, 4, 1, 1, 0, 1, 0, 0),
    14: (43, 21, 13, 3, 1, 0, 0, 1, 0, 1),
    15: (22, 22, 5, 2, 1, 0, 0, 0, 0, 0),
    16: (6, 6, 3, 0, 1, 1, 0, 0, 0, 0),
    17: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    18: (3, 0, 2, 1, 0, 0, 0, 0, 0, 0),
}


class LitterTarget:
    """Two-binomial mixture likelihood for fetal deaths in mouse litters.

    The three parameters live on R^3 through logit transforms: the mixing
    proportion and the two per-component death probabilities. The target is
    the likelihood alone (flat prior on the transformed space).
    """

    def __init__(self, observations=None):
        if observations is None:
            observations = [
                (n, x, c)
                for n, row in LITTER_TABLE.items()
                for x, c in enumerate(row)
                if c > 0
            ]
        obs = [(int(n), int(x), int(c)) for n, x, c in observations]
        for n, x, c in obs:
            if c < 0 or not 0 <= x <= n or not 1 <= n <= 18:
                raise ValueError(f"invalid litter cell (n={n}, x={x}, count={c})")
        self.observations = tuple(obs)
        self._n = np.array([o[0] for o in obs], dtype=float)
        self._x = np.array([o[1] for o in obs], dtype=float)
        self._count = np.array([o[2] for o in obs], dtype=float)
        self._log_binom = (
            _gammaln(self._n + 1) - _gammaln(self._x + 1) - _gammaln(self._n - self._x + 1)
        )

    @property
    def dim(self) -> int:
        return 3

    @property
    def total_litters(self) -> int:
        return int(self._count.sum())

    def log_likelihood(self, params) -> float:
        return litter_log_likelihood(params, self)

    def as_target_density(self) -> TargetDensity:
        return TargetDensity(dim=3, log_pi=self.log_likelihood)


def litter_log_likelihood(params, target: LitterTarget | None = None) -> float:
    """Log likelihood of the transformed parameters (gamma~, mu~, v~).

    Each parameter passes through the logistic transform; cell contributions
    are count-weighted log mixture probabilities with precomputed log-binomial
    coefficients, combined by log-sum-exp.
    """
    if target is None:
        target = _EMBEDDED_LITTER
    params = _finite_or_none(params)
    if params is None:
        return -np.inf
    if params.shape != (3,):
        raise ValueError(f"expected 3 parameters, got shape {params.shape}")
    g_t, mu_t, v_t = params
    log_g = -np.logaddexp(0.0, -g_t)
    log_1mg = -np.logaddexp(0.0, g_t)
    log_mu = -np.logaddexp(0.0, -mu_t)
    log_1mmu = -np.logaddexp(0.0, mu_t)
    log_v = -np.logaddexp(0.0, -v_t)
    log_1mv = -np.logaddexp(0.0, v_t)

    n, x = target._n, target._x
    term1 = log_g + x * log_mu + (n - x) * log_1mmu
    term2 = log_1mg + x * log_v + (n - x) * log_1mv
    cell_log_prob = target._log_binom + np.logaddexp(term1, term2)
    return float(np.sum(target._count * cell_log_prob))


_EMBEDDED_LITTER = LitterTarget()


def embedded_litter_data() -> LitterTarget:
    """The full embedded litter table as a ready-to-sample target."""
    return _EMBEDDED_LITTER
