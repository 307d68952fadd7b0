"""Rejection-rate series, accuracy, mode coverage, moment summaries and CSV
trace persistence.

All decimals are written with 17 significant digits so that float64 values
round-trip exactly through the CSV files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .distributions import Gaussian, _mixture

__all__ = [
    "TraceRecord",
    "ModeSpec",
    "rejection_rate_series",
    "accuracy",
    "mode_coverage",
    "posterior_mean",
    "write_trace_csv",
    "read_trace_csv",
    "write_mixtures_csv",
    "read_mixtures_csv",
    "mixtures_path_for",
]


@dataclass(frozen=True)
class TraceRecord:
    chain: int
    iteration: int
    point: np.ndarray
    rejections: int
    region: int


@dataclass(frozen=True)
class ModeSpec:
    """Ball centers and a common radius used to score mode visits."""

    centers: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"mode radius must be positive, got {self.radius}")
        object.__setattr__(
            self, "centers", tuple(np.asarray(c, dtype=float) for c in self.centers)
        )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def rejection_rate_series(traces, window: int):
    """Mean rejections over all chains within consecutive iteration windows.

    Iterations are windowed in trace order; a trailing partial window is
    averaged over the records it contains.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not traces or all(len(t) == 0 for t in traces):
        raise ValueError("empty traces")
    n_iters = len(traces[0])
    if any(len(t) != n_iters for t in traces):
        raise ValueError("trace lengths differ across chains")
    rej = np.array([[rec.rejections for rec in chain] for chain in traces], dtype=float)
    series = []
    for start in range(0, n_iters, window):
        series.append(float(rej[:, start:start + window].mean()))
    return series


def accuracy(beta_hat, test) -> float:
    """Fraction of test points whose thresholded prediction matches the label.

    The prediction is 1 exactly when logistic(beta . x) > 0.5, so the boundary
    p = 0.5 maps to class 0.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    if test.test_x.shape[0] == 0:
        raise ValueError("empty test set")
    if beta_hat.shape != (test.test_x.shape[1],):
        raise ValueError(
            f"beta dimension {beta_hat.shape} does not match test design "
            f"{test.test_x.shape}"
        )
    pred = (test.test_x @ beta_hat > 0.0).astype(float)
    return float(np.mean(pred == test.test_y))


def _post_burn_in_points(traces, burn_in: int, thinning: int = 1):
    points = []
    for chain in traces:
        kept = [rec.point for rec in chain if rec.iteration > burn_in]
        points.extend(kept[::thinning])
    return points


def mode_coverage(traces, modes: ModeSpec, burn_in: int):
    """Per-mode fraction of post-burn-in samples within the mode's ball."""
    points = _post_burn_in_points(traces, burn_in)
    if not points:
        return [0.0 for _ in modes.centers]
    pts = np.stack(points)
    fractions = []
    for center in modes.centers:
        dist = np.linalg.norm(pts - center[None, :], axis=1)
        fractions.append(float(np.mean(dist <= modes.radius)))
    return fractions


def posterior_mean(traces, burn_in: int, thinning: int = 1) -> np.ndarray:
    """Arithmetic mean of post-burn-in, thinned samples pooled over chains."""
    if thinning < 1:
        raise ValueError(f"thinning must be >= 1, got {thinning}")
    points = _post_burn_in_points(traces, burn_in, thinning)
    if not points:
        raise ValueError("no post-burn-in samples selected")
    return np.stack(points).mean(axis=0)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def mixtures_path_for(trace_path) -> str:
    trace_path = str(trace_path)
    stem = trace_path[:-4] if trace_path.endswith(".csv") else trace_path
    return stem + ".mixtures.csv"


def write_mixtures_csv(mixture_history, path, dim: int | None = None) -> None:
    """Write ``(iteration, mixture)`` pairs in the flat mixture-bank format."""
    mdim = dim
    for _, mixture in mixture_history:
        mdim = mixture.dim
        break
    if mdim is None:
        mdim = 0
    header = (
        ["iteration", "component", "weight"]
        + [f"mean{i}" for i in range(mdim)]
        + [f"cov{i}" for i in range(mdim * mdim)]
        + ["dof"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for iteration, mixture in mixture_history:
            for k, comp in enumerate(mixture.components):
                dof = "" if isinstance(comp, Gaussian) else _fmt(comp.dof)
                writer.writerow(
                    [iteration, k, _fmt(mixture.weights[k])]
                    + [_fmt(v) for v in comp.mean]
                    + [_fmt(v) for v in comp.scale.reshape(-1)]
                    + [dof]
                )


def write_trace_csv(traces, mixture_history, path, mixtures_path=None) -> None:
    """Write traces to ``path`` and the mixture history to ``mixtures_path``
    (default: the sibling ``*.mixtures.csv`` file)."""
    dim = None
    for chain in traces:
        if chain:
            dim = len(chain[0].point)
            break
    if dim is None:
        dim = 0
    header = ["chain", "iteration", "region", "rejections"] + [
        f"x{i}" for i in range(dim)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for chain in traces:
            for rec in chain:
                writer.writerow(
                    [rec.chain, rec.iteration, rec.region, rec.rejections]
                    + [_fmt(v) for v in rec.point]
                )
    if mixtures_path is None:
        mixtures_path = mixtures_path_for(path)
    write_mixtures_csv(mixture_history, mixtures_path, dim=dim)


def _parse_row(path, lineno, row, n_fields):
    if len(row) != n_fields:
        raise ValueError(
            f"{path}:{lineno}: expected {n_fields} fields, got {len(row)}"
        )
    try:
        chain = int(row[0])
        iteration = int(row[1])
        region = int(row[2])
        rejections = int(row[3])
        point = np.array([float(v) for v in row[4:]])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from exc
    return TraceRecord(chain, iteration, point, rejections, region)


def read_mixtures_csv(path):
    """Read a mixture-bank CSV back into ``(iteration, MixtureModel)`` pairs."""
    mixture_history = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: missing header") from None
        n_cols = len(header)
        dim = 0
        while 3 + dim < n_cols and header[3 + dim].startswith("mean"):
            dim += 1
        grouped = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise ValueError(
                    f"{path}:{lineno}: expected {n_cols} fields, got {len(row)}"
                )
            try:
                iteration = int(row[0])
                component = int(row[1])
                weight = float(row[2])
                mean = np.array([float(v) for v in row[3:3 + dim]])
                cov = np.array(
                    [float(v) for v in row[3 + dim:3 + dim + dim * dim]]
                ).reshape(dim, dim)
                dof = float(row[-1]) if row[-1] != "" else None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from exc
            grouped.setdefault(iteration, []).append((component, weight, mean, cov, dof))
        for iteration in sorted(grouped):
            rows = sorted(grouped[iteration])
            # 17-significant-digit encoding round-trips exactly, so the
            # weights still satisfy the mixture invariants as written.
            _, weights, means, scales, dofs = zip(*rows)
            mixture = _mixture(np.array(weights), means, scales,
                               None if dofs[0] is None else dofs)
            mixture_history.append((iteration, mixture))
    return mixture_history


def read_trace_csv(path, mixtures_path=None):
    """Read back traces and mixture history written by :func:`write_trace_csv`.

    Returns ``(traces, mixture_history)``; the mixture file is optional and an
    empty history is returned when it is absent.
    """
    per_chain = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: missing header") from None
        if header[:4] != ["chain", "iteration", "region", "rejections"]:
            raise ValueError(f"{path}:1: unrecognized header {header[:4]}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            rec = _parse_row(path, lineno, row, len(header))
            chain = per_chain.setdefault(rec.chain, [])
            if chain and rec.iteration <= chain[-1].iteration:
                raise ValueError(
                    f"{path}:{lineno}: iteration {rec.iteration} does not "
                    f"increase within chain {rec.chain}"
                )
            chain.append(rec)
    traces = [per_chain[c] for c in sorted(per_chain)]

    if mixtures_path is None:
        mixtures_path = mixtures_path_for(path)
    try:
        with open(mixtures_path, newline=""):
            pass
    except OSError:
        return traces, []
    return traces, read_mixtures_csv(mixtures_path)
