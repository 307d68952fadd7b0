"""Rejection-rate series, accuracy, mode coverage, moment summaries and CSV
trace persistence.

Every CSV file rgess reads (traces, mixtures, covtype data) goes through
one reader, ``_read_csv``, with each row checked by ``_parse_row``; every
CSV file it writes goes through one writer, ``_write_csv``, which streams
its rows. Blank rows are skipped. A row with the wrong number of fields or
a value that does not parse raises a ``ValueError`` that names it as
``path:line``, and so does a file that cannot be opened; the command line
reports either with exit 1. Covtype data, the one input that may carry a
header, is read through ``_read_data_csv``: line 1 is a header only when
none of its fields parses as a number.

All decimals are written with 17 significant digits so that float64 values
round-trip exactly through the CSV files.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .distributions import _mixture

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
        centers = tuple(np.asarray(c, dtype=float) for c in self.centers)
        if not all(np.isfinite(c).all() for c in centers):
            raise ValueError(f"mode centers must be finite, got {[c.tolist() for c in centers]}")
        object.__setattr__(self, "centers", centers)


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


def _post_burn_in_points(traces, burn_in: int):
    return [rec.point for chain in traces for rec in chain if rec.iteration > burn_in]


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


def posterior_mean(traces, burn_in: int) -> np.ndarray:
    """Arithmetic mean of post-burn-in samples pooled over chains."""
    points = _post_burn_in_points(traces, burn_in)
    if not points:
        raise ValueError("no post-burn-in samples selected")
    return np.stack(points).mean(axis=0)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

_TRACE_COLUMNS = ["chain", "iteration", "region", "rejections"]


def _read_csv(path, what):
    """Yield ``(line number, fields)`` for each non-blank row of ``path``; a
    file that cannot be opened raises ``ValueError("cannot read <what> ...")``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for fields in reader:
                if fields:
                    yield reader.line_num, fields
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_data_csv(path, what):
    """:func:`_read_csv` of a file of numeric rows, without line 1 when none
    of its fields parses as a number: that line is a header."""
    for line, fields in _read_csv(path, what):
        if line != 1 or any(map(_is_number, fields)):
            yield line, fields


def _parse_row(path, line, fields, width, parse):
    """``parse(fields)`` of a row of ``width`` fields; any error names the
    row as ``path:line``."""
    if len(fields) != width:
        raise ValueError(f"{path}:{line}: expected {width} fields, got {len(fields)}")
    try:
        return parse(fields)
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from exc


def _write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows`` as it is produced, to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _mixtures_header(dim: int) -> list:
    return (["iteration", "component", "weight"] + [f"mean{i}" for i in range(dim)]
            + [f"cov{i}" for i in range(dim * dim)] + ["dof"])


def write_mixtures_csv(mixture_history, path, dim: int | None = None) -> None:
    """Write ``(iteration, mixture)`` pairs in the flat mixture-bank format."""
    if mixture_history:
        dim = mixture_history[0][1].dim
    rows = (
        [iteration, k, _fmt(mixture.weights[k]), *map(_fmt, mixture._means[k]),
         *map(_fmt, mixture._scales[k].reshape(-1)),
         "" if mixture._dofs is None else _fmt(mixture._dofs[k])]
        for iteration, mixture in mixture_history
        for k in range(mixture.n_components)
    )
    _write_csv(path, _mixtures_header(dim or 0), rows)


def write_trace_csv(traces, mixture_history, path, mixtures_path) -> None:
    """Write traces to ``path`` and the mixture history to ``mixtures_path``."""
    dim = next((len(chain[0].point) for chain in traces if chain), 0)
    rows = ([rec.chain, rec.iteration, rec.region, rec.rejections, *map(_fmt, rec.point)]
            for chain in traces for rec in chain)
    _write_csv(path, _TRACE_COLUMNS + [f"x{i}" for i in range(dim)], rows)
    write_mixtures_csv(mixture_history, mixtures_path, dim=dim)


def _mixture_row(fields, dim):
    mean_end = 3 + dim
    return (int(fields[0]), int(fields[1]), float(fields[2]),
            np.array([float(v) for v in fields[3:mean_end]]),
            np.array([float(v) for v in fields[mean_end:-1]]).reshape(dim, dim),
            None if fields[-1] == "" else float(fields[-1]))


def read_mixtures_csv(path):
    """Read a mixture-bank CSV back into ``(iteration, MixtureModel)`` pairs.

    The file may come from outside the program, so each iteration must list
    components 0..M-1 once each, give a dof for all of them or for none,
    and make a valid mixture; otherwise a ``ValueError`` names the file and
    the iteration.
    """
    rows = _read_csv(path, "mixtures CSV")
    line, header = next(rows, (1, None))
    if header is None:
        raise ValueError(f"{path}:1: missing header")
    dim = sum(name.startswith("mean") for name in header)
    if header != _mixtures_header(dim):
        raise ValueError(f"{path}:{line}: unrecognized header {header}")
    grouped = {}
    for line, fields in rows:
        row = _parse_row(path, line, fields, len(header), lambda f: _mixture_row(f, dim))
        grouped.setdefault(row[0], []).append(row[1:])
    mixture_history = []
    for iteration in sorted(grouped):
        components = sorted(grouped[iteration], key=lambda r: r[0])
        where = f"{path}: iteration {iteration}"
        indices = [r[0] for r in components]
        if indices != list(range(len(components))):
            raise ValueError(f"{where}: component indices {indices} are not "
                             f"0..{len(components) - 1} once each")
        # 17-significant-digit encoding round-trips exactly, so the
        # weights still satisfy the mixture invariants as written.
        _, weights, means, scales, dofs = zip(*components)
        if len({dof is None for dof in dofs}) != 1:
            raise ValueError(f"{where}: some components have a dof and some do not")
        try:
            mixture = _mixture(np.array(weights), means, scales,
                               None if dofs[0] is None else dofs)
        except ValueError as exc:
            raise ValueError(f"{where}: invalid mixture ({exc})") from exc
        mixture_history.append((iteration, mixture))
    return mixture_history


def _trace_record(fields):
    chain, iteration, region, rejections = map(int, fields[:4])
    point = [float(v) for v in fields[4:]]
    if not all(map(math.isfinite, point)):
        raise ValueError("non-finite value")
    return TraceRecord(chain, iteration, np.array(point), rejections, region)


def read_trace_csv(path, mixtures_path):
    """Read back traces and mixture history written by :func:`write_trace_csv`.

    Returns ``(traces, mixture_history)``; the mixture file is optional and an
    empty history is returned when ``mixtures_path`` does not exist. Every
    coordinate must be finite, and the chains must be numbered 0..K-1 and
    record the same iterations, each in increasing order; otherwise a
    ``ValueError`` names the file.
    """
    rows = _read_csv(path, "trace CSV")
    line, header = next(rows, (1, None))
    if header is None:
        raise ValueError(f"{path}:1: missing header")
    if header[:4] != _TRACE_COLUMNS:
        raise ValueError(f"{path}:{line}: unrecognized header {header[:4]}")
    per_chain = {}
    for line, fields in rows:
        rec = _parse_row(path, line, fields, len(header), _trace_record)
        chain = per_chain.setdefault(rec.chain, [])
        if chain and rec.iteration <= chain[-1].iteration:
            raise ValueError(f"{path}:{line}: iteration {rec.iteration} does not "
                             f"increase within chain {rec.chain}")
        chain.append(rec)
    ids = sorted(per_chain)
    if ids and (ids[0], ids[-1]) != (0, len(ids) - 1):
        raise ValueError(f"{path}: chain ids run from {ids[0]} to {ids[-1]}, not 0..{len(ids) - 1}")
    traces = [per_chain[c] for c in ids]
    recorded = [[rec.iteration for rec in chain] for chain in traces]
    if any(iterations != recorded[0] for iterations in recorded):
        raise ValueError(f"{path}: the chains record different iterations")
    if not os.path.exists(mixtures_path):
        return traces, []
    return traces, read_mixtures_csv(mixtures_path)
