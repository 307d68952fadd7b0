"""Flat key-value experiment configuration: parsing, serialization and
validation into runnable objects.

The format is one ``section.key = value`` pair per line with ``#`` comments.
Vectors are comma-separated; lists of vectors (mode centers) separate the
vectors with semicolons. Command-line overrides replace file keys verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .adaptation import AdaptationConfig, Scheme
from .diagnostics import ModeSpec
from .distributions import Gaussian
from .runner import Kernel, RunConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config_text",
    "serialize_config",
    "load_config_file",
    "build_experiment",
]


class ConfigError(ValueError):
    """Configuration that fails to parse or validate."""


# key -> (type tag, default); None default means required or conditional.
_KNOWN_KEYS = {
    "target.kind": ("str", None),
    "target.path": ("str", None),
    "target.n_select": ("int", 4000),
    "target.n_features": ("int", 9),
    "target.train_fraction": ("float", 0.75),
    "target.header": ("bool", False),
    "target.seed": ("int", 0),
    "target.n_train": ("int", 3000),
    "target.n_test": ("int", 1000),
    "target.beta_scale": ("float", 2.0),
    "run.kernel": ("str", None),
    "run.chains": ("int", None),
    "run.iterations": ("int", None),
    "run.burn_in": ("int", None),
    "run.master_seed": ("int", RunConfig.master_seed),
    "run.steps_per_iteration": ("int", RunConfig.steps_per_iteration),
    "run.mh_proposal_scale": ("float", None),
    "init.mean": ("vector", None),
    "init.cov_scale": ("float", None),
    "adaptation.scheme": ("str", AdaptationConfig.scheme.value),
    "adaptation.components": ("int", AdaptationConfig.components),
    "adaptation.interval": ("int", AdaptationConfig.interval),
    "adaptation.reg_radius": ("float", AdaptationConfig.reg_radius),
    "adaptation.em_max_iters": ("int", AdaptationConfig.em_max_iters),
    "adaptation.em_tol": ("float", AdaptationConfig.em_tol),
    "adaptation.fixed_dof": ("float", AdaptationConfig.fixed_dof),
    "report.window": ("int", None),
    "report.mode_centers": ("centers", None),
    "report.mode_radius": ("float", None),
    "output.dir": ("str", "out"),
}

_TARGET_KINDS = ("gauss_mix", "logistic", "logistic_synth", "litter")


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse the flat format into an ordered ``{key: raw-string}`` mapping."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        entries[key] = value
    return entries


def serialize_config(entries: dict) -> str:
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    return "\n".join(lines) + "\n"


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def _coerce(key: str, raw: str):
    kind, _default = _KNOWN_KEYS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "vector":
            return np.array([float(v) for v in raw.split(",") if v.strip() != ""])
        if kind == "centers":
            return tuple(
                np.array([float(v) for v in part.split(",") if v.strip() != ""])
                for part in raw.split(";")
                if part.strip() != ""
            )
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _value(entries: dict, key: str, required: bool = False):
    """The value of ``key`` in ``entries``, or its default; ``KeyError`` for
    an unknown key, ``ConfigError`` for a missing required one."""
    if key in entries:
        return _coerce(key, entries[key])
    default = _KNOWN_KEYS[key][1]
    if required and default is None:
        raise ConfigError(f"missing required key {key!r}")
    return default


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: target recipe, run settings, reporting."""

    entries: dict
    target_kind: str
    run_config: RunConfig
    report_window: int
    mode_spec: ModeSpec | None
    output_dir: str

    def value(self, key: str):
        return _value(self.entries, key)


def build_experiment(entries: dict) -> ExperimentConfig:
    """Validate raw entries and assemble runnable configuration objects.

    The dimension is that of ``init.mean``; whether the target has it is
    checked once the target is built (``rgess.runner._check_target``).
    """
    get = partial(_value, entries)

    target_kind = get("target.kind", required=True)
    if target_kind not in _TARGET_KINDS:
        raise ConfigError(
            f"target.kind must be one of {_TARGET_KINDS}, got {target_kind!r}"
        )
    target_seed = get("target.seed")
    if target_seed < 0:
        raise ConfigError(f"target.seed must be >= 0, got {target_seed}")
    if target_kind == "logistic":
        path = get("target.path", required=True)
        if not os.path.exists(path):
            raise ConfigError(
                f"target.path does not exist: {path}\n"
                "expected format: comma-separated numeric CSV, no header by "
                "default (set target.header = true to skip one line), class "
                "label in the last column; the first target.n_features "
                "columns are used as features"
            )

    mean = get("init.mean", required=True)
    dim = mean.shape[0]
    if dim == 0:
        raise ConfigError("init.mean has dimension 0; it needs one entry per coordinate")
    scale = get("init.cov_scale", required=True)
    try:
        init = Gaussian(mean, scale * np.eye(dim))
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(
            f"invalid init distribution (init.mean, init.cov_scale): {exc}"
        ) from exc

    kernel_raw = get("run.kernel", required=True)
    try:
        kernel = Kernel(kernel_raw)
    except ValueError:
        raise ConfigError(
            f"run.kernel must be one of {[k.value for k in Kernel]}, got {kernel_raw!r}"
        ) from None
    scheme_raw = get("adaptation.scheme")
    try:
        scheme = Scheme(scheme_raw)
    except ValueError:
        raise ConfigError(
            f"adaptation.scheme must be one of {[s.value for s in Scheme]}, "
            f"got {scheme_raw!r}"
        ) from None

    try:
        adaptation = AdaptationConfig(
            scheme=scheme,
            components=get("adaptation.components"),
            interval=get("adaptation.interval"),
            reg_radius=get("adaptation.reg_radius"),
            em_max_iters=get("adaptation.em_max_iters"),
            em_tol=get("adaptation.em_tol"),
            fixed_dof=get("adaptation.fixed_dof"),
        )
        run_config = RunConfig(
            chains=get("run.chains", required=True),
            iterations=get("run.iterations", required=True),
            burn_in=get("run.burn_in", required=True),
            kernel=kernel,
            init=init,
            adaptation=adaptation,
            master_seed=get("run.master_seed"),
            steps_per_iteration=get("run.steps_per_iteration"),
            mh_proposal_scale=get("run.mh_proposal_scale"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    centers = get("report.mode_centers")
    radius = get("report.mode_radius")
    mode_spec = None
    if radius is not None and centers is None:
        raise ConfigError("report.mode_radius requires report.mode_centers")
    if centers is not None:
        if radius is None:
            raise ConfigError("report.mode_centers requires report.mode_radius")
        for c in centers:
            if c.shape != (dim,):
                raise ConfigError(
                    f"report.mode_centers has a center of dimension {c.shape[0]}, "
                    f"init.mean has dimension {dim}"
                )
        try:
            mode_spec = ModeSpec(centers=centers, radius=radius)
        except ValueError as exc:
            raise ConfigError(f"report.mode_centers, report.mode_radius: {exc}") from exc

    window = get("report.window")
    if window is None:
        window = adaptation.interval
    if window < 1:
        raise ConfigError(f"report.window must be >= 1, got {window}")

    return ExperimentConfig(
        entries=dict(entries),
        target_kind=target_kind,
        run_config=run_config,
        report_window=window,
        mode_spec=mode_spec,
        output_dir=get("output.dir"),
    )
