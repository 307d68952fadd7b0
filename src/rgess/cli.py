"""Command-line front end.

``rgess run <config>`` executes an experiment and writes trace, mixture and
summary CSVs; ``rgess report <dir>`` recomputes the diagnostics from the CSVs
alone. ``<config>`` is a path or the name of a bundled preset.

Exit codes: 0 success, 1 configuration/validation error (nothing written),
2 runtime failure, including an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

import numpy as np

from . import targets as tg
from .config import (
    _TARGET_KEYS,
    ConfigError,
    ExperimentConfig,
    build_experiment,
    load_config_file,
    parse_config_text,
    serialize_config,
)
from .diagnostics import (
    _fmt,
    _write_csv,
    accuracy,
    mode_coverage,
    posterior_mean,
    read_trace_csv,
    rejection_rate_series,
    write_trace_csv,
)
from .runner import RunError, _check_target, run

__all__ = ["main", "cmd_run", "cmd_report"]

_SUMMARY_COLUMNS = ["metric", "key", "value"]


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def resolve_config_source(name: str) -> dict:
    """Load a config from a path, or from the bundled presets by name."""
    if os.path.exists(name):
        return load_config_file(name)
    preset = resources.files("rgess").joinpath("presets", f"{name}.cfg")
    if preset.is_file():
        return parse_config_text(preset.read_text(encoding="utf-8"), origin=name)
    raise ConfigError(f"no such config file or preset: {name}")


def available_presets() -> list:
    root = resources.files("rgess").joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def build_target(exp: ExperimentConfig):
    """Instantiate the configured target; returns (TargetDensity, extras),
    where extras holds the gauss_mix mode balls or the logistic data."""
    kind = exp.target_kind
    if kind == "gauss_mix":
        return tg.gauss_mix_target().as_target_density(), {"modes": tg.GaussMixTarget.MODES}
    if kind == "litter":
        return tg.embedded_litter_data().as_target_density(), {}
    # each target.* key the kind reads names a parameter of its loader
    args = {key.split(".", 1)[1]: exp.value(key) for key in _TARGET_KEYS[kind]}
    if kind == "logistic_synth":
        dataset, beta_star = tg.make_synthetic_logistic(**args)
        target = dataset.training_target().as_target_density()
        return target, {"dataset": dataset, "beta_star": beta_star}
    dataset = tg.load_covtype(**args)
    return dataset.training_target().as_target_density(), {"dataset": dataset}


def compute_summary_rows(traces, exp: ExperimentConfig, window: int, extras: dict):
    """Diagnostic rows recomputable from traces plus the experiment config."""
    burn_in = exp.run_config.burn_in
    rows = [("rejection_window", "", str(window))]
    for idx, value in enumerate(rejection_rate_series(traces, window)):
        rows.append(("rejection_rate", str(idx), _fmt(value)))
    all_rej = [rec.rejections for chain in traces for rec in chain]
    rows.append(("mean_rejections_per_iteration", "", _fmt(float(np.mean(all_rej)))))
    beta_hat = posterior_mean(traces, burn_in)
    for idx, value in enumerate(beta_hat):
        rows.append(("posterior_mean", str(idx), _fmt(value)))
    modes = extras.get("modes")
    if modes is not None:
        for idx, value in enumerate(mode_coverage(traces, modes, burn_in)):
            rows.append(("mode_coverage", str(idx), _fmt(value)))
    dataset = extras.get("dataset")
    if dataset is not None and dataset.test_x.shape[0] > 0:
        rows.append(("accuracy", "", _fmt(accuracy(beta_hat, dataset))))
    return rows


def cmd_run(args) -> int:
    try:
        entries = resolve_config_source(args.config)
        for override in args.set or []:
            if "=" not in override:
                raise ConfigError(f"--set expects key=value, got {override!r}")
            text = override.replace("=", " = ", 1)
            entries.update(parse_config_text(text, origin="--set"))
        if args.out is not None:
            entries["output.dir"] = args.out
        exp = build_experiment(entries)
        target, extras = build_target(exp)
        _check_target(exp.run_config, target)
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc), 1)

    try:
        result = run(exp.run_config, target)
        out_dir = exp.output_dir
        os.makedirs(out_dir, exist_ok=True)
        write_trace_csv(
            result.traces,
            result.mixture_history,
            os.path.join(out_dir, "trace.csv"),
            mixtures_path=os.path.join(out_dir, "mixtures.csv"),
        )
        rows = compute_summary_rows(result.traces, exp, exp.report_window, extras)
        _write_csv(os.path.join(out_dir, "summary.csv"), _SUMMARY_COLUMNS, rows)
        with open(os.path.join(out_dir, "config.cfg"), "w", encoding="utf-8") as fh:
            fh.write(serialize_config(exp.entries))
    except RunError as exc:
        return _fail(str(exc), 2)
    except Exception as exc:  # noqa: BLE001 - surfaced as a runtime failure
        return _fail(f"run failed: {exc}", 2)
    print(f"wrote trace.csv, mixtures.csv, summary.csv to {out_dir}")
    return 0


def cmd_report(args) -> int:
    trace_path = os.path.join(args.trace_dir, "trace.csv")
    config_path = os.path.join(args.trace_dir, "config.cfg")
    for path in (trace_path, config_path):
        if not os.path.exists(path):
            return _fail(f"missing required file: {path}", 1)
    try:
        entries = load_config_file(config_path)
        exp = build_experiment(entries)
        traces, _history = read_trace_csv(
            trace_path, mixtures_path=os.path.join(args.trace_dir, "mixtures.csv")
        )
        rc = exp.run_config
        recorded = list(range(1, rc.iterations + 1))
        if len(traces) != rc.chains or [rec.iteration for rec in traces[0]] != recorded:
            raise ConfigError(f"{trace_path}: config.cfg records {rc.chains} chains at "
                              f"iterations 1 to {rc.iterations}; this file does not")
        target, extras = build_target(exp)
        _check_target(rc, target)
        window = args.window if args.window is not None else exp.report_window
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        rows = compute_summary_rows(traces, exp, window, extras)
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc), 1)
    report_path = os.path.join(args.trace_dir, "report.csv")
    try:
        _write_csv(report_path, _SUMMARY_COLUMNS, rows)
    except OSError as exc:
        return _fail(f"cannot write {report_path}: {exc}", 2)
    print(f"wrote report.csv to {args.trace_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgess",
        description="Regional generalized elliptical slice sampling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config or preset")
    p_run.add_argument("config", help="config path or preset name "
                                      f"(presets: {', '.join(available_presets()) or 'none'})")
    p_run.add_argument("--out", help="output directory (overrides output.dir)")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key; repeatable")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="recompute diagnostics from trace CSVs")
    p_rep.add_argument("trace_dir")
    p_rep.add_argument("--window", type=int, default=None,
                       help="rejection-rate window size")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
