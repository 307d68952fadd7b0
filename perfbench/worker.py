"""One round of a benchmark workload, in a process of its own.

``run.py`` starts this script once per round:

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR SPAWN_TIME MODE

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time counts interpreter start
and imports. The round sets up, runs the workload once, checks its outputs
and prints one JSON object on its last line. MODE 1 installs the per-layer
spans of ``tracing.py`` after set-up, MODE 0 does not, and MODE setup stops
after set-up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
from time import perf_counter

import numpy as np

# name -> (preset, iterations, burn-in, kernel step, refit function).
# Iterations and burn-in pin the run length at the shipped values, so that
# editing a preset does not change the benchmark; every other setting is
# the preset as shipped.
PRESETS = {
    "gaussmix-tmrgess": ("gauss-mix-tmrgess", 500, 100, "tmrgess_step", "em_tmm_fit"),
    "logistic-synth": ("logistic-synth", 1200, 600, "tmrgess_step", "em_tmm_fit"),
    "gaussmix-em-gmrgess": ("gauss-mix-em-gmrgess", 500, 100, "gmrgess_step", "em_gmm_fit"),
}
KERNEL_1D = "kernel-1d"
WORKLOADS = {**{name: 20240501 for name in PRESETS}, KERNEL_1D: 1003}

# kernel-1d: criterion 3's set-up and length, one chain stepped directly.
KERNEL_1D_BURN_IN = 1000
KERNEL_1D_STEPS = 1_000_000
_LOG_W1, _LOG_W2 = math.log(0.6), math.log(0.4)
_C1 = -0.5 * math.log(2.0 * math.pi * 1.0)
_C2 = -0.5 * math.log(2.0 * math.pi * 2.25)

# The four-mode target: means and the common covariance 10 I.
MODES = np.array([[25.0, 50.0], [5.0, 5.0], [50.0, 5.0], [50.0, 50.0]])
MODE_VAR = 10.0
BALL_RADIUS = 3.0 * math.sqrt(MODE_VAR)

DENSITIES = ("rgess.distributions", "MixtureModel._log_densities")


def bimodal_logpdf(x):
    """0.6 N(-2.5, 1) + 0.4 N(2.5, 1.5^2), criterion 3's 1-D target."""
    v = x[0]
    a = _LOG_W1 + _C1 - 0.5 * (v + 2.5) ** 2
    b = _LOG_W2 + _C2 - 0.5 * (v - 2.5) ** 2 / 2.25
    m = a if a > b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _check(checks, name, ok, detail):
    checks[name] = {"ok": bool(ok), "detail": detail}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ess_rhat(draws):
    """Minimum bulk ESS and maximum split-R-hat over coordinates of
    (chains, draws, D) draws."""
    # Imported after set-up, so that scipy.stats is not timed in setup_s.
    from ess import bulk_ess, split_rhat

    dims = range(draws.shape[2])
    return (min(bulk_ess(draws[:, :, d]) for d in dims),
            max(split_rhat(draws[:, :, d]) for d in dims))


# ---------------------------------------------------------------------------
# checks against computations made apart from the program
# ---------------------------------------------------------------------------


def check_modes(checks, draws, all_modes):
    """Checks of (chains, draws, 2) draws of the four-mode target.

    Every draw belongs to its nearest mode; the modes lie at least 25 apart,
    so that cut is more than 3.9 sd from every mean. With ``all_modes``
    every mode must hold draws, and the mean of each mode's draws must lie
    within 1.0 (0.32 sd) of the mode. A 5% floor on each mode's share is
    not checked: it fails on some seeds (seed 19 gives 4.1%), which would
    make the result depend on the seed.

    Otherwise the chains that stay in one mode are checked against
    N(mode, 10 I), for each mode that holds at least 5% of the chains: the
    mean and the per-coordinate variance about the mode must lie within 4
    Monte Carlo standard errors, set by the bulk ESS of those chains.
    """
    from ess import bulk_ess

    chains = draws.shape[0]
    dist = np.linalg.norm(draws[:, :, None, :] - MODES, axis=3)
    inside = float(np.mean(dist.min(axis=2) <= BALL_RADIUS))
    # A 2-D Gaussian puts 1 - exp(-4.5) = 98.9% of its mass within 3 sd.
    _check(checks, "draws_in_3sd_balls", inside >= 0.98, f"{inside:.4f} >= 0.98")
    nearest = dist.argmin(axis=2)
    shares = np.bincount(nearest.ravel(), minlength=len(MODES)) / nearest.size
    if all_modes:
        _check(checks, "every_mode_visited", shares.min() > 0.0,
               f"shares {np.round(shares, 4).tolist()} > 0")
        points = draws.reshape(-1, 2)
        for k, mode in enumerate(MODES):
            err = float(np.abs(points[nearest.ravel() == k].mean(axis=0) - mode).max())
            _check(checks, f"mode{k}_mean", err <= 1.0,
                   f"max |mean - mode| {err:.3f} <= 1.0")
        return
    for k, mode in enumerate(MODES):
        members = np.flatnonzero((nearest == k).all(axis=1))
        if len(members) < 0.05 * chains:
            continue
        x = draws[members]
        for d in range(2):
            dev = x[:, :, d] - mode[d]
            err, tol = abs(dev.mean()), 4.0 * math.sqrt(MODE_VAR / bulk_ess(dev))
            _check(checks, f"mode{k}_mean{d}", err <= tol, f"|mean - mode| {err:.3f} <= {tol:.3f}")
            # Var((x - mu)^2) = 2 sigma^4 for a Gaussian coordinate.
            var = float(np.mean(dev * dev))
            tol = 4.0 * math.sqrt(2.0 * MODE_VAR ** 2 / bulk_ess(dev * dev))
            _check(checks, f"mode{k}_var{d}", abs(var - MODE_VAR) <= tol,
                   f"|{var:.3f} - {MODE_VAR}| <= {tol:.3f}")


def check_logistic(checks, draws, dataset, beta_star):
    """Posterior mean against a maximum-likelihood estimate computed here;
    test accuracy against the true coefficients' accuracy."""
    from scipy.optimize import minimize

    x, y = dataset.train_x, dataset.train_y

    def neg_loglik(beta):
        t = x @ beta
        p = 0.5 * (1.0 + np.tanh(0.5 * t))
        return float(np.sum(np.logaddexp(0.0, t) - y * t)), x.T @ (p - y)

    mle = minimize(neg_loglik, np.zeros(x.shape[1]), jac=True, method="BFGS",
                   options={"gtol": 1e-9}).x
    pooled = draws.reshape(-1, draws.shape[2])
    gap = float(np.max(np.abs(pooled.mean(axis=0) - mle) / pooled.std(axis=0)))
    # Flat prior and n = 3000: posterior mean and MLE differ by O(1/n).
    _check(checks, "posterior_mean_vs_mle", gap <= 0.25,
           f"max |mean - mle| / sd {gap:.4f} <= 0.25")

    def test_accuracy(beta):
        return float(np.mean((dataset.test_x @ beta > 0.0) == (dataset.test_y == 1.0)))

    acc, acc_star = test_accuracy(pooled.mean(axis=0)), test_accuracy(beta_star)
    _check(checks, "test_accuracy", abs(acc - acc_star) <= 0.02,
           f"|{acc:.4f} - {acc_star:.4f}| <= 0.02")


def check_roundtrip(checks, traces, history, trace_path, mixtures_path):
    from rgess.diagnostics import read_trace_csv

    back, back_history = read_trace_csv(trace_path, mixtures_path=mixtures_path)
    same = len(back) == len(traces) and all(
        len(a) == len(b) and all(
            ra.chain == rb.chain and ra.iteration == rb.iteration
            and ra.region == rb.region and ra.rejections == rb.rejections
            and np.array_equal(ra.point, rb.point)
            for ra, rb in zip(a, b))
        for a, b in zip(traces, back))
    same_history = [it for it, _ in back_history] == [it for it, _ in history] and all(
        np.array_equal(ma.weights, mb.weights)
        for (_, ma), (_, mb) in zip(history, back_history))
    _check(checks, "trace_csv_roundtrip", same and same_history,
           "trace.csv and mixtures.csv read back equal to the in-memory run")


# ---------------------------------------------------------------------------
# per-layer metrics of a traced round
# ---------------------------------------------------------------------------


def layer_metrics(tracer, step_label, refit_label, run_span, timings, max_shrink):
    """Reduce the tracer's spans to the per-layer metrics. A metric whose
    wrapped name is missing is None, with the reason in the second dict."""
    values, notes = {}, {}
    densities_label = ".".join(DENSITIES)
    missing = dict(tracer.missing)
    shrink = "rgess.samplers.MAX_SHRINK_ITERS"
    if max_shrink is None:
        missing[shrink] = f"{shrink} does not exist"

    def put(name, compute, *needs):
        gone = [missing[n] for n in needs if n in missing]
        if gone:
            values[name], notes[name] = None, "not measured: " + "; ".join(gone)
        else:
            values[name] = compute()

    rows = tracer.step_rows()
    durations = rows[:, 1] - rows[:, 0]
    self_s, rejections, log_pi_calls = rows[:, 2], rows[:, 3], rows[:, 4]
    n_steps = len(rows)
    per_step = 1.0 / n_steps if n_steps else 0.0
    log_pi = np.array(tracer.log_pi_s)
    dens = np.array(tracer.density_s)
    refits = tracer.refits
    fits = [r[2] for r in refits if hasattr(r[2], "iterations_used")]

    def pct(a, q, scale):
        return float(np.percentile(a, q)) * scale if len(a) else 0.0

    put("samplers.step.calls", lambda: n_steps, step_label)
    put("samplers.step.us_p50", lambda: pct(durations, 50, 1e6), step_label)
    put("samplers.step.us_p99", lambda: pct(durations, 99, 1e6), step_label)
    put("samplers.step.self_us", lambda: float(self_s.sum()) * per_step * 1e6,
        step_label, "TargetDensity.log_pi", densities_label)
    put("samplers.proposals_per_step",
        lambda: float(np.sum(rejections + (rejections < max_shrink))) * per_step,
        step_label, shrink)
    put("samplers.target_evals_per_step", lambda: float(log_pi_calls.sum()) * per_step,
        step_label, "TargetDensity.log_pi")
    put("samplers.shrink_cap_hits", lambda: int(np.sum(rejections >= max_shrink)),
        step_label, shrink)
    put("distributions.component_densities.calls_per_step",
        lambda: len(dens) * per_step, step_label, densities_label)
    put("distributions.component_densities.us_p50", lambda: pct(dens, 50, 1e6),
        densities_label)
    put("targets.log_pi.calls", lambda: len(log_pi), "TargetDensity.log_pi")
    put("targets.log_pi.us_p50", lambda: pct(log_pi, 50, 1e6), "TargetDensity.log_pi")
    put("targets.log_pi.busy_s", lambda: float(log_pi.sum()), "TargetDensity.log_pi")
    refit_needs = (refit_label,) if refit_label else ()
    refit_s = np.array([end - start for start, end, _ in refits])
    put("adaptation.refit.calls", lambda: len(refits), *refit_needs)
    put("adaptation.refit.ms_p50", lambda: pct(refit_s, 50, 1e3), *refit_needs)
    put("adaptation.refit.busy_s", lambda: float(refit_s.sum()), *refit_needs)
    put("adaptation.refit.iterations",
        lambda: float(np.mean([f.iterations_used for f in fits])) if fits else 0.0,
        *refit_needs)
    put("adaptation.refit.unconverged",
        lambda: sum(1 for f in fits if not f.converged), *refit_needs)
    if run_span is None:
        values["runner.self_s"] = 0.0
    else:
        from tracing import union_length

        busy = np.concatenate([rows[:, :2], np.reshape([r[:2] for r in refits], (-1, 2))])
        put("runner.self_s",
            lambda: (run_span[1] - run_span[0]) - union_length(busy),
            step_label, *refit_needs)
    values.update(timings)
    return values, notes


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def preset_round(name, seed, out_dir, spawn, mode):
    preset, iterations, burn_in, step_name, refit_name = PRESETS[name]
    from rgess import cli
    from rgess.config import build_experiment, serialize_config
    from rgess.diagnostics import write_trace_csv
    from rgess.runner import run

    t_import = time.monotonic()
    entries = cli.resolve_config_source(preset)
    entries.update({
        "run.master_seed": str(seed),
        "run.iterations": str(iterations),
        "run.burn_in": str(burn_in),
        "output.dir": out_dir,
    })
    exp = build_experiment(entries)
    t_config = time.monotonic()
    target, extras = cli.build_target(exp)
    t_target = time.monotonic()
    if mode == "setup":
        return {"setup_s": t_target - spawn}

    tracer = None
    if mode == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.wrap_step("rgess.runner", step_name)
        tracer.wrap_log_pi(target)
        tracer.wrap_densities(*DENSITIES)
        tracer.wrap_refit("rgess.adaptation", refit_name)

    trace_path = os.path.join(out_dir, "trace.csv")
    mixtures_path = os.path.join(out_dir, "mixtures.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    os.makedirs(out_dir, exist_ok=True)
    t0 = perf_counter()
    result = run(exp.run_config, target)
    t1 = perf_counter()
    write_trace_csv(result.traces, result.mixture_history, trace_path,
                    mixtures_path=mixtures_path)
    t2 = perf_counter()
    rows = cli.compute_summary_rows(result.traces, exp, exp.report_window, extras)
    t3 = perf_counter()
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "key", "value"])
        writer.writerows(rows)
    with open(os.path.join(out_dir, "config.cfg"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(exp.entries))
    t4 = perf_counter()
    peak_rss = _peak_rss_mb()

    cfg = exp.run_config
    checks = {}
    check_roundtrip(checks, result.traces, result.mixture_history, trace_path,
                    mixtures_path)
    draws = np.array([[rec.point for rec in chain if rec.iteration > burn_in]
                      for chain in result.traces])
    min_ess, max_rhat = _ess_rhat(draws)
    if name == "logistic-synth":
        check_logistic(checks, draws, extras["dataset"], extras["beta_star"])
    else:
        check_modes(checks, draws, all_modes=name == "gaussmix-tmrgess")

    out = {
        "setup_s": t_target - spawn,
        "wall_s": t4 - t0,
        "sampling_s": t1 - t0,
        "kernel_steps": cfg.chains * cfg.iterations * cfg.steps_per_iteration,
        "min_ess": min_ess,
        "max_rhat": max_rhat,
        "peak_rss_mb": peak_rss,
        "checks": checks,
        "digest": _digest([trace_path, mixtures_path, summary_path]),
    }
    if tracer is not None:
        from rgess import samplers

        timings = {
            "diagnostics.write_trace_csv.s": t2 - t1,
            "diagnostics.trace_csv.bytes": os.path.getsize(trace_path),
            "cli.compute_summary_rows.s": t3 - t2,
            "setup.import_s": t_import - spawn,
            "config.build_experiment.s": t_config - t_import,
            "cli.build_target.s": t_target - t_config,
        }
        out["layers"], out["notes"] = layer_metrics(
            tracer, f"rgess.runner.{step_name}", f"rgess.adaptation.{refit_name}",
            (t0, t1), timings, getattr(samplers, "MAX_SHRINK_ITERS", None))
    return out


def kernel_1d_round(seed, spawn, mode):
    from rgess import samplers
    from rgess.distributions import MixtureModel, StudentT

    t_import = time.monotonic()
    target = samplers.TargetDensity(dim=1, log_pi=bimodal_logpdf)
    mixture = MixtureModel(
        [0.5, 0.5], [StudentT([-2.5], [[4.0]], 5.0), StudentT([2.5], [[6.25]], 7.0)]
    )
    t_target = time.monotonic()
    if mode == "setup":
        return {"setup_s": t_target - spawn}

    step, tracer = samplers.tmrgess_step, None
    if mode == "1":
        from tracing import Tracer

        tracer = Tracer()
        step = tracer.wrap_step("rgess.samplers", "tmrgess_step") or step
        tracer.wrap_log_pi(target)
        tracer.wrap_densities(*DENSITIES)

    rng = np.random.default_rng(seed)
    x = np.array([-2.5])
    state = samplers.ChainState(point=x, region=mixture.assign_region(x))
    points = np.empty(KERNEL_1D_STEPS)
    t0 = perf_counter()
    for _ in range(KERNEL_1D_BURN_IN):
        state = step(state, mixture, target, rng).next
    for i in range(KERNEL_1D_STEPS):
        state = step(state, mixture, target, rng).next
        points[i] = state.point[0]
    t1 = perf_counter()
    peak_rss = _peak_rss_mb()

    # Criterion 3's oracle: 41 bins of width 0.5 on [-10, 10] against the
    # normalized target density at the bin centres.
    idx = np.clip(np.floor((points + 10.0) / 0.5 + 0.5).astype(int), 0, 40)
    counts = np.bincount(idx, minlength=41)
    grid = np.linspace(-10.0, 10.0, 41)
    dens = np.exp([bimodal_logpdf([g]) for g in grid])
    tv = 0.5 * float(np.abs(counts / counts.sum() - dens / dens.sum()).sum())
    checks = {}
    _check(checks, "total_variation", tv <= 0.03, f"{tv:.4f} <= 0.03")
    min_ess, max_rhat = _ess_rhat(points[None, :, None])

    out = {
        "setup_s": t_target - spawn,
        "wall_s": t1 - t0,
        "sampling_s": t1 - t0,
        "kernel_steps": KERNEL_1D_BURN_IN + KERNEL_1D_STEPS,
        "min_ess": min_ess,
        "max_rhat": max_rhat,
        "peak_rss_mb": peak_rss,
        "checks": checks,
        "digest": hashlib.sha256(points.tobytes()).hexdigest(),
    }
    if tracer is not None:
        timings = {
            "diagnostics.write_trace_csv.s": 0.0,
            "diagnostics.trace_csv.bytes": 0,
            "cli.compute_summary_rows.s": 0.0,
            "setup.import_s": t_import - spawn,
            "config.build_experiment.s": 0.0,
            "cli.build_target.s": t_target - t_import,
        }
        out["layers"], out["notes"] = layer_metrics(
            tracer, "rgess.samplers.tmrgess_step", None, None, timings,
            getattr(samplers, "MAX_SHRINK_ITERS", None))
    return out


def main(argv) -> int:
    name, seed, out_dir, spawn, mode = argv
    if name == KERNEL_1D:
        out = kernel_1d_round(int(seed), float(spawn), mode)
    else:
        out = preset_round(name, int(seed), out_dir, float(spawn), mode)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
