"""rgess benchmark: wall time, kernel steps per second and ESS per second.

Run from the root of the repository:

    python3 perfbench/run.py --workload gaussmix-tmrgess --seed 20240501 \
        --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one after another

A run measures one workload for about ``--seconds`` seconds. Every round
(one run of the workload, from a fresh interpreter to its last output) is a
process of its own, started by this script and waited for; the rounds of a
run repeat the same seed, so their outputs must be byte-identical. Before
the rounds, a few processes only set up, so that ``setup_s`` is a median of
several start-ups.

``--trace 0`` reports the end-to-end metrics, medians over the rounds.
``--trace 1`` runs pairs of rounds on the same seed, one plain and one with
per-layer spans, reports the per-layer metrics of the traced rounds and the
tracing overhead, and checks that both write the same bytes. The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (rounds) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench-out"
SETUP_PROBES = 3
# A run must end within 180 s; no round may start a wait beyond this.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "kernel_steps_per_s": "1/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "samplers.step.calls": "count",
    "samplers.step.us_p50": "us",
    "samplers.step.us_p99": "us",
    "samplers.step.self_us": "us",
    "samplers.proposals_per_step": "count",
    "samplers.target_evals_per_step": "count",
    "samplers.shrink_cap_hits": "count",
    "distributions.component_densities.calls_per_step": "count",
    "distributions.component_densities.us_p50": "us",
    "targets.log_pi.calls": "count",
    "targets.log_pi.us_p50": "us",
    "targets.log_pi.busy_s": "s",
    "adaptation.refit.calls": "count",
    "adaptation.refit.ms_p50": "ms",
    "adaptation.refit.busy_s": "s",
    "adaptation.refit.iterations": "count",
    "adaptation.refit.unconverged": "count",
    "runner.self_s": "s",
    "diagnostics.write_trace_csv.s": "s",
    "diagnostics.trace_csv.bytes": "bytes",
    "cli.compute_summary_rows.s": "s",
    "setup.import_s": "s",
    "config.build_experiment.s": "s",
    "cli.build_target.s": "s",
    "trace.overhead_s": "s",
}


class RoundFailed(Exception):
    pass


def _child_env(root):
    env = dict(os.environ)
    # The runner's default pool is part of what is measured.
    env.pop("RGESS_THREADS", None)
    # On two CPUs numpy's spinning BLAS pool mostly measures the scheduler.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    return env


def _round(workload, seed, out_dir, mode, env, deadline):
    """One worker process; returns its JSON result or raises RoundFailed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RoundFailed("no time left for another round")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), out_dir, repr(spawn), mode],
            capture_output=True, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                          else f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit, note=None):
    entry = {"value": value, "unit": unit}
    if note:
        entry["note"] = note
    return entry


def run_workload(workload, seed, seconds, trace, root):
    env = _child_env(root)
    out_dir = os.path.join(root, OUT_DIR, workload)
    deadline = time.monotonic() + RUN_LIMIT_S
    problems, failures, attempted, failed = [], [], 0, 0
    rounds, pairs = [], []

    def attempt(mode):
        nonlocal attempted, failed
        attempted += 1
        try:
            return _round(workload, seed, out_dir, mode, env, deadline)
        except RoundFailed as exc:
            failed += 1
            failures.append(f"round failed: {exc}")
            return None

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _round(workload, seed, out_dir, "setup", env, deadline)
            setups.append(probe["setup_s"])
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        if trace:
            plain, traced = attempt("0"), attempt("1")
            if plain and traced:
                pairs.append((plain, traced))
            rounds += [r for r in (plain, traced) if r]
        else:
            result = attempt("0")
            if result:
                rounds.append(result)
    if not rounds or (trace and not pairs):
        raise RoundFailed("; ".join(failures) or "no round completed")

    for r in rounds:
        for name, check in r["checks"].items():
            if not check["ok"]:
                problems.append(f"check {name} failed: {check['detail']}")
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds on one seed wrote different outputs")

    if trace:
        traced = [t for _, t in pairs]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = statistics.median([t["wall_s"] - p["wall_s"] for p, t in pairs])
                metrics[name] = _metric(value, unit)
                continue
            values = [t["layers"][name] for t in traced]
            note = next((t["notes"][name] for t in traced if name in t["notes"]), None)
            value = None if None in values else statistics.median(values)
            metrics[name] = _metric(value, unit, note)
    else:
        setups += [r["setup_s"] for r in rounds]
        median = statistics.median
        values = {
            "setup_s": median(setups),
            "wall_s": median([r["wall_s"] for r in rounds]),
            "kernel_steps_per_s": median([r["kernel_steps"] / r["sampling_s"] for r in rounds]),
            "ess_per_s": median([r["min_ess"] / r["wall_s"] for r in rounds]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}

    for line in dict.fromkeys(failures + problems):
        print(f"{workload}: {line}", file=sys.stderr)
    first = rounds[0]
    print(f"{workload}: seed {seed}, {len(rounds)} rounds, min bulk ESS "
          f"{first['min_ess']:.1f}, max split-R-hat {first['max_rhat']:.3f}", file=sys.stderr)
    for name, entry in metrics.items():
        shown = "not measured" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{workload}: {name} = {shown} {entry['unit']}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload, each run by this script in a process of its own."""
    results, status = {}, 0
    for workload, default_seed in WORKLOADS.items():
        seed = default_seed if args.seed is None else args.seed
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            status = 1
            continue
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= 0 if results[workload]["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="run.master_seed, or the kernel-1d generator seed "
                             "(default: 20240501 for presets, 1003 for kernel-1d)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rgess", "__init__.py")):
        print("error: run from the root of an rgess checkout (src/rgess not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed
    try:
        result = run_workload(args.workload, seed, args.seconds, args.trace == 1, root)
    except RoundFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
