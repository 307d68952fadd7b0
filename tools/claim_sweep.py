"""Measure the mode-finding and mixing claims of the bundled presets across
seeds.

    python3 tools/claim_sweep.py ROOT

Runs each gauss-mix preset and ``litter-em-tmrgess`` with the ``rgess``
under ``ROOT/src``, once for each seed of ``SEEDS`` (a ``run.master_seed``
override), through the run helper of ``tools/preset_digests.py``: a fresh
process per run, BLAS on one thread, outputs in a temporary directory that
is removed afterwards. Then it prints one row per preset, over the draws
after each run's ``run.burn_in``:

- ``shares``: each mode's share of the draws of all seeds, a draw
  belonging to its nearest mode (``PRESETS``);
- ``reach``: the share of seeds in which some draw belongs to each mode;
- ``rejections``: the mean of ``trace.csv``'s rejection column over every
  iteration, and over the first and the last quarter of the iterations;
- ``max R``: each seed's largest split-R-hat over the coordinates, as the
  median over seeds and the worst seed;
- ``min ESS``: each seed's smallest bulk ESS over the coordinates, as the
  median over seeds and the worst seed.

Each run's outputs are read with the ``rgess`` of this tree, whatever
``ROOT`` is, and split-R-hat and bulk ESS are those of the benchmark,
``perfbench/ess.py`` next to this script. Pass the root of this tree or of
another checkout, so that two trees can be compared with the same
measurement.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile

import numpy as np

from preset_digests import ROOT, preset_env, run_preset

sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
from ess import bulk_ess, split_rhat  # noqa: E402
from rgess.config import build_experiment, load_config_file  # noqa: E402
from rgess.diagnostics import read_trace_csv  # noqa: E402
from rgess.targets import GaussMixTarget  # noqa: E402

SEEDS = (20240501, 11, 19, 23, 101, 202, 303, 404)
# the litter likelihood's two interior optima, the label-swap pair of test
# criterion 7
LITTER_MODES = ((3.106795, -2.819267, -0.088135), (-3.106795, -0.088135, -2.819267))
PRESETS = {
    "gauss-mix-tmrgess": GaussMixTarget.MEANS,
    "gauss-mix-em-gmrgess": GaussMixTarget.MEANS,
    "gauss-mix-vi-gmrgess": GaussMixTarget.MEANS,
    "gauss-mix-sa-gmrgess": GaussMixTarget.MEANS,
    "gauss-mix-gess": GaussMixTarget.MEANS,
    "litter-em-tmrgess": LITTER_MODES,
}


def read_run(out: str):
    """``(draws, rejections)`` of a run's ``trace.csv``: the points after
    its config's ``run.burn_in``, (chains, draws, D), and the rejection
    counts, (chains, iterations)."""
    exp = build_experiment(load_config_file(os.path.join(out, "config.cfg")))
    traces, _ = read_trace_csv(os.path.join(out, "trace.csv"),
                               os.path.join(out, "mixtures.csv"))
    after = traces.iterations > exp.run_config.burn_in
    return traces.points[:, after], traces.rejections


def seed_summary(draws, rejections, modes) -> dict:
    """One run's measurements: the count of draws nearest each mode,
    mean rejections overall and in the first and last quarter, and the
    largest split-R-hat and smallest bulk ESS over the coordinates."""
    modes = np.asarray(modes)
    nearest = np.linalg.norm(draws[:, :, None, :] - modes, axis=3).argmin(axis=2)
    quarter = rejections.shape[1] // 4
    dims = range(draws.shape[2])
    return {
        "counts": np.bincount(nearest.ravel(), minlength=len(modes)),
        "rejections": (rejections.mean(), rejections[:, :quarter].mean(),
                       rejections[:, -quarter:].mean()),
        "rhat": max(split_rhat(draws[:, :, d]) for d in dims),
        "ess": min(bulk_ess(draws[:, :, d]) for d in dims),
    }


def preset_row(preset: str, summaries: list) -> str:
    counts = np.array([s["counts"] for s in summaries])
    shares = counts.sum(axis=0) / counts.sum()
    reach = (counts > 0).mean(axis=0)
    rej = np.array([s["rejections"] for s in summaries]).mean(axis=0)
    rhats = [s["rhat"] for s in summaries]
    esses = [s["ess"] for s in summaries]

    def join(values, fmt):
        return "/".join(format(v, fmt) for v in values)

    return (f"| {preset} | {join(shares, '.2f')} | {join(reach, '.2f')} "
            f"| {rej[0]:.2f} ({rej[1]:.2f} -> {rej[2]:.2f}) "
            f"| {statistics.median(rhats):.2f} / {max(rhats):.2f} "
            f"| {statistics.median(esses):.0f} / {min(esses):.0f} |")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/claim_sweep.py ROOT", file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    if not os.path.isdir(os.path.join(root, "src", "rgess")):
        print(f"error: {root} has no src/rgess", file=sys.stderr)
        return 2
    env = preset_env(root)
    print(f"seeds {', '.join(map(str, SEEDS))}; shares and reach in the order of "
          "each preset's modes")
    print("| preset | shares | reach | rejections (first -> last quarter) "
          "| max R median / worst | min ESS median / worst |")
    print("| --- | --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for preset, modes in PRESETS.items():
            summaries = []
            for seed in SEEDS:
                out = os.path.join(tmp, f"{preset}-{seed}")
                try:
                    run_preset(preset, out, env, (f"run.master_seed={seed}",))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                summaries.append(seed_summary(*read_run(out), modes))
            print(preset_row(preset, summaries), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
