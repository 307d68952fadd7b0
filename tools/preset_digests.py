"""Print the sha256 of every bundled preset's output files.

    python3 tools/preset_digests.py

Runs ``rgess run <preset>`` for every bundled preset except
``logistic-covtype`` (its data set is not bundled), and the runs of
``EXTRA_RUNS``: a preset with ``--set`` overrides, under its own key. No
bundled preset steps the ``regional_mh`` kernel, so one extra run does. Each
run is a fresh process with BLAS pinned to one thread, uses the ``rgess``
under ``src/`` next to this script, and writes into a temporary directory
that is removed afterwards. The script prints one JSON line that maps each
run's key to the sha256 of its ``trace.csv``, ``mixtures.csv`` and
``summary.csv``.

Two trees whose outputs are byte-identical print the same line, so running
this script in both is the check that a change keeps every trace.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESET_DIR = os.path.join(ROOT, "src", "rgess", "presets")
SKIPPED = ("logistic-covtype",)
FILES = ("trace.csv", "mixtures.csv", "summary.csv")
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# key -> (preset, --set overrides)
EXTRA_RUNS = {
    "gauss-mix-em-gmrgess:regional_mh": ("gauss-mix-em-gmrgess", ("run.kernel=regional_mh",)),
}


def covered_runs() -> dict:
    """Every run the digests cover, key -> (preset, overrides): each bundled
    preset but those in ``SKIPPED``, then ``EXTRA_RUNS``."""
    names = sorted(f[:-4] for f in os.listdir(PRESET_DIR) if f.endswith(".cfg"))
    runs = {name: (name, ()) for name in names if name not in SKIPPED}
    runs.update(EXTRA_RUNS)
    return runs


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def preset_env(root: str = ROOT) -> dict:
    """The environment of a preset run: this process's, with BLAS on one
    thread and the ``rgess`` under ``root/src`` first on the path."""
    env = dict(os.environ)
    env.update({name: "1" for name in ONE_THREAD})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_preset(preset: str, out: str, env: dict, overrides=()) -> None:
    """``rgess run preset --out out``, with ``--set`` for each of
    ``overrides``, in a fresh process with ``env``; ``RuntimeError`` when
    it exits non-zero."""
    sets = [arg for override in overrides for arg in ("--set", override)]
    proc = subprocess.run(
        [sys.executable, "-m", "rgess.cli", "run", preset, "--out", out, *sets],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"rgess run {preset} exited {proc.returncode}: {proc.stderr.strip()}"
        )


def preset_digests(preset: str, env: dict, overrides=()) -> dict:
    """Run ``preset`` into a temporary directory; return ``{file: sha256}``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        run_preset(preset, out, env, overrides)
        return {name: _sha256(os.path.join(out, name)) for name in FILES}


def main() -> int:
    env = preset_env()
    try:
        digests = {key: preset_digests(preset, env, overrides)
                   for key, (preset, overrides) in covered_runs().items()}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
