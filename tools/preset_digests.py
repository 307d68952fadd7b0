"""Print the sha256 of every bundled preset's output files.

    python3 tools/preset_digests.py

Runs ``rgess run <preset>`` for every bundled preset except
``logistic-covtype`` (its data set is not bundled), and the runs of
``EXTRA_RUNS``: a preset with ``--set`` overrides, under its own key. No
bundled preset steps the ``regional_mh`` kernel, so one extra run does.
After each run, ``rgess report <out>`` recomputes the diagnostics into
``report.csv``. The script also runs ``rgess fit`` once per adaptation
scheme, under the key ``fit:<scheme>``, on a sample CSV written from a
fixed seed; the ``sa_gmm`` fit starts from the ``em_gmm`` fit's output.
Each run is a fresh process with BLAS pinned to one thread, uses the
``rgess`` under ``src/`` next to this script, and writes into a temporary
directory that is removed afterwards. The script prints one JSON line that
maps each run's key to the sha256 of its ``trace.csv``, ``mixtures.csv``,
``summary.csv`` and ``report.csv``, or of the mixture CSV a fit writes.

Two trees whose outputs are byte-identical print the same line, so running
this script in both is the check that a change keeps every trace.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESET_DIR = os.path.join(ROOT, "src", "rgess", "presets")
SKIPPED = ("logistic-covtype",)
FILES = ("trace.csv", "mixtures.csv", "summary.csv", "report.csv")
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# key -> (preset, --set overrides)
EXTRA_RUNS = {
    "gauss-mix-em-gmrgess:regional_mh": ("gauss-mix-em-gmrgess", ("run.kernel=regional_mh",)),
}
# ``rgess fit`` runs in this order, so that sa_gmm can start from em_gmm
FIT_SCHEMES = ("em_gmm", "vi_gmm", "em_tmm", "sa_gmm")
FIT_FLAGS = ("-M", "3", "--reg-radius", "0.05", "--seed", "7")
FIT_SAMPLES_SEED = 2718


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


def _rgess(args, env: dict) -> None:
    """``rgess *args`` in a fresh process with ``env``; ``RuntimeError``
    when it exits non-zero."""
    proc = subprocess.run([sys.executable, "-m", "rgess.cli", *args],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"rgess {' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()}"
        )


def run_preset(preset: str, out: str, env: dict, overrides=()) -> None:
    """``rgess run preset --out out``, with ``--set`` for each of
    ``overrides``, then ``rgess report out``, each in a fresh process with
    ``env``; ``RuntimeError`` when either exits non-zero."""
    sets = [arg for override in overrides for arg in ("--set", override)]
    _rgess(["run", preset, "--out", out, *sets], env)
    _rgess(["report", out], env)


def preset_digests(preset: str, env: dict, overrides=()) -> dict:
    """Run ``preset`` into a temporary directory; return ``{file: sha256}``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        run_preset(preset, out, env, overrides)
        return {name: _sha256(os.path.join(out, name)) for name in FILES}


def write_fit_samples(path) -> None:
    """Three 2-D clusters of 40 points from ``FIT_SAMPLES_SEED``, written
    with ``repr`` so that they read back exactly."""
    rng = random.Random(FIT_SAMPLES_SEED)
    with open(path, "w") as fh:
        for cx, cy in ((-6.0, 0.0), (0.0, 5.0), (6.0, -1.0)):
            for _ in range(40):
                fh.write(f"{cx + rng.gauss(0.0, 1.0)!r},{cy + rng.gauss(0.0, 1.5)!r}\n")


def fit_digests(env: dict) -> dict:
    """Run ``rgess fit`` once per scheme of ``FIT_SCHEMES`` in a temporary
    directory; return ``{"fit:<scheme>": {"mixture.csv": sha256}}``."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        samples = os.path.join(tmp, "samples.csv")
        write_fit_samples(samples)
        for scheme in FIT_SCHEMES:
            out = os.path.join(tmp, f"{scheme}.csv")
            start = (["--init", os.path.join(tmp, "em_gmm.csv"), "--sa-steps", "3"]
                     if scheme == "sa_gmm" else [])
            _rgess(["fit", samples, "--scheme", scheme, *FIT_FLAGS, *start, "--out", out], env)
            digests[f"fit:{scheme}"] = {"mixture.csv": _sha256(out)}
    return digests


def main() -> int:
    env = preset_env()
    try:
        digests = {key: preset_digests(preset, env, overrides)
                   for key, (preset, overrides) in covered_runs().items()}
        digests.update(fit_digests(env))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
