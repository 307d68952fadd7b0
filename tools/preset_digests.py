"""Print the sha256 of every bundled preset's output files.

    python3 tools/preset_digests.py

Runs ``rgess run <preset>`` for every bundled preset except
``logistic-covtype`` (its data set is not bundled). ``logistic-covtype``
runs under the key ``logistic-covtype:generated`` on a covtype-format CSV
written from ``COVTYPE_SEED`` (``COVTYPE_ROWS`` rows of ``COVTYPE_FEATURES``
features and a class label of 1, 2 or 3), shortened by ``COVTYPE_OVERRIDES``: 400 of those rows, 300 iterations, 100 of them
burn-in. After each run, ``rgess report <out>`` recomputes the diagnostics into
``report.csv``. The script also runs ``rgess fit`` once per adaptation
scheme, under the key ``fit:<scheme>``, on a sample CSV written from a
fixed seed, with a header line and a blank line; the ``sa_gmm`` fit starts
from the ``em_gmm`` fit's output.
Last, it steps each per-chain kernel of ``KERNELS`` directly, under the key
``kernel:<name>``: ``KERNEL_STEPS`` steps of one chain on the acceptance
gate's 1-D bimodal target (test criterion 3), from -2.5 with seed
``KERNEL_SEED``. The regional kernels use criterion 3's fixed two-component
mixture; ``ess_step`` uses the fixed Gaussian prior ``ESS_PRIOR``.
Each run is a fresh process with BLAS pinned to one thread, uses the
``rgess`` under ``src/`` next to this script, and writes into a temporary
directory that is removed afterwards. The script prints one JSON line that
maps each run's key to the sha256 of its ``trace.csv``, ``mixtures.csv``,
``summary.csv`` and ``report.csv``, of the mixture CSV a fit writes, or of
a kernel chain's steps (``"steps"``: each step's point, region and
rejection count).

Two trees whose outputs are byte-identical print the same line, so running
this script in both is the check that a change keeps every trace.
"""

from __future__ import annotations

import hashlib
import json
import math
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
# ``rgess fit`` runs in this order, so that sa_gmm can start from em_gmm
FIT_SCHEMES = ("em_gmm", "vi_gmm", "em_tmm", "sa_gmm")
FIT_FLAGS = ("-M", "3", "--reg-radius", "0.05", "--seed", "7")
FIT_SAMPLES_SEED = 2718
COVTYPE_SEED = 1414
COVTYPE_ROWS = 500
COVTYPE_FEATURES = 12
COVTYPE_OVERRIDES = ("target.n_select=400", "run.iterations=300", "run.burn_in=100")
KERNELS = ("gmrgess", "tmrgess", "regional_mh", "ess")
# (mean, covariance) of the Gaussian prior of the ``ess`` kernel digest
ESS_PRIOR = ([0.0], [[9.0]])
KERNEL_STEPS = 20_000
KERNEL_SEED = 1003


def covered_runs() -> list:
    """The presets the digests run as they ship: each bundled preset but
    those in ``SKIPPED``."""
    names = sorted(f[:-4] for f in os.listdir(PRESET_DIR) if f.endswith(".cfg"))
    return [name for name in names if name not in SKIPPED]


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
    with ``repr`` so that they read back exactly. A header line comes first
    and a blank line follows the first cluster; ``rgess fit`` skips both."""
    rng = random.Random(FIT_SAMPLES_SEED)
    with open(path, "w") as fh:
        fh.write("x0,x1\n")
        for cx, cy in ((-6.0, 0.0), (0.0, 5.0), (6.0, -1.0)):
            for _ in range(40):
                fh.write(f"{cx + rng.gauss(0.0, 1.0)!r},{cy + rng.gauss(0.0, 1.5)!r}\n")
            if cx < 0:
                fh.write("\n")


def write_covtype_samples(path) -> None:
    """``COVTYPE_ROWS`` covtype-format rows from ``COVTYPE_SEED``: class 1, 2
    or 3 with probabilities 0.45, 0.4 and 0.15, then ``COVTYPE_FEATURES``
    features N(0.3 * class, 1), written with ``repr`` so that they read back
    exactly, and the class label last."""
    rng = random.Random(COVTYPE_SEED)
    with open(path, "w") as fh:
        for _ in range(COVTYPE_ROWS):
            klass = rng.choices((1, 2, 3), weights=(0.45, 0.4, 0.15))[0]
            features = [repr(rng.gauss(0.3 * klass, 1.0)) for _ in range(COVTYPE_FEATURES)]
            fh.write(",".join(features) + f",{klass}\n")


def covtype_digests(env: dict) -> dict:
    """``{"logistic-covtype:generated": {file: sha256}}``: the
    ``logistic-covtype`` preset with ``COVTYPE_OVERRIDES`` on the CSV of
    :func:`write_covtype_samples`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "covtype.csv")
        write_covtype_samples(path)
        overrides = (f"target.path={path}", *COVTYPE_OVERRIDES)
        return {"logistic-covtype:generated": preset_digests("logistic-covtype", env, overrides)}


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


def _bimodal_logpdf(x) -> float:
    """0.6 N(-2.5, 1) + 0.4 N(2.5, 1.5^2), criterion 3's 1-D target."""
    v = x[0]
    a = math.log(0.6) - 0.5 * math.log(2.0 * math.pi) - 0.5 * (v + 2.5) ** 2
    b = (math.log(0.4) - 0.5 * math.log(2.0 * math.pi * 2.25)
         - 0.5 * (v - 2.5) ** 2 / 2.25)
    m = a if a > b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def kernel_digest(kernel: str) -> str:
    """sha256 of ``KERNEL_STEPS`` steps of ``kernel`` (one of ``KERNELS``)
    on criterion 3's set-up: each step's point bytes, region and rejection
    count. ``ess`` steps ``ess_step`` with the prior ``ESS_PRIOR`` and the
    log-likelihood that makes prior times likelihood the target. Imports
    ``rgess`` from the path of the calling process."""
    import numpy as np

    from rgess.distributions import Gaussian, MixtureModel, StudentT
    from rgess.samplers import (ChainState, TargetDensity, ess_step, gmrgess_step,
                                regional_mh_step, tmrgess_step)

    mixture = None
    if kernel == "tmrgess":
        step = tmrgess_step
        mixture = MixtureModel([0.5, 0.5], [StudentT([-2.5], [[4.0]], 5.0),
                                            StudentT([2.5], [[6.25]], 7.0)])
    elif kernel == "ess":
        prior = Gaussian(*ESS_PRIOR)

        def log_likelihood(x):
            return _bimodal_logpdf(x) - prior.log_density(x)

        def step(state, _mixture, _target, rng):
            return ess_step(state, prior, log_likelihood, rng)
    else:
        step = gmrgess_step if kernel == "gmrgess" else regional_mh_step
        mixture = MixtureModel([0.5, 0.5], [Gaussian([-2.5], [[4.0]]),
                                            Gaussian([2.5], [[6.25]])])
    target = TargetDensity(dim=1, log_pi=_bimodal_logpdf)
    rng = np.random.default_rng(KERNEL_SEED)
    x = np.array([-2.5])
    state = ChainState(point=x, region=0 if mixture is None else mixture.assign_region(x))
    h = hashlib.sha256()
    for _ in range(KERNEL_STEPS):
        out = step(state, mixture, target, rng)
        state = out.next
        h.update(state.point.tobytes())
        h.update(f"{state.region},{out.rejections};".encode())
    return h.hexdigest()


def kernel_digests(env: dict) -> dict:
    """``{"kernel:<name>": {"steps": sha256}}`` for each of ``KERNELS``,
    each from :func:`kernel_digest` in a fresh process with ``env``."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(env, PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], here]))
    digests = {}
    for kernel in KERNELS:
        code = f"import preset_digests as p; print(p.kernel_digest({kernel!r}))"
        proc = subprocess.run([sys.executable, "-c", code],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"kernel {kernel} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        digests[f"kernel:{kernel}"] = {"steps": proc.stdout.strip()}
    return digests


def main() -> int:
    env = preset_env()
    try:
        digests = {preset: preset_digests(preset, env) for preset in covered_runs()}
        digests.update(covtype_digests(env))
        digests.update(fit_digests(env))
        digests.update(kernel_digests(env))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
