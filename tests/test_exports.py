"""Public names: every name a module exports resolves, so a deleted
function cannot leave a dangling export behind. Import paths: what a process
that uses rgess loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import rgess

MODULES = ["rgess"] + [f"rgess.{m.name}" for m in pkgutil.iter_modules(rgess.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from rgess import *", namespace)
    assert set(rgess.__all__) <= namespace.keys()


# Runs in a fresh interpreter: other test modules import scipy.optimize.
LAZY_OPTIMIZE = textwrap.dedent("""
    import sys

    import numpy as np

    import rgess
    import rgess.cli
    from rgess.adaptation import AdaptationConfig, Scheme, em_tmm_fit
    from rgess.config import build_experiment
    from rgess.samplers import ChainState, tmrgess_step

    exp = build_experiment(rgess.cli.resolve_config_source("gauss-mix-tmrgess"))
    target, _ = rgess.cli.build_target(exp)
    acfg = exp.run_config.adaptation
    assert acfg.fixed_dof is not None
    rng = np.random.default_rng(0)
    mixture = em_tmm_fit(rng.normal(5.0, 3.0, size=(200, 2)), acfg.components,
                         acfg, rng).mixture
    x = np.array([5.0, 5.0])
    tmrgess_step(ChainState(point=x, region=mixture.assign_region(x)), mixture,
                 target, rng)
    assert "scipy.optimize" not in sys.modules, "loaded without a dof solve"

    config = AdaptationConfig(scheme=Scheme.EM_TMM, components=1, reg_radius=0.0)
    em_tmm_fit(rng.standard_t(3.0, size=(400, 1)), 1, config, rng)
    assert "scipy.optimize" in sys.modules, "not loaded by a dof solve"
""")


def _run_fresh(script: str, *args: str) -> None:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_optimize_loads_only_at_a_dof_solve():
    _run_fresh(LAZY_OPTIMIZE)


# The sampling path of a fixed-dof t-mixture run, then the loader named by
# argv[1]: a VI fit or an estimated-dof EM fit, the two users of digamma.
# The sampling path loads scipy's LAPACK wrapper but not scipy.linalg; the
# inverse factors it gave equal scipy.linalg's once that is imported.
LAZY_SPECIAL = textwrap.dedent("""
    import sys
    import tempfile

    import numpy as np

    import rgess
    import rgess.cli
    from rgess.adaptation import AdaptationConfig, Scheme, em_tmm_fit, vi_gmm_fit
    from rgess.config import build_experiment
    from rgess.distributions import _factorise
    from rgess.samplers import ChainState, tmrgess_step
    from rgess.targets import LitterTarget

    exp = build_experiment(rgess.cli.resolve_config_source("gauss-mix-tmrgess"))
    target, _ = rgess.cli.build_target(exp)
    acfg = exp.run_config.adaptation
    assert acfg.fixed_dof is not None
    rng = np.random.default_rng(0)
    mixture = em_tmm_fit(rng.normal(5.0, 3.0, size=(200, 2)), acfg.components,
                         acfg, rng).mixture
    x = np.array([5.0, 5.0])
    tmrgess_step(ChainState(point=x, region=mixture.assign_region(x)), mixture,
                 target, rng)
    LitterTarget()
    with tempfile.TemporaryDirectory() as out:
        sets = ["--set", "run.chains=8", "--set", "run.iterations=60",
                "--set", "run.burn_in=20"]
        assert rgess.cli.main(["run", "gauss-mix-tmrgess", "--out", out, *sets]) == 0
        assert rgess.cli.main(["report", out]) == 0
    assert "scipy.special" not in sys.modules, "loaded on the sampling path"
    assert "scipy.linalg" not in sys.modules, "loaded on the sampling path"
    assert "scipy.linalg._flapack" in sys.modules, "LAPACK wrapper not loaded"

    # L^-1 of random SPD stacks, D from 1 to 9, before scipy.linalg loads
    inverses = []
    for _ in range(50):
        m, d = rng.integers(1, 4), rng.integers(1, 10)
        a = rng.normal(size=(m, d, d))
        scales = a @ a.transpose(0, 2, 1) + d * np.eye(d)
        chols, chol_invs, _, _ = _factorise(np.zeros((m, d)), scales, None, "cov")
        inverses += [(chol, chol_inv.tobytes()) for chol, chol_inv in zip(chols, chol_invs)]
    assert "scipy.linalg" not in sys.modules

    if sys.argv[1] == "vi":
        config = AdaptationConfig(scheme=Scheme.VI_GMM, components=2)
        vi_gmm_fit(rng.normal(size=(200, 2)), 2, config, rng)
    else:
        config = AdaptationConfig(scheme=Scheme.EM_TMM, components=1, reg_radius=0.0)
        em_tmm_fit(rng.standard_t(3.0, size=(400, 1)), 1, config, rng)
    assert "scipy.special" in sys.modules, "not loaded by " + sys.argv[1]

    import scipy.linalg
    from scipy.linalg import solve_triangular

    assert scipy.linalg.lapack.dtrtrs is rgess.distributions.dtrtrs
    for chol, want in inverses:
        eye = np.eye(len(chol))
        assert solve_triangular(chol, eye, lower=True).tobytes() == want
""")


@pytest.mark.parametrize("loader", ["vi", "dof"])
def test_scipy_special_loads_only_at_a_vi_fit_or_dof_solve(loader):
    _run_fresh(LAZY_SPECIAL, loader)
