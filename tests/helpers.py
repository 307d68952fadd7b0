"""Shared fixture builders and oracles for the unit and acceptance suites."""

import math

import numpy as np
from scipy.special import logsumexp

from rgess import runner, samplers
from rgess.adaptation import sa_update_directions
from rgess.diagnostics import TraceRecord, write_trace_csv
from rgess.distributions import Gaussian, MixtureModel, sample_inverse_gamma
from rgess.runner import Kernel
from rgess.samplers import (
    ChainState,
    StepOutcome,
    ess_step,
    gmrgess_step,
    mh_step,
    regional_mh_step,
    tmrgess_step,
)


def two_cluster_samples(rng, n_per=500, center=10.0, sd=1.0):
    """1D data from two well-separated clusters at -center and +center."""
    left = rng.normal(-center, sd, size=n_per)
    right = rng.normal(center, sd, size=n_per)
    return np.concatenate([left, right])[:, None]


OUTLIER_CLUSTER_MEANS = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
OUTLIER_POINTS = np.array([[40.0, 40.0], [41.0, 39.0]])


def outlier_fixture(seed=2024):
    """200 points in three unit-covariance clusters plus two far outliers."""
    rng = np.random.default_rng(seed)
    sizes = (67, 67, 66)
    clusters = [
        rng.normal(0.0, 1.0, size=(size, 2)) + mean
        for size, mean in zip(sizes, OUTLIER_CLUSTER_MEANS)
    ]
    return np.vstack(clusters + [OUTLIER_POINTS])


def outlier_fixture_true_mixture():
    """The generating three-component mixture of the outlier fixture."""
    return MixtureModel(
        np.full(3, 1.0 / 3.0),
        [Gaussian(mean, np.eye(2)) for mean in OUTLIER_CLUSTER_MEANS],
    )


def min_distance_to_outliers(mixture):
    means = np.stack([c.mean for c in mixture.components])
    dists = np.linalg.norm(
        means[:, None, :] - OUTLIER_POINTS[None, :, :], axis=2
    )
    return float(dists.min())


def mc_kl_objective(weights, means, covs, samples):
    """Monte Carlo estimate of the KL divergence to the mixture, up to the
    parameter-free entropy term: (1/K) sum_k -log f(X_k; phi)."""
    terms = []
    for mean, cov, w in zip(means, covs, weights):
        g = Gaussian(mean, 0.5 * (cov + cov.T))
        terms.append(np.log(w) + np.array([g.log_density(x) for x in samples]))
    return -float(np.mean(logsumexp(np.stack(terms, axis=1), axis=1)))


def assert_sa_matches_fd(current, samples, rel_tol=1e-4):
    """Raw SA update directions against central finite differences of the
    Monte Carlo KL estimate.

    Mean blocks equal the negative gradient directly; weight blocks equal the
    negative gradient after centering onto the simplex; covariance blocks are
    the negative gradient preconditioned by Sigma on both sides (the update's
    natural-gradient form), so the comparison maps the finite differences
    through 2 Sigma g Sigma.
    """
    h = 1e-5
    weights = current.weights.copy()
    means = current._means.copy()
    covs = np.stack([c.cov for c in current.components])
    m, d = means.shape
    dw_raw, dw, dmeans, dcovs = sa_update_directions(current, samples)

    fd_w = np.zeros(m)
    for j in range(m):
        wp, wm = weights.copy(), weights.copy()
        wp[j] += h
        wm[j] -= h
        fd_w[j] = (
            mc_kl_objective(wp, means, covs, samples)
            - mc_kl_objective(wm, means, covs, samples)
        ) / (2 * h)
    np.testing.assert_allclose(dw_raw, -fd_w, rtol=rel_tol)
    np.testing.assert_allclose(dw, -(fd_w - fd_w.mean()), rtol=rel_tol, atol=1e-12)

    for j in range(m):
        fd_mu = np.zeros(d)
        for a in range(d):
            mp, mm = means.copy(), means.copy()
            mp[j, a] += h
            mm[j, a] -= h
            fd_mu[a] = (
                mc_kl_objective(weights, mp, covs, samples)
                - mc_kl_objective(weights, mm, covs, samples)
            ) / (2 * h)
        np.testing.assert_allclose(dmeans[j], -fd_mu, rtol=rel_tol)

    for j in range(m):
        fd_cov = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                cp, cm = covs.copy(), covs.copy()
                cp[j, a, b] += h
                cm[j, a, b] -= h
                fd_cov[a, b] = (
                    mc_kl_objective(weights, means, cp, samples)
                    - mc_kl_objective(weights, means, cm, samples)
                ) / (2 * h)
        mapped = covs[j] @ (-2.0 * fd_cov) @ covs[j]
        np.testing.assert_allclose(dcovs[j], mapped, rtol=rel_tol)


def random_sa_instance(seed, m=2, d=2, k=20):
    """Random small mixture plus samples for the SA gradient oracle."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(m, 5.0))
    comps = []
    for _ in range(m):
        a = rng.normal(scale=0.4, size=(d, d))
        cov = a @ a.T + np.eye(d)
        comps.append(Gaussian(rng.normal(scale=1.5, size=d), cov))
    mixture = MixtureModel(weights, comps)
    samples = rng.normal(scale=1.5, size=(k, d))
    return mixture, samples


def reference_regional_ess_step(kind, point, region, mixture, log_pi, rng):
    """Straightforward regional ESS step, the oracle for the optimized
    ``gmrgess_step``/``tmrgess_step``.

    Draws from ``rng`` in the same order as the kernels, evaluates every
    density through the public checked API and tests each proposal in a
    closure. Returns ``(point, region, rejections, angle_final)``. The
    shrinkage cap is read from ``rgess.samplers.MAX_SHRINK_ITERS`` at call
    time.
    """
    x = point
    i = region
    comp = mixture.components[i]
    if kind == "gaussian":
        v = comp.sample(rng)
    else:
        s = sample_inverse_gamma(samplers.t_auxiliary_params(comp, x), rng)
        v = comp.mean + math.sqrt(s) * (comp.chol @ rng.standard_normal(comp.dim))
    log_pi_x = float(log_pi(x))
    if not np.isfinite(log_pi_x):
        raise ValueError("log target at current point is not finite")
    comp_at_x = mixture.component_log_densities(x)
    log_u = math.log(1.0 - rng.random())
    region_of = [i]

    def accepts(x_prop):
        log_pi_prop = float(log_pi(x_prop))
        if log_pi_prop == -np.inf:
            return False
        comp_at_prop = mixture.component_log_densities(x_prop)
        scores = comp_at_prop
        if mixture.weighted_regions:
            scores = comp_at_prop + mixture._log_weights
        j = int(scores.argmax())
        if log_pi_prop - comp_at_prop[i] > log_pi_x - comp_at_x[j] + log_u:
            region_of[0] = j
            return True
        return False

    mu = comp.mean
    theta = rng.uniform(0.0, 2.0 * math.pi)
    theta_min, theta_max = theta - 2.0 * math.pi, theta
    x_c = x - mu
    v_c = v - mu
    rejections = 0
    for _ in range(samplers.MAX_SHRINK_ITERS):
        x_prop = x_c * math.cos(theta) + v_c * math.sin(theta) + mu
        if accepts(x_prop):
            return x_prop, region_of[0], rejections, theta
        rejections += 1
        if theta < 0.0:
            theta_min = theta
        else:
            theta_max = theta
        theta = rng.uniform(theta_min, theta_max)
    return x, i, rejections, 0.0


def reference_regional_mh_step(state, mixture, target, rng):
    """Straightforward regional independence MH step, the oracle for the
    cached ``regional_mh_step``: it re-evaluates the target and the checked
    component densities at the current point on every step."""
    x = state.point
    i = state.region
    log_pi_x = float(target.log_pi(x))
    if not np.isfinite(log_pi_x):
        raise ValueError("log target at current point is not finite")
    x_prop = mixture.components[i].sample(rng)
    log_pi_prop = float(target.log_pi(x_prop))

    accepted = False
    j = i
    if log_pi_prop > -np.inf:
        comp_at_x = mixture.component_log_densities(x)
        comp_at_prop = mixture.component_log_densities(x_prop)
        if mixture.weighted_regions:
            j = int(np.argmax(comp_at_prop + mixture._log_weights))
        else:
            j = int(np.argmax(comp_at_prop))
        log_alpha = log_pi_prop + comp_at_x[j] - log_pi_x - comp_at_prop[i]
        accepted = math.log(1.0 - rng.random()) < min(0.0, log_alpha)

    if accepted:
        return StepOutcome(next=ChainState(point=x_prop, region=j), rejections=0)
    return StepOutcome(next=state, rejections=1)


def reference_mh_step(state, proposal_cov, target, rng):
    """Straightforward random-walk MH step, the oracle for the cached
    ``mh_step``: it factorizes the proposal covariance and evaluates the
    target at the current point on every step."""
    x = state.point
    log_pi_x = float(target.log_pi(x))
    if not np.isfinite(log_pi_x):
        raise ValueError("log target at current point is not finite")
    chol = np.linalg.cholesky(np.asarray(proposal_cov, dtype=float))
    x_prop = x + chol @ rng.standard_normal(x.shape[0])
    log_pi_prop = float(target.log_pi(x_prop))

    accepted = (
        log_pi_prop > -np.inf
        and math.log(1.0 - rng.random()) < min(0.0, log_pi_prop - log_pi_x)
    )
    if accepted:
        return StepOutcome(next=ChainState(point=x_prop, region=state.region), rejections=0)
    return StepOutcome(next=state, rejections=1)


def trace_csv_bytes(traces, history, out_dir):
    """Write ``trace.csv`` and ``mixtures.csv`` into the new directory
    ``out_dir`` (a ``pathlib.Path``); return their bytes, in that order."""
    out_dir.mkdir()
    write_trace_csv(traces, history, out_dir / "trace.csv",
                    mixtures_path=out_dir / "mixtures.csv")
    return [(out_dir / name).read_bytes() for name in ("trace.csv", "mixtures.csv")]


def reference_chain_major_run(config, target):
    """Chain-major oracle for ``rgess.runner.run``; returns ``(traces,
    mixture_history)``.

    Seeds, barriers and refits are those of ``run``, but between two barriers
    chain 0 takes all of the segment's iterations, then chain 1, and so on,
    instead of every chain taking one iteration in turn. Chains that share
    nothing between barriers give the same traces in either order. Every
    kernel is stepped one chain at a time with its public per-chain step
    function, also those ``run`` steps as one batch.
    """
    k_chains = config.chains
    children = np.random.SeedSequence(config.master_seed).spawn(k_chains + 1)
    rngs = [np.random.default_rng(child) for child in children[:k_chains]]
    adapt_rng = np.random.default_rng(children[k_chains])
    acfg = config.adaptation
    kernel = config.kernel

    states = [ChainState(point=config.init.sample(rng)) for rng in rngs]
    uses_mixture = kernel in runner._MIXTURE_KERNELS
    mixture = None
    history = []
    barriers = []
    if uses_mixture:
        mixture = runner._initial_mixture(config, [s.point for s in states], adapt_rng)
        states = [s._replace(region=mixture.assign_region(s.point)) for s in states]
        history.append((0, mixture))
        first_adapt = max(acfg.interval, 2 * acfg.components)
        barriers = [n for n in range(first_adapt, config.iterations + 1)
                    if n % acfg.interval == 0]

    def step(state, rng):
        if kernel is Kernel.ESS:
            return ess_step(state, target.prior, target.log_likelihood, rng)
        if kernel is Kernel.MH:
            cov = np.asarray(config.mh_proposal_cov, dtype=float)
            return mh_step(state, cov, target, rng)
        if kernel is Kernel.REGIONAL_MH:
            return regional_mh_step(state, mixture, target, rng)
        if kernel is Kernel.GMRGESS:
            return gmrgess_step(state, mixture, target, rng)
        return tmrgess_step(state, mixture, target, rng)

    traces = [[] for _ in range(k_chains)]
    starts = [1] + barriers
    ends = barriers + [config.iterations + 1]
    for update_index, (start, end) in enumerate(zip(starts, ends)):
        if update_index > 0:
            points = [np.array(s.point, copy=True) for s in states]
            mixture = runner._refit_mixture(config, mixture, points, adapt_rng, update_index)
            history.append((start, mixture))
            states = [s._replace(region=mixture.assign_region(s.point)) for s in states]
        for k in range(k_chains):
            state = states[k]
            for n in range(start, end):
                rejections = 0
                for _ in range(config.steps_per_iteration):
                    outcome = step(state, rngs[k])
                    state = outcome.next
                    rejections += outcome.rejections
                if n % config.thinning == 0:
                    traces[k].append(TraceRecord(
                        chain=k, iteration=n, point=np.array(state.point, copy=True),
                        rejections=rejections, region=state.region,
                    ))
            states[k] = state
    return traces, history
