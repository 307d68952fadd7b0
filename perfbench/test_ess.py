"""Closed-form checks of the benchmark's split-R-hat and bulk ESS."""

import numpy as np
import pytest

from ess import bulk_ess, split_rhat


def _ar1(phi, chains, draws, rng):
    """Stationary AR(1) chains x_t = phi x_{t-1} + e_t, e_t ~ N(0, 1)."""
    x = np.empty((chains, draws))
    x[:, 0] = rng.standard_normal(chains) / np.sqrt(1.0 - phi * phi)
    noise = rng.standard_normal((chains, draws))
    for t in range(1, draws):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


def test_iid_normal_ess_is_close_to_n():
    rng = np.random.default_rng(11)
    draws = rng.standard_normal((4, 5000))
    assert bulk_ess(draws) == pytest.approx(draws.size, rel=0.1)
    assert split_rhat(draws) < 1.01


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_ar1_ess_matches_closed_form(phi):
    rng = np.random.default_rng(12)
    draws = _ar1(phi, chains=4, draws=20000, rng=rng)
    expected = draws.size * (1.0 - phi) / (1.0 + phi)
    assert bulk_ess(draws) == pytest.approx(expected, rel=0.1)


def test_negatively_correlated_chain_ess_exceeds_n():
    rng = np.random.default_rng(13)
    draws = _ar1(-0.5, chains=4, draws=20000, rng=rng)
    # n (1 - phi) / (1 + phi) = 3 n; the truncation caps it at n log10(n).
    assert bulk_ess(draws) > 2.0 * draws.size


def test_offset_chain_means_give_rhat_above_1_1():
    rng = np.random.default_rng(14)
    draws = rng.standard_normal((4, 1000)) + np.array([[0.0], [0.0], [0.0], [2.0]])
    assert split_rhat(draws) > 1.1


def test_rhat_sees_a_drifting_chain_that_chain_means_miss():
    # Each chain drifts from -1 to +1: chain means agree, split halves do not.
    rng = np.random.default_rng(15)
    drift = np.linspace(-1.0, 1.0, 1000)
    draws = 0.3 * rng.standard_normal((4, 1000)) + drift
    assert split_rhat(draws) > 1.1


def test_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        bulk_ess(np.zeros(100))
    with pytest.raises(ValueError):
        split_rhat(np.array([[0.0, np.nan, 1.0, 2.0]]))
