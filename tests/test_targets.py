"""Benchmark targets: the four-mode mixture, logistic likelihoods and the
embedded litter model."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln

from rgess.distributions import Gaussian, MixtureModel
from rgess.targets import (
    LITTER_TABLE,
    Dataset,
    GaussMixTarget,
    LitterTarget,
    LogisticTarget,
    embedded_litter_data,
    litter_log_likelihood,
    load_covtype,
    logistic_log_likelihood,
    make_synthetic_logistic,
)


class TestGaussMixTarget:
    def test_value_matches_direct_four_term_sum(self):
        target = GaussMixTarget()
        x = np.array([25.0, 50.0])
        cov = 10.0 * np.eye(2)
        direct = math.log(
            sum(
                0.25 * math.exp(Gaussian(np.array(mu), cov).log_density(x))
                for mu in GaussMixTarget.MEANS
            )
        )
        assert target.log_density(x) == pytest.approx(direct, abs=1e-12)
        # component 1 dominates at its own mean
        dominant = math.log(0.25) + Gaussian(np.array([25.0, 50.0]), cov).log_density(x)
        assert target.log_density(x) == pytest.approx(dominant, abs=1e-6)

    def test_component_order_permutation_invariance(self):
        cov = 10.0 * np.eye(2)
        forward = MixtureModel(
            [0.25] * 4, [Gaussian(np.array(m), cov) for m in GaussMixTarget.MEANS]
        )
        reversed_ = MixtureModel(
            [0.25] * 4,
            [Gaussian(np.array(m), cov) for m in reversed(GaussMixTarget.MEANS)],
        )
        x = np.array([5.0, 5.0])
        assert abs(forward.log_density(x) - reversed_.log_density(x)) < 1e-9

    def test_grid_quadrature_normalizes(self):
        target = GaussMixTarget()
        grid = np.arange(-20.0, 80.0 + 0.25, 0.5)
        step = 0.5
        total = 0.0
        for x0 in grid:
            row = np.array(
                [math.exp(target.log_density(np.array([x0, x1]))) for x1 in grid]
            )
            total += row.sum() * step * step
        assert abs(total - 1.0) < 0.01

    def test_non_finite_input_rejected(self):
        target = GaussMixTarget()
        assert target.log_density(np.array([np.nan, 0.0])) == -np.inf


def _standardized_design(rng, n, d):
    x = rng.normal(size=(n, d))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    return x


_GAUSS_MIX_COORDS = st.one_of(
    st.floats(-20.0, 80.0),
    st.floats(-1e200, 1e200),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


class TestGaussMixBatch:
    @settings(deadline=None, max_examples=200)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 64), st.just(2)),
                      elements=_GAUSS_MIX_COORDS))
    def test_batch_rows_equal_log_density_bitwise(self, points):
        target = GaussMixTarget()
        density = target.as_target_density()
        with np.errstate(over="ignore"):
            batch = density.log_pi_batch(points)
            singles = [np.float64(density.log_pi(x.copy())) for x in points]
        assert batch.shape == (len(points),)
        for value, single in zip(batch, singles):
            assert value.tobytes() == single.tobytes()
        assert np.all(batch[~np.isfinite(points).all(axis=1)] == -np.inf)


class TestLogisticLikelihood:
    def test_zero_beta_gives_n_log_half(self):
        rng = np.random.default_rng(0)
        x = _standardized_design(rng, 50, 3)
        y = (rng.random(50) < 0.5).astype(float)
        data = LogisticTarget(x, y)
        expected = 50 * math.log(0.5)
        assert logistic_log_likelihood(np.zeros(3), data) == pytest.approx(expected)

    def test_saturated_contributions_vanish(self):
        # +/-1 design standardizes exactly; at beta x = +/-35 both terms are
        # within 1e-12 of zero
        data = LogisticTarget(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        value = logistic_log_likelihood(np.array([35.0]), data)
        assert abs(value) < 1e-12

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(1)
        x = _standardized_design(rng, 10, 3)
        y = (rng.random(10) < 0.5).astype(float)
        beta = rng.normal(size=3)
        data = LogisticTarget(x, y)
        p = 1.0 / (1.0 + np.exp(-(x @ beta)))
        naive = float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert logistic_log_likelihood(beta, data) == pytest.approx(naive, abs=1e-10)

    def test_unstandardized_design_rejected(self):
        with pytest.raises(ValueError):
            LogisticTarget(np.array([[2.0], [4.0]]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_rejected(self, bad):
        design = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        design[0, 1] = bad
        with pytest.raises(ValueError, match="design contains non-finite values"):
            LogisticTarget(design, np.array([1.0, 0.0, 1.0, 0.0]))

    def test_non_finite_beta_gives_neg_inf(self):
        data = LogisticTarget(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        assert logistic_log_likelihood(np.array([np.inf]), data) == -np.inf


class TestLitterModel:
    def test_embedded_table_cells(self):
        assert LITTER_TABLE[12][0] == 54
        assert LITTER_TABLE[10][1] == 17

    def test_total_litters(self):
        assert embedded_litter_data().total_litters == 555

    def test_mixture_collapse_at_large_gamma(self):
        # gamma ~= 1: the likelihood reduces to a single binomial in mu
        target = embedded_litter_data()
        params = np.array([35.0, -1.3, 0.7])
        collapsed = litter_log_likelihood(params, target)
        single = 0.0
        mu = 1.0 / (1.0 + math.exp(1.3))
        for n, row in LITTER_TABLE.items():
            for x, c in enumerate(row):
                if c > 0:
                    log_c = gammaln(n + 1) - gammaln(x + 1) - gammaln(n - x + 1)
                    single += c * (
                        log_c + x * math.log(mu) + (n - x) * math.log(1 - mu)
                    )
        assert collapsed == pytest.approx(single, abs=1e-8)

    def test_gamma_drops_out_when_components_match(self):
        values = [
            litter_log_likelihood(np.array([g, 0.4, 0.4])) for g in (-2.0, 0.0, 2.0)
        ]
        assert max(values) - min(values) < 1e-12

    def test_origin_matches_per_litter_brute_force(self):
        # expand the table into 555 individual litters and sum one by one
        total = 0.0
        count = 0
        for n, row in LITTER_TABLE.items():
            for x, c in enumerate(row):
                for _ in range(c):
                    count += 1
                    log_c = gammaln(n + 1) - gammaln(x + 1) - gammaln(n - x + 1)
                    p = 0.5 * math.exp(log_c) * 0.5**n + 0.5 * math.exp(log_c) * 0.5**n
                    total += math.log(p)
        assert count == 555
        assert litter_log_likelihood(np.zeros(3)) == pytest.approx(total, abs=1e-8)

    def test_label_swap_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g, mu, v = rng.normal(scale=2.0, size=3)
            a = litter_log_likelihood(np.array([g, mu, v]))
            b = litter_log_likelihood(np.array([-g, v, mu]))
            assert abs(a - b) < 1e-10

    def test_non_finite_params_give_neg_inf(self):
        assert litter_log_likelihood(np.array([np.nan, 0.0, 0.0])) == -np.inf

    @pytest.mark.parametrize("cells", [
        [(5, 7, 3)],  # x > n
        [(3, -1, 2), (10, 2, 5)],  # x < 0
        [(0, 0, 2)],  # n < 1
    ], ids=["dead-above-size", "negative-dead", "empty-litter"])
    def test_invalid_cells_rejected(self, cells):
        with pytest.raises(ValueError, match="invalid litter cell"):
            LitterTarget(cells)


def _write_covtype_fixture(path, rng, counts=(50, 40, 10)):
    """Three-class covtype-format CSV (54 features + class), known counts."""
    rows = []
    for klass, count in zip((1, 2, 3), counts):
        for _ in range(count):
            features = rng.normal(loc=float(klass), scale=1.0, size=54)
            rows.append(list(features) + [klass])
    rng.shuffle(rows)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


class TestLoadCovtype:
    def test_filters_to_two_majority_classes(self, tmp_path):
        rng = np.random.default_rng(4)
        path = _write_covtype_fixture(tmp_path / "cov.csv", rng)
        ds = load_covtype(path, n_select=90, n_features=9, train_fraction=0.5, seed=0)
        assert ds.train_x.shape == (45, 9)
        assert ds.test_x.shape == (45, 9)
        # requesting more rows than the two majority classes hold must fail
        with pytest.raises(ValueError):
            load_covtype(path, n_select=91, n_features=9, train_fraction=0.5, seed=0)

    def test_full_train_fraction_leaves_empty_test(self, tmp_path):
        rng = np.random.default_rng(5)
        path = _write_covtype_fixture(tmp_path / "cov.csv", rng)
        ds = load_covtype(path, n_select=80, n_features=9, train_fraction=1.0, seed=0)
        assert ds.test_x.shape == (0, 9)

    def test_deterministic_given_seed(self, tmp_path):
        rng = np.random.default_rng(6)
        path = _write_covtype_fixture(tmp_path / "cov.csv", rng)
        a = load_covtype(path, n_select=60, n_features=9, train_fraction=0.75, seed=3)
        b = load_covtype(path, n_select=60, n_features=9, train_fraction=0.75, seed=3)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)

    def test_training_standardization(self, tmp_path):
        rng = np.random.default_rng(7)
        path = _write_covtype_fixture(tmp_path / "cov.csv", rng)
        ds = load_covtype(path, n_select=80, n_features=9, train_fraction=0.8, seed=1)
        assert np.max(np.abs(ds.train_x.mean(axis=0))) < 1e-8
        assert np.max(np.abs(ds.train_x.var(axis=0) - 1.0)) < 1e-6
        ds.training_target()  # construction enforces the invariant

    def test_constant_training_column_names_it(self, tmp_path):
        rng = np.random.default_rng(8)
        path = _write_covtype_fixture(tmp_path / "cov.csv", rng)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows:
            row[3] = "2.5"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        message = "feature column 3 (0-based) is constant over the 64 training rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_covtype(path, n_select=80, n_features=9, train_fraction=0.8, seed=1)

    def test_missing_file_errors(self):
        with pytest.raises(ValueError):
            load_covtype("/nonexistent/covtype.csv", 10, 9, 0.5, 0)

    @pytest.mark.parametrize("text, message", [
        ("1.0,2.0,1\n1.0,oops,2\n", "bad.csv:2"),
        # a blank line is skipped but still counted
        ("1.0,2.0,1\n\n1.0,2.0,3.0,1\n", "bad.csv:3: expected 3 fields, got 4"),
    ], ids=["unparseable", "ragged-after-blank"])
    def test_malformed_row_names_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_covtype(path, 1, 1, 0.5, 0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_value_names_line(self, tmp_path, bad, column):
        path = tmp_path / "bad.csv"
        row = ["1.0", "1"]
        row[column] = bad
        path.write_text("1.0,1\n-1.0,2\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-finite value")):
            load_covtype(path, 2, 1, 0.5, 0)

    def test_non_integer_class_label_names_line(self, tmp_path):
        # truncated, the labels would load as two classes, 1 and 2
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1\n-0.5,2.7\n1.5,1.2\n-1.5,2\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:2: class label 2.7 is not an integer")):
            load_covtype(path, 2, 1, 0.5, 0)

    def test_header_line_is_skipped(self, tmp_path):
        # line 1 is a header when none of its fields parses as a number
        rows = _write_covtype_fixture(tmp_path / "rows.csv", np.random.default_rng(9))
        lines = rows.read_text()
        headed = tmp_path / "headed.csv"
        headed.write_text(",".join(f"f{i}" for i in range(54)) + ",class\n" + lines)
        args = dict(n_select=80, n_features=9, train_fraction=0.75, seed=2)
        expected = load_covtype(rows, **args)
        got = load_covtype(headed, **args)
        for name, value in vars(expected).items():
            np.testing.assert_array_equal(getattr(got, name), value)
        half = tmp_path / "half.csv"
        half.write_text("0.5," + ",".join(f"f{i}" for i in range(1, 54)) + ",class\n" + lines)
        with pytest.raises(ValueError, match=re.escape(f"{half}:1: unparseable value")):
            load_covtype(half, **args)

    @pytest.mark.parametrize("n_select, n_features, train_fraction, message", [
        (0, 9, 0.75, "n_select must be >= 1, got 0"),
        (80, 0, 0.75, "n_features must be >= 1, got 0"),
        (80, 9, 0.0, "train_fraction must leave 1 to n_select = 80 training rows, got 0.0"),
        (80, 9, 0.006, "train_fraction must leave 1 to n_select = 80 training rows"),
        (80, 9, 1.5, "train_fraction must leave 1 to n_select = 80 training rows, got 1.5"),
        (80, 9, np.nan, "train_fraction must leave 1 to n_select = 80 training rows, got nan"),
    ])
    def test_sizes_that_leave_no_data_rejected(self, tmp_path, n_select, n_features,
                                               train_fraction, message):
        path = _write_covtype_fixture(tmp_path / "cov.csv", np.random.default_rng(8))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_covtype(path, n_select=n_select, n_features=n_features,
                         train_fraction=train_fraction, seed=0)


class TestSyntheticLogistic:
    def test_shapes_and_determinism(self):
        ds1, beta1 = make_synthetic_logistic(300, 100, 5, seed=11)
        ds2, beta2 = make_synthetic_logistic(300, 100, 5, seed=11)
        np.testing.assert_array_equal(beta1, beta2)
        np.testing.assert_array_equal(ds1.train_x, ds2.train_x)
        np.testing.assert_array_equal(ds1.test_y, ds2.test_y)
        assert ds1.train_x.shape == (300, 5)
        assert ds1.test_x.shape == (100, 5)
        assert isinstance(ds1, Dataset)

    @pytest.mark.parametrize("n_train, n_test, n_features, beta_scale, message", [
        (0, 100, 5, 2.0, "n_train must be >= 1, got 0"),
        (300, -5, 5, 2.0, "n_test must be >= 0, got -5"),
        (300, 100, 0, 2.0, "n_features must be >= 1, got 0"),
        (300, 100, 5, np.nan, "beta_scale must be finite and positive, got nan"),
        (300, 100, 5, np.inf, "beta_scale must be finite and positive, got inf"),
        (300, 100, 5, 0.0, "beta_scale must be finite and positive, got 0.0"),
    ])
    def test_sizes_that_leave_no_data_rejected(self, n_train, n_test, n_features,
                                               beta_scale, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_synthetic_logistic(n_train, n_test, n_features, seed=11,
                                    beta_scale=beta_scale)

    def test_one_training_row_names_a_constant_column(self):
        # every column of a single training row is constant
        message = "feature column 0 (0-based) is constant over the 1 training rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_synthetic_logistic(1, 100, 5, seed=11)

    def test_empty_test_set_allowed(self):
        ds, _ = make_synthetic_logistic(30, 0, 2, seed=11)
        assert ds.train_x.shape == (30, 2) and ds.test_x.shape == (0, 2)

    def test_true_beta_separates_better_than_chance(self):
        ds, beta_star = make_synthetic_logistic(2000, 1000, 9, seed=12)
        pred = (ds.test_x @ beta_star > 0).astype(float)
        assert np.mean(pred == ds.test_y) > 0.65
