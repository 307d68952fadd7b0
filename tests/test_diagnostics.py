"""Diagnostics and CSV persistence."""

import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import random_mixture_stacks
from rgess.diagnostics import (
    ModeSpec,
    TraceRecord,
    Traces,
    accuracy,
    mode_coverage,
    posterior_mean,
    read_mixtures_csv,
    read_trace_csv,
    rejection_rate_series,
    write_mixtures_csv,
    write_trace_csv,
)
from rgess.distributions import Gaussian, MixtureModel, StudentT, _mixture
from rgess.targets import Dataset


def _traces(*chains):
    """``Traces`` of chains given as ``(iteration, point, rejections,
    region)`` rows; every chain records the same iterations."""
    rows = [row for chain in chains for row in chain]
    shape = (len(chains), len(chains[0]) if chains else 0)
    return Traces(
        iterations=np.array([row[0] for row in chains[0]] if chains else [], dtype=int),
        points=np.array([row[1] for row in rows], dtype=float).reshape(
            *shape, len(rows[0][1]) if rows else 0),
        rejections=np.array([row[2] for row in rows], dtype=int).reshape(shape),
        regions=np.array([row[3] for row in rows], dtype=int).reshape(shape),
    )


class TestTraceRecord:
    def _record(self, point=(1.5, -2.25)):
        return TraceRecord(chain=3, iteration=17, point=np.array(point), rejections=4,
                           region=1)

    def test_is_slotted(self):
        record = self._record()
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.region = 0

    @pytest.mark.parametrize("point", [(1.5,), (1.5, -2.25)])
    def test_equality_compares_every_field(self, point):
        record = self._record(point=point)
        assert dataclasses.replace(record, point=np.array(point)) == record
        moved = np.array(point) + 0.5
        for name, value in [("chain", 4), ("iteration", 18), ("point", moved),
                            ("point", np.append(point, 0.0)), ("rejections", 5),
                            ("region", 0)]:
            assert dataclasses.replace(record, **{name: value}) != record

    def test_pickle_round_trip_keeps_every_field(self):
        record = self._record()
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is TraceRecord
        for field in dataclasses.fields(TraceRecord):
            got, want = getattr(again, field.name), getattr(record, field.name)
            assert type(got) is type(want)
            if field.name == "point":
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            else:
                assert got == want


class TestTraces:
    @staticmethod
    def _two_chains():
        return _traces([(1, [0.5, 1.0], 2, 0), (3, [1.5, 2.0], 0, 1)],
                       [(1, [-0.5, 4.0], 1, 1), (3, [2.5, 3.0], 5, 0)])

    def test_indexing_a_chain_builds_its_records(self):
        traces = self._two_chains()
        assert len(traces) == 2
        assert traces[1] == [
            TraceRecord(chain=1, iteration=1, point=np.array([-0.5, 4.0]), rejections=1,
                        region=1),
            TraceRecord(chain=1, iteration=3, point=np.array([2.5, 3.0]), rejections=5,
                        region=0),
        ]
        assert traces[-1] == traces[1] and list(traces) == [traces[0], traces[1]]
        rec = traces[0][1]
        assert all(type(v) is int for v in (rec.chain, rec.iteration, rec.rejections,
                                             rec.region))
        with pytest.raises(IndexError):
            traces[2]

    def test_equality_compares_every_array(self):
        traces = self._two_chains()
        assert traces == self._two_chains()
        for name in ("iterations", "points", "regions", "rejections"):
            changed = getattr(traces, name).copy()
            changed.flat[0] += 1
            assert dataclasses.replace(traces, **{name: changed}) != traces
        assert traces != _traces([(1, [0.5, 1.0], 2, 0), (3, [1.5, 2.0], 0, 1)])

    @pytest.mark.parametrize("name, shape", [
        ("iterations", (3,)), ("points", (2, 2)), ("points", (2, 3, 2)),
        ("regions", (2,)), ("rejections", (1, 2)),
    ])
    def test_shapes_must_agree(self, name, shape):
        traces = self._two_chains()
        with pytest.raises(ValueError, match=r"points \(K, N, D\)"):
            dataclasses.replace(traces, **{name: np.zeros(shape, dtype=int)})


class TestRejectionRateSeries:
    def test_all_zero(self):
        traces = _traces([(i, [0.0], 0, 0) for i in range(1, 5)])
        assert rejection_rate_series(traces, 2) == [0.0, 0.0]

    def test_constant_three(self):
        traces = _traces([(i, [0.0], 3, 0) for i in range(1, 7)])
        assert rejection_rate_series(traces, 3) == [3.0, 3.0]

    def test_hand_built_two_chain_example(self):
        chain0 = [(1, [0.0], 0, 0), (2, [0.0], 1, 0), (3, [0.0], 2, 0), (4, [0.0], 1, 0)]
        chain1 = [(1, [0.0], 2, 0), (2, [0.0], 3, 0), (3, [0.0], 0, 0), (4, [0.0], 1, 0)]
        assert rejection_rate_series(_traces(chain0, chain1), 2) == [1.5, 1.0]

    def test_empty_traces_error(self):
        with pytest.raises(ValueError):
            rejection_rate_series(_traces(), 2)
        with pytest.raises(ValueError):
            rejection_rate_series(_traces([]), 2)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rejection_rate_series(_traces([(1, [0.0], 0, 0)]), 0)


def _dataset(test_x, test_y):
    d = test_x.shape[1]
    return Dataset(
        train_x=np.zeros((0, d)), train_y=np.zeros(0),
        test_x=test_x, test_y=test_y,
        feature_mean=np.zeros(d), feature_sd=np.ones(d),
    )


class TestAccuracy:
    def test_all_correct(self):
        test_x = np.array([[1.0], [-1.0]])
        test_y = np.array([1.0, 0.0])
        assert accuracy(np.array([5.0]), _dataset(test_x, test_y)) == 1.0

    def test_zero_beta_predicts_class_zero(self):
        # p = 0.5 exactly; the strict threshold maps everything to class 0
        test_x = np.array([[1.0], [2.0], [-1.0], [3.0]])
        test_y = np.array([0.0, 1.0, 0.0, 1.0])
        assert accuracy(np.zeros(1), _dataset(test_x, test_y)) == 0.5

    def test_hand_built_fraction(self):
        test_x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        test_y = np.array([1.0, 1.0, 1.0, 0.0])
        beta = np.array([1.0, 1.0])
        # predictions: 1, 1, 0, 0 -> matches on rows 0, 1, 3
        assert accuracy(beta, _dataset(test_x, test_y)) == 0.75

    def test_empty_test_set_errors(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(2), _dataset(np.zeros((0, 2)), np.zeros(0)))

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            test_x = rng.normal(size=(8, 3))
            test_y = (rng.random(8) < 0.5).astype(float)
            value = accuracy(rng.normal(size=3), _dataset(test_x, test_y))
            assert 0.0 <= value <= 1.0


class TestModeCoverage:
    def test_all_samples_at_one_center(self):
        traces = _traces([(i, [1.0, 1.0], 0, 0) for i in range(1, 11)])
        spec = ModeSpec(centers=(np.array([1.0, 1.0]), np.array([9.0, 9.0])), radius=1.0)
        assert mode_coverage(traces, spec, burn_in=0) == [1.0, 0.0]

    def test_disjoint_balls_sum_below_one(self):
        rows = [(i, [0.0, 0.0], 0, 0) for i in range(1, 6)]
        rows += [(i, [10.0, 0.0], 0, 0) for i in range(6, 9)]
        rows += [(i, [100.0, 100.0], 0, 0) for i in range(9, 11)]
        traces = _traces(rows)
        spec = ModeSpec(centers=(np.zeros(2), np.array([10.0, 0.0])), radius=2.0)
        fractions = mode_coverage(traces, spec, burn_in=0)
        assert fractions == [0.5, 0.3]
        assert sum(fractions) <= 1.0

    def test_burn_in_respected(self):
        rows = [(1, [5.0, 5.0], 0, 0), (2, [0.0, 0.0], 0, 0)]
        traces = _traces(rows)
        spec = ModeSpec(centers=(np.zeros(2),), radius=0.5)
        assert mode_coverage(traces, spec, burn_in=1) == [1.0]


class TestModeSpec:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_center(self, bad):
        with pytest.raises(ValueError, match="mode centers must be finite"):
            ModeSpec(centers=(np.array([bad, 0.0]), np.ones(2)), radius=1.0)


class TestPosteriorMean:
    def test_single_sample(self):
        traces = _traces([(1, [3.0, -1.0], 0, 0)])
        np.testing.assert_array_equal(posterior_mean(traces, 0), [3.0, -1.0])

    def test_two_samples(self):
        traces = _traces([(1, [0.0, 0.0], 0, 0), (2, [2.0, 2.0], 0, 0)])
        np.testing.assert_array_equal(posterior_mean(traces, 0), [1.0, 1.0])

    def test_iid_normal_clt(self):
        rng = np.random.default_rng(1)
        mu = np.array([0.7, -0.2])
        rows = [(i, rng.normal(size=2) + mu, 0, 0) for i in range(1, 10_001)]
        traces = _traces(rows)
        mean = posterior_mean(traces, 0)
        assert np.all(np.abs(mean - mu) < 4.0 / np.sqrt(10_000))

    def test_bits_equal_the_mean_of_stacked_records(self):
        # the reduction of the record-list form, kept as the reference
        rng = np.random.default_rng(4)
        traces = _traces(*[[(i, rng.normal(size=3) * 1e3, 0, 0) for i in range(1, 41)]
                           for _ in range(5)])
        expected = np.stack([rec.point for chain in traces for rec in chain
                             if rec.iteration > 7]).mean(axis=0)
        assert posterior_mean(traces, 7).tobytes() == expected.tobytes()

    def test_empty_selection_errors(self):
        traces = _traces([(1, [0.0], 0, 0)])
        with pytest.raises(ValueError):
            posterior_mean(traces, burn_in=5)


def _mixture_history():
    g = MixtureModel(
        [0.25, 0.75],
        [Gaussian([0.0, 1.0], np.eye(2)),
         Gaussian([5.0, -1.0], np.array([[2.0, 0.3], [0.3, 1.0]]))],
    )
    t = MixtureModel(
        [1.0], [StudentT([1.0, 1.0], 3.0 * np.eye(2), 4.5)]
    )
    return [(0, g), (20, t)]


class TestCsvRoundTrip:
    def test_trace_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        traces = _traces(*[
            [(i, rng.normal(size=2) * 1e-7, int(rng.integers(5)), int(rng.integers(2)))
             for i in range(1, 9)]
            for _ in range(3)
        ])
        path, mpath = tmp_path / "trace.csv", tmp_path / "mixtures.csv"
        write_trace_csv(traces, _mixture_history(), path, mpath)
        back, history = read_trace_csv(path, mpath)
        assert len(back) == 3 and back == traces
        assert [it for it, _ in history] == [0, 20]
        orig1 = _mixture_history()[1][1].components[0]
        new1 = history[1][1].components[0]
        np.testing.assert_array_equal(orig1.mean, new1.mean)
        np.testing.assert_array_equal(orig1.scale, new1.scale)
        assert orig1.dof == new1.dof

    def test_empty_traces_round_trip(self, tmp_path):
        path, mpath = tmp_path / "trace.csv", tmp_path / "mixtures.csv"
        write_trace_csv(_traces(), [], path, mpath)
        back, history = read_trace_csv(path, mpath)
        assert back == _traces()
        assert history == []
        assert path.read_text().startswith("chain,iteration,region,rejections")

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("chain,iteration,region,rejections,x0\n0,1,0,0,0.5\n0,two,0,0,1.0\n")
        with pytest.raises(ValueError, match="trace.csv:3"):
            read_trace_csv(path, tmp_path / "mixtures.csv")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_line(self, tmp_path, value):
        path = tmp_path / "trace.csv"
        path.write_text(f"chain,iteration,region,rejections,x0\n0,1,0,0,0.5\n0,2,0,0,{value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-finite value")):
            read_trace_csv(path, tmp_path / "mixtures.csv")

    def test_oversized_field_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("chain,iteration,region,rejections,x0\n0,1,0,0," + "1" * 200_000 + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: field larger than")):
            read_trace_csv(path, tmp_path / "mixtures.csv")

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("chain,iteration,region,rejections,x0\n0,1,0,0\n")
        with pytest.raises(ValueError, match="trace.csv:2"):
            read_trace_csv(path, tmp_path / "mixtures.csv")

    def test_interleaved_chains_read_as_chain_major(self, tmp_path):
        rng = np.random.default_rng(4)
        traces = _traces(*[
            [(i, rng.normal(size=2), int(rng.integers(5)), int(rng.integers(3)))
             for i in range(1, 6)]
            for _ in range(3)
        ])
        path, mpath = tmp_path / "trace.csv", tmp_path / "mixtures.csv"
        write_trace_csv(traces, [], path, mpath)
        header, *rows = path.read_text().splitlines()
        # iteration-major: row n of every chain, then row n + 1
        interleaved = [rows[k * 5 + n] for n in range(5) for k in (2, 0, 1)]
        path.write_text("\n".join([header, *interleaved]) + "\n")
        back, _ = read_trace_csv(path, mpath)
        assert back == traces

    @pytest.mark.parametrize("row", ["0,1,9223372036854775808,0,0.5",
                                     "1,-9223372036854775809,0,0,0.5",
                                     "0,1,0,99999999999999999999,0.5"])
    def test_integer_beyond_64_bits_names_line(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"chain,iteration,region,rejections,x0\n0,0,0,0,0.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: integer out of 64-bit range")):
            read_trace_csv(path, tmp_path / "mixtures.csv")

    def test_non_increasing_iteration_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "chain,iteration,region,rejections,x0\n"
            "0,2,0,0,0.5\n0,1,0,0,1.0\n"
        )
        with pytest.raises(ValueError, match="trace.csv:3"):
            read_trace_csv(path, tmp_path / "mixtures.csv")

    @pytest.mark.parametrize("rows, message", [
        ("0,1,0,0,0.5\n2,1,0,0,1.0\n", "chain ids run from 0 to 2, not 0..1"),
        ("1,1,0,0,0.5\n", "chain ids run from 1 to 1, not 0..0"),
        ("0,1,0,0,0.5\n0,2,0,0,0.5\n1,1,0,0,1.0\n", "the chains record different iterations"),
        ("0,1,0,0,0.5\n1,2,0,0,1.0\n", "the chains record different iterations"),
    ])
    def test_misaligned_chains_rejected_naming_file(self, tmp_path, rows, message):
        path = tmp_path / "trace.csv"
        path.write_text("chain,iteration,region,rejections,x0\n" + rows)
        with pytest.raises(ValueError, match=f"trace.csv: {message}"):
            read_trace_csv(path, tmp_path / "mixtures.csv")

    def test_series_recomputed_from_round_trip_matches(self, tmp_path):
        rng = np.random.default_rng(3)
        traces = _traces(*[
            [(i, rng.normal(size=1), int(rng.integers(7)), 0) for i in range(1, 13)]
            for _ in range(2)
        ])
        before = rejection_rate_series(traces, 3)
        path, mpath = tmp_path / "trace.csv", tmp_path / "mixtures.csv"
        write_trace_csv(traces, [], path, mpath)
        back, _ = read_trace_csv(path, mpath)
        assert rejection_rate_series(back, 3) == before

    def test_explicit_mixtures_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        mpath = tmp_path / "mixtures.csv"
        write_trace_csv(_traces(), _mixture_history(), path, mixtures_path=mpath)
        assert mpath.exists()
        assert len(read_mixtures_csv(mpath)) == 2

    def test_absent_mixtures_file_reads_as_empty_history(self, tmp_path):
        path, mpath = tmp_path / "trace.csv", tmp_path / "mixtures.csv"
        write_trace_csv(_traces([(1, [0.5], 0, 0)]), _mixture_history(), path, mpath)
        mpath.unlink()
        back, history = read_trace_csv(path, mpath)
        assert len(back) == 1 and history == []

    def test_unreadable_mixtures_file_is_an_error(self, tmp_path):
        # only a mixtures file that does not exist reads as an empty history
        path, mpath = tmp_path / "trace.csv", tmp_path / "mixtures.csv"
        write_trace_csv(_traces([(1, [0.5], 0, 0)]), [], path, mpath)
        mpath.unlink()
        mpath.mkdir()
        with pytest.raises(ValueError, match=re.escape(f"cannot read mixtures CSV {mpath}")):
            read_trace_csv(path, mpath)

    @pytest.mark.parametrize("name", ["missing.csv", "directory"])
    def test_read_mixtures_of_unreadable_path_is_an_error(self, tmp_path, name):
        (tmp_path / "directory").mkdir()
        mpath = tmp_path / name
        with pytest.raises(ValueError, match=re.escape(f"cannot read mixtures CSV {mpath}")):
            read_mixtures_csv(mpath)

    def test_empty_mixtures_file_is_missing_its_header(self, tmp_path):
        mpath = tmp_path / "mixtures.csv"
        mpath.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{mpath}:1: missing header")):
            read_mixtures_csv(mpath)

    def test_mixture_weights_round_trip_within_invariant(self, tmp_path):
        weights = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 - 2.0 / 3.0])
        m = MixtureModel(weights, [Gaussian([float(i)], [[1.0]]) for i in range(3)])
        mpath = tmp_path / "m.csv"
        write_mixtures_csv([(0, m)], mpath)
        back = read_mixtures_csv(mpath)[0][1]
        np.testing.assert_array_equal(back.weights, weights)


@st.composite
def _persisted_run(draw):
    """``(traces, mixture_history)`` of one dimension D in 1..9: 1..3
    mixtures built with ``_mixture`` (either kind, M in 1..4) at increasing
    iterations, and K in 1..4 chains recording the same 1..5 iterations,
    with finite coordinates of any magnitude."""
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    history = []
    iteration = 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["gaussian", "student_t"]))
        stacks = random_mixture_stacks(rng, kind, draw(st.integers(1, 4)), d)
        history.append((iteration, _mixture(*stacks)))
        iteration += draw(st.integers(1, 100))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    iterations = sorted(draw(st.sets(st.integers(1, 10**6), min_size=n, max_size=n)))
    coords = st.floats(allow_nan=False, allow_infinity=False)
    points = draw(hnp.arrays(np.float64, (k, n, d), elements=coords))
    counts = hnp.arrays(np.int64, (k, n), elements=st.integers(0, 10**6))
    regions, rejections = draw(counts), draw(counts)
    traces = Traces(iterations=np.array(iterations), points=points, regions=regions,
                    rejections=rejections)
    return traces, history


class TestCsvRoundTripProperty:
    """``trace.csv`` and ``mixtures.csv`` hold every field of a run: what
    is read back equals what was written, bit for bit."""

    @settings(deadline=None, max_examples=100)
    @given(_persisted_run())
    def test_write_then_read_is_bitwise(self, tmp_path_factory, run):
        traces, history = run
        out = tmp_path_factory.mktemp("run")
        path, mpath = out / "trace.csv", out / "mixtures.csv"
        write_trace_csv(traces, history, path, mpath)
        back, back_history = read_trace_csv(path, mpath)
        for name in ("iterations", "points", "regions", "rejections"):
            x, y = getattr(traces, name), getattr(back, name)
            assert (y.dtype, y.shape, y.tobytes()) == (x.dtype, x.shape, x.tobytes()), name
        assert [it for it, _ in back_history] == [it for it, _ in history]
        for (_, a), (_, b) in zip(history, back_history):
            assert b.kind == a.kind
            for name in ("weights", "_means", "_scales", "_dofs", "_chols"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None and y is None) or (
                    x.shape == y.shape and x.tobytes() == y.tobytes()), name


_MIXTURES_HEADER = "iteration,component,weight,mean0,cov0,dof\n"


class TestReadMixturesCsvValidation:
    """Each malformed iteration raises a ``ValueError`` that names the file
    and the iteration."""

    @staticmethod
    def _assert_rejected(tmp_path, rows, reason):
        path = tmp_path / "mixtures.csv"
        path.write_text(_MIXTURES_HEADER + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}: iteration 20: {reason}")):
            read_mixtures_csv(path)

    @pytest.mark.parametrize("header", ["iteration,component,weight,mean0,dof\n",
                                        "iteration,component,weight,mean0,cov0\n"])
    def test_unrecognized_header_names_line(self, tmp_path, header):
        path = tmp_path / "mixtures.csv"
        path.write_text(header + "20,0,1.0,0.0,1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: unrecognized header")):
            read_mixtures_csv(path)

    @pytest.mark.parametrize("components", [(0, 0), (0, 2)])
    def test_duplicate_or_missing_component_index(self, tmp_path, components):
        rows = "".join(f"20,{k},0.5,{k}.0,1.0,\n" for k in components)
        self._assert_rejected(tmp_path, rows, "component indices")

    def test_gaussian_row_then_t_row(self, tmp_path):
        rows = "20,0,0.5,0.0,1.0,\n20,1,0.5,1.0,1.0,4.0\n"
        self._assert_rejected(tmp_path, rows, "some components have a dof")

    def test_t_row_then_gaussian_row(self, tmp_path):
        rows = "20,0,0.5,0.0,1.0,4.0\n20,1,0.5,1.0,1.0,\n"
        self._assert_rejected(tmp_path, rows, "some components have a dof")

    def test_invalid_mixture_names_file_and_iteration(self, tmp_path):
        rows = "0,0,1.0,0.0,1.0,\n20,0,0.6,0.0,1.0,\n20,1,0.5,1.0,1.0,\n"
        self._assert_rejected(tmp_path, rows, "invalid mixture")

    def test_infinite_dof_names_file_and_iteration(self, tmp_path):
        rows = "20,0,0.5,0.0,1.0,4.0\n20,1,0.5,1.0,1.0,inf\n"
        self._assert_rejected(tmp_path, rows, "invalid mixture (dof must be finite, got inf)")

    def test_nan_weight_names_file_and_iteration(self, tmp_path):
        rows = "20,0,nan,0.0,1.0,\n20,1,1.0,1.0,1.0,\n"
        self._assert_rejected(tmp_path, rows, "invalid mixture (mixture weights must be")

    @pytest.mark.parametrize("mean", ["nan", "inf"])
    def test_non_finite_mean_names_file_and_iteration(self, tmp_path, mean):
        rows = f"20,0,0.5,0.0,1.0,\n20,1,0.5,{mean},1.0,\n"
        self._assert_rejected(tmp_path, rows, "invalid mixture (mean contains non-finite")
