"""Command-line front end: config round-trips, presets, exit codes, outputs."""

import math
import os
import warnings

import numpy as np
import pytest

from rgess.cli import available_presets, main, resolve_config_source
from rgess.config import build_experiment, parse_config_text, serialize_config
from rgess.diagnostics import ModeSpec, _fmt, mode_coverage, read_mixtures_csv, read_trace_csv
from rgess.targets import GaussMixTarget

TINY_RUN = """
target.kind = gauss_mix
run.kernel = rgess
run.chains = 6
run.iterations = 30
run.burn_in = 5
run.master_seed = 99
init.mean = 5, 5
init.cov_scale = 5
adaptation.scheme = em_tmm
adaptation.components = 2
adaptation.interval = 10
adaptation.reg_radius = 0.5
report.window = 10
"""


def _write_config(tmp_path, text=TINY_RUN, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _write_covtype_csv(path, n_rows=60, nan_row=None):
    """Covtype-format CSV: nine standard-normal features and a class label
    of 1 or 2 in the last column; row ``nan_row`` (0-based), if given, has a
    ``nan`` third feature."""
    rng = np.random.default_rng(12)
    features = rng.normal(size=(n_rows, 9))
    if nan_row is not None:
        features[nan_row, 2] = np.nan
    with open(path, "w") as fh:
        for row, klass in zip(features, rng.integers(1, 3, size=n_rows)):
            fh.write(",".join(format(v, ".10g") for v in row) + f",{klass}\n")
    return str(path)


class TestConfigFormat:
    def test_round_trip_identity(self):
        entries = parse_config_text(TINY_RUN)
        again = parse_config_text(serialize_config(entries))
        assert again == entries

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\ntarget.kind = gauss_mix  # trailing\n"
        assert parse_config_text(text) == {"target.kind": "gauss_mix"}

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown key"):
            parse_config_text("target.kindd = gauss_mix")

    def test_missing_equals_rejected(self):
        with pytest.raises(Exception, match="key = value"):
            parse_config_text("just some words")

    def test_build_reports_missing_required(self):
        with pytest.raises(Exception, match="missing required key"):
            build_experiment(parse_config_text("target.kind = gauss_mix"))

    def test_init_cov_scale_is_required(self):
        entries = parse_config_text(TINY_RUN.replace("init.cov_scale = 5\n", ""))
        with pytest.raises(Exception, match="missing required key 'init.cov_scale'"):
            build_experiment(entries)


class TestPresets:
    def test_presets_ship_and_validate(self, tmp_path):
        names = available_presets()
        assert "gauss-mix-tmrgess" in names
        assert "litter-em-tmrgess" in names
        assert "logistic-synth" in names
        # the covtype preset points at a user-supplied file
        covtype = tmp_path / "covtype.csv"
        covtype.write_text("")
        for name in names:
            entries = resolve_config_source(name)
            if entries["target.kind"] == "logistic":
                entries["target.path"] = str(covtype)
            exp = build_experiment(entries)
            assert exp.run_config.chains >= 1

    def test_gauss_mix_preset_pins_published_settings(self):
        exp = build_experiment(resolve_config_source("gauss-mix-tmrgess"))
        assert exp.run_config.chains == 50
        assert exp.run_config.iterations == 500
        assert exp.run_config.adaptation.components == 4
        np.testing.assert_array_equal(exp.run_config.init.mean, [5.0, 5.0])
        np.testing.assert_array_equal(exp.run_config.init.cov, 5.0 * np.eye(2))

    def test_litter_preset_pins_published_settings(self):
        exp = build_experiment(resolve_config_source("litter-em-tmrgess"))
        assert exp.run_config.steps_per_iteration == 4
        assert exp.run_config.adaptation.interval == 20
        assert exp.run_config.adaptation.components == 2
        np.testing.assert_array_equal(exp.run_config.init.cov, 5.0 * np.eye(3))


class TestCmdRun:
    def test_tiny_run_emits_all_files(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == 0
        for name in ("trace.csv", "mixtures.csv", "summary.csv", "config.cfg"):
            assert os.path.exists(os.path.join(out, name))
        traces, history = read_trace_csv(
            os.path.join(out, "trace.csv"),
            mixtures_path=os.path.join(out, "mixtures.csv"),
        )
        assert len(traces) == 6
        assert len(traces[0]) == 30
        assert history  # initial fit plus barrier refits

    @pytest.mark.parametrize("scheme, kind", [("em_gmm", "gaussian"), ("vi_gmm", "gaussian"),
                                              ("sa_gmm", "gaussian"), ("em_tmm", "student_t")])
    def test_scheme_sets_mixture_kind(self, tmp_path, scheme, kind):
        cfg = _write_config(tmp_path, TINY_RUN.replace("adaptation.scheme = em_tmm",
                                                       f"adaptation.scheme = {scheme}"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        history = read_mixtures_csv(out / "mixtures.csv")
        assert [iteration for iteration, _ in history] == [0, 10, 20, 30]
        assert {mixture.kind for _, mixture in history} == {kind}

    def test_zero_em_max_iters_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "gauss-mix-vi-gmrgess", "--out", out,
                     "--set", "adaptation.em_max_iters=0"]) == 1
        assert "em_max_iters" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_mh_proposal_scale_exits_one_writes_nothing(self, tmp_path, capsys,
                                                            scale):
        out = str(tmp_path / "out")
        assert main(["run", "logistic-synth-mh", "--out", out,
                     "--set", f"run.mh_proposal_scale={scale}"]) == 1
        assert "mh_proposal_scale" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_burn_in_of_every_iteration_exits_one_writes_nothing(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "gauss-mix-tmrgess", "--out", out,
                     "--set", "run.iterations=30", "--set", "run.burn_in=30"]) == 1
        assert "burn_in must lie in [0, 30)" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [("reg_radius", "nan"), ("reg_radius", "inf"),
                                            ("em_tol", "nan"), ("em_tol", "-1e-6"),
                                            ("reg_radius", "-0.5"), ("components", "0"),
                                            ("interval", "0")])
    def test_bad_adaptation_number_exits_one_writes_nothing(self, tmp_path, capsys,
                                                            key, value):
        out = str(tmp_path / "out")
        assert main(["run", "gauss-mix-em-gmrgess", "--out", out,
                     "--set", f"adaptation.{key}={value}"]) == 1
        assert key in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("preset, setting, message", [
        ("gauss-mix-tmrgess", "fixed_dof=inf", "fixed_dof must be finite"),
        ("gauss-mix-em-gmrgess", "fixed_dof=3", "fixed_dof applies only to the em_tmm scheme"),
        ("gauss-mix-vi-gmrgess", "fixed_dof=3", "fixed_dof applies only to the em_tmm scheme"),
        ("gauss-mix-sa-gmrgess", "fixed_dof=3", "fixed_dof applies only to the em_tmm scheme"),
    ])
    def test_bad_hyperparameter_exits_one_writes_nothing(self, tmp_path, capsys,
                                                         preset, setting, message):
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", preset, "--out", out, "--set", "run.iterations=60",
                         "--set", "run.burn_in=10",
                         "--set", f"adaptation.{setting}"]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kernel", ["ess", "gess", "regional_mh", "gmrgess", "tmrgess"])
    def test_removed_kernel_is_unknown_exits_one_writes_nothing(self, tmp_path, capsys,
                                                                kernel):
        out = str(tmp_path / "out")
        assert main(["run", "gauss-mix-gess", "--out", out,
                     "--set", f"run.kernel={kernel}"]) == 1
        assert (f"run.kernel must be one of ['rgess', 'mh'], got {kernel!r}"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("preset, settings, message", [
        ("gauss-mix-tmrgess", ["target.n_select=5"],
         "target.kind = gauss_mix does not read target.n_select"),
        ("litter-em-tmrgess", ["target.seed=3"], "target.kind = litter does not read target.seed"),
        ("logistic-synth", ["target.path=data.csv"],
         "target.kind = logistic_synth does not read target.path"),
        ("logistic-synth-mh", ["adaptation.scheme=em_tmm", "adaptation.components=4"],
         "run.kernel = mh does not read adaptation.scheme, adaptation.components"),
        ("logistic-synth-mh", ["adaptation.interval=7"],
         "run.kernel = mh does not read adaptation.interval"),
    ])
    def test_unread_key_exits_one_writes_nothing(self, tmp_path, capsys, preset, settings,
                                                 message):
        out = str(tmp_path / "out")
        sets = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["run", preset, "--out", out, *sets]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("scale", ["1e50", "1e100"])
    def test_large_init_cov_scale_runs(self, tmp_path, scale):
        # the em_tmm refit repairs covariances with entries near the scale
        out = tmp_path / "out"
        assert main(["run", "gauss-mix-tmrgess", "--out", str(out), "--set", "run.iterations=30",
                     "--set", "run.burn_in=10", "--set", f"init.cov_scale={scale}"]) == 0
        assert main(["report", str(out)]) == 0

    @pytest.mark.parametrize("kind, mean", [("gauss_mix", "5, 5"), ("litter", "0, 0, 0")])
    def test_mode_rows_come_from_the_target(self, tmp_path, kind, mean):
        # no report.* key: gauss_mix scores its own four modes, litter none
        text = (TINY_RUN.replace("report.window = 10\n", "")
                .replace("target.kind = gauss_mix", f"target.kind = {kind}")
                .replace("init.mean = 5, 5", f"init.mean = {mean}"))
        out = tmp_path / "out"
        assert main(["run", _write_config(tmp_path, text), "--out", str(out)]) == 0
        traces, _ = read_trace_csv(out / "trace.csv", out / "mixtures.csv")
        want = []
        if kind == "gauss_mix":
            modes = ModeSpec(GaussMixTarget.MEANS, 3 * math.sqrt(10.0))
            want = [f"mode_coverage,{i},{_fmt(f)}"
                    for i, f in enumerate(mode_coverage(traces, modes, burn_in=5))]
        rows = (out / "summary.csv").read_text().splitlines()
        assert [row for row in rows if row.startswith("mode_coverage,")] == want

    def test_gess_preset_runs_rgess(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "gauss-mix-gess", "--out", str(out), "--set", "run.chains=4",
                     "--set", "run.iterations=30", "--set", "run.burn_in=10"]) == 0
        assert "run.kernel = rgess" in (out / "config.cfg").read_text().splitlines()

    def test_mh_proposal_scale_with_other_kernel_exits_one_writes_nothing(self, tmp_path,
                                                                         capsys):
        out = str(tmp_path / "out")
        assert main(["run", "gauss-mix-tmrgess", "--out", out,
                     "--set", "run.mh_proposal_scale=1"]) == 1
        assert "ignores mh_proposal_scale" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("preset, mean, dims", [
        ("gauss-mix-tmrgess", "1,2,3", (3, 2)),
        ("litter-em-tmrgess", "0,0", (2, 3)),
        ("gauss-mix-tmrgess", "", (0,)),
    ])
    def test_init_mean_of_wrong_dimension_exits_one_writes_nothing(self, tmp_path, capsys,
                                                                   preset, mean, dims):
        out = str(tmp_path / "out")
        assert main(["run", preset, "--out", out, "--set", f"init.mean={mean}"]) == 1
        err = capsys.readouterr().err
        assert "init.mean has dimension" in err
        assert all(str(d) in err for d in dims)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mean, message", [
        ("inf,0", "finite"),
        ("nan,0", "finite"),
        ("5,,5", "could not convert string to float: ''"),
        ("5,5,", "could not convert string to float: ''"),
    ])
    def test_bad_init_mean_exits_one_writes_nothing(self, tmp_path, capsys, mean, message):
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "gauss-mix-tmrgess", "--out", out,
                         "--set", f"init.mean={mean}"]) == 1
        err = capsys.readouterr().err
        assert "init.mean" in err and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("args", [["--set", "output.dir="], ["--out", ""]],
                             ids=["set", "out"])
    def test_empty_output_dir_exits_one_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                       args):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "gauss-mix-tmrgess", *args]) == 1
        assert "output.dir must name a directory, got ''" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("preset, key, value", [
        ("gauss-mix-em-gmrgess", "adaptation.weighted_regions", "true"),
        ("gauss-mix-vi-gmrgess", "adaptation.vi_alpha0", "1"),
        ("gauss-mix-tmrgess", "init.cov", "5,0,0,5"),
        ("gauss-mix-tmrgess", "run.thinning", "2"),
        ("gauss-mix-sa-gmrgess", "adaptation.sa_c", "0.5"),
        ("gauss-mix-sa-gmrgess", "adaptation.sa_n0", "10"),
        ("gauss-mix-tmrgess", "report.mode_centers", "25,50; 5,5; 50,5; 50,50"),
        ("gauss-mix-tmrgess", "report.mode_radius", "3"),
        ("logistic-covtype", "target.header", "true"),
    ])
    def test_removed_key_is_unknown_exits_one_writes_nothing(self, tmp_path, capsys,
                                                             preset, key, value):
        out = str(tmp_path / "out")
        assert main(["run", preset, "--out", out, "--set", f"{key}={value}"]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("preset, setting, message", [
        ("gauss-mix-tmrgess", "run.master_seed=-1", "master_seed must be >= 0, got -1"),
        ("logistic-synth", "target.seed=-1", "target.seed must be >= 0, got -1"),
    ])
    def test_negative_seed_exits_one_writes_nothing(self, tmp_path, capsys, preset,
                                                    setting, message):
        out = str(tmp_path / "out")
        assert main(["run", preset, "--out", out, "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("setting, message", [
        ("n_train=0", "n_train must be >= 1, got 0"),
        ("n_test=-5", "n_test must be >= 0, got -5"),
        ("n_features=0", "n_features must be >= 1, got 0"),
        ("beta_scale=nan", "beta_scale must be finite and positive, got nan"),
    ])
    def test_logistic_synth_without_data_exits_one_writes_nothing(self, tmp_path, capsys,
                                                                  setting, message):
        out = str(tmp_path / "out")
        assert main(["run", "logistic-synth", "--out", out, "--set", f"target.{setting}"]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("setting, message", [
        ("n_select=0", "n_select must be >= 1, got 0"),
        ("n_features=0", "n_features must be >= 1, got 0"),
        ("train_fraction=0", "train_fraction must leave 1 to n_select = 40 training rows"),
        ("train_fraction=1.5", "train_fraction must leave 1 to n_select = 40 training rows"),
    ])
    def test_covtype_without_data_exits_one_writes_nothing(self, tmp_path, capsys,
                                                           setting, message):
        path = _write_covtype_csv(tmp_path / "covtype.csv")
        out = str(tmp_path / "out")
        assert main(["run", "logistic-covtype", "--out", out, "--set", f"target.path={path}",
                     "--set", "target.n_select=40", "--set", f"target.{setting}"]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_covtype_without_test_rows_runs(self, tmp_path):
        # train_fraction = 1 trains on every selected row; the summary then
        # has no accuracy row
        path = _write_covtype_csv(tmp_path / "covtype.csv")
        out = tmp_path / "out"
        assert main(["run", "logistic-covtype", "--out", str(out), "--set", f"target.path={path}",
                     "--set", "target.n_select=40", "--set", "target.train_fraction=1",
                     "--set", "run.chains=4", "--set", "run.iterations=6",
                     "--set", "run.burn_in=2", "--set", "adaptation.interval=3"]) == 0
        summary = (out / "summary.csv").read_text()
        assert "posterior_mean" in summary and "accuracy" not in summary

    @pytest.mark.parametrize("seed", [1, 3])
    def test_covtype_non_finite_value_exits_one_writes_nothing(self, tmp_path, capsys, seed):
        # all 200 rows are selected; target.seed 1 puts the nan row (line 6)
        # in the training split, target.seed 3 in the test split
        path = _write_covtype_csv(tmp_path / "covtype.csv", n_rows=200, nan_row=5)
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "logistic-covtype", "--out", out,
                         "--set", f"target.path={path}", "--set", "target.n_select=200",
                         "--set", f"target.seed={seed}", "--set", "run.chains=4",
                         "--set", "run.iterations=6", "--set", "run.burn_in=2",
                         "--set", "adaptation.interval=3"]) == 1
        err = capsys.readouterr().err
        assert f"{path}:6: non-finite value" in err
        assert not os.path.exists(out)

    def test_covtype_non_integer_label_exits_one_writes_nothing(self, tmp_path, capsys):
        # truncated, labels 2.7 and 1.2 would load as classes 2 and 1
        csv = tmp_path / "covtype.csv"
        path = _write_covtype_csv(csv)
        lines = csv.read_text().splitlines()
        for lineno, label in ((2, "2.7"), (3, "1.2")):
            lines[lineno - 1] = lines[lineno - 1].rsplit(",", 1)[0] + "," + label
        csv.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        assert main(["run", "logistic-covtype", "--out", out, "--set", f"target.path={path}",
                     "--set", "target.n_select=40", "--set", "run.chains=4",
                     "--set", "run.iterations=6", "--set", "run.burn_in=2"]) == 1
        assert f"{path}:2: class label 2.7 is not an integer" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_covtype_ragged_row_exits_one_writes_nothing(self, tmp_path, capsys):
        csv = tmp_path / "covtype.csv"
        path = _write_covtype_csv(csv)
        lines = csv.read_text().splitlines()
        lines[3] = lines[3].split(",", 1)[1]
        csv.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        assert main(["run", "logistic-covtype", "--out", out, "--set", f"target.path={path}",
                     "--set", "target.n_select=40"]) == 1
        assert f"{path}:4: expected 10 fields, got 9" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_covtype_header_line_is_skipped(self, tmp_path):
        # the same rows after a line with no numeric field give the same
        # trace as the bare rows
        rows = _write_covtype_csv(tmp_path / "rows.csv")
        headed = tmp_path / "headed.csv"
        headed.write_text(",".join(f"f{i}" for i in range(9)) + ",class\n"
                          + (tmp_path / "rows.csv").read_text())
        short = ["--set", "target.n_select=40", "--set", "run.chains=4",
                 "--set", "run.iterations=6", "--set", "run.burn_in=2",
                 "--set", "adaptation.interval=3"]
        bare, with_header = tmp_path / "bare", tmp_path / "with_header"
        assert main(["run", "logistic-covtype", "--out", str(bare),
                     "--set", f"target.path={rows}", *short]) == 0
        assert main(["run", "logistic-covtype", "--out", str(with_header),
                     "--set", f"target.path={headed}", *short]) == 0
        assert (with_header / "trace.csv").read_bytes() == (bare / "trace.csv").read_bytes()

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_set_overrides(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out, "--set", "run.iterations=12"]) == 0
        traces, _ = read_trace_csv(os.path.join(out, "trace.csv"),
                                   os.path.join(out, "mixtures.csv"))
        assert len(traces[0]) == 12

    def test_covtype_missing_path_message(self, tmp_path, capsys):
        code = main(["run", "logistic-covtype", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "target.path" in err and "class" in err

    def test_runtime_failure_exits_two_with_context(self, tmp_path, capsys,
                                                    monkeypatch):
        from rgess.runner import RunError

        def explode(_config, _target):
            raise RunError(3, 17, ValueError("log target is not finite"))

        monkeypatch.setattr("rgess.cli.run", explode)
        cfg = _write_config(tmp_path)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "chain 3" in err and "iteration 17" in err
        assert not os.path.exists(tmp_path / "out")

    def test_overflowing_init_exits_two_leaves_no_directory(self, tmp_path, capsys):
        # init.cov_scale = 1e308 passes validation, and the run then fails
        # while fitting the initial mixture
        out = tmp_path / "X" / "deep"
        assert main(["run", "gauss-mix-tmrgess", "--out", str(out),
                     "--set", "init.cov_scale=1e308", "--set", "run.iterations=30",
                     "--set", "run.burn_in=10", "--set", "run.chains=4"]) == 2
        assert "run failed" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "X")


class TestCmdReport:
    def test_report_matches_summary_and_is_idempotent(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == 0
        assert main(["report", out]) == 0
        with open(os.path.join(out, "summary.csv"), "rb") as fh:
            summary_bytes = fh.read()
        with open(os.path.join(out, "report.csv"), "rb") as fh:
            report_bytes = fh.read()
        assert summary_bytes == report_bytes
        assert main(["report", out]) == 0
        with open(os.path.join(out, "report.csv"), "rb") as fh:
            assert fh.read() == report_bytes

    def test_window_changes_series_length(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == 0

        def series_length(path):
            with open(path) as fh:
                return sum(1 for line in fh if line.startswith("rejection_rate,"))

        assert main(["report", out, "--window", "10"]) == 0
        assert series_length(os.path.join(out, "report.csv")) == 3
        assert main(["report", out, "--window", "6"]) == 0
        assert series_length(os.path.join(out, "report.csv")) == 5

    def test_init_mean_of_wrong_dimension_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
        config = out / "config.cfg"
        lines = ["init.mean = 5, 5, 5" if line.startswith("init.mean") else line
                 for line in config.read_text().splitlines()]
        config.write_text("\n".join(lines) + "\n")
        assert main(["report", str(out)]) == 1
        assert "init.mean has dimension 3" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("line, message", [
        ("adaptation.vi_alpha0 = 1", "unknown key 'adaptation.vi_alpha0'"),
        ("init.cov = 5,0,0,5", "unknown key 'init.cov'"),
        ("run.thinning = 1", "unknown key 'run.thinning'"),
        ("report.mode_centers = 25,50; 5,5; 50,5; 50,50", "unknown key 'report.mode_centers'"),
        ("run.kernel = tmrgess", "run.kernel must be one of ['rgess', 'mh'], got 'tmrgess'"),
    ])
    def test_removed_key_in_run_config_exits_one(self, tmp_path, capsys, line, message):
        # a run directory written with a since-removed setting is refused
        out = tmp_path / "out"
        assert main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
        config = out / "config.cfg"
        config.write_text(config.read_text() + line + "\n")
        assert main(["report", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
        (out / "report.csv").mkdir()
        assert main(["report", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_exits_one(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines()
        # line 21 is chain 0 at iteration 20, past the burn-in of 5
        chain, iteration, region, rejections, _, x1 = lines[20].split(",")
        assert (chain, iteration) == ("0", "20")
        lines[20] = ",".join([chain, iteration, region, rejections, value, x1])
        trace.write_text("\n".join(lines) + "\n")
        assert main(["report", str(out)]) == 1
        assert f"{trace}:21: non-finite value" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_unreadable_trace_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
        (out / "trace.csv").unlink()
        (out / "trace.csv").mkdir()
        assert main(["report", str(out)]) == 1
        assert f"error: cannot read trace CSV {out / 'trace.csv'}" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_missing_files_exit_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "trace.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("keep, rename, message", [
        (lambda c, n: n != 30, None, "records 6 chains at iterations 1 to 30"),
        (lambda c, n: c != 5, None, "records 6 chains at iterations 1 to 30"),
        (lambda c, n: (c, n) != (2, 10), None, "the chains record different iterations"),
        (None, (5, 9), "chain ids run from 0 to 9, not 0..5"),
    ], ids=["iteration-30-dropped", "chain-5-dropped", "one-row-dropped", "chain-5-renamed"])
    def test_misaligned_trace_exits_one(self, tmp_path, capsys, keep, rename, message):
        out = tmp_path / "out"
        assert main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
        trace = out / "trace.csv"
        header, *rows = trace.read_text().splitlines()
        edited = [header]
        for row in rows:
            chain, iteration, rest = row.split(",", 2)
            if keep is not None and not keep(int(chain), int(iteration)):
                continue
            if rename is not None and int(chain) == rename[0]:
                chain = str(rename[1])
            edited.append(",".join([chain, iteration, rest]))
        trace.write_text("\n".join(edited) + "\n")
        assert main(["report", str(out)]) == 1
        err = capsys.readouterr().err
        assert "trace.csv" in err and message in err
        assert not (out / "report.csv").exists()


def test_fit_is_not_a_command(capsys):
    # the fitters are reached through run() and the library only
    with pytest.raises(SystemExit) as exc:
        main(["fit", "samples.csv", "--scheme", "em_gmm", "-M", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'fit'" in capsys.readouterr().err
