"""Command-line front end: config round-trips, presets, exit codes, outputs."""

import os

import numpy as np
import pytest

from helpers import min_distance_to_outliers, outlier_fixture, outlier_fixture_true_mixture
from rgess.cli import available_presets, main, resolve_config_source
from rgess.config import build_experiment, parse_config_text, serialize_config
from rgess.diagnostics import read_mixtures_csv, read_trace_csv, write_mixtures_csv

TINY_RUN = """
target.kind = gauss_mix
run.kernel = tmrgess
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
report.mode_centers = 25,50; 5,5; 50,5; 50,50
report.mode_radius = 9.4868329805051381
"""


def _write_config(tmp_path, text=TINY_RUN, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
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


class TestPresets:
    def test_presets_ship_and_validate(self, tmp_path):
        names = available_presets()
        assert "gauss-mix-tmrgess" in names
        assert "litter-em-tmrgess" in names
        assert "logistic-synth" in names
        for name in names:
            entries = resolve_config_source(name)
            # the covtype preset points at a user-supplied file
            exp = build_experiment(entries, check_paths=False)
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

    def test_invalid_pairing_exits_one_writes_nothing(self, tmp_path):
        bad = TINY_RUN.replace("adaptation.scheme = em_tmm",
                               "adaptation.scheme = em_gmm")
        cfg = _write_config(tmp_path, bad)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == 1
        assert not os.path.exists(out)

    def test_zero_em_max_iters_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "gauss-mix-vi-gmrgess", "--out", out,
                     "--set", "adaptation.em_max_iters=0"]) == 1
        assert "em_max_iters" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_ess_kernel_without_split_exits_one_writes_nothing(self, tmp_path,
                                                                capsys):
        out = str(tmp_path / "out")
        assert main(["run", "gauss-mix-gess", "--out", out,
                     "--set", "run.kernel=ess"]) == 1
        assert "prior/likelihood split" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_set_overrides(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out, "--set", "run.iterations=12"]) == 0
        traces, _ = read_trace_csv(os.path.join(out, "trace.csv"))
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

    def test_missing_files_exit_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "trace.csv" in capsys.readouterr().err


def _write_samples_csv(path, samples):
    with open(path, "w") as fh:
        for row in np.atleast_2d(samples):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    return str(path)


class TestCmdFit:
    def test_em_two_clusters(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            [rng.normal(-10, 1, 250), rng.normal(10, 1, 250)]
        )[:, None]
        csv_path = _write_samples_csv(tmp_path / "s.csv", samples)
        out = str(tmp_path / "m.csv")
        code = main(["fit", csv_path, "--scheme", "em_gmm",
                     "--components", "2", "--out", out])
        assert code == 0
        mixture = read_mixtures_csv(out)[-1][1]
        means = sorted(c.mean[0] for c in mixture.components)
        assert abs(means[0] + 10.0) < 0.5
        assert abs(means[1] - 10.0) < 0.5

    def test_single_component_closed_form(self, tmp_path):
        samples = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, -1.0]])
        csv_path = _write_samples_csv(tmp_path / "s.csv", samples)
        out = str(tmp_path / "m.csv")
        code = main(["fit", csv_path, "--scheme", "em_gmm", "--components", "1",
                     "--reg-radius", "0.25", "--out", out])
        assert code == 0
        comp = read_mixtures_csv(out)[-1][1].components[0]
        np.testing.assert_allclose(comp.mean, samples.mean(axis=0), atol=1e-12)
        mle = np.cov(samples, rowvar=False, bias=True)
        np.testing.assert_allclose(comp.cov, mle + 0.25 * np.eye(2), atol=1e-9)

    def test_outlier_fixture_em_vs_sa(self, tmp_path):
        samples = outlier_fixture()
        csv_path = _write_samples_csv(tmp_path / "s.csv", samples)

        em_out = str(tmp_path / "em.csv")
        assert main(["fit", csv_path, "--scheme", "em_gmm", "--components", "3",
                     "--reg-radius", "0.05", "--seed", "41", "--out", em_out]) == 0
        em_mixture = read_mixtures_csv(em_out)[-1][1]
        assert min_distance_to_outliers(em_mixture) < 1.0

        init_path = str(tmp_path / "init.csv")
        write_mixtures_csv([(0, outlier_fixture_true_mixture())], init_path)
        sa_out = str(tmp_path / "sa.csv")
        assert main(["fit", csv_path, "--scheme", "sa_gmm", "--components", "3",
                     "--init", init_path, "--sa-steps", "50", "--out", sa_out]) == 0
        sa_mixture = read_mixtures_csv(sa_out)[-1][1]
        assert min_distance_to_outliers(sa_mixture) >= 1.0

    def test_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n1.0,oops\n")
        assert main(["fit", str(bad), "--scheme", "em_gmm",
                     "--components", "1"]) == 1

    @pytest.mark.parametrize("scheme", ["em_gmm", "vi_gmm", "em_tmm"])
    def test_zero_max_iters_exits_one(self, tmp_path, capsys, scheme):
        samples = np.random.default_rng(3).normal(size=(20, 2))
        csv_path = _write_samples_csv(tmp_path / "s.csv", samples)
        out = tmp_path / "m.csv"
        assert main(["fit", csv_path, "--scheme", scheme, "-M", "2",
                     "--max-iters", "0", "--out", str(out)]) == 1
        assert "em_max_iters" in capsys.readouterr().err
        assert not out.exists()

    def test_sa_requires_init(self, tmp_path):
        csv_path = _write_samples_csv(tmp_path / "s.csv", np.zeros((5, 1)))
        assert main(["fit", csv_path, "--scheme", "sa_gmm",
                     "--components", "1"]) == 1
