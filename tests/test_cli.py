import csv
import json
import sys

import numpy as np
import pytest

from probcal.cli import EXIT_ASSERTION, EXIT_FIT, EXIT_INPUT, EXIT_OK, main, run
from probcal.serialize import load_model


@pytest.fixture()
def scored_csv(tmp_path):
    path = tmp_path / "scored.csv"
    code = main(["simulate", "--kind", "oracle", "--n", "300", "--seed", "1", "--out", str(path)])
    assert code == EXIT_OK
    return path


@pytest.fixture()
def histogram_model(scored_csv, tmp_path):
    path = tmp_path / "hist.json"
    code = main(
        ["fit", "--method", "histogram", "--in", str(scored_csv), "--out", str(path)]
    )
    assert code == EXIT_OK
    return path


class TestSimulate:
    def test_oracle_csv_shape(self, scored_csv):
        with open(scored_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["score", "label"]
        assert len(rows) == 301
        for score, label in rows[1:]:
            assert 0.0 <= float(score) <= 1.0
            assert label in ("0", "1")

    def test_xor_csv_shape(self, tmp_path):
        path = tmp_path / "xor.csv"
        assert main(["simulate", "--kind", "xor", "--n", "40", "--out", str(path)]) == EXIT_OK
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x1", "x2", "label"]
        assert len(rows) == 41

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            main(["simulate", "--kind", "oracle", "--n", "100", "--seed", "5", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "oracle", "--curve", "constant", "--level", "1.5", "--n", "10"],
            ["--kind", "oracle", "--n", "0"],
            ["--kind", "xor", "--n", "2"],
        ],
    )
    def test_bad_generator_flags_are_input_errors(self, flags, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["simulate", *flags, "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_different_seed_gives_different_data(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["simulate", "--kind", "oracle", "--n", "100", "--seed", "5", "--out", str(a)])
        main(["simulate", "--kind", "oracle", "--n", "100", "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestFit:
    @pytest.mark.parametrize(
        "method",
        ["histogram", "histogram-width", "platt", "isotonic", "kde", "kde-shared"],
    )
    def test_each_method_writes_loadable_model(self, scored_csv, tmp_path, method, capsys):
        path = tmp_path / "model.json"
        code = main(["fit", "--method", method, "--in", str(scored_csv), "--out", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"method: {method}" in out
        assert "model written to" in out
        model = load_model(path)
        predictions = model.predict(np.linspace(0, 1, 11))
        assert np.all((predictions >= 0) & (predictions <= 1))

    def test_dpm_fit(self, scored_csv, tmp_path):
        path = tmp_path / "dpm.json"
        code = main(
            [
                "fit", "--method", "dpm", "--in", str(scored_csv), "--out", str(path),
                "--truncation", "5", "--max-iter", "50",
            ]
        )
        assert code == EXIT_OK
        assert json.loads(path.read_text())["method"] == "dpm"

    def test_explicit_bin_count(self, scored_csv, tmp_path, capsys):
        path = tmp_path / "model.json"
        code = main(
            ["fit", "--method", "histogram", "--in", str(scored_csv), "--out", str(path), "--bins", "4"]
        )
        assert code == EXIT_OK
        assert "bins: 4 (frequency)" in capsys.readouterr().out

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["fit", "--method", "platt", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_one_class_data_is_a_fit_error(self, tmp_path, capsys):
        data = tmp_path / "one_class.csv"
        data.write_text("score,label\n0.2,1\n0.4,1\n0.9,1\n")
        code = main(
            ["fit", "--method", "platt", "--in", str(data), "--out", str(tmp_path / "m.json")]
        )
        assert code == EXIT_FIT
        assert "fit error:" in capsys.readouterr().err


class TestApply:
    def test_appends_calibrated_column(self, scored_csv, histogram_model, tmp_path):
        out = tmp_path / "applied.csv"
        code = main(
            ["apply", "--model", str(histogram_model), "--in", str(scored_csv), "--out", str(out)]
        )
        assert code == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert set(rows[0]) == {"score", "label", "calibrated"}
        for row in rows:
            assert 0.0 <= float(row["calibrated"]) <= 1.0

    def test_custom_column_name(self, scored_csv, histogram_model, tmp_path):
        out = tmp_path / "applied.csv"
        code = main(
            [
                "apply", "--model", str(histogram_model), "--in", str(scored_csv),
                "--out", str(out), "--column", "p_cal",
            ]
        )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "score,label,p_cal"

    def test_refuses_existing_column(self, scored_csv, histogram_model, tmp_path, capsys):
        out = tmp_path / "applied.csv"
        code = main(
            [
                "apply", "--model", str(histogram_model), "--in", str(scored_csv),
                "--out", str(out), "--column", "label",
            ]
        )
        assert code == EXIT_INPUT
        assert "already exists" in capsys.readouterr().err

    def test_unparseable_score_reports_row(self, histogram_model, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("score,label\n0.5,1\nabc,0\n")
        code = main(
            ["apply", "--model", str(histogram_model), "--in", str(data), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_INPUT
        assert "row 2" in capsys.readouterr().err

    def test_out_of_range_score_rejected(self, histogram_model, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("score,label\n1.5,1\n")
        code = main(
            ["apply", "--model", str(histogram_model), "--in", str(data), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_INPUT
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_header_only_input(self, histogram_model, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("score,label\n")
        out = tmp_path / "o.csv"
        code = main(["apply", "--model", str(histogram_model), "--in", str(data), "--out", str(out)])
        assert code == EXIT_OK
        assert "0 rows calibrated" in capsys.readouterr().out
        assert out.read_text().strip() == "score,label,calibrated"

    def test_missing_model_file(self, scored_csv, tmp_path):
        code = main(
            ["apply", "--model", str(tmp_path / "no.json"), "--in", str(scored_csv), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_INPUT


class TestEval:
    def test_prints_metrics(self, scored_csv, capsys):
        code = main(["eval", "--in", str(scored_csv)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for name in ("RMSE", "AUC", "ACC", "MCE", "ECE"):
            assert name in out

    def test_model_adds_auc_loss_line(self, scored_csv, histogram_model, capsys):
        code = main(["eval", "--in", str(scored_csv), "--model", str(histogram_model)])
        assert code == EXIT_OK
        assert "AUC loss vs raw scores" in capsys.readouterr().out

    def test_metrics_csv_output(self, scored_csv, histogram_model, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(
            ["eval", "--in", str(scored_csv), "--model", str(histogram_model), "--out", str(out)]
        )
        assert code == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["rmse", "auc", "accuracy", "mce", "ece", "auc_loss"]
        assert len(rows) == 2

    def test_reliability_csv_output(self, scored_csv, tmp_path):
        out = tmp_path / "reliability.csv"
        code = main(
            ["eval", "--in", str(scored_csv), "--bins", "5", "--reliability-out", str(out)]
        )
        assert code == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 6  # header plus one row per bin

    def test_prediction_column_evaluated_as_is(self, scored_csv, histogram_model, tmp_path, capsys):
        applied = tmp_path / "applied.csv"
        main(["apply", "--model", str(histogram_model), "--in", str(scored_csv), "--out", str(applied)])
        code = main(["eval", "--in", str(applied), "--prediction-column", "calibrated"])
        assert code == EXIT_OK

    def test_missing_column(self, scored_csv, capsys):
        code = main(["eval", "--in", str(scored_csv), "--prediction-column", "nope"])
        assert code == EXIT_INPUT


class TestVerifyCommand:
    def test_generous_bound_passes(self, capsys):
        code = main(
            [
                "verify", "mce-bound", "--n", "500", "--bins", "5", "--delta", "0.5",
                "--trials", "10", "--test-size", "50000",
            ]
        )
        assert code == EXIT_OK
        assert "[PASS]" in capsys.readouterr().out

    def test_undersized_test_set_fails_the_bound(self, capsys):
        # MCE on a tiny test set is dominated by label noise the bound
        # does not cover, so this fails deterministically
        code = main(
            [
                "verify", "mce-bound", "--n", "100000", "--bins", "10",
                "--test-size", "1000", "--trials", "10",
            ]
        )
        assert code == EXIT_ASSERTION
        assert "[FAIL]" in capsys.readouterr().out

    def test_narrow_grid_is_input_error(self, capsys):
        code = main(["verify", "ece-rate", "--n-grid", "100,1000", "--trials", "2"])
        assert code == EXIT_INPUT
        assert "two decades" in capsys.readouterr().err

    def test_unsorted_sizes_is_input_error(self, capsys):
        code = main(["verify", "size-sweep", "--sizes", "1000,100", "--trials", "2"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["mce-bound", "--n", "0"], "n_cal and n_bins must be >= 1"),
            (["mce-bound", "--bins", "0"], "n_cal and n_bins must be >= 1"),
            (["mce-bound", "--curve", "constant", "--level", "1.5"], "level must lie in [0, 1]"),
            (["auc-loss", "--bin-grid", ","], "bin counts must be >= 1"),
        ],
    )
    def test_degenerate_flags_are_input_errors(self, flags, message, capsys):
        code = main(["verify", *flags, "--trials", "2"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1

    def test_report_files_are_deterministic(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            csv_path = tmp_path / f"{name}.csv"
            json_path = tmp_path / f"{name}.json"
            code = main(
                [
                    "verify", "size-sweep", "--sizes", "100,1000", "--trials", "2",
                    "--test-size", "2000", "--csv-out", str(csv_path),
                    "--json-out", str(json_path),
                ]
            )
            assert code in (EXIT_OK, EXIT_ASSERTION)
            outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0][1].decode())
        assert "assertions" in payload and "points" in payload


class TestArgumentErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_INPUT
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["train"]) == EXIT_INPUT
        capsys.readouterr()

    def test_bad_method_choice(self, capsys):
        assert main(["fit", "--method", "spline", "--in", "x", "--out", "y"]) == EXIT_INPUT
        capsys.readouterr()

    def test_bad_list_argument(self, capsys):
        assert main(["verify", "size-sweep", "--sizes", "10,oops"]) == EXIT_INPUT
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_run_wrapper_raises_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["probcal"])
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == EXIT_INPUT
        capsys.readouterr()


class TestPipeline:
    def test_simulate_fit_apply_eval(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        applied = tmp_path / "applied.csv"
        assert main(["simulate", "--kind", "oracle", "--n", "500", "--curve", "square", "--out", str(data)]) == EXIT_OK
        assert main(["fit", "--method", "kde", "--in", str(data), "--out", str(model)]) == EXIT_OK
        assert main(["apply", "--model", str(model), "--in", str(data), "--out", str(applied)]) == EXIT_OK
        assert main(["eval", "--in", str(applied), "--prediction-column", "calibrated"]) == EXIT_OK
        capsys.readouterr()
