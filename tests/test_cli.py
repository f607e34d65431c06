import ast
import csv
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probcal
import probcal.cli
import probcal.data
import probcal.harness
import probcal.serialize
from probcal.cli import EXIT_ASSERTION, EXIT_FIT, EXIT_INPUT, EXIT_INTERRUPT, EXIT_OK, main, run
from probcal.serialize import format_float, load_model


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

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_xor_noise_is_named(self, noise, tmp_path, capsys):
        out = tmp_path / "xor.csv"
        assert main(["simulate", "--kind", "xor", "--n", "40", "--noise-sd", noise, "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: noise_sd must be finite and >= 0, got {float(noise)}\n"
        assert not out.exists()

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
        ["histogram", "histogram-width", "platt", "isotonic", "kde", "kde-shared", "dpm"],
    )
    def test_each_method_writes_loadable_model(self, scored_csv, tmp_path, method, capsys):
        path = tmp_path / "model.json"
        small = ["--truncation", "5", "--max-iter", "50"] if method == "dpm" else []
        code = main(["fit", "--method", method, "--in", str(scored_csv), "--out", str(path), *small])
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

    @pytest.mark.parametrize("method", ["platt", "dpm"])
    @pytest.mark.parametrize("flags", [["--max-iter", "0"], ["--tol", "-1"], ["--tol", "nan"]])
    def test_bad_iteration_settings_are_fit_errors(self, scored_csv, tmp_path, method, flags, capsys):
        out = tmp_path / "m.json"
        code = main(["fit", "--method", method, "--in", str(scored_csv), "--out", str(out), *flags])
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert err.startswith("fit error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0"])
    def test_bad_dpm_alpha_is_a_fit_error(self, scored_csv, tmp_path, alpha, capsys):
        out = tmp_path / "m.json"
        code = main(["fit", "--method", "dpm", f"--alpha={alpha}", "--in", str(scored_csv), "--out", str(out)])
        assert code == EXIT_FIT
        assert capsys.readouterr().err == f"fit error: alpha must lie in [1e-300, 1e300], got {float(alpha)}\n"
        assert not out.exists()

    # past the range the sweep's log-gammas (above) or its 1 / alpha (below) overflow
    @pytest.mark.parametrize("alpha", ["1e306", "5e-324"])
    def test_extreme_dpm_alpha_is_a_fit_error(self, scored_csv, tmp_path, alpha, capfd):
        out = tmp_path / "m.json"
        code = main(["fit", "--method", "dpm", "--alpha", alpha, "--max-iter", "20",
                     "--in", str(scored_csv), "--out", str(out)])
        assert code == EXIT_FIT
        assert capfd.readouterr().err == f"fit error: alpha must lie in [1e-300, 1e300], got {float(alpha)}\n"
        assert not out.exists()

    def test_large_dpm_alpha_fits_with_empty_stderr(self, scored_csv, tmp_path, capfd):
        # the digamma's y * y overflows to inf, whose reciprocal is the right limit: no warning.
        # capfd, not capsys: the forked child that fits the negative class writes to fd 2
        code = main(["fit", "--method", "dpm", "--alpha", "1e200", "--max-iter", "20",
                     "--in", str(scored_csv), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_OK
        assert capfd.readouterr().err == ""

    def test_dpm_truncation_above_the_smaller_class_is_a_fit_error(self, scored_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        # 300 rows, so no class holds 301 samples
        code = main(["fit", "--method", "dpm", "--truncation", "301", "--max-iter", "1",
                     "--in", str(scored_csv), "--out", str(out)])
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert err.startswith("fit error: truncation must not exceed the smaller class size, got 301")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_warning_is_one_line_and_display_is_restored(self, scored_csv, tmp_path, capsys):
        shown = warnings.showwarning
        code = main(
            ["fit", "--method", "platt", "--max-iter", "1", "--in", str(scored_csv),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("warning: sigmoid fit stopped after 1 iterations")
        assert err.count("\n") == 1
        assert warnings.showwarning is shown

    def test_warnings_of_both_dpm_processes_stay_whole_lines(self, scored_csv):
        # both processes of the DPM fit wait for one instant, then warn in a burst. Run in a
        # child, so that the forked process's writes to the shared stderr are seen: a line
        # written in two pieces splices with the other process's lines
        runs, burst = 5, 100
        probe = (
            "import sys, time, warnings\n"
            "import probcal.density\n"
            "from probcal.cli import main\n"
            "fit, start = probcal.density._fit_class_mixture, [0.0]\n"
            "def warned(x, *args):\n"
            "    while time.monotonic() < start[0]:\n"
            "        pass\n"
            f"    for _ in range({burst}):\n"
            "        warnings.warn(f'fit of {x.size} scores', RuntimeWarning)\n"
            "    return fit(x, *args)\n"
            "probcal.density._fit_class_mixture = warned\n"
            "warnings.simplefilter('always')\n"
            "for _ in range(int(sys.argv[1])):\n"
            "    start[0] = time.monotonic() + 0.05  # the child is forked before then\n"
            "    argv = ['fit', '--method', 'dpm', '--max-iter', '2', '--tol', '1e300']\n"
            "    assert main(argv + ['--in', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
        )
        source = str(Path(probcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", probe, str(runs), str(scored_csv), str(scored_csv.with_suffix(".json"))],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stderr.split("\n")
        assert lines.pop() == ""  # the text ends in a newline
        assert len(lines) == 2 * burst * runs
        assert all(line.startswith("warning: fit of ") and line.endswith(" scores") for line in lines), lines


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

    def test_header_only_input(self, scored_csv, tmp_path, capsys):
        self._check_header_only_input(scored_csv, tmp_path, capsys, "histogram")

    @pytest.mark.parametrize("method", ["platt", "isotonic", "kde", "dpm"])
    def test_header_only_input_other_kinds(self, scored_csv, tmp_path, capsys, method):
        # every model kind's predict maps no rows to no values
        self._check_header_only_input(scored_csv, tmp_path, capsys, method)

    @staticmethod
    def _check_header_only_input(scored_csv, tmp_path, capsys, method):
        model = tmp_path / "m.json"
        assert main(["fit", "--method", method, "--in", str(scored_csv), "--out", str(model)]) == EXIT_OK
        data = tmp_path / "empty.csv"
        data.write_text("score,label\n")
        out = tmp_path / "o.csv"
        code = main(["apply", "--model", str(model), "--in", str(data), "--out", str(out)])
        assert code == EXIT_OK
        assert "0 rows calibrated" in capsys.readouterr().out
        assert out.read_text().strip() == "score,label,calibrated"

    def test_missing_model_file(self, scored_csv, tmp_path):
        code = main(
            ["apply", "--model", str(tmp_path / "no.json"), "--in", str(scored_csv), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "payload",
        [
            {"method": "histogram"},
            {"method": "platt", "A": None, "B": 0.0},
            {
                "method": "histogram", "scheme": "frequency", "edges": [0.0, 1.0],
                "theta": [0.5, 0.5], "counts": [2], "positives": [1],
            },
        ],
        ids=["histogram-fields-missing", "platt-null-slope", "histogram-theta-length"],
    )
    def test_invalid_model_file_is_input_error(self, scored_csv, tmp_path, capsys, payload):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "o.csv"
        code = main(["apply", "--model", str(model), "--in", str(scored_csv), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ")
        assert err.count("\n") == 1
        assert not out.exists()


def apply_by_rows(model_path, in_path, column="calibrated") -> bytes:
    """What apply writes, computed one row at a time with csv.reader and csv.writer."""
    with open(in_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [row for row in reader if row]  # csv reads a blank line as []
    at = header.index("score")
    predictions = load_model(model_path).predict(np.array([float(row[at]) for row in rows]))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header + [column])
    for row, value in zip(rows, predictions.tolist()):
        writer.writerow(row + [format_float(value)])
    return out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def module_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "hist.json"
    data = tmp_path_factory.mktemp("data") / "scored.csv"
    assert main(["simulate", "--kind", "oracle", "--n", "200", "--seed", "3", "--out", str(data)]) == EXIT_OK
    assert main(["fit", "--method", "isotonic", "--in", str(data), "--out", str(path)]) == EXIT_OK
    return path


TEXT_CELLS = st.sampled_from(["", "a", "a b", "x,y", 'say "hi"', "two\nlines", "cr\rlf", "\u2028", "\x0b", "é", " "])


class TestApplyOutputBytes:
    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), TEXT_CELLS, st.sampled_from(["0", "1"])), max_size=8),
        st.permutations(["score", "note", "label"]),
        st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_a_csv_writer_reference(self, module_model, rows, names, ending):
        with tempfile.TemporaryDirectory() as tmp:
            source, out = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
            # csv.writer quotes a CR or LF only if its line ending holds one, so
            # write CRLF lines (no cell holds a CRLF) and then change the endings
            text = io.StringIO()
            writer = csv.writer(text)
            writer.writerow(names)
            for score, note, label in rows:
                cells = {"score": repr(score), "note": note, "label": label}
                writer.writerow([cells[name] for name in names])
            source.write_bytes(text.getvalue().replace("\r\n", ending).encode("utf-8"))
            code = main(["apply", "--model", str(module_model), "--in", str(source), "--out", str(out)])
            assert code == EXIT_OK
            assert out.read_bytes() == apply_by_rows(module_model, source)


class TestApplyOutputBytesInBlocks(TestApplyOutputBytes):
    """TestApplyOutputBytes with read blocks so small that each file straddles several."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 3, 64])
    def block_bytes(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probcal.data, "_BLOCK_BYTES", request.param)
            yield request.param


class TestBlockedRowPath:
    @pytest.mark.parametrize("block_bytes", [None, 64])
    def test_in_place_apply_rewrites_the_input(self, block_bytes, scored_csv, histogram_model, monkeypatch):
        if block_bytes:
            monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", block_bytes)
        expected = apply_by_rows(histogram_model, scored_csv)
        code = main(["apply", "--model", str(histogram_model), "--in", str(scored_csv), "--out", str(scored_csv)])
        assert code == EXIT_OK
        assert scored_csv.read_bytes() == expected

    @pytest.mark.parametrize(
        "fault, message",
        [
            (b"abc,0", "row 101: cannot parse score 'abc'"),
            (b"1.5,1", "row 101: score 1.5 outside [0, 1]"),
            (b"nan,0", "row 101: score nan outside [0, 1]"),
            (b'"x",1', "row 101: cannot parse score 'x'"),
            (b"0.5\x00,1", "row 101: cannot parse score '0.5\\x00'"),
            (b"0.5,1\xff", "can't decode byte 0xff"),
        ],
    )
    def test_bad_cell_in_the_last_block_exits_2_without_output(
        self, fault, message, histogram_model, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", 64)
        source, out = tmp_path / "in.csv", tmp_path / "out.csv"
        source.write_bytes(b"score,label\n" + b"0.5,1\n" * 100 + fault + b"\n")
        code = main(["apply", "--model", str(histogram_model), "--in", str(source), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["oracle", "xor"])
    def test_simulate_bytes_do_not_depend_on_the_block_size(self, kind, tmp_path, monkeypatch, capsys):
        args = ["simulate", "--kind", kind, "--n", "50", "--seed", "4", "--out"]
        whole = tmp_path / "whole.csv"
        assert main([*args, str(whole)]) == EXIT_OK
        for rows in (1, 7, 50, 64):
            monkeypatch.setattr(probcal.cli, "_BLOCK_ROWS", rows)
            blocked = tmp_path / f"blocked-{rows}.csv"
            assert main([*args, str(blocked)]) == EXIT_OK
            assert blocked.read_bytes() == whole.read_bytes()
        capsys.readouterr()


def forks_and_outputs(argvs, outputs, monkeypatch) -> tuple:
    """The os.fork calls (None without os.fork) and the bytes of each output path of running each argv through main."""
    forks, fork = [], getattr(os, "fork", None)
    if fork:
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    for argv in argvs:
        assert main(argv) == EXIT_OK
    return len(forks) if fork else None, [path.read_bytes() for path in outputs]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process block map needs os.fork")
class TestTwoProcessCommands:
    """With blocks so small that 200 rows span many, the forked block map writes the bytes of the in-process one."""

    def test_simulate_fit_kde_and_apply_write_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(probcal.cli, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", 64)
        monkeypatch.setattr(probcal.serialize, "_BLOCK_VALUES", 5)
        data, model, out = tmp_path / "data.csv", tmp_path / "kde.json", tmp_path / "out.csv"
        argvs = [
            ["simulate", "--kind", "oracle", "--n", "200", "--seed", "2", "--out", str(data)],
            ["fit", "--method", "kde", "--in", str(data), "--out", str(model)],
            ["apply", "--model", str(model), "--in", str(data), "--out", str(out)],
        ]
        # simulate; fit: the read and the two score lists; apply: the read and the write
        forked = forks_and_outputs(argvs, [data, model, out], monkeypatch)
        assert forked[0] == 6
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.delattr(os, "fork")
        assert forks_and_outputs(argvs, [data, model, out], monkeypatch)[1] == forked[1]
        capsys.readouterr()

    def test_ten_thousand_rows_stay_in_one_process(self, tmp_path, monkeypatch, capsys):
        data, model = tmp_path / "data.csv", tmp_path / "kde.json"
        argvs = [
            ["simulate", "--kind", "oracle", "--n", "10000", "--seed", "2", "--out", str(data)],
            ["fit", "--method", "kde", "--in", str(data), "--out", str(model)],
            ["apply", "--model", str(model), "--in", str(data), "--out", str(tmp_path / "out.csv")],
            ["eval", "--in", str(data), "--model", str(model), "--reliability-out", str(tmp_path / "bins.csv")],
        ]
        assert forks_and_outputs(argvs, [], monkeypatch)[0] == 0
        capsys.readouterr()

    def test_a_killed_child_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        parent, render = os.getpid(), probcal.data._render

        def killed_in_the_child(columns):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return render(columns)

        monkeypatch.setattr(probcal.data, "_render", killed_in_the_child)
        monkeypatch.setattr(probcal.cli, "_BLOCK_ROWS", 7)
        argv = ["simulate", "--kind", "oracle", "--n", "50", "--out", str(tmp_path / "data.csv")]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: block worker ") and err.count("\n") == 1
        assert err.endswith(f" ended without a result (wait status {signal.SIGKILL.value})\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestUndecodableByte:
    """An invalid UTF-8 byte is reported with the file, its 1-based line and its offset in the file."""

    @pytest.mark.parametrize(
        "content, line",
        [
            (b"sco\xffre,label\n0.5,1\n", 1),
            (b"score,label\n0.5,1\xff\n0.25,0\n", 2),
            (b"score,label\n" + b"0.5,1\n" * 100 + b"0.5,1\xff\n", 102),
        ],
        ids=["header", "data row 1", "last block"],
    )
    def test_exits_2_naming_path_and_line(self, content, line, histogram_model, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", 64)  # the last case's byte is in the last block
        source, out = tmp_path / "in.csv", tmp_path / "out.csv"
        source.write_bytes(content)
        code = main(["apply", "--model", str(histogram_model), "--in", str(source), "--out", str(out)])
        assert code == EXIT_INPUT
        offset = content.index(b"\xff")
        assert capsys.readouterr().err == (
            f"error: {source}: line {line}: 'utf-8' codec can't decode byte 0xff"
            f" in position {offset}: invalid start byte\n"
        )
        assert not out.exists()


# Runs a command and prints its exit code and peak RSS in KiB. A child's peak
# RSS counts from its parent's RSS at the fork, so commands are started from
# this small interpreter rather than from the test process.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
class TestPeakMemory:
    """Peak RSS above a bare ``import probcal.cli`` at 2e5 rows, against the CSV's size.

    Holding a whole file's text, its lines, its cells and every output row at
    once grew ``simulate`` by about 11 times the CSV and ``apply`` by about 16.
    """

    @staticmethod
    def peak_mb(*args) -> float:
        source = str(Path(probcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", LAUNCHER, sys.executable, "-c", *args],
            env=env, capture_output=True, text=True, check=True,
        )
        code, kib = map(int, result.stdout.split())
        assert code == EXIT_OK
        return kib / 1024

    def test_simulate_and_apply_grow_by_a_few_file_sizes(self, tmp_path):
        run, data, model = "from probcal.cli import run; run()", tmp_path / "data.csv", tmp_path / "model.json"
        bare = self.peak_mb("import probcal.cli")
        simulate = self.peak_mb(run, "simulate", "--kind", "oracle", "--n", "200000", "--out", str(data))
        self.peak_mb(run, "fit", "--method", "histogram", "--in", str(data), "--out", str(model))
        apply = self.peak_mb(run, "apply", "--model", str(model), "--in", str(data), "--out", str(tmp_path / "out.csv"))
        size_mb = data.stat().st_size / 2**20
        assert simulate - bare < 5 * size_mb
        assert apply - bare < 5 * size_mb

    def test_isotonic_and_kde_fits_and_kde_apply_grow_by_a_few_file_sizes(self, tmp_path):
        # a float list of the KDE training scores in `fit`, the kernel sums of every query at once
        # in `apply` and a re-sort in `np.unique` for isotonic once grew these 3.9x, 5.7x and 4.5x
        run, data = "from probcal.cli import run; run()", tmp_path / "data.csv"
        assert main(["simulate", "--kind", "oracle", "--n", "200000", "--seed", "1", "--out", str(data)]) == EXIT_OK
        bare = self.peak_mb("import probcal.cli")
        fit = {
            method: self.peak_mb(run, "fit", "--method", method, "--in", str(data), "--out", str(tmp_path / method))
            for method in ("isotonic", "kde")
        }
        apply = self.peak_mb(run, "apply", "--model", str(tmp_path / "kde"), "--in", str(data), "--out", str(tmp_path / "out"))
        size_mb = data.stat().st_size / 2**20
        assert fit["isotonic"] - bare < 4.5 * size_mb
        assert fit["kde"] - bare < 3.2 * size_mb
        assert apply - bare < 4.8 * size_mb

class TestEval:
    def test_prints_metrics(self, scored_csv, capsys):
        code = main(["eval", "--in", str(scored_csv)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for name in ("RMSE", "AUC", "ACC", "MCE", "ECE"):
            assert name in out

    def test_empty_reliability_bins_are_nan_cells(self, tmp_path, capsys):
        # 20 equal-frequency bins over 8 rows leave bins 8..19 empty
        source, bins = tmp_path / "eight.csv", tmp_path / "bins.csv"
        assert main(["simulate", "--kind", "oracle", "--n", "8", "--seed", "3", "--out", str(source)]) == EXIT_OK
        assert main(["eval", "--in", str(source), "--bins", "20", "--reliability-out", str(bins)]) == EXIT_OK
        capsys.readouterr()
        lines = bins.read_bytes().decode().split("\r\n")
        assert lines[0] == "bin_index,mean_prediction,positive_fraction,weight,count"
        assert all(line.endswith(",0.125,1") and "nan" not in line for line in lines[1:9])
        assert lines[9:] == [f"{j},nan,nan,0,0" for j in range(8, 20)] + [""]

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

    def test_score_column_without_model_evaluated_as_is(self, scored_csv, histogram_model, tmp_path, capsys):
        applied = tmp_path / "applied.csv"
        main(["apply", "--model", str(histogram_model), "--in", str(scored_csv), "--out", str(applied)])
        capsys.readouterr()
        code = main(["eval", "--in", str(applied), "--score-column", "calibrated"])
        assert code == EXIT_OK
        as_is = capsys.readouterr().out
        assert main(["eval", "--in", str(scored_csv), "--model", str(histogram_model)]) == EXIT_OK
        assert capsys.readouterr().out.startswith(as_is)  # the same five lines, then the AUC loss

    def test_missing_column(self, scored_csv, capsys):
        code = main(["eval", "--in", str(scored_csv), "--score-column", "nope"])
        assert code == EXIT_INPUT
        assert "missing column 'nope'" in capsys.readouterr().err

    def test_one_class_labels_are_input_error(self, histogram_model, tmp_path, capsys):
        data = tmp_path / "one_class.csv"
        data.write_text("score,label\n0.2,1\n0.9,1\n")
        for extra in ([], ["--model", str(histogram_model)]):
            code = main(["eval", "--in", str(data), *extra])
            assert code == EXIT_INPUT
            assert capsys.readouterr() == ("", "error: AUC is undefined without both classes present\n")

    def test_auc_of_the_predictions_is_computed_once(self, scored_csv, histogram_model, monkeypatch, capsys):
        calls = []

        def counted(original):
            def auc(*args):
                calls.append(args)
                return original(*args)

            return auc

        for module in (probcal.cli, probcal.metrics):  # eval calls auc itself and through evaluate
            monkeypatch.setattr(module, "auc", counted(module.auc))
        assert main(["eval", "--in", str(scored_csv), "--model", str(histogram_model)]) == EXIT_OK
        assert len(calls) == 2  # raw scores and predictions
        capsys.readouterr()


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

    def test_ece_rate_prints_the_library_slope_first(self, capsys):
        code = main(["verify", "ece-rate", "--n-grid", "100,10000", "--trials", "2"])
        lines = capsys.readouterr().out.splitlines()
        report = probcal.verify_ece_rate(probcal.OracleSpec(), n_grid=(100, 10000), trials=2)
        assert code == (EXIT_OK if report.passed else EXIT_ASSERTION)
        assert lines[0] == f"slope: {report.slope:.4f}"

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
            (["mce-bound", "--n", "0"], "n_cal must be >= 1, got 0"),
            (["mce-bound", "--bins", "0"], "n_bins must be >= 1, got 0"),
            (["mce-bound", "--curve", "constant", "--level", "1.5"], "level must lie in [0, 1]"),
            (["auc-loss", "--bin-grid", ","], "bin counts must be >= 1"),
            (
                ["auc-loss", "--curve", "constant", "--level", "1", "--n", "100", "--bin-grid", "5"],
                "no trial produced a defined AUC",
            ),
            (
                ["ece-rate", "--curve", "constant", "--level", "0", "--n-grid", "100,10000"],
                "mean ECE is 0",
            ),
            (["theta-conc", "--epsilon-grid", "nan"], "finite and > 0"),
            (["theta-conc", "--epsilon-grid", "0.1,inf"], "finite and > 0"),
            # each names the flag's own quantity, not what a later step tripped over
            (["auc-loss", "--n", "0"], "n_cal must be >= 1, got 0"),
            (["auc-loss", "--n", "-5"], "n_cal must be >= 1, got -5"),
            (["mce-bound", "--test-size", "0"], "n_test must be >= 1, got 0"),
            (["theta-conc", "--n", "0"], "n_cal must be >= 1, got 0"),
            (["theta-conc", "--bins", "0"], "n_bins must be >= 1, got 0"),
            (["ece-rate", "--bins", "0"], "n_bins must be >= 1, got 0"),
            (["size-sweep", "--test-size", "0"], "n_test must be >= 1, got 0"),
            (["size-sweep", "--sizes", "0,100"], "sizes must be >= 1, got 0"),
            (["size-sweep", "--bins", "0"], "n_bins must be >= 1, got 0"),
            (["size-sweep", "--sizes", "5,5"], "sizes must be strictly ascending"),
        ],
    )
    def test_degenerate_flags_are_input_errors(self, flags, message, capsys):
        code = main(["verify", *flags, "--trials", "2"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1

    def test_vacuous_mce_bound_is_noted(self, tmp_path, capsys):
        # a bound above 1 holds for any MCE; the verdict stands, with a note saying so
        json_path = tmp_path / "mce.json"
        argv = ["verify", "mce-bound", "--n", "100", "--test-size", "1", "--trials", "3"]
        assert main([*argv, "--json-out", str(json_path)]) == EXIT_OK
        out = capsys.readouterr().out
        note = "MCE bound 1.09467 is at least 1, so no MCE can exceed it; the check is vacuous"
        assert out.splitlines()[1].startswith("[PASS]")
        assert out.splitlines()[2:] == [f"note: {note}"]
        assert json.loads(json_path.read_text())["notes"][0] == note

    def test_undefined_mean_auc_is_nan_in_csv_and_null_in_json(self, tmp_path, capsys):
        # a constant level of 0 gives one-class test sets, so no calibrated AUC is defined
        csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        argv = ["verify", "size-sweep", "--curve", "constant", "--level", "0", "--sizes", "100,1000",
                "--trials", "2", "--test-size", "500", "--csv-out", str(csv_path), "--json-out", str(json_path)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert csv_path.read_bytes() == (
            b"n_cal,mean_mce,se_mce,mean_ece,se_ece,mean_auc_calibrated\r\n"
            b"100,0,0,0,0,nan\r\n1000,0,0,0,0,nan\r\n"
        )
        text = json_path.read_text()
        assert text.count('"mean_auc_calibrated": null') == 2 and "nan" not in text.lower()

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


class TestOverLongCell:
    """A cell longer than csv.field_size_limit() is an input error on its row."""

    @pytest.mark.parametrize("command", ["fit", "apply", "eval"])
    def test_is_an_input_error_naming_the_row(self, histogram_model, tmp_path, command, capsys):
        data = tmp_path / "long.csv"
        data.write_text("score,label,note\n0.5,1,a\n0.25,0," + "x" * 140_000 + "\n")
        out = str(tmp_path / "out")
        argv = {
            "fit": ["fit", "--method", "histogram", "--in", str(data), "--out", out],
            "apply": ["apply", "--model", str(histogram_model), "--in", str(data), "--out", out],
            "eval": ["eval", "--in", str(data), "--model", str(histogram_model)],
        }[command]
        assert main(argv) == EXIT_INPUT
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: {data}: row 2: field larger than field limit ({limit})\n"
        )
        assert not Path(out).exists()


def _reading_argv(command, data, model, out) -> list[str]:
    """The argv of a command that reads the CSV ``data``; apply and eval use ``model``."""
    return {
        "fit": ["fit", "--method", "histogram", "--in", str(data), "--out", str(out)],
        "apply": ["apply", "--model", str(model), "--in", str(data), "--out", str(out)],
        "eval": ["eval", "--in", str(data), "--model", str(model), "--out", str(out)],
    }[command]


NOTES = pytest.mark.parametrize("note", ["a", '"a,b"'], ids=["plain", "quoted"])


class TestOneRowModel:
    """Each wanted column appears once in the header and every non-blank row has the header's
    field count, or the command exits 2 with one line; apply writes each row's fields back."""

    @NOTES
    @pytest.mark.parametrize("name", ["x", "label"])
    def test_apply_keeps_every_field_of_a_repeated_name(self, name, note, histogram_model, tmp_path):
        data, out = tmp_path / "in.csv", tmp_path / "out.csv"
        data.write_text(f"score,{name},{name}\n0.5,1,0\n0.25,{note},1\n")
        assert main(_reading_argv("apply", data, histogram_model, out)) == EXIT_OK
        assert out.read_bytes() == apply_by_rows(histogram_model, data)
        rows = list(csv.reader(io.StringIO(out.read_bytes().decode(), newline="")))
        expected = [["score", name, name], ["0.5", "1", "0"], ["0.25", note.strip('"'), "1"]]
        assert [row[:-1] for row in rows] == expected

    @NOTES
    @pytest.mark.parametrize(
        "command, header, column",
        [
            ("fit", "score,score,label", "score"),
            ("fit", "score,label,label", "label"),
            ("eval", "score,score,label", "score"),
            ("eval", "score,label,label", "label"),
            ("apply", "score,score,label", "score"),  # apply reads no label column
        ],
    )
    def test_repeated_wanted_column_exits_2(
        self, command, header, column, note, histogram_model, tmp_path, capsys
    ):
        data, out = tmp_path / "in.csv", tmp_path / "out"
        data.write_text(f"{header}\n0.5,1,1\n0.25,{note},0\n")
        assert main(_reading_argv(command, data, histogram_model, out)) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {data}: column {column!r} appears 2 times in the header\n"
        assert not out.exists()

    @NOTES
    @pytest.mark.parametrize("command", ["fit", "apply", "eval"])
    @pytest.mark.parametrize("row, count", [("0.25,0,b,extra", 4), ("0.25,0", 2)], ids=["long", "short"])
    def test_ragged_row_exits_2_naming_the_row(
        self, row, count, command, note, histogram_model, tmp_path, capsys
    ):
        data, out = tmp_path / "in.csv", tmp_path / "out"
        data.write_text(f"score,label,note\n0.5,1,{note}\n0.75,0,c\n{row}\n0.5,1,d\n")
        assert main(_reading_argv(command, data, histogram_model, out)) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {data}: row 3: {count} fields, the header has 3\n"
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["fit", "apply", "eval", "simulate", "verify"])
    def test_is_an_input_error(self, scored_csv, histogram_model, tmp_path, command, capsys):
        out = str(tmp_path / "no-such-dir" / "out")
        argv = {
            "fit": ["fit", "--method", "histogram", "--in", str(scored_csv), "--out", out],
            "apply": ["apply", "--model", str(histogram_model), "--in", str(scored_csv), "--out", out],
            "eval": ["eval", "--in", str(scored_csv), "--out", out],
            "simulate": ["simulate", "--kind", "oracle", "--n", "10", "--out", out],
            "verify": [
                "verify", "mce-bound", "--n", "100", "--bins", "2", "--trials", "2",
                "--test-size", "1000", "--json-out", out,
            ],
        }[command]
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such-dir" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("check", ["mce-bound", "ece-rate", "auc-loss", "theta-conc", "size-sweep"])
    @pytest.mark.parametrize("flag, other", [("--json-out", "--csv-out"), ("--csv-out", "--json-out")])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_verify_checks_both_paths_before_the_first_trial(
        self, check, flag, other, where, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr("probcal.harness.generate_oracle", None)  # no trial may start
        bad = tmp_path / "nodir" / "a.out" if where == "missing directory" else tmp_path
        good = tmp_path / "good.out"
        assert main(["verify", check, "--trials", "2", other, str(good), flag, str(bad)]) == EXIT_INPUT
        reason = "no such directory" if where == "missing directory" else "is a directory"
        assert capsys.readouterr() == ("", f"error: {flag} {bad}: {reason}\n")
        assert not good.exists()

    # (argv without the output flags, the output flags each command takes)
    COMMANDS = {
        "fit": (["fit", "--method", "dpm", "--in", "in.csv"], ["--out"]),
        "apply": (["apply", "--model", "m.json", "--in", "in.csv"], ["--out"]),
        "eval": (["eval", "--in", "in.csv", "--model", "m.json"], ["--out", "--reliability-out"]),
        "simulate": (["simulate", "--kind", "xor", "--n", "10"], ["--out"]),
    }

    @staticmethod
    def _no_input(monkeypatch):
        """Make every input reader and generator of the commands raise, so none may run."""

        def read(*args, **kwargs):
            raise AssertionError("input read before the output paths were checked")

        for name in ("load_scored_csv", "read_scored_rows", "load_model", "generate_oracle", "generate_xor"):
            monkeypatch.setattr(probcal.cli, name, read)

    @pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in COMMANDS.items() for f in flags])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_every_command_checks_before_reading_input(self, command, flag, where, tmp_path, monkeypatch, capsys):
        self._no_input(monkeypatch)
        argv, flags = self.COMMANDS[command]
        bad = tmp_path / "nodir" / "a.out" if where == "missing directory" else tmp_path
        good = {other: tmp_path / f"{other[2:]}.csv" for other in flags if other != flag}
        outputs = [arg for other, path in good.items() for arg in (other, str(path))]
        assert main([*argv, *outputs, flag, str(bad)]) == EXIT_INPUT
        reason = "no such directory" if where == "missing directory" else "is a directory"
        assert capsys.readouterr() == ("", f"error: {flag} {bad}: {reason}\n")
        assert not os.listdir(tmp_path)  # no output file, the good one included

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["eval", "--in", "in.csv", "--reliability-out", "{dir}", "--out", "{dir}"], "--out"),
            (["verify", "mce-bound", "--json-out", "{dir}", "--csv-out", "{dir}"], "--csv-out"),
        ],
        ids=["eval", "verify"],
    )
    def test_of_two_bad_paths_the_first_in_table_order_is_named(self, argv, named, tmp_path, monkeypatch, capsys):
        self._no_input(monkeypatch)
        monkeypatch.setattr("probcal.harness.generate_oracle", None)  # no trial may start
        assert main([arg.format(dir=tmp_path) for arg in argv]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {named} {tmp_path}: is a directory\n")


class TestOutOfMemory:
    """A size too large for memory is an input error on one line, not exit 1 with a traceback.
    The generator is replaced by one that raises, so nothing is allocated."""

    NUMPY = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--kind", "oracle", "--n", "100000000000"],
            ["verify", "mce-bound", "--test-size", "100000000000"],
        ],
    )
    @pytest.mark.parametrize(
        "error, line",
        [
            (MemoryError(NUMPY), f"error: out of memory: {NUMPY}; try smaller sizes\n"),
            (MemoryError(), "error: out of memory; try smaller sizes\n"),
        ],
    )
    def test_exits_2_with_one_line(self, argv, error, line, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr("probcal.cli.generate_oracle", exhausted)
        monkeypatch.setattr("probcal.harness.generate_oracle", exhausted)
        out = tmp_path / "out.csv"
        argv = [*argv, "--out", str(out)] if argv[0] == "simulate" else argv
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", line)
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["verify", "mce-bound", "--n", "ten"], "probcal verify mce-bound: error: argument --n: invalid int value: 'ten'"),
            (["fit", "--method", "spline", "--in", "x", "--out", "y"],
             "probcal fit: error: argument --method: invalid choice: 'spline'"),
            (["fit", "--method", "histogram", "--out", "y"], "probcal fit: error: the following arguments are required: --in"),
        ],
        ids=["invalid-int", "invalid-choice", "missing-required"],
    )
    def test_bad_flag_prints_one_error_line(self, argv, start, capsys):
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")

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
        assert main(["eval", "--in", str(applied), "--score-column", "calibrated"]) == EXIT_OK
        capsys.readouterr()


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*args):
        source = str(Path(probcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "probcal.cli", *args], capture_output=True, text=True, env=env
        )

    def test_help_exits_zero_with_usage(self):
        result = self.run_module("--help")
        assert result.returncode == EXIT_OK
        assert result.stdout.startswith("usage:")

    def test_missing_required_flag_exits_two(self, tmp_path):
        result = self.run_module("fit", "--method", "histogram", "--out", str(tmp_path / "m.json"))
        assert result.returncode == EXIT_INPUT
        assert "required: --in" in result.stderr


def _children(pid: int) -> list[int]:
    """The live child processes of ``pid``, from /proc; none once it has ended."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as listing:
            return [int(child) for child in listing.read().split()]
    except FileNotFoundError:
        return []


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="reads each process's children from /proc")
class TestInterrupt:
    """SIGINT sent to a command's process group, as Ctrl-C sends it, ends the command with exit 130
    and one stderr line, not a traceback, and leaves no process behind."""

    @staticmethod
    def interrupt(args, cwd, ready) -> tuple:
        """Start ``probcal args`` in its own process group, wait until ``ready(pid)`` returns a value
        (a list of pids) and send SIGINT to the group; then (exit code, stdout, stderr, that value)."""
        source = str(Path(probcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-m", "probcal.cli", *args], cwd=cwd, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
        try:
            seen = ready(proc.pid)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        return proc.returncode, out, err, seen

    def test_verify_auc_loss_at_its_defaults(self, tmp_path):
        # the defaults run for several seconds; one second in, the trials are under way
        code, out, err, _ = self.interrupt(["verify", "auc-loss"], tmp_path, lambda pid: time.sleep(1.0))
        assert (code, out, err) == (EXIT_INTERRUPT, "", "error: interrupted\n")

    def test_fit_dpm_kills_and_reaps_its_block_worker(self, tmp_path):
        assert main(["simulate", "--kind", "oracle", "--curve", "square", "--n", "10000", "--seed", "1",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK

        def forked(pid):  # the two classes are fitted at once, one in a forked child
            deadline = time.monotonic() + 30
            while not (children := _children(pid)) and time.monotonic() < deadline:
                time.sleep(0.002)
            return children

        argv = ["fit", "--method", "dpm", "--in", "s.csv", "--out", "dpm.json"]
        code, out, err, children = self.interrupt(argv, tmp_path, forked)
        assert children, "fit dpm forked no block worker"
        assert (code, out, err) == (EXIT_INTERRUPT, "", "error: interrupted\n")
        assert not any(os.path.exists(f"/proc/{child}") for child in children)
        assert not (tmp_path / "dpm.json").exists()


class TestSameBytesUnderEveryBLASKernel:
    """numpy's OpenBLAS picks its kernels by CPU at load; OPENBLAS_CORETYPE forces one. No fit,
    predict or verify path calls BLAS (``TestNoBLASInSource``), so every output keeps its bytes."""

    @staticmethod
    def assert_same_bytes(tmp_path, commands, written):
        """Run ``commands`` in ``tmp_path`` with OPENBLAS_CORETYPE unset, Prescott and Haswell,
        and require the same bytes in each file of ``written`` every time."""
        source = str(Path(probcal.__file__).resolve().parents[1])
        scored = ["simulate", "--kind", "oracle", "--curve", "square", "--n", "2000", "--seed", "1"]
        assert main([*scored, "--out", str(tmp_path / "scored.csv")]) == EXIT_OK
        outputs = {}
        for coretype in (None, "Prescott", "Haswell"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            for command in commands:
                result = subprocess.run(
                    [sys.executable, "-m", "probcal.cli", *command], capture_output=True, env=env, cwd=tmp_path
                )
                assert result.returncode == EXIT_OK, result.stderr
            outputs[coretype] = [(tmp_path / name).read_bytes() for name in written]
        assert outputs["Prescott"] == outputs[None] and outputs["Haswell"] == outputs[None]

    @staticmethod
    def fit_and_apply(method):
        return [
            ["fit", "--method", method, "--in", "scored.csv", "--out", "model.json"],
            ["apply", "--model", "model.json", "--in", "scored.csv", "--out", "applied.csv"],
        ]

    def test_dpm_fit_and_apply(self, tmp_path):
        self.assert_same_bytes(tmp_path, self.fit_and_apply("dpm"), ["model.json", "applied.csv"])

    def test_platt_fit_and_apply(self, tmp_path):
        self.assert_same_bytes(tmp_path, self.fit_and_apply("platt"), ["model.json", "applied.csv"])

    def test_ece_rate(self, tmp_path):
        argv = ["verify", "ece-rate", "--n-grid", "100,10000", "--bins", "5", "--trials", "3", "--seed", "1"]
        self.assert_same_bytes(tmp_path, [[*argv, "--json-out", "ece.json"]], ["ece.json"])


class TestNoBLASInSource:
    """No BLAS or LAPACK call in probcal's source: no matrix product ``@`` and no numpy
    function that reaches either library, so no output depends on the BLAS kernel."""

    NAMES = {"dot", "matmul", "linalg", "polyfit", "lstsq", "einsum", "tensordot"}

    def test_no_matrix_product_or_linear_algebra(self):
        found = []
        for path in sorted(Path(probcal.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.alias):  # import numpy.linalg; from numpy import dot
                    names = set(node.name.split("."))
                elif isinstance(node, ast.ImportFrom):  # from numpy.linalg import solve
                    names = set((node.module or "").split("."))
                else:
                    names = {"@"} if isinstance(getattr(node, "op", None), ast.MatMult) else set()
                found += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names & (self.NAMES | {"@"}))]
        assert found == []


class TestImportFootprint:
    @staticmethod
    def imports() -> list:
        """(module, imported name) for each import statement in probcal's source."""
        found = []
        for path in sorted(Path(probcal.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found += [(path.stem, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((path.stem, node.module or ""))
        return found

    def test_only_the_data_module_imports_csv(self):
        # one CSV reader and one writer, both in probcal.data
        assert [module for module, name in self.imports() if name == "csv"] == ["data"]

    def test_no_module_imports_scipy(self):
        assert [pair for pair in self.imports() if pair[1].split(".")[0] == "scipy"] == []

    def test_cli_import_loads_neither_scipy_stats_nor_integrate(self):
        source = str(Path(probcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        # scipy.special too: no runtime path uses scipy
        probe = "import sys, probcal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_no_command_loads_scipy(self, tmp_path):
        # every fit method and its apply, both simulate kinds, eval and each verify check,
        # run through main in one child process at small sizes
        source = str(Path(probcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        commands = [
            ["simulate", "--kind", "oracle", "--curve", "logistic", "--n", "300", "--seed", "1", "--out", "s.csv"],
            ["simulate", "--kind", "xor", "--n", "100", "--out", "xor.csv"],
            *(argv for method in probcal.cli.METHODS for argv in (
                ["fit", "--method", method, "--in", "s.csv", "--out", f"{method}.json"],
                ["apply", "--model", f"{method}.json", "--in", "s.csv", "--out", f"{method}.csv"],
            )),
            ["eval", "--in", "s.csv", "--model", "platt.json"],
            ["verify", "mce-bound", "--n", "200", "--bins", "5", "--trials", "2", "--test-size", "1000"],
            ["verify", "ece-rate", "--n-grid", "100,10000", "--bins", "5", "--trials", "2"],
            ["verify", "auc-loss", "--n", "500", "--bin-grid", "5", "--trials", "2", "--curve", "logistic"],
            ["verify", "theta-conc", "--n", "200", "--bins", "5", "--trials", "3"],
            ["verify", "size-sweep", "--sizes", "100,200", "--trials", "2", "--test-size", "1000"],
        ]
        probe = (
            "import contextlib, io, sys; from probcal.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    assert code in (0, 1), (argv, code)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", probe], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


def _pinned_help() -> dict:
    """The help texts in cli_help.txt, keyed by argv; each starts after a '### probcal ... --help' line."""
    texts, argv = {}, None
    for line in (Path(__file__).parent / "cli_help.txt").read_text().splitlines(keepends=True):
        if line.startswith("### probcal "):
            argv = tuple(line.split()[2:-1])
            texts[argv] = ""
        else:
            texts[argv] += line
    return texts


PINNED_HELP = _pinned_help()


class TestHelpTexts:
    """Every --help text is pinned, so moving a default into the library changes none of them."""

    def test_every_command_and_check_is_pinned(self):
        commands = [("fit",), ("apply",), ("eval",), ("simulate",), ("verify",)]
        checks = [("verify", c) for c in ("mce-bound", "ece-rate", "auc-loss", "theta-conc", "size-sweep")]
        assert sorted(PINNED_HELP) == sorted([(), *commands, *checks])

    @pytest.mark.parametrize("argv", sorted(PINNED_HELP), ids=lambda argv: " ".join(argv) or "top")
    def test_is_byte_identical(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        assert main([*argv, "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        # Python 3.10 names the section "optional arguments:"; later versions say "options:"
        assert out.replace("\noptional arguments:\n", "\noptions:\n") == PINNED_HELP[argv]


# fit flag: (value, keyword, parsed value)
FIT_FLAG_CASES = {
    "--bins": ("4", "n_bins", 4),
    "--truncation": ("3", "truncation", 3),
    "--alpha": ("2", "alpha", 2.0),
    "--max-iter": ("5", "max_iter", 5),
    "--tol": ("0.001", "tol", 0.001),
    "--seed": ("7", "seed", 7),
}
FIXED_KEYWORDS = {"histogram": {"scheme": "frequency"}, "histogram-width": {"scheme": "width"},
                  "kde": {"shared_bandwidth": False}, "kde-shared": {"shared_bandwidth": True}}
# the fit flags each method uses; every other one is an input error for it
FIT_FLAGS_USED = {
    "histogram": {"--bins"},
    "histogram-width": {"--bins"},
    "platt": {"--max-iter", "--tol"},
    "isotonic": set(),
    "kde": set(),
    "kde-shared": set(),
    "dpm": {"--truncation", "--alpha", "--max-iter", "--tol", "--seed"},
}


class TestUnusedFlags:
    """A flag the chosen fit method, simulate kind or oracle curve does not use exits 2 with one
    line naming both."""

    @staticmethod
    def exits_2(argv, out, message, capsys):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bins_with_platt(self, scored_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["fit", "--method", "platt", "--bins", "5", "--in", str(scored_csv), "--out", str(out)]
        self.exits_2(argv, out, "--bins is not used by --method platt", capsys)

    def test_level_with_xor(self, tmp_path, capsys):
        out = tmp_path / "xor.csv"
        argv = ["simulate", "--kind", "xor", "--n", "40", "--level", "7", "--out", str(out)]
        self.exits_2(argv, out, "--level is not used by --kind xor", capsys)

    def test_curve_with_xor(self, tmp_path, capsys):
        out = tmp_path / "xor.csv"
        argv = ["simulate", "--kind", "xor", "--n", "40", "--curve", "square", "--out", str(out)]
        self.exits_2(argv, out, "--curve is not used by --kind xor", capsys)

    @pytest.mark.parametrize("curve", [None, "identity", "square", "logistic"])
    def test_level_without_the_constant_curve(self, curve, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        curve_flags = [] if curve is None else ["--curve", curve]
        argv = ["simulate", "--kind", "oracle", "--n", "40", *curve_flags, "--level", "0.9", "--out", str(out)]
        self.exits_2(argv, out, f"--level is not used by --curve {curve or 'identity'}", capsys)

    @pytest.mark.parametrize("check", probcal.cli.CHECKS)
    @pytest.mark.parametrize("curve", [None, "square"])
    def test_verify_level_without_the_constant_curve(self, check, curve, tmp_path, monkeypatch, capsys):
        recorder = Recorder(result=_empty_report())
        monkeypatch.setattr(probcal.harness, VERIFY_ROUTINES[check], recorder)
        out = tmp_path / "report.json"
        curve_flags = [] if curve is None else ["--curve", curve]
        argv = ["verify", check, *curve_flags, "--level", "0.9", "--json-out", str(out)]
        self.exits_2(argv, out, f"--level is not used by --curve {curve or 'identity'}", capsys)
        assert recorder.calls == []

    def test_noise_with_oracle(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        argv = ["simulate", "--kind", "oracle", "--n", "40", "--noise-sd", "-5", "--out", str(out)]
        self.exits_2(argv, out, "--noise-sd is not used by --kind oracle", capsys)

    @pytest.mark.parametrize(
        "method, flag",
        [(m, f) for m, used in FIT_FLAGS_USED.items() for f in FIT_FLAG_CASES if f not in used],
    )
    def test_every_fit_flag_a_method_does_not_use(self, method, flag, scored_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        value = FIT_FLAG_CASES[flag][0]
        argv = ["fit", "--method", method, flag, value, "--in", str(scored_csv), "--out", str(out)]
        self.exits_2(argv, out, f"{flag} is not used by --method {method}", capsys)

    def test_is_reported_before_the_input_is_read(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["fit", "--method", "kde", "--seed", "1", "--in", str(tmp_path / "missing.csv"), "--out", str(out)]
        self.exits_2(argv, out, "--seed is not used by --method kde", capsys)


class Recorder:
    """Stands in for a library routine or class that probcal.cli calls, and records each call."""

    def __init__(self, target=None, result=None):
        self.target, self.result, self.calls = target, result, []

    def __call__(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self.result if self.target is None else self.target(*args, **kwargs)


def _empty_report():
    return SimpleNamespace(slope=None, points=[], assertions=[], notes=[], passed=True)


# (flag, value, keyword, parsed value) of each verify check, besides --curve, --level and --seed
N_CAL = ("--n", "7", "n_cal", 7)
BINS = ("--bins", "3", "n_bins", 3)
TRIALS = ("--trials", "4", "trials", 4)
TEST_SIZE = ("--test-size", "9", "n_test", 9)
CHECK_FLAG_CASES = {
    "mce-bound": [N_CAL, BINS, ("--delta", "0.2", "delta", 0.2), TRIALS, TEST_SIZE],
    "ece-rate": [BINS, ("--n-grid", "10,1000", "n_grid", [10, 1000]), TRIALS],
    "auc-loss": [N_CAL, ("--bin-grid", "2, 3", "bin_grid", [2, 3]), TRIALS],
    "theta-conc": [N_CAL, BINS, ("--epsilon-grid", "0.1,0.25", "epsilon_grid", [0.1, 0.25]), TRIALS],
    "size-sweep": [("--sizes", "10,100", "sizes", [10, 100]), TRIALS, TEST_SIZE, BINS],
}
# each check's routine in probcal.harness, where cmd_verify looks it up by name
VERIFY_ROUTINES = {
    "mce-bound": "verify_mce_bound",
    "ece-rate": "verify_ece_rate",
    "auc-loss": "verify_auc_loss",
    "theta-conc": "verify_theta_concentration",
    "size-sweep": "calibration_size_sweep",
}


class TestLibraryDefaults:
    """A flag left unset reaches no library routine, so the routine's own default applies;
    a flag that is set arrives as exactly its keyword."""

    @staticmethod
    def verify(check, flags, monkeypatch, capsys):
        recorder = Recorder(result=_empty_report())
        monkeypatch.setattr(probcal.harness, VERIFY_ROUTINES[check], recorder)
        assert main(["verify", check, *flags]) == EXIT_OK
        capsys.readouterr()
        [((first,), kwargs)] = recorder.calls
        return first, kwargs

    def test_each_check_names_its_routine(self):
        assert {check: entry[0] for check, entry in probcal.cli.CHECKS.items()} == VERIFY_ROUTINES

    @pytest.mark.parametrize("check", VERIFY_ROUTINES)
    def test_verify_without_flags_passes_only_the_spec(self, check, monkeypatch, capsys):
        assert self.verify(check, [], monkeypatch, capsys) == (probcal.OracleSpec(), {})

    @pytest.mark.parametrize(
        "check, flag",
        [(c, f) for c, flags in CHECK_FLAG_CASES.items() for f in flags + [("--seed", "5", "seed", 5)]],
        ids=lambda x: x if isinstance(x, str) else x[0],
    )
    def test_each_verify_flag_arrives_as_its_keyword(self, check, flag, monkeypatch, capsys):
        option, text, keyword, value = flag
        spec, kwargs = self.verify(check, [option, text], monkeypatch, capsys)
        assert spec == probcal.OracleSpec() and kwargs == {keyword: value}
        assert type(kwargs[keyword]) is type(value)

    @pytest.mark.parametrize("check", VERIFY_ROUTINES)
    @pytest.mark.parametrize(
        "flags, spec",
        [
            (["--curve", "square"], {"curve": "square"}),
            (["--curve", "constant", "--level", "0.25"], {"curve": "constant", "level": 0.25}),
        ],
    )
    def test_oracle_flags_arrive_in_the_spec(self, check, flags, spec, monkeypatch, capsys):
        assert self.verify(check, flags, monkeypatch, capsys) == (probcal.OracleSpec(**spec), {})

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["ece-rate", "--n-grid", "1000,ten"], "expected comma-separated integers, got '1000,ten'"),
            (["theta-conc", "--epsilon-grid", "0.1,x"], "expected comma-separated reals, got '0.1,x'"),
        ],
    )
    def test_a_non_number_in_a_grid_exits_2(self, flags, message, monkeypatch, capsys):
        recorder = Recorder(result=_empty_report())
        monkeypatch.setattr(probcal.harness, VERIFY_ROUTINES[flags[0]], recorder)
        assert main(["verify", *flags]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument {flags[1]}: {message}\n")
        assert recorder.calls == []

    @pytest.mark.parametrize(
        "method, flag", [(m, f) for m, used in FIT_FLAGS_USED.items() for f in [None, *sorted(used)]]
    )
    def test_fit_passes_the_fixed_keywords_and_each_flag_set(self, method, flag, scored_csv, tmp_path,
                                                             monkeypatch, capsys):
        cls, fixed, used = probcal.cli.METHODS[method]
        recorder = Recorder(target=cls)  # fits for real, so the real class accepts every keyword
        monkeypatch.setitem(probcal.cli.METHODS, method, (recorder, fixed, used))
        flags = [] if flag is None else [flag, FIT_FLAG_CASES[flag][0]]
        argv = ["fit", "--method", method, "--in", str(scored_csv), "--out", str(tmp_path / "m.json"), *flags]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        expected = dict(FIXED_KEYWORDS.get(method, {}))
        if flag is not None:
            _, keyword, value = FIT_FLAG_CASES[flag]
            expected[keyword] = value
        assert recorder.calls == [((), expected)]
        assert all(type(recorder.calls[0][1][k]) is type(v) for k, v in expected.items())

    @pytest.mark.parametrize("flags, expected", [([], {}), (["--bins", "5"], {"num_bins": 5}),
                                                 (["--scheme", "width"], {"scheme": "width"})])
    def test_eval_passes_each_flag_set(self, flags, expected, scored_csv, monkeypatch, capsys):
        recorder = Recorder(target=probcal.cli.evaluate)
        monkeypatch.setattr(probcal.cli, "evaluate", recorder)
        assert main(["eval", "--in", str(scored_csv), *flags]) == EXIT_OK
        capsys.readouterr()
        [(args, kwargs)] = recorder.calls
        assert len(args) == 2 and kwargs == expected

    @pytest.mark.parametrize(
        "kind, routine, flags, expected",
        [
            ("oracle", "OracleSpec", [], {}),
            ("oracle", "OracleSpec", ["--curve", "square"], {"curve": "square"}),
            ("oracle", "OracleSpec", ["--curve", "constant", "--level", "0.25"], {"curve": "constant", "level": 0.25}),
            ("xor", "generate_xor", [], {"seed": 0}),  # simulate keeps its own seed default
            ("xor", "generate_xor", ["--noise-sd", "0.5", "--seed", "3"], {"seed": 3, "noise_sd": 0.5}),
        ],
    )
    def test_simulate_passes_each_flag_set(self, kind, routine, flags, expected, tmp_path, monkeypatch, capsys):
        recorder = Recorder(target=getattr(probcal.cli, routine))
        monkeypatch.setattr(probcal.cli, routine, recorder)
        assert main(["simulate", "--kind", kind, "--n", "40", "--out", str(tmp_path / "d.csv"), *flags]) == EXIT_OK
        capsys.readouterr()
        assert [kwargs for _, kwargs in recorder.calls] == [expected]
