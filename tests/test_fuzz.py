"""A standing fuzzer of the command line: random flag values and small CSV files, each
flag of fit, simulate and eval at extreme values, and model files mutated field by field,
run in process through ``main``.

Every run must end in a documented exit code with at most one line on stderr and no
traceback; a fit's non-convergence warnings, and no other warning, may come before the line
of a flag or model case. Every ``apply`` that succeeds writes calibrated cells in [0, 1].
Example sizes stay bounded: every size flag is always given, at most 5000, and at most 3
trials, a CSV has at most 20 rows, and the flag and model cases run on 300 rows with at most
20 DPM sweeps, so each example runs in well under a second.
"""

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probcal.data
from probcal.cli import EXIT_ASSERTION, EXIT_FIT, EXIT_INPUT, EXIT_OK, FIT_FLAGS, METHODS, main
from probcal.data import _map_blocks
from probcal.synth import CURVES, OracleSpec, generate_oracle


def _main_with_stderr(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and the text written meanwhile to stderr by this process and by
    any child it forks: ``sys.stderr`` writes straight to fd 2, and fd 2 goes to a file."""
    saved = os.dup(2)
    with tempfile.TemporaryFile() as captured:
        os.dup2(captured.fileno(), 2)
        try:
            # unbuffered, so that a forked child's copy holds no text of this process to write again
            with io.TextIOWrapper(io.FileIO(2, "w", closefd=False), "utf-8", write_through=True) as err:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        captured.seek(0)
        return code, captured.read().decode("utf-8")


def _run(argv, warnings_first: bool = False) -> int:
    """``main(argv)``'s exit code, once its stderr, a forked child's included, is checked: at most
    one line, no traceback; with ``warnings_first``, any number of non-convergence ``warning:``
    lines may come before it."""
    code, err = _main_with_stderr(argv)
    lines = err.splitlines(keepends=True)
    if warnings_first:
        lines = [line for line in lines if not (line.startswith("warning: ") and " stopped after " in line)]
    assert "".join(lines).count("\n") <= 1
    assert "Traceback" not in err
    return code


def test_run_sees_the_stderr_of_a_forked_child():
    def forking_main(argv):
        # _map_blocks computes its second item in a forked child, which leaves by os._exit
        list(_map_blocks(sys.stderr.write, ["warning: from the parent\n", "warning: from the child\n"]))
        return EXIT_OK

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(globals(), "main", forking_main)
        code, err = _main_with_stderr([])
        assert code == EXIT_OK
        assert sorted(err.splitlines()) == ["warning: from the child", "warning: from the parent"]
        with pytest.raises(AssertionError):
            _run([])  # two lines, one more than a run may write


# each kind of value as (plausible values, edge values)
SIZES = (
    st.one_of(st.sampled_from([1, 2, 10, 100, 1000, 5000]), st.integers(1, 5000)),
    st.sampled_from([-1, 0]),
)
BINS = (st.integers(1, 20), st.sampled_from([-1, 0, 5000]))
TRIALS = (st.integers(2, 3), st.sampled_from([-1, 0, 1]))
EPSILONS = (st.sampled_from([0.01, 0.1, 0.5]), st.sampled_from([-1.0, 0.0, 2.0, math.nan, math.inf]))
DELTAS = (st.sampled_from([0.05, 0.5]), st.sampled_from([-1.0, 0.0, 1.0, 2.0, math.nan, math.inf]))
SEEDS = (st.sampled_from([0, 1, 2**32]), st.just(-1))
# sizes whose grids often span the two decades ece-rate asks for, each above every plausible bin count
SPREAD_SIZES = (st.sampled_from([20, 50, 5000]), SIZES[1])


def _joined(values) -> str:
    return ",".join(map(str, values))


def _grid(entries):
    """Comma-separated entries: two or three plausible ones in ascending order, else none, one,
    or some edge ones in any order."""
    plausible, edge = entries
    some_edges = st.lists(st.one_of(plausible, edge), min_size=1, max_size=3)
    return (
        st.lists(plausible, min_size=2, max_size=3).map(sorted).map(_joined),
        st.one_of(st.lists(plausible, max_size=1), some_edges).map(_joined),
    )


# each check's flags: those always given, then those that may be left out
CHECKS = {
    "mce-bound": (
        {"--n": SIZES, "--bins": BINS, "--trials": TRIALS, "--test-size": SIZES},
        {"--delta": DELTAS},
    ),
    "ece-rate": ({"--bins": BINS, "--n-grid": _grid(SPREAD_SIZES), "--trials": TRIALS}, {}),
    "auc-loss": ({"--n": SIZES, "--bin-grid": _grid(BINS), "--trials": TRIALS}, {}),
    "theta-conc": ({"--n": SIZES, "--bins": BINS, "--trials": TRIALS}, {"--epsilon-grid": _grid(EPSILONS)}),
    "size-sweep": ({"--sizes": _grid(SIZES), "--trials": TRIALS, "--test-size": SIZES}, {"--bins": BINS}),
}
ORACLE = (
    st.one_of(
        st.just([]),
        st.sampled_from(CURVES).map(lambda curve: ["--curve", curve]),
        st.sampled_from([0.0, 0.3, 1.0]).map(lambda level: ["--curve", "constant", "--level", str(level)]),
    ),
    st.one_of(
        st.sampled_from([-1.0, 2.0]).map(lambda level: ["--curve", "constant", "--level", str(level)]),
        # a level the curve does not use
        st.sampled_from(CURVES[:-1]).map(lambda curve: ["--curve", curve, "--level", "0.5"]),
    ),
)


@st.composite
def verify_argv(draw, check):
    always, sometimes = CHECKS[check]
    optional = {**sometimes, "--seed": SEEDS}
    # half the examples give one flag an edge value and the rest plausible ones, so that a run
    # gets past the other flags' checks to the one under test; the other half run for real
    edge_flag = draw(st.one_of(st.none(), st.sampled_from([*always, *optional, "oracle"])))

    def value(flag, kind):
        plausible, edge = kind
        return draw(edge if flag == edge_flag else plausible)

    argv = ["verify", check]
    for flag, kind in always.items():
        argv += [flag, str(value(flag, kind))]
    for flag, kind in optional.items():
        if flag == edge_flag or draw(st.booleans()):
            argv += [flag, str(value(flag, kind))]
    return argv + value("oracle", ORACLE)


@pytest.mark.parametrize("check", CHECKS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_ends_in_a_documented_exit_with_one_line_at_most(check, data):
    argv = data.draw(verify_argv(check), label="argv")
    assert _run(argv) in (EXIT_OK, EXIT_ASSERTION, EXIT_INPUT)


# header names, with the column apply adds; each column's cells, as (valid, bad): bad ones
# include text that csv.writer quotes (commas, quotes, line breaks)
NAMES = ["score", "label", "x", "calibrated"]
TEXT = ["", "a", "a,b", 'say "hi"', "two\nlines", "cr\rx", "\u00e9"]
CELLS = {
    "score": (st.sampled_from(["0", "1", "0.5", "0.25", "1e-3"]), st.sampled_from(["1.5", "nan", "-1", *TEXT])),
    "label": (st.sampled_from(["0", "1"]), st.sampled_from(["2", " 1", "0.0", *TEXT])),
}
HISTOGRAM = {
    "method": "histogram", "scheme": "frequency", "edges": [0.0, 0.5, 1.0],
    "theta": [0.25, 0.75], "counts": [4, 4], "positives": [1, 3],
}


def _line(cells) -> str:
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue().removesuffix("\r\n")


@st.composite
def small_csv(draw) -> bytes:
    """At most 20 rows under a header of pooled names, repeats allowed, most often with a score
    and a label column; blank lines; LF, CRLF or bare-CR line endings. A file has each fault
    with odds 1 in 4: ragged rows, bad scores and labels, a stray invalid UTF-8 byte or quote."""
    def faulty() -> bool:
        return draw(st.integers(0, 3)) == 0

    names = draw(st.lists(st.sampled_from(NAMES), max_size=3))
    for name in ("score", "label"):
        if draw(st.integers(0, 4)):
            names.insert(draw(st.integers(0, len(names))), name)
    width = len(names)
    widths = st.integers(max(width - 1, 1), width + 1) if faulty() else st.just(width)
    pick = 1 if faulty() else 0
    text_cells = (st.sampled_from(TEXT),) * 2

    def row(size):
        kinds = names[:size] + ["x"] * (size - width)
        return st.tuples(*(CELLS.get(kind, text_cells)[pick] for kind in kinds)).map(list)

    rows = draw(st.lists(st.one_of(st.just([]), widths.flatmap(row)), max_size=20))
    text = "".join(_line(cells) + draw(st.sampled_from(["\n", "\r\n", "\r"])) for cells in [names, *rows])
    content = text.encode("utf-8")
    at = draw(st.integers(0, len(content)))
    return content[:at] + (draw(st.sampled_from([b"\xff", b'"'])) if faulty() else b"") + content[at:]


@settings(max_examples=150, deadline=None)
@given(content=small_csv(), block_bytes=st.sampled_from([1 << 18, 1, 7, 64]))
def test_csv_input_ends_in_a_documented_exit_and_apply_keeps_each_row(content, block_bytes):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(probcal.data, "_BLOCK_BYTES", block_bytes)  # small blocks: files straddle several
        data, model, out = Path(tmp) / "in.csv", Path(tmp) / "model.json", Path(tmp) / "out.csv"
        data.write_bytes(content)
        model.write_text(json.dumps(HISTOGRAM))
        fit = _run(["fit", "--method", "histogram", "--in", str(data), "--out", str(Path(tmp) / "fit.json")])
        applied = _run(["apply", "--model", str(model), "--in", str(data), "--out", str(out)])
        evaluated = _run(["eval", "--in", str(data), "--score-column", "score"])
        assert {fit, applied, evaluated} <= {EXIT_OK, EXIT_INPUT, EXIT_FIT}
        if fit == EXIT_OK:  # eval reads the same two columns by the same rules; its AUC needs both classes
            loaded = probcal.data.load_scored_csv(data)
            assert evaluated == (EXIT_OK if loaded.n_pos and loaded.n_neg else EXIT_INPUT)
        if applied == EXIT_OK:
            header, *rows = csv.reader(io.StringIO(content.decode("utf-8"), newline=""))
            written = list(csv.reader(io.StringIO(out.read_bytes().decode("utf-8"), newline="")))
            assert written[0] == header + ["calibrated"]
            assert [cells[:-1] for cells in written[1:]] == [cells for cells in rows if cells]
            assert all(0.0 <= float(cells[-1]) <= 1.0 for cells in written[1:])


# the flag and model cases: 300 rows of the square oracle, plus the scores 0 and 1 at the ends
EXTREMES = ["0", "-1", "1e308", "5e-324", "nan", "inf", ""]
SHORT_DPM = ["--max-iter", "20"]  # the default 500 sweeps would dominate the run


@pytest.fixture(scope="module")
def scored(tmp_path_factory) -> Path:
    data = generate_oracle(OracleSpec(curve="square"), 298, 1)
    rows = [*zip(data.scores.tolist(), data.labels.tolist()), (0.0, 0), (1.0, 1)]
    path = tmp_path_factory.mktemp("fuzz") / "scored.csv"
    path.write_text("score,label\n" + "".join(f"{score!r},{label}\n" for score, label in rows))
    return path


def _applies_in_range(model: Path, scored: Path) -> int:
    """``apply`` of the model to ``scored``; when it succeeds, every calibrated cell lies in [0, 1]."""
    out = model.with_suffix(".csv")
    code = _run(["apply", "--model", str(model), "--in", str(scored), "--out", str(out)], warnings_first=True)
    assert code in (EXIT_OK, EXIT_INPUT)
    if code == EXIT_OK:
        cells = [float(row[-1]) for row in csv.reader(out.read_text().splitlines()[1:])]
        assert len(cells) == 300 and all(0.0 <= cell <= 1.0 for cell in cells), model.name
    return code


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("flag", [option for option, *_ in FIT_FLAGS])
def test_fit_flag_at_extremes_ends_in_a_documented_exit(method, flag, scored, tmp_path):
    for value in EXTREMES:
        short = SHORT_DPM if method == "dpm" and flag != "--max-iter" else []
        model = tmp_path / "model.json"
        argv = ["fit", "--method", method, "--in", str(scored), "--out", str(model), flag, value, *short]
        # a DPM alpha the sweep cannot carry is refused before the sweep: no warning comes first
        code = _run(argv, warnings_first=(method, flag) != ("dpm", "--alpha"))
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_FIT), argv
        if code == EXIT_OK:
            assert _applies_in_range(model, scored) == EXIT_OK, argv


@pytest.mark.parametrize(
    "kind, flag",
    [("oracle", "--n"), ("oracle", "--seed"), ("oracle", "--level"), ("xor", "--n"), ("xor", "--seed"),
     ("xor", "--noise-sd")],
)
def test_simulate_flag_at_extremes_ends_in_a_documented_exit(kind, flag, tmp_path):
    for value in EXTREMES:
        given = {"--n": "300", flag: value, **({"--curve": "constant"} if flag == "--level" else {})}
        argv = ["simulate", "--kind", kind, "--out", str(tmp_path / "d.csv"), *itertools.chain(*given.items())]
        assert _run(argv, warnings_first=True) in (EXIT_OK, EXIT_INPUT), argv


@pytest.mark.parametrize("flag", ["--bins", "--scheme"])
def test_eval_flag_at_extremes_ends_in_a_documented_exit(flag, scored, tmp_path):
    for value in EXTREMES:
        argv = ["eval", "--in", str(scored), flag, value, "--out", str(tmp_path / "e.csv")]
        assert _run(argv, warnings_first=True) in (EXIT_OK, EXIT_INPUT), argv


_DELETED = object()


def _mutations(value):
    """(name, mutated value) of each mutation of a field holding ``value``; ``_DELETED`` deletes it."""
    yield from (("null", None), ("string", "x"), ("-1", -1), ("0", 0), ("1e308", 1e308), ("[]", []))
    if isinstance(value, list):
        yield from (("reversed", value[::-1]), ("doubled", value + value))
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        yield "doubled", value + value
    yield "deleted", _DELETED


def _fields(payload: dict, path=()):
    """The key path of every field, and of every field of a nested object."""
    for key, value in payload.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from _fields(value, (*path, key))


@pytest.mark.parametrize("method", METHODS)
def test_mutated_model_file_ends_in_a_documented_exit(method, scored, tmp_path):
    fitted = tmp_path / "fitted.json"
    short = SHORT_DPM if method == "dpm" else []
    argv = ["fit", "--method", method, "--in", str(scored), "--out", str(fitted), *short]
    assert _run(argv, warnings_first=True) == EXIT_OK
    payload = json.loads(fitted.read_text())
    for path in _fields(payload):
        *parents, key = path
        for name, value in _mutations(functools.reduce(dict.__getitem__, path, payload)):
            mutated = json.loads(fitted.read_text())
            holder = functools.reduce(dict.__getitem__, parents, mutated)
            if value is _DELETED:
                del holder[key]
            else:
                holder[key] = value
            model = tmp_path / f"{'.'.join(path)}-{name}.json"
            model.write_text(json.dumps(mutated))
            _applies_in_range(model, scored)
