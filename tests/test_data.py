import csv
import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probcal.data
from oracles import as_labels_three_pass
from probcal import DPMCalibrator, HistogramCalibrator, IsotonicCalibrator, KDECalibrator, PlattCalibrator
from probcal._validation import as_labels, as_scores
from probcal.data import (
    FeatureDataset,
    ScoredDataset,
    _blocks,
    _map_blocks,
    _read_plain,
    _read_row_by_row,
    load_scored_csv,
    read_scored_rows,
)
from probcal.metrics import accuracy, auc, reliability, rmse


def make_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def label_outcome(check, values):
    """(dtype, values) of the checked array, or the ValueError message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the float-to-int cast of NaN/inf
            out = check(values)
    except ValueError as exc:
        return str(exc)
    return out.dtype, out.tolist()


LABEL_CASES = {
    "bool": np.array([True, False, True]),
    "uint8": np.array([0, 1, 1], dtype=np.uint8),
    "uint8 two": np.array([0, 2], dtype=np.uint8),
    "float32": np.array([0.0, 1.0], dtype=np.float32),
    "float32 half": np.array([0.0, 0.5], dtype=np.float32),
    "nan": np.array([0.0, np.nan]),
    "+inf": np.array([1.0, np.inf]),
    "-inf": np.array([0.0, -np.inf]),
    "negative zero": np.array([-0.0, 1.0]),
    "empty float": np.array([], dtype=np.float64),
    "empty list": [],
    "2-D": np.array([[0, 1], [1, 0]]),
    "0-D": np.array(1),
    "string": np.array(["0", "1"]),
    "int64 max": np.array([0, 2**63 - 1], dtype=np.int64),
    "uint64 max": np.array([1, 2**64 - 1], dtype=np.uint64),
    "minus one": np.array([0, -1]),
    "float one plus ulp": np.array([0.0, np.nextafter(1.0, 2.0)]),
}


class TestAsLabels:
    @pytest.mark.parametrize("case", list(LABEL_CASES))
    def test_matches_the_three_pass_check(self, case):
        values = LABEL_CASES[case]
        assert label_outcome(as_labels, values) == label_outcome(as_labels_three_pass, values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 1.0, -0.0, 0.5, 2.0, -1.0, np.nan, np.inf, -np.inf, 2.0**63]),
            max_size=8,
        ),
        dtype=st.sampled_from([np.float64, np.float32, np.float16]),
    )
    def test_matches_the_three_pass_check_on_floats(self, values, dtype):
        with np.errstate(over="ignore"):  # 2**63 is inf in float16
            arr = np.array(values, dtype=dtype)
        assert label_outcome(as_labels, arr) == label_outcome(as_labels_three_pass, arr)

    def test_int64_labels_come_back_as_the_same_object(self):
        labels = np.array([0, 1, 1], dtype=np.int64)
        assert as_labels(labels) is labels


class TestScoredDataset:
    def test_counts(self):
        data = ScoredDataset(np.array([0.1, 0.9, 0.5]), np.array([0, 1, 1]))
        assert data.n_samples == len(data) == 3
        assert data.n_pos == 2
        assert data.n_neg == 1

    def test_arrays_are_read_only(self):
        data = ScoredDataset(np.array([0.1, 0.9]), np.array([0, 1]))
        with pytest.raises(ValueError):
            data.scores[0] = 0.5

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ScoredDataset(np.array([0.1, 1.5]), np.array([0, 1]))

    def test_rejects_nan_scores(self):
        with pytest.raises(ValueError):
            ScoredDataset(np.array([0.1, np.nan]), np.array([0, 1]))

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="label"):
            ScoredDataset(np.array([0.1, 0.2]), np.array([0, 2]))

    def test_rejects_string_labels(self):
        with pytest.raises(ValueError, match="numeric"):
            as_labels(["1", "0"])
        with pytest.raises(ValueError, match="numeric"):
            ScoredDataset(np.array([0.1, 0.2]), np.array(["0", "1"]))

    def test_rejects_string_scores(self):
        with pytest.raises(ValueError, match="numeric"):
            as_scores(["0.5", "1"])

    def test_rejects_fractional_float_labels(self):
        with pytest.raises(ValueError):
            ScoredDataset(np.array([0.1, 0.2]), np.array([0.0, 0.5]))

    def test_accepts_exact_float_labels(self):
        data = ScoredDataset(np.array([0.1, 0.2]), np.array([0.0, 1.0]))
        assert data.labels.dtype == np.int64

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ScoredDataset(np.array([0.1]), np.array([0, 1]))


# every entry point that takes a (scores, labels) pair, and the name it gives the scores
PAIR_ENTRY_POINTS = {
    "HistogramCalibrator.fit": (lambda y, z: HistogramCalibrator().fit(y, z), "scores"),
    "PlattCalibrator.fit": (lambda y, z: PlattCalibrator().fit(y, z), "scores"),
    "IsotonicCalibrator.fit": (lambda y, z: IsotonicCalibrator().fit(y, z), "scores"),
    "KDECalibrator.fit": (lambda y, z: KDECalibrator().fit(y, z), "scores"),
    "DPMCalibrator.fit": (lambda y, z: DPMCalibrator().fit(y, z), "scores"),
    "reliability": (reliability, "predictions"),
    "auc": (auc, "scores"),
    "rmse": (rmse, "predictions"),
    "accuracy": (accuracy, "predictions"),
    "ScoredDataset": (ScoredDataset, "scores"),
}
# (scores, labels, message) with {name} for the scores' name
BAD_PAIRS = {
    "2-D": ([[0.1, 0.2], [0.3, 0.4]], [0, 1], "{name} must be one-dimensional, got shape (2, 2)"),
    "string dtype": (["0.1", "0.2"], [0, 1], "{name} must be numeric, got dtype <U3"),
    "NaN": ([np.nan, 0.5], [0, 1], "{name} must be finite"),
    "outside [0, 1]": ([1.5, 0.5], [0, 1], "{name} must lie in [0, 1]"),
    "label 2": ([0.1, 0.5], [0, 2], "labels must contain only 0 and 1"),
    "length mismatch": ([0.1, 0.2, 0.3], [0, 1], "{name} and labels must have equal length, got 3 and 2"),
}


@pytest.mark.parametrize("bad", BAD_PAIRS.values(), ids=BAD_PAIRS)
@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS.values(), ids=PAIR_ENTRY_POINTS)
def test_every_pair_entry_point_gives_the_same_message(entry, bad):
    call, name = entry
    scores, labels, message = bad
    with pytest.raises(ValueError) as raised:
        call(scores, labels)
    assert type(raised.value) is ValueError and str(raised.value) == message.format(name=name)


class TestFeatureDataset:
    def test_shape_properties(self):
        data = FeatureDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        assert data.n_samples == 4

    def test_rejects_one_dimensional_features(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureDataset(np.zeros(4), np.array([0, 1, 0, 1]))

    def test_rejects_nonfinite_features(self):
        feats = np.zeros((2, 2))
        feats[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            FeatureDataset(feats, np.array([0, 1]))



@pytest.mark.parametrize(
    "dataset, field, values",
    [
        (ScoredDataset, "scores", np.array([0.1, 0.9])),
        (FeatureDataset, "features", np.array([[0.1, 0.2], [0.3, 0.4]])),
    ],
    ids=["scored", "feature"],
)
def test_stored_arrays_are_read_only_views_of_the_callers(dataset, field, values):
    labels = np.array([0, 1])
    data = dataset(values, labels)
    for given, stored in ((values, getattr(data, field)), (labels, data.labels)):
        assert given.flags.writeable
        assert not stored.flags.writeable
        assert np.shares_memory(given, stored)
    values[0] = 0.5
    labels[0] = 1


class TestLoadScoredCsv:
    def test_reads_basic_file(self, tmp_path):
        path = make_csv(tmp_path, "score,label\n0.25,1\n0.75,0\n")
        data = load_scored_csv(path)
        assert data.scores.tolist() == [0.25, 0.75]
        assert data.labels.tolist() == [1, 0]

    def test_custom_column_names(self, tmp_path):
        path = make_csv(tmp_path, "p,y,extra\n0.5,0,x\n")
        data = load_scored_csv(path, score_column="p", label_column="y")
        assert data.scores.tolist() == [0.5]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scored_csv(tmp_path / "absent.csv")

    def test_missing_column(self, tmp_path):
        path = make_csv(tmp_path, "score,outcome\n0.5,1\n")
        with pytest.raises(ValueError, match="'label'"):
            load_scored_csv(path)

    def test_bad_score_reports_row_number(self, tmp_path):
        path = make_csv(tmp_path, "score,label\n0.5,1\noops,0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_scored_csv(path)

    def test_out_of_range_score_reports_row_number(self, tmp_path):
        path = make_csv(tmp_path, "score,label\n1.5,1\n")
        with pytest.raises(ValueError, match="row 1"):
            load_scored_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = make_csv(tmp_path, "score,label\n0.5,2\n")
        with pytest.raises(ValueError, match="label"):
            load_scored_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = make_csv(tmp_path, "")
        with pytest.raises(ValueError, match="header"):
            load_scored_csv(path)


# cells a reader must treat exactly as csv does: label and score spellings that
# float() or the label check accept or reject, quotes, NUL, and characters that
# str.splitlines breaks on but csv does not
MESSY_CELLS = (
    "0", "1", " 1", "+1", "1.0", "2", "0.5", "0.25", "nan", "inf", "-0", "1e-3", "0.5_1",
    " 0.5", "1.5", "", " ", "x", '"q"', '"a,b"', '"x""y"', "a\x00b", "a\u2028b", "a\x0bb",
    "a\x85b", "a\x1cb", "a\rb", "\u00e9",
)
PLAIN_SCORES = ("0", "1", "0.5", "0.125", "1e-3", "0.5_1", " 0.5", "0.25 ", "-0", "9.99e-1")


@st.composite
def messy_csv(draw):
    names = draw(st.lists(st.sampled_from(["score", "label", "id", "\ufeffscore", "", "n\u2028"]),
                          min_size=1, max_size=4))
    width = len(names)
    rows = draw(st.lists(
        st.one_of(
            st.just([]),  # a blank line
            st.lists(st.sampled_from(MESSY_CELLS), min_size=max(width - 1, 1), max_size=width + 1),
        ),
        max_size=6,
    ))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows) + 1,
                            max_size=len(rows) + 1))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + "".join(",".join(cells) + end for cells, end in zip([names] + rows, endings))
    return text.encode("utf-8") + draw(st.sampled_from([b"", b"\xff"]))


@st.composite
def plain_csv(draw):
    names = [n for n in draw(st.permutations(["score", "label", "id"])) if n != "id" or draw(st.booleans())]
    cells = {
        "score": st.sampled_from(PLAIN_SCORES),
        "label": st.sampled_from(["0", "1"]),
        # line breaks to str.splitlines, not to csv
        "id": st.sampled_from(["7", "", "a b", "a\u2028b", "x\x0by", "\x85\x1c\x0c", "\u00e9"]),
    }
    rows = draw(st.lists(st.tuples(*(cells[name] for name in names)), max_size=8))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    blanks = draw(st.integers(1, len(lines)))
    lines[blanks:blanks] = [""] * draw(st.integers(0, 2))  # blank lines csv skips
    return "".join(line + ending for line in lines).encode("utf-8")


def outcome(read):
    """A reader's result with arrays as raw bytes and row blocks joined, or its exception type and message."""
    try:
        fieldnames, scores, labels, rows = read()
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    rows = None if rows is None else [row for block in rows for row in block]
    return fieldnames, scores.dtype, scores.tobytes(), None if labels is None else labels.tobytes(), rows


def plain_parse(content: bytes, wanted, keep_rows):
    """``_read_plain`` of a file holding ``content``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(content)
        return _read_plain(path, wanted, keep_rows)


def reads_like_row_loop(content: bytes, label_column, keep_rows):
    wanted = ["score"] if label_column is None else ["score", label_column]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(content)
        full = outcome(lambda: read_scored_rows(path, "score", label_column, keep_rows))
        assert full == outcome(lambda: _read_row_by_row(path, wanted, keep_rows))
        return full


class TestColumnPath:
    """read_scored_rows against the row-by-row reader it falls back to."""

    @given(messy_csv(), st.sampled_from(["label", None]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_file_reads_like_the_row_loop(self, content, label_column, keep_rows):
        reads_like_row_loop(content, label_column, keep_rows)

    @given(plain_csv(), st.sampled_from(["label", None]))
    @settings(max_examples=200, deadline=None)
    def test_plain_file_takes_the_column_path(self, content, label_column):
        wanted = ["score"] if label_column is None else ["score", label_column]
        assert plain_parse(content, wanted, True) is not None
        rows = reads_like_row_loop(content, label_column, True)[-1]
        # each kept row is what csv.writer writes for the row's fields
        cells = list(csv.reader(io.StringIO(content.decode("utf-8"), newline="")))
        assert rows == [_render(row) for row in cells[1:] if row]

    @pytest.mark.parametrize(
        "text",
        [
            'score,label\n"0.5",1\n',  # quote
            "score,label\n0.5,1\r0.25,0\n",  # bare CR
            "score,score,label\n0.5,0.25,1\n",  # a wanted column twice
            "score,label\n0.5,1,x\n",  # long row
            "score,label\n0.5\n",  # short row
            "score,label\n0.5,1\x00\n",  # NUL
            "score,label\n0.5, 1\n",  # label with a space
            "score,label\nnan,1\n",  # score out of range
            "\nscore,label\n0.5,1\n",  # blank header line
        ],
    )
    def test_non_plain_or_bad_cells_fall_back(self, text):
        assert plain_parse(text.encode("utf-8"), ["score", "label"], False) is None

    def test_blank_header_line_has_no_columns(self, tmp_path):
        path = make_csv(tmp_path, "\n0.5\n")
        with pytest.raises(ValueError, match=r"missing column ''; file has \[\]"):
            read_scored_rows(path, score_column="")

    def test_overlong_field_is_left_to_the_row_loop(self):
        content = ("score,label,blob\n0.5,1," + "x" * (csv.field_size_limit() + 1) + "\n").encode()
        error, message = reads_like_row_loop(content, "label", False)
        assert error is ValueError
        assert message.endswith(f": row 1: field larger than field limit ({csv.field_size_limit()})")

    def test_overlong_header_field_names_the_header(self, tmp_path):
        path = make_csv(tmp_path, "score,label," + "x" * (csv.field_size_limit() + 1) + "\n0.5,1,a\n")
        with pytest.raises(ValueError, match=r"data\.csv: header: field larger than field limit"):
            read_scored_rows(path, label_column="label")


class TestOneRowModel:
    """Both paths keep a row as its list of fields, under one header rule (each wanted column
    exactly once) and one row rule (every non-blank row has the header's field count)."""

    @pytest.mark.parametrize("note", ["a", '"a,b"'], ids=["plain", "quoted"])
    def test_repeated_other_name_keeps_every_field(self, note, tmp_path):
        path = make_csv(tmp_path, f"score,x,x,label\n0.5,1,2,1\n0.25,{note},3,0\n")
        assert (_read_plain(path, ["score", "label"], True) is None) == (note != "a")
        fieldnames, scores, labels, rows = read_scored_rows(path, label_column="label", keep_rows=True)
        assert fieldnames == ["score", "x", "x", "label"]
        assert scores.tolist() == [0.5, 0.25] and labels.tolist() == [1, 0]
        assert [row for block in rows for row in block] == ["0.5,1,2,1", f"0.25,{note},3,0"]

    @pytest.mark.parametrize("note", ["a", '"a,b"'], ids=["plain", "quoted"])
    @pytest.mark.parametrize("header, column", [("score,score,label", "score"), ("score,label,label", "label")])
    def test_repeated_wanted_column_is_named(self, header, column, note, tmp_path):
        path = make_csv(tmp_path, f"{header}\n0.5,1,1\n0.25,{note},0\n")
        message = f"{path}: column {column!r} appears 2 times in the header"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_scored_rows(path, label_column="label")

    @pytest.mark.parametrize("note", ["a", '"a,b"'], ids=["plain", "quoted"])
    @pytest.mark.parametrize("row, count", [("0.25,0,b,extra", 4), ("0.25,0", 2)], ids=["long", "short"])
    def test_ragged_row_is_named_with_both_counts(self, row, count, note, tmp_path):
        # the blank line is not a row, so the ragged one is row 2
        path = make_csv(tmp_path, f"score,label,note\n0.5,1,{note}\n\n{row}\n0.75,1,c\n")
        message = f"{path}: row 2: {count} fields, the header has 3"
        for label_column in ("label", None):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_scored_rows(path, label_column=label_column, keep_rows=True)


class TestColumnPathInBlocks(TestColumnPath):
    """TestColumnPath with blocks so small that the files straddle several."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 3, 64])
    def block_bytes(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probcal.data, "_BLOCK_BYTES", request.param)
            yield request.param


# plain files; at some block size, each of their bytes starts a block read
EDGE_FILES = {
    "crlf": b"score,label\r\n0.5,1\r\n0.25,0\r\n",
    "two-byte character": "id,score,label\n\u00e9,0.5,1\nx\u00e9,0.25,0\n".encode(),
    "three-byte character": "id,score,label\n\u20ac,0.5,1\nx\u20ac,0.25,0\n\u20ac\u20ac,1,1\n".encode(),
    "no trailing newline": b"score,label\n0.5,1\n0.25,0",
    "header only": b"score,label\n",
    "header only without a newline": b"score,label",
    "blank lines": b"score,label\n\n0.5,1\n\n\n0.25,0\n\n",
    "blank crlf lines": b"score,label\r\n\r\n0.5,1\r\n\r\n0.25,0\r\n\r\n",
}

# a fault that only the last of several 64-byte blocks holds
GOOD_ROWS = b"score,label\n" + b"0.5,1\n0.25,0\n" * 50
LAST_BLOCK_FAULTS = {
    "quote": b'"x",1\n',
    "NUL": b"0.5,1\x00\n",
    "invalid UTF-8": b"0.5,1\xff\n",
    "bad label": b"0.5,2\n",
    "score out of range": b"1.5,1\n",
}


class TestBlockEdges:
    @given(st.binary(max_size=40) | messy_csv() | plain_csv(), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_blocks_cut_just_after_a_lf(self, content, size):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(content)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(probcal.data, "_BLOCK_BYTES", size)
                blocks = list(_blocks(path))
        assert b"".join(blocks) == content
        assert all(block.endswith(b"\n") for block in blocks[:-1])
        assert not blocks or blocks[-1].endswith(b"\n") or b"\n" not in blocks[-1]  # a tail without a LF

    @pytest.mark.parametrize("content", EDGE_FILES.values(), ids=EDGE_FILES)
    def test_every_block_edge_reads_like_the_row_loop(self, content, monkeypatch):
        for size in range(1, len(content) + 2):
            monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", size)
            assert plain_parse(content, ["score", "label"], True) is not None
            fieldnames, *_, rows = reads_like_row_loop(content, "label", True)
            lines = list(filter(None, content.replace(b"\r\n", b"\n").split(b"\n")))
            assert "label" in fieldnames and len(rows) == len(lines) - 1

    @pytest.mark.parametrize("fault", LAST_BLOCK_FAULTS.values(), ids=LAST_BLOCK_FAULTS)
    def test_fault_in_the_last_block_raises_the_row_loop_message(self, fault, tmp_path, monkeypatch):
        monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", 64)
        path = tmp_path / "data.csv"
        path.write_bytes(GOOD_ROWS + fault)
        blocks = list(_blocks(path))
        assert len(blocks) > 1 and blocks[-1].endswith(fault) and fault not in b"".join(blocks[:-1])
        assert _read_plain(path, ["score", "label"], True) is None
        with pytest.raises(ValueError) as expected:
            _read_row_by_row(path, ["score", "label"], True)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            read_scored_rows(path, label_column="label", keep_rows=True)
        where = "line 102: " if fault == LAST_BLOCK_FAULTS["invalid UTF-8"] else "row 101: "
        assert where in str(expected.value)

    @given(st.binary(max_size=40), st.integers(1, 12), st.integers(0, 45))
    @settings(max_examples=100, deadline=None)
    def test_blocks_from_an_offset_cover_the_rest_of_the_file(self, content, size, start):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(content)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(probcal.data, "_BLOCK_BYTES", size)
                blocks = list(_blocks(path, start))
        assert b"".join(blocks) == content[start:]
        assert all(block.endswith(b"\n") for block in blocks[:-1])


def count_forks(monkeypatch) -> list:
    """A list that gains an entry at each os.fork from now on."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 200 rows of id, score and label: 64-byte blocks cut them into about 90
ROWS_200 = "id,score,label\n" + "".join(f"r{i},{(i * 37 % 200) / 199!r},{i % 3 % 2}\n" for i in range(200))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process map needs os.fork")
class TestTwoProcessBlocks:
    """_map_blocks forks from two items on; every result and error is that of the in-process map."""

    def test_the_child_computes_every_other_item(self, monkeypatch):
        forks = count_forks(monkeypatch)
        pids = list(_map_blocks(lambda _: os.getpid(), range(7)))
        assert len(forks) == 1 and set(pids[::2]) == {os.getpid()}
        assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()
        assert_no_child_left()

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_items_stay_in_process(self, count, monkeypatch):
        forks = count_forks(monkeypatch)
        assert list(_map_blocks(lambda _: os.getpid(), range(count))) == [os.getpid()] * count
        assert forks == []

    def test_without_fork_the_map_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert list(_map_blocks(lambda _: os.getpid(), range(5))) == [os.getpid()] * 5

    @pytest.mark.parametrize("failing", [2, 3], ids=["in the parent", "in the child"])
    def test_an_exception_keeps_its_type_and_message(self, failing):
        def work(item):
            if item == failing:
                raise KeyError(f"item {item}")
            return item

        results = _map_blocks(work, range(6))
        assert [next(results) for _ in range(failing)] == list(range(failing))
        with pytest.raises(KeyError) as raised:
            next(results)
        assert str(raised.value) == repr(f"item {failing}")
        assert_no_child_left()

    def test_closed_early_the_child_is_reaped(self):
        results = _map_blocks(lambda item: item, range(50))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        results.close()
        assert_no_child_left()

    def test_a_child_that_dies_raises_oserror_naming_its_status(self):
        parent = os.getpid()

        def work(item):
            if os.getpid() != parent:
                os._exit(7)
            return item

        with pytest.raises(OSError, match=r"ended without a result \(wait status 1792\)$"):
            list(_map_blocks(work, range(4)))
        assert_no_child_left()

    @pytest.mark.parametrize("label_column", ["label", None])
    @pytest.mark.parametrize("keep_rows", [True, False])
    def test_read_equals_the_in_process_read(self, label_column, keep_rows, tmp_path, monkeypatch):
        monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", 64)
        path = make_csv(tmp_path, ROWS_200)
        wanted = ["score"] if label_column is None else ["score", label_column]
        forks = count_forks(monkeypatch)
        assert _read_plain(path, wanted, keep_rows) is not None  # the blocks' parse, not the row loop
        forked = outcome(lambda: read_scored_rows(path, "score", label_column, keep_rows))
        assert len(forks) == 2 and len(forked[2]) == 200 * 8
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        assert outcome(lambda: read_scored_rows(path, "score", label_column, keep_rows)) == forked

    @pytest.mark.parametrize("block", [4, 5], ids=["even block, the parent's", "odd block, the child's"])
    def test_bad_cell_in_either_process_gives_the_row_loop_message(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(probcal.data, "_BLOCK_BYTES", 64)
        header = ROWS_200.index("\n") + 1
        blocks = list(_blocks(make_csv(tmp_path, ROWS_200), header))
        row = sum(b.count(b"\n") for b in blocks[:block])  # 0-based: the first row of that block
        lines = ROWS_200.split("\n")
        score = lines[row + 1].split(",")[1]
        lines[row + 1] = lines[row + 1].replace(score, "x" * len(score))  # the same length: the same blocks
        path = make_csv(tmp_path, "\n".join(lines))
        assert list(_blocks(path, header))[block].startswith(lines[row + 1].encode())
        forks = count_forks(monkeypatch)
        assert _read_plain(path, ["score", "label"], True) is None
        assert len(forks) == 1
        assert_no_child_left()
        message = f"{path}: row {row + 1}: cannot parse score {'x' * len(score)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_scored_rows(path, label_column="label", keep_rows=True)
        assert_no_child_left()

    def test_write_leaves_no_child(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)
        probcal.data.write_csv(tmp_path / "out.csv", ["x"], [[np.arange(3.0)]] * 4)
        assert len(forks) == 1
        assert (tmp_path / "out.csv").read_bytes() == b"x\r\n" + b"0\r\n1\r\n2\r\n" * 4
        assert_no_child_left()

    def test_the_child_flushes_no_inherited_buffer_and_runs_no_exit_handler(self, tmp_path):
        # stdout to a pipe is block-buffered: a child that flushed its copy would print the line twice
        probe = textwrap.dedent(
            """
            import atexit, sys
            import numpy as np
            from probcal.data import write_csv
            atexit.register(print, "exit handler")
            print("before the fork")
            write_csv(sys.argv[1], ["x"], [[np.arange(3.0)]] * 4)
            """
        )
        source = str(Path(probcal.data.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out.csv"
        result = subprocess.run([sys.executable, "-c", probe, str(out)], capture_output=True, env=env, check=True)
        assert result.stdout == b"before the fork\nexit handler\n"
        assert out.read_bytes() == b"x\r\n" + b"0\r\n1\r\n2\r\n" * 4


def _render(cells) -> str:
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue().removesuffix("\r\n")
