"""Score/label containers and CSV reading and writing."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from ._validation import as_labels, check_same_length, scored_pair


class _Rows:
    """The row protocol of both datasets: each dataclass field is an array with one entry (or
    row) per sample. ``_checked`` returns the fields validated, in order; each is then stored
    as a read-only view, so no data is copied and the caller's own arrays stay writable."""

    def __post_init__(self):
        for column, arr in zip(fields(self), self._checked()):
            arr = arr.view()
            arr.setflags(write=False)
            object.__setattr__(self, column.name, arr)

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[0])

    def __len__(self) -> int:
        return self.n_samples


@dataclass(frozen=True)
class ScoredDataset(_Rows):
    """An ordered collection of (score, label) pairs, validated and read-only from construction."""

    scores: np.ndarray
    labels: np.ndarray

    def _checked(self) -> tuple:
        return scored_pair(self.scores, self.labels)

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def n_neg(self) -> int:
        return self.n_samples - self.n_pos


@dataclass(frozen=True)
class FeatureDataset(_Rows):
    """Feature vectors of fixed dimension with binary labels."""

    features: np.ndarray
    labels: np.ndarray

    def _checked(self) -> tuple:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        labels = as_labels(self.labels)
        check_same_length(feats, labels, "features and labels")
        return feats, labels


def read_scored_rows(
    path,
    score_column: str = "score",
    label_column: str | None = None,
    keep_rows: bool = False,
) -> tuple:
    """Read a headered CSV file.

    Scores must parse as reals in [0, 1] and, when ``label_column`` is
    given, labels as 0/1; violations are reported with the 1-based data-row
    number (the header is not counted). Returns (fieldnames, scores, labels,
    rows): labels is None without a label column; rows, only with
    ``keep_rows``, is an iterable, to be read once, of blocks of data rows,
    each block a list of its rows as csv.writer writes their fields, without
    the line ending. Plain files are parsed a block of lines at a time and
    keep each block's row text; any other file, or one with a bad cell, is
    read whole by the row loop that raises.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    wanted = [score_column] if label_column is None else [score_column, label_column]
    parsed = _read_plain(path, wanted, keep_rows)
    return parsed if parsed is not None else _read_row_by_row(path, wanted, keep_rows)


_BLOCK_BYTES = 1 << 18  # bytes read at a time by the plain-file parser


def _blocks(path: Path):
    """The bytes of a file in blocks of about ``_BLOCK_BYTES``, each cut just after a LF.

    A block ends at its last LF (only the file's tail may not), so neither a
    CRLF pair nor a UTF-8 character, which never holds a LF byte, is split.
    """
    pending: list[bytes] = []
    with open(path, "rb") as handle:
        while chunk := handle.read(_BLOCK_BYTES):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                pending.append(chunk[:cut])
                yield b"".join(pending)
                pending = [chunk[cut:]]
            else:
                pending.append(chunk)
    if tail := b"".join(pending):
        yield tail


def _read_plain(path: Path, wanted: list[str], keep_rows: bool) -> tuple | None:
    """``read_scored_rows`` of a plain CSV file; None if it is not plain or a cell is bad.

    Plain: valid UTF-8; no quote, NUL or CR outside a CRLF; a non-empty
    header of unique names holding the wanted columns; every non-blank line
    with the header's field count and within csv's field size limit. Each
    line then splits on commas as csv reads it (csv breaks lines at LF only,
    unlike str.splitlines) and is what csv.writer writes for its fields. The
    checks hold line by line, so they are made on each block of ``_blocks``.
    """
    header, width, scores, labels, texts = None, 0, [], [], []
    for block in _blocks(path):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:  # the row loop reports it
            return None
        if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
            return None
        lines = text.replace("\r\n", "\n").split("\n")
        if max(map(len, lines)) > csv.field_size_limit():
            return None
        if header is None:
            header = lines.pop(0).split(",")
            width = len(header)
            if header == [""] or len(set(header)) != width or not set(wanted) <= set(header):
                return None
        body = list(filter(None, lines))  # csv skips blank lines
        if set(map(str.count, body, repeat(","))) - {width - 1}:
            return None
        cells = ",".join(body).split(",") if width > 1 and body else body
        columns = [cells[header.index(name) :: width] for name in wanted]
        try:
            scores.append(np.fromiter(map(float, columns[0]), dtype=np.float64, count=len(body)))
        except ValueError:
            return None
        if not np.all((scores[-1] >= 0.0) & (scores[-1] <= 1.0)):
            return None
        if len(columns) > 1:
            if not set(columns[1]) <= {"0", "1"}:
                return None
            labels.append(np.frombuffer("".join(columns[1]).encode(), dtype=np.uint8) == ord("1"))
        if keep_rows and body:  # "".split("\n") would give one empty row
            texts.append("\n".join(body))  # split again on LF, which no plain row holds
    if header is None:  # an empty file
        return None
    return (
        header,
        np.concatenate(scores),
        np.concatenate(labels).astype(np.int64) if len(wanted) > 1 else None,
        (text.split("\n") for text in texts) if keep_rows else None,
    )


def _read_row_by_row(path: Path, wanted: list[str], keep_rows: bool) -> tuple:
    score_column, label_column = wanted[0], wanted[1] if len(wanted) > 1 else None
    scores: list[float] = []
    labels: list[int] = []
    rows: list[str] | None = [] if keep_rows else None
    row_number = -1  # while the header is read
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            for column in wanted:
                if column not in reader.fieldnames:
                    raise ValueError(
                        f"{path}: missing column {column!r}; file has {reader.fieldnames}"
                    )
            row_number = 0
            for row_number, row in enumerate(reader, start=1):
                raw_score = row.get(score_column)
                raw_label = row.get(label_column) if label_column is not None else ""
                if raw_score is None or raw_label is None:
                    raise ValueError(f"{path}: row {row_number}: short row")
                try:
                    score = float(raw_score)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {row_number}: cannot parse score {raw_score!r}"
                    ) from None
                if not 0.0 <= score <= 1.0:
                    raise ValueError(
                        f"{path}: row {row_number}: score {raw_score} outside [0, 1]"
                    )
                scores.append(score)
                if label_column is not None:
                    if raw_label.strip() not in ("0", "1"):
                        raise ValueError(
                            f"{path}: row {row_number}: label {raw_label!r} not in {{0, 1}}"
                        )
                    labels.append(int(raw_label))
                if rows is not None:
                    # csv.writer's line ending decides what it quotes, so cut it off after
                    out = io.StringIO()
                    csv.writer(out).writerow([row[name] for name in reader.fieldnames])
                    rows.append(out.getvalue()[:-2])
    except csv.Error as exc:  # say, a cell longer than csv.field_size_limit()
        where = "header" if row_number < 0 else f"row {row_number + 1}"
        raise ValueError(f"{path}: {where}: {exc}") from None
    except UnicodeDecodeError:  # its position is in a read buffer: find the byte in the whole file
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: line {line}: {exc}") from None
        raise
    return (
        list(reader.fieldnames),
        np.asarray(scores, dtype=np.float64),
        None if label_column is None else np.asarray(labels, dtype=np.int64),
        None if rows is None else [rows],
    )


def format_cells(values) -> list[str]:
    """Each float of a sequence as ``%.17g`` text (exact; nan, inf, -inf if not finite), in one pass."""
    values = tuple(values)
    return ("%.17g," * len(values) % values).split(",")[:-1]


def _cells(column) -> list:
    """A column's CSV cells: a float array's by ``format_cells``, any other's as str formats them."""
    if not isinstance(column, np.ndarray):
        return column
    return format_cells(column.tolist()) if column.dtype.kind == "f" else column.tolist()


def write_csv(path, header: list[str], blocks) -> None:
    """Write a header line, then each block of rows, given as the list of its columns."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        for columns in blocks:
            line = ",".join(["{}"] * len(columns)) + "\r\n"
            handle.write("".join(map(line.format, *map(_cells, columns))))


def load_scored_csv(
    path,
    score_column: str = "score",
    label_column: str = "label",
) -> ScoredDataset:
    """Read (score, label) rows from a headered CSV file (see read_scored_rows)."""
    _, scores, labels, _ = read_scored_rows(path, score_column, label_column)
    return ScoredDataset(scores, labels)
