"""Score/label containers and CSV reading and writing."""

from __future__ import annotations

import csv
import os
import pickle
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ._validation import scored_pair


@dataclass(frozen=True)
class ScoredDataset:
    """An ordered collection of (score, label) pairs, validated and read-only from construction:
    each array is stored as a read-only view, so no data is copied and the caller's own arrays
    stay writable."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        for name, arr in zip(("scores", "labels"), scored_pair(self.scores, self.labels)):
            arr = arr.view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[0])

    def __len__(self) -> int:
        return self.n_samples

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def n_neg(self) -> int:
        return self.n_samples - self.n_pos


def read_scored_rows(
    path,
    score_column: str = "score",
    label_column: str | None = None,
    keep_rows: bool = False,
) -> tuple:
    """Read a headered CSV file.

    Each wanted column must appear exactly once in the header (other names
    may repeat), and every non-blank row must have the header's field count.
    Scores must parse as reals in [0, 1] and, when ``label_column`` is
    given, labels as 0/1; violations are reported with the 1-based data-row
    number (the header is not counted). Returns (fieldnames, scores, labels,
    rows): labels is None without a label column; rows, only with
    ``keep_rows``, is an iterable, to be read once, of blocks of data rows,
    each block a list of its rows as csv.writer writes their fields, without
    the line ending. Plain files are parsed a block of lines at a time and
    keep each block's row text; any other file, or one with a bad cell, is
    read whole by the csv.reader row loop that raises.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    wanted = [score_column] if label_column is None else [score_column, label_column]
    parsed = _read_plain(path, wanted, keep_rows)
    return parsed if parsed is not None else _read_row_by_row(path, wanted, keep_rows)


def _header_error(header: list[str], wanted: list[str]) -> str | None:
    """Why the header fails the rule of both paths, each wanted column exactly once; else None."""
    for column in wanted:
        if (count := header.count(column)) != 1:
            if count == 0:
                return f"missing column {column!r}; file has {header}"
            return f"column {column!r} appears {count} times in the header"


_BLOCK_BYTES = 1 << 18  # bytes read at a time by the plain-file parser


def _map_blocks(work, items):
    """``map(work, items)``; from two items on, where ``os.fork`` exists, a forked child
    computes every other result and sends it back pickled through a pipe, which holds
    it at most one result ahead. Each result must be a pure function of its item, and
    the child iterates its own copy of ``items``, which must hold no open file between
    items. The child leaves by ``os._exit`` (no atexit handler, no stdio flush) and is
    always reaped, and killed first when this generator ends before its last reply; its
    exceptions are raised here, and its end without a result raises OSError."""
    items = iter(items)
    head = list(islice(items, 2))
    items = chain(head, items)
    if len(head) < 2 or not hasattr(os, "fork"):
        yield from map(work, items)
        return
    reader, writer = os.pipe()
    if (pid := os.fork()) == 0:  # the child: the odd items, then out, never back into the caller's code
        try:
            os.close(reader)
            with open(writer, "wb") as replies:
                for item in islice(items, 1, None, 2):
                    try:
                        reply = True, work(item)
                    except BaseException as exc:  # the parent raises it
                        reply = False, exc
                    pickle.dump(reply, replies)
                    replies.flush()
        except BaseException:  # say, the parent closed the pipe: nothing is wanted any more
            os._exit(1)
        os._exit(0)
    os.close(writer)
    status = None
    try:
        with open(reader, "rb") as replies:
            for index, item in enumerate(items):
                if index % 2 == 0:
                    yield work(item)
                    continue
                try:
                    ok, result = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):
                    status = os.waitpid(pid, 0)[1]
                    raise OSError(f"block worker {pid} ended without a result (wait status {status})") from None
                if not ok:
                    raise result
                yield result
        status = os.waitpid(pid, 0)[1]  # every reply read: the child ends by itself
    finally:
        if status is None:  # an early end: no reply is wanted any more, so the child stops now
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _blocks(path: Path, start: int = 0):
    """The bytes of a file from offset ``start`` on, in blocks of about ``_BLOCK_BYTES``,
    each cut just after a LF.

    A block ends at its last LF (only the file's tail may not), so neither a
    CRLF pair nor a UTF-8 character, which never holds a LF byte, is split.
    Each read opens the file at its own offset, so no open file lives between
    blocks, and a forked copy of this generator reads on its own.
    """
    pending: list[bytes] = []
    while True:
        with open(path, "rb") as handle:
            handle.seek(start)
            if not (chunk := handle.read(_BLOCK_BYTES)):
                break
        start += len(chunk)
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if tail := b"".join(pending):
        yield tail


def _plain_lines(raw: bytes) -> list[str] | None:
    """The lines of CSV bytes, split as csv splits them (at LF only, unlike str.splitlines),
    without their CRLF endings; None unless valid UTF-8 with no quote, NUL or CR outside a
    CRLF, and every line within csv's field size limit."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:  # the row loop reports it
        return None
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    return None if max(map(len, lines)) > csv.field_size_limit() else lines


def _read_plain(path: Path, wanted: list[str], keep_rows: bool) -> tuple | None:
    """``read_scored_rows`` of a plain CSV file; None if it is not plain or a cell is bad.

    Plain: every line keeps ``_plain_lines``; a non-empty header that keeps the
    header rule (``_header_error``); every non-blank line with the header's field
    count. Each line then splits on commas as csv reads it and is what csv.writer
    writes for its fields. The checks hold line by line, so the header is read
    first, then ``_map_blocks`` parses each block of ``_blocks`` after it.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
    header = (_plain_lines(first) or [""])[0].split(",")  # [""] if not plain
    if header == [""] or _header_error(header, wanted):
        return None
    width, at = len(header), [header.index(name) for name in wanted]

    def parse(block: bytes) -> tuple | None:
        """A block's (scores, labels or None, kept row text or None); None if not plain or a cell is bad."""
        if (lines := _plain_lines(block)) is None:
            return None
        body = list(filter(None, lines))  # csv skips blank lines
        if set(map(str.count, body, repeat(","))) - {width - 1}:
            return None
        cells = ",".join(body).split(",") if width > 1 and body else body
        columns = [cells[i::width] for i in at]
        try:
            scores = np.fromiter(map(float, columns[0]), dtype=np.float64, count=len(body))
        except ValueError:
            return None
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            return None
        labels = None
        if len(columns) > 1:
            if not set(columns[1]) <= {"0", "1"}:
                return None
            labels = np.frombuffer("".join(columns[1]).encode(), dtype=np.uint8) == ord("1")
        # split again on LF, which no plain row holds; "".split("\n") would give one empty row
        return scores, labels, "\n".join(body) if keep_rows and body else None

    parsed = [(np.empty(0), np.empty(0, dtype=bool), None)]
    for block in _map_blocks(parse, _blocks(path, len(first))):
        if block is None:
            return None
        parsed.append(block)
    scores, labels, texts = zip(*parsed)
    return (
        header,
        np.concatenate(scores),
        np.concatenate(labels).astype(np.int64) if len(wanted) > 1 else None,
        (text.split("\n") for text in texts if text) if keep_rows else None,
    )


def _read_row_by_row(path: Path, wanted: list[str], keep_rows: bool) -> tuple:
    scores: list[float] = []
    labels: list[int] = []
    rows: list[str] | None = [] if keep_rows else None
    render = csv.writer(SimpleNamespace(write=str)).writerow  # returns what write returns: the text
    header, row_number = None, 0  # header None: the header is being read

    def fault(what: str) -> ValueError:
        return ValueError(f"{path}: row {row_number}: {what}")

    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            if error := _header_error(header, wanted):
                raise ValueError(f"{path}: {error}")
            at_score, *at_label = map(header.index, wanted)
            for row_number, fields in enumerate(filter(None, reader), 1):  # csv reads a blank line as []
                if len(fields) != len(header):
                    raise fault(f"{len(fields)} fields, the header has {len(header)}")
                raw_score = fields[at_score]
                try:
                    score = float(raw_score)
                except ValueError:
                    raise fault(f"cannot parse score {raw_score!r}") from None
                if not 0.0 <= score <= 1.0:
                    raise fault(f"score {raw_score} outside [0, 1]")
                scores.append(score)
                if at_label:
                    raw_label = fields[at_label[0]]
                    if raw_label.strip() not in ("0", "1"):
                        raise fault(f"label {raw_label!r} not in {{0, 1}}")
                    labels.append(int(raw_label))
                if rows is not None:  # the line ending decides what csv.writer quotes, so cut it off after
                    rows.append(render(fields)[:-2])
    except csv.Error as exc:  # say, a cell longer than csv.field_size_limit()
        where = "header" if header is None else f"row {row_number + 1}"
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
        header,
        np.asarray(scores, dtype=np.float64),
        np.asarray(labels, dtype=np.int64) if at_label else None,
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


def _render(columns) -> str:
    """The CSV text of a block of rows, given as the list of its columns."""
    line = ",".join(["{}"] * len(columns)) + "\r\n"
    return "".join(map(line.format, *map(_cells, columns)))


def check_output_path(path, flag: str) -> None:
    """Refuse, naming ``flag``, an output ``path`` that is a directory or lies in no existing one."""
    if path is not None and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ValueError(f"{flag} {path}: {'is a directory' if os.path.isdir(path) else 'no such directory'}")


def write_csv(path, header: list[str], blocks) -> None:
    """Write a header line, then each block of rows, given as the list of its columns
    (rendered by ``_map_blocks``, so ``blocks`` must hold no open file)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        handle.writelines(_map_blocks(_render, blocks))


def load_scored_csv(path, score_column: str = "score", label_column: str = "label") -> ScoredDataset:
    """Read (score, label) rows from a headered CSV file (see read_scored_rows)."""
    _, scores, labels, _ = read_scored_rows(path, score_column, label_column)
    return ScoredDataset(scores, labels)
