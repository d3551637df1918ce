"""Small file helpers: atomic writes, canonical JSON, and the package's one
CSV codec (:func:`write_rows`; :func:`read_csv_lines` with :func:`parse_rows`).

A row of numbers is formatted by one printf string and the body of a file is
parsed in one ``np.loadtxt`` pass; :func:`parse_row`, the per-line parser,
runs only to name a bad line or cell (or for a cell that ``float`` accepts
and ``loadtxt`` does not, such as ``1_0``)."""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import DataError

#: a number cell: 9 significant digits, so an int below 1e9 keeps all of them;
#: ``"%.9g" % x`` gives the same text, a whole row at a time
_num_cell = "{:.9g}".format

#: what ``float`` ignores around a number: every ``str.isspace`` character
#: except the separators U+001C..U+001F, which it refuses
_FLOAT_BLANKS = ("\t\n\x0b\x0c\r \x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200b)))
                 + "\u2028\u2029\u202f\u205f\u3000")


def _new_file_mode() -> int:
    """The mode ``open`` gives a new file: 0o666 minus the process umask."""
    # reading the umask means setting it; the package starts no threads
    # that could create a file in between
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def write_text_atomic(path, text: str) -> None:
    """Write via a unique sibling temp file + rename so readers never see
    partial output and concurrent writers into one directory cannot collide.

    The temp file is removed if the write fails; the result gets the mode a
    plain ``Path.write_text`` would give it (``mkstemp`` creates 0600).
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, _new_file_mode())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_rows(path, rows) -> None:
    """CSV with 9-significant-digit numbers, '.' decimal separator, LF endings.

    ``rows`` is any iterable of rows; text cells (names, labels,
    "true"/"false") are written as they are.
    """
    def line(row):
        row = tuple(row)
        try:
            return (",".join(["%.9g"] * len(row)) + "\n") % row
        except (TypeError, ValueError):  # the row holds text cells
            return ",".join([c if isinstance(c, str) else _num_cell(c) for c in row]) + "\n"
    write_text_atomic(path, "".join(map(line, rows)))


def write_json(path, doc) -> None:
    """Canonical JSON; a NaN or infinity anywhere in ``doc`` raises ValueError."""
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def read_csv_lines(path):
    """``((line number, names), lines)``: a CSV's header line number and
    stripped names, and an iterator of ``(line number, text)`` over the lines
    after it, blank lines skipped.  DataError if the file is not readable
    UTF-8 text or its header repeats a name."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = ((no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip())
    no, first = next(lines, (0, ""))
    names = [h.strip() for h in first.split(",")]
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise DataError(f"{path}: header repeats column {repeated[0]!r}")
    return (no, names), lines


def parse_row(path, names, no: int, line: str, columns=None) -> np.ndarray:
    """The cells of line ``no`` at ``columns`` (default: all) as floats.

    ``names`` labels the line's cells.  Raises :class:`DataError` naming the
    file, the line and the column for a line whose cell count differs from
    ``len(names)`` or a cell that is not a number.
    """
    cells = line.split(",")
    if len(cells) != len(names):
        what = (f"no {names[len(cells)]} cell" if len(cells) < len(names)
                else f"a cell past the last column {names[-1]}")
        raise DataError(f"{path}, line {no}: {what}")
    picked = cells if columns is None else [cells[i] for i in columns]
    try:
        # straight into an array: a map's rows as float lists would leave
        # ~10 MB of float objects behind on the heap
        return np.fromiter(map(float, picked), float, len(picked))
    except ValueError:
        pass
    for i in range(len(cells)) if columns is None else columns:
        try:
            float(cells[i])
        except ValueError:
            cell = cells[i].strip(_FLOAT_BLANKS)
            raise DataError(f"{path}, line {no}: {names[i]} {cell!r} is not a number") from None


def parse_rows(path, names, lines, columns=None) -> np.ndarray:
    """The ``(line number, text)`` pairs of ``lines`` as one float array,
    one row per line, holding the cells at ``columns`` (default: all).

    Raises the :class:`DataError` :func:`parse_row` gives for the first bad
    line.  The lines are parsed in one ``np.loadtxt`` pass; the per-line
    parser runs only when that pass fails.
    """
    lines = list(lines)
    texts = [text for _, text in lines]
    # loadtxt lets the cell count vary outside ``columns``, strips U+001F
    # around a cell where float() refuses it, skips an empty line (the header
    # of an empty file) and warns when no line is left
    commas = len(names) - 1
    if texts and all(text and text.count(",") == commas and "\x1f" not in text
                     for text in texts):
        try:
            return np.loadtxt(texts, delimiter=",", comments=None, usecols=columns, ndmin=2)
        except ValueError:
            pass
    width = len(names) if columns is None else len(columns)
    return np.array([parse_row(path, names, no, text, columns)
                     for no, text in lines]).reshape(len(lines), width)
