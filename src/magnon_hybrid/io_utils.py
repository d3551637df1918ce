"""Small file helpers: atomic writes, canonical CSV/JSON formatting."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .errors import DataError

#: numeric CSV cells use 9 significant digits
_NUM_FMT = ".9g"


def fmt_num(x) -> str:
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return format(float(x), _NUM_FMT)


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
    """CSV with 9-significant-digit numbers, '.' decimal separator, LF endings."""
    lines = []
    for row in rows:
        cells = [cell if isinstance(cell, str) else fmt_num(cell) for cell in row]
        lines.append(",".join(cells))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_json(path, doc) -> None:
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_csv_columns(path) -> tuple[dict[str, list[str]], list[int]]:
    """Read a simple header + rows CSV into per-column string lists.

    Blank lines are skipped.  Returns the columns and, for each data row, its
    1-based line number in the file.  Raises :class:`DataError` naming a
    repeated header name, or the lines of rows whose cell count differs from
    the header's.
    """
    text = Path(path).read_text(encoding="utf-8")
    rows = [(no, ln.split(",")) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows:
        return {}, []
    header = [h.strip() for h in rows[0][1]]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DataError(f"{path}: header repeats column {repeated[0]!r}")
    bad = [no for no, cells in rows[1:] if len(cells) != len(header)]
    if bad:
        shown = ", ".join(map(str, bad[:10]))
        if len(bad) > 10:
            shown += f" and {len(bad) - 10} more"
        raise DataError(f"{path}: {'line' if len(bad) == 1 else 'lines'} {shown} "
                        f"do not have the header's {len(header)} cells")
    cols: dict[str, list[str]] = {h: [] for h in header}
    for _, cells in rows[1:]:
        for h, c in zip(header, cells):
            cols[h].append(c.strip())
    return cols, [no for no, _ in rows[1:]]
