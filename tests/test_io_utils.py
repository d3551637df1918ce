import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_hybrid import (
    MagnonMode,
    SpectralMap,
    build_n4,
    extract_ridges,
    load_ridge_csv,
    synth_map,
)
from magnon_hybrid import io_utils, spectra
from magnon_hybrid.errors import DataError
from magnon_hybrid.io_utils import (
    parse_row,
    parse_rows,
    read_csv_lines,
    write_json,
    write_rows,
    write_text_atomic,
)


def mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestWriteTextAtomic:
    def test_writes_text(self, tmp_path):
        write_text_atomic(tmp_path / "a.csv", "x,y\n1,2\n")
        assert (tmp_path / "a.csv").read_text() == "x,y\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
    def test_mode_matches_plain_write(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            (tmp_path / "plain.txt").write_text("x", encoding="utf-8")
            write_text_atomic(tmp_path / "atomic.txt", "x")
        finally:
            os.umask(old)
        assert mode(tmp_path / "atomic.txt") == mode(tmp_path / "plain.txt") == 0o666 & ~umask

    def test_failed_write_leaves_no_stray_file(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(target, "lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []
        # an existing file is left as it was
        target.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(target, "lone surrogate \ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert target.read_text() == "old"

    def test_temp_name_is_unique(self, tmp_path):
        # a fixed sibling name such as report.json.tmp, left behind by another
        # run, does not block the write
        (tmp_path / "report.json.tmp").mkdir()
        write_text_atomic(tmp_path / "report.json", "{}\n")
        assert (tmp_path / "report.json").read_text() == "{}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.tmp"]


class TestWriteJson:
    def test_non_finite_number_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "a.json", {"x": [1.0, float("inf")]})
        assert list(tmp_path.iterdir()) == []


class TestReadCsvLines:
    def test_repeated_header_names_file_and_column(self, tmp_path):
        path = tmp_path / "ridges.csv"
        path.write_text("field_t,field_t,freq_ghz\n0.4,0.5,13.0\n")
        with pytest.raises(DataError, match=f"{path}: header repeats column 'field_t'"):
            read_csv_lines(path)


def per_cell_text(rows):
    """The per-cell formatting write_rows replaced, kept as the reference."""
    def line(row):
        try:
            return ",".join(map("{:.9g}".format, row))
        except ValueError:
            return ",".join([c if isinstance(c, str) else "{:.9g}".format(c) for c in row])
    return "".join([line(row) + "\n" for row in rows])


_number = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-10**15, 10**15),
    st.integers(10**9, 10**300),
    st.booleans(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)
_text = st.sampled_from(["true", "false", "", "field_t", "doublet (1, 2)"]) | st.text(
    st.characters(codec="utf-8"), max_size=4)


class TestWriteRows:
    @given(rows=st.lists((st.lists(_number, max_size=6) | st.lists(_number | _text, max_size=6))
                         .map(tuple), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_per_cell_format(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            write_rows(path, rows)
            assert path.read_bytes() == per_cell_text(rows).encode("utf-8")


def outcome(parse):
    try:
        rows = parse()
    except DataError as exc:
        return str(exc)
    return rows.shape, rows.tobytes()


def per_line(path, names, lines, columns=None):
    """Every line through parse_row, the reference parse_rows must match."""
    width = len(names) if columns is None else len(columns)
    return np.array([parse_row(path, names, no, text, columns)
                     for no, text in lines]).reshape(len(lines), width)


# cells loadtxt and float() both read, cells only float() reads, and cells
# neither reads
_cell = st.one_of(
    st.floats().map("{:.9g}".format),
    st.floats().map(repr),
    st.sampled_from(["1_0", "١", " 3 ", " 3", "3\x1f", "\x1f3", "\t-0", "+nan",
                     "-Infinity", "1e999", "", " ", "oops", "#1", "1e", "0x10", "1,2"]),
)


class TestParseRows:
    NAMES = ["field_t", "freq_ghz", "prominence_db"]

    @given(body=st.lists(st.lists(_cell, min_size=3, max_size=3) | st.lists(_cell, max_size=4),
                         max_size=5),
           columns=st.sampled_from([None, [0, 1], [0, 1, 2], [2], []]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_line_parse(self, body, columns):
        text = "\n".join(",".join(cells) for cells in body)
        lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 2) if ln.strip()]
        assert (outcome(lambda: parse_rows("f.csv", self.NAMES, lines, columns))
                == outcome(lambda: per_line("f.csv", self.NAMES, lines, columns)))

    @pytest.mark.parametrize("cell", ["1_0", "١", " 3 "])
    def test_cells_only_float_reads_agree(self, tmp_path, monkeypatch, cell):
        # read once through loadtxt where it can, once with loadtxt failing
        smap = tmp_path / "map.csv"
        smap.write_text(f"field_t,13.0,13.1\n0.40,-20.0,{cell}\n0.41,-21.0,-22.0\n")
        ridges = tmp_path / "ridges.csv"
        ridges.write_text(f"field_t,freq_ghz,prominence_db\n0.40,13.0,{cell}\n0.41,13.1,2\n")

        def read():
            m, r = SpectralMap.from_csv(smap), load_ridge_csv(ridges)
            return (m.field_t.tolist(), m.freq_ghz.tolist(), m.magnitude_db.tolist(),
                    r.field_t.tolist(), r.freq_ghz.tolist(), r.prominence_db.tolist())
        fast = read()
        assert fast[2][1][0] == fast[5][0] == float(cell)

        def refuse(*args, **kwargs):
            raise ValueError("loadtxt refused")
        monkeypatch.setattr(np, "loadtxt", refuse)
        assert read() == fast

    @pytest.mark.parametrize("body, message", [
        ("0.40,-20.0,-21.0\n0.41,-21.0\n", "line 3: no 13.1 cell"),
        ("0.40,-20.0,-21.0\n0.41,-21.0,-22.0,-23.0\n",
         "line 3: a cell past the last column 13.1"),
        ("0.40,-20.0,-21.0,\n0.41,-21.0,-22.0\n", "line 2: a cell past the last column 13.1"),
        ("0.40,-20.0,-21.0\n0.41,-21.0,oops\n", "line 3: 13.1 'oops' is not a number"),
        ("0.40,-20.0,-21.0\n0.41,,-22.0\n", "line 3: 13.0 '' is not a number"),
        ("0.40,-20.0,-21.0\n#0.41,-21.0,-22.0\n", "line 3: field_t '#0.41' is not a number"),
        ("0.40,-20.0,-21.0\r\n0.41,-21.0, oops \r\n", "line 3: 13.1 'oops' is not a number"),
        ("\n0.40,-20.0,-21.0\n\n  \n0.41,-21.0,1e\n", "line 6: 13.1 '1e' is not a number"),
        ("", "has no data rows"),
        ("\n \n", "has no data rows"),
        # loadtxt strips U+001F around a number, float() does not
        ("0.40,-20.0,3\x1f\n", "line 2: 13.1 '3' is not a number"),
    ], ids=["short_row", "long_row", "trailing_comma", "oops", "blank_cell", "hash_cell",
            "crlf", "blank_lines", "header_only", "blank_body", "unit_separator"])
    def test_malformed_map_message(self, tmp_path, body, message):
        path = tmp_path / "map.csv"
        path.write_text("field_t,13.0,13.1\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as info:
                SpectralMap.from_csv(path)
        want = (f"map file {path} {message}" if message == "has no data rows"
                else f"{path}, {message}")
        assert str(info.value) == want

    @pytest.mark.parametrize("text", ["", "\n", "\n \n\t\n"], ids=["empty", "newline", "blank"])
    def test_map_file_without_header_has_no_data_rows(self, tmp_path, text):
        # the header of such a file is one empty line, which loadtxt skips
        path = tmp_path / "map.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as info:
                SpectralMap.from_csv(path)
        assert str(info.value) == f"map file {path} has no data rows"

    @pytest.mark.parametrize("body, message", [
        ("0.40,13.0,20\n0.41,13.1\n", "line 3: no prominence_db cell"),
        ("0.40,13.0,20,\n", "line 2: a cell past the last column prominence_db"),
        ("0.40,13.0,20\n0.41,13.1,oops\n", "line 3: prominence_db 'oops' is not a number"),
        ("0.40,,20\n", "line 2: freq_ghz '' is not a number"),
        ("#0.40,13.0,20\n", "line 2: field_t '#0.40' is not a number"),
        ("0.40,13.0,20\r\n\r\n0.41,13.1,x\r\n", "line 4: prominence_db 'x' is not a number"),
    ], ids=["short_row", "trailing_comma", "oops", "blank_cell", "hash_cell", "crlf"])
    def test_malformed_ridge_message(self, tmp_path, body, message):
        path = tmp_path / "ridges.csv"
        path.write_text("field_t,freq_ghz,prominence_db\n" + body, newline="")
        with pytest.raises(DataError) as info:
            load_ridge_csv(path)
        assert str(info.value) == f"{path}, {message}"

    def test_well_formed_files_skip_the_per_line_parser(self, tmp_path, monkeypatch):
        # the per-line parser only names bad lines; a well-formed map or
        # ridge file never reaches it
        smap = synth_map(build_n4(13.65, 0.155, 1.84, 12.0, photon_linewidth_ghz=(0.014, 0.022),
                                  magnon_linewidth_ghz=0.001),
                         MagnonMode(28.0, 0.0, 0.001), np.linspace(0.42, 0.5, 9),
                         np.linspace(11.0, 16.0, 300))
        smap.to_csv(tmp_path / "map.csv")
        points = extract_ridges(smap, 6.0, 3)
        points.to_csv(tmp_path / "ridges.csv")

        def refuse(*args, **kwargs):
            raise AssertionError("parse_row ran on a well-formed file")
        for module in (io_utils, spectra):
            monkeypatch.setattr(module, "parse_row", refuse, raising=False)
        back = SpectralMap.from_csv(tmp_path / "map.csv")
        np.testing.assert_allclose(back.magnitude_db, smap.magnitude_db, rtol=1e-8)
        assert len(load_ridge_csv(tmp_path / "ridges.csv")) == len(points) > 0
