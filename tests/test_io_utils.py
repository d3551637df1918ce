import os
import stat

import pytest

from magnon_hybrid.errors import DataError
from magnon_hybrid.io_utils import read_csv_lines, write_json, write_text_atomic


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
