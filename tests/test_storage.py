"""Matrix file format and key-value records."""

import numpy as np
import pytest

from mmsparse.errors import FormatError, InputError
from mmsparse.storage import (
    file_digest,
    load_matrix,
    load_record,
    save_matrix,
    save_record,
)


class TestMatrixFile:
    def test_empty_matrix_round_trips(self, tmp_path):
        p = tmp_path / "empty.scmx"
        save_matrix(p, np.zeros((0, 0)))
        loaded = load_matrix(p)
        assert loaded.shape == (0, 0)

    def test_known_values_round_trip_bitwise(self, tmp_path):
        p = tmp_path / "m.scmx"
        m = np.array([[1.0, -2.5, 0.125], [3.0, 4.0, -0.75]])
        save_matrix(p, m)
        first = p.read_bytes()
        loaded = load_matrix(p)
        np.testing.assert_array_equal(loaded, m)
        save_matrix(p, loaded)
        assert p.read_bytes() == first

    def test_corrupted_magic(self, tmp_path):
        p = tmp_path / "bad.scmx"
        save_matrix(p, np.ones((2, 2)))
        blob = bytearray(p.read_bytes())
        blob[0:4] = b"XXXX"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.scmx"
        save_matrix(p, np.ones((4, 4)))
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="payload"):
            load_matrix(p)

    def test_nonfinite_rejected_on_save(self, tmp_path):
        m = np.ones((2, 2))
        m[0, 0] = np.nan
        with pytest.raises(InputError):
            save_matrix(tmp_path / "nan.scmx", m)

    def test_nonfinite_rejected_on_load(self, tmp_path):
        p = tmp_path / "inf.scmx"
        save_matrix(p, np.ones((1, 2)))
        blob = bytearray(p.read_bytes())
        blob[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_matrix(p)

    @pytest.mark.filterwarnings("error")
    def test_float32_overflow_rejected(self, tmp_path):
        with pytest.raises(InputError, match="overflow"):
            save_matrix(tmp_path / "big.scmx", np.array([[1e300]]))


class TestRecords:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "r.meta"
        save_record(p, {"seed": 7, "lam": 0.25, "stage": "encode"})
        got = load_record(p)
        assert got == {"seed": "7", "lam": "0.25", "stage": "encode"}

    def test_sorted_and_deterministic(self, tmp_path):
        p1 = tmp_path / "a.meta"
        p2 = tmp_path / "b.meta"
        save_record(p1, {"b": 1, "a": 2})
        save_record(p2, {"a": 2, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "entries",
        [
            {"a=b": "c"},
            {"k": "two\nlines"},
            {"k": "carriage\rreturn"},
            {"k": " padded "},
            {" k": "v"},
            {"#k": "v"},
            {1: "v"},
            {1: "a", "b": 2},
            {None: 1, "a": 2},
        ],
    )
    def test_entry_that_would_not_read_back_rejected(self, tmp_path, entries):
        p = tmp_path / "r.meta"
        with pytest.raises(InputError):
            save_record(p, entries)
        assert not p.exists()

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.meta"
        p.write_text("not a record\n")
        with pytest.raises(FormatError, match="line 1"):
            load_record(p)


class TestDigest:
    def test_digest_changes_with_content(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"abc")
        d1 = file_digest(p)
        p.write_bytes(b"abd")
        assert file_digest(p) != d1
        assert len(d1) == 64

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            file_digest(tmp_path / "missing")
