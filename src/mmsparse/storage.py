"""On-disk formats: binary matrix files and key-value config and
metadata records.

Matrix file layout (little-endian):

    bytes 0-3    magic "SCMX"
    bytes 4-7    format version, u32 (currently 1)
    bytes 8-15   row count, u64
    bytes 16-23  column count, u64
    bytes 24-27  element type code, u32 (1 = IEEE-754 float32)
    bytes 28-    row-major float32 payload

Config and metadata records are UTF-8 "key=value" lines with '#'
comments; values are plain strings, parsed by the consumer.
"""

import hashlib
import struct
from pathlib import Path
from typing import Dict

import numpy as np

from .errors import FormatError, InputError, _as_finite

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ELEMENT_F32",
    "save_matrix",
    "load_matrix",
    "save_record",
    "load_record",
    "file_digest",
]

MAGIC = b"SCMX"
FORMAT_VERSION = 1
ELEMENT_F32 = 1
_HEADER = struct.Struct("<4sIQQI")


def save_matrix(path, matrix) -> None:
    """Write a 2-D array as a float32 matrix file (values must be finite
    and representable; float64 inputs are cast)."""
    arr = _as_finite(matrix, 2, name="matrix")
    if np.any(np.abs(arr) > np.finfo(np.float32).max):
        raise InputError("matrix values overflow float32 storage")
    payload = np.ascontiguousarray(arr, dtype=np.float32)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1], ELEMENT_F32)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    """Read a matrix file back as float64 (exact for float32 payloads)."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read matrix file {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, rows, cols, elem = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if elem != ELEMENT_F32:
        raise FormatError(f"{path}: unknown element type code {elem}")
    expected = rows * cols * 4
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(rows, cols)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return data.astype(np.float64)


def save_record(path, entries: Dict[str, object]) -> None:
    """Write a key-value record, keys sorted for byte determinism; floats
    as repr, other values as str. An entry that load_record would not read
    back unchanged is an InputError, and nothing is written."""
    if not all(isinstance(key, str) for key in entries):  # or sorted() may fail
        raise InputError(f"record keys must be strings, got {list(entries)!r}")
    lines = []
    for key in sorted(entries):
        value = entries[key]
        text = repr(value) if isinstance(value, float) else str(value)
        line = f"{key}={text}"
        if ("=" in key or key.startswith("#")
                or key != key.strip() or text != text.strip()
                or line.splitlines() != [line]):
            raise InputError(f"record entry {key!r}: {text!r} would not read back unchanged")
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_record(path) -> Dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read record {path}: {exc}") from exc
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def file_digest(path) -> str:
    """Hex sha256 of a file's bytes; FormatError if it cannot be read."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read file {path}: {exc}") from exc
    return hashlib.sha256(blob).hexdigest()
