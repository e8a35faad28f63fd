"""On-disk formats: binary matrix files, dataset manifests, key-value
config and metadata records.

Matrix file layout (little-endian):

    bytes 0-3    magic "SCMX"
    bytes 4-7    format version, u32 (currently 1)
    bytes 8-15   row count, u64
    bytes 16-23  column count, u64
    bytes 24-27  element type code, u32 (1 = IEEE-754 float32)
    bytes 28-    row-major float32 payload

Manifests are UTF-8 text, one tab-separated record per line:
clip_id, event_label, audio_path, video_path, keyframe_count. Lines
starting with '#' and blank lines are ignored. Paths are stored relative
to the manifest's directory.

Config and metadata records are UTF-8 "key=value" lines with '#'
comments; values are plain strings, parsed by the consumer.
"""

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from .errors import FormatError, InputError, _as_finite

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ELEMENT_F32",
    "ManifestRecord",
    "DatasetManifest",
    "save_matrix",
    "load_matrix",
    "save_manifest",
    "load_manifest",
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


@dataclass(frozen=True)
class ManifestRecord:
    clip_id: str
    event_label: str
    audio_path: str
    video_path: str
    keyframe_count: int


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered clip records plus the directory paths resolve against."""

    records: Tuple[ManifestRecord, ...]
    base_dir: Path

    def __len__(self) -> int:
        return len(self.records)

    def clip_ids(self) -> List[str]:
        return [r.clip_id for r in self.records]

    def resolve_audio(self, record: ManifestRecord) -> Path:
        return self.base_dir / record.audio_path

    def resolve_video(self, record: ManifestRecord) -> Path:
        return self.base_dir / record.video_path


def save_manifest(path, records) -> None:
    path = Path(path)
    lines = ["# clip_id\tevent_label\taudio_path\tvideo_path\tkeyframe_count"]
    for r in records:
        lines.append(
            f"{r.clip_id}\t{r.event_label}\t{r.audio_path}\t{r.video_path}\t{r.keyframe_count}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path, check_paths: bool = True) -> DatasetManifest:
    """Parse a manifest; duplicate clip ids and malformed lines are
    format errors naming the offender."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read manifest {path}: {exc}") from exc

    records: List[ManifestRecord] = []
    seen: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(
                f"{path}: line {lineno}: expected 5 tab-separated fields, got {len(fields)}"
            )
        clip_id, label, audio, video, kf = (f.strip() for f in fields)
        if not clip_id:
            raise FormatError(f"{path}: line {lineno}: empty clip id")
        if clip_id in seen:
            raise FormatError(
                f"{path}: line {lineno}: duplicate clip id {clip_id!r} "
                f"(first seen on line {seen[clip_id]})"
            )
        seen[clip_id] = lineno
        try:
            kf_count = int(kf)
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: keyframe count {kf!r} is not an integer"
            ) from None
        if kf_count < 0:
            raise FormatError(f"{path}: line {lineno}: negative keyframe count")
        records.append(ManifestRecord(clip_id, label, audio, video, kf_count))

    manifest = DatasetManifest(records=tuple(records), base_dir=path.parent)
    if check_paths:
        for r in manifest.records:
            for p in (manifest.resolve_audio(r), manifest.resolve_video(r)):
                if not p.exists():
                    raise FormatError(
                        f"{path}: clip {r.clip_id!r} references missing file {p}"
                    )
    return manifest


def save_record(path, entries: Dict[str, object]) -> None:
    """Write a key-value record, keys sorted for byte determinism."""
    lines = []
    for key in sorted(entries):
        value = entries[key]
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key}={value}")
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
    """Hex sha256 of a file's bytes."""
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
