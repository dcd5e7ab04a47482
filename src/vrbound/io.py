"""Artifact serialization: CSV tables, run manifests, and parameter files.

Parameter files use a small self-describing binary layout (all integers
little-endian):

    bytes 0-3   magic b"VRBP"
    bytes 4-7   format version, uint32 (currently 1)
    bytes 8-11  array count, uint32
    then per array:
        name length, uint16; name bytes (utf-8)
        ndim, uint32; dims, uint64 each
        data, float64 little-endian, C order

CSV files always carry a header row; every emitted file gets a sidecar
``<name>.manifest.json`` recording its content hash plus the run's seed and
library versions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

PARAMS_MAGIC = b"VRBP"
PARAMS_VERSION = 1


def save_params(path, params: dict[str, np.ndarray]) -> None:
    path = Path(path)
    blobs = [PARAMS_MAGIC, struct.pack("<II", PARAMS_VERSION, len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        name_bytes = name.encode("utf-8")
        blobs.append(struct.pack("<H", len(name_bytes)))
        blobs.append(name_bytes)
        blobs.append(struct.pack("<I", arr.ndim))
        blobs.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        blobs.append(arr.tobytes())
    path.write_bytes(b"".join(blobs))


def load_params(path) -> dict[str, np.ndarray]:
    """Read a parameter file; ValueError unless it is exactly one complete file."""
    data = Path(path).read_bytes()
    offset = 0

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        if size > len(data) - offset:
            raise ValueError(f"{path}: truncated parameter file (reading {what} at byte {offset})")
        offset += size
        return data[offset - size : offset]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    if data[:4] != PARAMS_MAGIC:
        raise ValueError(f"{path}: not a parameter file (bad magic)")
    offset = 4
    version, count = unpack("<II", "the header")
    if version != PARAMS_VERSION:
        raise ValueError(f"{path}: unsupported parameter file version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<H", "a name length")
        name = take(name_len, "a name").decode("utf-8")
        (ndim,) = unpack("<I", f"the rank of '{name}'")
        shape = unpack(f"<{ndim}Q", f"the shape of '{name}'")
        raw = take(8 * math.prod(shape), f"the data of '{name}'")
        out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after the last array")
    return out


# ----------------------------------------------------------------------
# CSV and manifests


def _format_value(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows: list[dict]) -> None:
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(row[col]) for col in header])


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def library_versions() -> dict[str, str]:
    import scipy

    from . import __version__

    return {
        "vrbound": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def write_sidecar_manifest(csv_path, seed: int, extra: dict | None = None) -> Path:
    csv_path = Path(csv_path)
    manifest = {
        "file": csv_path.name,
        "sha256": sha256_file(csv_path),
        "seed": seed,
        "versions": library_versions(),
    }
    if extra:
        manifest.update(extra)
    out = csv_path.with_name(csv_path.name + ".manifest.json")
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def write_run_manifest(
    out_dir,
    kind: str,
    seed: int,
    resolved_config: dict,
    outputs: list[str],
    dataset_hash: str | None = None,
) -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "kind": kind,
        "seed": seed,
        "versions": library_versions(),
        "dataset_sha256": dataset_hash,
        "outputs": {name: sha256_file(out_dir / name) for name in outputs},
        "config": resolved_config,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
