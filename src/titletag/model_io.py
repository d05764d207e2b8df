"""Versioned binary container for trained models.

Layout: the 8-byte magic "IPODMDL1", a little-endian uint64 header length,
a UTF-8 JSON header describing the model kind, metadata and array manifest,
then each array's float32 little-endian payload in manifest order.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"IPODMDL1"
FORMAT_VERSION = 1


def save_model(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a model container; array order follows the dict's insertion order."""
    manifest = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        manifest.append({"name": name, "shape": list(arr.shape)})
        payloads.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "arrays": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for payload in payloads:
            fh.write(payload)


def load_model(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a model container back as (kind, meta, arrays).

    The arrays are the payload's float32 values, writable views of one
    buffer that holds the file, so loading makes no wider copy; a model
    widens only the arrays it keeps in float64 (fill_arrays). Every array
    must hold finite values only: a NaN or infinite weight would otherwise
    load and decode silently into meaningless labels or vectors.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if len(data) < len(MAGIC) + 8:
        raise FormatError("file too short to be a model container", path=str(path))
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic: expected {MAGIC!r}", path=str(path))
    (header_len,) = struct.unpack("<Q", data[len(MAGIC) : len(MAGIC) + 8])
    header_start = len(MAGIC) + 8
    if header_start + header_len > len(data):
        raise FormatError("declared header length exceeds the file size", path=str(path))
    try:
        header = json.loads(data[header_start : header_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"unreadable header: {exc}", path=str(path)) from None
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object", path=str(path))
    for key in ("format_version", "kind", "meta", "arrays"):
        if key not in header:
            raise FormatError(f"header is missing {key!r}", path=str(path))
    if header["format_version"] != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {header['format_version']!r}", path=str(path))
    if not isinstance(header["kind"], str):
        raise FormatError(f"model kind {header['kind']!r} is not a string", path=str(path))
    if not isinstance(header["meta"], dict) or not isinstance(header["arrays"], list):
        raise FormatError("header 'meta' must be an object and 'arrays' a list", path=str(path))

    arrays: dict[str, np.ndarray] = {}
    offset = header_start + header_len
    for item in header["arrays"]:
        entry = item if isinstance(item, dict) else {}
        name, shape = entry.get("name"), entry.get("shape")
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(dim) is int and dim >= 0 for dim in shape)):
            raise FormatError(f"bad manifest entry {item!r}: expected a name and a list of "
                              "non-negative dimensions", path=str(path))
        shape = tuple(shape)
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * 4
        if offset + nbytes > len(data):
            raise FormatError(f"array {name!r} is truncated", path=str(path))
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(flat).all():
            raise FormatError(f"array {name!r} holds NaN or infinite values", path=str(path))
        arrays[name] = flat.reshape(shape)
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes after the last array", path=str(path))
    return header["kind"], header["meta"], arrays


def check_meta(path: str | Path, meta: dict, fields: dict[str, type]) -> None:
    """Raise FormatError unless meta holds every field with its JSON type;
    list fields (labels, features, vocabularies) must hold strings."""
    for key, kind in fields.items():
        value = meta.get(key)
        if type(value) is not kind or (kind is list and not all(type(v) is str for v in value)):
            what = "list of strings" if kind is list else kind.__name__
            raise FormatError(f"model metadata {key!r} is missing or not a {what}", path=str(path))


def checked(path: str | Path, build, *args, **kwargs):
    """build(*args, **kwargs), a constructor or a check of its arguments,
    run on a model file's metadata. The ValueError of a size or vocabulary
    it rejects, or the OverflowError of a size too large for a float,
    becomes a FormatError naming path."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"bad metadata: {exc}", path=str(path)) from None


class Unfilled:
    """Stands in for the random generator of a model built from a file's
    metadata, whose arrays fill_arrays then overwrites.

    Each uniform() call takes one stored array and as many stored values
    as it allocates; a call past either count is a FormatError naming the
    file, raised before it allocates. A model draws every metadata-sized
    array before anything sized from it, so loading builds no more arrays
    than the file stores and allocates at most a small multiple of its
    values. The arrays are float32 zeros: the dtype of the recurrent
    models' drawn arrays (lstm.uniform32), and not np.empty's leftover
    bytes, which may hold a signalling NaN that warns when widened.
    """

    def __init__(self, path: str | Path, stored: dict[str, np.ndarray]):
        self.path = str(path)
        self.arrays = len(stored)
        self.values = sum(arr.size for arr in stored.values())
        self.drawn_arrays = self.drawn_values = 0

    def uniform(self, low: float, high: float, size: tuple) -> np.ndarray:
        self.drawn_arrays += 1
        self.drawn_values += math.prod(size)
        if self.drawn_arrays > self.arrays or self.drawn_values > self.values:
            raise FormatError(f"the metadata implies more than the {self.arrays} arrays of "
                              f"{self.values} values the file stores", path=self.path)
        return np.zeros(size, np.float32)


def fill_arrays(path: str | Path, stored: dict[str, np.ndarray], model: dict) -> None:
    """Copy stored arrays into the same-named arrays of a model built from
    its metadata, each in the dtype of the model's array; FormatError if
    one is missing or its shape disagrees, or if the file stores an array
    the model does not hold."""
    for name, target in model.items():
        found = stored.get(name)
        if found is None or found.shape != target.shape:
            got = "missing" if found is None else f"of shape {list(found.shape)}"
            raise FormatError(
                f"array {name!r} is {got}; the metadata implies shape {list(target.shape)}",
                path=str(path),
            )
    unmatched = set(stored) - set(model)
    if unmatched:
        raise FormatError(f"arrays {sorted(unmatched)} are not implied by the metadata",
                          path=str(path))
    for name, target in model.items():
        target[...] = stored[name]


def file_hash(path: str | Path) -> str:
    """Hex sha256 of a file's bytes; pairs models with their embedding source."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
