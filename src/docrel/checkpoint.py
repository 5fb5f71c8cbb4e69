"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic "DRELCKP1"
    sha256 of the config text (32 bytes)
    u32 config length, config text (utf-8)
    u32 meta length, meta JSON (utf-8)
    u32 record count, then per record:
        u16 name length, name (utf-8)
        u8 dtype code (0 = float64, 1 = float32)
        u8 ndim, ndim x u32 dims
        raw little-endian IEEE-754 values

Round-trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"DRELCKP1"

_DTYPE_CODES = {0: "<f8", 1: "<f4"}
_DTYPE_OF = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


def config_digest(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    arrays: dict[str, np.ndarray]
    config_text: str
    meta: dict

    @property
    def digest(self) -> str:
        return config_digest(self.config_text)


def save_checkpoint(path, arrays: dict[str, np.ndarray], config_text: str, meta: dict | None = None) -> None:
    """Write the checkpoint atomically: records stream into a temporary file next
    to `path`, which replaces `path` only once complete. On failure the temporary
    file is removed and an existing file at `path` is left as it was."""
    path = Path(path)
    meta_blob = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    config_blob = config_text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(hashlib.sha256(config_blob).digest())
            fh.write(struct.pack("<I", len(config_blob)) + config_blob)
            fh.write(struct.pack("<I", len(meta_blob)) + meta_blob)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                arr = np.asarray(arr)
                if arr.dtype not in _DTYPE_OF:
                    raise CheckpointError(f"unsupported dtype {arr.dtype} for parameter {name!r}")
                name_blob = name.encode("utf-8")
                fh.write(struct.pack("<H", len(name_blob)) + name_blob)
                fh.write(struct.pack("<BB", _DTYPE_OF[arr.dtype], arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                values = np.ascontiguousarray(arr, dtype=f"<f{arr.dtype.itemsize}")
                fh.write(memoryview(values.reshape(-1)).cast("B"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    try:
        return _parse_checkpoint(blob, path)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint ({e})") from e


def _parse_checkpoint(blob: bytes, path) -> Checkpoint:
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(len(MAGIC))) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    stored_digest = bytes(take(32))
    (config_len,) = struct.unpack("<I", take(4))
    config_text = bytes(take(config_len)).decode("utf-8")
    if hashlib.sha256(config_text.encode("utf-8")).digest() != stored_digest:
        raise CheckpointError(f"{path}: config digest mismatch (corrupted file)")
    (meta_len,) = struct.unpack("<I", take(4))
    meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: checkpoint metadata is not a JSON object")
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        code, ndim = struct.unpack("<BB", take(2))
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: unknown dtype code {code}")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        dtype = np.dtype(_DTYPE_CODES[code])
        # Python ints: a corrupt dims field must fail the length check, not overflow
        values = np.frombuffer(take(math.prod(shape) * dtype.itemsize), dtype=dtype)
        try:
            arrays[name] = values.reshape(shape).copy()
        except ValueError as e:  # an empty record whose other dims overflow
            raise CheckpointError(f"{path}: impossible shape {shape} of {name!r}") from e
    if pos != len(view):
        raise CheckpointError(f"{path}: trailing bytes after records")
    return Checkpoint(arrays=arrays, config_text=config_text, meta=meta)
