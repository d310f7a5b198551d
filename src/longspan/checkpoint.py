"""Flat named-tensor container with a shape header.

Binary layout (all integers little-endian):

    magic   4 bytes  b"LSNT"
    version u32      currently 1
    meta    u32 length + UTF-8 JSON blob (model kind, config, vocab, ...)
    count   u32      number of tensors
    entry*  u16 name length + UTF-8 name
            u8 ndim + ndim x u64 dims
            float64 values, row-major, little-endian

The format is self-describing enough for cross-checking shapes on load;
any malformed container, any metadata or tensor set that does not
describe a model, and any NaN or infinite value in a restored model
raise :class:`~longspan.errors.FormatError`.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Callable, Mapping, TypeVar

import numpy as np

from .autodiff import Tensor, parameter
from .errors import FormatError, LongspanError

MAGIC = b"LSNT"
VERSION = 1


def save_tensors(path, tensors: Mapping[str, "np.ndarray | Tensor"], meta: dict | None = None) -> None:
    meta_blob = json.dumps(meta or {}, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<I", VERSION))
        out.write(struct.pack("<I", len(meta_blob)))
        out.write(meta_blob)
        out.write(struct.pack("<I", len(tensors)))
        for name, value in tensors.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            arr = np.asarray(arr, dtype=np.float64)  # 0-d stays 0-d
            name_bytes = name.encode("utf-8")
            if len(name_bytes) > 0xFFFF:
                raise FormatError(f"tensor name too long: {name[:40]}...")
            out.write(struct.pack("<H", len(name_bytes)))
            out.write(name_bytes)
            out.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                out.write(struct.pack("<Q", dim))
            out.write(arr.astype("<f8").tobytes())


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    if not path.exists():
        raise FormatError(f"checkpoint not found: {path}")
    with open(path, "rb") as handle:
        end = os.fstat(handle.fileno()).st_size

        def read(size: int, what: str) -> bytes:
            # a corrupt length must fail here, not become a huge read
            if size > end - handle.tell():
                raise FormatError(f"truncated container while reading {what}")
            return handle.read(size)

        if read(4, "magic") != MAGIC:
            raise FormatError(f"{path} is not a named-tensor container (bad magic)")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        (meta_len,) = struct.unpack("<I", read(4, "meta length"))
        try:
            meta = json.loads(read(meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt metadata block") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: metadata is not a JSON object")
        (count,) = struct.unpack("<I", read(4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2, "name length"))
            try:
                name = read(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: tensor name is not UTF-8") from exc
            (ndim,) = struct.unpack("<B", read(1, "ndim"))
            shape = tuple(
                struct.unpack("<Q", read(8, "dimension"))[0]
                for _ in range(ndim)
            )
            blob = read(8 * math.prod(shape), f"data of {name}")
            try:
                tensors[name] = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(shape)
            except ValueError as exc:  # an empty tensor with a dimension numpy cannot hold
                raise FormatError(f"{path}: tensor {name} has shape {shape}") from exc
        if handle.tell() != end:
            raise FormatError(f"{path}: trailing bytes after last tensor")
    return tensors, meta


T = TypeVar("T")


def restore(loaded: tuple[dict[str, np.ndarray], dict], kind: str,
            build: Callable[[dict], T]) -> T:
    """The model of ``kind`` held by a :func:`load_tensors` result.

    ``build(meta)`` returns a freshly initialised model of the stored
    configuration; its ``params`` fix the expected tensor names and shapes
    and are replaced by the stored values.  Metadata that ``build`` cannot
    turn into a model raises :class:`FormatError`, as does any other kind,
    any other tensor layout, and any NaN or infinite value.
    """
    tensors, meta = loaded
    if meta.get("kind") != kind:
        raise FormatError(f"checkpoint kind {meta.get('kind')!r} is not {kind!r}")
    try:
        model = build(meta)
    except (KeyError, TypeError, ValueError, OverflowError, LongspanError) as exc:
        raise FormatError(f"checkpoint metadata does not describe a {kind} model: "
                          f"{type(exc).__name__}: {exc}") from exc
    if set(model.params) != set(tensors):
        raise FormatError("checkpoint tensors do not match the model layout")
    for name, arr in tensors.items():
        if model.params[name].shape != arr.shape:
            raise FormatError(
                f"checkpoint tensor {name} has shape {arr.shape}, "
                f"expected {model.params[name].shape}"
            )
        if not np.isfinite(arr).all():
            raise FormatError(f"checkpoint tensor {name} holds a non-finite value")
    model.params = {name: parameter(arr) for name, arr in tensors.items()}
    return model
