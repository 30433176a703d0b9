"""Self-describing binary container for named arrays plus JSON metadata.

Layout (all integers little-endian):

    magic  b"TJDF"
    u32    format version (currently 1)
    u64    metadata length, then that many bytes of UTF-8 JSON
    u32    array count, then per array:
             u16 name length, name bytes (UTF-8)
             u8  dtype tag, u8 ndim, ndim * u64 dims
             raw array payload, C order, little-endian

Round-trips are bit-exact; arrays are written in sorted name order so the
same state always produces the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"TJDF"
VERSION = 1

_DTYPE_TAGS = {tag: np.dtype(code) for tag, code in enumerate(("<f4", "<f8", "<i8", "|u1"))}
_TAG_FOR_KIND = {("f", 4): 0, ("f", 8): 1, ("i", 8): 2, ("u", 1): 3}


class ContainerError(RuntimeError):
    pass


def _tag_for(arr: np.ndarray) -> int:
    tag = _TAG_FOR_KIND.get((arr.dtype.kind, arr.dtype.itemsize))
    if tag is None:
        raise ContainerError(f"unsupported dtype {arr.dtype}")
    return tag


def save_container(path, metadata: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the container atomically: into ``<path>.tmp``, flushed to
    disk, then renamed onto ``path``, and the rename flushed.  A write that fails leaves any
    previous file at ``path`` untouched; the temporary file that a killed
    save leaves is truncated and renamed by the next save of ``path``."""
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.asarray(arrays[name])      # tobytes() writes C order
                tag = _tag_for(arr)
                arr = arr.astype(_DTYPE_TAGS[tag], copy=False)
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<H", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<BB", tag, arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<Q", dim))
                fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # the rename survives a power loss only once its directory is flushed
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def check_layout(path, arrays: dict[str, np.ndarray], prefix: str,
                 shapes: dict[str, tuple], ints: tuple[str, ...] = ()) -> None:
    """Raise ``ContainerError`` unless the arrays whose names start with
    ``prefix`` are exactly those named in ``shapes``, each of its shape,
    and each float32 or float64, or int64 for the names in ``ints``."""
    for name in sorted(shapes.keys() | {k for k in arrays if k.startswith(prefix)}):
        found = arrays[name].shape if name in arrays else None
        if found != shapes.get(name):
            raise ContainerError(
                f"{path}: {name} has shape {found}, the config needs {shapes.get(name)}")
        # the only integer tag is int64, and the float tags are 32 and 64 bit
        if arrays[name].dtype.kind != ("i" if name in ints else "f"):
            raise ContainerError(f"{path}: {name} has dtype {arrays[name].dtype}")


def load_container(path) -> tuple[dict, dict[str, np.ndarray], str]:
    """Read a container; returns (metadata, arrays, short SHA-256 hash of
    the bytes read), so a caller that reports the hash reads the file once.
    Bytes that do not decode as a container raise ``ContainerError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        metadata, arrays = _decode(raw)
    except ValueError as exc:   # not UTF-8 or JSON, or a shape numpy refuses
        raise ContainerError(f"corrupt container: {exc}") from None
    return metadata, arrays, hashlib.sha256(raw).hexdigest()[:12]


def _decode(raw: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    off = 0

    def field(n: int) -> int:
        """Start offset of the next ``n`` bytes, checked against the end."""
        nonlocal off
        if off + n > len(raw):
            raise ContainerError("truncated container")
        off += n
        return off - n

    if raw[field(4):off] != MAGIC:
        raise ContainerError("bad magic; not a container file")
    (version,) = struct.unpack_from("<I", raw, field(4))
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    (meta_len,) = struct.unpack_from("<Q", raw, field(8))
    metadata = json.loads(raw[field(meta_len):off].decode("utf-8"))
    (count,) = struct.unpack_from("<I", raw, field(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, field(2))
        name = raw[field(name_len):off].decode("utf-8")
        tag, ndim = struct.unpack_from("<BB", raw, field(2))
        if tag not in _DTYPE_TAGS:
            raise ContainerError(f"unknown dtype tag {tag}")
        shape = struct.unpack_from(f"<{ndim}Q", raw, field(8 * ndim))
        dtype = _DTYPE_TAGS[tag]
        size = math.prod(shape)          # Python ints: no int64 wrap-around
        start = field(dtype.itemsize * size)
        arrays[name] = np.frombuffer(raw, dtype, size, start).reshape(shape).copy()
    if off != len(raw):
        raise ContainerError("trailing bytes after last array")
    return metadata, arrays
