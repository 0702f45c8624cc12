"""The framed layout of ``.mvds`` datasets and ``.mvlc`` checkpoints: a
little-endian header (4-byte magic, ``u32`` version, the format's own ``u64``
fields, the ``u64`` manifest length), a compact sorted-key JSON manifest,
then raw array blocks that must tile the payload exactly. ``replacing`` is
how the package writes every file: a kill mid-write leaves the old one."""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, check_structure

VERSION = 1


def _header(fields: int) -> struct.Struct:
    return struct.Struct("<4sI" + "Q" * (fields + 1))


@contextmanager
def replacing(path, binary: bool = False):
    """A handle on a sibling temporary file that replaces ``path`` when the
    block ends; on an error it is removed and ``path`` keeps its bytes. The
    handle is binary, or text that writes line ends as given."""
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    try:
        with (open(temporary, "wb") if binary
              else open(temporary, "w", newline="")) as handle:
            yield handle
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def write(path, magic: bytes, fields: tuple, manifest: dict, arrays) -> None:
    """Write the header, the manifest, then each array's C-order bytes."""
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(_header(len(fields)).pack(magic, VERSION, *fields, len(body)))
        fh.write(body)
        for arr in arrays:
            fh.write(arr.tobytes())


def read(path, magic: bytes, fields: int, spec, what: str):
    """Return ``(fields, manifest, payload)`` of the file at ``path``, or
    raise FormatError naming ``what`` if its framing or manifest is bad."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {what}: {exc}") from exc
    header = _header(fields)
    if len(raw) < header.size:
        raise FormatError(f"truncated {what} header")
    found, version, *values, manifest_len = header.unpack_from(raw)
    if found != magic:
        raise FormatError(f"bad magic {found!r}, expected {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported {what} version {version}")
    start = header.size + manifest_len
    if len(raw) < start:
        raise FormatError(f"truncated {what} manifest")
    try:
        manifest = json.loads(raw[header.size:start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"unreadable {what} manifest: {exc}") from exc
    check_structure(manifest, spec, f"{what} manifest")
    return tuple(values), manifest, memoryview(raw)[start:]


def blocks(payload, table) -> dict:
    """``{name: owned array}`` from ``(name, dtype, shape, offset)`` rows
    whose blocks tile ``payload`` with no gap, overlap or trailing byte."""
    spans = [(offset, math.prod(shape) * np.dtype(dtype).itemsize, name)
             for name, dtype, shape, offset in table]
    position = 0
    for offset, nbytes, name in sorted(spans, key=lambda span: span[:2]):
        if offset != position:
            raise FormatError(f"block {name!r} starts at byte {offset}, not "
                              f"{position}: blocks must tile the payload")
        position += nbytes
    if position != len(payload):
        raise FormatError(f"blocks cover {position} bytes of a "
                          f"{len(payload)}-byte payload")
    out = {}
    for name, dtype, shape, offset in table:
        try:
            out[name] = np.frombuffer(
                payload, dtype, math.prod(shape), offset).reshape(shape).copy()
        except ValueError as exc:
            raise FormatError(f"block {name!r} has unusable shape {shape}: {exc}") from exc
    return out
