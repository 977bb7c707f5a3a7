"""
Raw field snapshots in a small self-describing binary format.

Layout (all little-endian): magic bytes ``NLCH``, version byte 1, uint32
dim, uint32 n per axis, float64 length per axis, float64 time stamp, then
the node values as float64 in row-major order.  Bit-exact and trivially
parseable from any language.  ``read_field`` accepts exactly the byte
length the header declares: a short file is reported as truncated and
extra bytes as trailing.  It rejects a non-finite node value, which
``write_field`` never writes, naming the first such node.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Grid, check_field

MAGIC = b"NLCH"
VERSION = 1


def write_field(path, grid: Grid, values: np.ndarray, t: float) -> None:
    values = check_field(grid, values)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<I", grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *([grid.n] * grid.dim)))
        fh.write(struct.pack(f"<{grid.dim}d", *([grid.length] * grid.dim)))
        fh.write(struct.pack("<d", float(t)))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_field(path) -> tuple[Grid, np.ndarray, float]:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC[:len(raw)]:
        raise ValueError(f"{path}: not an NLCH field dump (bad magic)")
    if len(raw) < 9:
        raise ValueError(f"{path}: truncated dump: {len(raw)} bytes, shorter than "
                         "the 9-byte preamble")
    version = raw[4]
    if version != VERSION:
        raise ValueError(f"{path}: unsupported dump version {version}")
    (dim,) = struct.unpack_from("<I", raw, 5)
    if dim not in (1, 2):
        raise ValueError(f"{path}: unsupported dump dimension {dim}")
    header = 9 + 12 * dim + 8
    if len(raw) < header:
        raise ValueError(f"{path}: truncated dump: {len(raw)} bytes, the header of a "
                         f"{dim}D dump has {header}")
    ns = struct.unpack_from(f"<{dim}I", raw, 9)
    lengths = struct.unpack_from(f"<{dim}d", raw, 9 + 4 * dim)
    (t,) = struct.unpack_from("<d", raw, header - 8)
    if len(set(ns)) != 1 or len(set(lengths)) != 1:
        raise ValueError(f"{path}: anisotropic dumps are not supported")
    try:
        grid = Grid(dim, ns[0], lengths[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    size = header + 8 * grid.num_nodes
    if len(raw) < size:
        raise ValueError(f"{path}: truncated dump: {len(raw)} bytes, expected {size}")
    if len(raw) > size:
        raise ValueError(f"{path}: {len(raw) - size} trailing bytes after the "
                         f"{size}-byte dump")
    values = np.frombuffer(raw, dtype="<f8", count=grid.num_nodes, offset=header).astype(float)
    if (bad := np.flatnonzero(~np.isfinite(values))).size:
        raise ValueError(f"{path}: node {bad[0]} holds the non-finite value {values[bad[0]]}")
    return grid, values, t
