"""Lossless binary storage for grid fields.

Layout (all integers little-endian uint32, payload little-endian
float64, C row-major order):

    bytes 0..7   magic b"TWKFLD01"
    uint32       complex dimension n
    uint32       rank of the stored array
    uint32[rank] axis sizes
    float64[...] payload, prod(sizes) values

Metric components are complex; callers store real and imaginary parts
as separate files rather than widening the format.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DomainError, ShapeError

MAGIC = b"TWKFLD01"
_MAX_RANK = 8


def write_field(path: str | Path, n: int, values: np.ndarray) -> None:
    """Write a real float64 array with its complex dimension tag."""
    if np.iscomplexobj(values):
        raise DomainError(f"stored fields must be real, got dtype {np.asarray(values).dtype}")
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim == 0 or values.ndim > _MAX_RANK:
        raise ShapeError(f"field rank must be 1..{_MAX_RANK}, got {values.ndim}")
    if not np.all(np.isfinite(values)):
        raise DomainError("refusing to store non-finite field values")
    header = MAGIC + struct.pack(f"<II{values.ndim}I", int(n), values.ndim,
                                 *values.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.astype("<f8", copy=False).tobytes(order="C"))


def read_field(path: str | Path) -> tuple[int, np.ndarray]:
    """Read a field written by write_field; returns (n, values)."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise DomainError(f"{path}: not a field file (bad magic)")
    offset = len(MAGIC)
    n, rank = struct.unpack_from("<II", raw, offset)
    offset += 8
    if rank == 0 or rank > _MAX_RANK:
        raise DomainError(f"{path}: unsupported rank {rank}")
    if len(raw) < offset + 4 * rank:
        raise DomainError(f"{path}: header ends before its {rank} axis sizes")
    sizes = struct.unpack_from(f"<{rank}I", raw, offset)
    offset += 4 * rank
    # a Python-int product: in int64, (65536,) * 4 would wrap to 0
    count = math.prod(sizes)
    expected = offset + 8 * count
    if len(raw) != expected:
        raise DomainError(
            f"{path}: payload length {len(raw) - offset} does not match "
            f"header sizes {sizes}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return int(n), values.reshape(sizes).astype(np.float64)
