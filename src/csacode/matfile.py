"""Flat binary container for batches of matrices over GF(q).

Layout, all little-endian unsigned 64-bit: magic, q, rows, cols, count,
followed by count * rows * cols residues in row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

from .ffield import PrimeField

MAGIC = int.from_bytes(b"GFMATRX1", "little")
_HEADER = struct.Struct("<5Q")


def write_matrices(path, q: int, matrices) -> None:
    """Writes integer matrices as their residues mod q; a non-integer entry
    raises ParameterError (``PrimeField.residues``)."""
    field = PrimeField(q)
    mats = [field.residues(m) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    rows, cols = mats[0].shape
    if any(m.shape != (rows, cols) for m in mats):
        raise ValueError("all matrices must share one shape")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, q, rows, cols, len(mats)))
        for m in mats:
            fh.write(m.astype("<u8").tobytes(order="C"))


def read_matrices(path):
    """Returns (q, [matrices]) with int64 entries; every stored residue must
    already lie in [0, q)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated matrix file header")
        magic, q, rows, cols, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError("bad magic in matrix file")
        body = fh.read()
    want = count * rows * cols * 8
    if len(body) != want:
        raise ValueError(f"matrix file body has {len(body)} bytes, expected {want}")
    flat = np.frombuffer(body, dtype="<u8")
    if flat.size and int(flat.max()) >= q:
        raise ValueError(f"matrix file holds a residue outside [0, {q})")
    flat = flat.astype(np.int64)
    return q, [flat[i * rows * cols : (i + 1) * rows * cols].reshape(rows, cols)
               for i in range(count)]
