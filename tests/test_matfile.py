import struct

import numpy as np
import pytest

from csacode.errors import ParameterError
from csacode.ffield import PrimeField
from csacode.matfile import MAGIC, read_matrices, write_matrices


def test_round_trip(tmp_path):
    field = PrimeField(65537)
    rng = np.random.default_rng(0)
    mats = [field.rand_matrix(rng, 3, 4) for _ in range(5)]
    path = tmp_path / "batch.mat"
    write_matrices(path, field.q, mats)
    q, back = read_matrices(path)
    assert q == field.q
    assert len(back) == 5
    assert all(np.array_equal(a, b) for a, b in zip(mats, back))


def test_exact_byte_layout(tmp_path):
    path = tmp_path / "one.mat"
    write_matrices(path, 7, [np.array([[1, 2], [3, 4]], dtype=np.int64)])
    raw = path.read_bytes()
    assert raw[:8] == b"GFMATRX1"
    header = np.frombuffer(raw[8:40], dtype="<u8")
    assert header.tolist() == [7, 2, 2, 1]
    assert np.frombuffer(raw[40:], dtype="<u8").tolist() == [1, 2, 3, 4]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"\x00" * 48)
    with pytest.raises(ValueError):
        read_matrices(path)


def test_truncated_body_rejected(tmp_path):
    path = tmp_path / "short.mat"
    write_matrices(path, 7, [np.array([[1, 2], [3, 4]], dtype=np.int64)])
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_matrices(path)


def test_mismatched_shapes_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_matrices(tmp_path / "x.mat", 7,
                       [np.zeros((2, 2), dtype=np.int64),
                        np.zeros((2, 3), dtype=np.int64)])


def test_residue_at_or_above_q_rejected(tmp_path):
    # the writer reduces, so a file holding such a value is written by hand
    path = tmp_path / "wide.mat"
    for residue in (7, 2**63, 2**64 - 1):  # q itself, and values past int64
        path.write_bytes(struct.pack("<7Q", MAGIC, 7, 1, 2, 1, 1, residue))
        with pytest.raises(ValueError, match="outside"):
            read_matrices(path)


@pytest.mark.parametrize("entries, dtype, want", [
    ([[-1, 2]], np.int64, [[65536, 2]]),
    ([[70000, 2]], np.int64, [[4463, 2]]),
    ([[2**64 - 1, 2**63]], np.uint64, [[0, 2**63 % 65537]]),
], ids=["negative", "above-q", "uint64"])
def test_writer_stores_residues(tmp_path, entries, dtype, want):
    # once written unreduced (-1 as 2^64 - 1), and then refused by the reader
    path = tmp_path / "reduced.mat"
    write_matrices(path, 65537, [np.array(entries, dtype=dtype)])
    assert [m.tolist() for m in read_matrices(path)[1]] == [want]


def test_writer_refuses_non_integers(tmp_path):
    # 1.5 was once written as 1
    with pytest.raises(ParameterError, match="integers"):
        write_matrices(tmp_path / "float.mat", 65537, [[[1.5, 2.0]]])
