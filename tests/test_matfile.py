import numpy as np
import pytest

from csacode.ffield import PrimeField
from csacode.matfile import read_matrices, write_matrices


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
    path = tmp_path / "wide.mat"
    for residue in (7, 2**63, 2**64 - 1):  # q itself, and values past int64
        write_matrices(path, 7, [np.array([[1, residue]], dtype=np.uint64)])
        with pytest.raises(ValueError):
            read_matrices(path)
