import itertools

import numpy as np
import pytest

from csacode.errors import DecodingFailureError, ParameterError, SingularMatrixError
from csacode.ffield import PrimeField, poly_eval
from csacode.structmat import (CVSpec, confluent_cv_matrix, cv_matrix,
                               lt_toeplitz, matrix_rank, rs_error_correct,
                               solve_any, solve_batch)

FIELD = PrimeField(65537)
# The shared row reduction is checked at a small, the default and a near-2^31
# modulus, where the rank-1 updates come closest to int64 overflow.
FIELDS = (PrimeField(13), FIELD, PrimeField(2147483629))


def random_spec(rng, field, num_poles, num_samples, order=1):
    pts = rng.choice(field.q, size=num_poles + num_samples, replace=False)
    return CVSpec(tuple(int(x) for x in pts[:num_poles]),
                  tuple(int(x) for x in pts[num_poles:]), order)


def test_cv_single_cauchy_entry():
    field = PrimeField(7)
    m = cv_matrix(field, CVSpec((1,), (2,)))
    assert m.tolist() == [[6]]  # 1/(1-2) = -1 = 6 mod 7


def test_cv_small_invertible():
    for field in FIELDS:
        m = cv_matrix(field, CVSpec((1, 2), (3, 4, 5)))
        assert matrix_rank(field, m) == 3


def test_cv_random_nonsingular_100_seeds():
    for field in FIELDS:
        for seed in range(100):
            rng = np.random.default_rng(seed)
            L = int(rng.integers(1, 5))
            R = int(rng.integers(L, 9))
            spec = random_spec(rng, field, L, R)
            assert matrix_rank(field, cv_matrix(field, spec)) == R


def test_confluent_order_one_matches_cv():
    rng = np.random.default_rng(7)
    spec = random_spec(rng, FIELD, 3, 6)
    assert np.array_equal(confluent_cv_matrix(FIELD, spec), cv_matrix(FIELD, spec))


def test_confluent_entries_match_definition():
    spec = CVSpec((5,), (9, 10, 11), 2)
    m = confluent_cv_matrix(FIELD, spec)
    for i, a in enumerate(spec.samples):
        d = FIELD.sub(5, a)
        assert m[i, 0] == FIELD.inv(FIELD.mul(d, d))
        assert m[i, 1] == FIELD.inv(d)
        assert m[i, 2] == 1


def test_confluent_L2_order4_R12_invertible():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, FIELD, 2, 12, order=4)
    assert matrix_rank(FIELD, confluent_cv_matrix(FIELD, spec)) == 12


def test_confluent_random_nonsingular():
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        L = int(rng.integers(1, 4))
        order = int(rng.integers(1, 4))
        R = int(rng.integers(order * L, 13))
        spec = random_spec(rng, FIELD, L, R, order)
        assert matrix_rank(FIELD, confluent_cv_matrix(FIELD, spec)) == R


def test_coincident_points_rejected():
    with pytest.raises(ParameterError):
        CVSpec((1, 2), (2, 3, 4))


def test_lt_toeplitz_examples():
    assert lt_toeplitz(FIELD, [1]).tolist() == [[1]]
    assert lt_toeplitz(FIELD, [1, 2]).tolist() == [[1, 0], [2, 1]]


def test_lt_toeplitz_invertible_iff_first_nonzero():
    rng = np.random.default_rng(13)
    for field in FIELDS:
        for _ in range(30):
            c = [int(x) for x in rng.integers(0, field.q, size=5)]
            m = lt_toeplitz(field, c)
            assert (matrix_rank(field, m) == 5) == (c[0] != 0)


def test_solve_batch_identity():
    rhs = np.arange(12, dtype=np.int64).reshape(4, 3)
    assert np.array_equal(solve_batch(FIELD, np.eye(4, dtype=np.int64), rhs), rhs)


def test_solve_batch_hand_check():
    field = PrimeField(7)
    m = np.array([[1, 1], [1, 2]], dtype=np.int64)
    rhs = np.array([[3], [5]], dtype=np.int64)
    assert solve_batch(field, m, rhs).reshape(-1).tolist() == [1, 2]


def test_solve_batch_multiply_back():
    rng = np.random.default_rng(17)
    for field in FIELDS:
        for _ in range(25):
            n = int(rng.integers(1, 13))
            m = field.rand_matrix(rng, n, n)
            while matrix_rank(field, m) < n:
                m = field.rand_matrix(rng, n, n)
            rhs = field.rand_matrix(rng, n, 4)
            x = solve_batch(field, m, rhs)
            assert np.array_equal(field.matmul(m, x), rhs)
            # a nonsingular system has one solution, whichever solver finds it
            assert np.array_equal(solve_any(field, m, rhs[:, 0]), x[:, 0])
        # a wide consistent system: free variables are zero, the rest solve it
        m = field.rand_matrix(rng, 3, 5)
        m[2] = (m[0] + m[1]) % field.q
        rhs = field.matmul(m, field.rand_matrix(rng, 5, 1))
        x = solve_any(field, m, rhs)
        assert np.array_equal(field.matmul(m, x.reshape(5, 1)), rhs)
        assert np.count_nonzero(x) <= matrix_rank(field, m)
        rhs[2] = (rhs[2] + 1) % field.q  # breaks row 2 = row 0 + row 1
        assert solve_any(field, m, rhs) is None


def test_solve_batch_singular_reports_pivot():
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.int64)
    for field in FIELDS:
        with pytest.raises(SingularMatrixError) as err:
            solve_batch(field, m, np.zeros((3, 1), dtype=np.int64))
        assert err.value.pivot == 1
        assert matrix_rank(field, m) == 2


def test_rs_no_errors_passthrough():
    xs = [1, 2, 3, 4, 5]
    ys = [poly_eval(FIELD, [3, 1], x) for x in xs]
    out, pos = rs_error_correct(FIELD, xs, ys, degree_bound=2, max_errors=0)
    assert out == ys and pos == []


def test_rs_single_corruption_enumerated():
    # degree-1 polynomial at 5 points, every position and several forged values
    xs = [1, 2, 3, 4, 5]
    clean = [poly_eval(FIELD, [7, 9], x) for x in xs]
    for pos in range(5):
        for forged in (0, 1, clean[pos] + 1, 12345):
            forged %= FIELD.q
            if forged == clean[pos]:
                continue
            ys = list(clean)
            ys[pos] = forged
            out, found = rs_error_correct(FIELD, xs, ys, degree_bound=2, max_errors=1)
            assert out == clean
            assert found == [pos]


def test_rs_exhaustive_small_field():
    # q = 17, R = 7, degree bound 3, B = 2: every corruption of weight <= 2
    field = PrimeField(17)
    xs = list(range(7))
    clean = [poly_eval(field, [5, 2, 11], x) for x in xs]
    out, found = rs_error_correct(field, xs, clean, degree_bound=3, max_errors=2)
    assert out == clean and found == []
    for i, j in itertools.combinations(range(7), 2):
        for vi in range(17):
            for vj in range(17):
                ys = list(clean)
                ys[i], ys[j] = vi, vj
                out, found = rs_error_correct(field, xs, ys, degree_bound=3,
                                              max_errors=2)
                assert out == clean
                want = [k for k in (i, j) if ys[k] != clean[k]]
                assert found == want


def test_rs_random_weight_b_patterns():
    rng = np.random.default_rng(19)
    for seed in range(200):
        q = 65537
        field = FIELD
        b = int(rng.integers(0, 3))
        d = int(rng.integers(1, 5))
        r = d + 2 * b
        if r < 1:
            continue
        xs = [int(x) for x in rng.choice(q, size=r, replace=False)]
        coeffs = [int(c) for c in rng.integers(0, q, size=d)]
        clean = [poly_eval(field, coeffs, x) for x in xs]
        ys = list(clean)
        bad = rng.choice(r, size=b, replace=False)
        for i in bad:
            ys[int(i)] = (ys[int(i)] + 1 + int(rng.integers(0, q - 1))) % q
        out, found = rs_error_correct(field, xs, ys, degree_bound=d, max_errors=b)
        assert out == clean
        assert sorted(found) == sorted(int(i) for i in bad if ys[int(i)] != clean[int(i)])


def test_rs_over_budget_fails():
    field = PrimeField(65537)
    xs = [1, 2, 3, 4, 5, 6, 7]
    clean = [poly_eval(field, [1, 1, 1], x) for x in xs]
    ys = list(clean)
    ys[0] = (ys[0] + 5) % field.q
    ys[3] = (ys[3] + 9) % field.q
    ys[5] = (ys[5] + 2) % field.q
    with pytest.raises(DecodingFailureError):
        rs_error_correct(field, xs, ys, degree_bound=3, max_errors=1)
