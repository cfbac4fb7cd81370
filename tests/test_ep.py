import itertools

import numpy as np
import pytest

from csacode import ep, harness
from csacode.ep import (EPParams, desired_coeff_index, ep_answer, ep_decode,
                        ep_encode_a, ep_encode_b, ep_threshold)
from csacode.errors import InsufficientAnswersError, ParameterError
from csacode.ffield import PrimeField
from csacode.structmat import solve_batch
from reference import answer_coefficients, split_blocks

FIELD = PrimeField(65537)


def dim_for(k: int) -> int:
    # smallest multiple of k not exceeding 4 (3 stays 3)
    return k * max(1, 4 // k)


def server_answers(field, a, b, params, samples):
    out = []
    for alpha in samples:
        ca = ep_encode_a(field, a, params, alpha)
        cb = ep_encode_b(field, b, params, alpha)
        out.append((alpha, ep_answer(field, ca, cb)))
    return out


def test_threshold_values():
    assert ep_threshold(EPParams(2, 2, 2)) == 9
    assert ep_threshold(EPParams(1, 1, 1)) == 1
    # polynomial-codes special case p=1 and the inner-product case m=n=1
    for m, n in [(2, 3), (4, 1)]:
        assert ep_threshold(EPParams(1, m, n)) == m * n
    for p in (2, 3, 5):
        assert ep_threshold(EPParams(p, 1, 1)) == 2 * p - 1


def test_single_block_encoding_is_identity():
    rng = np.random.default_rng(0)
    a = FIELD.rand_matrix(rng, 3, 3)
    params = EPParams(1, 1, 1)
    for alpha in (0, 1, 12345):
        assert np.array_equal(ep_encode_a(FIELD, a, params, alpha), a)
        assert np.array_equal(ep_encode_b(FIELD, a, params, alpha), a)


def test_exponent_layout_2x2x2():
    # A blocks carry powers 0,1,2,3; B blocks carry 1,5,0,4
    params = EPParams(2, 2, 2)
    rng = np.random.default_rng(1)
    a = FIELD.rand_matrix(rng, 4, 4)
    b = FIELD.rand_matrix(rng, 4, 4)
    alpha = 7
    ga = split_blocks(a, 2, 2)
    gb = split_blocks(b, 2, 2)
    want_a = sum(
        FIELD.pow(alpha, e) * blk for e, blk in
        [(0, ga[0][0]), (1, ga[0][1]), (2, ga[1][0]), (3, ga[1][1])]
    ) % FIELD.q
    want_b = sum(
        FIELD.pow(alpha, e) * blk for e, blk in
        [(1, gb[0][0]), (5, gb[0][1]), (0, gb[1][0]), (4, gb[1][1])]
    ) % FIELD.q
    assert np.array_equal(ep_encode_a(FIELD, a, params, alpha), want_a)
    assert np.array_equal(ep_encode_b(FIELD, b, params, alpha), want_b)


def test_encode_matches_term_by_term_oracle():
    rng = np.random.default_rng(2)
    for p, m, n in [(1, 2, 2), (2, 1, 3), (3, 2, 1)]:
        params = EPParams(p, m, n)
        a = FIELD.rand_matrix(rng, dim_for(m), dim_for(p))
        alpha = int(rng.integers(0, FIELD.q))
        grid = split_blocks(a, m, p)
        acc = np.zeros_like(grid[0][0])
        for mi in range(m):
            for pi in range(p):
                acc = (acc + FIELD.pow(alpha, pi + p * mi) * grid[mi][pi]) % FIELD.q
        assert np.array_equal(ep_encode_a(FIELD, a, params, alpha), acc)


def test_answer_equals_coefficient_expansion():
    rng = np.random.default_rng(3)
    for p, m, n in [(2, 2, 2), (2, 1, 1), (1, 2, 3)]:
        params = EPParams(p, m, n)
        a = FIELD.rand_matrix(rng, dim_for(m), dim_for(p))
        b = FIELD.rand_matrix(rng, dim_for(p), dim_for(n))
        coeffs = answer_coefficients(FIELD, a, b, params)
        for alpha in (3, 1009):
            y = ep_answer(FIELD, ep_encode_a(FIELD, a, params, alpha),
                          ep_encode_b(FIELD, b, params, alpha))
            acc = np.zeros_like(coeffs[0])
            for i, c in enumerate(coeffs):
                acc = (acc + FIELD.pow(alpha, i) * c) % FIELD.q
            assert np.array_equal(y, acc)


def test_printed_example_coefficients_2x2x2():
    # desired blocks sit at C(2), C(4), C(6), C(8); the top term C(9) is the
    # product of the last A column block and first B row block
    rng = np.random.default_rng(4)
    params = EPParams(2, 2, 2)
    a = FIELD.rand_matrix(rng, 4, 4)
    b = FIELD.rand_matrix(rng, 4, 4)
    ga = split_blocks(a, 2, 2)
    gb = split_blocks(b, 2, 2)
    coeffs = answer_coefficients(FIELD, a, b, params)
    prod = FIELD.matmul(a, b)
    want = split_blocks(prod, 2, 2)
    for mi, ni in itertools.product(range(2), range(2)):
        idx = desired_coeff_index(params, mi, ni)
        assert idx == {(0, 0): 1, (1, 0): 3, (0, 1): 5, (1, 1): 7}[(mi, ni)]
        assert np.array_equal(coeffs[idx], want[mi][ni])

    def mm(x, y):
        return FIELD.matmul(x, y)

    # the five interference coefficients, term by term
    assert np.array_equal(coeffs[0], mm(ga[0][0], gb[1][0]))
    assert np.array_equal(coeffs[2],
                          (mm(ga[1][0], gb[1][0]) + mm(ga[0][1], gb[0][0])) % FIELD.q)
    assert np.array_equal(coeffs[4],
                          (mm(ga[0][0], gb[1][1]) + mm(ga[1][1], gb[0][0])) % FIELD.q)
    assert np.array_equal(coeffs[6],
                          (mm(ga[0][1], gb[0][1]) + mm(ga[1][0], gb[1][1])) % FIELD.q)
    assert np.array_equal(coeffs[8], mm(ga[1][1], gb[0][1]))


def test_interference_top_terms_structure():
    # the p-1 coefficients above all desired ones involve only A blocks from
    # the last column and B blocks from the first row
    params = EPParams(3, 2, 2)
    r = ep_threshold(params)
    zero = np.zeros((2, 3), dtype=np.int64)
    zero_b = np.zeros((3, 2), dtype=np.int64)
    rng = np.random.default_rng(5)
    a = FIELD.rand_matrix(rng, 4, 9)
    b = FIELD.rand_matrix(rng, 9, 4)
    # zero out the last A column blocks and first B row blocks
    ga = split_blocks(a.copy(), 2, 3)
    gb = split_blocks(b.copy(), 3, 2)
    a2 = np.block([[blk if pi < 2 else np.zeros_like(blk) for pi, blk in enumerate(row)]
                   for row in ga])
    b2 = np.block([[blk if pi > 0 else np.zeros_like(blk) for blk in row]
                   for pi, row in enumerate(gb)])
    coeffs = answer_coefficients(FIELD, a2, b2, params)
    top = coeffs[params.p * params.m * params.n:]
    assert len(top) == params.p - 1
    assert all(not c.any() for c in top)


def test_decode_single_server():
    rng = np.random.default_rng(6)
    a = FIELD.rand_matrix(rng, 2, 2)
    b = FIELD.rand_matrix(rng, 2, 2)
    params = EPParams(1, 1, 1)
    y = ep_answer(FIELD, a, b)
    assert np.array_equal(ep_decode(FIELD, [(5, y)], params), y)


def test_decode_all_triples_all_subsets():
    # every triple with threshold <= 9, every R-subset of S = R + 3 servers
    rng = np.random.default_rng(7)
    triples = [(p, m, n)
               for p in range(1, 5) for m in range(1, 5) for n in range(1, 5)
               if p * m * n + p - 1 <= 9]
    for p, m, n in triples:
        params = EPParams(p, m, n)
        r = ep_threshold(params)
        setup = harness.ep_setup(FIELD, p, m, n, r + 3)
        a = FIELD.rand_matrix(rng, dim_for(m), dim_for(p))
        b = FIELD.rand_matrix(rng, dim_for(p), dim_for(n))
        truth = FIELD.matmul(a, b)
        answers = server_answers(FIELD, a, b, params, setup.samples)
        for subset in itertools.combinations(range(setup.servers), r):
            got = ep_decode(FIELD, [answers[i] for i in subset], params)
            assert np.array_equal(got, truth)


def test_decode_insufficient_answers():
    params = EPParams(2, 2, 2)
    with pytest.raises(InsufficientAnswersError):
        ep_decode(FIELD, [(1, np.zeros((1, 1), dtype=np.int64))] * 5, params)


def test_decode_duplicate_points_rejected():
    params = EPParams(1, 2, 1)
    y = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(ParameterError):
        ep_decode(FIELD, [(1, y), (1, y)], params)


def test_divisibility_enforced():
    rng = np.random.default_rng(8)
    a = FIELD.rand_matrix(rng, 3, 3)
    with pytest.raises(ParameterError):
        ep_encode_a(FIELD, a, EPParams(2, 2, 1), 5)


def test_cost_row():
    rng = np.random.default_rng(9)
    setup = harness.ep_setup(FIELD, 2, 2, 2, 12)
    a = [FIELD.rand_matrix(rng, 4, 4)]
    b = [FIELD.rand_matrix(rng, 4, 4)]
    products, report = harness.run_cdbmm(
        FIELD, "ep", setup, a, b, harness.StragglerModel(count=10, seed=3))
    assert np.array_equal(products[0], FIELD.matmul(a[0], b[0]))
    assert report.measured == report.theory
    from fractions import Fraction
    assert report.theory.uploads == (Fraction(12, 4), Fraction(12, 4))
    assert report.theory.download == Fraction(9, 4)


def poly_share(q, mat, rows, cols, exps, x):
    """Python-int evaluation of sum_j x^exps[j] * block_j, the blocks of
    ``mat`` on a rows x cols grid taken in row-major order."""
    mat = [[int(v) for v in row] for row in mat]
    bh, bw = len(mat) // rows, len(mat[0]) // cols
    out = [[0] * bw for _ in range(bh)]
    for j, e in enumerate(exps):
        r, c = divmod(j, cols)
        w = pow(x, e, q)
        for i in range(bh):
            for k in range(bw):
                out[i][k] = (out[i][k] + w * mat[r * bh + i][c * bw + k]) % q
    return out


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
@pytest.mark.parametrize("p, m, n", [(1, 1, 1), (2, 3, 1), (2, 2, 2)])
def test_all_point_encode_equals_per_point_and_polynomial(q, p, m, n):
    field = PrimeField(q)
    params = EPParams(p, m, n)
    rng = np.random.default_rng(q % 1000 + 10 * p + m)
    batch_a = [field.rand_matrix(rng, 2 * m, 3 * p) for _ in range(3)]
    batch_b = [field.rand_matrix(rng, 3 * p, 2 * n) for _ in range(3)]
    points = list(range(1, min(q, 12)))
    # A block (mi, pi) carries pi + p*mi, B block (pi, ni) carries p-1-pi + p*m*ni
    exps_a = [pi + p * mi for mi in range(m) for pi in range(p)]
    exps_b = [p - 1 - pi + p * m * ni for pi in range(p) for ni in range(n)]
    for encode, batch, grid, exps in ((ep_encode_a, batch_a, (m, p), exps_a),
                                      (ep_encode_b, batch_b, (p, n), exps_b)):
        shares = encode(field, batch, params, points)
        assert len(shares) == len(points)
        for x, per_point in zip(points, shares):
            assert len(per_point) == len(batch)
            for mat, share in zip(batch, per_point):
                single = encode(field, mat, params, x)
                assert share.dtype == single.dtype == np.int64
                assert share.tobytes() == single.tobytes()
                assert share.tolist() == poly_share(q, mat, *grid, exps, x)


def test_all_point_encode_rejects_bad_batches():
    params = EPParams(2, 3, 1)
    good = [np.ones((3, 2), dtype=np.int64)] * 2
    with pytest.raises(ParameterError):  # 4 rows do not split into m = 3
        ep_encode_a(FIELD, [np.ones((4, 2), dtype=np.int64)] * 2, params, [1, 2])
    with pytest.raises(ParameterError):
        ep_encode_a(FIELD, [np.full((3, 2), 1.5)] * 2, params, [1, 2])
    with pytest.raises(ParameterError):
        ep_encode_b(FIELD, [np.ones((2, 2), dtype=np.int64), np.ones((4, 2), dtype=np.int64)],
                    params, [1, 2])
    with pytest.raises(ParameterError):  # one matrix needs one point
        ep_encode_a(FIELD, good[0], params, [1, 2])
    assert len(ep_encode_a(FIELD, good, params, [1, 2, 3])) == 3


def test_decode_whole_batch_in_one_solve(monkeypatch):
    rng = np.random.default_rng(11)
    params = EPParams(2, 2, 1)
    setup = harness.ep_setup(FIELD, 2, 2, 1, 7)
    batch_a = [FIELD.rand_matrix(rng, 4, 4) for _ in range(3)]
    batch_b = [FIELD.rand_matrix(rng, 4, 2) for _ in range(3)]
    shares = zip(ep_encode_a(FIELD, batch_a, params, setup.samples),
                 ep_encode_b(FIELD, batch_b, params, setup.samples))
    answers = [(x, np.stack([ep_answer(FIELD, a, b) for a, b in zip(sa, sb)]))
               for x, (sa, sb) in zip(setup.samples, shares)]
    solves = []
    monkeypatch.setattr(ep, "solve_batch",
                        lambda *args, **kw: solves.append(args) or solve_batch(*args, **kw))
    got = ep_decode(FIELD, answers[1:], params)
    assert len(solves) == 1
    for l, (a, b) in enumerate(zip(batch_a, batch_b)):
        assert np.array_equal(got[l], FIELD.matmul(a, b))
        one = ep_decode(FIELD, [(x, y[l]) for x, y in answers[1:]], params)
        assert one.tobytes() == got[l].tobytes()
