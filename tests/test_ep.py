"""EP, the partition code, as the library runs it: GCSA with ell = kc = 1.

A server's A share is the EP polynomial at z = f - alpha (``reference.ep_encode_a``),
its B share the EP B polynomial at z divided by z^pmn, so its answer is the
EP answer at z divided by z^pmn.  ``reference`` holds the per-entry EP code
these tests check the library against.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from csacode import csa, gcsa, harness
from csacode.csa import csa_answer, csa_decode, csa_encode_a, csa_encode_b
from csacode.ep import EPParams, desired_coeff_index, ep_threshold
from csacode.errors import InsufficientAnswersError, ParameterError
from csacode.ffield import PrimeField
from csacode.structmat import solve_batch
from reference import (answer_coefficients, ep_decode, ep_encode_a, ep_encode_b,
                       split_blocks)

FIELD = PrimeField(65537)


def dim_for(k: int) -> int:
    # smallest multiple of k not exceeding 4 (3 stays 3)
    return k * max(1, 4 // k)


def shift(field, setup, s) -> int:
    """z = f - alpha_s, the point at which server s evaluates the EP code."""
    return field.sub(setup.poles[0], setup.samples[s])


def unscale(field, setup, s, x):
    """x times z^pmn: a B share or an answer of server s as EP's at z."""
    return field.pow(shift(field, setup, s), setup.inner_order) * x % field.q


def server_answers(field, batch_a, batch_b, setup):
    """(s, Y_s) of every server, through the library's encoders and answer."""
    shares_a = csa_encode_a(field, batch_a, setup, range(setup.servers))
    shares_b = csa_encode_b(field, batch_b, setup, range(setup.servers))
    return [(s, csa_answer(field, a, b)) for s, (a, b) in enumerate(zip(shares_a, shares_b))]


def test_threshold_values():
    assert ep_threshold(EPParams(2, 2, 2)) == 9
    assert ep_threshold(EPParams(1, 1, 1)) == 1
    # polynomial-codes special case p=1 and the inner-product case m=n=1
    for m, n in [(2, 3), (4, 1)]:
        assert ep_threshold(EPParams(1, m, n)) == m * n
    for p in (2, 3, 5):
        assert ep_threshold(EPParams(p, 1, 1)) == 2 * p - 1
    # EP is GCSA with ell = kc = 1
    for p, m, n in itertools.product(range(1, 4), repeat=3):
        assert gcsa.gcsa_threshold(1, 1, p, m, n) == ep_threshold(EPParams(p, m, n))
        assert harness.ep_setup(FIELD, p, m, n, 40).threshold == ep_threshold(EPParams(p, m, n))


def test_single_block_encoding_is_identity():
    rng = np.random.default_rng(0)
    a = FIELD.rand_matrix(rng, 3, 3)
    params = EPParams(1, 1, 1)
    for alpha in (0, 1, 12345):
        assert np.array_equal(ep_encode_a(FIELD, a, params, alpha), a)
        assert np.array_equal(ep_encode_b(FIELD, a, params, alpha), a)
    setup = harness.ep_setup(FIELD, 1, 1, 1, 3)
    for s in range(3):
        assert np.array_equal(csa_encode_a(FIELD, [a], setup, s)[0], a)
        assert np.array_equal(unscale(FIELD, setup, s, csa_encode_b(FIELD, [a], setup, s)[0]), a)


def test_exponent_layout_2x2x2():
    # A blocks carry powers 0,1,2,3; B blocks carry 1,5,0,4
    params = EPParams(2, 2, 2)
    setup = harness.ep_setup(FIELD, 2, 2, 2, 12)
    rng = np.random.default_rng(1)
    a = FIELD.rand_matrix(rng, 4, 4)
    b = FIELD.rand_matrix(rng, 4, 4)
    ga = split_blocks(a, 2, 2)
    gb = split_blocks(b, 2, 2)
    for s in (0, 7):
        alpha = shift(FIELD, setup, s)
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
        assert np.array_equal(csa_encode_a(FIELD, [a], setup, s)[0], want_a)
        assert np.array_equal(unscale(FIELD, setup, s, csa_encode_b(FIELD, [b], setup, s)[0]),
                              want_b)


def test_encode_matches_term_by_term_oracle():
    rng = np.random.default_rng(2)
    for p, m, n in [(1, 2, 2), (2, 1, 3), (3, 2, 1)]:
        params = EPParams(p, m, n)
        setup = harness.ep_setup(FIELD, p, m, n, ep_threshold(params) + 2)
        a = FIELD.rand_matrix(rng, dim_for(m), dim_for(p))
        s = int(rng.integers(0, setup.servers))
        alpha = shift(FIELD, setup, s)
        grid = split_blocks(a, m, p)
        acc = np.zeros_like(grid[0][0])
        for mi in range(m):
            for pi in range(p):
                acc = (acc + FIELD.pow(alpha, pi + p * mi) * grid[mi][pi]) % FIELD.q
        assert np.array_equal(ep_encode_a(FIELD, a, params, alpha), acc)
        assert np.array_equal(csa_encode_a(FIELD, [a], setup, s)[0], acc)


def test_answer_equals_coefficient_expansion():
    rng = np.random.default_rng(3)
    for p, m, n in [(2, 2, 2), (2, 1, 1), (1, 2, 3)]:
        params = EPParams(p, m, n)
        setup = harness.ep_setup(FIELD, p, m, n, ep_threshold(params) + 1)
        a = FIELD.rand_matrix(rng, dim_for(m), dim_for(p))
        b = FIELD.rand_matrix(rng, dim_for(p), dim_for(n))
        coeffs = answer_coefficients(FIELD, a, b, params)
        for s, y in server_answers(FIELD, [a], [b], setup)[:2]:
            alpha = shift(FIELD, setup, s)
            acc = np.zeros_like(coeffs[0])
            for i, c in enumerate(coeffs):
                acc = (acc + FIELD.pow(alpha, i) * c) % FIELD.q
            oracle = FIELD.matmul(ep_encode_a(FIELD, a, params, alpha),
                                  ep_encode_b(FIELD, b, params, alpha))
            assert np.array_equal(oracle, acc)
            assert np.array_equal(unscale(FIELD, setup, s, y), acc)


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
    setup = harness.ep_setup(FIELD, 1, 1, 1, 1)
    y = FIELD.matmul(a, b)
    assert np.array_equal(csa_decode(FIELD, server_answers(FIELD, [a], [b], setup), setup)[0], y)
    assert np.array_equal(ep_decode(FIELD, [(5, y)], EPParams(1, 1, 1)), y)


def test_decode_all_triples_all_subsets():
    # every triple with threshold <= 9, every R-subset of S = R + 3 servers,
    # a batch of two entries decoded together; the oracle decodes the EP
    # answers at the shifted points of the first subset
    rng = np.random.default_rng(7)
    triples = [(p, m, n)
               for p in range(1, 5) for m in range(1, 5) for n in range(1, 5)
               if p * m * n + p - 1 <= 9]
    for p, m, n in triples:
        params = EPParams(p, m, n)
        r = ep_threshold(params)
        setup = harness.ep_setup(FIELD, p, m, n, r + 3)
        aa = [FIELD.rand_matrix(rng, dim_for(m), dim_for(p)) for _ in range(2)]
        bb = [FIELD.rand_matrix(rng, dim_for(p), dim_for(n)) for _ in range(2)]
        truth = harness.direct_products(FIELD, aa, bb)
        answers = server_answers(FIELD, aa, bb, setup)
        for i, subset in enumerate(itertools.combinations(range(setup.servers), r)):
            got = csa_decode(FIELD, [answers[s] for s in subset], setup)[0]  # every entry
            assert all(np.array_equal(g, t) for g, t in zip(got, truth))
            if i == 0:
                ep_answers = [(shift(FIELD, setup, s), unscale(FIELD, setup, s, answers[s][1][0]))
                              for s in subset]
                assert np.array_equal(ep_decode(FIELD, ep_answers, params), truth[0])


def test_decode_insufficient_answers():
    setup = harness.ep_setup(FIELD, 2, 2, 2, 12)
    y = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(InsufficientAnswersError):
        csa_decode(FIELD, [(s, y) for s in range(5)], setup)
    with pytest.raises(InsufficientAnswersError):
        ep_decode(FIELD, [(1, y)] * 5, EPParams(2, 2, 2))


def test_decode_duplicate_points_rejected():
    y = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(ParameterError):
        harness.ep_setup(FIELD, 1, 2, 1, 3, samples=[5, 5, 6])
    with pytest.raises(ParameterError):  # the one pole is a field point too
        harness.ep_setup(FIELD, 1, 2, 1, 3, samples=[1, 5, 6])
    with pytest.raises(ParameterError):
        csa_decode(FIELD, [(1, y), (1, y)], harness.ep_setup(FIELD, 1, 2, 1, 3))
    with pytest.raises(ParameterError):
        ep_decode(FIELD, [(1, y), (1, y)], EPParams(1, 2, 1))


@pytest.mark.parametrize("q", [13, 17])
def test_ep_needs_fewer_servers_than_field_points(q):
    # the pole takes one of the q points, so S = q - 1 is the most EP runs
    field = PrimeField(q)
    rng = np.random.default_rng(q)
    setup = harness.ep_setup(field, 1, 2, 1, q - 1)
    aa = [field.rand_matrix(rng, 2, 2) for _ in range(3)]
    bb = [field.rand_matrix(rng, 2, 2) for _ in range(3)]
    got, _ = harness.run_cdbmm(field, "ep", setup, aa, bb, harness.StragglerModel(count=q - 1))
    assert all(np.array_equal(g, t) for g, t in zip(got, harness.direct_products(field, aa, bb)))
    with pytest.raises(ParameterError, match="pairwise distinct"):
        harness.ep_setup(field, 1, 2, 1, q)


def test_divisibility_enforced():
    rng = np.random.default_rng(8)
    a = FIELD.rand_matrix(rng, 3, 3)
    with pytest.raises(ParameterError):
        csa_encode_a(FIELD, [a], harness.ep_setup(FIELD, 2, 2, 1, 8), 5)
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
    # a batch encodes entry by entry with one generator product per side:
    # every server's share of every entry is the one-entry encode, and the
    # EP polynomial at the shifted point (B divided by z^pmn)
    field = PrimeField(q)
    params = EPParams(p, m, n)
    setup = harness.ep_setup(field, p, m, n, min(q - 1, 11))
    rng = np.random.default_rng(q % 1000 + 10 * p + m)
    batch_a = [field.rand_matrix(rng, 2 * m, 3 * p) for _ in range(3)]
    batch_b = [field.rand_matrix(rng, 3 * p, 2 * n) for _ in range(3)]
    # A block (mi, pi) carries pi + p*mi, B block (pi, ni) carries p-1-pi + p*m*ni
    exps_a = [pi + p * mi for mi in range(m) for pi in range(p)]
    exps_b = [p - 1 - pi + p * m * ni for pi in range(p) for ni in range(n)]
    for encode, batch, grid, exps, side in ((csa_encode_a, batch_a, (m, p), exps_a, "a"),
                                            (csa_encode_b, batch_b, (p, n), exps_b, "b")):
        shares = encode(field, batch, setup, range(setup.servers))
        assert shares.shape[:3] == (setup.servers, len(batch), 1)
        for s, per_server in enumerate(shares):
            z = shift(field, setup, s)
            for mat, share in zip(batch, per_server):
                single = encode(field, [mat], setup, s)
                assert share.dtype == single.dtype == np.int64
                assert share.tobytes() == single.tobytes()
                if side == "b":
                    share = unscale(field, setup, s, share)
                assert share[0].tolist() == poly_share(q, mat, *grid, exps, z)


def test_all_point_encode_rejects_bad_batches():
    setup = harness.ep_setup(FIELD, 2, 3, 1, 8)
    good = [np.ones((3, 2), dtype=np.int64)] * 2
    with pytest.raises(ParameterError):  # 4 rows do not split into m = 3
        csa_encode_a(FIELD, [np.ones((4, 2), dtype=np.int64)] * 2, setup, [1, 2])
    with pytest.raises(ParameterError):
        csa_encode_a(FIELD, [np.full((3, 2), 1.5)] * 2, setup, [1, 2])
    with pytest.raises(ParameterError):
        csa_encode_b(FIELD, [np.ones((2, 2), dtype=np.int64), np.ones((4, 2), dtype=np.int64)],
                      setup, [1, 2])
    with pytest.raises(ParameterError):  # one matrix is not a batch of matrices
        csa_encode_a(FIELD, good[0], setup, [1, 2])
    assert len(csa_encode_a(FIELD, good, setup, [1, 2, 3])) == 3


def test_decode_whole_batch_in_one_solve(monkeypatch):
    rng = np.random.default_rng(11)
    setup = harness.ep_setup(FIELD, 2, 2, 1, 7)
    batch_a = [FIELD.rand_matrix(rng, 4, 4) for _ in range(3)]
    batch_b = [FIELD.rand_matrix(rng, 4, 2) for _ in range(3)]
    answers = server_answers(FIELD, batch_a, batch_b, setup)
    solves = []
    monkeypatch.setattr(csa, "solve_batch",
                        lambda *args, **kw: solves.append(args) or solve_batch(*args, **kw))
    got = csa_decode(FIELD, answers[1:], setup)[0]  # the one result holds every entry
    assert len(solves) == 1
    for l, (a, b) in enumerate(zip(batch_a, batch_b)):
        assert np.array_equal(got[l], FIELD.matmul(a, b))
        one = csa_decode(FIELD, [(s, y[l]) for s, y in answers[1:]], setup)[0]
        assert one.tobytes() == got[l].tobytes()
