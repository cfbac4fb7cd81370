import itertools
from fractions import Fraction

import numpy as np
import pytest

from csacode import csa, ep, harness
from csacode.errors import ParameterError
from csacode.ffield import PrimeField, poly_eval
from csacode.gcsa import gcsa_params, gcsa_threshold, grid_naive_threshold
import reference
from reference import naive_combo_threshold, psi_coeffs

FIELD = PrimeField(65537)


def build_answers(field, params, aa, bb):
    answers = []
    for s in range(params.servers):
        sa = csa.csa_encode_a(field, aa, params, s)
        sb = csa.csa_encode_b(field, bb, params, s)
        answers.append((s, csa.csa_answer(field, sa, sb)))
    return answers


def test_threshold_values():
    assert gcsa_threshold(1, 2, 1, 2, 2) == 12
    assert gcsa_threshold(1, 2, 2, 1, 1) == 7
    for ell, kc in [(1, 1), (2, 3), (3, 1)]:
        assert gcsa_threshold(ell, kc, 1, 1, 1) == csa.csa_threshold(ell, kc)


def test_naive_combo_threshold():
    assert naive_combo_threshold(1, 1, 1) == 1
    for kc, sp in [(2, 5), (3, 9), (4, 10)]:
        assert naive_combo_threshold(1, kc, sp) == 2 * kc * sp - 1
    # the joint construction never loses to the naive combination for any
    # tuple with a feasible inner server count
    tuples = [(ell, kc, p, m, n)
              for p in (1, 2, 3) for m in (1, 2, 3) for n in (1, 2, 3)
              for ell in range(1, 5) for kc in range(1, 5)
              if gcsa_threshold(ell, kc, p, m, n) <= 40]
    for ell, kc, p, m, n in tuples:
        inner_r = p * m * n + p - 1
        for sp in range(inner_r, inner_r + 4):
            assert gcsa_threshold(ell, kc, p, m, n) <= naive_combo_threshold(ell, kc, sp)


def test_intro_grid_composition():
    # ten groups of ten servers, both layers with threshold 7
    assert grid_naive_threshold(10, 7, 10, 7) == 85
    # while the joint construction stays within the product of thresholds
    assert gcsa_threshold(1, 4, 1, 7, 1) == 49


def test_psi_trivial_and_binomial():
    params = gcsa_params(FIELD, 2, 1, 2, 1, 1, 9)
    assert psi_coeffs(FIELD, params, 0, 0) == [1]
    params = gcsa_params(FIELD, 1, 2, 1, 2, 2, 14)
    f11, f12 = params.poles
    d = FIELD.sub(f12, f11)
    # (t + d)^4: binomial coefficients 1,4,6,4,1 times powers of d
    want = [FIELD.mul(b, FIELD.pow(d, 4 - i))
            for i, b in enumerate([1, 4, 6, 4, 1])]
    got = psi_coeffs(FIELD, params, 0, 0)
    assert got == want
    assert all(c != 0 for c in got)


def test_psi_evaluation_oracle():
    rng = np.random.default_rng(0)
    params = gcsa_params(FIELD, 1, 3, 2, 1, 1, 20)
    for k in range(3):
        coeffs = psi_coeffs(FIELD, params, 0, k)
        for x in rng.integers(0, FIELD.q, size=5):
            direct = 1
            for k2 in range(3):
                if k2 != k:
                    base = FIELD.add(int(x), FIELD.sub(params.pole(0, k2),
                                                       params.pole(0, k)))
                    direct = direct * FIELD.pow(base, 2) % FIELD.q
            assert poly_eval(FIELD, coeffs, int(x)) == direct


def test_encode_a_printed_display():
    # one group, two slots, no column split, 2x2 row/col blocks: the share is
    # (f12-a)^4 P11 + (f11-a)^4 P12 with P the inner polynomials
    rng = np.random.default_rng(1)
    params = gcsa_params(FIELD, 1, 2, 1, 2, 2, 14)
    aa = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    f11, f12 = params.poles
    for s in (0, 7):
        alpha = params.samples[s]
        share = csa.csa_encode_a(FIELD, aa, params, s)[0]
        want = np.zeros_like(share)
        for k, f in enumerate((f11, f12)):
            z = FIELD.sub(f, alpha)
            other = f12 if k == 0 else f11
            w = FIELD.pow(FIELD.sub(other, alpha), 4)
            inner = reference.ep_encode_a(FIELD, aa[k], params.ep, z)
            want = (want + w * inner) % FIELD.q
        assert np.array_equal(share, want)


def test_encode_b_printed_inner_polynomial():
    # p=2, m=n=1: Q = (f - alpha) B_top + B_bottom
    rng = np.random.default_rng(2)
    params = gcsa_params(FIELD, 1, 2, 2, 1, 1, 9)
    bb = [FIELD.rand_matrix(rng, 4, 2) for _ in range(2)]
    for s in (0, 3):
        alpha = params.samples[s]
        share = csa.csa_encode_b(FIELD, bb, params, s)[0]
        want = np.zeros_like(share)
        for k in range(2):
            z = FIELD.sub(params.pole(0, k), alpha)
            top, bottom = bb[k][:2], bb[k][2:]
            inner = (z * top + bottom) % FIELD.q
            want = (want + FIELD.inv(FIELD.pow(z, 2)) * inner) % FIELD.q
        assert np.array_equal(share, want)


def test_answer_matches_rational_expansion():
    # Y_s splits into same-slot terms with pole denominators and cross terms
    rng = np.random.default_rng(3)
    params = gcsa_params(FIELD, 1, 2, 1, 2, 2, 14)
    aa = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    for s in (2, 9):
        alpha = params.samples[s]
        y = csa.csa_answer(FIELD, csa.csa_encode_a(FIELD, aa, params, s),
                           csa.csa_encode_b(FIELD, bb, params, s))
        acc = np.zeros_like(y)
        rp = params.inner_order
        for k in range(2):
            for k2 in range(2):
                pk = reference.ep_encode_a(FIELD, aa[k], params.ep,
                                    FIELD.sub(params.pole(0, k), alpha))
                qk = reference.ep_encode_b(FIELD, bb[k2], params.ep,
                                    FIELD.sub(params.pole(0, k2), alpha))
                w = 1
                for k3 in range(2):
                    num = FIELD.pow(FIELD.sub(params.pole(0, k3), alpha), rp)
                    w = w * num % FIELD.q
                w = w * FIELD.inv(FIELD.pow(FIELD.sub(params.pole(0, k), alpha), rp)) % FIELD.q
                w = w * FIELD.inv(FIELD.pow(FIELD.sub(params.pole(0, k2), alpha), rp)) % FIELD.q
                acc = (acc + w * FIELD.matmul(pk, qk)) % FIELD.q
        assert np.array_equal(y, acc)


def test_reduction_to_csa_byte_equal():
    rng = np.random.default_rng(4)
    params_g = gcsa_params(FIELD, 2, 2, 1, 1, 1, 8)
    params_c = csa.csa_params(FIELD, 2, 2, 8)
    assert params_g == params_c  # CSA is GCSA with p = m = n = 1
    aa = [FIELD.rand_matrix(rng, 3, 3) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 3, 3) for _ in range(4)]
    answers = []
    for s in range(8):
        ga = csa.csa_encode_a(FIELD, aa, params_g, s)
        gb = csa.csa_encode_b(FIELD, bb, params_g, s)
        ca = csa.csa_encode_a(FIELD, aa, params_c, s)
        cb = csa.csa_encode_b(FIELD, bb, params_c, s)
        assert all(np.array_equal(x, y) for x, y in zip(ga, ca))
        assert all(np.array_equal(x, y) for x, y in zip(gb, cb))
        y = csa.csa_answer(FIELD, ga, gb)
        assert np.array_equal(y, csa.csa_answer(FIELD, ca, cb))
        answers.append((s, y))
    got_g = csa.csa_decode(FIELD, answers[:5], params_g)
    got_c = csa.csa_decode(FIELD, answers[:5], params_c)
    assert all(np.array_equal(x, y) for x, y in zip(got_g, got_c))


def test_reduction_to_ep_at_shifted_points():
    # with one group and one slot the A share IS the inner polynomial at the
    # shifted point; B share and answer carry the known (f-alpha)^-R' factor
    rng = np.random.default_rng(5)
    params = gcsa_params(FIELD, 1, 1, 2, 2, 2, 12)
    epp = ep.EPParams(2, 2, 2)
    a = FIELD.rand_matrix(rng, 4, 4)
    b = FIELD.rand_matrix(rng, 4, 4)
    rp = params.inner_order
    for s in range(12):
        z = FIELD.sub(params.poles[0], params.samples[s])
        ga = csa.csa_encode_a(FIELD, [a], params, s)[0]
        gb = csa.csa_encode_b(FIELD, [b], params, s)[0]
        assert np.array_equal(ga, reference.ep_encode_a(FIELD, a, epp, z))
        assert np.array_equal(FIELD.pow(z, rp) * gb % FIELD.q,
                              reference.ep_encode_b(FIELD, b, epp, z))
        gy = csa.csa_answer(FIELD, [ga], [gb])
        ey = FIELD.matmul(reference.ep_encode_a(FIELD, a, epp, z),
                          reference.ep_encode_b(FIELD, b, epp, z))
        assert np.array_equal(FIELD.pow(z, rp) * gy % FIELD.q, ey)
    answers = build_answers(FIELD, params, [a], [b])
    got = csa.csa_decode(FIELD, answers, params)
    assert np.array_equal(got[0], FIELD.matmul(a, b))


def test_decode_block_grid_example():
    # one group, two slots, p = 1, m = n = 2, threshold 12 of 15 servers
    rng = np.random.default_rng(6)
    params = gcsa_params(FIELD, 1, 2, 1, 2, 2, 15)
    aa = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = build_answers(FIELD, params, aa, bb)
    rng2 = np.random.default_rng(7)
    subsets = list(itertools.combinations(range(15), 12))
    for i in rng2.choice(len(subsets), size=40, replace=False):
        subset = subsets[int(i)]
        got = csa.csa_decode(FIELD, [answers[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_decode_inner_sum_example():
    # p = 2, m = n = 1: the decoder returns the column-split dot products
    rng = np.random.default_rng(8)
    params = gcsa_params(FIELD, 1, 2, 2, 1, 1, 9)
    aa = [FIELD.rand_matrix(rng, 2, 4) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 4, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = build_answers(FIELD, params, aa, bb)
    for subset in itertools.combinations(range(9), 7):
        got = csa.csa_decode(FIELD, [answers[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_divisibility_and_point_validation():
    with pytest.raises(ParameterError):
        gcsa_params(FIELD, 1, 2, 1, 2, 2, 11)  # S < R
    params = gcsa_params(FIELD, 1, 1, 2, 2, 2, 12)
    rng = np.random.default_rng(9)
    with pytest.raises(ParameterError):
        csa.csa_encode_a(FIELD, [FIELD.rand_matrix(rng, 3, 3)], params, 0)


def test_cost_counters():
    rng = np.random.default_rng(10)
    params = gcsa_params(FIELD, 1, 2, 2, 2, 2, 26)
    aa = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    products, report = harness.run_cdbmm(
        FIELD, "gcsa", params, aa, bb, harness.StragglerModel(count=26, seed=1))
    truth = harness.direct_products(FIELD, aa, bb)
    assert all(np.array_equal(g, t) for g, t in zip(products, truth))
    r = gcsa_threshold(1, 2, 2, 2, 2)
    assert r == 25
    assert report.theory.threshold == r
    assert report.theory.uploads == (Fraction(26, 8), Fraction(26, 8))
    assert report.theory.download == Fraction(r, 8)
    assert report.measured == report.theory


def poly_shares(q, params, batch, side, alpha):
    """Python-int evaluation of one server's ell shares: per group, the sum
    over slots of the inner EP polynomial at z = f_{l,k} - alpha, weighted by
    prod_{k' != k}(f_{l,k'} - alpha)^R' (A side) or z^-R' (B side)."""
    p, m, n, rp = params.p, params.m, params.n, params.inner_order
    if side == "a":
        rows, cols = m, p
        exps = [pi + p * mi for mi in range(m) for pi in range(p)]
    else:
        rows, cols = p, n
        exps = [p - 1 - pi + p * m * ni for pi in range(p) for ni in range(n)]
    out = []
    for l in range(params.ell):
        acc = None
        for k in range(params.kc):
            z = (params.pole(l, k) - alpha) % q
            if side == "a":
                w = 1
                for k2 in range(params.kc):
                    if k2 != k:
                        w = w * pow(params.pole(l, k2) - alpha, rp, q) % q
            else:
                w = pow(pow(z, rp, q), -1, q)
            mat = [[int(v) for v in row] for row in batch[l * params.kc + k]]
            bh, bw = len(mat) // rows, len(mat[0]) // cols
            if acc is None:
                acc = [[0] * bw for _ in range(bh)]
            for j, e in enumerate(exps):
                r, c = divmod(j, cols)
                coef = w * pow(z, e, q) % q
                for i in range(bh):
                    for t in range(bw):
                        acc[i][t] = (acc[i][t] + coef * mat[r * bh + i][c * bw + t]) % q
        out.append(acc)
    return out


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
@pytest.mark.parametrize("ell, kc, p, m, n", [
    (1, 1, 2, 3, 1),  # kc = 1 with a non-square partition
    (2, 1, 2, 1, 1),  # kc = 1, two groups
    (2, 2, 1, 1, 1),  # p = m = n = 1: the CSA code
    (1, 2, 1, 2, 1),
])
def test_all_server_encode_equals_per_server_and_polynomial(q, ell, kc, p, m, n):
    field = PrimeField(q)
    servers = gcsa_threshold(ell, kc, p, m, n) + 1
    params = gcsa_params(field, ell, kc, p, m, n, servers)
    rng = np.random.default_rng(q % 1000 + ell + 3 * kc + 5 * m)
    batch_a = [field.rand_matrix(rng, 2 * m, 2 * p) for _ in range(ell * kc)]
    batch_b = [field.rand_matrix(rng, 2 * p, 3 * n) for _ in range(ell * kc)]
    for encode, batch, side in ((csa.csa_encode_a, batch_a, "a"),
                                (csa.csa_encode_b, batch_b, "b")):
        shares = encode(field, batch, params, range(servers))
        assert len(shares) == servers
        for s, per_server in enumerate(shares):
            single = encode(field, batch, params, s)
            assert len(per_server) == len(single) == ell
            for x, y in zip(per_server, single):
                assert x.dtype == y.dtype == np.int64
                assert x.tobytes() == y.tobytes()
            want = poly_shares(q, params, batch, side, params.samples[s])
            assert [x.tolist() for x in per_server] == want


def test_all_server_encode_rejects_bad_batches():
    params = gcsa_params(FIELD, 1, 2, 2, 3, 1, 20)
    with pytest.raises(ParameterError):  # 4 rows do not split into m = 3
        csa.csa_encode_a(FIELD, [np.ones((4, 2), dtype=np.int64)] * 2, params, range(20))
    with pytest.raises(ParameterError):
        csa.csa_encode_a(FIELD, [np.full((3, 2), 1.5)] * 2, params, range(20))
    with pytest.raises(ParameterError):  # 3 rows do not split into p = 2
        csa.csa_encode_b(FIELD, [np.ones((3, 2), dtype=np.int64)] * 2, params, [0, 1])
    with pytest.raises(ParameterError):
        csa.csa_encode_b(FIELD, [np.ones((2, 2), dtype=bool)] * 2, params, [0, 1])
