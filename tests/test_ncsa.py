import itertools
from fractions import Fraction

import numpy as np
import pytest

from csacode import csa, harness
from csacode.errors import DecodingFailureError, ParameterError
from csacode.ffield import PrimeField
from csacode.ncsa import (PolynomialSpec, PolyTerm,
                          check_multilinear, determinant_map,
                          elementwise_product_map, lcc_decode, lcc_encode,
                          lcc_threshold, matmul_map, matrix_chain_map,
                          ncsa_answer, ncsa_decode, ncsa_params,
                          ncsa_systematic_answer,
                          ncsa_systematic_encode, ncsa_threshold,
                          poly_batch_eval_answer, xs_encode, xsb_decode,
                          xsb_threshold)

FIELD = PrimeField(65537)


# ---- maps ----

def test_builtin_maps_are_multilinear():
    rng = np.random.default_rng(0)
    for omega in (matmul_map(2, 3, 2), matrix_chain_map((2, 2, 2, 2)),
                  elementwise_product_map(3, 4), determinant_map(3)):
        assert check_multilinear(FIELD, omega, rng, trials=100)


def test_determinant_map_against_cofactor_expansion():
    rng = np.random.default_rng(1)
    omega = determinant_map(3)
    for field in (PrimeField(13), FIELD, PrimeField(2147483629)):
        for _ in range(20):
            m = field.rand_matrix(rng, 3, 3)
            cols = [m[:, j] for j in range(3)]
            got = int(omega(field, *cols)[0])
            det = (
                int(m[0, 0]) * (int(m[1, 1]) * int(m[2, 2]) - int(m[1, 2]) * int(m[2, 1]))
                - int(m[0, 1]) * (int(m[1, 0]) * int(m[2, 2]) - int(m[1, 2]) * int(m[2, 0]))
                + int(m[0, 2]) * (int(m[1, 0]) * int(m[2, 1]) - int(m[1, 1]) * int(m[2, 0]))
            ) % field.q
            assert got == det


# ---- LCC baseline ----

def test_lcc_encode_single_item_constant():
    rng = np.random.default_rng(2)
    x = FIELD.rand_matrix(rng, 2, 2)
    for alpha in (0, 5, 999):
        assert np.array_equal(lcc_encode(FIELD, [x], [3], alpha), x)


def test_lcc_encode_basis_property():
    rng = np.random.default_rng(3)
    batch = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    betas = [1, 2, 3, 4]
    for j, beta in enumerate(betas):
        assert np.array_equal(lcc_encode(FIELD, batch, betas, beta), batch[j])


def test_lcc_threshold_row():
    for kc in (1, 2, 3, 4):
        assert lcc_threshold(2, kc) == 2 * kc - 1


def test_lcc_bilinear_roundtrip():
    rng = np.random.default_rng(4)
    betas = [1, 2, 3]
    alphas = list(range(4, 12))
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(3)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(3)]
    answers = []
    for alpha in alphas:
        ea = lcc_encode(FIELD, aa, betas, alpha)
        eb = lcc_encode(FIELD, bb, betas, alpha)
        answers.append((alpha, FIELD.matmul(ea, eb)))
    truth = harness.direct_products(FIELD, aa, bb)
    r = lcc_threshold(2, 3)
    for subset in itertools.combinations(range(8), r):
        got = lcc_decode(FIELD, [answers[i] for i in subset], betas, 2)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_lcc_single_item_single_answer():
    # one batch item: threshold 1 regardless of arity
    rng = np.random.default_rng(50)
    x = FIELD.rand_matrix(rng, 2, 2)
    for arity in (1, 2, 3):
        assert lcc_threshold(arity, 1) == 1
        got = lcc_decode(FIELD, [(9, x)], [4], arity)
        assert np.array_equal(got[0], x)


def test_lcc_linear_map_single_answer():
    # arity 1: threshold equals the batch size, decode is plain interpolation
    rng = np.random.default_rng(5)
    batch = [FIELD.rand_matrix(rng, 3, 1) for _ in range(4)]
    betas = [1, 2, 3, 4]
    assert lcc_threshold(1, 4) == 4
    answers = [(alpha, lcc_encode(FIELD, batch, betas, alpha))
               for alpha in (9, 10, 11, 12)]
    got = lcc_decode(FIELD, answers, betas, 1)
    assert all(np.array_equal(g, x) for g, x in zip(got, batch))


# ---- thresholds ----

def test_threshold_formulas():
    assert ncsa_threshold(3, 1, 2) == 4
    assert ncsa_threshold(2, 2, 2) == csa.csa_threshold(2, 2)
    assert xsb_threshold(2, 1, 2, 1, 0) == 2 * (2 + 1 - 1) + 1
    assert xsb_threshold(2, 1, 2, 1, 1) == 7
    for n, ell, kc in [(2, 1, 3), (3, 2, 2), (4, 1, 1)]:
        assert xsb_threshold(n, ell, kc, 0, 0) == ncsa_threshold(n, ell, kc)


def test_remark_download_cost_identity():
    # R/L and the rewritten form 1 + ((N-1)/ell)((kc-1)/kc) agree exactly
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        ell = int(rng.integers(1, 6))
        kc = int(rng.integers(1, 6))
        direct = Fraction(ncsa_threshold(n, ell, kc), ell * kc)
        rewritten = 1 + Fraction(n - 1, ell) * Fraction(kc - 1, kc)
        assert direct == rewritten


# ---- encoding ----

def test_encode_single_slot_is_plain():
    rng = np.random.default_rng(7)
    params = ncsa_params(FIELD, 2, 2, 1, 6)
    batch = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    for s in range(6):
        shares = csa.csa_encode_a(FIELD, batch, params, s)
        assert all(np.array_equal(sh, x) for sh, x in zip(shares, batch))


def test_bilinear_answers_coincide_with_matrix_batch_scheme():
    # every variable share carries the group prefactor and the server divides
    # it back out once, so at N = 2 the answers (hence decode outputs) are
    # byte-identical to the dedicated matrix-batch scheme
    rng = np.random.default_rng(20)
    nparams = ncsa_params(FIELD, 2, 2, 2, 8)
    cparams = csa.csa_params(FIELD, 2, 2, 8)
    omega = matmul_map(2, 2, 2)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    n_answers, c_answers = [], []
    for s in range(8):
        shares = [csa.csa_encode_a(FIELD, aa, nparams, s),
                  csa.csa_encode_a(FIELD, bb, nparams, s)]
        yn = ncsa_answer(FIELD, shares, omega, nparams, s)
        yc = csa.csa_answer(FIELD, csa.csa_encode_a(FIELD, aa, cparams, s),
                            csa.csa_encode_b(FIELD, bb, cparams, s))
        assert np.array_equal(yn, yc)
        n_answers.append((s, yn))
        c_answers.append((s, yc))
    got_n = ncsa_decode(FIELD, n_answers[:5], nparams)
    got_c = csa.csa_decode(FIELD, c_answers[:5], cparams)
    assert all(np.array_equal(x, y) for x, y in zip(got_n, got_c))


def test_encode_matches_csa_a_side():
    rng = np.random.default_rng(8)
    params = ncsa_params(FIELD, 2, 2, 2, 8)
    cparams = csa.csa_params(FIELD, 2, 2, 8)
    batch = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    for s in range(8):
        assert all(np.array_equal(x, y)
                   for x, y in zip(csa.csa_encode_a(FIELD, batch, params, s),
                                   csa.csa_encode_a(FIELD, batch, cparams, s)))


def test_answer_matches_rational_expansion():
    rng = np.random.default_rng(9)
    params = ncsa_params(FIELD, 3, 1, 2, 6)
    omega = matrix_chain_map((2, 2, 2, 2))
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(3)]
    for s in range(6):
        shares = [csa.csa_encode_a(FIELD, b, params, s) for b in batches]
        y = ncsa_answer(FIELD, shares, omega, params, s)
        alpha = params.samples[s]
        acc = np.zeros_like(y)
        delta = 1
        for k in range(2):
            delta = delta * FIELD.sub(params.pole(0, k), alpha) % FIELD.q
        for k1, k2, k3 in itertools.product(range(2), repeat=3):
            w = FIELD.pow(delta, 2)
            for k in (k1, k2, k3):
                w = w * FIELD.inv(FIELD.sub(params.pole(0, k), alpha)) % FIELD.q
            prod = omega(FIELD, batches[0][k1], batches[1][k2], batches[2][k3])
            acc = (acc + w * prod) % FIELD.q
        assert np.array_equal(y, acc)


def test_trilinear_decode_all_subsets():
    rng = np.random.default_rng(10)
    params = ncsa_params(FIELD, 3, 1, 2, 7)
    assert params.threshold == 4
    omega = matrix_chain_map((2, 2, 2, 2))
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(3)]
    truth = harness.direct_evaluations(FIELD, omega, batches)
    answers = []
    for s in range(7):
        shares = [csa.csa_encode_a(FIELD, b, params, s) for b in batches]
        answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
    for subset in itertools.combinations(range(7), 4):
        got = ncsa_decode(FIELD, [answers[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_lcc_and_ncsa_agree_at_ell_one():
    # identical anchor/evaluation points, identical responsive subsets
    rng = np.random.default_rng(11)
    kc = 3
    r = ncsa_threshold(2, 1, kc)
    servers = r + 2
    params = ncsa_params(FIELD, 2, 1, kc, servers)
    betas = list(params.poles)
    omega = matmul_map(2, 2, 2)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(kc)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(kc)]
    ncsa_answers = []
    lcc_answers = []
    for s in range(servers):
        shares = [csa.csa_encode_a(FIELD, aa, params, s),
                  csa.csa_encode_a(FIELD, bb, params, s)]
        ncsa_answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
        alpha = params.samples[s]
        ea = lcc_encode(FIELD, aa, betas, alpha)
        eb = lcc_encode(FIELD, bb, betas, alpha)
        lcc_answers.append((alpha, FIELD.matmul(ea, eb)))
    for subset in itertools.combinations(range(servers), r):
        via_ncsa = ncsa_decode(FIELD, [ncsa_answers[s] for s in subset], params)
        via_lcc = lcc_decode(FIELD, [lcc_answers[s] for s in subset], betas, 2)
        assert all(np.array_equal(x, y) for x, y in zip(via_ncsa, via_lcc))


# ---- polynomial evaluation ----

def test_polynomial_spec_single_term_equals_plain_answer():
    rng = np.random.default_rng(12)
    params = ncsa_params(FIELD, 2, 1, 2, 5)
    omega = matmul_map(2, 2, 2)
    spec = PolynomialSpec(2, (PolyTerm(1, omega, (0, 1)),))
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    for s in range(5):
        shares = {0: csa.csa_encode_a(FIELD, aa, params, s),
                  1: csa.csa_encode_a(FIELD, bb, params, s)}
        y1 = poly_batch_eval_answer(FIELD, shares, spec, params, s)
        y2 = ncsa_answer(FIELD, [shares[0], shares[1]], omega, params, s)
        assert np.array_equal(y1, y2)


def test_polynomial_with_constant_slot():
    # Phi(a, b) = a b + 3 a, degree 2; the linear term uses a ones batch
    rng = np.random.default_rng(13)
    params = ncsa_params(FIELD, 2, 1, 2, 6)
    omega = matmul_map(2, 2, 2)
    spec = PolynomialSpec(2, (PolyTerm(1, omega, (0, 1)),
                              PolyTerm(3, omega, (0, None))))
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    ones = [np.ones((2, 2), dtype=np.int64) for _ in range(2)]
    answers = []
    for s in range(6):
        shares = {0: csa.csa_encode_a(FIELD, aa, params, s),
                  1: csa.csa_encode_a(FIELD, bb, params, s),
                  None: csa.csa_encode_a(FIELD, ones, params, s)}
        answers.append((s, poly_batch_eval_answer(FIELD, shares, spec, params, s)))
    got = ncsa_decode(FIELD, answers, params)
    for l in range(2):
        want = (FIELD.matmul(aa[l], bb[l]) + 3 * FIELD.matmul(aa[l], ones[l])) % FIELD.q
        assert np.array_equal(got[l], want)


def test_polynomial_matmul_matches_cdbmm_result():
    rng = np.random.default_rng(14)
    params = ncsa_params(FIELD, 2, 1, 2, 5)
    cparams = csa.csa_params(FIELD, 1, 2, 5)
    omega = matmul_map(2, 2, 2)
    spec = PolynomialSpec(2, (PolyTerm(1, omega, (0, 1)),))
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    answers = []
    for s in range(5):
        shares = {0: csa.csa_encode_a(FIELD, aa, params, s),
                  1: csa.csa_encode_a(FIELD, bb, params, s)}
        answers.append((s, poly_batch_eval_answer(FIELD, shares, spec, params, s)))
    got = ncsa_decode(FIELD, answers, params)
    shares = [(csa.csa_encode_a(FIELD, aa, cparams, s),
               csa.csa_encode_b(FIELD, bb, cparams, s)) for s in range(5)]
    csa_answers = [(s, csa.csa_answer(FIELD, sa, sb)) for s, (sa, sb) in enumerate(shares)]
    via_csa = csa.csa_decode(FIELD, csa_answers, cparams)
    assert all(np.array_equal(x, y) for x, y in zip(got, via_csa))


def test_mixed_arity_spec_rejected():
    with pytest.raises(ParameterError):
        PolynomialSpec(2, (PolyTerm(1, matmul_map(2, 2, 2), (0, 1)),
                           PolyTerm(1, elementwise_product_map(3, 2), (0, 1, None))))


# ---- X-security ----

def test_xs_share_of_zero_data_is_scaled_noise():
    params = ncsa_params(FIELD, 2, 1, 1, 4, x_secure=1, noise_seed=3)
    zero = [np.zeros((2, 2), dtype=np.int64)]
    noise = {(0, 0, 1): np.arange(4, dtype=np.int64).reshape(2, 2) + 1}
    for s in range(4):
        alpha = params.samples[s]
        delta = FIELD.sub(params.poles[0], alpha)
        share = xs_encode(FIELD, zero, params, 0, s, noise=noise)[0]
        assert np.array_equal(share, delta * noise[(0, 0, 1)] % FIELD.q)


def test_xs_noise_constant_across_servers():
    rng = np.random.default_rng(15)
    params = ncsa_params(FIELD, 2, 1, 2, 6, x_secure=1, noise_seed=99)
    batch = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    base = [csa.csa_encode_a(FIELD, batch, params, s) for s in range(6)]
    secure = [xs_encode(FIELD, batch, params, 0, s) for s in range(6)]
    # X = 1: the noise polynomial is a constant per group, so the masked part
    # is delta_s times one fixed matrix
    zs = []
    for s in range(6):
        alpha = params.samples[s]
        delta = 1
        for k in range(2):
            delta = delta * FIELD.sub(params.pole(0, k), alpha) % FIELD.q
        diff = (secure[s][0] - base[s][0]) % FIELD.q
        zs.append(FIELD.inv(delta) * diff % FIELD.q)
    assert all(np.array_equal(z, zs[0]) for z in zs)


def test_xs_exhaustive_uniformity_tiny_field():
    field = PrimeField(13)
    params = ncsa_params(field, 2, 1, 1, 4, x_secure=1)
    distributions = {}
    for value in (0, 7):
        batch = [np.full((1, 1), value, dtype=np.int64)]
        for n in range(2):
            for s in range(4):
                seen = sorted(
                    int(xs_encode(field, batch, params, n, s,
                                  noise={(0, 0, 1): np.full((1, 1), z, dtype=np.int64)})[0][0, 0])
                    for z in range(13)
                )
                distributions[(value, n, s)] = seen
                assert seen == list(range(13))
    # identical distributions across the two data values: TV distance zero
    for n in range(2):
        for s in range(4):
            assert distributions[(0, n, s)] == distributions[(7, n, s)]


def test_xs_decode_without_byzantine():
    rng = np.random.default_rng(16)
    params = ncsa_params(FIELD, 2, 1, 2, 8, x_secure=1, noise_seed=7)
    assert params.threshold == 5
    omega = matmul_map(2, 2, 2)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = []
    for s in range(8):
        shares = [xs_encode(FIELD, aa, params, 0, s),
                  xs_encode(FIELD, bb, params, 1, s)]
        answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
    for subset in itertools.combinations(range(8), 5):
        evals, flagged = xsb_decode(FIELD, [answers[s] for s in subset], params)
        assert flagged == []
        assert all(np.array_equal(e, t) for e, t in zip(evals, truth))


def test_xsb_exhaustive_single_corruptions():
    rng = np.random.default_rng(17)
    params = ncsa_params(FIELD, 2, 1, 1, 7, x_secure=1, byzantine=1, noise_seed=1)
    assert params.threshold == 5
    omega = matmul_map(1, 1, 1)
    aa = [FIELD.rand_matrix(rng, 1, 1)]
    bb = [FIELD.rand_matrix(rng, 1, 1)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = []
    for s in range(7):
        shares = [xs_encode(FIELD, aa, params, 0, s),
                  xs_encode(FIELD, bb, params, 1, s)]
        answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
    forgeries = [0, 1, 5, 4321, 65536]
    for subset in itertools.combinations(range(7), 5):
        for victim in subset:
            for forged in forgeries:
                if forged == int(answers[victim][1][0, 0]):
                    continue
                tampered = [
                    (s, answers[s][1] if s != victim
                     else np.full((1, 1), forged, dtype=np.int64))
                    for s in subset
                ]
                evals, flagged = xsb_decode(FIELD, tampered, params)
                assert flagged == [victim]
                assert all(np.array_equal(e, t) for e, t in zip(evals, truth))


def test_xs_decode_with_two_noise_layers():
    # X = 2: the mask polynomial has degree 1 in alpha, widening the tail by N
    rng = np.random.default_rng(21)
    params = ncsa_params(FIELD, 2, 1, 2, 9, x_secure=2, noise_seed=4)
    assert params.threshold == 7
    omega = matmul_map(2, 2, 2)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = []
    for s in range(9):
        shares = [xs_encode(FIELD, aa, params, 0, s),
                  xs_encode(FIELD, bb, params, 1, s)]
        answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
    for subset in itertools.combinations(range(9), 7):
        evals, flagged = xsb_decode(FIELD, [answers[s] for s in subset], params)
        assert flagged == []
        assert all(np.array_equal(e, t) for e, t in zip(evals, truth))


def test_xsb_two_corruptions_with_budget_two():
    rng = np.random.default_rng(22)
    params = ncsa_params(FIELD, 2, 1, 1, 9, x_secure=1, byzantine=2,
                         noise_seed=6)
    assert params.threshold == 7
    omega = matmul_map(2, 2, 2)
    aa = [FIELD.rand_matrix(rng, 2, 2)]
    bb = [FIELD.rand_matrix(rng, 2, 2)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = []
    for s in range(9):
        shares = [xs_encode(FIELD, aa, params, 0, s),
                  xs_encode(FIELD, bb, params, 1, s)]
        answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
    for bad in [(0, 5), (2, 3), (7, 8)]:
        tampered = []
        for s in range(2, 9):
            y = answers[s][1]
            if s in bad:
                y = (y + 17 + s) % FIELD.q
            tampered.append((s, y))
        evals, flagged = xsb_decode(FIELD, tampered, params)
        assert flagged == sorted(s for s in bad if s >= 2)
        assert all(np.array_equal(e, t) for e, t in zip(evals, truth))


def test_determinant_batch_end_to_end():
    rng = np.random.default_rng(23)
    omega = determinant_map(3)
    params = ncsa_params(FIELD, 3, 1, 2, 7)
    batches = [[FIELD.rand_matrix(rng, 3, 1).reshape(3) for _ in range(2)]
               for _ in range(3)]
    truth = harness.direct_evaluations(FIELD, omega, batches)
    evals, report = harness.run_nlinear(
        FIELD, params, omega, batches,
        harness.StragglerModel(responsive=(1, 3, 4, 6)))
    assert all(np.array_equal(e, t) for e, t in zip(evals, truth))
    assert report.measured == report.theory


def test_xsb_over_budget_detected():
    rng = np.random.default_rng(18)
    params = ncsa_params(FIELD, 2, 1, 1, 7, x_secure=1, byzantine=1, noise_seed=2)
    omega = matmul_map(1, 1, 1)
    aa = [FIELD.rand_matrix(rng, 1, 1)]
    bb = [FIELD.rand_matrix(rng, 1, 1)]
    answers = []
    for s in range(5):
        shares = [xs_encode(FIELD, aa, params, 0, s),
                  xs_encode(FIELD, bb, params, 1, s)]
        answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
    tampered = [(s, (y + 1 + s) % FIELD.q if s < 2 else y) for s, y in answers]
    with pytest.raises(DecodingFailureError):
        xsb_decode(FIELD, tampered, params)


def test_systematic_layout_parity():
    rng = np.random.default_rng(19)
    params = ncsa_params(FIELD, 2, 1, 2, 5, systematic=True)
    omega = matmul_map(2, 2, 2)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    shares = ncsa_systematic_encode(FIELD, [aa, bb], params)
    answers = [(s, ncsa_systematic_answer(FIELD, shares[s], omega, params, s))
               for s in range(5)]
    plain = []
    for s in range(5):
        sh = [csa.csa_encode_a(FIELD, aa, params, s),
              csa.csa_encode_a(FIELD, bb, params, s)]
        plain.append((s, ncsa_answer(FIELD, sh, omega, params, s)))
    for subset in itertools.combinations(range(5), 3):
        got = csa.systematic_decode(FIELD, [answers[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        via_plain = ncsa_decode(FIELD, [plain[s] for s in subset], params)
        assert all(np.array_equal(g, v) for g, v in zip(got, via_plain))


def test_systematic_forbidden_with_x_security():
    with pytest.raises(ParameterError):
        ncsa_params(FIELD, 2, 1, 2, 8, x_secure=1, systematic=True)
