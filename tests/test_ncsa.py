import hashlib
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from csacode import cli, csa, harness, ncsa
from csacode.errors import DecodingFailureError, ParameterError
from csacode.ffield import PrimeField
from csacode.ncsa import (PolynomialSpec, PolyTerm, determinant_map,
                          elementwise_product_map,
                          lcc_threshold, matmul_map, matrix_chain_map,
                          ncsa_answer, ncsa_decode, ncsa_params, ncsa_threshold,
                          noise_block, poly_batch_eval_answer,
                          xs_encode, xsb_decode, xsb_threshold)
from csacode import structmat
from csacode.structmat import CVSpec, matrix_rank, rs_error_correct, solve_batch
from reference import (check_multilinear, lcc_decode, lcc_encode, leibniz_det, noise_reference,
                       scaled_cv_matrix, scaling_constants, shake_words, xs_shares_each)

FIELD = PrimeField(65537)


# ---- maps ----

def test_builtin_maps_are_multilinear():
    rng = np.random.default_rng(0)
    for omega in (matmul_map(2, 3, 2), matrix_chain_map((2, 2, 2, 2)),
                  elementwise_product_map(3, 4), determinant_map(3)):
        assert check_multilinear(FIELD, omega, rng, trials=100)


def _determinant_stacks(rng, q, size):
    """(name, stack of size x size matrices) rows of the determinant table."""
    def draw(*lead):
        return rng.integers(0, q, size=lead + (size, size), dtype=np.int64)

    singular, swapped, zero_lead = draw(6), draw(6), draw(2, 3)
    singular[:2, 0] = 0  # a zero row; then a repeated column, and a row combining rows
    singular[2:4, :, -1] = singular[2:4, :, 0]
    singular[4:, -1] = (2 * singular[4:, 0] + (size > 2) * singular[4:, min(1, size - 1)]) % q
    swapped[:, 0, 0] = 0  # column 0's pivot lies lower, so rows swap
    zero_lead[..., 0] = 0
    zero_lead[..., size - 1, 0] = 1 + rng.integers(0, q - 1, size=(2, 3))
    return [("random", draw(8)), ("singular", singular), ("swapped", swapped),
            ("zero-column-but-last", zero_lead),  # servers x groups leading axes
            ("servers x groups", draw(3, 2)), ("zero", np.zeros((1, size, size), np.int64))]


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_determinant_map_against_leibniz_formula(q, size):
    # the whole stack's determinants, one elimination, against the signed
    # sum over permutations in Python ints, with the stack's leading axes
    field = PrimeField(q)
    omega = determinant_map(size)
    rng = np.random.default_rng(1000 * size + q % 1000)
    for name, mats in _determinant_stacks(rng, q, size):
        got = omega(field, *[mats[..., j] for j in range(size)])
        assert got.shape == mats.shape[:-2] + (1,) and got.dtype == np.int64, name
        want = [leibniz_det(q, m) for m in mats.reshape(-1, size, size)]
        assert got.reshape(-1).tolist() == want, name
        if name == "singular" and size > 1:
            assert not got.any(), name


@pytest.mark.parametrize("q", [65537, 2147483629])
@pytest.mark.parametrize("x", [2**63, 2**64 - 1])
def test_determinant_map_reduces_uint64_columns(q, x):
    # the columns are residues first; a plain cast once wrapped x to x - 2^64
    omega = determinant_map(2)
    for a, b, c, d in [(x, 1, x % q, 1), (x, 2**64 - 1, 5, x), (x, 0, 0, 1)]:
        cols = [np.array([a, c], dtype=np.uint64), np.array([b, d], dtype=np.uint64)]
        assert omega(PrimeField(q), *cols).tolist() == [(a * d - b * c) % q]


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


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_lcc_run_is_the_lagrange_code(q):
    # LCC as the paper's special case of CSA: "scheme": "lcc" builds N-CSA
    # with ell = 1 and kc = L, and its run equals both the Lagrange decode
    # and the direct oracle
    field = PrimeField(q)
    rng = np.random.default_rng(q % 1000)
    for omega, batch, servers in ((matmul_map(2, 3, 2), 3, 7),
                                  (matrix_chain_map((2, 2, 1, 2)), 2, 6)):
        params = cli._build_setup(field, "lcc", servers, {"kc": batch}, omega.arity)
        assert (params.ell, params.kc) == (1, batch)
        r = lcc_threshold(omega.arity, batch)
        batches = [[field.rand_matrix(rng, *shape) for _ in range(batch)]
                   for shape in omega.var_shapes]
        responsive = sorted(int(s) for s in rng.choice(servers, size=r + 1, replace=False))
        evals, report = harness.run_nlinear(field, params, omega, batches,
                                            harness.StragglerModel(responsive=responsive))
        assert report.theory.threshold == r
        betas = params.poles  # the Lagrange anchors sit at the Cauchy poles
        answers = [(params.samples[s], omega(field, *[
            lcc_encode(field, b, betas, params.samples[s]) for b in batches]))
            for s in responsive]
        via_lcc = lcc_decode(field, answers, betas, omega.arity)
        truth = harness.direct_evaluations(field, omega, batches)
        assert len(evals) == len(via_lcc) == len(truth) == batch
        for e, x, t in zip(evals, via_lcc, truth):
            assert np.array_equal(e, x) and np.array_equal(e, t)
        # share by share: the N-CSA share of a batch is the Lagrange share of
        # the batch scaled by c_k = prod_{k' != k} (f_k' - f_k)
        consts = scaling_constants(field, params)
        for v, entries in enumerate(batches):
            scaled = [c * x % q for c, x in zip(consts, entries)]
            for s in range(servers):
                assert np.array_equal(ncsa.xs_encode(field, [entries], params, s)[0][0],
                                      lcc_encode(field, scaled, betas, params.samples[s]))


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


def _one_axis_matmul(rows, cols):
    """A (rows x 1) @ (1 x cols) map whose fn takes exactly one leading axis,
    as the NLinearMap contract allows: only a server sequence can call it.
    One inner term keeps einsum's int64 sums exact near q = 2^31."""
    return ncsa.NLinearMap(2, ((rows, 1), (1, cols)), (rows, cols),
                           lambda field, a, b: np.einsum("sij,sjk->sik", a, b) % field.q,
                           "one-axis", rows * cols)


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("x_secure", [0, 2])
def test_a_server_sequence_answers_like_each_server_alone(q, ell, x_secure):
    # a sequence of servers answers with one map call on its groups' stack;
    # its rows equal each server answering alone (one call per group) and
    # sum_l Delta_s(l)^-1 Omega(group l) in Python ints, and it counts the
    # same multiplications
    field, kc = PrimeField(q), 1 if q == 13 else 2
    rng = np.random.default_rng([q % 1000, ell, x_secure])
    square = matmul_map(2, 2, 2)
    spec = PolynomialSpec(2, (PolyTerm(1, square, (0, 1)), PolyTerm(3, square, (1, None))))
    jobs = [(matmul_map(2, 3, 2),) * 2, (matrix_chain_map((2, 3, 1, 2)),) * 2,
            (elementwise_product_map(3, 4),) * 2, (determinant_map(3),) * 2,
            (spec, spec), (_one_axis_matmul(2, 3), matmul_map(2, 1, 3))]
    for job, alone_job in jobs:
        arity, shapes = job.arity, square.var_shapes if job is spec else job.var_shapes
        terms = ([(t.weight, t.omega, t.slots) for t in spec.terms] if job is spec
                 else [(1, alone_job, range(arity))])
        servers = xsb_threshold(arity, ell, kc, x_secure, 0) + 1
        params = ncsa_params(field, arity, ell, kc, servers, x_secure=x_secure, noise_seed=3)
        batches = [[rng.integers(0, q, size=shape, dtype=np.int64)
                    for _ in range(params.batch_size)] for shape in shapes]
        ones = [[np.ones(shapes[0], dtype=np.int64)] * params.batch_size] if job is spec else []
        shares = xs_encode(field, batches + ones, params, range(servers))
        listed = [servers - 1, 0, servers // 2]

        def answer(j, s, counter):
            by_var = {v: sh[s] for v, sh in enumerate(shares)}
            by_var[None] = by_var.get(len(batches))
            if isinstance(j, PolynomialSpec):
                return poly_batch_eval_answer(field, by_var, j, params, s, counter)
            return ncsa_answer(field, [by_var[v] for v in range(arity)], j, params, s, counter)

        together, alone = harness.OpCounter(), harness.OpCounter()
        rows = answer(job, listed, together)
        assert len(rows) == len(listed) and rows.dtype == np.int64
        for i, s in enumerate(listed):
            y = answer(alone_job, s, alone)
            assert np.array_equal(rows[i], y)
            want = 0
            for l in range(ell):
                delta = math.prod(params.pole(l, k) - params.samples[s] for k in range(kc))
                for weight, term, slots in terms:
                    args = [shares[len(batches) if v is None else v][s][l] for v in slots]
                    want = want + pow(delta, q - 2, q) * weight * term(field, *args).astype(object)
            assert np.array_equal(y, (want % q).astype(np.int64))
        assert together.mults == alone.mults
        if job is not spec:  # the map and its Delta^-1 scaling, every server and group
            assert together.mults == (job.mults is not None and len(listed) * ell * (
                job.mults + math.prod(job.out_shape)))


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
        share = xs_encode(FIELD, [zero], params, s, noise=noise)[0][0]
        assert np.array_equal(share, delta * noise[(0, 0, 1)] % FIELD.q)


def test_xs_noise_constant_across_servers():
    rng = np.random.default_rng(15)
    params = ncsa_params(FIELD, 2, 1, 2, 6, x_secure=1, noise_seed=99)
    batch = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    base = [csa.csa_encode_a(FIELD, batch, params, s) for s in range(6)]
    secure = [xs_encode(FIELD, [batch], params, s)[0] for s in range(6)]
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
        for s in range(4):
            shares = [xs_encode(field, [batch, batch], params, s,
                                noise={(v, 0, 1): np.full((1, 1), z, dtype=np.int64)
                                       for v in range(2)})
                      for z in range(13)]
            for n in range(2):
                seen = sorted(int(sh[n][0][0, 0]) for sh in shares)
                distributions[(value, n, s)] = seen
                assert seen == list(range(13))
    # identical distributions across the two data values: TV distance zero
    for n in range(2):
        for s in range(4):
            assert distributions[(0, n, s)] == distributions[(7, n, s)]


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_noise_block_matches_reference(q):
    field = PrimeField(q)
    for key, shape in [((0, 0, 0, 0, 1), (1, 1)), ((7, 1, 1, 0, 2), (3, 4)),
                       ((99, 3, 0, 2, 1), (5,)), ((-4, 0, 2, 1, 3), (2, 3, 2))]:
        block = noise_block(field, *key, shape)
        assert block.shape == shape and block.dtype == np.int64
        assert block.reshape(-1).tolist() == noise_reference(q, key, block.size)


def _check_rejection_and_stream_extension(monkeypatch, q, width):
    """An 8x8 block at a stand-in modulus (noise_block reads only .q) that
    rejects about one word in four, so the block both rejects words and
    reads its stream further than the first digest, in words of ``width``
    bytes, against the reference's words."""
    field = types.SimpleNamespace(q=q)
    key = (5, 1, 0, 1, 2)
    limit = (2**(8 * width) // field.q) * field.q
    assert any(w >= limit for w in itertools.islice(shake_words(key, width), 64))
    want = noise_reference(field.q, key, 64)
    reads = []
    shake = hashlib.shake_256

    class Recorded:
        def __init__(self, data):
            self._xof = shake(data)

        def digest(self, length):
            reads.append(length)
            return self._xof.digest(length)

    monkeypatch.setattr(hashlib, "shake_256", Recorded)
    block = noise_block(field, *key, (8, 8))
    assert len(reads) >= 2 and all(n % width == 0 for n in reads)
    assert block.reshape(-1).tolist() == want


def test_noise_block_rejection_and_stream_extension_match_reference(monkeypatch):
    # At the benchmark moduli a word is rejected with probability under
    # 2^-26; a modulus just above 2^62 is read in 8-byte words
    _check_rejection_and_stream_extension(monkeypatch, 2**62 + 1, 8)


def test_noise_block_reads_4_byte_words_up_to_2_32(monkeypatch):
    # every PrimeField modulus lies below 2^31: its words are 4 bytes, the
    # rejection limit the largest multiple of q below 2^32
    _check_rejection_and_stream_extension(monkeypatch, 3 * 2**30 + 1, 4)


_SHAPES = ((3, 2), (2,), (1, 2, 2), (4, 1))  # a variable's entry shape, mixed


def _assert_shares_equal(got, want):
    """Per variable, one share stack (or list of rows) against the
    reference's per-server shares: dtype, shape and bytes."""
    assert len(got) == len(want)
    for stack, rows in zip(got, want):
        assert len(stack) == len(rows)
        for g, w in zip(stack, rows):
            w = np.stack(w)
            assert (g.dtype, g.shape, g.tobytes()) == (np.dtype(np.int64), w.shape, w.tobytes())


@pytest.mark.parametrize("q", [257, 65537, 2147483629])
@pytest.mark.parametrize("x_secure", [0, 1, 2, 3])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_xs_encode_matches_reference_shares(q, x_secure, arity):
    # one product for every variable gives exactly the shares of encoding
    # each variable on its own, entry by entry in Python ints: a server
    # list out of order and one server alone, seeded and overridden noise,
    # variables of mixed entry shapes
    field = PrimeField(q)
    ell = 1 + (x_secure + arity) % 2
    rng = np.random.default_rng(100 * x_secure + 10 * arity + ell)
    params = ncsa_params(field, arity, ell, 2,
                         xsb_threshold(arity, ell, 2, x_secure, 0) + 1,
                         x_secure=x_secure, noise_seed=q % 1000)
    batches = [[field.rand_matrix(rng, math.prod(shape), 1).reshape(shape)
                for _ in range(params.batch_size)] for shape in _SHAPES[:arity]]
    noise = {(v, l, x): field.rand_matrix(rng, math.prod(shape), 1).reshape(shape)
             for v, shape in enumerate(_SHAPES[:arity]) for l in range(ell)
             for x in range(1, x_secure + 1)}
    servers = [params.servers - 2, 0, params.servers - 1, 1]
    for override in (None, noise):
        want = xs_shares_each(q, params, batches, servers, override)
        _assert_shares_equal(xs_encode(field, batches, params, servers, noise=override), want)
        for i, s in enumerate(servers):
            alone = xs_encode(field, batches, params, s, noise=override)
            _assert_shares_equal([[share] for share in alone], [[rows[i]] for rows in want])


@pytest.mark.parametrize("q", [257, 65537, 2147483629])
def test_xs_encode_systematic_and_constant_slot_match_reference(q, monkeypatch):
    # the systematic layout: raw rows (one-group shares) and coded rows of
    # every variable from one product; and a spec round, whose constant-one
    # batch is the last variable of the round's one encode over all servers
    field = PrimeField(q)
    rng = np.random.default_rng(q)
    params = ncsa_params(field, 3, 2, 2, 12, systematic=True)
    batches = [[field.rand_matrix(rng, math.prod(shape), 1).reshape(shape)
                for _ in range(params.batch_size)] for shape in _SHAPES[:3]]
    servers = [5, 0, 11, 3, 4]  # raw servers are 0..3
    got = xs_encode(field, batches, params, servers)
    assert all(isinstance(rows, list) for rows in got)
    _assert_shares_equal(got, xs_shares_each(q, params, batches, servers))

    params = ncsa_params(field, 2, 1, 2, 8, x_secure=1, noise_seed=5)
    omega = matmul_map(2, 2, 2)
    spec = PolynomialSpec(2, (PolyTerm(1, omega, (0, 1)), PolyTerm(3, omega, (1, None))))
    batches = [[field.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    seen, encode = [], ncsa.xs_encode
    monkeypatch.setattr(ncsa, "xs_encode", lambda *args, **kw: seen.append(
        (args, encode(*args, **kw))) or seen[-1][1])
    harness.run_nlinear(field, params, spec, batches,
                        harness.StragglerModel(responsive=(0, 2, 3, 5, 6, 7)))
    (args, shares), = seen
    ones = [np.ones((2, 2), dtype=np.int64)] * 2
    assert [len(b) for b in args[1]] == [2, 2, 2] and list(args[3]) == list(range(8))
    _assert_shares_equal(shares, xs_shares_each(q, params, batches + [ones], range(8)))


# (N, ell, kc, X, S - R): (3, 1, 1, 3) and (2, 1, 2, 3) have R = S
_SECURE_GRID = [(2, 1, 1, 1, 2), (2, 1, 2, 2, 1), (2, 2, 1, 2, 2), (2, 1, 1, 3, 2),
                (3, 1, 1, 3, 0), (2, 1, 2, 3, 0)]


@pytest.mark.parametrize("q", [13, 65537])
def test_every_x_servers_see_full_rank_noise(q):
    # the paper's X-security claim, exactly: for every set of X servers the
    # noise columns of the generator have rank X in every group, so their
    # shares are uniform whatever the data
    field = PrimeField(q)
    for arity, ell, kc, x_secure, spare in _SECURE_GRID:
        r = xsb_threshold(arity, ell, kc, x_secure, 0)
        params = ncsa_params(field, arity, ell, kc, r + spare, x_secure=x_secure)
        weights = ncsa._weights(field, params.code, tuple(range(params.servers)))
        assert weights.shape == (params.servers, ell, kc + x_secure)
        for colluders in itertools.combinations(range(params.servers), x_secure):
            for l in range(ell):
                assert matrix_rank(field, weights[list(colluders), l, kc:]) == x_secure


@pytest.mark.parametrize("spec", [False, True])
def test_a_round_draws_x_noise_blocks_a_group(monkeypatch, spec):
    # X blocks per (variable, group), drawn as one (ell, X, entry size)
    # block a variable, keyed (var, 0, 0, 0); a spec's constant-one slot
    # draws its own under the next variable index
    params = ncsa_params(FIELD, 2, 2, 2, xsb_threshold(2, 2, 2, 2, 0) + 1, x_secure=2)
    omega = matmul_map(2, 2, 2)
    job = (PolynomialSpec(2, (PolyTerm(1, omega, (0, 1)), PolyTerm(3, omega, (0, None))))
           if spec else omega)
    rng = np.random.default_rng(22)
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(4)] for _ in range(2)]
    keys, draw = [], ncsa.noise_block
    monkeypatch.setattr(ncsa, "noise_block",
                        lambda *args: keys.append(args[2:]) or draw(*args))
    harness.run_nlinear(FIELD, params, job, batches,
                        harness.StragglerModel(count=params.threshold))
    variables = 3 if spec else 2
    assert keys == [(v, 0, 0, 0, (2, 2, 4)) for v in range(variables)]
    assert ncsa._weights(FIELD, params.code, (0,)).shape[-1] == params.kc + params.x_secure


def test_small_rounds_pay_once_per_group_and_once_per_stack(monkeypatch):
    # every variable's data and noise blocks go through one generator
    # product for all groups and every listed server, cold or warm: one
    # product, not N * ell; and a determinant stack is one elimination, no
    # _row_reduce per matrix
    params = ncsa_params(FIELD, 3, 2, 2, 20, x_secure=2, noise_seed=8)
    rng = np.random.default_rng(12)
    batches = [[FIELD.rand_matrix(rng, *shape) for _ in range(params.batch_size)]
               for shape in ((3, 2), (2, 4), (4, 1))]
    calls, reductions = [], []
    matmul = PrimeField.matmul
    monkeypatch.setattr(PrimeField, "matmul",
                        lambda *args, **kw: calls.append(1) or matmul(*args, **kw))
    for module in (structmat, ncsa):
        monkeypatch.setattr(module, "_row_reduce", lambda *args: reductions.append(1),
                            raising=False)
    for _ in range(2):
        calls.clear()
        shares = xs_encode(FIELD, batches, params, range(params.servers))
        assert len(calls) == 1 and len(shares) == len(batches)
    cols = [FIELD.rand_matrix(rng, 10, 4) for _ in range(4)]
    assert determinant_map(4)(FIELD, *cols).shape == (10, 1)
    assert reductions == []


def test_noise_block_is_uniform_at_q13():
    # one fixed 1,300-entry block: every residue appears, and Pearson's
    # statistic stays under 32.91, the 0.999 quantile of chi-square with
    # 12 degrees of freedom
    block = noise_block(PrimeField(13), 3, 0, 0, 0, 1, (1300,))
    counts = np.bincount(block, minlength=13)
    assert counts.size == 13 and counts.min() > 0
    assert ((counts - 100) ** 2 / 100).sum() < 32.91


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
        shares = xs_encode(FIELD, [aa, bb], params, s)
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
        shares = xs_encode(FIELD, [aa, bb], params, s)
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
        shares = xs_encode(FIELD, [aa, bb], params, s)
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
        shares = xs_encode(FIELD, [aa, bb], params, s)
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
        shares = xs_encode(FIELD, [aa, bb], params, s)
        answers.append((s, ncsa_answer(FIELD, shares, omega, params, s)))
    tampered = [(s, (y + 1 + s) % FIELD.q if s < 2 else y) for s, y in answers]
    with pytest.raises(DecodingFailureError):
        xsb_decode(FIELD, tampered, params)


# ---- interleaved error location ----


def _xsb_round(field, params, seed):
    """Honest answers of every server to an X-secure matmul batch, and the
    true evaluations."""
    rng = np.random.default_rng(seed)
    omega = matmul_map(2, 2, 3)
    batches = [[field.rand_matrix(rng, *shape) for _ in range(params.batch_size)]
               for shape in omega.var_shapes]
    shares = xs_encode(field, batches, params, range(params.servers))
    answers = [(s, ncsa_answer(field, [sh[s] for sh in shares], omega, params, s))
               for s in range(params.servers)]
    return answers, harness.direct_evaluations(field, omega, batches)


def _per_entry_decode(field, answers, params):
    """The reference decoder: Berlekamp-Welch on every answer entry, the
    union of the flagged rows, then the reduced solve on the clean ones."""
    r, b = params.threshold, params.byzantine
    answers = list(answers)[:r]
    alphas = [params.samples[s] for s, _ in answers]
    scale = []
    for alpha in alphas:
        w = 1
        for f in params.poles:
            w = w * (f - alpha) % field.q
        scale.append(w)
    scaled = [[int(v) * w % field.q for v in y.reshape(-1)]
              for (_, y), w in zip(answers, scale)]
    flagged = set()
    for col in range(len(scaled[0])):
        _, rows = rs_error_correct(field, alphas, [row[col] for row in scaled],
                                   degree_bound=r - 2 * b, max_errors=b)
        flagged.update(rows)
    if len(flagged) > b:
        raise DecodingFailureError("over budget")
    clean = [i for i in range(r) if i not in flagged][: r - 2 * b]
    mat = scaled_cv_matrix(field, CVSpec(params.poles, tuple(alphas[i] for i in clean)),
                           scaling_constants(field, params, params.arity - 1))
    sol = solve_batch(field, mat, np.stack([answers[i][1].reshape(-1) for i in clean]))
    shape = answers[0][1].shape
    return ([sol[j].reshape(shape) for j in range(params.batch_size)],
            sorted(answers[i][0] for i in flagged))


def _outcome(decode, *args):
    try:
        evals, flagged = decode(*args)
    except DecodingFailureError:
        return "DecodingFailureError"
    return [e.tobytes() for e in evals], flagged


@pytest.fixture
def locator_calls(monkeypatch):
    """Calls of ncsa's rs_error_correct: none on the syndrome fast path, one
    per answer entry when the per-entry loop decides (up to the entry where
    it raises)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rs_error_correct(*args, **kwargs)

    monkeypatch.setattr(ncsa, "rs_error_correct", counted)
    return calls


def _forge(answers, server, entries, offsets, q):
    out = []
    for s, y in answers:
        if s == server:
            y = y.copy()
            flat = y.reshape(-1)
            for e, d in zip(entries, offsets):
                flat[e] = (flat[e] + d) % q
        out.append((s, y))
    return out


def test_xsb_locator_one_forged_entry(locator_calls):
    params = ncsa_params(FIELD, 2, 1, 2, 10, x_secure=1, byzantine=1, noise_seed=3)
    answers, truth = _xsb_round(FIELD, params, 40)
    used = [answers[s] for s in (1, 2, 3, 5, 6, 8, 9)]
    tampered = _forge(used, 3, [4], [1], FIELD.q)
    evals, flagged = xsb_decode(FIELD, tampered, params)
    assert len(locator_calls) == 0
    assert flagged == [3]
    assert all(np.array_equal(e, t) for e, t in zip(evals, truth))
    assert _outcome(xsb_decode, FIELD, tampered, params) == \
        _outcome(_per_entry_decode, FIELD, tampered, params)


def test_xsb_locator_one_forged_entry_on_each_of_two_servers(locator_calls):
    params = ncsa_params(FIELD, 2, 1, 2, 12, x_secure=1, byzantine=2, noise_seed=4)
    answers, truth = _xsb_round(FIELD, params, 41)
    used = [answers[s] for s in range(1, 10)]
    tampered = _forge(_forge(used, 2, [0], [5], FIELD.q), 6, [5], [65536], FIELD.q)
    evals, flagged = xsb_decode(FIELD, tampered, params)
    assert len(locator_calls) == 0
    assert flagged == [2, 6]
    assert all(np.array_equal(e, t) for e, t in zip(evals, truth))
    assert _outcome(xsb_decode, FIELD, tampered, params) == \
        _outcome(_per_entry_decode, FIELD, tampered, params)


def test_xsb_forgery_cancelling_under_the_projection_takes_the_fallback(
        locator_calls):
    params = ncsa_params(FIELD, 2, 1, 2, 10, x_secure=1, byzantine=1, noise_seed=5)
    answers, truth = _xsb_round(FIELD, params, 42)
    used = answers[:7]
    entries = used[0][1].size
    w = ncsa._projection_weights(FIELD, entries)
    # offsets d with w . d = 0: the projected column shows no error at all
    tampered = _forge(used, 4, [1, 3], [int(w[3]), FIELD.q - int(w[1])], FIELD.q)
    assert (int(w[1]) * int(w[3]) - int(w[3]) * int(w[1])) % FIELD.q == 0
    evals, flagged = xsb_decode(FIELD, tampered, params)
    assert len(locator_calls) == entries
    assert flagged == [4]
    assert all(np.array_equal(e, t) for e, t in zip(evals, truth))
    assert _outcome(xsb_decode, FIELD, tampered, params) == \
        _outcome(_per_entry_decode, FIELD, tampered, params)


def test_xsb_locator_over_budget_still_raises(locator_calls):
    params = ncsa_params(FIELD, 2, 1, 2, 10, x_secure=1, byzantine=1, noise_seed=6)
    answers, _ = _xsb_round(FIELD, params, 43)
    tampered = _forge(_forge(answers[:7], 0, [0], [9], FIELD.q), 5, [2, 3],
                      [1, 2], FIELD.q)
    with pytest.raises(DecodingFailureError):
        xsb_decode(FIELD, tampered, params)
    assert len(locator_calls) >= 1  # the per-entry loop raised
    with pytest.raises(DecodingFailureError):
        _per_entry_decode(FIELD, tampered, params)


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_xsb_locator_matches_per_entry_decoding_sweep(q, monkeypatch):
    field = PrimeField(q)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rs_error_correct(*args, **kwargs)

    monkeypatch.setattr(ncsa, "rs_error_correct", counted)
    rng = np.random.default_rng(q)
    paths = {"fast": 0, "fallback": 0}
    # (ell, kc, X, B, S): every layout fits the 13 points of GF(13)
    layouts = [(1, 1, 1, 1, 8), (1, 2, 1, 1, 9), (1, 1, 1, 2, 9), (2, 1, 2, 1, 10)]
    for trial in range(40):
        ell, kc, x, b, servers = layouts[trial % len(layouts)]
        params = ncsa_params(field, 2, ell, kc, servers, x_secure=x, byzantine=b,
                             noise_seed=trial)
        answers, truth = _xsb_round(field, params, int(rng.integers(2**31)))
        picked = sorted(rng.choice(servers, size=params.threshold, replace=False))
        used = [answers[s] for s in picked]
        size = used[0][1].size
        forgers = rng.choice(picked, size=int(rng.integers(0, b + 2)), replace=False)
        for s in forgers:
            entries = rng.choice(size, size=int(rng.integers(1, size + 1)),
                                 replace=False)
            used = _forge(used, s, entries, rng.integers(1, q, size=len(entries)), q)
        del calls[:]
        got = _outcome(xsb_decode, field, used, params)
        paths["fallback" if calls else "fast"] += 1
        assert got == _outcome(_per_entry_decode, field, used, params)
        if len(forgers) <= b:
            assert got[1] == sorted(int(s) for s in forgers)
            assert got[0] == [t.tobytes() for t in truth]
    assert paths["fast"] and paths["fallback"]


def _locator_case(field, rng, b, forged, entries, cancel=False):
    """(located rows or None, rs_error_correct's rows or None) on one drawn
    round: R answers of a random responsive order whose scaled entries lie
    on polynomials of degree < width, ``forged`` rows off them, and the
    locator on the plan's projected syndromes against Berlekamp-Welch on
    the same projected column.  ``cancel`` forges one row by offsets the
    projection cancels."""
    q = field.q
    ell, kc, x = [(1, 1, 0), (1, 1, 1), (1, 2, 1)][int(rng.integers(3))]
    r = xsb_threshold(2, ell, kc, x, b)
    servers = int(rng.integers(r, min(r + 3, q - ell * kc) + 1))
    params = ncsa_params(field, 2, ell, kc, servers, x_secure=x, byzantine=b)
    listed = tuple(int(s) for s in rng.permutation(servers)[:r])
    alphas = [params.samples[s] for s in listed]
    width = r - 2 * b
    coeffs = rng.integers(0, q, size=(width, entries)) * int(rng.integers(2))  # or zero
    scaled = np.array([[sum(int(c) * pow(a, j, q) for j, c in enumerate(coeffs[:, e])) % q
                        for e in range(entries)] for a in alphas], dtype=np.int64)
    w = ncsa._projection_weights(field, entries)
    for i in rng.choice(r, size=min(forged, r), replace=False):
        scaled[i] = (scaled[i] + rng.integers(1, q, size=entries)) % q
    if cancel:  # w . d = 0: the projected column shows no error at all
        i = int(rng.integers(r))
        scaled[i, :2] = (scaled[i, :2] + [int(w[1]), q - int(w[0])]) % q
    poles = [math.prod(f - a for f in params.poles) % q for a in alphas]
    raw = np.array([[int(v) * pow(p, -1, q) % q for v in row] for row, p in zip(scaled, poles)],
                   dtype=np.int64)
    syndromes = field.matmul(ncsa._parity_checks(field, params.code, listed), raw)
    located = ncsa._error_locator(field, alphas, field.matmul(syndromes, w).tolist())
    column = [sum(int(v) * int(c) for v, c in zip(row, w)) % q for row in scaled]
    try:
        _, expected = rs_error_correct(field, alphas, column, degree_bound=width, max_errors=b)
    except DecodingFailureError:
        expected = None
    return None if located is None else sorted(located[0]), expected


@pytest.mark.parametrize("q", [13, 257, 65537, 2147483629])
def test_error_locator_matches_berlekamp_welch_on_the_projected_column(q):
    # the syndrome locator flags the rows that Berlekamp-Welch corrects on
    # the same projected column, or fails where it fails: within the budget,
    # past it (up to B + 2 forged rows), on zero syndromes and on a
    # forgery the projection cancels
    field = PrimeField(q)
    rng = np.random.default_rng(q)
    seen = {"clean": 0, "located": 0, "failed": 0}
    for trial in range(90):
        b = 1 + trial % 3
        forged = trial // 3 % (b + 3)  # 0 to B + 2
        cancel = trial % 10 == 9
        located, expected = _locator_case(field, rng, b, forged, int(rng.integers(2, 5)), cancel)
        assert located == expected, (trial, b, forged)
        seen["failed" if expected is None else "located" if expected else "clean"] += 1
    assert all(seen.values()), seen


def test_systematic_layout_parity():
    rng = np.random.default_rng(19)
    params = ncsa_params(FIELD, 2, 1, 2, 5, systematic=True)
    omega = matmul_map(2, 2, 2)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    plain_params = ncsa_params(FIELD, 2, 1, 2, 5)

    def answers(p):  # raw servers hold one-group shares and answer Omega of them
        shares = xs_encode(FIELD, [aa, bb], p, range(5))
        return [(s, ncsa_answer(FIELD, [shares[0][s], shares[1][s]], omega, p, s))
                for s in range(5)]

    raw, plain = answers(params), answers(plain_params)
    for s in range(2):
        assert np.array_equal(raw[s][1], truth[s])
    for subset in itertools.combinations(range(5), 3):
        got = ncsa_decode(FIELD, [raw[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        via_plain = ncsa_decode(FIELD, [plain[s] for s in subset], plain_params)
        assert all(np.array_equal(g, v) for g, v in zip(got, via_plain))


def test_systematic_forbidden_with_x_security():
    with pytest.raises(ParameterError, match="X-security"):
        ncsa_params(FIELD, 2, 1, 2, 8, x_secure=1, systematic=True)


def test_systematic_forbidden_with_a_byzantine_budget():
    # once accepted here, then refused by run_nlinear as "X-security"
    with pytest.raises(ParameterError, match="Byzantine budget"):
        ncsa_params(FIELD, 2, 1, 2, 9, byzantine=1, systematic=True)
