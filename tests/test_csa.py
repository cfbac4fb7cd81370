import itertools
from fractions import Fraction

import numpy as np
import pytest

from csacode import csa, gcsa, harness, ncsa
from csacode.csa import (csa_answer, csa_decode, csa_encode_a,
                         csa_encode_b, csa_params, csa_threshold,
                         interference_rank)
from csacode.errors import InsufficientAnswersError, ParameterError
from csacode.ffield import PrimeField
from csacode.structmat import CVSpec, solve_batch
from reference import (confluent_decode_matrix, gcsa_paper_matrix, scaled_cv_matrix,
                       scaling_constants, xsb_threshold)

FIELD = PrimeField(65537)


def make_instance(rng, ell, kc, servers, rows=2, inner=2, cols=2):
    params = csa_params(FIELD, ell, kc, servers)
    batch = params.batch_size
    aa = [FIELD.rand_matrix(rng, rows, inner) for _ in range(batch)]
    bb = [FIELD.rand_matrix(rng, inner, cols) for _ in range(batch)]
    answers = []
    for s in range(servers):
        sa = csa_encode_a(FIELD, aa, params, s)
        sb = csa_encode_b(FIELD, bb, params, s)
        answers.append((s, csa_answer(FIELD, sa, sb)))
    return params, aa, bb, answers


def test_threshold_table():
    assert csa_threshold(1, 2) == 3
    assert csa_threshold(2, 2) == 5
    assert csa_threshold(1, 3) == 5
    assert csa_threshold(1, 4) == 7
    assert csa_threshold(2, 4) == 11


def test_params_validation():
    with pytest.raises(ParameterError):
        csa_params(FIELD, 2, 2, 4)  # R = 5 > S
    with pytest.raises(ParameterError):
        csa_params(FIELD, 1, 2, 5, poles=(1, 1))
    with pytest.raises(ParameterError):
        csa_params(FIELD, 1, 2, 5, poles=(1, 2), samples=(2, 9, 10, 11, 12))
    small = PrimeField(13)
    with pytest.raises(ParameterError):
        csa_params(small, 2, 4, 8)  # L = 8 > q - S
    for systematic in (False, True):  # refused before any of 10^20 points is built
        with pytest.raises(ParameterError, match="pairwise distinct"):
            csa_params(FIELD, 1, 1, 10**20, systematic=systematic)


def test_encode_a_single_slot_is_plain_copy():
    rng = np.random.default_rng(0)
    params = csa_params(FIELD, 3, 1, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(3)]
    for s in range(5):
        shares = csa_encode_a(FIELD, aa, params, s)
        assert all(np.array_equal(sh, a) for sh, a in zip(shares, aa))


def test_encode_b_single_slot_cauchy():
    rng = np.random.default_rng(1)
    params = csa_params(FIELD, 1, 1, 3)
    bb = [FIELD.rand_matrix(rng, 2, 2)]
    for s in range(3):
        w = FIELD.inv(FIELD.sub(params.poles[0], params.samples[s]))
        assert np.array_equal(csa_encode_b(FIELD, bb, params, s)[0],
                              w * bb[0] % FIELD.q)


def test_encode_matches_printed_two_slot_form():
    rng = np.random.default_rng(2)
    params = csa_params(FIELD, 1, 2, 4)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    f11, f12 = params.poles
    for s in range(4):
        alpha = params.samples[s]
        want = (FIELD.sub(f12, alpha) * aa[0] + FIELD.sub(f11, alpha) * aa[1]) % FIELD.q
        assert np.array_equal(csa_encode_a(FIELD, aa, params, s)[0], want)


def test_encode_a_matches_rational_form():
    # expanded form == Delta * sum_k (f - alpha)^{-1} A with explicit inverses
    rng = np.random.default_rng(3)
    params = csa_params(FIELD, 2, 3, 12)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(6)]
    for s in (0, 5, 11):
        alpha = params.samples[s]
        shares = csa_encode_a(FIELD, aa, params, s)
        for l in range(2):
            delta = 1
            for k in range(3):
                delta = delta * FIELD.sub(params.pole(l, k), alpha) % FIELD.q
            acc = np.zeros_like(aa[0])
            for k in range(3):
                w = delta * FIELD.inv(FIELD.sub(params.pole(l, k), alpha)) % FIELD.q
                acc = (acc + w * aa[3 * l + k]) % FIELD.q
            assert np.array_equal(shares[l], acc)


def test_answer_matches_symbolic_expansion():
    # Y_s = sum over (l, k, k') of the cleared-denominator cross products
    rng = np.random.default_rng(4)
    params = csa_params(FIELD, 2, 2, 6)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    for s in range(6):
        alpha = params.samples[s]
        sa = csa_encode_a(FIELD, aa, params, s)
        sb = csa_encode_b(FIELD, bb, params, s)
        y = csa_answer(FIELD, sa, sb)
        acc = np.zeros_like(y)
        for l in range(2):
            for k in range(2):
                for k2 in range(2):
                    w = 1
                    for k3 in range(2):
                        if k3 != k:
                            w = w * FIELD.sub(params.pole(l, k3), alpha) % FIELD.q
                    w = w * FIELD.inv(FIELD.sub(params.pole(l, k2), alpha)) % FIELD.q
                    prod = FIELD.matmul(aa[2 * l + k], bb[2 * l + k2])
                    acc = (acc + w * prod) % FIELD.q
        assert np.array_equal(y, acc)


def test_decode_single_product():
    rng = np.random.default_rng(5)
    params, aa, bb, answers = make_instance(rng, 1, 1, 3)
    got = csa_decode(FIELD, answers[2:], params)
    assert np.array_equal(got[0], FIELD.matmul(aa[0], bb[0]))


def test_decode_2x2_all_56_subsets():
    rng = np.random.default_rng(6)
    params, aa, bb, answers = make_instance(rng, 2, 2, 8)
    truth = harness.direct_products(FIELD, aa, bb)
    count = 0
    for subset in itertools.combinations(range(8), 5):
        got = csa_decode(FIELD, [answers[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        count += 1
    assert count == 56


def test_double_batch_same_interference_budget():
    # doubling the batch from one group of four to two groups of four only
    # raises the threshold from 7 to 11: the three interference dimensions
    # are shared across groups
    rng = np.random.default_rng(60)
    assert csa_threshold(1, 4) == 7
    assert csa_threshold(2, 4) == 11
    params, aa, bb, answers = make_instance(rng, 2, 4, 14)
    truth = harness.direct_products(FIELD, aa, bb)
    for s, (sa_idx, y) in enumerate(answers):
        sa = csa_encode_a(FIELD, aa, params, s)
        sb = csa_encode_b(FIELD, bb, params, s)
        # the answer is the two-group sum of coded products
        want = (FIELD.matmul(sa[0], sb[0]) + FIELD.matmul(sa[1], sb[1])) % FIELD.q
        assert np.array_equal(y, want)
    rng2 = np.random.default_rng(61)
    subsets = list(itertools.combinations(range(14), 11))
    for i in rng2.choice(len(subsets), size=30, replace=False):
        got = csa_decode(FIELD, [answers[s] for s in subsets[int(i)]], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_scaling_constants_printed_1x3():
    params = csa_params(FIELD, 1, 3, 6)
    f11, f12, f13 = params.poles
    c = scaling_constants(FIELD, params)
    assert c[0] == FIELD.mul(FIELD.sub(f12, f11), FIELD.sub(f13, f11))
    assert c[1] == FIELD.mul(FIELD.sub(f11, f12), FIELD.sub(f13, f12))
    assert c[2] == FIELD.mul(FIELD.sub(f11, f13), FIELD.sub(f12, f13))


def test_oracle_equivalence_parameter_sweep():
    rng = np.random.default_rng(7)
    for ell, kc in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        r = csa_threshold(ell, kc)
        params, aa, bb, answers = make_instance(rng, ell, kc, r + 3)
        truth = harness.direct_products(FIELD, aa, bb)
        for subset in itertools.combinations(range(r + 3), r):
            got = csa_decode(FIELD, [answers[s] for s in subset], params)
            assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_decode_order_independent():
    rng = np.random.default_rng(62)
    params, aa, bb, answers = make_instance(rng, 2, 2, 8)
    truth = harness.direct_products(FIELD, aa, bb)
    shuffled = [answers[s] for s in (6, 0, 7, 3, 1)]
    got = csa_decode(FIELD, shuffled, params)
    assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_server_sequence_encodes_like_single_servers():
    rng = np.random.default_rng(31)
    for field in (PrimeField(13), FIELD, PrimeField(2147483629)):
        params = csa_params(field, 2, 2, 7)
        aa = [field.rand_matrix(rng, 3, 20) for _ in range(4)]
        bb = [field.rand_matrix(rng, 20, 2) for _ in range(4)]
        for encode, batch in ((csa_encode_a, aa), (csa_encode_b, bb)):
            together = encode(field, batch, params, range(7))
            assert len(together) == 7
            for s in (0, 3, 6):
                alone = encode(field, batch, params, s)
                assert len(alone) == len(together[s]) == 2
                assert all(np.array_equal(x, y) for x, y in zip(alone, together[s]))
            # entries outside [0, q) encode like their residues
            shifted = encode(field, [x - field.q for x in batch], params, [4, 2])
            for got, s in zip(shifted, (4, 2)):
                assert all(np.array_equal(x, y) for x, y in zip(got, together[s]))
        assert len(encode(field, bb, params, [])) == 0  # no rows


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_answer_is_the_sum_of_group_products(q, ell):
    # one product of the concatenated groups, on both matmul paths
    field = PrimeField(q)
    rng = np.random.default_rng(q % 1000 + ell)
    for rows, inner, cols in ((3, 4, 5), (24, 40, 24)):
        share_a = [field.rand_matrix(rng, rows, inner) for _ in range(ell)]
        share_b = [field.rand_matrix(rng, inner, cols) for _ in range(ell)]
        want = sum(field.matmul(a, b) for a, b in zip(share_a, share_b)) % q
        counter = harness.OpCounter()
        assert np.array_equal(csa_answer(field, share_a, share_b, counter), want)
        assert counter.mults == ell * rows * inner * cols


def test_encode_multiplies_each_group_by_its_own_weights(monkeypatch):
    # one stacked product of every group by its own weights: no
    # block-diagonal zeros in the generator
    rng = np.random.default_rng(32)
    matmul = PrimeField.matmul
    macs = []
    monkeypatch.setattr(PrimeField, "matmul", lambda self, a, b, **kw: macs.append(
        a.size * b.shape[-1]) or matmul(self, a, b, **kw))
    for ell, kc, servers in ((1, 3, 6), (2, 2, 7), (3, 2, 9)):
        params = csa_params(FIELD, ell, kc, servers)
        aa = [FIELD.rand_matrix(rng, 6, 5) for _ in range(ell * kc)]
        macs.clear()
        shares = csa_encode_a(FIELD, aa, params, range(servers))
        assert len(macs) == 1 and sum(macs) == servers * ell * kc * 6 * 5
        for s in (0, servers - 1):
            assert all(np.array_equal(x, y)
                       for x, y in zip(shares[s], csa_encode_a(FIELD, aa, params, s)))


def test_every_code_of_batch_size_one_takes_any_batch_length():
    # CSA, GCSA and EP are one code on one encode path, so a CSA code of
    # L = 1 encodes each entry of a longer batch alone, as EP does: its
    # round on a batch of 3 equals the direct products, in the systematic
    # layout too (its raw server holds every entry); L = 2 still refuses 3
    rng = np.random.default_rng(41)
    aa, bb = ([FIELD.rand_matrix(rng, 2, 2) for _ in range(3)] for _ in range(2))
    truth = harness.direct_products(FIELD, aa, bb)
    for scheme, params in (("csa", csa_params(FIELD, 1, 1, 3)),
                           ("csa-systematic", csa_params(FIELD, 1, 1, 3, systematic=True))):
        assert csa_encode_a(FIELD, aa, params, range(3))[-1].shape == (3, 1, 2, 2)
        for responsive in ((0,), (1,), (2,)):
            got, report = harness.run_cdbmm(FIELD, scheme, params, aa, bb,
                                            harness.StragglerModel(responsive=responsive))
            assert len(got) == 3
            assert all(np.array_equal(g, t) for g, t in zip(got, truth))
            assert report.measured == report.theory
    for encode in (csa_encode_a, csa_encode_b):
        with pytest.raises(ParameterError, match="does not match L = 2"):
            encode(FIELD, aa, csa_params(FIELD, 1, 2, 3), range(3))


def test_float_batch_rejected():
    params = csa_params(FIELD, 1, 2, 5)
    floats = [np.ones((2, 2)) * 0.5, np.ones((2, 2))]
    with pytest.raises(ParameterError):
        csa_encode_a(FIELD, floats, params, 0)


def test_decode_insufficient():
    rng = np.random.default_rng(8)
    params, _, _, answers = make_instance(rng, 2, 2, 8)
    with pytest.raises(InsufficientAnswersError):
        csa_decode(FIELD, answers[:4], params)


def _decoder_round(decoder):
    """(decode, params, answers) of a CSA round, or of an N-CSA round with
    X = B = 1 whose all-zero answers are a clean codeword."""
    if decoder == "csa":
        params, _, _, answers = make_instance(np.random.default_rng(8), 2, 2, 8)
        return csa_decode, params, answers
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 10, x_secure=1, byzantine=1)
    return (lambda *args: ncsa.xsb_decode(*args)[0], params,
            [(s, np.zeros((2, 2), dtype=np.int64)) for s in range(10)])


@pytest.mark.parametrize("decoder", ["csa", "xsb"])
@pytest.mark.parametrize("first, match", [
    (lambda y: (1.0, y), "integer"),
    (lambda y: (True, y), "integer"),
    (lambda y: (1.5, y), "integer"),
    (lambda y: (-1, y), "out of range"),
    (lambda y: (0, y.tolist()), "integer array"),
    (lambda y: (0, y.astype(float)), "integer array"),
], ids=["float-index", "bool-index", "fractional-index", "negative-index",
        "nested-list-answer", "float-answer"])
def test_decoders_refuse_malformed_answers(decoder, first, match):
    # csa_decode once took 1.0 and True as server 1, and died with a bare
    # TypeError on 1.5 and an AttributeError on a nested list; xsb_decode
    # raised TypeError even on 1.0
    decode, params, answers = _decoder_round(decoder)
    expected = decode(FIELD, answers, params)
    with pytest.raises(ParameterError, match=match):
        decode(FIELD, [first(answers[0][1])] + answers[1:], params)
    got = decode(FIELD, [(np.int64(s), y) for s, y in answers], params)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_interference_rank_is_kc_minus_one():
    for ell in (1, 2, 3):
        params = csa_params(FIELD, ell, 2, csa_threshold(ell, 2) + 3)
        assert interference_rank(FIELD, params) == 1
    for ell in (1, 2):
        params = csa_params(FIELD, ell, 3, csa_threshold(ell, 3) + 3)
        assert interference_rank(FIELD, params) == 2


def test_cost_counters():
    rng = np.random.default_rng(9)
    params = csa_params(FIELD, 2, 2, 8)
    aa = [FIELD.rand_matrix(rng, 2, 3) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 3, 2) for _ in range(4)]
    _, report = harness.run_cdbmm(FIELD, "csa", params, aa, bb,
                                  harness.StragglerModel(count=6, seed=0))
    assert report.theory.uploads == (Fraction(8, 2), Fraction(8, 2))
    assert report.theory.download == Fraction(5, 4)
    assert report.measured == report.theory
    # ell matrix products of 2x3 by 3x2 per server
    assert report.server_mults == 2 * 2 * 3 * 2


# ---- evaluation points ----


_BUILDERS = {
    "csa": lambda f, **kw: csa_params(f, 1, 2, 5, **kw),
    "gcsa": lambda f, **kw: gcsa.gcsa_params(f, 1, 2, 1, 1, 1, 5, **kw),
    "ncsa": lambda f, **kw: ncsa.ncsa_params(f, 2, 1, 2, 5, **kw),
    "ep": lambda f, **kw: harness.ep_setup(f, 1, 1, 1, 3, **kw),
}


_POINTS = {"float-pole": ({"poles": [1.5, 2]}, "a pole"),
           "bool-pole": ({"poles": [True, 2]}, "a pole"),
           "float-sample": ({"samples": [3, 4, 5, 6, 7.0]}, "a sample"),
           "bool-sample": ({"samples": [3, 4, 5, 6, False]}, "a sample")}


@pytest.mark.parametrize("builder, case", [
    (b, c) for b in _BUILDERS for c in _POINTS if not (b == "ep" and "pole" in c)])
def test_builders_refuse_non_integer_points(builder, case):
    # a float pole was once accepted, and the first round died with a bare
    # TypeError from pow(); every Cauchy builder and ep_setup (3 samples,
    # no poles) share the rule
    points, what = _POINTS[case]
    if builder == "ep":
        points = {"samples": points["samples"][-3:]}
    with pytest.raises(ParameterError, match=f"{what} must be an integer"):
        _BUILDERS[builder](FIELD, **points)


@pytest.mark.parametrize("field_value, what", [
    ({"ell": 1.5}, "ell"), ({"kc": True}, "kc"), ({"servers": 9.0}, "servers"),
    ({"p": 2.0}, "p"), ({"arity": 2.5}, "N"), ({"x_secure": 0.5}, "X"),
    ({"byzantine": True}, "B"), ({"noise_seed": 1.5}, "noise_seed")])
def test_the_one_builder_refuses_non_integer_fields(field_value, what):
    # X = 0.5 once built a setup of threshold 4.0, ell = True one of ell =
    # True, and ell = 1.5 died with a bare TypeError from range()
    kwargs = {"ell": 1, "kc": 2, "servers": 9, **field_value}
    with pytest.raises(ParameterError, match=f"{what} must be an integer"):
        csa_params(FIELD, **kwargs)


# ---- systematic construction ----


def _answers(field, aa, bb, params, servers):
    """(s, Y_s) of the listed servers, through the one CSA encoder and answer."""
    shares_a = csa_encode_a(field, aa, params, servers)
    shares_b = csa_encode_b(field, bb, params, servers)
    return [(s, csa_answer(field, a, b)) for s, a, b in zip(servers, shares_a, shares_b)]


def test_systematic_first_l_shares_raw():
    # a raw server holds its own entry as a one-group share [X_s], a copy;
    # the coded servers hold the plain code's shares
    rng = np.random.default_rng(10)
    params = csa_params(FIELD, 1, 2, 5, systematic=True)
    plain = csa_params(FIELD, 1, 2, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    for encode, batch in ((csa_encode_a, aa), (csa_encode_b, bb)):
        shares = encode(FIELD, batch, params, range(5))
        for s in range(2):
            [x] = shares[s]
            assert np.array_equal(x, batch[s]) and not np.shares_memory(x, batch[s])
            assert [y.tolist() for y in encode(FIELD, batch, params, s)] == [x.tolist()]
        for s in range(2, 5):
            assert [y.tolist() for y in shares[s]] == [
                y.tolist() for y in encode(FIELD, batch, plain, s)]


def test_systematic_all_raw_needs_zero_solves(monkeypatch):
    rng = np.random.default_rng(11)
    params = csa_params(FIELD, 1, 2, 5, systematic=True)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    answers = _answers(FIELD, aa, bb, params, (0, 1, 4))
    solves = []
    monkeypatch.setattr(csa, "solve_batch",
                        lambda *args: solves.append(args) or solve_batch(*args))
    got = csa_decode(FIELD, answers, params)
    assert solves == []
    truth = harness.direct_products(FIELD, aa, bb)
    assert all(np.array_equal(g, t) for g, t in zip(got, truth))
    assert not any(np.shares_memory(g, y) for g, (_, y) in zip(got, answers))


def test_systematic_decode_inverts_known_poles_in_one_batch(monkeypatch):
    # 8 raw results against 24 coded answers once took 8 * 24 scalar inverses
    # (101 in the round); one batch_inv left 14, and taking the known
    # results' coefficients from the decode matrix's own columns 13
    rng = np.random.default_rng(13)
    params = csa_params(FIELD, 4, 4, 40, systematic=True)
    aa = [FIELD.rand_matrix(rng, 3, 2) for _ in range(16)]
    bb = [FIELD.rand_matrix(rng, 2, 3) for _ in range(16)]
    inv = PrimeField.inv
    calls = []
    monkeypatch.setattr(PrimeField, "inv",
                        lambda self, a: calls.append(a) or inv(self, a))
    products, _ = harness.run_cdbmm(
        FIELD, "csa-systematic", params, aa, bb,
        harness.StragglerModel(responsive=tuple(range(8)) + tuple(range(16, 40))))
    assert len(calls) == 13
    truth = harness.direct_products(FIELD, aa, bb)
    assert all(np.array_equal(p, t) for p, t in zip(products, truth))


@pytest.mark.parametrize("q", [65537, 2147483629])
def test_systematic_decode_removes_known_results_in_one_product(monkeypatch, q):
    # the plan holds a column for every taken answer, a known result's minus
    # the reduced inverse's rows times its Cauchy column, so one product
    # removes the known results and solves the reduced system; a cold decode
    # first builds the plan with one solve (which row-reduces its identity
    # right-hand side, no matmul) and one product for the known columns, a
    # warm one runs no solve
    field = PrimeField(q)
    rng = np.random.default_rng(14)
    params = csa_params(field, 2, 3, 14, systematic=True)
    aa = [field.rand_matrix(rng, 4, 3) for _ in range(6)]
    bb = [field.rand_matrix(rng, 3, 5) for _ in range(6)]
    answers = _answers(field, aa, bb, params, (0, 2, 3, 5, 7, 9, 10, 11, 13))
    matmul = PrimeField.matmul
    calls = []
    monkeypatch.setattr(PrimeField, "matmul", lambda self, a, b, **kw: calls.append(
        (a.shape, b.shape)) or matmul(self, a, b, **kw))
    solves = []
    monkeypatch.setattr(csa, "solve_batch", lambda *args, **kw: solves.append(
        args[1].shape) or solve_batch(*args, **kw))
    coded = params.threshold - 4
    truth = harness.direct_products(field, aa, bb)
    for built in ([(coded, coded)], []):  # cold, then warm
        calls.clear()
        solves.clear()
        got = csa_decode(field, answers, params)
        assert solves == built
        # 2 unknown results: the plan holds their rows over all R answers
        known = [((2, coded), (coded, 4))] if built else []
        assert calls == known + [((2, params.threshold), (params.threshold, 20))]
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))


def test_systematic_matches_plain_decode_everywhere():
    rng = np.random.default_rng(12)
    params = csa_params(FIELD, 1, 2, 5, systematic=True)
    plain = csa_params(FIELD, 1, 2, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = _answers(FIELD, aa, bb, params, range(5))
    plain_answers = _answers(FIELD, aa, bb, plain, range(5))
    for s in range(2):  # a raw server answers its own product
        assert np.array_equal(answers[s][1], truth[s])
    for subset in itertools.combinations(range(5), 3):
        got = csa_decode(FIELD, [answers[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        if min(subset) >= 2:
            # coded-only answers coincide with the non-systematic code
            assert all(np.array_equal(answers[s][1], plain_answers[s][1])
                       for s in subset)
            via_plain = csa_decode(FIELD, [answers[s] for s in subset], plain)
            assert all(np.array_equal(g, v) for g, v in zip(got, via_plain))


def test_systematic_requires_enough_servers():
    with pytest.raises(ParameterError):
        csa_params(FIELD, 2, 2, 3, systematic=True)


def test_systematic_relaxed_field_size():
    # q = 13 cannot host S + L = 11 + 8 points, but the systematic layout
    # only needs the coded servers' samples to avoid the poles
    small = PrimeField(13)
    with pytest.raises(ParameterError):
        csa_params(small, 2, 4, 11)
    # raw servers 0..7 never use their sample slot, so only 10..12 matter
    params = csa_params(small, 2, 4, 11, samples=tuple(range(2, 13)),
                        poles=None, systematic=True)
    rng = np.random.default_rng(13)
    aa = [small.rand_matrix(rng, 2, 2) for _ in range(8)]
    bb = [small.rand_matrix(rng, 2, 2) for _ in range(8)]
    got = csa_decode(small, _answers(small, aa, bb, params, range(11)), params)
    truth = harness.direct_products(small, aa, bb)
    assert all(np.array_equal(g, t) for g, t in zip(got, truth))


_REUSED_POLES = {"poles": [1, 2], "samples": [1, 2, 3, 4, 5], "systematic": True}


def test_systematic_layout_reusing_poles_runs_only_as_itself():
    # raw servers 0 and 1 sample at the poles 1 and 2, which the layout
    # allows; the "csa" scheme on such parameters once died with a bare
    # ZeroDivisionError from the coded servers' weights
    small = PrimeField(13)
    params = csa_params(small, 1, 2, 5, **_REUSED_POLES)
    rng = np.random.default_rng(15)
    aa = [small.rand_matrix(rng, 2, 3) for _ in range(2)]
    bb = [small.rand_matrix(rng, 3, 2) for _ in range(2)]
    with pytest.raises(ParameterError, match="systematic"):
        harness.run_cdbmm(small, "csa", params, aa, bb, harness.StragglerModel(count=5))
    with pytest.raises(ParameterError, match="systematic"):
        harness.run_cdbmm(small, "csa-systematic", csa_params(small, 1, 2, 5), aa, bb,
                          harness.StragglerModel(count=5))
    truth = harness.direct_products(small, aa, bb)
    for subset in itertools.combinations(range(5), 3):
        got, report = harness.run_cdbmm(small, "csa-systematic", params, aa, bb,
                                        harness.StragglerModel(responsive=subset))
        assert all(np.array_equal(g, t) for g, t in zip(got, truth)), subset
        assert report.measured.download == report.theory.download


@pytest.mark.parametrize("field, points", [(PrimeField(13), _REUSED_POLES),
                                           (FIELD, {"systematic": True})],
                         ids=["reused-poles-q13", "canonical"])
def test_interference_counts_coded_servers_only(field, points):
    # raw servers hold no cross terms: their rows once counted terms they
    # never hold, and raw samples at the poles raised ZeroDivisionError
    params = csa_params(field, 1, 2, 5, **points)
    assert csa.cross_term_matrix(field, params).shape == (3, 2)
    assert interference_rank(field, params) == 1


def test_systematic_nlinear_reusing_poles_equals_the_oracle():
    # once a ZeroDivisionError unless run_nlinear was also told the layout
    small = PrimeField(13)
    params = ncsa.ncsa_params(small, 2, 1, 2, 5, **_REUSED_POLES)
    omega = ncsa.matmul_map(2, 3, 2)
    rng = np.random.default_rng(16)
    batches = [[small.rand_matrix(rng, *shape) for _ in range(2)]
               for shape in omega.var_shapes]
    truth = harness.direct_evaluations(small, omega, batches)
    for subset in itertools.combinations(range(5), 3):
        got, _ = harness.run_nlinear(small, params, omega, batches,
                                     harness.StragglerModel(responsive=subset))
        assert all(np.array_equal(g, t) for g, t in zip(got, truth)), subset


# ---- the decode matrix against the paper's ----


def _decoder_cases(field):
    """(decoder, params, the responding servers, or None for a random
    threshold-sized subset) of every Cauchy decoder, skipping the cases
    GF(q) has too few points for.  Every one solves through ``csa._plan``."""
    cases = [(csa_decode, lambda ell=ell, kc=kc: csa_params(
                 field, ell, kc, csa_threshold(ell, kc) + 1), None)
             for ell, kc in [(1, 1), (1, 3), (2, 2)]]
    cases += [(ncsa.xsb_decode if x else ncsa.ncsa_decode,
               lambda arity=arity, x=x: ncsa.ncsa_params(
                   field, arity, 2, 2, xsb_threshold(arity, 2, 2, x, 0) + 1, x), None)
              for arity, x in itertools.product((2, 3), (0, 1, 2))]
    cases += [(csa_decode, lambda dims=dims: gcsa.gcsa_params(
                   field, *dims, gcsa.gcsa_threshold(*dims) + 1), None)
              for dims in [(2, 1, 2, 1, 1), (1, 2, 2, 2, 1)]]
    # systematic subsets with known results: servers below L answer raw
    cases += [(csa_decode,
               lambda: csa_params(field, 2, 2, 8, systematic=True), (1, 3, 4, 6, 7)),
              (ncsa.ncsa_decode,
               lambda: ncsa.ncsa_params(field, 3, 1, 2, 6, systematic=True), (0, 3, 4, 5))]
    for decode, make, servers in cases:
        try:
            params = make()
        except ParameterError:  # the field holds too few distinct points
            continue
        yield decode, params, servers


def _paper_matrix(field, decode, params, servers):
    """The paper's decode matrix for the responding servers and the number
    of its leading unknowns that carry desired coefficients."""
    if params.inner_order > 1:  # GCSA's
        alphas = [params.samples[s] for s in servers]
        return (gcsa_paper_matrix(field, params, alphas),
                params.batch_size * params.inner_order)
    raw = params.systematic
    unknown = [i for i in range(params.batch_size) if not (raw and i in servers)]
    consts = scaling_constants(field, params, params.arity - 1)
    spec = CVSpec(tuple(params.poles[i] for i in unknown),
                  tuple(params.samples[s] for s in servers
                        if not (raw and s < params.batch_size)))
    return scaled_cv_matrix(field, spec, [consts[i] for i in unknown]), len(unknown)


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_decode_matrix_matches_the_papers_on_desired_unknowns(monkeypatch, q):
    # Every Cauchy decoder solves a matrix whose Cauchy columns carry the
    # exact coefficients of the answers, which differ from the paper's
    # c_{l,k}^(N-1) scaling or GCSA Toeplitz mixing by polynomials the
    # Vandermonde tail absorbs: for any right-hand side both solves agree on
    # the desired unknowns.
    field = PrimeField(q)
    rng = np.random.default_rng(q)
    checked, mats = 0, []
    monkeypatch.setattr(csa, "solve_batch", lambda f, mat, rhs, **kw: mats.append(mat)
                        or solve_batch(f, mat, rhs, **kw))
    for decode, params, servers in _decoder_cases(field):
        if servers is None:
            servers = sorted(int(s) for s in rng.choice(params.servers, params.threshold,
                                                        replace=False))
        mats.clear()
        decode(field, [(s, field.rand_matrix(rng, 2, 3)) for s in servers], params)
        [mat] = mats
        paper, desired = _paper_matrix(field, decode, params, servers)
        rhs = field.rand_matrix(rng, len(mat), 4)
        assert np.array_equal(solve_batch(field, mat, rhs)[:desired],
                              solve_batch(field, paper, rhs)[:desired])
        checked += 1
    assert checked == (9 if q == 13 else 13)  # GF(13) lacks the points for 4


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_decode_matrix_equals_the_scaled_confluent_matrix(q):
    # _decode_matrix takes its Cauchy columns from the encoders' weights
    # alone; it must equal, byte for byte, the confluent Cauchy-Vandermonde
    # matrix scaled by the A-side weights that every decoder once solved:
    # order 1 at every power 1..N-1, order R' (GCSA), and systematic subsets
    # whose known results' columns leave the matrix
    field = PrimeField(q)
    rng = np.random.default_rng(q + 1)
    cases = [(lambda: csa_params(field, 2, 2, 6), (1,), 1, None),
             (lambda: csa_params(field, 1, 3, 6), (1,), 1, None),
             (lambda: ncsa.ncsa_params(field, 3, 2, 2, 9, x_secure=1), (1, 2), 1, None),
             (lambda: ncsa.ncsa_params(field, 3, 1, 2, 6, systematic=True), (1, 2), 1,
              (0, 3, 4, 5)),
             (lambda: csa_params(field, 2, 2, 8, systematic=True), (1,), 1, (1, 3, 4, 6, 7)),
             (lambda: gcsa.gcsa_params(field, 2, 1, 2, 1, 1, 10), (2,), 2, None),
             (lambda: gcsa.gcsa_params(field, 1, 2, 1, 2, 1, 8), (2,), 2, None)]
    checked = 0
    for make, powers, order, responsive in cases:
        params = make()  # GF(13) holds the points of every case
        width = params.threshold
        if responsive is None:
            responsive = sorted(int(s) for s in rng.choice(params.servers, width, replace=False))
        known = [s for s in responsive
                 if getattr(params, "systematic", False) and s < params.batch_size]
        listed = [s for s in responsive if s not in known]
        unknown = [i for i in range(params.batch_size) if i not in known]
        for power in powers:
            got = csa._decode_matrix(field, params, listed, power, width, order)
            assert got.shape == (len(listed), width)
            want = confluent_decode_matrix(field, params, listed, power, order, unknown)
            assert np.delete(got, known, axis=1).tobytes() == want.tobytes()
            checked += 1
    assert checked == 9
