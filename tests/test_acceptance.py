"""Acceptance suite: one test per release criterion, exact unless stated.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines.
"""

import itertools
from fractions import Fraction

import numpy as np

from csacode import analysis, csa, ep, gcsa, harness, ncsa, structmat
from csacode.cli import _HULL_FIELDS, hull_rows
from csacode.ffield import PrimeField
import reference

FIELD = PrimeField(65537)


def report(num: int, text: str):
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


def dim_for(k: int) -> int:
    return k * max(1, 4 // k)


# 1 ----------------------------------------------------------------------


def test_01_recovery_threshold_table():
    assert csa.csa_threshold(1, 2) == 3
    assert csa.csa_threshold(2, 2) == 5
    assert csa.csa_threshold(1, 3) == 5
    assert csa.csa_threshold(1, 4) == 7
    assert csa.csa_threshold(2, 4) == 11
    assert gcsa.gcsa_threshold(1, 2, 1, 2, 2) == 12
    assert gcsa.gcsa_threshold(1, 2, 2, 1, 1) == 7
    assert reference.ep_threshold(ep.EPParams(2, 2, 2)) == 9
    # two ten-server layers with threshold 7 each: naive grid composition
    # needs 85 answers, the joint construction stays within 7 * 7 = 49
    assert reference.grid_naive_threshold(10, 7, 10, 7) == 85
    assert gcsa.gcsa_threshold(1, 4, 1, 7, 1) == 49
    report(1, "recovery-threshold table reproduced exactly")


# 2 ----------------------------------------------------------------------


def test_02_decode_oracle_equivalence():
    rng = np.random.default_rng(202)

    # partitioning code: every triple with threshold <= 9
    for p, m, n in [(p, m, n) for p in range(1, 5) for m in range(1, 5)
                    for n in range(1, 5) if p * m * n + p - 1 <= 9]:
        params = ep.EPParams(p, m, n)
        r = reference.ep_threshold(params)
        setup = harness.ep_setup(FIELD, p, m, n, r + 3)
        a = FIELD.rand_matrix(rng, dim_for(m), dim_for(p))
        b = FIELD.rand_matrix(rng, dim_for(p), dim_for(n))
        truth = FIELD.matmul(a, b)
        answers = [(s, csa.csa_answer(FIELD, csa.csa_encode_a(FIELD, [a], setup, s),
                                      csa.csa_encode_b(FIELD, [b], setup, s)))
                   for s in range(setup.servers)]
        for subset in itertools.combinations(range(setup.servers), r):
            assert np.array_equal(
                csa.csa_decode(FIELD, [answers[i] for i in subset], setup)[0], truth)

    # batch code: the declared tuple list
    for ell, kc in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        r = csa.csa_threshold(ell, kc)
        params = csa.csa_params(FIELD, ell, kc, r + 3)
        batch = params.batch_size
        aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(batch)]
        bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(batch)]
        truth = harness.direct_products(FIELD, aa, bb)
        answers = []
        for s in range(params.servers):
            sa = csa.csa_encode_a(FIELD, aa, params, s)
            sb = csa.csa_encode_b(FIELD, bb, params, s)
            answers.append((s, csa.csa_answer(FIELD, sa, sb)))
        for subset in itertools.combinations(range(params.servers), r):
            got = csa.csa_decode(FIELD, [answers[s] for s in subset], params)
            assert all(np.array_equal(g, t) for g, t in zip(got, truth))

    # combined code: every tuple with R <= 14 and block sizes dividing 2 or 4
    tuples = [(ell, kc, p, m, n)
              for p in (1, 2, 4) for m in (1, 2, 4) for n in (1, 2, 4)
              for ell in range(1, 15) for kc in range(1, 15)
              if gcsa.gcsa_threshold(ell, kc, p, m, n) <= 14]
    for ell, kc, p, m, n in tuples:
        r = gcsa.gcsa_threshold(ell, kc, p, m, n)
        dims = 4 if 4 in (p, m, n) else 2
        params = gcsa.gcsa_params(FIELD, ell, kc, p, m, n, r + 3)
        batch = params.batch_size
        aa = [FIELD.rand_matrix(rng, dims, dims) for _ in range(batch)]
        bb = [FIELD.rand_matrix(rng, dims, dims) for _ in range(batch)]
        truth = harness.direct_products(FIELD, aa, bb)
        answers = []
        for s in range(params.servers):
            sa = csa.csa_encode_a(FIELD, aa, params, s)
            sb = csa.csa_encode_b(FIELD, bb, params, s)
            answers.append((s, csa.csa_answer(FIELD, sa, sb)))
        for subset in itertools.combinations(range(params.servers), r):
            got = csa.csa_decode(FIELD, [answers[s] for s in subset], params)
            assert all(np.array_equal(g, t) for g, t in zip(got, truth))

    # trilinear batch
    params = ncsa.ncsa_params(FIELD, 3, 1, 2, 7)
    omega = ncsa.matrix_chain_map((2, 2, 2, 2))
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(3)]
    truth = harness.direct_evaluations(FIELD, omega, batches)
    answers = []
    for s in range(7):
        shares = [csa.csa_encode_a(FIELD, b, params, s) for b in batches]
        answers.append((s, ncsa.ncsa_answer(FIELD, shares, omega, params, s)))
    for subset in itertools.combinations(range(7), 4):
        got = ncsa.ncsa_decode(FIELD, [answers[s] for s in subset], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))

    report(2, "every R-subset decodes to the brute-force result for all "
              f"declared parameter sets ({len(tuples)} combined-code tuples)")


# 3 ----------------------------------------------------------------------


def test_03_cross_subspace_alignment_rank():
    for ell in (1, 2, 3):
        params = csa.csa_params(FIELD, ell, 2, csa.csa_threshold(ell, 2) + 3)
        assert csa.interference_rank(FIELD, params) == 1
    report(3, "interference rank is exactly kc - 1 = 1 for ell in {1,2,3}")


# 4 ----------------------------------------------------------------------


def test_04_lcc_equivalence():
    rng = np.random.default_rng(404)
    for kc in (1, 2, 3, 4):
        r = csa.csa_threshold(1, kc)
        assert r == 2 * kc - 1 == reference.lcc_threshold(2, kc)
        servers = r + 2
        params = csa.csa_params(FIELD, 1, kc, servers)
        betas = list(params.poles)
        aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(kc)]
        bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(kc)]
        csa_answers = []
        lcc_answers = []
        for s in range(servers):
            sa = csa.csa_encode_a(FIELD, aa, params, s)
            sb = csa.csa_encode_b(FIELD, bb, params, s)
            csa_answers.append((s, csa.csa_answer(FIELD, sa, sb)))
            alpha = params.samples[s]
            ea = reference.lcc_encode(FIELD, aa, betas, alpha)
            eb = reference.lcc_encode(FIELD, bb, betas, alpha)
            lcc_answers.append((alpha, FIELD.matmul(ea, eb)))
        for subset in itertools.combinations(range(servers), r):
            via_csa = csa.csa_decode(FIELD, [csa_answers[s] for s in subset],
                                     params)
            via_lcc = reference.lcc_decode(
                FIELD, [lcc_answers[s] for s in subset], betas, 2)
            assert all(np.array_equal(x, y) for x, y in zip(via_csa, via_lcc))
    report(4, "batch code at ell=1 and the Lagrange baseline agree "
              "(products and thresholds) for kc in {1,2,3,4}")


# 5 ----------------------------------------------------------------------


def test_05_reduction_identities():
    rng = np.random.default_rng(505)
    params_g = gcsa.gcsa_params(FIELD, 2, 2, 1, 1, 1, 8)
    params_c = csa.csa_params(FIELD, 2, 2, 8)
    aa = [FIELD.rand_matrix(rng, 3, 3) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 3, 3) for _ in range(4)]
    for s in range(8):
        ga = csa.csa_encode_a(FIELD, aa, params_g, s)
        gb = csa.csa_encode_b(FIELD, bb, params_g, s)
        ca = csa.csa_encode_a(FIELD, aa, params_c, s)
        cb = csa.csa_encode_b(FIELD, bb, params_c, s)
        assert all(np.array_equal(x, y) for x, y in zip(ga, ca))
        assert all(np.array_equal(x, y) for x, y in zip(gb, cb))
        assert np.array_equal(csa.csa_answer(FIELD, ga, gb),
                              csa.csa_answer(FIELD, ca, cb))

    params = gcsa.gcsa_params(FIELD, 1, 1, 2, 2, 2, 12)
    epp = ep.EPParams(2, 2, 2)
    a = FIELD.rand_matrix(rng, 4, 4)
    b = FIELD.rand_matrix(rng, 4, 4)
    rp = params.inner_order
    ep_answers = []
    for s in range(12):
        z = FIELD.sub(params.poles[0], params.samples[s])
        gy = csa.csa_answer(FIELD, csa.csa_encode_a(FIELD, [a], params, s),
                            csa.csa_encode_b(FIELD, [b], params, s))
        ey = FIELD.matmul(reference.ep_encode_a(FIELD, a, epp, z),
                          reference.ep_encode_b(FIELD, b, epp, z))
        # the group prefactor (f - alpha)^R' is the only difference
        assert np.array_equal(FIELD.pow(z, rp) * gy % FIELD.q, ey)
        ep_answers.append((z, ey))
    # so the per-entry EP decode of any R of those answers is the product,
    # and EP's setup is this code
    assert np.array_equal(reference.ep_decode(FIELD, ep_answers[3:], epp), FIELD.matmul(a, b))
    assert harness.ep_setup(FIELD, 2, 2, 2, 12) == params
    report(5, "reductions hold: combined code collapses to batch code "
              "byte-exactly and to the partitioning code at shifted points")


# 6 ----------------------------------------------------------------------


def test_06_cost_accounting_50_random_tuples_per_scheme():
    rng = np.random.default_rng(606)

    def run_and_check(scheme, setup, batch, shapes):
        aa = [FIELD.rand_matrix(rng, *shapes[0]) for _ in range(batch)]
        bb = [FIELD.rand_matrix(rng, *shapes[1]) for _ in range(batch)]
        straggler = harness.StragglerModel(count=setup.servers,
                                           seed=int(rng.integers(1 << 30)))
        _, rep = harness.run_cdbmm(FIELD, scheme, setup, aa, bb, straggler)
        assert rep.measured == rep.theory
        assert isinstance(rep.measured.download, Fraction)

    for _ in range(50):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        r = p * m * n + p - 1
        setup = harness.ep_setup(FIELD, p, m, n, r + int(rng.integers(0, 3)))
        run_and_check("ep", setup, 1, ((m * 2, p * 2), (p * 2, n * 2)))

    for _ in range(50):
        ell = int(rng.integers(1, 5))
        kc = int(rng.integers(1, 5))
        r = csa.csa_threshold(ell, kc)
        params = csa.csa_params(FIELD, ell, kc, r + int(rng.integers(0, 3)))
        run_and_check("csa", params, ell * kc, ((2, 2), (2, 2)))

    # systematic layout: raw servers hold one matrix pair instead of ell
    # coded ones, so its upload matches the batch-code closed form exactly
    # when ell = 1 and can only improve on it otherwise
    for _ in range(50):
        kc = int(rng.integers(1, 6))
        servers = max(csa.csa_threshold(1, kc), kc) + int(rng.integers(0, 3))
        params = csa.csa_params(FIELD, 1, kc, servers, systematic=True)
        run_and_check("csa-systematic", params, kc, ((2, 2), (2, 2)))
    params = csa.csa_params(FIELD, 2, 2, 8, systematic=True)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    _, rep = harness.run_cdbmm(FIELD, "csa-systematic", params, aa, bb,
                               harness.StragglerModel(count=8, seed=0))
    assert all(m <= t for m, t in zip(rep.measured.uploads, rep.theory.uploads))
    assert rep.measured.download == rep.theory.download

    for _ in range(50):
        while True:
            ell = int(rng.integers(1, 4))
            kc = int(rng.integers(1, 4))
            p = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            if gcsa.gcsa_threshold(ell, kc, p, m, n) <= 16:
                break
        r = gcsa.gcsa_threshold(ell, kc, p, m, n)
        params = gcsa.gcsa_params(FIELD, ell, kc, p, m, n,
                                  r + int(rng.integers(0, 3)))
        run_and_check("gcsa", params, ell * kc, ((m * 2, p * 2), (p * 2, n * 2)))

    for _ in range(50):
        arity = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 4))
        kc = int(rng.integers(1, 4))
        r = reference.ncsa_threshold(arity, ell, kc)
        params = ncsa.ncsa_params(FIELD, arity, ell, kc,
                                  r + int(rng.integers(0, 3)))
        omega = ncsa.matrix_chain_map(tuple([2] * (arity + 1)))
        batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(ell * kc)]
                   for _ in range(arity)]
        straggler = harness.StragglerModel(count=params.servers,
                                           seed=int(rng.integers(1 << 30)))
        _, rep = harness.run_nlinear(FIELD, params, omega, batches, straggler)
        assert rep.measured == rep.theory
    report(6, "measured cost reports equal the closed forms as exact "
              "rationals, 50 random tuples per scheme")


# 7 ----------------------------------------------------------------------


def test_07_pareto_dominance_and_golden_hulls(request):
    for servers, r_max in [(30, 25), (300, 250)]:
        csa_best, _ = reference.min_max_cost("csa", servers, r_max)
        ep_best, _ = reference.min_max_cost("ep", servers, r_max)
        assert csa_best < ep_best
    data = request.path.parent / "data"
    for name, args in [("hull_ep_s30_r25.csv", ("ep", 30, 25, None)),
                       ("hull_csa_s30_r25.csv", ("csa", 30, 25, None)),
                       ("hull_gcsa_s300_r250_pmn27.csv", ("gcsa", 300, 250, 27))]:
        rows = [",".join(str(c) for c in row) for row in hull_rows(*args)]
        golden = (data / name).read_text().strip().splitlines()
        assert golden[0] == ",".join(_HULL_FIELDS)
        assert rows == golden[1:]
    report(7, "batch coding strictly beats partitioning in max(U, D) at both "
              "scales; hull CSVs match the golden files")


# 8 ----------------------------------------------------------------------


def test_08_latency_comparison():
    tol = 1e-9
    for k in range(2, 26):
        lower = analysis.ep_latency_lower(100, 0.75, k)
        m = (0.75 * 100 * k / 2.0) ** (1.0 / 3.0)
        independent = 100 * (2 * m ** 3 / 0.75 + 2 * m / 0.75 - 1) / m ** 2
        assert abs(lower - independent) <= tol
        upper, _ = analysis.gcsa_latency_upper(100, 0.75, k)
        assert upper < lower
    ratio_small = (analysis.ep_latency_lower(100, 0.75, 10)
                   / analysis.gcsa_latency_upper(100, 0.75, 10)[0])
    ratio_large = (analysis.ep_latency_lower(1000, 0.75, 10)
                   / analysis.gcsa_latency_upper(1000, 0.75, 10)[0])
    assert ratio_large > ratio_small
    report(8, "combined code beats the partitioning lower bound for all "
              "K in 2..25 at J=100; the advantage grows with job size")


# 9 ----------------------------------------------------------------------


def test_09_x_security_exhaustive():
    field = PrimeField(13)
    params = ncsa.ncsa_params(field, 2, 1, 1, 4, x_secure=1)
    dists = {}
    for value in (0, 7):
        batch = [np.full((1, 1), value, dtype=np.int64)]
        for var in range(2):
            for s in range(4):
                counts = [0] * 13
                for z in range(13):
                    share = ncsa.xs_encode(
                        field, [batch, batch], params, s,
                        noise={(v, 0, 1): np.full((1, 1), z, dtype=np.int64)
                               for v in range(2)})[var]
                    counts[int(share[0][0, 0])] += 1
                dists[(value, var, s)] = counts
                assert counts == [1] * 13  # exactly uniform
    for var in range(2):
        for s in range(4):
            a = dists[(0, var, s)]
            b = dists[(7, var, s)]
            tvd = sum(abs(x - y) for x, y in zip(a, b)) / 2
            assert tvd == 0
    report(9, "single-server share distributions are exactly uniform and "
              "data-independent (total variation distance 0)")


# 10 ---------------------------------------------------------------------


def test_10_byzantine_exhaustive():
    rng = np.random.default_rng(1010)
    params = ncsa.ncsa_params(FIELD, 2, 1, 1, 7, x_secure=1, byzantine=1,
                              noise_seed=3)
    assert params.threshold == 5
    omega = ncsa.matmul_map(1, 1, 1)
    aa = [FIELD.rand_matrix(rng, 1, 1)]
    bb = [FIELD.rand_matrix(rng, 1, 1)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers = []
    for s in range(7):
        shares = ncsa.xs_encode(FIELD, [aa, bb], params, s)
        answers.append((s, ncsa.ncsa_answer(FIELD, shares, omega, params, s)))
    forged_values = [0, 1, 2, 777, 65535, 65536]
    cases = 0
    for subset in itertools.combinations(range(7), 5):
        for victim in subset:
            for forged in forged_values:
                if forged == int(answers[victim][1][0, 0]):
                    continue
                tampered = [
                    (s, answers[s][1] if s != victim
                     else np.full((1, 1), forged, dtype=np.int64))
                    for s in subset
                ]
                evals, flagged = ncsa.xsb_decode(FIELD, tampered, params)
                assert flagged == [victim]
                assert all(np.array_equal(e, t) for e, t in zip(evals, truth))
                cases += 1
    report(10, f"all C(7,5) subsets x single-server corruptions decode and "
               f"localize exactly ({cases} cases)")


# 11 ---------------------------------------------------------------------


def test_11_systematic_parity(monkeypatch):
    rng = np.random.default_rng(1111)
    params = csa.csa_params(FIELD, 1, 2, 5, systematic=True)
    plain = csa.csa_params(FIELD, 1, 2, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    answers, plain_answers = ([(s, csa.csa_answer(FIELD, sa, sb)) for s, sa, sb in zip(
        range(5), csa.csa_encode_a(FIELD, aa, p, range(5)),
        csa.csa_encode_b(FIELD, bb, p, range(5)))] for p in (params, plain))
    for subset in itertools.combinations(range(5), 3):
        got = csa.csa_decode(FIELD, [answers[s] for s in subset], params)
        want = csa.csa_decode(FIELD, [plain_answers[s] for s in subset], plain)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    solves = []
    monkeypatch.setattr(csa, "solve_batch",
                        lambda *args: solves.append(args) or structmat.solve_batch(*args))
    got = csa.csa_decode(FIELD, [answers[0], answers[1], answers[3]], params)
    assert solves == []
    assert all(np.array_equal(g, t) for g, t in zip(got, truth))
    report(11, "systematic decode equals non-systematic on every mixed "
               "subset; the all-raw case used zero solver calls")


# complexity note -------------------------------------------------------


def test_12_server_multiplication_counter_scaling():
    rng = np.random.default_rng(1212)
    counts = {}
    for lam in (2, 4, 8):
        params = csa.csa_params(FIELD, 2, 2, 8)
        aa = [FIELD.rand_matrix(rng, lam, 3) for _ in range(4)]
        bb = [FIELD.rand_matrix(rng, 3, 3) for _ in range(4)]
        _, rep = harness.run_cdbmm(FIELD, "csa", params, aa, bb,
                                   harness.StragglerModel(count=8, seed=1))
        counts[lam] = rep.server_mults
    for small, big in [(2, 4), (4, 8)]:
        ratio = counts[big] / counts[small]
        assert 2 / 1.5 <= ratio <= 2 * 1.5
    report(12, "per-server multiplication counter scales linearly in the "
               "output rows (ratio within x1.5 of 2)")
