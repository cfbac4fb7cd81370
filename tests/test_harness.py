import dataclasses
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from csacode import csa, gcsa, harness, ncsa
from csacode.errors import InsufficientAnswersError, ParameterError
from csacode.ffield import PrimeField

FIELD = PrimeField(65537)


def test_straggler_explicit_and_seeded():
    assert harness.StragglerModel(responsive=(4, 1, 1)).pick(6) == [1, 4]
    a = harness.StragglerModel(count=4, seed=7).pick(9)
    b = harness.StragglerModel(count=4, seed=7).pick(9)
    assert a == b and len(a) == 4
    with pytest.raises(ParameterError):
        harness.StragglerModel(responsive=(9,)).pick(5)
    with pytest.raises(ParameterError):
        harness.StragglerModel().pick(5)


def test_run_csa_explicit_responsive_subset():
    rng = np.random.default_rng(0)
    params = csa.csa_params(FIELD, 1, 2, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    products, report = harness.run_cdbmm(
        FIELD, "csa", params, aa, bb,
        harness.StragglerModel(responsive=(0, 2, 4)))
    truth = harness.direct_products(FIELD, aa, bb)
    assert all(np.array_equal(p, t) for p, t in zip(products, truth))
    assert report.measured == report.theory


def test_run_ep_sampled_nine_subsets():
    rng = np.random.default_rng(1)
    setup = harness.ep_setup(FIELD, 2, 2, 2, 12)
    aa = [FIELD.rand_matrix(rng, 4, 4)]
    bb = [FIELD.rand_matrix(rng, 4, 4)]
    truth = harness.direct_products(FIELD, aa, bb)
    subsets = list(itertools.combinations(range(12), 9))
    pick = np.random.default_rng(2).choice(len(subsets), size=25, replace=False)
    for i in pick:
        products, _ = harness.run_cdbmm(
            FIELD, "ep", setup, aa, bb,
            harness.StragglerModel(responsive=subsets[int(i)]))
        assert np.array_equal(products[0], truth[0])


def test_straggler_insensitivity_exhaustive():
    # decode output does not depend on which R-subset responds (S <= 9)
    rng = np.random.default_rng(3)
    params = csa.csa_params(FIELD, 2, 2, 8)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
    reference = None
    for subset in itertools.combinations(range(8), 5):
        products, _ = harness.run_cdbmm(
            FIELD, "csa", params, aa, bb,
            harness.StragglerModel(responsive=subset))
        if reference is None:
            reference = products
        else:
            assert all(np.array_equal(p, r) for p, r in zip(products, reference))


def test_insufficient_responsive_raises():
    rng = np.random.default_rng(4)
    params = csa.csa_params(FIELD, 1, 2, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    with pytest.raises(InsufficientAnswersError):
        harness.run_cdbmm(FIELD, "csa", params, aa, bb,
                          harness.StragglerModel(responsive=(0, 1)))


def test_byzantine_rejected_for_cdbmm():
    rng = np.random.default_rng(5)
    params = csa.csa_params(FIELD, 1, 2, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    byz = harness.ByzantineModel.seeded(FIELD, (1,), seed=0)
    with pytest.raises(ParameterError):
        harness.run_cdbmm(FIELD, "csa", params, aa, bb,
                          harness.StragglerModel(count=5), byz)


def test_determinism_identical_seeds():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    params = csa.csa_params(FIELD, 2, 2, 8)
    runs = []
    for rng in (rng_a, rng_b):
        aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
        bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(4)]
        products, report = harness.run_cdbmm(
            FIELD, "csa", params, aa, bb,
            harness.StragglerModel(count=6, seed=9))
        runs.append((products, report))
    assert all(np.array_equal(x, y) for x, y in zip(runs[0][0], runs[1][0]))
    assert dataclasses.asdict(runs[0][1]) == dataclasses.asdict(runs[1][1])


def test_measured_equals_theory_random_tuples():
    rng = np.random.default_rng(6)
    for trial in range(12):
        ell = int(rng.integers(1, 4))
        kc = int(rng.integers(1, 4))
        r = csa.csa_threshold(ell, kc)
        servers = r + int(rng.integers(0, 4))
        params = csa.csa_params(FIELD, ell, kc, servers)
        aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(ell * kc)]
        bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(ell * kc)]
        _, report = harness.run_cdbmm(
            FIELD, "csa", params, aa, bb,
            harness.StragglerModel(count=r, seed=trial))
        assert report.measured == report.theory


def test_nlinear_matmul_reproduces_cdbmm():
    rng = np.random.default_rng(7)
    cparams = csa.csa_params(FIELD, 1, 2, 5)
    nparams = ncsa.ncsa_params(FIELD, 2, 1, 2, 5)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    strag = harness.StragglerModel(responsive=(1, 2, 4))
    p1, _ = harness.run_cdbmm(FIELD, "csa", cparams, aa, bb, strag)
    p2, report = harness.run_nlinear(FIELD, nparams, ncsa.matmul_map(2, 2, 2),
                                     [aa, bb], strag)
    assert all(np.array_equal(x, y) for x, y in zip(p1, p2))
    assert report.measured.uploads == (Fraction(5, 2), Fraction(5, 2))


def test_nlinear_polynomial_spec_run():
    rng = np.random.default_rng(8)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 6)
    omega = ncsa.matmul_map(2, 2, 2)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),
                                   ncsa.PolyTerm(2, omega, (0, None))))
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    evals, _ = harness.run_nlinear(FIELD, params, spec, [aa, bb],
                                   harness.StragglerModel(count=6, seed=1))
    ones = np.ones((2, 2), dtype=np.int64)
    for l in range(2):
        want = (FIELD.matmul(aa[l], bb[l]) + 2 * FIELD.matmul(aa[l], ones)) % FIELD.q
        assert np.array_equal(evals[l], want)


def test_nlinear_byzantine_localization():
    rng = np.random.default_rng(9)
    params = ncsa.ncsa_params(FIELD, 2, 1, 1, 7, x_secure=1, byzantine=1,
                              noise_seed=11)
    omega = ncsa.matmul_map(2, 2, 2)
    batches = [[FIELD.rand_matrix(rng, 2, 2)], [FIELD.rand_matrix(rng, 2, 2)]]
    truth = harness.direct_evaluations(FIELD, omega, batches)
    strag = harness.StragglerModel(responsive=(0, 2, 3, 5, 6))
    byz = harness.ByzantineModel.seeded(FIELD, (5,), seed=13)
    evals, report = harness.run_nlinear(FIELD, params, omega, batches, strag, byz)
    assert all(np.array_equal(e, t) for e, t in zip(evals, truth))
    assert report.flagged_servers == (5,)


def test_nlinear_per_variable_upload_cost():
    rng = np.random.default_rng(10)
    params = ncsa.ncsa_params(FIELD, 3, 1, 2, 8)
    omega = ncsa.matrix_chain_map((2, 2, 2, 2))
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(3)]
    _, report = harness.run_nlinear(FIELD, params, omega, batches,
                                    harness.StragglerModel(count=8, seed=0))
    assert report.measured.uploads == tuple([Fraction(8, 2)] * 3)
    assert report.measured.download == Fraction(params.threshold, 2)
    assert report.measured == report.theory


def test_gcsa_through_harness_with_random_subset():
    rng = np.random.default_rng(11)
    params = gcsa.gcsa_params(FIELD, 1, 2, 2, 1, 1, 9)
    aa = [FIELD.rand_matrix(rng, 2, 4) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 4, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    products, report = harness.run_cdbmm(
        FIELD, "gcsa", params, aa, bb,
        harness.StragglerModel(count=7, seed=21))
    assert all(np.array_equal(p, t) for p, t in zip(products, truth))
    assert report.measured == report.theory


def test_systematic_through_harness():
    rng = np.random.default_rng(12)
    params = csa.csa_params(FIELD, 1, 2, 5, systematic=True)
    aa = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(FIELD, aa, bb)
    for responsive in [(0, 1, 2), (0, 2, 3), (2, 3, 4)]:
        products, report = harness.run_cdbmm(
            FIELD, "csa-systematic", params, aa, bb,
            harness.StragglerModel(responsive=responsive))
        assert all(np.array_equal(p, t) for p, t in zip(products, truth))
        assert report.measured == report.theory


def test_benchmark_tracer_still_installs():
    # perfbench's traced run rebinds every layer's public functions, including
    # names other layers import by value, and refuses to start when one is
    # missing; a refactor that drops such a name must fail here, not in the
    # benchmark.  install() only rebinds: it records no span, writes no file.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "perfbench"), str(root / "src")]))
    done = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
