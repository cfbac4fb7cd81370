import collections
import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from csacode import csa, ep, ffield, gcsa, harness, ncsa, structmat
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


def test_nlinear_rejects_forgers_without_a_byzantine_budget():
    # with B = 0 the forged answer once decoded to wrong evaluations, unflagged
    rng = np.random.default_rng(14)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5)
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    byz = harness.ByzantineModel.seeded(FIELD, (3,), seed=1)
    for systematic in (False, True):
        with pytest.raises(ParameterError, match="Byzantine budget"):
            harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2), batches,
                                harness.StragglerModel(count=5), byz, systematic)


def test_nlinear_rejects_a_spec_in_the_systematic_layout(monkeypatch):
    # once a bare TypeError from the first answer; now refused before encoding
    def encode(*args, **kwargs):
        raise AssertionError("encoded before validation")

    for name in ("ncsa_systematic_encode", "xs_encode"):
        monkeypatch.setattr(ncsa, name, encode)
    rng = np.random.default_rng(15)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5, systematic=True)
    omega = ncsa.matmul_map(2, 2, 2)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),))
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    with pytest.raises(ParameterError, match="systematic"):
        harness.run_nlinear(FIELD, params, spec, batches,
                            harness.StragglerModel(count=5), systematic=True)


@pytest.mark.parametrize("budget, cause", [({"x_secure": 1}, "X-security"),
                                           ({"byzantine": 1}, "Byzantine budget")])
def test_systematic_nlinear_names_what_it_cannot_hold(budget, cause):
    rng = np.random.default_rng(16)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 9, **budget)
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    with pytest.raises(ParameterError, match=cause):
        harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2), batches,
                            harness.StragglerModel(count=9), systematic=True)


def test_systematic_nlinear_round_counts_server_mults():
    # systematic rounds once reported 0: neither the raw servers' map
    # evaluations nor the coded servers' answers were counted
    rng = np.random.default_rng(16)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5, systematic=True)
    for omega, want in ((ncsa.matmul_map(2, 2, 2), 12), (ncsa.determinant_map(2), 0)):
        batches = [[FIELD.rand_matrix(rng, int(np.prod(shape)), 1).reshape(shape) for _ in range(2)]
                   for shape in omega.var_shapes]
        counts = []
        for systematic in (False, True):
            _, report = harness.run_nlinear(FIELD, params, omega, batches,
                                            harness.StragglerModel(count=5),
                                            systematic=systematic)
            counts.append(report.server_mults)
        assert counts == [want, want], omega.name


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


_TRACED_OP = """
import json, time
import tracer, workloads
t = tracer.Tracer()
t.install()
out = {}
for name, workload in workloads.WORKLOADS.items():
    rounds = workloads.build(workload)
    workloads.run_op(rounds, workloads.draw_op(rounds, 1, 0), time.perf_counter)
    t.enabled, t.current_op = True, 1
    outcomes = workloads.run_op(rounds, workloads.draw_op(rounds, 1, 1), time.perf_counter)
    t.enabled = False
    out[name] = {"problems": [p for o in outcomes for p in o.problems],
                 "groups": {tracer.SELF_TIME_METRICS[m]: v
                            for m, v in t.self_times(1).items()}}
    for column in (t.name, t.start, t.end, t.parent, t.op):
        del column[:]
print(json.dumps(out))
"""

_ROUND_GROUPS = ("ffield.matmul", "ffield.inv", "structmat.cv_matrix",
                 "structmat.solve_batch", "harness.round")
_CSA_GROUPS = ("csa.encode", "csa.answer", "csa.decode")
_NCSA_GROUPS = ("ncsa.encode", "ncsa.noise", "ncsa.answer", "ncsa.decode")
# Every group of perfbench/tracer.py that reads above zero on each workload.
_TIMED_GROUPS = {
    "cdbmm-large": _CSA_GROUPS + _ROUND_GROUPS,
    "cdbmm-q31": _CSA_GROUPS + _ROUND_GROUPS,
    "secure-byzantine": ("csa.encode", "structmat.rs_error_correct")
                        + _NCSA_GROUPS + _ROUND_GROUPS,
    "small-mixed": ("ep.encode", "ep.answer", "ep.decode", "gcsa.encode", "gcsa.decode")
                   + _CSA_GROUPS + _NCSA_GROUPS + _ROUND_GROUPS,
}


def test_benchmark_tracer_still_installs():
    # perfbench's traced run rebinds every layer's public functions, including
    # names other layers import by value, and refuses to start when one is
    # missing; a refactor that drops such a name must fail here, not in the
    # benchmark.  One warm-up and one traced operation of every workload
    # then show that each layer the benchmark times is still reached through
    # the names it wraps (a call routed around them reads 0 ms).  No span
    # file is saved.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(root / "perfbench"), str(root / "src")]))
    done = subprocess.run([sys.executable, "-c", _TRACED_OP],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    assert set(traced) == set(_TIMED_GROUPS)
    for name, groups in _TIMED_GROUPS.items():
        assert traced[name]["problems"] == [], name
        assert [g for g in groups if not traced[name]["groups"][g] > 0] == [], name


def _matrices(value, shape=(2, 2), dtype=np.int64, count=2):
    return [np.full(shape, value, dtype=dtype) for _ in range(count)]


@pytest.mark.parametrize("scheme, batch_a, why", [
    ("csa", _matrices(1.5, dtype=np.float64), "integers"),
    ("csa", [], "empty"),
    ("csa", [np.ones(2, dtype=np.int64)] * 2, "matrices"),
    ("csa", [[[1, 2], [3]], [[1, 2], [3, 4]]], "rectangular"),
    ("csa", _matrices(True, dtype=bool), "integers"),
    ("ep", [np.ones((4, 4), dtype=np.int64), np.ones((2, 2), dtype=np.int64)], "one shape"),
])
def test_run_cdbmm_rejects_malformed_batches(scheme, batch_a, why):
    # checked before the cast to int64, which would truncate 1.5 to 1
    setup = (csa.csa_params(FIELD, 1, 2, 5) if scheme == "csa"
             else harness.ep_setup(FIELD, 1, 2, 2, 6))
    batch_b = _matrices(1, shape=(4, 4) if scheme == "ep" else (2, 2))
    with pytest.raises(ParameterError, match=why):
        harness.run_cdbmm(FIELD, scheme, setup, batch_a, batch_b,
                          harness.StragglerModel(count=setup.servers))


def test_run_nlinear_rejects_non_integer_batches():
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5)
    floats = _matrices(1.5, dtype=np.float64)
    with pytest.raises(ParameterError, match="integers"):
        harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2),
                            [floats, _matrices(1)], harness.StragglerModel(count=5))
    with pytest.raises(ParameterError, match="empty"):
        harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2),
                            [[], []], harness.StragglerModel(count=5))


def test_run_nlinear_checks_entry_shapes():
    rng = np.random.default_rng(31)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5)
    omega = ncsa.matmul_map(2, 2, 2)
    strag = harness.StragglerModel(count=5)
    good = [FIELD.rand_matrix(rng, 2, 2) for _ in range(2)]
    # 3x3 entries once ran and returned 3x3 results; 2x3 raised a bare ValueError
    for rows, cols in ((3, 3), (2, 3)):
        bad = [FIELD.rand_matrix(rng, rows, cols) for _ in range(2)]
        with pytest.raises(ParameterError, match="shape"):
            harness.run_nlinear(FIELD, params, omega, [bad, bad], strag)
        with pytest.raises(ParameterError, match="variable 1"):
            harness.run_nlinear(FIELD, params, omega, [good, bad], strag)
    # a spec checks each variable against every slot that uses it
    wide = ncsa.matmul_map(2, 2, 3)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),
                                   ncsa.PolyTerm(1, wide, (None, 1))))
    with pytest.raises(ParameterError, match="variable 1"):
        harness.run_nlinear(FIELD, params, spec, [good, good], strag)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),
                                   ncsa.PolyTerm(3, omega, (None, 1))))
    evals, _ = harness.run_nlinear(FIELD, params, spec, [good, good], strag)
    assert len(evals) == 2 and evals[0].shape == (2, 2)


def test_run_cdbmm_reduces_uint64_without_wrapping():
    # 2^64 - 2 is q - 1 mod 65537; a cast to int64 first would read -2
    params = csa.csa_params(FIELD, 1, 2, 5)
    big = _matrices(2**64 - 2, dtype=np.uint64)
    products, _ = harness.run_cdbmm(FIELD, "csa", params, big, _matrices(1),
                                     harness.StragglerModel(count=5))
    want = 2 * (FIELD.q - 1) % FIELD.q
    assert all((p == want).all() for p in products)


THREADED_RUN = """
import hashlib, json
import numpy as np
from csacode import csa, harness
from csacode.ffield import PrimeField

def digest(arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(x).tobytes()
                                   for x in arrays)).hexdigest()

out = {}
for q, n in ((65537, 192), (2147483629, 64)):
    field = PrimeField(q)
    rng = np.random.default_rng(q)
    out[q] = digest([field.matmul(field.rand_matrix(rng, n, n),
                                  field.rand_matrix(rng, n, n))])
field = PrimeField(65537)
rng = np.random.default_rng(1)
params = csa.csa_params(field, 2, 4, 14)
aa = [field.rand_matrix(rng, 192, 192) for _ in range(8)]
bb = [field.rand_matrix(rng, 192, 192) for _ in range(8)]
products, _ = harness.run_cdbmm(field, "csa", params, aa, bb,
                                harness.StragglerModel(responsive=tuple(range(2, 14))))
out["round"] = digest(products)
out["oracle"] = digest(harness.direct_products(field, aa, bb))
print(json.dumps(out))
"""


def test_blas_thread_count_does_not_change_results():
    # Exactness may not depend on the order BLAS sums in: one and two
    # OpenBLAS threads give identical bytes, for the 16-bit-limb path too.
    root = Path(__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", THREADED_RUN], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]
    single = json.loads(digests[0])
    assert single["round"] == single["oracle"]


def test_benchmark_gate_smoke(monkeypatch):
    # One operation of every benchmark workload, in process: a kernel or
    # encode change that breaks the gate fails here, not in the benchmark.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        rounds = workloads.build(workload)
        inputs = workloads.draw_op(rounds, 1, 0)
        workloads.self_test(rounds, inputs)
        outcomes = workloads.run_op(rounds, inputs, time.perf_counter)
        assert [o.problems for o in outcomes] == [[] for _ in outcomes], workload.name


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_ep_and_gcsa_rounds_match_direct_products(q):
    field = PrimeField(q)
    rng = np.random.default_rng(q % 1000)
    ep_setup = harness.ep_setup(field, 2, 3, 1, 10)
    gcsa_setup = gcsa.gcsa_params(field, 1, 2, 1, 2, 1, 8)
    for scheme, setup, batch, (rows, inner, cols) in (
            ("ep", ep_setup, 3, (6, 4, 2)), ("gcsa", gcsa_setup, 2, (4, 3, 2))):
        for seed in range(3):
            aa = [field.rand_matrix(rng, rows, inner) for _ in range(batch)]
            bb = [field.rand_matrix(rng, inner, cols) for _ in range(batch)]
            r = harness.theoretical_costs(scheme, setup).threshold
            products, report = harness.run_cdbmm(
                field, scheme, setup, aa, bb,
                harness.StragglerModel(count=r + seed % 2, seed=seed))
            truth = harness.direct_products(field, aa, bb)
            assert all(np.array_equal(p, t) for p, t in zip(products, truth))
            assert report.measured == report.theory


def test_ep_round_decodes_with_one_solve(monkeypatch):
    rng = np.random.default_rng(12)
    setup = harness.ep_setup(FIELD, 2, 2, 2, 12)
    aa = [FIELD.rand_matrix(rng, 4, 4) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 4, 4) for _ in range(4)]
    solves = []
    monkeypatch.setattr(ep, "solve_batch", lambda *args, **kw: solves.append(args)
                        or structmat.solve_batch(*args, **kw))
    harness.run_cdbmm(FIELD, "ep", setup, aa, bb, harness.StragglerModel(count=10, seed=1))
    assert len(solves) == 1


def test_rounds_call_the_encoders_the_benchmark_times(monkeypatch):
    # perfbench times each family's encode through these public functions
    # (its ep, gcsa, csa and ncsa "encode" groups); a round that routed
    # around them would read 0 ms there.  A patched name counts the calls
    # made through its own module, not through another module's import.
    encoders = {ep: ("ep_encode_a", "ep_encode_b"), gcsa: ("gcsa_encode_a", "gcsa_encode_b"),
                csa: ("csa_encode_a", "csa_encode_b", "systematic_encode"),
                ncsa: ("xs_encode", "ncsa_systematic_encode")}
    calls = collections.Counter()
    for module, names in encoders.items():
        for name in names:
            def counted(*args, fn=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(13)
    aa = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    bb = [FIELD.rand_matrix(rng, 4, 4) for _ in range(2)]
    omega = ncsa.matmul_map(4, 4, 4)

    def cdbmm(scheme, setup):
        return harness.run_cdbmm(FIELD, scheme, setup, aa, bb,
                                 harness.StragglerModel(count=setup.servers - 1, seed=0))

    def nlinear(params, systematic=False):
        return harness.run_nlinear(FIELD, params, omega, [aa, bb],
                                   harness.StragglerModel(count=params.servers, seed=0),
                                   systematic=systematic)

    rounds = [
        (lambda: cdbmm("ep", harness.ep_setup(FIELD, 2, 2, 2, 10)),
         {"ep_encode_a": 1, "ep_encode_b": 1}),
        (lambda: cdbmm("gcsa", gcsa.gcsa_params(FIELD, 1, 2, 2, 2, 2, 26)),
         {"gcsa_encode_a": 1, "gcsa_encode_b": 1}),
        (lambda: cdbmm("csa", csa.csa_params(FIELD, 1, 2, 5)),
         {"csa_encode_a": 1, "csa_encode_b": 1}),
        (lambda: cdbmm("csa-systematic", csa.csa_params(FIELD, 1, 2, 5, systematic=True)),
         {"systematic_encode": 1, "csa_encode_a": 1, "csa_encode_b": 1}),
        (lambda: nlinear(ncsa.ncsa_params(FIELD, 2, 1, 2, 5)), {"xs_encode": 2}),
        (lambda: nlinear(ncsa.ncsa_params(FIELD, 2, 1, 2, 6, x_secure=1)), {"xs_encode": 2}),
        (lambda: nlinear(ncsa.ncsa_params(FIELD, 2, 1, 2, 5, systematic=True), True),
         {"ncsa_systematic_encode": 1}),
    ]
    for run, want in rounds:
        calls.clear()
        run()
        assert dict(calls) == want


# Labels of perfbench/tracer.py's GROUPS whose functions were merged into
# others before this guard existed; the tracer finds nothing under them.
_GONE_GROUP_LABELS = {"gcsa.gcsa_answer", "ncsa.ncsa_encode", "ncsa.ncsa_systematic_decode"}


def test_benchmark_group_labels_resolve(monkeypatch):
    # perfbench times a group through the functions its labels name.  A
    # deleted function (say csa.systematic_answer) leaves its label reading
    # 0 ms while the tracer still installs and every group still reads above
    # zero on the others' time, so each label must name a function of csacode.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    unresolved = set()
    for label in {label for labels in tracer.GROUPS.values() for label in labels}:
        module, *path = label.split(".")
        obj = importlib.import_module(f"csacode.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not (inspect.isfunction(obj) and obj.__module__ == f"csacode.{module}"):
            unresolved.add(label)
    assert unresolved == _GONE_GROUP_LABELS


# ---- the round arena ----


def _arena_round(field, scheme, dims, seed, first=False):
    """One round of ``scheme`` on seeded (rows, inner, cols) entries,
    returning (products, the direct oracle's).  The first R + 1 servers
    respond if ``first``, else the last R + 1 (a systematic code then mixes
    raw and coded answers)."""
    rng = np.random.default_rng(seed)
    rows, inner, cols = dims
    if scheme in harness.CDBMM_SCHEMES:
        setup = {"ep": lambda: harness.ep_setup(field, 2, 2, 1, 9),
                 "csa": lambda: csa.csa_params(field, 2, 2, 7),
                 "csa-systematic": lambda: csa.csa_params(field, 2, 2, 7, systematic=True),
                 "gcsa": lambda: gcsa.gcsa_params(field, 1, 2, 2, 1, 1, 8)}[scheme]()
        batch = 3 if scheme == "ep" else setup.batch_size
        aa = [field.rand_matrix(rng, rows, inner) for _ in range(batch)]
        bb = [field.rand_matrix(rng, inner, cols) for _ in range(batch)]
        products, _ = harness.run_cdbmm(field, scheme, setup, aa, bb,
                                        _responders(scheme, setup, first))
        return products, harness.direct_products(field, aa, bb)
    x, b = {"ncsa": (0, 0), "ncsa-xb": (1, 1)}[scheme]
    omega = ncsa.matmul_map(rows, inner, cols)
    params = ncsa.ncsa_params(field, 2, 2, 2, ncsa.xsb_threshold(2, 2, 2, x, b) + 1, x, b)
    batches = [[field.rand_matrix(rng, *shape) for _ in range(4)]
               for shape in omega.var_shapes]
    straggler = _responders("ncsa", params, first)
    forger = (harness.ByzantineModel.seeded(field, straggler.responsive[:b], seed)
              if b else None)
    products, _ = harness.run_nlinear(field, params, omega, batches, straggler, forger)
    return products, harness.direct_evaluations(field, omega, batches)


def _responders(scheme, setup, first):
    r = harness.theoretical_costs(scheme, setup).threshold
    servers = range(r + 1) if first else range(setup.servers - r - 1, setup.servers)
    return harness.StragglerModel(responsive=tuple(servers))


_ARENA_SCHEMES = ("ep", "csa", "csa-systematic", "gcsa", "ncsa", "ncsa-xb")


@pytest.mark.parametrize("q", [65537, 2147483629])
def test_round_results_survive_later_rounds_and_never_view_the_arena(q):
    # Every round keeps its shares, answers and concatenations in this
    # thread's round arena and returns fresh products: rounds of the same,
    # larger and smaller shapes afterwards, in every scheme, change no
    # earlier product.  A larger round replaces a grown buffer, so overlap
    # with the arena is checked right after each round.  The first two
    # shapes are large enough for the arena, so the decoders read their
    # answers in place.
    field = PrimeField(q)
    kept = {}
    for scheme, first in itertools.product(_ARENA_SCHEMES, (True, False)):
        products, _ = kept[scheme, first] = _arena_round(field, scheme, (64, 32, 64), 1, first)
        arena = list(ffield._WORKSPACES.__dict__.values())
        assert not any(np.shares_memory(p, buf) for p in products for buf in arena), scheme
    assert {"shares-0", "shares-1", "answers", "concat-a", "concat-b"} <= set(
        ffield._WORKSPACES.__dict__)
    later = [p for dims, seed in (((64, 32, 64), 2), ((96, 48, 96), 3), ((4, 2, 2), 4))
             for s in _ARENA_SCHEMES for p in _arena_round(field, s, dims, seed)[0]]
    for scheme, (products, truth) in kept.items():
        assert all(np.array_equal(p, t) for p, t in zip(products, truth)), scheme
        assert not any(np.shares_memory(p, other) for p in products for other in later), scheme


def test_encoders_without_an_arena_return_independent_shares():
    rng = np.random.default_rng(21)
    params = csa.csa_params(FIELD, 2, 2, 7)
    aa = [FIELD.rand_matrix(rng, 4, 3) for _ in range(4)]
    first = csa.csa_encode_a(FIELD, aa, params, range(7))
    second = csa.csa_encode_a(FIELD, aa, params, range(7))
    arena = list(ffield._WORKSPACES.__dict__.values())
    for s in range(7):
        for x, y in zip(first[s], second[s]):
            assert np.array_equal(x, y) and not np.shares_memory(x, y)
            assert not any(np.shares_memory(x, buf) for buf in arena)


def test_same_shape_rounds_reuse_the_arena(monkeypatch):
    # Two rounds of one shape write their shares and answers at the same
    # addresses, so the arena is reused rather than grown, and the decoder
    # solves on the answer rows in place; a smaller round after them reads a
    # prefix of the same buffers and is still exact.
    seen, solved = [], []
    answer = csa.csa_answer

    def recorded(field, share_a, share_b, counter=None, out=None):
        if out is not None:  # the small round's answers stay out of the arena
            seen[-1].append(tuple(x.__array_interface__["data"][0]
                                  for x in (*share_a, *share_b, out)))
        return answer(field, share_a, share_b, counter, out)

    monkeypatch.setattr(csa, "csa_answer", recorded)
    monkeypatch.setattr(csa, "solve_batch", lambda f, mat, rhs, **kw: solved.append(
        np.shares_memory(rhs, ffield._WORKSPACES.answers)) or structmat.solve_batch(
        f, mat, rhs, **kw))
    for seed in (4, 5):
        seen.append([])
        _, buffers = _arena_round(FIELD, "csa", (64, 32, 64), seed), dict(
            ffield._WORKSPACES.__dict__)
    assert seen[0] == seen[1] and len(seen[0]) == 6
    assert solved == [True, True]
    products, truth = _arena_round(FIELD, "csa", (4, 2, 2), 6)
    assert all(np.array_equal(p, t) for p, t in zip(products, truth))
    assert all(ffield._WORKSPACES.__dict__[name] is buf for name, buf in buffers.items())


def test_decoders_read_answer_rows_in_place_only_when_consecutive():
    # csa_decode reads the answers in place only when they are consecutive
    # rows of one buffer; rows out of order, with a gap, or copied decode
    # the same products from a stacked copy.
    rng = np.random.default_rng(22)
    params = csa.csa_params(FIELD, 2, 2, 7)
    aa = [FIELD.rand_matrix(rng, 64, 8) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 8, 64) for _ in range(4)]
    truth = harness.direct_products(FIELD, aa, bb)
    rows = np.empty((7, 64, 64), dtype=np.int64)  # 32 KiB answers
    for s, (sa, sb) in enumerate(zip(csa.csa_encode_a(FIELD, aa, params, range(7)),
                                     csa.csa_encode_b(FIELD, bb, params, range(7)))):
        csa.csa_answer(FIELD, sa, sb, out=rows[s])
    for order in ([0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [4, 3, 2, 1, 0], [0, 2, 1, 3, 4],
                  [0, 1, 2, 4, 5], [0, 2, 4, 6, 1]):
        answers = [(s, rows[s]) for s in order]
        got = csa.csa_decode(FIELD, answers, params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth)), order
        got = csa.csa_decode(FIELD, [(s, y.copy()) for s, y in answers], params)
        assert all(np.array_equal(g, t) for g, t in zip(got, truth)), order


def test_rounds_are_exact_in_two_concurrent_threads():
    # The round arena is per thread, like the matmul workspaces: two threads
    # running rounds of different shapes and fields, all large enough for
    # the arena, never share a buffer.
    barrier = threading.Barrier(2, timeout=60)
    failures, finished = [], []

    def work(q, dims):
        field = PrimeField(q)
        barrier.wait()
        for seed in range(6):
            for scheme in ("csa", "gcsa"):
                products, truth = _arena_round(field, scheme, dims, seed)
                if not all(np.array_equal(p, t) for p, t in zip(products, truth)):
                    failures.append((q, scheme, seed))
        finished.append(q)

    threads = [threading.Thread(target=work, args=args)
               for args in ((65537, (64, 32, 64)), (2147483629, (96, 48, 64)))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between numpy calls
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and len(finished) == 2


def test_a_round_inside_a_map_leaves_the_outer_rounds_arena_alone():
    # A map may itself run a round in the same thread; that inner round must
    # not write over the shares the outer round is still answering from.
    inner = csa.csa_params(FIELD, 1, 1, 3)

    def product(field, a, b):
        products, _ = harness.run_cdbmm(field, "csa", inner, [a], [b],
                                        harness.StragglerModel(count=2))
        return products[0]

    omega = dataclasses.replace(ncsa.matmul_map(64, 32, 64), fn=product)
    params = ncsa.ncsa_params(FIELD, 2, 2, 2, ncsa.xsb_threshold(2, 2, 2, 0, 0))
    rng = np.random.default_rng(23)
    batches = [[FIELD.rand_matrix(rng, *shape) for _ in range(4)]
               for shape in omega.var_shapes]
    got, _ = harness.run_nlinear(FIELD, params, omega, batches,
                                 harness.StragglerModel(count=params.servers))
    truth = harness.direct_products(FIELD, *batches)
    assert all(np.array_equal(g, t) for g, t in zip(got, truth))
