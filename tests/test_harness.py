import collections
import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from csacode import csa, ffield, gcsa, harness, ncsa, structmat
from csacode.errors import InsufficientAnswersError, ParameterError
from csacode.ffield import PrimeField
from reference import xsb_threshold

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
    # 64 x 64 entries make every variable's shares, the constant slot's
    # included, large enough for the round arena
    rng = np.random.default_rng(8)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 6)
    for size in (2, 64):
        omega = ncsa.matmul_map(size, size, size)
        spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),
                                       ncsa.PolyTerm(2, omega, (0, None))))
        aa = [FIELD.rand_matrix(rng, size, size) for _ in range(2)]
        bb = [FIELD.rand_matrix(rng, size, size) for _ in range(2)]
        evals, _ = harness.run_nlinear(FIELD, params, spec, [aa, bb],
                                       harness.StragglerModel(count=6, seed=1))
        ones = np.ones((size, size), dtype=np.int64)
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


def _forged_round(field):
    """(params, omega, batches, straggler) of an X = B = 1 round whose
    server 5 answers among the first R = 5."""
    rng = np.random.default_rng(19)
    params = ncsa.ncsa_params(field, 2, 1, 1, 7, x_secure=1, byzantine=1, noise_seed=2)
    batches = [[field.rand_matrix(rng, 2, 2)], [field.rand_matrix(rng, 2, 2)]]
    return (params, ncsa.matmul_map(2, 2, 2), batches,
            harness.StragglerModel(responsive=(0, 2, 3, 5, 6)))


@pytest.mark.parametrize("forgery", [
    lambda y: y.astype(float), lambda y: y.tolist(), lambda y: y[:1], lambda y: y.reshape(-1),
], ids=["float", "nested-list", "fewer-rows", "flattened"])
def test_a_forged_answer_is_checked_as_it_enters_the_stack(forgery):
    # A forgery is written into its server's int64 row of the round's answer
    # stack: one that is not an integer array of the answer's shape is
    # refused, not cast or broadcast into that row
    params, omega, batches, straggler = _forged_round(FIELD)
    byzantine = harness.ByzantineModel((5,), lambda s, y: forgery((y + 1) % FIELD.q))
    with pytest.raises(ParameterError, match="server 5 must be an integer array of shape"):
        harness.run_nlinear(FIELD, params, omega, batches, straggler, byzantine)


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_an_unreduced_forgery_decodes_as_its_residues(q):
    # A forged answer outside [0, q) is reduced as it enters the stack, so
    # it decodes, and its server is flagged, exactly as its residues are
    field = PrimeField(q)
    params, omega, batches, straggler = _forged_round(field)
    truth = harness.direct_evaluations(field, omega, batches)
    outcomes = []
    for forge in (lambda y: (y + 1) % q, lambda y: y + 1 + q, lambda y: y + 1 - q,
                  lambda y: (y + 1 + 3 * q).astype(np.uint64), lambda y: y + 1 - 2**20 * q):
        evals, report = harness.run_nlinear(field, params, omega, batches, straggler,
                                            harness.ByzantineModel((5,), lambda s, y: forge(y)))
        assert all(np.array_equal(e, t) for e, t in zip(evals, truth))
        outcomes.append(([e.tobytes() for e in evals], report))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert outcomes[0][1].flagged_servers == (5,)


def test_a_systematic_round_answers_in_two_calls(monkeypatch):
    # A systematic layout's responsive servers answer in one call for the
    # raw servers and one for the coded servers, never one call a server
    calls = []
    for module, name in ((csa, "csa_answer"), (ncsa, "ncsa_answer")):
        def counted(*args, fn=getattr(module, name), name=name, **kw):
            y = fn(*args, **kw)
            calls.append((name, len(y)))
            return y

        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(20)
    aa = [FIELD.rand_matrix(rng, 4, 2) for _ in range(4)]
    bb = [FIELD.rand_matrix(rng, 2, 4) for _ in range(4)]
    setup = csa.csa_params(FIELD, 2, 2, 8, systematic=True)  # raw servers 0..3
    params = ncsa.ncsa_params(FIELD, 2, 2, 2, 8, systematic=True)
    for responsive, want in (((0, 2, 4, 5, 6, 7), [2, 4]), ((1, 3, 4, 5, 6), [2, 3]),
                             ((3, 4, 5, 6, 7), [1, 4]), ((2, 4, 5, 6, 7), [1, 4])):
        straggler = harness.StragglerModel(responsive=responsive)
        for name, run, truth in (
                ("csa_answer", lambda: harness.run_cdbmm(
                    FIELD, "csa-systematic", setup, aa, bb, straggler),
                 harness.direct_products(FIELD, aa, bb)),
                ("ncsa_answer", lambda: harness.run_nlinear(
                    FIELD, params, ncsa.matmul_map(4, 2, 4), [aa, bb], straggler),
                 harness.direct_products(FIELD, aa, bb))):
            calls.clear()
            got, _ = run()
            assert all(np.array_equal(g, t) for g, t in zip(got, truth))
            assert calls == [(name, n) for n in want], (name, responsive)


def _cdbmm(scheme, setup):
    rng = np.random.default_rng(17)
    batch = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    return harness.run_cdbmm(FIELD, scheme, setup, *batch,
                             harness.StragglerModel(count=setup.servers))


def _csa_setup():
    return csa.csa_params(FIELD, 1, 2, 5)


def _gcsa_setup():
    return gcsa.gcsa_params(FIELD, 1, 2, 1, 2, 1, 8)


# The families of setups every scheme takes, and a setup of each family:
# EP's setup is GCSA's with ell = kc = 1 and CSA's GCSA's with p = m = n = 1,
# so "gcsa" takes both; CSA's is also N-CSA's with N = 2 and ell = 1, so
# "ncsa" and "lcc" take it
_FAMILY = {"ep": ("ep",), "csa": ("csa",), "csa-systematic": ("csa",),
           "gcsa": ("gcsa", "ep", "csa"),
           "ncsa": ("ncsa", "csa"), "lcc": ("ncsa", "csa")}
_FAMILY_SETUPS = {"ep": lambda: harness.ep_setup(FIELD, 2, 1, 1, 5), "csa": _csa_setup,
                  "gcsa": _gcsa_setup, "ncsa": lambda: ncsa.ncsa_params(FIELD, 3, 1, 2, 7)}
_MISMATCHED = [(scheme, family) for scheme in _FAMILY for family in _FAMILY_SETUPS
               if family not in _FAMILY[scheme]]
# N-CSA setups a matrix product's name refuses: X, B, a noise seed, N = 3
_NCSA_SETUPS = {"x": lambda: ncsa.ncsa_params(FIELD, 2, 1, 1, 7, x_secure=1),
                "b": lambda: ncsa.ncsa_params(FIELD, 2, 1, 2, 9, byzantine=1),
                "seed": lambda: ncsa.ncsa_params(FIELD, 2, 1, 2, 5, noise_seed=3),
                "n3": lambda: ncsa.ncsa_params(FIELD, 3, 1, 1, 5)}


@pytest.mark.parametrize("call", [
    *(pytest.param(lambda s=scheme, f=family: _cdbmm(s, _FAMILY_SETUPS[f]()),
                   id=f"{family}-as-{scheme}")
      for scheme, family in _MISMATCHED if scheme in harness.CDBMM_SCHEMES),
    *(pytest.param(lambda s=scheme, f=family: harness.theoretical_costs(s, _FAMILY_SETUPS[f]()),
                   id=f"costs-{family}-as-{scheme}") for scheme, family in _MISMATCHED),
    *(pytest.param(lambda f=family: harness.run_nlinear(
        FIELD, _FAMILY_SETUPS[f](), ncsa.matmul_map(2, 2, 2), [_matrices(1), _matrices(2)],
        harness.StragglerModel(count=5)), id=f"nlinear-on-{family}")
      for family in _FAMILY_SETUPS if family not in _FAMILY["ncsa"]),
    # N = 2 without X, B or noise seed is all a matrix product's name takes
    *(pytest.param(lambda s=scheme, k=kind: _cdbmm(s, _NCSA_SETUPS[k]()),
                   id=f"ncsa-{kind}-as-{scheme}")
      for scheme, kind in [("csa", "x"), ("gcsa", "b"), ("csa", "seed"), ("ep", "n3")]),
    *(pytest.param(lambda s=scheme, k=kind: harness.theoretical_costs(s, _NCSA_SETUPS[k]()),
                   id=f"costs-ncsa-{kind}-as-{scheme}")
      for scheme, kind in [("ep", "x"), ("csa", "b"), ("gcsa", "seed"), ("csa", "n3")]),
    # a partition takes no N = 3, no X and no B, and ncsa and lcc no partition
    pytest.param(lambda: csa.csa_params(FIELD, 1, 2, 20, p=2, arity=3), id="partition-n3"),
    pytest.param(lambda: csa.csa_params(FIELD, 1, 2, 20, m=2, x_secure=1), id="partition-x"),
    pytest.param(lambda: csa.csa_params(FIELD, 1, 2, 20, n=2, byzantine=1), id="partition-b"),
    pytest.param(lambda: csa.csa_params(FIELD, 1, 2, 20, p=2, systematic=True),
                 id="partition-systematic"),
    pytest.param(lambda: harness.run_nlinear(
        FIELD, gcsa.gcsa_params(FIELD, 1, 1, 1, 2, 1, 8), ncsa.matmul_map(2, 2, 2),
        [_matrices(1), _matrices(2)], harness.StragglerModel(count=8)), id="nlinear-on-m2"),
    pytest.param(lambda: harness.theoretical_costs("lcc", gcsa.gcsa_params(
        FIELD, 1, 2, 1, 1, 2, 12)), id="costs-n2-as-lcc"),
    # LCC is N-CSA with ell = 1: ell = 2 once costed as N-CSA's R = 5, not LCC's 7
    pytest.param(lambda: harness.theoretical_costs("lcc", ncsa.ncsa_params(FIELD, 2, 2, 2, 9)),
                 id="costs-ell2-as-lcc"),
])
def test_a_setup_of_another_family_is_refused(call):
    # N-CSA parameters under "csa" once decoded wrong products with no error
    # (the arity-3 decode matrix against bilinear shares); the others died
    # with a bare AttributeError
    with pytest.raises(ParameterError, match="takes"):
        call()


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_an_n_csa_setup_with_n_2_is_the_csa_setup(q):
    # CSA is N-CSA with N = 2: one setup, one threshold formula, and an
    # N-CSA round of the matrix product gives the CSA round's products and costs
    field = PrimeField(q)
    rng = np.random.default_rng(q)
    for ell, kc, extra in ((1, 1, 0), (1, 3, 2), (2, 2, 1), (3, 1, 2)):
        servers = csa.csa_threshold(ell, kc) + extra
        setup = csa.csa_params(field, ell, kc, servers)
        assert ncsa.ncsa_params(field, 2, ell, kc, servers) == setup
        assert setup.threshold == gcsa.gcsa_threshold(ell, kc, 1, 1, 1)
        assert setup.threshold == xsb_threshold(2, ell, kc, 0, 0)
        aa = [field.rand_matrix(rng, 2, 3) for _ in range(ell * kc)]
        bb = [field.rand_matrix(rng, 3, 2) for _ in range(ell * kc)]
        straggler = harness.StragglerModel(count=int(rng.integers(setup.threshold, servers + 1)),
                                           seed=ell + kc)
        products, report = harness.run_cdbmm(field, "csa", setup, aa, bb, straggler)
        evals, n_report = harness.run_nlinear(field, setup, ncsa.matmul_map(2, 3, 2), [aa, bb],
                                              straggler)
        assert all(np.array_equal(e, p) for e, p in zip(evals, products, strict=True))
        assert (n_report.theory, n_report.measured) == (report.theory, report.measured)
    # the one formula is GCSA's wherever a partition is, N-CSA's wherever N, X or B is
    for ell, kc, p, m, n in itertools.product((1, 2), (1, 3), (1, 2), (1, 3), (1, 2)):
        r = gcsa.gcsa_threshold(ell, kc, p, m, n)
        assert csa.csa_params(PrimeField(2147483629), ell, kc, r, p=p, m=m, n=n).threshold == r
    for arity, ell, kc, x, b in itertools.product((2, 3, 4), (1, 2), (1, 3), (0, 2), (0, 1)):
        r = xsb_threshold(arity, ell, kc, x, b)
        assert ncsa.ncsa_params(PrimeField(2147483629), arity, ell, kc, r, x, b).threshold == r


def test_ep_is_gcsa_with_one_group_of_one():
    # "ep" fixes ell = kc = 1 as "csa-systematic" fixes the layout, so it
    # refuses GCSA parameters with ell * kc > 1; EP's own setup is GCSA's,
    # which "gcsa" runs to the same products and costs
    for ell, kc in ((2, 1), (1, 2), (2, 2)):
        setup = gcsa.gcsa_params(FIELD, ell, kc, 1, 2, 1, 20)
        for call in (lambda: _cdbmm("ep", setup), lambda: harness.theoretical_costs("ep", setup)):
            with pytest.raises(ParameterError, match="'ep' takes parameters with"):
                call()
    setup = harness.ep_setup(FIELD, 2, 1, 1, 5)
    assert setup == gcsa.gcsa_params(FIELD, 1, 1, 2, 1, 1, 5)
    rng = np.random.default_rng(18)
    aa, bb = ([FIELD.rand_matrix(rng, 2, 2) for _ in range(3)] for _ in range(2))
    ep_round, gcsa_round = (harness.run_cdbmm(FIELD, scheme, setup, aa, bb,
                                              harness.StragglerModel(count=4, seed=2))
                            for scheme in ("ep", "gcsa"))
    assert all(np.array_equal(e, g) for e, g in zip(ep_round[0], gcsa_round[0]))
    assert dataclasses.replace(ep_round[1], scheme="gcsa") == gcsa_round[1]


def test_csa_is_gcsa_with_no_partition():
    # a CSA setup is GCSA's with p = m = n = 1, which "gcsa" runs to the
    # same products and costs as "csa"
    setup = _csa_setup()
    assert setup == gcsa.gcsa_params(FIELD, 1, 2, 1, 1, 1, 5)
    rng = np.random.default_rng(19)
    aa, bb = ([FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2))
    csa_round, gcsa_round = (harness.run_cdbmm(FIELD, scheme, setup, aa, bb,
                                               harness.StragglerModel(count=4, seed=3))
                             for scheme in ("csa", "gcsa"))
    assert all(c.tobytes() == g.tobytes() for c, g in zip(csa_round[0], gcsa_round[0]))
    assert dataclasses.replace(csa_round[1], scheme="gcsa") == gcsa_round[1]


@pytest.mark.parametrize("scheme, make, why", [
    ("csa", lambda: csa.csa_params(FIELD, 1, 2, 5, systematic=True), "systematic=False"),
    ("csa-systematic", lambda: csa.csa_params(FIELD, 1, 2, 5), "systematic=True"),
    ("csa", lambda: gcsa.gcsa_params(FIELD, 1, 2, 1, 2, 1, 8), "m=1"),
    ("csa-systematic", lambda: gcsa.gcsa_params(FIELD, 1, 2, 2, 1, 1, 8), "p=1"),
    ("ep", lambda: csa.csa_params(FIELD, 1, 1, 5, systematic=True), "systematic=False"),
    ("gcsa", lambda: csa.csa_params(FIELD, 1, 2, 5, systematic=True), "systematic=False"),
], ids=["csa-True", "csa-systematic-False", "csa-partitioned", "csa-systematic-partitioned",
        "ep-systematic", "gcsa-systematic"])
def test_csa_parameters_of_the_other_layout_are_refused(scheme, make, why):
    # every matrix product's setup is CSAParams: a name refuses a field it
    # neither takes nor fixes unless that field holds its default
    setup = make()
    for call in (lambda: _cdbmm(scheme, setup), lambda: harness.theoretical_costs(scheme, setup)):
        with pytest.raises(ParameterError, match=f"{scheme!r} takes parameters with {why}"):
            call()


def test_nlinear_rejects_forgers_without_a_byzantine_budget():
    # with B = 0 the forged answer once decoded to wrong evaluations, unflagged
    rng = np.random.default_rng(14)
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    byz = harness.ByzantineModel.seeded(FIELD, (3,), seed=1)
    for systematic in (False, True):
        params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5, systematic=systematic)
        with pytest.raises(ParameterError, match="Byzantine budget"):
            harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2), batches,
                                harness.StragglerModel(count=5), byz)


def test_nlinear_rejects_a_spec_in_the_systematic_layout(monkeypatch):
    # once a bare TypeError from the first answer; now refused before encoding
    def encode(*args, **kwargs):
        raise AssertionError("encoded before validation")

    monkeypatch.setattr(ncsa, "xs_encode", encode)
    rng = np.random.default_rng(15)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5, systematic=True)
    omega = ncsa.matmul_map(2, 2, 2)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),))
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    with pytest.raises(ParameterError, match="systematic"):
        harness.run_nlinear(FIELD, params, spec, batches, harness.StragglerModel(count=5))


def test_systematic_nlinear_round_counts_server_mults():
    # systematic rounds once reported 0: neither the raw servers' map
    # evaluations nor the coded servers' answers were counted
    rng = np.random.default_rng(16)
    for omega, want in ((ncsa.matmul_map(2, 2, 2), 12), (ncsa.determinant_map(2), 0)):
        batches = [[FIELD.rand_matrix(rng, int(np.prod(shape)), 1).reshape(shape) for _ in range(2)]
                   for shape in omega.var_shapes]
        counts = []
        for systematic in (False, True):
            params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5, systematic=systematic)
            _, report = harness.run_nlinear(FIELD, params, omega, batches,
                                            harness.StragglerModel(count=5))
            counts.append(report.server_mults)
        assert counts == [want, want], omega.name


def test_polynomial_spec_round_counts_every_term():
    # spec rounds once reported 0: no term's ncsa_answer got the counter
    rng = np.random.default_rng(17)
    params = ncsa.ncsa_params(FIELD, 2, 2, 1, 6)
    omega = ncsa.matmul_map(2, 2, 2)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(3, omega, (0, 1)),
                                   ncsa.PolyTerm(5, omega, (1, None))))
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(3)]
    _, report = harness.run_nlinear(FIELD, params, spec, batches[:2],
                                    harness.StragglerModel(count=6))
    shares = dict(zip((0, 1, None), ncsa.xs_encode(FIELD, batches, params, 0)))
    counts = []
    for term in spec.terms:
        counter = harness.OpCounter()
        ncsa.ncsa_answer(FIELD, [shares[v] for v in term.slots], term.omega, params, 0, counter)
        counts.append(counter.mults)
    # and each term's weighting, one multiplication an output element
    assert report.server_mults == sum(counts) + 2 * 4 == 2 * counts[0] + 8 == 56


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

_ROUND_GROUPS = ("ffield.matmul", "ffield.inv", "structmat.solve_batch", "harness.round")
_CSA_GROUPS = ("csa.encode", "csa.answer", "csa.decode")
_NCSA_GROUPS = ("ncsa.encode", "ncsa.noise", "ncsa.answer", "ncsa.decode")
# Every group of perfbench/tracer.py that reads above zero on each workload.
_TIMED_GROUPS = {
    "cdbmm-large": _CSA_GROUPS + _ROUND_GROUPS,
    "cdbmm-q31": _CSA_GROUPS + _ROUND_GROUPS,
    # an X-secure encode is its own generator product, timed in ncsa.encode
    "secure-byzantine": _NCSA_GROUPS + _ROUND_GROUPS,
    "small-mixed": _CSA_GROUPS + _NCSA_GROUPS + _ROUND_GROUPS,
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


@pytest.mark.parametrize("model", [
    lambda: harness.StragglerModel(responsive=(0.5, 1, 2)).pick(4),
    lambda: harness.StragglerModel(responsive=(True, 2)).pick(4),
    lambda: harness.StragglerModel(count=2.0).pick(4),
    lambda: harness.ByzantineModel.seeded(FIELD, (3.9,)),
], ids=["float-index", "bool-index", "float-count", "float-corrupted"])
def test_models_refuse_non_integer_servers(model):
    # int() once ran 0.5 as server 0, True as server 1 and 3.9 as server 3
    with pytest.raises(ParameterError, match="integer"):
        model()


@pytest.mark.parametrize("valid, invalid", [
    (dict(responsive=(1, 2)), dict(responsive=(0.5, 1, 2))),
    (dict(responsive=(1, 2)), dict(responsive=(True, 2))),
    (dict(responsive=(1, 2)), dict(responsive=(1.0, 2))),
    (dict(count=2), dict(count=2.0)),
], ids=["float-index", "bool-index", "float-equal-index", "float-count"])
def test_pick_refuses_non_integers_right_after_a_valid_round(valid, invalid):
    # A tuple of ints skips the full rule, and nothing is cached: (True, 2)
    # and (1.0, 2) equal (1, 2), so a cache would hand them its answer
    setup = csa.csa_params(FIELD, 1, 1, 3)  # R = 1
    batches = [_matrices(3, count=1), _matrices(5, count=1)]
    got, _ = harness.run_cdbmm(FIELD, "csa", setup, *batches, harness.StragglerModel(**valid))
    assert np.array_equal(got[0], harness.direct_products(FIELD, *batches)[0])
    with pytest.raises(ParameterError, match="integer"):
        harness.run_cdbmm(FIELD, "csa", setup, *batches, harness.StragglerModel(**invalid))


@pytest.mark.parametrize("form", [list, np.array, lambda s: tuple(np.int64(x) for x in s)],
                         ids=["list", "ndarray", "numpy-ints"])
def test_a_responsive_set_in_another_form_runs_as_the_tuple(form):
    setup = csa.csa_params(FIELD, 2, 1, 5)  # R = 3
    rng = np.random.default_rng(9)
    batches = [[FIELD.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    want, report = harness.run_cdbmm(FIELD, "csa", setup, *batches,
                                     harness.StragglerModel(responsive=(4, 0, 2, 0)))
    got, other = harness.run_cdbmm(FIELD, "csa", setup, *batches,
                                   harness.StragglerModel(responsive=form([4, 0, 2, 0])))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert repr(other) == repr(report)


def _cost_rounds(field: PrimeField) -> list:
    """(scheme, setup, run(dims)) of every scheme, one setup each, where
    run(dims) runs one round on (rows, inner, cols) entries and returns (the
    batches, the results, the report)."""
    rng = np.random.default_rng(17)

    def cdbmm(scheme, setup, size):
        def run(dims):
            rows, inner, cols = dims
            batches = [[field.rand_matrix(rng, rows, inner) for _ in range(size)],
                       [field.rand_matrix(rng, inner, cols) for _ in range(size)]]
            return (batches, *harness.run_cdbmm(field, scheme, setup, *batches,
                                                harness.StragglerModel(count=setup.servers)))
        return scheme, setup, run

    def nlinear(scheme, params):
        def run(dims):
            omega = ncsa.matmul_map(*dims)
            batches = [[field.rand_matrix(rng, *shape) for _ in range(params.batch_size)]
                       for shape in omega.var_shapes]
            return (batches, *harness.run_nlinear(field, params, omega, batches,
                                                  harness.StragglerModel(count=params.servers)))
        return scheme, params, run

    return [cdbmm("ep", harness.ep_setup(field, 2, 1, 1, 4), 3),
            cdbmm("csa", csa.csa_params(field, 2, 2, 8), 4),
            cdbmm("csa-systematic", csa.csa_params(field, 2, 2, 8, systematic=True), 4),
            cdbmm("gcsa", gcsa.gcsa_params(field, 1, 2, 2, 1, 1, 8), 2),
            nlinear("ncsa", ncsa.ncsa_params(field, 2, 2, 1, 6, x_secure=1)),
            nlinear("lcc", ncsa.ncsa_params(field, 2, 1, 2, 4))]


@pytest.mark.parametrize("case", _cost_rounds(FIELD), ids=lambda case: case[0])
def test_cached_measured_costs_equal_a_fresh_build(case):
    # A round's measured CostSummary and normalized server mults come from a
    # plan cache keyed by plain ints; two shapes under one setup each get
    # their own, equal to a fresh build, types included, on a hit too
    scheme, setup, run = case
    CostSummary = harness.CostSummary

    def fresh(batches, results, report):
        batch = len(batches[0])
        return CostSummary(setup.threshold, tuple(
            Fraction(u, batch * b[0].size) for u, b in zip(report.uploaded_elements, batches)),
            Fraction(report.downloaded_elements, batch * results[0].size)), Fraction(
                report.server_mults, batch)

    for dims in ((2, 2, 2), (4, 2, 6), (2, 2, 2)):  # the last hits the first's entry
        batches, results, report = run(dims)
        want = fresh(batches, results, report)
        got = (report.measured, report.normalized_server_mults)
        assert got == want and type(got[0]) is CostSummary
        fractions = [*got[0].uploads, got[0].download, got[1]]
        assert all(type(f) is Fraction and type(f.numerator) is int
                   and type(f.denominator) is int for f in fractions)
        assert type(got[0].threshold) is int and report.theory == harness.theoretical_costs(
            scheme, setup)
    assert harness._measured.cache_info().currsize == 2


def test_a_map_counting_in_numpy_ints_gets_its_own_fractions():
    # np.int64(8) keys like 8, but its Fraction holds a numpy numerator, so
    # a count that is not a plain int is built afresh, never cached
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5)
    batches = [_matrices(2), _matrices(3)]
    omega = ncsa.matmul_map(2, 2, 2)
    plain = harness.run_nlinear(FIELD, params, omega, batches, harness.StragglerModel(count=5))
    numpy = harness.run_nlinear(FIELD, params, dataclasses.replace(omega, mults=np.int64(
        omega.mults)), batches, harness.StragglerModel(count=5))
    counts = [report.normalized_server_mults for _, report in (plain, numpy)]
    assert counts[0] == counts[1] == Fraction(plain[1].server_mults, 2)
    assert [type(c.numerator) for c in counts] == [int, type(Fraction(np.int64(1), 2).numerator)]


def test_importing_the_harness_does_no_set_up_work():
    # perfbench's setup_s times a fresh import; the harness loads neither the
    # command line, the analysis nor .mat files, and builds no plan
    probe = ("import sys; from csacode import csa, harness; "
             "print(sorted(m for m in ('cli', 'analysis', 'matfile') "
             "if 'csacode.' + m in sys.modules)); "
             "print([plan.cache_info().currsize for plan in csa._PLANS])")
    env = dict(os.environ, PYTHONPATH=str(Path(csa.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, sizes = done.stdout.splitlines()
    assert loaded == "[]" and json.loads(sizes) == [0] * len(csa._PLANS)


def _matrices(value, shape=(2, 2), dtype=np.int64, count=2):
    return [np.full(shape, value, dtype=dtype) for _ in range(count)]


_MALFORMED_BATCHES = [
    ("csa", _matrices(1.5, dtype=np.float64), "integers"),
    ("csa", [], "empty"),
    ("csa", [np.ones(2, dtype=np.int64)] * 2, "matrices"),
    ("csa", [[[1, 2], [3]], [[1, 2], [3, 4]]], "rectangular"),
    ("csa", _matrices(True, dtype=bool), "integers"),
    ("ep", [np.ones((4, 4), dtype=np.int64), np.ones((2, 2), dtype=np.int64)], "one shape"),
    ("csa", _matrices(1, shape=(0, 2)), "no elements"),  # once a ZeroDivisionError
    ("csa", _matrices(1, shape=(2, 0)), "no elements"),
    ("ep", _matrices(1, shape=(0, 4)), "no elements"),
    # not a sequence: once a bare TypeError
    ("csa", 5, "sequence"),
    ("csa", np.array(5), "sequence"),
    ("csa", None, "sequence"),
    # a bool entry beside int64 ones, which one np.asarray would stack as int64
    ("csa", [np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=bool)], "integers"),
]


@pytest.mark.parametrize("scheme, batch_a, why", _MALFORMED_BATCHES)
def test_run_cdbmm_rejects_malformed_batches(scheme, batch_a, why):
    # checked before the cast to int64, which would truncate 1.5 to 1
    setup = (csa.csa_params(FIELD, 1, 2, 5) if scheme == "csa"
             else harness.ep_setup(FIELD, 1, 2, 2, 6))
    batch_b = _matrices(1, shape=(4, 4) if scheme == "ep" else (2, 2))
    with pytest.raises(ParameterError, match=why):
        harness.run_cdbmm(FIELD, scheme, setup, batch_a, batch_b,
                          harness.StragglerModel(count=setup.servers))


def _entry_points(field: PrimeField) -> dict:
    """Every public encoder, single and batch forms, as encode(batch) for a
    batch of L = 2 matrices of shape (2, 2)."""
    cparams = csa.csa_params(field, 1, 2, 5)
    gparams = gcsa.gcsa_params(field, 1, 2, 2, 1, 1, 8)  # grids 1x2 and 2x1
    esetup = harness.ep_setup(field, 2, 1, 1, 3)
    xparams = ncsa.ncsa_params(field, 2, 1, 2, 6, x_secure=1)
    sparams = csa.csa_params(field, 1, 2, 5, systematic=True)
    nparams = ncsa.ncsa_params(field, 2, 1, 2, 5, systematic=True)
    return {
        "csa_encode_a": lambda b: csa.csa_encode_a(field, b, cparams, range(5)),
        "csa_encode_b": lambda b: csa.csa_encode_b(field, b, cparams, range(5)),
        "csa_encode_a-single": lambda b: csa.csa_encode_a(field, b, cparams, 3),
        "csa_encode_b-single": lambda b: csa.csa_encode_b(field, b, cparams, 3),
        "csa_encode_a-gcsa": lambda b: csa.csa_encode_a(field, b, gparams, range(8)),
        "csa_encode_b-gcsa": lambda b: csa.csa_encode_b(field, b, gparams, range(8)),
        "csa_encode_a-gcsa-single": lambda b: csa.csa_encode_a(field, b, gparams, 3),
        "csa_encode_b-gcsa-single": lambda b: csa.csa_encode_b(field, b, gparams, 3),
        "csa_encode_a-ep": lambda b: csa.csa_encode_a(field, b, esetup, range(3)),
        "csa_encode_b-ep": lambda b: csa.csa_encode_b(field, b, esetup, range(3)),
        "csa_encode_a-ep-single": lambda b: csa.csa_encode_a(field, b, esetup, 2),
        "csa_encode_b-ep-single": lambda b: csa.csa_encode_b(field, b, esetup, 2),
        "xs_encode": lambda b: ncsa.xs_encode(field, [b], xparams, range(6))[0],
        "xs_encode-single": lambda b: ncsa.xs_encode(field, [b, b], xparams, 4)[1],
        "csa_encode_a-systematic": lambda b: csa.csa_encode_a(field, b, sparams, range(5)),
        "csa_encode_b-systematic": lambda b: csa.csa_encode_b(field, b, sparams, range(5)),
        "xs_encode-systematic": lambda b: ncsa.xs_encode(field, [b], nparams, range(5))[0],
    }


def _plain(x):
    """Nested shares as plain Python values: arrays become lists of ints."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    return x


@pytest.mark.parametrize("q", [65537, 2147483629])
@pytest.mark.parametrize("name", list(_entry_points(FIELD)))
def test_entry_points_reduce_uint64_entries(q, name):
    # uint64 entries at and above 2^63 encode like their residues, reduced
    # here with Python ints; a plain cast to int64 once wrapped them
    field = PrimeField(q)
    values = [[[2**63, 1], [2**64 - 1, 5]], [[2**64 - 1, 2**63], [7, 0]]]
    big = [np.array(v, dtype=np.uint64) for v in values]
    residues = [np.array([[x % q for x in row] for row in v], dtype=np.int64)
                for v in values]
    encode = _entry_points(field)[name]
    want = _plain(encode(residues))
    assert _plain(encode(big)) == want
    # uint64 beside int64 entries, which numpy would stack as float64
    assert _plain(encode([big[0], residues[1] - q])) == want


@pytest.mark.parametrize("name", list(_entry_points(FIELD)))
@pytest.mark.parametrize("scheme, batch, why", [
    row for row in _MALFORMED_BATCHES if row[2] not in ("one shape", "matrices")] + [
    ("csa", _matrices(1, count=n), "does not match L") for n in (1, 3)])  # L = 2
def test_encoders_reject_what_the_harness_rejects(name, scheme, batch, why):
    # one batch check for every encoder and the harness, so each malformed
    # batch of run_cdbmm is a ParameterError with the same reason here (the
    # encoders always refused mixed shapes, and the Cauchy ones take vectors);
    # X-secure shares check the batch before adding their noise blocks
    encode = _entry_points(FIELD)[name]
    if why == "does not match L" and name.endswith(("-ep", "-ep-single")):
        # EP codes each entry alone, any count of them: two elements a
        # share of each 2x2 entry, at 3 servers or at 1
        assert encode(batch).size == (3 if name.endswith("-ep") else 1) * len(batch) * 2
        return
    with pytest.raises(ParameterError, match=why):
        encode(batch)


def test_run_nlinear_rejects_non_integer_batches():
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 5)
    for batch in (5, np.array(5), None):  # not a sequence: once a bare TypeError
        with pytest.raises(ParameterError, match="sequence"):
            harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2),
                                [_matrices(1), batch], harness.StragglerModel(count=5))
    floats = _matrices(1.5, dtype=np.float64)
    with pytest.raises(ParameterError, match="integers"):
        harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2),
                            [floats, _matrices(1)], harness.StragglerModel(count=5))
    with pytest.raises(ParameterError, match="empty"):
        harness.run_nlinear(FIELD, params, ncsa.matmul_map(2, 2, 2),
                            [[], []], harness.StragglerModel(count=5))
    empty = [np.zeros(0, dtype=np.int64)] * 2  # once a ZeroDivisionError
    with pytest.raises(ParameterError, match="no elements"):
        harness.run_nlinear(FIELD, params, ncsa.elementwise_product_map(2, 0),
                            [empty, empty], harness.StragglerModel(count=5))


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


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, imported from this checkout for one test."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_gate_smoke(monkeypatch):
    # One operation of every benchmark workload, in process: a kernel or
    # encode change that breaks the gate fails here, not in the benchmark.
    workloads = _perfbench_workloads(monkeypatch)
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
    monkeypatch.setattr(csa, "solve_batch", lambda *args, **kw: solves.append(args)
                        or structmat.solve_batch(*args, **kw))
    harness.run_cdbmm(FIELD, "ep", setup, aa, bb, harness.StragglerModel(count=10, seed=1))
    assert len(solves) == 1


def test_rounds_call_the_encoders_the_benchmark_times(monkeypatch):
    # perfbench times each family's encode through these public functions
    # (its csa and ncsa "encode" groups; EP and GCSA run csa's encoders); a
    # round that routed around them would read 0 ms there.  A patched name
    # counts the calls made through its own module, not through another
    # module's import.
    encoders = {csa: ("csa_encode_a", "csa_encode_b"), ncsa: ("xs_encode",)}
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

    def nlinear(params):
        return harness.run_nlinear(FIELD, params, omega, [aa, bb],
                                   harness.StragglerModel(count=params.servers, seed=0))

    rounds = [
        (lambda: cdbmm("ep", harness.ep_setup(FIELD, 2, 2, 2, 10)),
         {"csa_encode_a": 1, "csa_encode_b": 1}),
        (lambda: cdbmm("gcsa", gcsa.gcsa_params(FIELD, 1, 2, 2, 2, 2, 26)),
         {"csa_encode_a": 1, "csa_encode_b": 1}),
        (lambda: cdbmm("csa", csa.csa_params(FIELD, 1, 2, 5)),
         {"csa_encode_a": 1, "csa_encode_b": 1}),
        (lambda: cdbmm("csa-systematic", csa.csa_params(FIELD, 1, 2, 5, systematic=True)),
         {"csa_encode_a": 1, "csa_encode_b": 1}),
        (lambda: nlinear(ncsa.ncsa_params(FIELD, 2, 1, 2, 5)), {"xs_encode": 1}),
        (lambda: nlinear(ncsa.ncsa_params(FIELD, 2, 1, 2, 6, x_secure=1)), {"xs_encode": 1}),
        (lambda: nlinear(ncsa.ncsa_params(FIELD, 2, 1, 2, 5, systematic=True)),
         {"xs_encode": 1}),
    ]
    for run, want in rounds:
        calls.clear()
        run()
        assert dict(calls) == want


# Labels of perfbench/tracer.py's GROUPS whose functions were merged into
# others; the tracer finds nothing under them.  The systematic layout's
# five entry points are now the CSA encoder, answer and decoder (and
# ncsa_answer) on parameters that carry the layout, and EP and GCSA are one
# code with CSA (csa's encoders, answer and decoder).
_GONE_GROUP_LABELS = {"gcsa.gcsa_answer", "ncsa.ncsa_encode", "ncsa.ncsa_systematic_decode",
                      "csa.systematic_encode", "csa.systematic_answer",
                      "csa.systematic_decode", "ncsa.ncsa_systematic_encode",
                      "ncsa.ncsa_systematic_answer", "ep.ep_encode_a", "ep.ep_encode_b",
                      "ep.ep_answer", "ep.ep_decode", "gcsa.gcsa_encode_a",
                      "gcsa.gcsa_encode_b", "gcsa.gcsa_decode"}


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
    # EP and GCSA rounds run csa's encoders, answer and decoder, so they are
    # timed in csa.encode, csa.answer and csa.decode
    assert [g for g, labels in tracer.GROUPS.items() if set(labels) <= unresolved] == [
        "ep.encode", "ep.answer", "ep.decode", "gcsa.encode", "gcsa.answer", "gcsa.decode"]


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
    params = ncsa.ncsa_params(field, 2, 2, 2, xsb_threshold(2, 2, 2, x, b) + 1, x, b)
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

    def check(aa):
        first = csa.csa_encode_a(FIELD, aa, params, range(7))
        second = csa.csa_encode_a(FIELD, aa, params, range(7))
        arena = list(ffield._WORKSPACES.__dict__.values())
        for s in range(7):
            for x, y in zip(first[s], second[s]):
                assert np.array_equal(x, y) and not np.shares_memory(x, y)
                assert not any(np.shares_memory(x, buf) for buf in arena)

    check([FIELD.rand_matrix(rng, 4, 3) for _ in range(4)])
    # Called from a map, in a round's answer step, an encoder whose shares
    # are large enough for the arena still returns fresh arrays.
    called = []

    def product(field, a, b):
        check([FIELD.rand_matrix(rng, 64, 64) for _ in range(4)])
        called.append(True)
        return field.matmul(a, b)

    omega = dataclasses.replace(ncsa.matmul_map(64, 32, 64), fn=product)
    nparams = ncsa.ncsa_params(FIELD, 2, 1, 2, 5)
    batches = [[FIELD.rand_matrix(rng, *shape) for _ in range(2)]
               for shape in omega.var_shapes]
    got, _ = harness.run_nlinear(FIELD, nparams, omega, batches,
                                 harness.StragglerModel(count=5))
    assert called and all(np.array_equal(g, t) for g, t in
                          zip(got, harness.direct_products(FIELD, *batches)))


def test_same_shape_rounds_reuse_the_arena(monkeypatch):
    # Two rounds of one shape write their shares and answers at the same
    # addresses, so the arena is reused rather than grown, and the decoder's
    # product reads the answer rows in place; a smaller round after them
    # reads a prefix of the same buffers and is still exact.
    seen, reads = [], []
    answer, matmul = csa.csa_answer, PrimeField.matmul

    def recorded(field, share_a, share_b, counter=None, out=None):
        if out is not None:  # the small round's answers stay out of the arena
            seen[-1].append(tuple(x.__array_interface__["data"][0]
                                  for x in (*share_a, *share_b, out)))
        return answer(field, share_a, share_b, counter, out)

    def reads_answers(self, a, b, **kw):  # the products whose b is the arena answers
        rows = getattr(ffield._WORKSPACES, "answers", None)
        if rows is not None and np.shares_memory(b, rows):
            reads[-1].append(b.shape)
        return matmul(self, a, b, **kw)

    monkeypatch.setattr(csa, "csa_answer", recorded)
    monkeypatch.setattr(PrimeField, "matmul", reads_answers)
    for seed in (4, 5):
        seen.append([])
        reads.append([])
        _, buffers = _arena_round(FIELD, "csa", (64, 32, 64), seed), dict(
            ffield._WORKSPACES.__dict__)
    assert seen[0] == seen[1] and len(seen[0]) == 6
    # one decode product a round, on the first R = 5 rows of 64 x 64 answers
    assert reads == [[(5, 64 * 64)], [(5, 64 * 64)]]
    products, truth = _arena_round(FIELD, "csa", (4, 2, 2), 6)
    assert all(np.array_equal(p, t) for p, t in zip(products, truth))
    assert all(ffield._WORKSPACES.__dict__[name] is buf for name, buf in buffers.items())


def _large_answers(decoder):
    """(decode, params, (S, 64, 64) answers of every server, truth) of a CSA
    code or of an N-CSA code with X = B = 1: answers of 32 KiB each."""
    rng = np.random.default_rng(22)
    if decoder == "csa":
        params = csa.csa_params(FIELD, 2, 2, 7)
        aa = [FIELD.rand_matrix(rng, 64, 8) for _ in range(4)]
        bb = [FIELD.rand_matrix(rng, 8, 64) for _ in range(4)]
        rows = csa.csa_answer(FIELD, csa.csa_encode_a(FIELD, aa, params, range(7)),
                              csa.csa_encode_b(FIELD, bb, params, range(7)))
        return csa.csa_decode, params, rows, harness.direct_products(FIELD, aa, bb)
    params = ncsa.ncsa_params(FIELD, 2, 1, 2, 8, x_secure=1, byzantine=1)
    omega = ncsa.matmul_map(64, 8, 64)
    batches = [[FIELD.rand_matrix(rng, *shape) for _ in range(2)] for shape in omega.var_shapes]
    rows = ncsa.ncsa_answer(FIELD, ncsa.xs_encode(FIELD, batches, params, range(8)), omega,
                            params, range(8))
    return ((lambda *args: ncsa.xsb_decode(*args)[0]), params, rows,
            harness.direct_evaluations(FIELD, omega, batches))


@pytest.mark.parametrize("decoder", ["csa", "xsb"])
def test_public_decoders_stack_plain_answer_pairs_once(monkeypatch, decoder):
    # Outside a round the public decoders take (server, answer) pairs: a
    # generator, any order, more than R answers (the first R of distinct
    # servers are read) and large answers, which are copied once into one
    # stack of R rows; a duplicate server among them raises.
    decode, params, rows, truth = _large_answers(decoder)
    r, stack, stacked = params.threshold, np.stack, []

    def counted(arrays, *args, **kw):
        stacked.append([np.shape(y) for y in arrays])
        return stack(arrays, *args, **kw)

    monkeypatch.setattr(np, "stack", counted)
    servers = range(len(rows))
    for order in (list(servers), servers[::-1], np.random.default_rng(1).permutation(servers),
                  (list(servers[1::2]) + list(servers[::2]))[:r]):
        for answers in ([(s, rows[s]) for s in order], ((s, rows[s].copy()) for s in order)):
            stacked.clear()
            got = decode(FIELD, answers, params)
            assert all(np.array_equal(g, t) for g, t in zip(got, truth)), order
            assert stacked == [[(64 * 64,)] * r], order
    with pytest.raises(ParameterError, match="duplicate"):
        decode(FIELD, [(s, rows[s]) for s in [0, 1, 1] + list(servers[2:])], params)
    with pytest.raises(InsufficientAnswersError):
        decode(FIELD, [(s, rows[s]) for s in range(r - 1)], params)


def _stacked_round_cases(field):
    """One round of every family: (name, run), where run() runs it."""
    rng = np.random.default_rng(field.q % 1000)

    def mats(n, rows, cols):
        return [field.rand_matrix(rng, rows, cols) for _ in range(n)]

    def cdbmm(scheme, setup, batch, responsive):
        aa, bb = mats(batch, 4, 2), mats(batch, 2, 4)
        return lambda: harness.run_cdbmm(field, scheme, setup, aa, bb,
                                         harness.StragglerModel(responsive=responsive))

    def nlinear(params, responsive, forged=()):
        omega = ncsa.matmul_map(2, 2, 2)
        batches = [mats(params.batch_size, 2, 2) for _ in range(2)]
        forger = harness.ByzantineModel.seeded(field, forged, seed=5) if forged else None
        return lambda: harness.run_nlinear(field, params, omega, batches,
                                           harness.StragglerModel(responsive=responsive), forger)

    return [
        ("ep-entries", cdbmm("ep", harness.ep_setup(field, 1, 2, 1, 5), 3, (0, 2, 3))),
        ("gcsa", cdbmm("gcsa", gcsa.gcsa_params(field, 2, 1, 1, 2, 1, 6), 2, (0, 1, 3, 4, 5))),
        ("csa", cdbmm("csa", csa.csa_params(field, 2, 2, 8), 4, (1, 2, 4, 5, 6, 7))),
        # known results among the first R: servers 0 and 2 hold entries 0 and 2
        ("csa-systematic", cdbmm("csa-systematic", csa.csa_params(field, 2, 2, 8, systematic=True),
                                 4, (0, 2, 4, 5, 6, 7))),
        ("ncsa-x1", nlinear(ncsa.ncsa_params(field, 2, 1, 2, 7, x_secure=1), (0, 1, 3, 4, 5, 6))),
        # the forger, server 2, answers among the first R = 5
        ("ncsa-x1-b1", nlinear(ncsa.ncsa_params(field, 2, 1, 1, 7, x_secure=1, byzantine=1),
                               (0, 2, 3, 5, 6), forged=(2,))),
    ]


def _same(a, b) -> bool:
    """Byte-for-byte equality of decoder outputs: arrays by dtype, shape and
    bytes, sequences item by item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("q", [13, 65537, 2147483629])
def test_a_rounds_stacked_answers_decode_as_the_same_pairs(monkeypatch, q):
    # A round hands the public decoders its answers as one stack
    # (csa._Answers); each decodes it byte for byte as it decodes the same
    # answers given as plain (server, answer) pairs, flagged forgers included.
    field = PrimeField(q)
    decoded = []
    for module, name in ((csa, "csa_decode"), (ncsa, "xsb_decode")):
        def checked(field, answers, params, decode=getattr(module, name), name=name):
            got = decode(field, answers, params)
            if isinstance(answers, csa._Answers):
                pairs = [(s, y.copy()) for s, y in answers]
                decoded.append((name, _same(got, decode(field, pairs, params))))
            return got

        monkeypatch.setattr(module, name, checked)
    for case, run in _stacked_round_cases(field):
        decoded.clear()
        run()
        want = "xsb_decode" if case.startswith("ncsa") else "csa_decode"
        assert (want, True) in decoded and all(same for _, same in decoded), case


def test_benchmark_rounds_decode_their_answer_stack_in_place(monkeypatch):
    # Every round of the four benchmark workloads hands its decoder one
    # stack of answers, whose first R rows the decoder reads without a copy.
    workloads = _perfbench_workloads(monkeypatch)
    take, taken = csa._take_answers, []

    def in_place(field, answers, r, servers):
        took = take(field, answers, r, servers)  # (servers, rows, shape)
        taken.append(isinstance(answers, csa._Answers) and len(took[1]) == r
                     and np.shares_memory(took[1], answers.rows))
        return took

    monkeypatch.setattr(csa, "_take_answers", in_place)
    monkeypatch.setattr(ncsa, "_take_answers", in_place)
    for workload in workloads.WORKLOADS.values():
        rounds = workloads.build(workload)
        taken.clear()
        outcomes = workloads.run_op(rounds, workloads.draw_op(rounds, 1, 0), time.perf_counter)
        assert [o.problems for o in outcomes] == [[] for _ in outcomes], workload.name
        assert len(taken) >= len(rounds) and all(taken), (workload.name, taken)


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
    params = ncsa.ncsa_params(FIELD, 2, 2, 2, xsb_threshold(2, 2, 2, 0, 0))
    rng = np.random.default_rng(23)
    batches = [[FIELD.rand_matrix(rng, *shape) for _ in range(4)]
               for shape in omega.var_shapes]
    got, _ = harness.run_nlinear(FIELD, params, omega, batches,
                                 harness.StragglerModel(count=params.servers))
    truth = harness.direct_products(FIELD, *batches)
    assert all(np.array_equal(g, t) for g, t in zip(got, truth))

    # So must a round run by a forger, between two servers' answers.
    def forge(server, answer):
        doubled, _ = harness.run_cdbmm(FIELD, "csa", inner, [answer],
                                       [np.eye(64, dtype=np.int64) * 2],
                                       harness.StragglerModel(count=2))
        return (doubled[0] + 1) % FIELD.q

    params = ncsa.ncsa_params(FIELD, 2, 2, 2, xsb_threshold(2, 2, 2, 0, 1), 0, 1)
    got, report = harness.run_nlinear(FIELD, params, ncsa.matmul_map(64, 32, 64), batches,
                                      harness.StragglerModel(count=params.servers),
                                      harness.ByzantineModel((3,), forge))
    assert all(np.array_equal(g, t) for g, t in zip(got, truth))
    assert report.flagged_servers == (3,)


# ---- the answer step: every responsive server in one stacked call ----


def _answer_cases(field):
    """(id, answer(s, shares, counter, out), share stacks (row s: server
    s's shares, one stack per variable), blocks of servers answered
    together).  A systematic layout's raw and coded servers are separate
    blocks of one responsive set; the N-CSA answers ignore ``out``."""
    rng = np.random.default_rng(field.q % 1000)

    def mats(n, *shape):
        return [rng.integers(0, field.q, size=shape, dtype=np.int64) for _ in range(n)]

    def cdbmm(answer, encode_a, encode_b, setup, servers, dims, blocks):
        rows, inner, cols = dims
        n = 3 if setup.batch_size == 1 else setup.batch_size  # EP: any batch
        return (lambda s, sh, c, out: answer(field, *sh, c, out),
                [encode_a(field, mats(n, rows, inner), setup, servers),
                 encode_b(field, mats(n, inner, cols), setup, servers)], blocks)

    ep_setup = harness.ep_setup(field, 2, 2, 1, 9)
    cases = [
        ("csa", *cdbmm(csa.csa_answer, csa.csa_encode_a, csa.csa_encode_b,
                       csa.csa_params(field, 2, 2, 9), range(9), (16, 8, 16),
                       [[0, 2, 3, 5, 7, 8]])),
        ("gcsa", *cdbmm(csa.csa_answer, csa.csa_encode_a, csa.csa_encode_b,
                        gcsa.gcsa_params(field, 1, 2, 2, 1, 1, 9), range(9), (8, 4, 6),
                        [[1, 2, 3, 4, 5, 6, 8]])),
        ("ep", *cdbmm(csa.csa_answer, csa.csa_encode_a, csa.csa_encode_b, ep_setup,
                      range(9), (8, 4, 6), [[0, 1, 4, 5, 6, 8]])),
        ("csa-systematic", *cdbmm(csa.csa_answer, csa.csa_encode_a, csa.csa_encode_b,
                                  csa.csa_params(field, 2, 2, 7, systematic=True),
                                  range(7), (4, 4, 2), [[0, 2, 3], [5, 6]])),
    ]
    for omega, x, systematic in ((ncsa.matmul_map(16, 16, 16), 2, False),
                                 (ncsa.matrix_chain_map((2, 3, 4, 2)), 0, False),
                                 (ncsa.elementwise_product_map(3, 5), 1, False),
                                 (ncsa.determinant_map(3), 0, False),
                                 (ncsa.matmul_map(4, 4, 2), 0, True)):
        params = ncsa.ncsa_params(field, omega.arity, 2, 2, 11 if x < 2 else 12, x,
                                  systematic=systematic)
        shares = ncsa.xs_encode(field, [mats(4, *shape) for shape in omega.var_shapes],
                                params, range(params.servers))
        cases.append((f"ncsa-{omega.name}{'-systematic' if systematic else ''}",
                      lambda s, sh, c, out, omega=omega, params=params:
                      ncsa.ncsa_answer(field, sh, omega, params, s, c),
                      shares, [[0, 1, 3], [4, 7, 9]] if systematic else [[0, 1, 3, 4, 7, 9, 10]]))
    # a polynomial with a constant slot: a b + 5 a
    omega = ncsa.matmul_map(2, 2, 2)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),
                                   ncsa.PolyTerm(5, omega, (0, None))))
    params = ncsa.ncsa_params(field, 2, 1, 2, 7, x_secure=1)
    batches = [mats(2, 2, 2), mats(2, 2, 2), [np.ones((2, 2), dtype=np.int64)] * 2]
    shares = ncsa.xs_encode(field, batches, params, range(7))
    cases.append(("ncsa-spec-constant-slot",
                  lambda s, sh, c, out: ncsa.poly_batch_eval_answer(
                      field, {0: sh[0], 1: sh[1], None: sh[2]}, spec, params, s),
                  shares, [[0, 2, 3, 4, 6]]))
    return cases


@pytest.mark.parametrize("q", [65537, 2147483629])
def test_stacked_answers_equal_each_server_alone(q):
    # Each block of servers answered in one call, its shares with a leading
    # server axis, gives every server's own answer and counts every server's
    # multiplications, on the int64 and float matmul paths alike.
    field = PrimeField(q)
    for name, answer, shares, blocks in _answer_cases(field):
        for servers in blocks:
            stacked = [np.stack([x[s] for s in servers]) for x in shares]
            counter = harness.OpCounter()
            together = answer(servers, stacked, counter, None)
            assert len(together) == len(servers), name
            if not name.startswith("ncsa"):  # the CDBMM answers write into out=
                rows = np.full(together.shape, -1, dtype=np.int64)
                assert answer(servers, stacked, None, rows) is rows
                assert np.array_equal(rows, together), name
            for s, y in zip(servers, together):
                alone = harness.OpCounter()
                assert np.array_equal(y, answer(s, [x[s] for x in shares], alone, None)), (name, s)
                assert len(servers) * alone.mults == counter.mults, (name, s)


def test_raw_and_coded_servers_answer_in_separate_calls():
    field = PrimeField(65537)
    omega = ncsa.matmul_map(2, 2, 2)
    # with ell = 1 a raw server's one-group share stacks with a coded one's,
    # but only the coded answer is normalised
    params = ncsa.ncsa_params(field, 2, 1, 2, 6, systematic=True)
    rng = np.random.default_rng(40)
    shares = ncsa.xs_encode(field, [[field.rand_matrix(rng, 2, 2) for _ in range(2)]
                                    for _ in range(2)], params, range(6))
    stacked = [np.stack([x[s] for s in (1, 3)]) for x in shares]
    with pytest.raises(ParameterError):
        ncsa.ncsa_answer(field, stacked, omega, params, [1, 3])


def test_answer_step_matmul_count_does_not_grow_with_the_responsive_count(monkeypatch):
    # An X-secure matmul round answers its responsive servers with one
    # stacked product for all of their groups, so 12 responsive servers
    # make as many PrimeField.matmul calls in the answer step as 18: one.
    field = PrimeField(65537)
    omega = ncsa.matmul_map(16, 16, 16)
    params = ncsa.ncsa_params(field, 2, 2, 2, 20, x_secure=2, byzantine=1)
    rng = np.random.default_rng(41)
    batches = [[field.rand_matrix(rng, *shape) for _ in range(4)] for shape in omega.var_shapes]
    truth = harness.direct_evaluations(field, omega, batches)
    answer, matmul = ncsa.ncsa_answer, PrimeField.matmul
    calls, answering = [], []

    def counted(self, *args, **kw):
        calls.append(bool(answering))
        return matmul(self, *args, **kw)

    def flagged(*args, **kw):
        answering.append(True)
        try:
            return answer(*args, **kw)
        finally:
            answering.pop()

    monkeypatch.setattr(PrimeField, "matmul", counted)
    monkeypatch.setattr(ncsa, "ncsa_answer", flagged)
    counts = []
    for responsive in (12, 18):
        calls.clear()
        got, report = harness.run_nlinear(field, params, omega, batches,
                                          harness.StragglerModel(count=responsive, seed=1))
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        assert report.server_mults == params.ell * (16**3 + 16**2)
        counts.append(sum(calls))
    assert counts[0] == counts[1] == 1


@pytest.mark.parametrize("as_array", [False, True])
def test_a_round_never_writes_into_the_callers_batches(as_array):
    # A batch of int64 residues is checked as it is, without a copy, so a
    # round's stacks may be the caller's own arrays and a systematic
    # layout's raw shares views of them: after a round of every scheme the
    # caller's batches are byte-identical, and no result shares their memory.
    rng = np.random.default_rng(61)
    omega, square = ncsa.matrix_chain_map((2, 3, 2, 2)), ncsa.matmul_map(2, 2, 2)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, square, (0, 1)),
                                   ncsa.PolyTerm(5, square, (1, None))))
    cdbmm = [("ep", harness.ep_setup(FIELD, 2, 1, 2, 8), 3),
             ("csa", csa.csa_params(FIELD, 2, 2, 8), 4),
             ("csa-systematic", csa.csa_params(FIELD, 2, 2, 9, systematic=True), 4),
             ("gcsa", gcsa.gcsa_params(FIELD, 1, 2, 2, 1, 2, 14), 2)]
    nlinear = [(square, ncsa.ncsa_params(FIELD, 2, 2, 2, 8), None),
               (square, ncsa.ncsa_params(FIELD, 2, 2, 2, 12, x_secure=2, byzantine=1), (0,)),
               (omega, ncsa.ncsa_params(FIELD, 3, 2, 1, 6, systematic=True), None),
               (spec, ncsa.ncsa_params(FIELD, 2, 1, 2, 8, x_secure=1, noise_seed=4), None),
               (ncsa.determinant_map(3), ncsa.ncsa_params(FIELD, 3, 1, 2, 9, x_secure=1), None)]

    def draw(count, shape):
        entries = [rng.integers(0, FIELD.q, size=shape, dtype=np.int64) for _ in range(count)]
        return np.stack(entries) if as_array else entries

    rounds = []
    for scheme, setup, count in cdbmm:
        batches = [draw(count, (4, 4)), draw(count, (4, 2))]
        straggler = harness.StragglerModel(count=setup.threshold + 1, seed=2)
        rounds.append((batches, harness.direct_products(FIELD, *batches),
                       lambda b=batches, scheme=scheme, setup=setup, st=straggler:
                       harness.run_cdbmm(FIELD, scheme, setup, *b, st)))
    for job, params, forged in nlinear:
        shapes = square.var_shapes if job is spec else job.var_shapes
        batches = [draw(params.batch_size, shape) for shape in shapes]
        straggler = harness.StragglerModel(responsive=tuple(range(params.threshold + 1)))
        byzantine = forged and harness.ByzantineModel.seeded(FIELD, forged, seed=3)
        truth = None if job is spec else harness.direct_evaluations(FIELD, job, batches)
        rounds.append((batches, truth, lambda b=batches, job=job, params=params, st=straggler,
                       byz=byzantine: harness.run_nlinear(FIELD, params, job, b, st, byz)))
    for batches, truth, run in rounds:
        before = [[np.array(x) for x in b] for b in batches]
        results, _ = run()
        assert [[x.tobytes() for x in b] for b in batches] == [
            [x.tobytes() for x in b] for b in before]
        assert not any(np.shares_memory(r, x) for r in results for b in batches for x in b)
        assert truth is None or all(np.array_equal(r, t) for r, t in zip(results, truth))


@pytest.mark.parametrize("entry", [(4, 4), (64, 64)])
def test_a_round_checks_each_batch_once(monkeypatch, entry):
    # A round checks each caller list once, in full, and hands its encoder
    # the result as a csa._Batch, which the encoder takes as it is: no second
    # check, not one residues pass.  A list of _ARENA_MIN_BYTES or more stays
    # a list of the caller's checked entries: a CDBMM encoder stacks its own
    # side, so the round holds one large stack at a time, and xs_encode
    # copies the entries into its groups without any stack.
    calls, check, reduce = [], csa._batch_entries, PrimeField.residues
    reduced = []

    def recorded(field, batch, *args, **kw):
        before = len(reduced)
        calls.append((batch, check(field, batch, *args, **kw), len(reduced) - before))
        return calls[-1][1]

    stacks, generator_encode = [], csa._generator_encode  # weak references

    def encode(field, arr, *args, **kw):  # a CDBMM encoder's one product
        if large:  # a stack of its own, the other side's gone
            assert all(ref() is None for ref in stacks)
        else:  # the door's stack
            assert arr is calls[len(stacks)][1]
        stacks.append(weakref.ref(arr))
        return generator_encode(field, arr, *args, **kw)

    monkeypatch.setattr(csa, "_batch_entries", recorded)
    monkeypatch.setattr(ncsa, "_batch_entries", recorded)
    monkeypatch.setattr(csa, "_generator_encode", encode)
    monkeypatch.setattr(PrimeField, "residues",
                        lambda self, x: reduced.append(1) or reduce(self, x))
    rng = np.random.default_rng(62)
    draw = lambda: [rng.integers(0, FIELD.q, size=entry, dtype=np.int64) for _ in range(4)]
    large = 8 * 4 * math.prod(entry) >= ffield._ARENA_MIN_BYTES
    params = ncsa.ncsa_params(FIELD, 2, 2, 2, 12, x_secure=1)
    for run, products in (
            (lambda a, b: harness.run_cdbmm(FIELD, "csa", csa.csa_params(FIELD, 2, 2, 8), a, b,
                                            harness.StragglerModel(count=7, seed=3)), 2),
            (lambda a, b: harness.run_nlinear(FIELD, params, ncsa.matmul_map(*entry, entry[1]),
                                              [a, b], harness.StragglerModel(count=11)), 0)):
        calls.clear()
        stacks.clear()
        given = [draw(), draw()]
        run(*given)
        assert len(stacks) == products  # xs_encode's product takes its groups, no stack
        doors, encoders = calls[:2], calls[2:]
        assert [batch for batch, _, _ in doors] == given and len(encoders) == 2
        for (_, held, checks), (took, out, rechecks) in zip(doors, encoders):
            assert checks >= 1 and rechecks == 0
            assert isinstance(took, csa._Batch) and took.entries is held and out is held
            assert isinstance(held, list) == large
        if large:  # the caller's residue entries themselves, not copies
            assert all(x is y for (batch, held, _) in doors for x, y in zip(batch, held))


def test_a_large_ep_server_multiplies_entry_by_entry(monkeypatch):
    # A server whose shares reach _ARENA_MIN_BYTES is answered alone, and
    # its batch entries go through csa_answer one at a time, so no product
    # stacks them whatever the batch size; small servers' entries stack
    # with every server's in one call.  server_mults counts every entry.
    field = PrimeField(65537)
    setup = harness.ep_setup(field, 1, 2, 2, 9)
    rng = np.random.default_rng(42)
    answer, calls = csa.csa_answer, []

    def recorded(field, share_a, share_b, counter=None, out=None):
        calls.append(np.shape(share_a))
        return answer(field, share_a, share_b, counter, out)

    monkeypatch.setattr(csa, "csa_answer", recorded)
    for size, batch, want in ((64, 8, [(1, 32, 64)] * 6 * 8), (64, 1, [(1, 32, 64)] * 6),
                              (8, 8, [(6, 8, 1, 4, 8)])):
        aa = [field.rand_matrix(rng, size, size) for _ in range(batch)]
        bb = [field.rand_matrix(rng, size, size) for _ in range(batch)]
        calls.clear()
        got, report = harness.run_cdbmm(field, "ep", setup, aa, bb,
                                        harness.StragglerModel(count=6, seed=1))
        assert calls == want, (size, batch)
        assert all(np.array_equal(g, t) for g, t in zip(got, harness.direct_products(field, aa, bb)))
        assert report.server_mults == batch * (size // 2) * size * (size // 2)


def test_a_map_that_drops_the_server_axis_is_refused():
    # A custom map written for one server alone returns one value for a
    # whole stack; the stacked answer refuses it instead of broadcasting it
    # against every server's inverse, and one server alone still takes it.
    field = PrimeField(65537)
    dot = ncsa.NLinearMap(2, ((2,), (2,)), (1,),
                          lambda f, a, b: np.array([np.sum(a * b) % f.q]))
    params = ncsa.ncsa_params(field, 2, 1, 2, 7)
    rng = np.random.default_rng(43)
    batches = [[field.rand_matrix(rng, 2, 1)[:, 0] for _ in range(2)] for _ in range(2)]
    shares = ncsa.xs_encode(field, batches, params, range(7))
    with pytest.raises(ParameterError, match="leading axes"):
        ncsa.ncsa_answer(field, shares, dot, params, range(7))
    with pytest.raises(ParameterError, match="leading axes"):
        harness.run_nlinear(field, params, dot, batches, harness.StragglerModel(count=7))
    alone = ncsa.ncsa_answer(field, [x[2] for x in shares], dot, params, 2)
    stacked = ncsa.ncsa_answer(field, shares, ncsa.elementwise_product_map(2, 2), params,
                               range(7))
    assert alone.shape == (1,) and alone[0] == stacked[2].sum() % field.q
