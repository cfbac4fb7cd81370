"""Property tests: a harness round of every CDBMM scheme, the systematic
layout included, on any integer input equals the direct product, computed
here in Python integers, at the closed-form costs; an N-CSA round with
X-secure noise and forgers within its Byzantine budget equals the direct
evaluation and flags exactly the forgers, and one with more forgers than
the budget fails to decode."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from csacode import csa, gcsa, harness, ncsa  # noqa: E402
from csacode.errors import DecodingFailureError, ParameterError  # noqa: E402
from csacode.ffield import PrimeField  # noqa: E402

DTYPES = [np.int8, np.int16, np.int32, np.int64,
          np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def rounds(draw):
    """A scheme, its small parameters over one of four fields, and A and B
    batches of one integer dtype with values across its whole range."""
    q = draw(st.sampled_from([13, 257, 65537, 2147483629]))
    scheme = draw(st.sampled_from(["csa", "csa-systematic", "ep", "gcsa"]))
    ell, kc, p, m, n = (draw(st.integers(1, 2)) for _ in range(5))
    if scheme.startswith("csa"):
        p = m = n = 1
    if scheme == "ep":
        ell = kc = 1
    r = gcsa.gcsa_threshold(ell, kc, p, m, n)
    servers = r + draw(st.integers(0, 2))
    field = PrimeField(q)
    try:
        if scheme == "ep":
            setup = harness.ep_setup(field, p, m, n, servers)
        elif scheme.startswith("csa"):
            setup = csa.csa_params(field, ell, kc, servers,
                                   systematic=scheme == "csa-systematic")
        else:
            setup = gcsa.gcsa_params(field, ell, kc, p, m, n, servers)
    except ParameterError:  # GF(13) holds too few distinct points
        hypothesis.assume(False)
    bh, bw, bc = (draw(st.integers(1, 2)) for _ in range(3))
    dtype = draw(st.sampled_from(DTYPES))
    entries = ell * kc

    def batch(shape):
        return [draw(hnp.arrays(dtype, shape)) for _ in range(entries)]

    aa, bb = batch((m * bh, p * bw)), batch((p * bw, n * bc))
    if scheme == "csa-systematic" and 1 < r and entries < servers:
        # servers below L answer raw; the R answers decoded mix both kinds
        raw = draw(st.lists(st.integers(0, entries - 1), unique=True,
                            min_size=max(1, r - (servers - entries)),
                            max_size=min(entries, r - 1)))
        responsive = raw + draw(st.lists(st.integers(entries, servers - 1), unique=True,
                                         min_size=r - len(raw), max_size=servers - entries))
    else:
        responsive = draw(st.lists(st.integers(0, servers - 1), min_size=r,
                                   max_size=servers, unique=True))
    return field, scheme, setup, aa, bb, responsive


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(rounds())
def test_run_cdbmm_equals_the_python_int_product(case):
    field, scheme, setup, aa, bb, responsive = case
    got, report = harness.run_cdbmm(field, scheme, setup, aa, bb,
                                    harness.StragglerModel(responsive=tuple(responsive)))
    for a, b, product in zip(aa, bb, got):
        want = (a.astype(object) % field.q) @ (b.astype(object) % field.q) % field.q
        assert product.tolist() == want.tolist()
    # a systematic layout's raw servers upload one entry, not one per group
    measured, theory = report.measured, report.theory
    assert (measured.threshold, measured.download) == (theory.threshold, theory.download)
    assert all(u <= t for u, t in zip(measured.uploads, theory.uploads))
    assert scheme == "csa-systematic" or measured == theory


@st.composite
def nlinear_rounds(draw, moduli=(13, 257, 65537, 2147483629), over_budget=False):
    """An N-CSA setup with N <= 3, X <= 2 and B <= 1 (or the systematic
    layout, which takes neither), a matrix chain map of arity N, its
    batches, the responsive servers and the forgers among the R answers
    the decoder reads: at most B of them, or with ``over_budget`` B = 1
    and at least two."""
    q = draw(st.sampled_from(moduli))
    arity = draw(st.sampled_from((3, 2, 1)))
    ell, kc = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    x = draw(st.integers(0, 2))
    b = 1 if over_budget else draw(st.sampled_from((1, 0)))
    systematic = x == b == 0 and draw(st.sampled_from((True, False)))
    field = PrimeField(q)
    try:
        params = ncsa.ncsa_params(
            field, arity, ell, kc, ncsa.xsb_threshold(arity, ell, kc, x, b)
            + draw(st.integers(0, 2)), x, b, noise_seed=draw(st.integers(0, 9)),
            systematic=systematic)
    except ParameterError:  # GF(13) holds too few distinct points
        hypothesis.assume(False)
    omega = ncsa.matrix_chain_map(tuple(draw(st.integers(1, 2)) for _ in range(arity + 1)))
    batches = [[draw(hnp.arrays(np.int64, shape, elements=st.integers(0, q - 1)))
                for _ in range(params.batch_size)] for shape in omega.var_shapes]
    r = params.threshold
    responsive = sorted(draw(st.lists(st.integers(0, params.servers - 1), min_size=r,
                                      max_size=params.servers, unique=True)))
    count = draw(st.integers(b + 1, r) if over_budget else st.sampled_from((b, 0)))
    forgers = draw(st.permutations(responsive[:r]))[:count]
    return field, params, omega, batches, responsive, sorted(forgers)


def _nlinear(case):
    field, params, omega, batches, responsive, forgers = case
    byzantine = harness.ByzantineModel.seeded(field, forgers, seed=len(responsive))
    return harness.run_nlinear(field, params, omega, batches,
                               harness.StragglerModel(responsive=tuple(responsive)),
                               byzantine if forgers else None)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(nlinear_rounds())
def test_run_nlinear_equals_the_direct_evaluation(case):
    field, params, omega, batches, _, forgers = case
    got, report = _nlinear(case)
    want = harness.direct_evaluations(field, omega, batches)
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    assert report.flagged_servers == tuple(forgers)
    # a systematic layout's raw servers upload one entry, not one per group
    assert report.measured.download == report.theory.download
    assert params.systematic or report.measured == report.theory


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(nlinear_rounds(moduli=(65537, 2147483629), over_budget=True))
def test_forgers_over_the_budget_fail_to_decode(case):
    # past B forgers the clean codeword is no longer the only one near the
    # answers; a forgery lands within distance B of another codeword with
    # probability about R / q per entry, so only the large fields are drawn
    with pytest.raises(DecodingFailureError):
        _nlinear(case)
