"""Property tests: a harness round of every CDBMM scheme, the systematic
layout included, on any integer input equals the direct product, computed
here in Python integers."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from csacode import csa, gcsa, harness  # noqa: E402
from csacode.errors import ParameterError  # noqa: E402
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
    got, _ = harness.run_cdbmm(field, scheme, setup, aa, bb,
                               harness.StragglerModel(responsive=tuple(responsive)))
    for a, b, product in zip(aa, bb, got):
        want = (a.astype(object) % field.q) @ (b.astype(object) % field.q) % field.q
        assert product.tolist() == want.tolist()
