"""A seeded sweep of harness rounds whose outputs are pinned by one digest.

Every round is checked against the direct oracle; the digest then covers
the products, the exact costs, the element counts, the server
multiplications and the flagged servers of all of them, so a change that
alters any output of any family shows here without a second checkout.
"""

import hashlib
import itertools

import numpy as np

from csacode import csa, ep, gcsa, harness, ncsa
from csacode.errors import ParameterError
from csacode.ffield import PrimeField

MODULI = (13, 257, 65537, 2147483629)
# (ell, kc) of csa and csa-systematic, (p, m, n) of ep, (ell, kc, p, m, n) of gcsa
CSA_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3))
EP_SHAPES = ((1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1))
GCSA_SHAPES = ((2, 1, 2, 1, 1), (1, 2, 1, 2, 1), (1, 1, 2, 1, 2), (1, 1, 1, 2, 2))
SWEEP_DIGEST = "410b403db01b04e2002a6c654ce66463ba3101ebe3da6379154d702e4456ca94"


def _setups(field):
    """(scheme, setup) of every case; cases GF(q) has too few points for
    are left out."""
    makers = []
    for (ell, kc), sy in itertools.product(CSA_SHAPES, (False, True)):
        makers.append(("csa-systematic" if sy else "csa", lambda ell=ell, kc=kc, sy=sy:
                       csa.csa_params(field, ell, kc, csa.csa_threshold(ell, kc) + 2,
                                      systematic=sy)))
    for dims in GCSA_SHAPES:
        makers.append(("gcsa", lambda dims=dims: gcsa.gcsa_params(
            field, *dims, gcsa.gcsa_threshold(*dims) + 1)))
    for arity, x, b in itertools.product((2, 3), (0, 1, 2), (0, 1)):
        makers.append(("ncsa", lambda arity=arity, x=x, b=b: ncsa.ncsa_params(
            field, arity, 1 + (x + b) % 2, 2, ncsa.xsb_threshold(
                arity, 1 + (x + b) % 2, 2, x, b) + 1, x, b, noise_seed=x + 3 * b)))
    for arity in (2, 3):
        makers.append(("ncsa", lambda arity=arity: ncsa.ncsa_params(
            field, arity, 2, 1, ncsa.ncsa_threshold(arity, 2, 1) + 2, systematic=True)))
    for dims in EP_SHAPES:
        makers.append(("ep", lambda dims=dims: harness.ep_setup(
            field, *dims, ep.ep_threshold(ep.EPParams(*dims)) + 2)))
    for scheme, make in makers:
        try:
            yield scheme, make()
        except ParameterError:
            continue


def _round(field, scheme, setup, rng):
    """One seeded round of ``setup`` and the oracle's results."""
    r = setup.threshold
    count = int(rng.integers(r, setup.servers + 1))
    straggler = harness.StragglerModel(count=count, seed=int(rng.integers(1 << 30)))
    entries = 3 if scheme == "ep" else setup.batch_size  # EP codes each entry alone
    if scheme != "ncsa":
        inner = setup.ep if scheme in ("ep", "gcsa") else ep.EPParams()  # CSA: no partition
        m, p, n = inner.m, inner.p, inner.n
        aa = [field.rand_matrix(rng, 2 * m, 3 * p) for _ in range(entries)]
        bb = [field.rand_matrix(rng, 3 * p, 2 * n) for _ in range(entries)]
        got, report = harness.run_cdbmm(field, scheme, setup, aa, bb, straggler)
        return got, report, harness.direct_products(field, aa, bb)
    omega = ncsa.matrix_chain_map((2, 3, 2, 2)[:setup.arity + 1])
    batches = [[field.rand_matrix(rng, *shape) for _ in range(entries)]
               for shape in omega.var_shapes]
    byzantine = None
    if setup.byzantine:  # a forger among the R answers read, or none
        first = straggler.pick(setup.servers)[:r]
        forgers = rng.choice(first, size=int(rng.integers(0, setup.byzantine + 1)),
                             replace=False)
        byzantine = harness.ByzantineModel.seeded(field, [int(s) for s in forgers],
                                                  seed=int(rng.integers(1 << 30)))
    got, report = harness.run_nlinear(field, setup, omega, batches, straggler, byzantine)
    return got, report, harness.direct_evaluations(field, omega, batches)


def test_seeded_sweep_equals_the_oracle_and_its_digest():
    digest = hashlib.sha256()
    rounds = 0
    for q in MODULI:
        field = PrimeField(q)
        rng = np.random.default_rng(q)
        for scheme, setup in _setups(field):
            for _ in range(2):
                got, report, want = _round(field, scheme, setup, rng)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (q, setup)
                for product in got:
                    digest.update(repr(product.shape).encode())
                    digest.update(np.ascontiguousarray(product, dtype=np.int64).tobytes())
                digest.update(repr((report.theory, report.measured,
                                    report.uploaded_elements, report.downloaded_elements,
                                    report.server_mults, report.flagged_servers)).encode())
                rounds += 1
    assert rounds == 250
    assert digest.hexdigest() == SWEEP_DIGEST
