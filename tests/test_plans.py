"""Decode plans: built on a responsive set's first decode, reused after.

Each case runs one harness round on exactly R responsive servers, keeps the
answers its decoder saw, and decodes them again directly: cold, warm, then
in reverse order (a plan of its own), cold and warm.  ``conftest`` clears the
plan caches before every test.
"""

import numpy as np
import pytest

from csacode import csa, ep, gcsa, harness, ncsa, structmat
from csacode.errors import SingularMatrixError
from csacode.ffield import PrimeField

MODULI = (13, 65537, 2147483629)
_DIMS = (4, 4, 2)  # rows, inner, cols of every entry: divisible by each grid


def _cases():
    """(id, the module holding the plan, the decoder the harness calls,
    setup maker, responsive servers, forgers)."""
    cases = [("ep", ep, "ep_decode", lambda f: harness.ep_setup(f, 2, 2, 1, 6), None, ()),
             ("csa", csa, "csa_decode", lambda f: csa.csa_params(f, 2, 2, 7), None, ()),
             # raw 0, 2, 3 and coded 5, 6: the plan also holds the known columns
             ("csa-systematic", csa, "csa_decode",
              lambda f: csa.csa_params(f, 2, 2, 7, systematic=True), (0, 2, 3, 5, 6), ()),
             ("gcsa", gcsa, "gcsa_decode",
              lambda f: gcsa.gcsa_params(f, 1, 2, 2, 1, 1, 8), None, ())]
    for x in (0, 1, 2):
        for b in (0, 1):
            r = ncsa.xsb_threshold(2, 1, 2, x, b)
            cases.append((f"ncsa-x{x}-b{b}", csa, "xsb_decode",
                          lambda f, x=x, b=b, r=r: ncsa.ncsa_params(f, 2, 1, 2, r + 1, x, b),
                          None, (1,) * b))
    return cases


def _round(monkeypatch, field, case):
    """One harness round of ``case``; returns (decode, the answers and
    params it was called with, the oracle's results)."""
    name, _, decoder, make, responsive, forgers = case
    setup = make(field)
    module = ncsa if decoder == "xsb_decode" else {"ep_decode": ep, "csa_decode": csa,
                                                   "gcsa_decode": gcsa}[decoder]
    decode, seen = getattr(module, decoder), []
    monkeypatch.setattr(module, decoder, lambda f, answers, params: seen.append(
        ([(s, np.array(y)) for s, y in answers], params)) or decode(f, answers, params))
    threshold = harness.theoretical_costs(name.split("-x")[0], setup).threshold
    straggler = harness.StragglerModel(
        responsive=responsive or tuple(range(setup.servers - threshold, setup.servers)))
    rng = np.random.default_rng(field.q)
    rows, inner, cols = _DIMS
    if decoder == "xsb_decode":
        omega = ncsa.matmul_map(rows, inner, cols)
        batches = [[field.rand_matrix(rng, *shape) for _ in range(setup.batch_size)]
                   for shape in omega.var_shapes]
        byzantine = harness.ByzantineModel.seeded(field, forgers) if forgers else None
        harness.run_nlinear(field, setup, omega, batches, straggler, byzantine)
        truth = harness.direct_evaluations(field, omega, batches)
    else:
        entries = 3 if name == "ep" else setup.batch_size
        aa = [field.rand_matrix(rng, rows, inner) for _ in range(entries)]
        bb = [field.rand_matrix(rng, inner, cols) for _ in range(entries)]
        harness.run_cdbmm(field, name, setup, aa, bb, straggler)
        truth = harness.direct_products(field, aa, bb)
    monkeypatch.undo()
    [(answers, params)] = seen
    return decode, answers, params, truth


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_plan_is_built_once_per_answer_order(monkeypatch, q, case):
    field = PrimeField(q)
    decode, answers, params, truth = _round(monkeypatch, field, case)
    module, forgers = case[1], case[5]
    module._plan.cache_clear()
    solves, plans = [], []
    plan = module._plan

    def failing(*args, **kw):
        raise SingularMatrixError(0)

    # a builder that raises caches nothing, so the next decode builds again
    monkeypatch.setattr(module, "solve_batch", failing)
    with pytest.raises(SingularMatrixError):
        decode(field, answers, params)
    assert plan.cache_info().currsize == 0
    monkeypatch.setattr(module, "solve_batch", lambda *args, **kw: solves.append(
        args[1].shape) or structmat.solve_batch(*args, **kw))
    monkeypatch.setattr(module, "_plan", lambda *key: plans.append(plan(*key)) or plans[-1])
    results = []
    for order, builds in ((answers, 1), (answers, 0), (answers[::-1], 1), (answers[::-1], 0)):
        solves.clear()
        got = decode(field, order, params)
        got, flagged = got if case[2] == "xsb_decode" else (got, [])
        assert len(solves) == builds  # a warm decode runs no solve at all
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        assert list(flagged) == list(forgers)
        results.append(got)
    # cold and warm decodes of one order return the same bytes
    for cold, warm in (results[:2], results[2:]):
        assert [g.tobytes() for g in cold] == [g.tobytes() for g in warm]
    info = plan.cache_info()
    assert (info.currsize, info.hits) == (2, 2)
    assert plans[0] is plans[1] and plans[2] is plans[3] and plans[0] is not plans[2]
    for built in plans:  # csa's known columns are None without a known result
        for array in (built if isinstance(built, tuple) else (built,)):
            if array is None:
                continue
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
