"""Plans: read-only tables of the code alone, built once and reused.

Decode plans are built on a responsive set's first decode.  Each decode case
runs one harness round on exactly R responsive servers, keeps the answers
its decoder saw, and decodes them again directly: cold, warm, then in
reverse order (a plan of its own), cold and warm.  Encode plans (generator
weights, X-secure ones with the noise blocks' columns) are built on an
encode's first call for its code and listed servers; the answer and
Byzantine-decode normalisers once per code.  ``conftest`` clears every registered plan cache
before every test.
"""

import functools
import importlib
import pkgutil

import numpy as np
import pytest

import csacode
from csacode import csa, gcsa, harness, ncsa, structmat
from csacode.errors import SingularMatrixError
from csacode.ffield import PrimeField

MODULI = (13, 65537, 2147483629)
_DIMS = (4, 4, 2)  # rows, inner, cols of every entry: divisible by each grid


def _cases():
    """(id, the decoder the harness calls, setup maker, responsive servers,
    forgers); every decoder's plan is ``csa._plan``."""
    cases = [("ep", "csa_decode", lambda f: harness.ep_setup(f, 2, 2, 1, 6), None, ()),
             ("csa", "csa_decode", lambda f: csa.csa_params(f, 2, 2, 7), None, ()),
             # raw 0, 2, 3 and coded 5, 6: the plan also holds the known columns
             ("csa-systematic", "csa_decode",
              lambda f: csa.csa_params(f, 2, 2, 7, systematic=True), (0, 2, 3, 5, 6), ()),
             ("gcsa", "csa_decode",
              lambda f: gcsa.gcsa_params(f, 1, 2, 2, 1, 1, 8), None, ())]
    for x in (0, 1, 2):
        for b in (0, 1):
            r = ncsa.xsb_threshold(2, 1, 2, x, b)
            cases.append((f"ncsa-x{x}-b{b}", "xsb_decode",
                          lambda f, x=x, b=b, r=r: ncsa.ncsa_params(f, 2, 1, 2, r + 1, x, b),
                          None, (1,) * b))
    return cases


def _round(monkeypatch, field, case):
    """One harness round of ``case``; returns (decode, the answers and
    params it was called with, the oracle's results as the decoder returns
    them: EP's one result holds every entry)."""
    name, decoder, make, responsive, forgers = case
    setup = make(field)
    module = {"xsb_decode": ncsa, "csa_decode": csa}[decoder]
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
        truth = [np.stack(truth)] if name == "ep" else truth
    monkeypatch.undo()
    [(answers, params)] = seen
    return decode, answers, params, truth


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_plan_is_built_once_per_answer_order(monkeypatch, q, case):
    field = PrimeField(q)
    decode, answers, params, truth = _round(monkeypatch, field, case)
    forgers = case[4]
    plan = csa._plan
    plan.cache_clear()
    solves, plans = [], []

    def failing(*args, **kw):
        raise SingularMatrixError(0)

    # a builder that raises caches nothing, so the next decode builds again
    monkeypatch.setattr(csa, "solve_batch", failing)
    with pytest.raises(SingularMatrixError):
        decode(field, answers, params)
    assert plan.cache_info().currsize == 0
    monkeypatch.setattr(csa, "solve_batch", lambda *args, **kw: solves.append(
        args[1].shape) or structmat.solve_batch(*args, **kw))
    monkeypatch.setattr(csa, "_plan", lambda *key: plans.append(plan(*key)) or plans[-1])
    results = []
    for order, builds in ((answers, 1), (answers, 0), (answers[::-1], 1), (answers[::-1], 0)):
        solves.clear()
        got = decode(field, order, params)
        got, flagged = got if case[1] == "xsb_decode" else (got, [])
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
    for built in plans:  # the known columns are None without a known result
        for array in built:
            if array is None:
                continue
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


# ---- encode plans and the registry ----


def _recorded_tables(monkeypatch):
    """Record every table a plan returns, as (module.builder, key, table),
    by rebinding each registered builder in the module that holds it."""
    tables = []
    for module in (csa, ncsa):
        for attr, obj in list(vars(module).items()):
            if any(obj is plan for plan in csa._PLANS):
                name = f"{module.__name__.split('.')[-1]}.{attr}"
                monkeypatch.setattr(module, attr, lambda *key, plan=obj, name=name: tables.append(
                    (name, key, plan(*key))) or tables[-1][2])
    return tables


def _arrays(tables):
    """Every array of the recorded tables; csa's decode plan is a pair whose
    known columns may be None."""
    for _, _, table in tables:
        for array in (table if isinstance(table, tuple) else (table,)):
            if array is not None:
                yield array


def _assert_read_only(tables):
    for array in _arrays(tables):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def _misses():
    return sum(plan.cache_info().misses for plan in csa._PLANS)


def _encoders():
    """(id, the builders its encodes use, maker): maker(field) returns a
    function that encodes fixed batches for every server, both sides, and
    for one server alone, and returns every share."""
    rows, inner, cols = _DIMS

    def batches(field, size):
        rng = np.random.default_rng(field.q + size)
        return [[field.rand_matrix(rng, *shape) for _ in range(size)]
                for shape in ((rows, inner), (inner, cols))]

    def cauchy(encode_a, encode_b, make):
        def maker(field):
            params = make(field)
            aa, bb = batches(field, params.batch_size)
            return lambda: [encode_a(field, aa, params, range(params.servers)),
                            encode_b(field, bb, params, range(params.servers)),
                            encode_a(field, aa, params, params.servers - 1)]
        return maker

    def ep_maker(field):  # GCSA's weights, each of the 3 entries encoded alone
        setup = harness.ep_setup(field, 2, 2, 1, 6)
        aa, bb = batches(field, 3)
        return lambda: [csa.csa_encode_a(field, aa, setup, range(6)),
                        csa.csa_encode_b(field, bb, setup, range(6)),
                        csa.csa_encode_a(field, aa, setup, 5)]

    def ncsa_maker(x):
        def maker(field):
            params = ncsa.ncsa_params(field, 2, 2, 1, ncsa.xsb_threshold(2, 2, 1, x, 0) + 1, x)
            aa, bb = batches(field, params.batch_size)
            return lambda: [ncsa.xs_encode(field, [aa, bb], params, range(params.servers)),
                            ncsa.xs_encode(field, [aa], params, 2)]
        return maker

    cases = [("ep", {"csa._weights"}, ep_maker),
             ("csa", {"csa._weights"}, cauchy(csa.csa_encode_a, csa.csa_encode_b,
                                              lambda f: csa.csa_params(f, 2, 2, 7))),
             ("csa-systematic", {"csa._weights"}, cauchy(
                 csa.csa_encode_a, csa.csa_encode_b,
                 lambda f: csa.csa_params(f, 2, 2, 7, systematic=True))),
             ("gcsa", {"csa._weights"}, cauchy(csa.csa_encode_a, csa.csa_encode_b,
                                                lambda f: gcsa.gcsa_params(f, 1, 2, 2, 1, 1, 8)))]
    # an N-CSA code's data and noise weights are one plan, for every X
    return cases + [(f"ncsa-x{x}", {"ncsa._weights"}, ncsa_maker(x)) for x in (0, 1, 2)]


def _share_bytes(shares):
    if isinstance(shares, np.ndarray):
        return [shares.tobytes()]
    return [b for share in shares for b in _share_bytes(share)]


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("case", _encoders(), ids=lambda case: case[0])
def test_encode_plan_is_built_once(monkeypatch, q, case):
    field = PrimeField(q)
    _, builders, maker = case
    encode = maker(field)
    tables = _recorded_tables(monkeypatch)
    cold = _share_bytes(encode())
    built, misses = len(tables), _misses()
    assert {name for name, _, _ in tables} == builders
    # one build per distinct key: N-CSA's variables share the code's tables
    assert misses == len({(name, key) for name, key, _ in tables})
    warm = _share_bytes(encode())
    assert cold == warm
    assert _misses() == misses  # the warm encode builds nothing
    assert [key for _, key, _ in tables[built:]] == [key for _, key, _ in tables[:built]]
    assert all(w is c for (_, _, w), (_, _, c) in zip(tables[built:], tables[:built]))
    _assert_read_only(tables)


def test_plans_are_keyed_on_the_code_not_the_noise_seed(monkeypatch):
    field = PrimeField(65537)
    omega = ncsa.matmul_map(*_DIMS)
    rng = np.random.default_rng(5)
    batches = [[field.rand_matrix(rng, *shape) for _ in range(2)] for shape in omega.var_shapes]
    truth = harness.direct_evaluations(field, omega, batches)
    solves = []
    monkeypatch.setattr(csa, "solve_batch", lambda *args, **kw: solves.append(
        args[1].shape) or structmat.solve_batch(*args, **kw))
    tables = _recorded_tables(monkeypatch)
    servers = ncsa.xsb_threshold(2, 2, 1, 1, 1) + 1
    shares = []
    for seed in (1, 2):
        params = ncsa.ncsa_params(field, 2, 2, 1, servers, 1, 1, noise_seed=seed)
        solves.clear()
        misses = _misses()
        got, report = harness.run_nlinear(field, params, omega, batches,
                                          harness.StragglerModel(count=servers),
                                          harness.ByzantineModel.seeded(field, (1,)))
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        assert report.flagged_servers == (1,)
        if seed == 2:  # the second seed reuses every table of the first; only
            # the round's cost summary, keyed on the whole setup, is built again
            assert solves == [] and _misses() == misses + 1
            assert harness._costs.cache_info().misses == 2
        shares.append(ncsa.xs_encode(field, batches[:1], params, 3)[0])
    assert any(not np.array_equal(a, b) for a, b in zip(*shares))  # the noise differs
    assert {name for name, _, _ in tables} == {
        "csa._plan", "ncsa._weights", "ncsa._inverse_deltas",
        "ncsa._pole_products", "ncsa._projection_weights"}
    _assert_read_only(tables)


def test_constant_one_shares_share_the_round_plan(monkeypatch):
    # a spec's constant-one batch is the last variable of the round's one
    # encode over all servers, so it takes no weights of its own
    field = PrimeField(65537)
    params = ncsa.ncsa_params(field, 2, 1, 2, 8, x_secure=1)
    omega = ncsa.matmul_map(2, 2, 2)
    spec = ncsa.PolynomialSpec(2, (ncsa.PolyTerm(1, omega, (0, 1)),
                                   ncsa.PolyTerm(3, omega, (0, None))))
    rng = np.random.default_rng(6)
    batches = [[field.rand_matrix(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    ones = np.ones((2, 2), dtype=np.int64)
    truth = [(omega(field, a, b) + 3 * omega(field, a, ones)) % field.q for a, b in zip(*batches)]
    tables = _recorded_tables(monkeypatch)
    # the first round builds the weights of all servers, the answers'
    # inverse deltas, a decode plan and the cost summary; a repeat builds
    # nothing; a new responsive set only its decode plan
    for responsive, builds in (((0, 2, 3, 5, 6, 7), 4), ((0, 2, 3, 5, 6, 7), 0),
                               ((1, 2, 3, 4, 5, 6), 1)):
        misses, seen = _misses(), len(tables)
        got, _ = harness.run_nlinear(field, params, spec, batches,
                                     harness.StragglerModel(responsive=responsive))
        assert all(np.array_equal(g, t) for g, t in zip(got, truth))
        encodes = {key[2] for name, key, _ in tables[seen:] if name == "ncsa._weights"}
        assert encodes == {tuple(range(8))}
        assert _misses() - misses == builds
    _assert_read_only(tables)


def test_every_plan_cache_is_registered():
    # the registry is what conftest clears: a cache missing from it would
    # carry plans from one test into the next.  Every Cauchy code (CSA, its
    # systematic layout, GCSA, EP and N-CSA's decode) shares csa's encode and
    # decode plans; N-CSA adds its noise weights and normalisers
    found = {}
    for info in pkgutil.iter_modules(csacode.__path__):
        for obj in vars(importlib.import_module(f"csacode.{info.name}")).values():
            if isinstance(obj, functools._lru_cache_wrapper):
                found[id(obj)] = obj
    assert found
    for plan in found.values():
        assert any(plan is registered for registered in csa._PLANS), plan.__wrapped__
        assert plan.cache_parameters()["maxsize"] == 512
    assert len(found) == len(csa._PLANS)
    assert {plan.__wrapped__.__module__.split(".")[-1] + "." + plan.__wrapped__.__name__
            for plan in csa._PLANS} == {
        "csa._weights", "csa._plan", "ncsa._weights", "ncsa._inverse_deltas",
        "ncsa._pole_products", "ncsa._projection_weights", "harness._costs"}
