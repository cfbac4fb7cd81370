from fractions import Fraction

import numpy as np
import pytest

from csacode import analysis, gcsa, harness
from csacode.errors import ParameterError
from csacode.ffield import PrimeField
from reference import latency_upper_scan, min_max_cost


def test_csa_hull_contains_big_batch_point():
    hull = analysis.pareto_hull("csa", 30, 25)
    pairs = {(p.upload, p.download) for p in hull}
    assert (Fraction(30, 13), Fraction(25, 13)) in pairs
    witnesses = {(p.upload, p.download): p.witness for p in hull}
    assert witnesses[(Fraction(30, 13), Fraction(25, 13))] == {"ell": 1, "kc": 13}


def test_hull_sorted_convex_and_witnessed():
    for family, kwargs in [("ep", {}), ("csa", {}), ("gcsa", {"pmn_bound": 4})]:
        hull = analysis.pareto_hull(family, 30, 25, **kwargs)
        assert hull
        ups = [p.upload for p in hull]
        downs = [p.download for p in hull]
        assert ups == sorted(ups)
        assert downs == sorted(downs, reverse=True)
        # convexity: consecutive slopes are increasing
        for a, b, c in zip(hull, hull[1:], hull[2:]):
            lhs = (b.download - a.download) * (c.upload - b.upload)
            rhs = (c.download - b.download) * (b.upload - a.upload)
            assert lhs <= rhs
        # witnesses re-evaluate to the stored cost pair
        for p in hull:
            w = p.witness
            if family == "ep":
                u = max(Fraction(30, w["p"] * w["m"]), Fraction(30, w["p"] * w["n"]))
                r = w["p"] * w["m"] * w["n"] + w["p"] - 1
                d = Fraction(r, w["m"] * w["n"])
            elif family == "csa":
                u = Fraction(30, w["kc"])
                d = Fraction((w["ell"] + 1) * w["kc"] - 1, w["ell"] * w["kc"])
            else:
                r = gcsa.gcsa_threshold(w["ell"], w["kc"], w["p"], w["m"], w["n"])
                u = max(Fraction(30, w["kc"] * w["p"] * w["m"]),
                        Fraction(30, w["kc"] * w["p"] * w["n"]))
                d = Fraction(r, w["m"] * w["n"] * w["ell"] * w["kc"])
            assert (u, d) == (p.upload, p.download)


def _family_costs(family, servers, r_max):
    """The EP and CSA enumerations with their own threshold formulas, as
    written before both went through the GCSA loop nest."""
    out = []
    if family == "ep":
        for p in range(1, r_max + 2):
            for m in range(1, r_max + 1):
                for n in range(1, r_max + 1):
                    r = p * m * n + p - 1
                    if r <= r_max:
                        u = max(Fraction(servers, p * m), Fraction(servers, p * n))
                        out.append((u, Fraction(r, m * n), {"p": p, "m": m, "n": n}))
    else:
        for ell in range(1, r_max + 1):
            for kc in range(1, r_max + 1):
                r = (ell + 1) * kc - 1
                if r <= r_max:
                    out.append((Fraction(servers, kc), Fraction(r, ell * kc),
                                {"ell": ell, "kc": kc}))
    return out


@pytest.mark.parametrize("servers, r_max", [(2, 1), (9, 3), (12, 7), (30, 25), (300, 60)])
def test_ep_and_csa_enumerations_are_gcsa_restrictions(servers, r_max):
    # EP is GCSA with ell = kc = 1 and CSA is GCSA with p = m = n = 1
    everything = list(analysis.enumerate_costs("gcsa", servers, r_max))
    for family, fixed in (("ep", {"ell": 1, "kc": 1}), ("csa", {"p": 1, "m": 1, "n": 1})):
        restricted = [(u, d, {k: v for k, v in w.items() if k not in fixed})
                      for u, d, w in everything
                      if all(w[k] == v for k, v in fixed.items())]
        got = list(analysis.enumerate_costs(family, servers, r_max))
        old = _family_costs(family, servers, r_max)
        assert got == restricted == old
        assert [list(w) for _, _, w in got] == [list(w) for _, _, w in old]
    # the pmn bound applies to gcsa only
    assert list(analysis.enumerate_costs("ep", servers, r_max, 1)) == \
        list(analysis.enumerate_costs("ep", servers, r_max))


def test_batch_dominates_partitioning_at_both_scales():
    for servers, r_max in [(30, 25), (300, 250)]:
        csa_best, _ = min_max_cost("csa", servers, r_max)
        ep_best, _ = min_max_cost("ep", servers, r_max)
        assert csa_best < ep_best


def test_ep_hull_dominated_pointwise():
    # every partitioning hull point is weakly beaten in max(U, D) by some
    # batch-coding point
    csa_pts = list(analysis.enumerate_costs("csa", 30, 25))
    best_csa = min(max(u, d) for u, d, _ in csa_pts)
    for p in analysis.pareto_hull("ep", 30, 25):
        assert best_csa <= max(p.upload, p.download)


def test_gcsa_bound_one_collapses_to_csa():
    g = analysis.pareto_hull("gcsa", 30, 25, pmn_bound=1)
    c = analysis.pareto_hull("csa", 30, 25)
    assert [(p.upload, p.download) for p in g] == [(p.upload, p.download) for p in c]


def test_hull_rejects_bad_budget():
    with pytest.raises(ParameterError):
        analysis.pareto_hull("csa", 10, 10)
    with pytest.raises(ParameterError):
        analysis.pareto_hull("nope", 10, 5)
    # a bound below 1 once gave an empty hull: no tuple has pmn < 1
    for bound in (0, -3):
        with pytest.raises(ParameterError, match="pmn bound"):
            analysis.pareto_hull("gcsa", 10, 8, pmn_bound=bound)


def test_latency_strict_improvement_range():
    for k in range(2, 26):
        upper, witness = analysis.gcsa_latency_upper(100, 0.75, k)
        assert upper < analysis.ep_latency_lower(100, 0.75, k)
        assert witness["p"] * witness["m"] * witness["n"] >= k


@pytest.mark.parametrize("job_size, eta", [(1, 0.75), (2, 0.75), (100, 0.75), (7, 0.1),
                                           (3, 0.999), (50, 0.5)])
def test_latency_search_equals_the_full_scan(job_size, eta):
    # the search starts where p m^2 >= K can first hold; the scan from m = 1
    # took about K^(1/3) steps (10^102 at K = 1e308)
    ks = [1, 1.5, 2, 3, 7.25, 10, 26, 100, 999.9, 1e4, 12345.6, 1e6, 3e7, 1e9]
    for k in ks:
        assert analysis.gcsa_latency_upper(job_size, eta, k) == latency_upper_scan(job_size, eta, k)


def test_latency_ratio_grows_with_job_size():
    r_small = (analysis.ep_latency_lower(100, 0.75, 10)
               / analysis.gcsa_latency_upper(100, 0.75, 10)[0])
    r_large = (analysis.ep_latency_lower(1000, 0.75, 10)
               / analysis.gcsa_latency_upper(1000, 0.75, 10)[0])
    assert r_large > r_small


def test_latency_plateau_below_one():
    value, witness = analysis.gcsa_latency_upper(100, 0.75, 0.5)
    assert value == pytest.approx(2 * 266)  # 2 * ceil((2*100 - 1) / 0.75)
    assert witness == {"ell": 1, "kc": 100, "p": 1, "m": 1, "n": 1}


def test_latency_single_job_collapse():
    # with one multiplication per job, partitioning alone is already optimal:
    # the achievable batch construction tracks the lower bound within a
    # constant factor that shrinks as K grows
    ratios = []
    for k in (10, 100, 1000, 10000):
        upper, _ = analysis.gcsa_latency_upper(1, 0.75, k)
        ratios.append(upper / analysis.ep_latency_lower(1, 0.75, k))
    assert all(r < 1.5 for r in ratios)
    assert ratios[-1] < ratios[0]


def test_latency_witness_round_trips_through_harness():
    field = PrimeField(65537)
    job_size = 2
    upper, w = analysis.gcsa_latency_upper(job_size, 0.75, 2.0)
    r = gcsa.gcsa_threshold(w["ell"], w["kc"], w["p"], w["m"], w["n"])
    servers = -(-r * 4 // 3)  # ceil(R / eta)
    params = gcsa.gcsa_params(field, w["ell"], w["kc"], w["p"], w["m"], w["n"],
                              servers)
    rng = np.random.default_rng(0)
    lam = w["m"] * 2
    kap = w["p"] * 2
    mu = w["n"] * 2
    aa = [field.rand_matrix(rng, lam, kap) for _ in range(job_size)]
    bb = [field.rand_matrix(rng, kap, mu) for _ in range(job_size)]
    truth = harness.direct_products(field, aa, bb)
    products, _ = harness.run_cdbmm(field, "gcsa", params, aa, bb,
                                    harness.StragglerModel(count=r, seed=3))
    assert all(np.array_equal(p, t) for p, t in zip(products, truth))


def test_latency_curve_rows():
    pts = analysis.latency_curve(100, 0.75, [0.5, 2, 10])
    assert [p.k for p in pts] == [0.5, 2.0, 10.0]
    assert pts[0].gcsa_upper == pytest.approx(532.0)
    assert pts[1].gcsa_upper < pts[1].ep_lower
