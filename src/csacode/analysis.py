"""Parameter-space exploration: communication-cost frontiers and latency curves.

Enumerates every parameter tuple of a code family that fits a server count
and threshold budget, computes exact (balanced upload, download) cost pairs,
and reduces them to the lower-left convex hull.  The latency comparison
evaluates the balanced upload/download time of partitioning-only codes
against the batch-plus-partitioning construction under a per-server
computation budget; those formulas model wall-clock time and are the only
floating-point arithmetic in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParameterError
from .csa import gcsa_threshold
from .harness import CDBMM_SCHEMES, SCHEMES, _closed_costs


@dataclass(frozen=True)
class HullPoint:
    upload: Fraction    # balanced upload cost, max(U_A, U_B)
    download: Fraction
    witness: dict


@dataclass(frozen=True)
class LatencyPoint:
    k: float
    ep_lower: float
    gcsa_upper: float
    witness: dict


# The largest R_max enumerated: at R_max = 1000 (S = 1001) the gcsa hull, the
# slowest, visits 188,908 tuples in about 3 s on a 2-core x86-64 VM.
R_MAX_LIMIT = 1000

# Each family's free parameters (its scheme's; the rest stay 1).  EP is GCSA
# with ell = kc = 1 and CSA is GCSA with p = m = n = 1, so one formula costs all.
FAMILIES = {name: tuple(SCHEMES[name].params) for name in CDBMM_SCHEMES
            if not SCHEMES[name].fixed.get("systematic")}


def enumerate_costs(family: str, servers: int, r_max: int,
                    pmn_bound: Optional[int] = None):
    """Yield (upload, download, witness) for every feasible parameter tuple.

    The threshold grows with every parameter, so each loop stops at the
    first value whose least threshold exceeds ``r_max``, at most
    ``R_MAX_LIMIT``; ``pmn_bound`` caps pmn for ``gcsa`` only.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown code family {family!r}")
    if r_max > R_MAX_LIMIT:
        raise ParameterError(f"R_max {r_max} exceeds the maximum {R_MAX_LIMIT}")
    if pmn_bound is not None and pmn_bound < 1:  # no tuple has pmn < 1
        raise ParameterError(f"the pmn bound must be at least 1, got {pmn_bound}")
    ps, ms, ns, ells, kcs = (range(1, r_max + 2) if name in FAMILIES[family] else (1,)
                             for name in ("p", "m", "n", "ell", "kc"))
    bound = pmn_bound if family == "gcsa" and pmn_bound is not None else math.inf
    for p in ps:
        if gcsa_threshold(1, 1, p, 1, 1) > r_max:
            break
        for m in ms:
            if gcsa_threshold(1, 1, p, m, 1) > r_max:
                break
            for n in ns:
                if gcsa_threshold(1, 1, p, m, n) > r_max or p * m * n > bound:
                    break
                for ell in ells:
                    if gcsa_threshold(ell, 1, p, m, n) > r_max:
                        break
                    for kc in kcs:
                        r = gcsa_threshold(ell, kc, p, m, n)
                        if r > r_max:
                            break
                        uploads, download = _closed_costs(r, servers, ell, kc, p, m, n)
                        w = {"ell": ell, "kc": kc, "p": p, "m": m, "n": n}
                        yield max(uploads), download, {k: w[k] for k in FAMILIES[family]}


def _witness_key(w: dict):
    return tuple(sorted(w.items()))


def pareto_hull(family: str, servers: int, r_max: int,
                pmn_bound: Optional[int] = None) -> list[HullPoint]:
    """Lower-left convex hull of the achievable (U, D) pairs.

    Ties on U are broken toward smaller D, then lexicographic witnesses;
    dominated points are staircase-filtered before the monotone chain.
    """
    if r_max < 1 or servers <= r_max:
        raise ParameterError("need S > R_max >= 1")
    least = {}  # U -> the least (D, witness key, witness) at that U
    for u, d, w in enumerate_costs(family, servers, r_max, pmn_bound):
        if u not in least or (d, _witness_key(w)) < least[u][:2]:
            least[u] = (d, _witness_key(w), w)
    # strict Pareto staircase, U ascending
    stair = []
    best = None
    for u in sorted(least):
        d, _, w = least[u]
        if best is None or d < best:
            stair.append((u, d, w))
            best = d
    hull = []
    for pt in stair:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    return [HullPoint(u, d, w) for u, d, w in hull]


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# ---- latency under a per-server computation budget ----


def ep_latency_lower(job_size: int, eta: float, k: float) -> float:
    """Balanced upload/download time lower bound for partitioning-only codes.

    Continuous relaxation: the partition size m = (eta*J*K/2)^(1/3) balances
    upload and download while meeting the per-server budget; time is
    normalized by lambda^2 * T_c.
    """
    if job_size < 1 or not 0 < eta < 1 or not 0 < k < math.inf:
        raise ParameterError("need J >= 1, 0 < eta < 1 and a finite K > 0")
    m = (eta * job_size * k / 2.0) ** (1.0 / 3.0)
    return job_size * (2 * m / eta + 2 / (eta * m) - 1 / m**2)  # no m^3: finite at K = 1e308


def gcsa_latency_upper(job_size: int, eta: float, k: float):
    """Achievable balanced time of the batch-plus-partitioning construction.

    Integer search over the square partition size m (with p = ceil(2m/eta)
    balancing the upload sides) subject to the latency constraint
    p*m^2 >= K; below K = 1 no partitioning is needed and the pure batch
    point 2*ceil((2J-1)/eta) applies.  Returns (time, witness).

    p*m^2 grows with m, and so does the time ((2J-1)p + (p-1)/m^2: p
    grows by at least 2/eta - 1 a step while (p-1)/m^2 < 2/(eta*m) falls
    by less), so the best m is the first that meets K, which a bisection
    finds in O(log K) steps.
    """
    if job_size < 1 or not 0 < eta < 1 or not math.isfinite(k):
        raise ParameterError("need J >= 1, 0 < eta < 1 and a finite K")
    if k < 1:
        value = 2.0 * math.ceil((2 * job_size - 1) / eta)
        return value, {"ell": 1, "kc": job_size, "p": 1, "m": 1, "n": 1}

    def meets(m: int) -> bool:
        return math.ceil(2 * m / eta) * m * m >= k

    lo, hi = 1, 1
    while not meets(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:  # the first m in [lo, hi] that meets K
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid + 1, hi)
    p = math.ceil(2 * lo / eta)
    return (((2 * job_size - 1) * p * lo * lo + p - 1) / (lo * lo),
            {"ell": 1, "kc": job_size, "p": p, "m": lo, "n": lo})


def latency_curve(job_size: int, eta: float, ks) -> list[LatencyPoint]:
    out = []
    for k in ks:
        upper, witness = gcsa_latency_upper(job_size, eta, k)
        out.append(LatencyPoint(float(k), ep_latency_lower(job_size, eta, k),
                                upper, witness))
    return out
