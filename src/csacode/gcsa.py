"""Generalized cross-subspace alignment codes: block partitioning inside batch coding.

Every constituent matrix pair is first encoded with the entangled-polynomial
partition code of ``ep``, evaluated at the shifted point (f_{l,k} - alpha).
The group prefactor is raised to the power R' = pmn, so a server's answer
expands into pole powers 1/(f - alpha)^R' .. 1/(f - alpha) carrying the
inner code's coefficients, plus a shared Vandermonde tail.

Both nestings fold into one linear code, the Cauchy code of ``csa`` with
the partition ``GCSAParams.ep`` (CSA is p = m = n = 1): its weights, encode
path, decode plan, points, batch checks and server answer are csa's.  Weight
(s, l; k, block) is d^e times prod_{k' != k} d_{k'}^R' on the A side and
1/d^R' on the B side, d = f_{l,k} - alpha_s and e the block's EP exponent.
``gcsa_decode`` reassembles the desired blocks with ``ep._extract_products``.

EP is the case ell = kc = 1 (``harness.ep_setup``): with one pole and
S samples it needs S + 1 distinct points, so S <= q - 1.  A code of batch
size 1 takes a batch of any length and encodes every entry alone with its
one row of weights; each share and answer then holds every entry, and
``gcsa_decode`` returns them all from one product with its plan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .csa import _cauchy_encode, _Groups, _solve, _take_answers, cauchy_points
from .ep import EPParams, _extract_products
from .errors import ParameterError
from .ffield import PrimeField
# perfbench/tracer.py alone needs these names here; this module calls neither.
from .structmat import confluent_cv_matrix, solve_batch  # noqa: F401


@dataclass(frozen=True)
class GCSAParams(_Groups):
    ell: int
    kc: int
    p: int
    m: int
    n: int
    servers: int
    poles: tuple[int, ...]
    samples: tuple[int, ...]

    @property
    def arity(self) -> int:
        """GCSA's server computes a matrix product, a bilinear map (N = 2)."""
        return 2

    @functools.cached_property
    def ep(self) -> EPParams:  # the partition code; read by every round and plan
        return EPParams(self.p, self.m, self.n)

    @property
    def threshold(self) -> int:
        return gcsa_threshold(self.ell, self.kc, self.p, self.m, self.n)


def gcsa_threshold(ell: int, kc: int, p: int, m: int, n: int) -> int:
    return p * m * n * ((ell + 1) * kc - 1) + p - 1


def _gcsa_costs(ell: int, kc: int, p: int, m: int, n: int, servers: int):
    """(R, (U_A, U_B), D) of GCSA on ``servers`` servers: the threshold, the
    normalized uploads S/(kc p m) and S/(kc p n) and the normalized download
    R/(mn ell kc).  EP is the case ell = kc = 1 and CSA p = m = n = 1."""
    r = gcsa_threshold(ell, kc, p, m, n)
    return (r, (Fraction(servers, kc * p * m), Fraction(servers, kc * p * n)),
            Fraction(r, m * n * ell * kc))


def grid_naive_threshold(s_outer: int, r_outer: int, s_inner: int, r_inner: int) -> int:
    """Worst-case threshold of the column-wise two-layer composition.

    Each of the s_outer partitioned sub-tasks is farmed out to its own group
    of s_inner servers; recovery needs r_outer groups with r_inner responses.
    The adversary wastes whole groups first, then stalls the rest just below
    their local threshold.
    """
    return (r_outer - 1) * s_inner + (s_outer - r_outer + 1) * (r_inner - 1) + 1


def gcsa_params(field: PrimeField, ell: int, kc: int, p: int, m: int, n: int,
                servers: int, poles=None, samples=None) -> GCSAParams:
    if min(ell, kc, p, m, n, servers) < 1:
        raise ParameterError("all parameters must be positive")
    poles, samples = cauchy_points(field, ell * kc, servers, gcsa_threshold(ell, kc, p, m, n),
                                   poles, samples, False)
    return GCSAParams(ell, kc, p, m, n, servers, poles, samples)


def gcsa_encode_a(field: PrimeField, batch_a, params: GCSAParams, servers) -> np.ndarray | list:
    """A-side shares: per group, sum over slots of the inner polynomial at
    f_{l,k} - alpha times the cleared-denominator weight
    prod_{k' != k}(f_{l,k'} - alpha)^R'.  ``servers`` is one server index
    (that server's ell shares) or a sequence (their rows, as for
    ``csa_encode_a``).  With batch size 1, a longer batch encodes entry by
    entry: a server's share then holds every entry, as (entries, 1, ...)."""
    return _cauchy_encode(field, batch_a, params, servers, "a", params.batch_size == 1)


def gcsa_encode_b(field: PrimeField, batch_b, params: GCSAParams, servers) -> np.ndarray | list:
    """B-side shares: the inner B polynomials at f_{l,k} - alpha, weighted by
    1/(f_{l,k} - alpha)^R'; ``servers`` as for ``gcsa_encode_a``."""
    return _cauchy_encode(field, batch_b, params, servers, "b", params.batch_size == 1)


def gcsa_decode(field: PrimeField, answers, params: GCSAParams) -> list[np.ndarray]:
    """Recover the L full products from any R answers.

    The decode matrix's Cauchy unknowns are the inner-code coefficient
    matrices per (group, slot), R' pole powers each; ``csa._solve`` returns
    just the desired blocks at the entangled-polynomial extraction indices,
    which are reassembled.  An answer of a batch-size-1 code may hold
    several entries, (entries, bh, bw): every entry's product comes from
    the same product with the plan.
    """
    answers = _take_answers(answers, params.threshold, params.servers)
    sol = _solve(field, answers, params)
    bh, bw = answers[0][1].shape[-2:]
    mn = params.m * params.n  # sol's rows are slot-major, its columns entry-major
    desired = sol.reshape(params.batch_size, mn, -1, bh, bw).swapaxes(0, 1)
    return list(_extract_products(params.ep, desired.reshape(mn, -1, bh, bw)))
