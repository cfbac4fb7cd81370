"""Generalized cross-subspace alignment codes: block partitioning inside batch coding.

Every constituent matrix pair is first encoded with the entangled-polynomial
partition code of ``ep``, evaluated at the shifted point (f_{l,k} - alpha).
The group prefactor is raised to the power R' = pmn, so a server's answer
expands into pole powers 1/(f - alpha)^R' .. 1/(f - alpha) carrying the
inner code's coefficients, plus a shared Vandermonde tail.  Points, batch
checks and the server answer (``csa.csa_answer``) are the CSA ones.

Both nestings fold into one linear code, so each side encodes every listed
server with one generator product per group (``csa._generator_encode``).
Weight (s, l; k, block) is w_{l,k}(alpha_s) * (f_{l,k} - alpha_s)^e, e the
block's EP exponent, w the cleared-denominator weight
prod_{k' != k}(f_{l,k'} - alpha_s)^R' on the A side and
1/(f_{l,k} - alpha_s)^R' on the B side (all inverses from one
``batch_inv``).  Decoding solves ``csa._decode_matrix`` at order and power
R' and reassembles products with the inner code's block extraction rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csa import (_answer_rows, _cauchy_weights, _check_batch, _decode_matrix,
                  _generator_encode, _Groups, _server_list, _shares, _take_answers,
                  cauchy_points)
from .ep import (EPParams, _a_exponents, _b_exponents, _desired_indices,
                 _extract_products)
from .errors import ParameterError
from .ffield import PrimeField
# perfbench/tracer.py requires gcsa.confluent_cv_matrix, so it stays importable here.
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
    def inner_order(self) -> int:
        """R' = pmn, the pole multiplicity used throughout."""
        return self.p * self.m * self.n

    @property
    def ep(self) -> EPParams:
        return EPParams(self.p, self.m, self.n)


def gcsa_threshold(ell: int, kc: int, p: int, m: int, n: int) -> int:
    return p * m * n * ((ell + 1) * kc - 1) + p - 1


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
    r = gcsa_threshold(ell, kc, p, m, n)
    if r > servers:
        raise ParameterError(f"R <= S violated: threshold {r} exceeds {servers} servers")
    poles, samples = cauchy_points(field, ell * kc, servers, poles, samples, False)
    return GCSAParams(ell, kc, p, m, n, servers, poles, samples)


def gcsa_encode_a(field: PrimeField, batch_a, params: GCSAParams, servers,
                  arena: str | None = None) -> list:
    """A-side shares: per group, sum over slots of the inner polynomial at
    f_{l,k} - alpha times the cleared-denominator weight
    prod_{k' != k}(f_{l,k'} - alpha)^R'.  ``servers`` is one server index
    (that server's ell shares) or a sequence (one list per server), and
    ``arena`` optionally names the round-arena buffer of the shares, as for
    ``csa.csa_encode_a``."""
    _check_batch(batch_a, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "a",
                              params.inner_order, _a_exponents(params.ep))
    return _shares(_generator_encode(field, batch_a, weights, (params.m, params.p),
                                     arena), servers)


def gcsa_encode_b(field: PrimeField, batch_b, params: GCSAParams, servers,
                  arena: str | None = None) -> list:
    """B-side shares: the inner B polynomials at f_{l,k} - alpha, weighted by
    1/(f_{l,k} - alpha)^R'; ``servers`` and ``arena`` as ``gcsa_encode_a``."""
    _check_batch(batch_b, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "b",
                              params.inner_order, _b_exponents(params.ep))
    return _shares(_generator_encode(field, batch_b, weights, (params.p, params.n),
                                     arena), servers)


def gcsa_decode(field: PrimeField, answers, params: GCSAParams) -> list[np.ndarray]:
    """Recover the L full products from any R answers.

    Solves the decode matrix whose Cauchy unknowns are the inner-code
    coefficient matrices per (group, slot), R' pole powers each, for just
    the desired blocks at the entangled-polynomial extraction indices, and
    reassembles them.
    """
    r = gcsa_threshold(params.ell, params.kc, params.p, params.m, params.n)
    answers = _take_answers(answers, r, params.servers)
    rp = params.inner_order
    mat = _decode_matrix(field, params, [s for s, _ in answers], rp, rp)
    idx = _desired_indices(params.ep)
    sol = solve_batch(field, mat, _answer_rows([y for _, y in answers]),
                      rows=[j * rp + i for j in range(params.batch_size) for i in idx])
    bh, bw = answers[0][1].shape
    desired = sol.reshape(params.batch_size, len(idx), bh, bw).transpose(1, 0, 2, 3)
    return list(_extract_products(params.ep, desired))
