"""Generalized cross-subspace alignment codes: block partitioning inside batch coding.

Every constituent matrix pair is first encoded with the entangled-polynomial
partition code of ``ep``, evaluated at the shifted point (f_{l,k} - alpha).
The group prefactor is raised to the power R' = pmn, so a server's answer
expands into pole powers 1/(f - alpha)^R' .. 1/(f - alpha) carrying
Toeplitz-mixed block coefficients, plus a shared Vandermonde tail.  Points,
batch checks and the server answer (``csa.csa_answer``) are the CSA ones.

Both nestings fold into one linear code, so each side encodes every listed
server with one product of a group-block-diagonal (S * ell x L * blocks)
generator and the blocks of all entries stacked as (L * blocks x block
size).  Entry (s, l; k, block) is w_{l,k}(alpha_s) * (f_{l,k} - alpha_s)^e,
e the block's EP exponent, w the cleared-denominator weight
prod_{k' != k}(f_{l,k'} - alpha_s)^R' on the A side and
1/(f_{l,k} - alpha_s)^R' on the B side (all inverses from one
``batch_inv``).  Decoding solves the confluent Cauchy-Vandermonde system and
reassembles products with the block extraction rule of the inner code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csa import (_cauchy_weights, _check_batch, _generator_encode, _Groups,
                  _server_list, _shares, _take_answers, cauchy_points)
from .ep import EPParams, _a_exponents, _b_exponents, _extract_products
from .errors import ParameterError
from .ffield import PrimeField, poly_mul
from .structmat import CVSpec, confluent_cv_matrix, lt_toeplitz, solve_batch


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


def psi_coeffs(field: PrimeField, params: GCSAParams, l: int, k: int) -> list[int]:
    """Coefficients (ascending) of prod_{k' != k} (t + (f_{l,k'} - f_{l,k}))^R'."""
    rp = params.inner_order
    poly = [1]
    for k2 in range(params.kc):
        if k2 == k:
            continue
        d = field.sub(params.pole(l, k2), params.pole(l, k))
        for _ in range(rp):
            poly = poly_mul(field, poly, [d, 1])
    # pad so the length is always R'(kc-1) + 1
    want = rp * (params.kc - 1) + 1
    return poly + [0] * (want - len(poly))


def gcsa_encode_a(field: PrimeField, batch_a, params: GCSAParams, servers) -> list:
    """A-side shares: per group, sum over slots of the inner polynomial at
    f_{l,k} - alpha times the cleared-denominator weight
    prod_{k' != k}(f_{l,k'} - alpha)^R'.  ``servers`` is one server index
    (that server's ell shares) or a sequence (one list per server), as for
    ``csa.csa_encode_a``."""
    _check_batch(batch_a, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "a",
                              params.inner_order, _a_exponents(params.ep))
    return _shares(_generator_encode(field, batch_a, weights, (params.m, params.p)),
                   servers)


def gcsa_encode_b(field: PrimeField, batch_b, params: GCSAParams, servers) -> list:
    """B-side shares: the inner B polynomials at f_{l,k} - alpha, weighted by
    1/(f_{l,k} - alpha)^R'; one index or a sequence, as ``gcsa_encode_a``."""
    _check_batch(batch_b, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "b",
                              params.inner_order, _b_exponents(params.ep))
    return _shares(_generator_encode(field, batch_b, weights, (params.p, params.n)),
                   servers)


def gcsa_decode(field: PrimeField, answers, params: GCSAParams) -> list[np.ndarray]:
    """Recover the L full products from any R answers.

    Solves the confluent Cauchy-Vandermonde system (with the Toeplitz
    coefficient mixing folded into the matrix), yielding the inner-code
    coefficient matrices per (group, slot); the desired blocks are read off
    at the entangled-polynomial extraction indices and reassembled.
    """
    r = gcsa_threshold(params.ell, params.kc, params.p, params.m, params.n)
    answers = _take_answers(answers, r, params.servers)
    rp = params.inner_order
    alphas = tuple(params.samples[s] for s, _ in answers)
    cv = confluent_cv_matrix(field, CVSpec(params.poles, alphas, rp))
    # fold the block-diagonal Toeplitz mixing into the solve matrix
    mixer = np.eye(r, dtype=np.int64)
    for g in range(params.batch_size):
        l, k = divmod(g, params.kc)
        coeffs = psi_coeffs(field, params, l, k)
        coeffs = (coeffs + [0] * rp)[:rp]  # kc = 1 yields the bare [1]
        block = lt_toeplitz(field, coeffs)
        mixer[g * rp : (g + 1) * rp, g * rp : (g + 1) * rp] = block
    mat = field.matmul(cv, mixer)
    stacked = np.stack([y.reshape(-1) for _, y in answers])
    sol = solve_batch(field, mat, stacked)
    bh, bw = answers[0][1].shape
    coeffs = sol[: params.batch_size * rp].reshape(params.batch_size, rp, bh, bw)
    coeffs = coeffs.transpose(1, 0, 2, 3)
    return list(_extract_products(params.ep, coeffs))
