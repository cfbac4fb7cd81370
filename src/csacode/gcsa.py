"""Generalized cross-subspace alignment codes: block partitioning inside batch coding.

Every constituent matrix pair is first encoded with the entangled-polynomial
partition encoders of ``ep``, evaluated at the shifted point
(f_{l,k} - alpha).  The group prefactor is raised to the power R' = pmn, so a
server's answer expands into pole powers 1/(f - alpha)^R' .. 1/(f - alpha)
carrying Toeplitz-mixed block coefficients, plus a shared Vandermonde tail.
Points, batch checks and the server answer (``csa.csa_answer``) are the CSA
ones.  Decoding solves the confluent Cauchy-Vandermonde system and
reassembles products with the block extraction rule of the inner code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csa import _check_batch, _take_answers, cauchy_points
from .ep import EPParams, assemble_blocks, desired_coeff_index, ep_encode_a, ep_encode_b
from .errors import ParameterError
from .ffield import PrimeField, poly_mul
from .structmat import CVSpec, confluent_cv_matrix, lt_toeplitz, solve_batch


@dataclass(frozen=True)
class GCSAParams:
    ell: int
    kc: int
    p: int
    m: int
    n: int
    servers: int
    poles: tuple[int, ...]
    samples: tuple[int, ...]

    @property
    def batch_size(self) -> int:
        return self.ell * self.kc

    @property
    def inner_order(self) -> int:
        """R' = pmn, the pole multiplicity used throughout."""
        return self.p * self.m * self.n

    @property
    def ep(self) -> EPParams:
        return EPParams(self.p, self.m, self.n)

    def pole(self, l: int, k: int) -> int:
        return self.poles[l * self.kc + k]


def gcsa_threshold(ell: int, kc: int, p: int, m: int, n: int) -> int:
    return p * m * n * ((ell + 1) * kc - 1) + p - 1


def naive_combo_threshold(ell: int, kc: int, servers_inner: int) -> int:
    """Threshold of batch-coding all inner sub-products as one large batch:
    an (ell, kc * S') batch code over the S' * L partitioned tasks."""
    return ell * kc * servers_inner + kc * servers_inner - 1


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


def gcsa_encode_a(field: PrimeField, batch_a, params: GCSAParams, s: int) -> list[np.ndarray]:
    """A-side share: per group, sum over slots of the inner polynomial times
    the cleared-denominator weight prod_{k' != k}(f_{l,k'} - alpha)^R'."""
    _check_batch(batch_a, params)
    alpha = params.samples[s]
    rp = params.inner_order
    shares = []
    for l in range(params.ell):
        acc = None
        for k in range(params.kc):
            w = 1
            for k2 in range(params.kc):
                if k2 != k:
                    w = w * field.pow(field.sub(params.pole(l, k2), alpha), rp) % field.q
            term = w * ep_encode_a(field, batch_a[l * params.kc + k], params.ep,
                                   field.sub(params.pole(l, k), alpha)) % field.q
            acc = term if acc is None else (acc + term) % field.q
        shares.append(acc)
    return shares


def gcsa_encode_b(field: PrimeField, batch_b, params: GCSAParams, s: int) -> list[np.ndarray]:
    """B-side share: Cauchy-power combination of the inner B polynomials."""
    _check_batch(batch_b, params)
    alpha = params.samples[s]
    rp = params.inner_order
    shares = []
    for l in range(params.ell):
        acc = None
        for k in range(params.kc):
            w = field.inv(field.pow(field.sub(params.pole(l, k), alpha), rp))
            term = w * ep_encode_b(field, batch_b[l * params.kc + k], params.ep,
                                   field.sub(params.pole(l, k), alpha)) % field.q
            acc = term if acc is None else (acc + term) % field.q
        shares.append(acc)
    return shares


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
    out = []
    for g in range(params.batch_size):
        rows = sol[g * rp : (g + 1) * rp]
        grid = [
            [
                rows[desired_coeff_index(params.ep, mi, ni)].reshape(bh, bw)
                for ni in range(params.n)
            ]
            for mi in range(params.m)
        ]
        out.append(assemble_blocks(grid))
    return out
