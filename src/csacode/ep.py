"""Entangled polynomial codes: matrix-partitioning encoder, answer, decoder.

Each constituent matrix pair is partitioned into an m x p grid (A side) and a
p x n grid (B side).  The coded uploads are block-weighted powers of a single
evaluation point; the answer polynomial has degree pmn + p - 2, so any
R = pmn + p - 1 answers determine all its coefficients through a Vandermonde
solve, and the mn desired block sums sit at known coefficient positions.

Encoding is one generator product per side: the S x mp (or S x pn) table of
alpha_s^e, one row per server and one column per block in row-major grid
order, times the blocks of every batch entry stacked as (blocks x entries *
block size), so every server's share of every entry comes out at once
(``csa._generator_encode``).  Decoding multiplies a whole batch of answers,
as columns, by the plan of the answering points: the mn desired rows of the
inverse Vandermonde, built by one solve on their first decode.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .csa import _answer_rows, _generator_encode, _plan_cache, _read_only, _server_list
from .errors import InsufficientAnswersError, ParameterError
from .ffield import PrimeField
from .structmat import _powers, solve_batch


@dataclass(frozen=True)
class EPParams:
    p: int = 1
    m: int = 1
    n: int = 1

    def __post_init__(self):
        if min(self.p, self.m, self.n) < 1:
            raise ParameterError("partition parameters must be positive")


def ep_threshold(params: EPParams) -> int:
    """Recovery threshold pmn + p - 1."""
    return params.p * params.m * params.n + params.p - 1


def a_exponent(params: EPParams, mi: int, pi: int) -> int:
    """Power of the evaluation point carried by A block (mi, pi), 0-based."""
    return pi + params.p * mi


def b_exponent(params: EPParams, pi: int, ni: int) -> int:
    """Power carried by B block (pi, ni), 0-based."""
    return (params.p - 1 - pi) + params.p * params.m * ni


def desired_coeff_index(params: EPParams, mi: int, ni: int) -> int:
    """0-based coefficient index holding output block (mi, ni).

    A-block (mi, pi) and B-block (pi, ni) land on the same power exactly when
    the inner indices match, so this coefficient is the clean block sum."""
    return (params.p - 1) + params.p * mi + params.p * params.m * ni


def _a_exponents(params: EPParams) -> list[int]:
    """Powers of the A blocks in row-major order of the m x p grid."""
    return [a_exponent(params, mi, pi) for mi in range(params.m) for pi in range(params.p)]


def _b_exponents(params: EPParams) -> list[int]:
    """Powers of the B blocks in row-major order of the p x n grid."""
    return [b_exponent(params, pi, ni) for pi in range(params.p) for ni in range(params.n)]


def ep_encode_a(field: PrimeField, a, params: EPParams, alpha):
    """A polynomial sum_{mi,pi} A_{mi,pi} alpha^(pi + p*mi); GCSA's generator
    evaluates the same polynomial at the shifted point f_{l,k} - alpha.

    With one matrix and one point, returns that share.  With a batch of
    matrices and a sequence of points, returns one list of shares (one per
    batch entry) per point, all from one generator product
    (``csa._generator_encode``).
    """
    return _encode(field, a, (params.m, params.p), _a_exponents(params), alpha)


def ep_encode_b(field: PrimeField, b, params: EPParams, alpha):
    """B polynomial sum_{pi,ni} B_{pi,ni} alpha^(p-1-pi + p*m*ni); one matrix
    and one point, or a batch and a sequence of points, as ``ep_encode_a``."""
    return _encode(field, b, (params.p, params.n), _b_exponents(params), alpha)


def _encode(field: PrimeField, mats, grid, exps, alpha):
    """The (points x blocks) generator of alpha^e times the blocks of every
    entry; one matrix and one point give the one share."""
    gen = _generator(field, tuple(_server_list(alpha)), tuple(exps))
    if isinstance(alpha, numbers.Integral):
        return _generator_encode(field, [mats], gen, alpha, grid)[0]
    return _generator_encode(field, mats, gen, alpha, grid)


@_plan_cache
def _generator(field: PrimeField, alphas: tuple, exps: tuple) -> np.ndarray:
    """The encoders' plan: the (points x blocks) table of alpha^e."""
    return _read_only(_powers(field, alphas, max(exps) + 1)[:, list(exps)])


def ep_answer(field: PrimeField, coded_a: np.ndarray, coded_b: np.ndarray,
              counter=None, out: np.ndarray | None = None) -> np.ndarray:
    """One coded product, into ``out`` when given (as ``PrimeField.matmul``)."""
    if coded_a.shape[1] != coded_b.shape[0]:
        raise ParameterError("coded shares are not conformable")
    if counter is not None:
        counter.mults += coded_a.shape[0] * coded_a.shape[1] * coded_b.shape[1]
    return field.matmul(coded_a, coded_b, out=out)


def ep_decode(field: PrimeField, answers, params: EPParams):
    """Recover the full product from R = pmn + p - 1 answers.

    ``answers`` is an iterable of (alpha, Y) pairs.  Y is one answer matrix,
    which returns the one product, or a stack of them (one per batch entry),
    which returns the list of products; either way one product with
    ``_plan`` interpolates the desired coefficient matrices entry-wise, then
    each product's block grid is reassembled.
    """
    r = ep_threshold(params)
    answers = list(answers)
    if len(answers) < r:
        raise InsufficientAnswersError(f"need {r} answers, got {len(answers)}")
    answers = answers[:r]
    shape = np.shape(answers[0][1])  # (entries x) block
    coeffs = field.matmul(_plan(field, params, tuple(a % field.q for a, _ in answers)),
                          field.residues(_answer_rows([y for _, y in answers])))
    products = _extract_products(params, coeffs.reshape((len(coeffs), -1) + shape[-2:]))
    return products[0] if len(shape) == 2 else products


@_plan_cache
def _plan(field: PrimeField, params: EPParams, alphas: tuple) -> np.ndarray:
    """``ep_decode``'s plan: the desired coefficients' rows of the inverse Vandermonde."""
    if len(set(alphas)) != len(alphas):
        raise ParameterError("evaluation points must be pairwise distinct")
    return _read_only(solve_batch(field, _powers(field, alphas, len(alphas)),
                                  np.eye(len(alphas), dtype=np.int64),
                                  rows=_desired_indices(params)))


def _desired_indices(params: EPParams) -> list[int]:
    """``desired_coeff_index`` of every output block, row-major in (mi, ni)."""
    return [desired_coeff_index(params, mi, ni)
            for mi in range(params.m) for ni in range(params.n)]


def _extract_products(params: EPParams, desired: np.ndarray) -> np.ndarray:
    """Products from the desired coefficients, shape (m * n, entries, bh, bw)
    in ``_desired_indices`` order: output block (mi, ni) of every entry is
    its coefficient; returns (entries, m * bh, n * bw)."""
    m, n = params.m, params.n
    _, entries, bh, bw = desired.shape
    grid = desired.reshape(m, n, entries, bh, bw)
    return grid.transpose(2, 0, 3, 1, 4).reshape(entries, m * bh, n * bw)
