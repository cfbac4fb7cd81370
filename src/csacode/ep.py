"""Entangled polynomial codes: matrix-partitioning encoder, answer, decoder.

Each constituent matrix pair is partitioned into an m x p grid (A side) and a
p x n grid (B side).  The coded uploads are block-weighted powers of a single
evaluation point; the answer polynomial has degree pmn + p - 2, so any
R = pmn + p - 1 answers determine all its coefficients through a Vandermonde
solve, and the mn desired block sums sit at known coefficient positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientAnswersError, ParameterError
from .ffield import PrimeField
from .structmat import CVSpec, cv_matrix, solve_batch


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


def split_blocks(mat: np.ndarray, rows: int, cols: int) -> list[list[np.ndarray]]:
    """Partition a matrix into a rows x cols grid of equal blocks."""
    if not np.issubdtype(mat.dtype, np.integer):
        raise ParameterError("matrices must hold integer residues")
    h, w = mat.shape
    if h % rows or w % cols:
        raise ParameterError(
            f"matrix of shape {mat.shape} is not divisible into {rows}x{cols} blocks"
        )
    bh, bw = h // rows, w // cols
    return [
        [mat[i * bh : (i + 1) * bh, j * bw : (j + 1) * bw] for j in range(cols)]
        for i in range(rows)
    ]


def assemble_blocks(grid: list[list[np.ndarray]]) -> np.ndarray:
    # same array as np.block, whose generic depth checks took 6x as long here
    return np.concatenate([np.concatenate(row, axis=1) for row in grid])


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


def ep_encode_a(field: PrimeField, a: np.ndarray, params: EPParams, alpha: int) -> np.ndarray:
    """A polynomial sum_{mi,pi} A_{mi,pi} alpha^(pi + p*mi) at one point; GCSA
    evaluates it at the shifted point f_{l,k} - alpha."""
    grid = split_blocks(a, params.m, params.p)
    acc = np.zeros_like(grid[0][0])
    for mi in range(params.m):
        for pi in range(params.p):
            w = field.pow(alpha, a_exponent(params, mi, pi))
            acc = (acc + w * grid[mi][pi]) % field.q
    return acc


def ep_encode_b(field: PrimeField, b: np.ndarray, params: EPParams, alpha: int) -> np.ndarray:
    """B polynomial sum_{pi,ni} B_{pi,ni} alpha^(p-1-pi + p*m*ni) at one point."""
    grid = split_blocks(b, params.p, params.n)
    acc = np.zeros_like(grid[0][0])
    for pi in range(params.p):
        for ni in range(params.n):
            w = field.pow(alpha, b_exponent(params, pi, ni))
            acc = (acc + w * grid[pi][ni]) % field.q
    return acc


def ep_answer(field: PrimeField, coded_a: np.ndarray, coded_b: np.ndarray,
              counter=None) -> np.ndarray:
    if coded_a.shape[1] != coded_b.shape[0]:
        raise ParameterError("coded shares are not conformable")
    if counter is not None:
        counter.mults += coded_a.shape[0] * coded_a.shape[1] * coded_b.shape[1]
    return field.matmul(coded_a, coded_b)


def answer_coefficients(field: PrimeField, a: np.ndarray, b: np.ndarray,
                        params: EPParams) -> list[np.ndarray]:
    """Term-by-term expansion of the answer polynomial (oracle-grade path).

    Returns the R coefficient matrices so ep_answer equals their power sum.
    """
    grid_a = split_blocks(a, params.m, params.p)
    grid_b = split_blocks(b, params.p, params.n)
    r = ep_threshold(params)
    coeffs = [
        np.zeros((a.shape[0] // params.m, b.shape[1] // params.n), dtype=np.int64)
        for _ in range(r)
    ]
    for mi in range(params.m):
        for pi in range(params.p):
            for pj in range(params.p):
                for ni in range(params.n):
                    e = a_exponent(params, mi, pi) + b_exponent(params, pj, ni)
                    prod = field.matmul(grid_a[mi][pi], grid_b[pj][ni])
                    coeffs[e] = (coeffs[e] + prod) % field.q
    return coeffs


def ep_decode(field: PrimeField, answers, params: EPParams) -> np.ndarray:
    """Recover the full product from R = pmn + p - 1 answers.

    ``answers`` is an iterable of (alpha, Y) pairs; the coefficient matrices
    are interpolated entry-wise with one Vandermonde solve, then the desired
    block grid is reassembled.
    """
    r = ep_threshold(params)
    answers = list(answers)
    if len(answers) < r:
        raise InsufficientAnswersError(f"need {r} answers, got {len(answers)}")
    answers = answers[:r]
    # a Cauchy-Vandermonde matrix without poles is the plain Vandermonde
    vand = cv_matrix(field, CVSpec((), tuple(a % field.q for a, _ in answers)))
    stacked = np.stack([y.reshape(-1) for _, y in answers])  # R x (block size)
    coeffs = solve_batch(field, vand, stacked)
    bh, bw = answers[0][1].shape
    grid = [
        [
            coeffs[desired_coeff_index(params, mi, ni)].reshape(bh, bw)
            for ni in range(params.n)
        ]
        for mi in range(params.m)
    ]
    return assemble_blocks(grid)
