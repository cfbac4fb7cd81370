"""Entangled polynomial codes: the matrix-partitioning layer of every code.

Each constituent matrix pair is partitioned into an m x p grid (A side) and a
p x n grid (B side).  A block carries a power of the evaluation point; the
answer polynomial has degree pmn + p - 2, so any R = pmn + p - 1 answers
determine all its coefficients, and the mn desired block sums sit at known
coefficient positions.

EP is GCSA with ell = kc = 1 (``harness.ep_setup``; its one pole needs
S <= q - 1): a round runs ``csa``'s encoders, answer and decoder, every
batch entry encoded alone.  This module keeps the partition's parameters,
its exponent layout and desired indices, which ``csa`` reads for every
Cauchy code, and its block extraction, which ``csa.csa_decode`` applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
# perfbench/tracer.py requires ep.solve_batch, so it stays importable here.
from .structmat import solve_batch  # noqa: F401


@dataclass(frozen=True)
class EPParams:
    p: int = 1
    m: int = 1
    n: int = 1

    def __post_init__(self):
        if min(self.p, self.m, self.n) < 1:
            raise ParameterError("partition parameters must be positive")


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


def _desired_indices(params: EPParams) -> list[int]:
    """``desired_coeff_index`` of every output block, row-major in (mi, ni)."""
    return [desired_coeff_index(params, mi, ni)
            for mi in range(params.m) for ni in range(params.n)]


def _extract_products(params: EPParams, desired: np.ndarray) -> np.ndarray:
    """Products from the desired coefficients, shape (..., m * n, bh, bw)
    in ``_desired_indices`` order: output block (mi, ni) of a product is
    its coefficient; returns (..., m * bh, n * bw)."""
    *lead, _, bh, bw = desired.shape
    grid = desired.reshape(*lead, params.m, params.n, bh, bw)
    return np.swapaxes(grid, -3, -2).reshape(*lead, params.m * bh, params.n * bw)
