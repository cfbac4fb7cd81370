"""Structured matrices behind every decoder, and exact solvers for them.

Builds Cauchy-Vandermonde matrices (Cauchy entries ``1/(f_j - a_i)``, then
Vandermonde powers) and their confluent form with pole multiplicities,
which no decoder uses any more; ``_powers`` builds every table of point
powers.  One exact row reduction over GF(q) with first-nonzero pivoting
serves every solver here (batch solves, rectangular systems, rank);
``_determinants`` eliminates a whole stack of square matrices at once for
``ncsa``'s determinant map.  Berlekamp-Welch (``rs_error_correct``, with
``solve_any``) decodes no answers: the tests' reference decoder and
perfbench's tracer keep it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecodingFailureError, ParameterError, SingularMatrixError
from .ffield import PrimeField, _integer, poly_divmod, poly_eval, poly_trim


@dataclass(frozen=True)
class CVSpec:
    """Points defining a (confluent) Cauchy-Vandermonde system.

    ``poles`` are the f values (flattened, length L), ``samples`` the alpha
    values (length R), ``order`` the pole multiplicity (order 1 is the plain
    Cauchy-Vandermonde case).
    """

    poles: tuple[int, ...]
    samples: tuple[int, ...]
    order: int = 1

    def __post_init__(self):
        pts = list(self.poles) + list(self.samples)
        if len(set(pts)) != len(pts):
            raise ParameterError("poles and samples must be pairwise distinct")
        if self.order < 1:
            raise ParameterError("confluence order must be positive")
        if len(self.samples) < self.order * len(self.poles):
            raise ParameterError(
                "need R >= order * L so the Vandermonde tail is nonnegative"
            )


def cv_matrix(field: PrimeField, spec: CVSpec) -> np.ndarray:
    """R x R Cauchy-Vandermonde matrix for an order-1 spec."""
    if spec.order != 1:
        raise ParameterError("cv_matrix requires confluence order 1")
    return confluent_cv_matrix(field, spec)


def confluent_cv_matrix(field: PrimeField, spec: CVSpec) -> np.ndarray:
    """R x R confluent Cauchy-Vandermonde matrix.

    For each pole f the columns run 1/(f-a)^order down to 1/(f-a), followed
    by the Vandermonde tail 1, a, ..., a^(R - order*L - 1).  Every 1/(f-a)
    comes from one batched inversion, and every power from ``_powers``.
    """
    rows, order = len(spec.samples), spec.order
    invs = field.batch_inv([field.sub(f, a) for a in spec.samples for f in spec.poles])
    cauchy = _powers(field, invs, order + 1)[:, :0:-1].reshape(rows, -1)
    tail = _powers(field, spec.samples, rows - order * len(spec.poles))
    return np.concatenate([cauchy, tail], axis=1)


def _powers(field: PrimeField, xs, width: int) -> np.ndarray:
    """(len(xs) x width) table whose row i is x_i^0, ..., x_i^(width-1) mod q."""
    table = np.ones((len(xs), width), dtype=np.int64)
    col = np.array([_integer(x, "a point") % field.q for x in xs], dtype=np.int64)
    for j in range(1, width):
        table[:, j] = table[:, j - 1] * col % field.q
    return table


def _row_reduce(field: PrimeField, aug: np.ndarray, cols: int) -> list[int]:
    """Bring ``aug`` in place to reduced row echelon form on its first ``cols``
    columns, the one exact elimination behind every solver here.

    Pivoting is first-nonzero; each pivot costs one rank-1 update, which
    scales the pivot row by 1/pivot and clears the column in every other
    row, and a column without a pivot is skipped.  Returns the pivot columns.
    """
    q = field.q
    rows = aug.shape[0]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = r
        while piv < rows and aug[piv, c] == 0:
            piv += 1
        if piv == rows:
            continue
        if piv != r:
            aug[[r, piv]] = aug[[piv, r]]
        inv = field.inv(int(aug[r, c]))
        factors = aug[:, c] * inv % q
        factors[r] = 1 - inv  # aug[r] - (1 - inv) * aug[r] is aug[r] / pivot
        aug -= factors[:, None] * aug[r]
        aug %= q
        pivots.append(c)
        if len(pivots) == rows:
            break
    return pivots


def _determinants(field: PrimeField, mats: np.ndarray) -> np.ndarray:
    """Determinants (shape (...)) of a C-contiguous (..., n, n) stack of
    residues, by one forward elimination of the whole stack in place: in
    column c each matrix pivots on its first nonzero at or below row c
    (a row swap negates its determinant) and clears the rows below.  The
    determinant is the signed product of the pivots; a zero pivot makes it
    0 and is inverted as 1 in the column's one ``batch_inv``."""
    q, n = field.q, mats.shape[-1]
    m = mats.reshape(-1, n, n)
    det = np.ones(len(m), dtype=np.int64)
    for c in range(n):
        piv = c + (m[:, c:, c] != 0).argmax(axis=1)
        swap = np.flatnonzero(piv != c)
        if swap.size:
            m[swap, c], m[swap, piv[swap]] = m[swap, piv[swap]], m[swap, c]
            det[swap] = -det[swap]
        pivot = m[:, c, c]
        det = det * pivot % q
        if c == n - 1:
            break
        inv = np.array(field.batch_inv(np.where(pivot == 0, 1, pivot).tolist()), dtype=np.int64)
        factors = m[:, c + 1:, c] * inv[:, None] % q
        m[:, c + 1:, c:] = (m[:, c + 1:, c:] - factors[..., None] * m[:, None, c, c:]) % q
    return det.reshape(mats.shape[:-2])


def solve_batch(field: PrimeField, mat: np.ndarray, rhs: np.ndarray,
                rows=None) -> np.ndarray:
    """Solve ``mat @ x = rhs`` exactly over GF(q) for every rhs column.

    Row-reduces the block ``[mat | rhs]``, so the cost grows with the width
    of ``rhs``: each decoder passes the identity, once per plan (the desired
    rows of the inverse, ``csa._plan``), and applies the plan to its answers
    as one product.  ``rows`` (a slice or a sequence of indices) keeps only
    those unknowns, and the fresh result holds just them.  Pivots depend
    only on ``mat``'s columns: a column with no pivot raises
    SingularMatrixError carrying the column index.
    """
    mat, rhs = field.residues(mat), field.residues(rhs)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ParameterError("solve_batch requires a square matrix")
    aug = np.concatenate([mat, rhs.reshape(n, -1)], axis=1)
    pivots = _row_reduce(field, aug, n)
    if len(pivots) < n:
        raise SingularMatrixError(min(set(range(n)) - set(pivots)))
    sol = (aug[:, n:] if rows is None else aug[rows, n:]).copy()
    return sol.reshape(sol.shape[:1] + rhs.shape[1:])


def solve_any(field: PrimeField, mat: np.ndarray, rhs: np.ndarray):
    """Any solution of a (possibly rectangular) consistent system, or None.

    Free variables are set to zero.  Used by the Berlekamp-Welch decoder,
    whose linear system is underdetermined when fewer errors occurred than
    budgeted.
    """
    aug = np.concatenate([field.residues(mat), field.residues(rhs).reshape(-1, 1)], axis=1)
    cols = aug.shape[1] - 1
    pivots = _row_reduce(field, aug, cols)
    # Rows of the form 0 = nonzero mean the system is inconsistent.
    if aug[len(pivots) :, cols].any():
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = aug[: len(pivots), cols]
    return x


def matrix_rank(field: PrimeField, mat: np.ndarray) -> int:
    """Rank over GF(q) by row reduction."""
    m = field.residues(mat).copy()  # the reduction works in place
    return len(_row_reduce(field, m, m.shape[1]))


def rs_error_correct(field: PrimeField, samples, values, degree_bound: int,
                     max_errors: int) -> tuple[list[int], list[int]]:
    """Correct up to ``max_errors`` corrupted evaluations of a polynomial.

    The clean values are assumed to lie on a polynomial of degree <
    ``degree_bound`` at the given sample points, with at least
    ``degree_bound + 2*max_errors`` observations (an MDS distance argument
    makes the corrected codeword unique).  Returns the corrected value list
    and the positions (indices into ``samples``) that were repaired, using
    Berlekamp-Welch rational interpolation.
    """
    xs = [x % field.q for x in samples]
    ys = [y % field.q for y in values]
    n = len(xs)
    d = degree_bound
    b = max_errors
    if len(set(xs)) != n:
        raise ParameterError("sample points must be distinct")
    if n < d + 2 * b:
        raise ParameterError("need at least degree_bound + 2*max_errors points")
    if b == 0:
        return list(ys), []
    # Unknowns: N(x) with deg < d + b, and monic E(x) with deg = b.
    # Constraints: N(x_i) = y_i * E(x_i) for every i.
    num_n = d + b
    powers = _powers(field, xs, max(num_n, b + 1))
    y = np.array(ys, dtype=np.int64)
    mat = np.concatenate([powers[:, :num_n], -y[:, None] * powers[:, :b] % field.q], axis=1)
    sol = solve_any(field, mat, y * powers[:, b] % field.q)  # y x^b, as E is monic
    if sol is None:
        raise DecodingFailureError("error locator system is inconsistent")
    n_poly = poly_trim([int(c) for c in sol[:num_n]])
    e_poly = poly_trim([int(c) for c in sol[num_n:]] + [1])
    quot, rem = poly_divmod(field, n_poly, e_poly)
    if rem:
        raise DecodingFailureError("more errors than the correction budget")
    corrected = [poly_eval(field, quot, x) for x in xs]
    positions = [i for i in range(n) if corrected[i] != ys[i]]
    if len(positions) > b:
        raise DecodingFailureError("more errors than the correction budget")
    return corrected, positions
