"""Structured matrices behind every decoder, and exact solvers for them.

Builds Cauchy-Vandermonde matrices (left block of Cauchy entries
``1/(f_j - a_i)``, right block of Vandermonde powers) and their confluent
generalization with pole multiplicities, from which ``csa._decode_matrix``
builds the decode matrix of every Cauchy code.  One exact row reduction
over GF(q) with first-nonzero pivoting serves every solver here (square
batch solves, rectangular systems, rank) and the determinant map of
``ncsa``; a Berlekamp-Welch decoder handles the Byzantine setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecodingFailureError, ParameterError, SingularMatrixError
from .ffield import PrimeField, poly_divmod, poly_eval, poly_trim


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
    comes from one batched inversion.
    """
    q = field.q
    R = len(spec.samples)
    L = len(spec.poles)
    r1 = spec.order
    diffs = [field.sub(f, a) for a in spec.samples for f in spec.poles]
    invs = field.batch_inv(diffs)
    rows = []
    for i, a in enumerate(spec.samples):
        row = []
        for d, c in zip(diffs[i * L : (i + 1) * L], invs[i * L : (i + 1) * L]):
            p = pow(c, r1, q)
            for _ in range(r1):
                row.append(p)
                # step down one multiplicity: (f-a)^-(r1-j) -> (f-a)^-(r1-j-1)
                p = p * d % q
        p = 1
        for _ in range(R - r1 * L):
            row.append(p)
            p = p * a % q
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(R, R)


def _row_reduce(field: PrimeField, aug: np.ndarray, cols: int):
    """Bring ``aug`` in place to reduced row echelon form on its first ``cols``
    columns, the one exact elimination behind every solver here.

    Pivoting is first-nonzero; each pivot costs one scaled pivot row and one
    rank-1 update of every other row, and a column without a pivot is
    skipped.  Returns the pivot columns and the product of the pivots before
    scaling, negated once per row swap: the determinant when the leading
    block is square and every column has a pivot.
    """
    q = field.q
    rows = aug.shape[0]
    pivots = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        piv = r
        while piv < rows and aug[piv, c] == 0:
            piv += 1
        if piv == rows:
            continue
        if piv != r:
            aug[[r, piv]] = aug[[piv, r]]
            det = -det
        pivot = int(aug[r, c])
        det = det * pivot % q
        aug[r] = aug[r] * field.inv(pivot) % q
        others = aug[:, c].copy()
        others[r] = 0
        aug -= others[:, None] * aug[r]
        aug %= q
        pivots.append(c)
        if len(pivots) == rows:
            break
    return pivots, det


def solve_batch(field: PrimeField, mat: np.ndarray, rhs: np.ndarray,
                rows=None) -> np.ndarray:
    """Solve ``mat @ x = rhs`` exactly over GF(q) for every rhs column.

    Row-reduces the R x 2R block ``[mat | I]`` to get the inverse, then
    returns one ``field.matmul(inverse, rhs)``, so the elimination never
    touches the (possibly very wide) right-hand side.  ``rows`` (a slice or
    a sequence of indices) keeps only those unknowns: the product then
    multiplies only their rows of the inverse, and the fresh result holds
    just them.  Pivots depend only on ``mat``'s columns: a column with no
    pivot raises SingularMatrixError carrying the column index.
    """
    n = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ParameterError("solve_batch requires a square matrix")
    aug = np.concatenate([np.asarray(mat, dtype=np.int64) % field.q,
                          np.eye(n, dtype=np.int64)], axis=1)
    pivots, _ = _row_reduce(field, aug, n)
    if len(pivots) < n:
        raise SingularMatrixError(min(set(range(n)) - set(pivots)))
    inverse = aug[:, n:] if rows is None else aug[rows, n:]
    sol = field.matmul(inverse, field.residues(rhs.reshape(n, -1)))
    return sol.reshape(sol.shape[:1] + rhs.shape[1:])


def solve_any(field: PrimeField, mat: np.ndarray, rhs: np.ndarray):
    """Any solution of a (possibly rectangular) consistent system, or None.

    Free variables are set to zero.  Used by the Berlekamp-Welch decoder,
    whose linear system is underdetermined when fewer errors occurred than
    budgeted.
    """
    rows, cols = mat.shape
    aug = np.concatenate([mat % field.q, rhs.reshape(rows, 1) % field.q],
                         axis=1).astype(np.int64)
    pivots, _ = _row_reduce(field, aug, cols)
    # Rows of the form 0 = nonzero mean the system is inconsistent.
    if aug[len(pivots) :, cols].any():
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = aug[: len(pivots), cols]
    return x


def matrix_rank(field: PrimeField, mat: np.ndarray) -> int:
    """Rank over GF(q) by row reduction."""
    m = np.asarray(mat, dtype=np.int64) % field.q
    return len(_row_reduce(field, m, m.shape[1])[0])


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
    q = field.q
    num_n = d + b
    mat = np.zeros((n, num_n + b), dtype=np.int64)
    rhs = np.zeros(n, dtype=np.int64)
    for i, (x, y) in enumerate(zip(xs, ys)):
        p = 1
        for j in range(num_n):
            mat[i, j] = p
            p = p * x % q
        p = 1
        for j in range(b):
            mat[i, num_n + j] = (-y * p) % q
            p = p * x % q
        rhs[i] = y * p % q  # y * x^b from the monic leading term
    sol = solve_any(field, mat, rhs)
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
