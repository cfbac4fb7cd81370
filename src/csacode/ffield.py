"""Exact arithmetic in the prime field GF(q) plus basic polynomial utilities.

Field elements are canonical least nonnegative residues (plain Python ints);
matrices and vectors of field elements are numpy ``int64`` arrays.  The
modulus travels with a :class:`PrimeField` instance, never global state, so
several fields can coexist in one process.

``PrimeField.matmul`` picks one of three exact paths by shape and q:

- **int64**: numpy's integer ``@`` (no BLAS) for products of fewer than
  ``FLOAT_MIN_MACS`` multiply-adds that need at most ``INT64_MAX_CHUNKS``
  chunks.  Exact while ``inner * (q-1)^2 < 2^62``; longer inner dimensions
  accumulate in chunks, one numpy call each (one term per chunk near
  q = 2^31, two near 2^30).
- **float64**: OpenBLAS ``dgemm`` on the residues, cast to int64 and reduced
  mod q.  Exact while ``inner * (q-1)^2 < 2^53``: every partial sum is then
  an integer below 2^53, which float64 holds exactly in whatever order BLAS
  adds.  Longer inner dimensions are chunked (2^21 - 1 terms at q = 65537).
- **16-bit limbs**: above q of about 2^26.5 not one term fits, so ``b`` is
  split into limbs ``[b_lo; b_hi]`` and ``a`` becomes ``[a | a * 2^16 mod q]``,
  which recombines the limbs mod q inside the product itself.  That doubles
  the inner terms but bounds each by ``(q-1)(2^16-1)``, so one ``dgemm`` is
  exact over 64 terms (32 inner indices) at q = 2147483629.  Smaller q take
  this form too wherever it needs fewer chunks than plain residues.

Crossover, q = 65537, square products, ``_matmul_int64`` vs
``_matmul_float`` (best of 25 timeit repeats, OpenBLAS 0.3.31 with one
thread, numpy 2.4, 2-core x86-64 VM): 2.3 vs 5.7 us at 8^3, 5.1 vs 6.5 us at
16^3, 7.0 vs 7.3 us at 18^3, 8.0 vs 7.4 us at 20^3, 13.9 vs 10.1 us at
24^3, 142 vs 23 us at 64^3 and 7.8 vs 0.79 ms at 192^3; hence
``FLOAT_MIN_MACS = 20**3``.

Crossover for small products at large q, where int64 chunks, the same two
kernels (best of 7 timeit repeats of 200 calls, same machine and
libraries).  At q = 2147483629 (one term per chunk): 20 vs 22 us at 4^3 (4
chunks), 24 vs 22 us for (3x5)@(5x2) (5), 30 vs 23 us at 6^3 (6), 40 vs
24 us at 8^3 (8), 106 vs 27 us at 16^3 and 723 vs 90 us for (11x256)@(256,)
(256).  At q = 1073741789 (two terms per chunk): 12.5 vs 13.7 us at 8^3 (4
chunks), 15.6 vs 13.3 us for (2x12)@(12x2) (6) and 36 vs 16 us at 16^3 (8).
A chunk costs about 5 us and the limb path about 22 us, so int64 wins up
to 4 chunks and ties at 5; hence ``INT64_MAX_CHUNKS = 5``.  Below about
q = 2^25 no product under ``FLOAT_MIN_MACS`` needs six chunks, so there the
limit never applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_MODULUS = 65537

# Fewest multiply-adds for which a float64 BLAS product beats numpy's int64
# matmul; the measurement behind it is in the module docstring.
FLOAT_MIN_MACS = 20**3
# Most int64 chunks a product below FLOAT_MIN_MACS may take before the float
# path is faster; measured near q = 2^31 in the module docstring.
INT64_MAX_CHUNKS = 5
# float64 represents every integer below 2^53 exactly.
_FLOAT_EXACT = 2**53
_LIMB_BITS = 16
# Output columns per float64 block: 4096 keeps a 28-row block (the CSA
# encode of 14 servers) under 1 MB and ran that encode 2.7x faster than
# one whole-width product.
_COLUMN_BLOCK = 4096


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic context for GF(q), q prime.

    All scalar methods take and return ints in ``[0, q)``.  Matrix helpers
    operate on ``int64`` numpy arrays with entries already reduced mod q.
    """

    q: int = DEFAULT_MODULUS

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")
        # products of two residues must fit int64 for the array paths
        if self.q >= 2**31:
            raise ValueError("modulus must be below 2**31")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse (the extended Euclidean algorithm inside
        Python's three-argument ``pow``)."""
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return pow(a, -1, self.q)

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.q)

    def batch_inv(self, values) -> list[int]:
        """Invert a vector of nonzero elements with a single inversion
        (Montgomery's trick)."""
        values = [v % self.q for v in values]
        prefix = [1]
        for v in values:
            prefix.append(prefix[-1] * v % self.q)
        if prefix[-1] == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        acc = self.inv(prefix[-1])
        out = [0] * len(values)
        for i in range(len(values), 0, -1):
            out[i - 1] = prefix[i - 1] * acc % self.q
            acc = acc * values[i - 1] % self.q
        return out

    # ---- numpy matrix helpers ----

    def residues(self, x) -> np.ndarray:
        """``x`` as int64 residues, reduced only if an entry lies outside
        [0, q): the exact kernels assume residues, and most inputs already
        are."""
        x = np.asarray(x, dtype=np.int64)
        # as uint64 a negative entry is at least 2^63, so one max finds both
        if x.size and x.view(np.uint64).max() >= self.q:
            x = x % self.q
        return x

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product mod q of residue arrays.

        ``a`` may carry leading batch axes and ``b`` may be a vector, as with
        numpy's ``@``; the result has shape ``a.shape[:-1] + b.shape[1:]``.
        Products below ``FLOAT_MIN_MACS`` multiply-adds take the int64 path
        unless it would need more than ``INT64_MAX_CHUNKS`` chunks; the rest
        take the float64 path, split into 16-bit limbs where (q-1)^2
        alone exceeds what float64 sums exactly (see the module docstring
        for each path's exactness bound).  Every path returns the same
        residues whatever order BLAS sums in.
        """
        if b.ndim > 2 or a.ndim < 1 or a.shape[-1] != b.shape[0]:
            raise ValueError(f"matmul shapes {a.shape} and {b.shape} do not conform")
        cols = b.shape[1] if b.ndim == 2 else 1
        inner = b.shape[0]
        if a.size * cols < FLOAT_MIN_MACS and inner <= self._int64_max_inner:
            return self._matmul_int64(a, b)
        out = self._matmul_float(a.reshape(-1, inner), b.reshape(inner, cols))
        return out.reshape(a.shape[:-1] + b.shape[1:])

    def _matmul_int64(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """int64 accumulation is safe while ``inner * (q-1)^2 < 2^62``; longer
        inner dimensions are accumulated in chunks (a single product always
        fits thanks to the q < 2^31 bound)."""
        inner = a.shape[-1]
        if inner * (self.q - 1) ** 2 < 2**62:
            return (a @ b) % self.q
        step = self._int64_chunk
        acc = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
        for lo in range(0, inner, step):
            acc = (acc + a[..., lo : lo + step] @ b[lo : lo + step, ...]) % self.q
        return acc

    @cached_property
    def _int64_chunk(self) -> int:
        """Inner terms per chunk when int64 must chunk: ``2^61 // (q-1)^2``,
        at least one, so a running sum plus one chunk stays below 2^63."""
        return max(1, 2**61 // (self.q - 1) ** 2)

    @cached_property
    def _int64_max_inner(self) -> int:
        """Longest inner dimension the int64 path takes: one chunk while
        ``inner * (q-1)^2 < 2^62``, else at most ``INT64_MAX_CHUNKS`` chunks."""
        return max((2**62 - 1) // (self.q - 1) ** 2, INT64_MAX_CHUNKS * self._int64_chunk)

    def _matmul_float(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """float64 BLAS product of 2-D residue arrays, one ``dgemm`` per
        chunk of inner terms, each chunk short enough that its float64 sums
        stay below 2^53 and so are exact integers.  Output columns go in
        blocks of ``_COLUMN_BLOCK``, so each float64 partial product is
        cast and reduced while it is still in cache."""
        q = self.q
        x, y, chunk = self._float_terms(a, b)
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
        for col in range(0, out.shape[1], _COLUMN_BLOCK):
            cols = slice(col, col + _COLUMN_BLOCK)
            block = out[:, cols]
            for lo in range(0, x.shape[1], chunk):
                part = x[:, lo : lo + chunk] @ y[lo : lo + chunk, cols]
                if lo == 0:
                    np.copyto(block, part, casting="unsafe")
                else:  # below 2^53 + q: no int64 overflow
                    block += part.astype(np.int64)
                _reduce(block, q)
        return out

    def _float_terms(self, a: np.ndarray, b: np.ndarray):
        """float64 operands ``x``, ``y`` with ``x @ y == a @ b (mod q)`` and the
        most inner terms one exact chunk may hold.

        Plain residues give terms up to (q-1)^2.  With 16-bit limbs ``b``
        becomes ``[b_lo; b_hi]`` and ``a`` becomes ``[a | a * 2^16 mod q]``:
        twice the terms, but each at most (q-1)(2^16-1), so a chunk can be
        nonempty up to q = 2^31.  The form needing fewer chunks wins, the
        plain one on a tie.
        """
        q, inner = self.q, a.shape[1]
        plain = (_FLOAT_EXACT - 1) // (q - 1) ** 2
        split = (_FLOAT_EXACT - 1) // ((q - 1) * (2**_LIMB_BITS - 1))
        if plain and -(-inner // plain) <= -(-2 * inner // split):
            return a.astype(np.float64), b.astype(np.float64), plain
        shifted = _reduce(a << _LIMB_BITS, q)
        x = np.concatenate([a, shifted], axis=1).astype(np.float64)
        y = np.concatenate([b & (2**_LIMB_BITS - 1), b >> _LIMB_BITS]).astype(np.float64)
        return x, y, split

    def rand_matrix(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        return rng.integers(0, self.q, size=(rows, cols), dtype=np.int64)


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """``x %= q`` for an int64 array, in place.  numpy vectorises integer
    floor division by a scalar but not the remainder, so this form is about
    1.8x faster from 1,024 entries up and no slower below."""
    quot = x // q
    quot *= q
    x -= quot
    return x


# ---- polynomials: coefficient lists, ascending degree, no trailing zeros ----


def poly_trim(coeffs: list[int]) -> list[int]:
    """Strip trailing zeros; the zero polynomial is the empty list."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return list(coeffs[:n])


def poly_eval(field: PrimeField, coeffs, x: int) -> int:
    """Horner evaluation of a coefficient list at x."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = (acc * x + c) % field.q
    return acc


def poly_mul(field: PrimeField, a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % field.q
    return poly_trim(out)


def poly_divmod(field: PrimeField, num, den) -> tuple[list[int], list[int]]:
    """Long division over GF(q): returns (quotient, remainder)."""
    num = poly_trim(num)
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(num) < len(den):
        return [], num
    num = list(num)
    inv_lead = field.inv(den[-1])
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1] * inv_lead % field.q
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] = (num[i + j] - c * d) % field.q
    return poly_trim(quot), poly_trim(num)
