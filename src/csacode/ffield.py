"""Exact arithmetic in the prime field GF(q) plus basic polynomial utilities.

Field elements are canonical least nonnegative residues (plain Python ints);
matrices and vectors of field elements are numpy ``int64`` arrays.  The
modulus travels with a :class:`PrimeField` instance, never global state, so
several fields can coexist in one process.

``PrimeField.matmul`` picks one of three exact paths by shape and q:

- **int64**: numpy's integer ``@`` (no BLAS) for products of fewer than
  ``FLOAT_MIN_MACS`` multiply-adds that are exact in one int64 sum,
  ``inner * (q-1)^2 < 2^62``: any inner dimension at q = 65537, at most 4
  at q = 1073741789 and 1 at q = 2147483629.
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

A stack (``a`` and ``b`` with one leading shape) picks its path by the
multiply-adds of all its slices; a float chunk is then one batched ``dgemm``
below a column block wide.  18 stacked 16^3 products at q = 65537 took 67 us
on the int64 path, 24 us on the float path and 125 us as 18 calls.
``harness._round`` stacks its responsive servers' answers, but answers a
server whose shares reach ``_ARENA_MIN_BYTES`` alone, so no buffer grows
with the server count: 12 CSA answers (ell = 2) took 103 vs 553 us stacked
vs alone at 8 KiB of shares a server, 272 vs 723 us at 32 KiB and 2,294 vs
1,367 us at 128 KiB (cdbmm-q31's; q = 65537, best of 7 timeit repeats).

Workspaces: the float path writes its float64 operands, each ``dgemm`` block
and each reduction quotient into scratch arrays that belong to the calling
thread (``threading.local``), grow on demand and are reused by every later
product in that thread, whatever its field.  It allocates only the array it
returns (none given ``out``), never a view of a workspace, so later products
cannot change an earlier result.  Why: each page of a large fresh temporary
costs a minor fault once glibc has returned it to the OS: a 192^3 product at
q = 65537 took 328 faults and 830 us on fresh temporaries, none and 530 us
on workspaces.  But one plain chunk of under ``_SMALL_TEMPS`` = 2^15 float64
entries (``a``, ``b`` and the product) multiplies fresh copies:
(4x9)@(9x256) took 20 against 32 us and 36 stacked 16^3 products 39 against
45, while (11x11)@(11x2048), 45,177 entries, took 202 us and 100 faults
against 75 us in a fresh process (q = 65537, one BLAS thread, 2-core x86-64
VM, medians of 9 alternating timeit runs).

The round arena extends the same store (``_workspace``) to a round's large
intermediates, under names of their own: ``shares-<i>`` (the shares of the
i-th encode of a round, written by ``csa._generator_encode``), ``answers``
(a CDBMM round's stack of answers, one row per responsive server),
``concat-a`` and ``concat-b`` (``csa.csa_answer``'s joined share groups),
each once it reaches ``_ARENA_MIN_BYTES``.  Every round's answers stay one
stack up to the public decoders, which read its first R rows in place
(``harness._round``).  Which buffers a round uses follows from this
thread's round state, ``_ROUND``, which ``harness._round`` opens: only the
encode step of a top-level round takes ``shares-<i>`` buffers and only that
round an ``answers`` buffer; encodes outside a round, after the encode step
or in a round nested in another (by a map or a forger) return fresh
arrays.  A large CDBMM round
(``harness.run_cdbmm``) then allocates only the products it returns, as
each decoder's plan holds just their rows; N-CSA answers come fresh from the
map.  Measured in the benchmark's own loop (its reference kernel, then one
operation, oracle included, over 20 operations; one BLAS thread, 2-core
x86-64 VM), a ``cdbmm-large`` operation took 3,094 to 3,605 minor faults
and ``cdbmm-q31`` 624 with fresh round temporaries; with the arena they
take about 1,264 and none.  The faults left are the fresh products of the
round and of its oracle.

Crossover, q = 65537, square products, ``_matmul_int64`` vs
``_matmul_float`` (best of 25 timeit repeats, OpenBLAS 0.3.31 with one
thread, numpy 2.4, 2-core x86-64 VM): 2.0 vs 3.7 us at 8^3, 4.6 vs 4.9 us at
16^3, 5.2 vs 5.3 us at 17^3, 5.8 vs 5.6 us at 18^3, 7.0 vs 5.8 us at 20^3,
10.6 vs 7.3 us at 24^3, 246 vs 35 us at 64^3 and 8.2 vs 0.53 ms at 192^3;
hence ``FLOAT_MIN_MACS = 18**3``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

DEFAULT_MODULUS = 65537
_INT64 = np.dtype(np.int64)  # numpy's one native int64 dtype object

# Fewest multiply-adds for which a float64 BLAS product beats numpy's int64
# matmul; the measurement behind it is in the module docstring.
FLOAT_MIN_MACS = 18**3
# float64 represents every integer below 2^53 exactly.
_FLOAT_EXACT = 2**53
_LIMB_BITS = 16
_CHUNK_SUMS = 2**63 // _FLOAT_EXACT - 1  # chunk sums (each < 2^53) an int64 holds with a residue
# Output columns per float64 block, so each block is cast and reduced while
# it is still in cache.  With workspaces, the per-group encode product of
# cdbmm-large, (14x4)@(4x36864) at q = 65537, took 1.86 ms at 4096 columns,
# 1.80 at 8192, 2.17 at 2048 and 2.03 as one whole-width block (medians of
# 11, one BLAS thread, 2-core x86-64 VM); (11x11)@(11x36864), the decode
# product, ran in the same order.
_COLUMN_BLOCK = 4096
# The float path's scratch arrays, one set per thread (see the module
# docstring): x and y (float64 operands, y one column block of b), part
# (one dgemm block), quot (reduction quotients, and a later chunk's int64
# terms before they are added) and shift (the a * 2^16 limb column).  The
# round arena's buffers live here too, under the names the module docstring
# lists.
_WORKSPACES = threading.local()
# Smallest array the round arena holds, and the shares from which a server
# answers alone (module docstring).  Smaller temporaries come from freed heap
# memory without fresh-page faults (small-mixed and secure-byzantine take
# none), and there an arena lookup (about 0.6 us) costs more than it saves.
_ARENA_MIN_BYTES = 1 << 15
# A one-chunk product's small-path bound and _reduce's crossover (docstrings).
_SMALL_TEMPS, _REDUCE_MIN = 2**15, 1024


def _integer(value, what: str) -> int:
    """``value`` as an int, the one integer rule for scalar parameters: a
    float or a bool, which ``int()`` would cut, raises ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, not {value!r}")
    return int(value)


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
        """``x`` as int64 residues, the one cast of a caller's array: integer
        dtypes only (ParameterError), uint64 reduced before the cast, which
        would wrap 2^63 and up, and others only if an entry lies outside
        [0, q), so the result may be ``x`` itself: copy it to work in place."""
        x = np.asarray(x)
        if x.dtype is not _INT64:  # the common case skips these checks
            if x.dtype.kind not in "iu":
                raise ParameterError(f"entries must hold integers, not {x.dtype}")
            x = (x % np.uint64(self.q) if x.dtype == np.uint64 else x).astype(np.int64)
        # as uint64 a negative entry is at least 2^63, so one max finds both
        if x.size and x.view(np.uint64).max() >= self.q:
            x = x % self.q
        return x

    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Exact matrix product mod q of residue arrays.

        ``a`` may carry leading batch axes and ``b`` may be a vector, as with
        numpy's ``@``; the result has shape ``a.shape[:-1] + b.shape[1:]``.
        Or ``a`` (..., m, k) and ``b`` (..., k, p) are stacks of one leading
        shape, multiplied slice by slice.  ``out``, if given, is a
        C-contiguous int64 array of the result's shape which receives it and
        is returned; it must not overlap ``a`` or ``b``.  Products (stacks:
        all slices) below ``FLOAT_MIN_MACS`` multiply-adds that one int64 sum
        holds exactly take the int64 path; the rest the float64 path, split
        into 16-bit limbs where (q-1)^2 alone exceeds what float64 sums
        exactly (module docstring).  Every path returns the same residues
        whatever order BLAS sums in.
        """
        stacked, inner = b.ndim > 2, b.shape[max(b.ndim - 2, 0)]
        if a.ndim < 1 or a.shape[-1] != inner or stacked and a.shape[:-2] != b.shape[:-2]:
            raise ValueError(f"matmul shapes {a.shape} and {b.shape} do not conform")
        shape = a.shape[:-1] + b.shape[max(b.ndim - 1, 1):]
        if out is not None and (out.shape != shape or out.dtype != np.int64
                                or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous int64 array of shape {shape}")
        cols = b.shape[-1] if b.ndim > 1 else 1
        if a.size * cols < FLOAT_MIN_MACS and inner * (self.q - 1) ** 2 < 2**62:
            return self._matmul_int64(a, b, out)
        lead = math.prod(a.shape[:-2] if stacked else a.shape[:-1])  # explicit: a size may be 0
        a = a.reshape((lead, a.shape[-2], inner) if stacked else (lead, inner))
        b = b.reshape((lead, inner, cols) if stacked else (inner, cols))
        flat = None if out is None else out.reshape(a.shape[:-1] + (cols,))
        result = self._matmul_float(a, b, flat)
        return result.reshape(shape) if out is None else out

    def _matmul_int64(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        """numpy's int64 ``@``, exact while ``inner * (q-1)^2 < 2^62``, then
        reduced in place (in ``out`` when given)."""
        prod = np.matmul(a, b, out=out)
        return np.remainder(prod, self.q, out=prod)

    def _matmul_float(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        """float64 BLAS product of 2-D residue arrays (or 3-D stacks), one
        ``dgemm`` per chunk of inner terms, each chunk short enough that its
        float64 sums stay below 2^53 and so are exact integers.  Output
        columns go in blocks of ``_COLUMN_BLOCK``, slice by slice in a stack
        at least one wide (3-D blocks run slower): each block of ``b`` is cast
        into the ``y`` workspace, and each chunk's ``dgemm`` writes into the
        ``part`` workspace, which is added into ``out`` while it is still in
        cache, reduced once a block and after every ``_CHUNK_SUMS`` added
        chunks; a small one-chunk product multiplies fresh float64 copies."""
        q = self.q
        if out is None:
            out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
        if a.shape[-1] * (q - 1) ** 2 < _FLOAT_EXACT and a.size + b.size + out.size < _SMALL_TEMPS:
            out[...] = np.matmul(a.astype(np.float64), b.astype(np.float64))
            return _reduce(out, q)
        x, chunk = self._float_a(a)
        rows = range(len(out)) if out.ndim == 3 and out.shape[-1] >= _COLUMN_BLOCK else [...]
        for row, col in ((r, c) for r in rows for c in range(0, out.shape[-1], _COLUMN_BLOCK)):
            cols = slice(col, col + _COLUMN_BLOCK)
            block, xs = out[row][..., cols], x[row]
            y = self._float_b(b[row][..., cols], x.shape[-1])
            part = _workspace("part", block.shape, np.float64)
            for i, lo in enumerate(range(0, x.shape[-1], chunk)):
                np.matmul(xs[..., lo : lo + chunk], y[..., lo : lo + chunk, :], out=part)
                if i == 0:
                    np.copyto(block, part, casting="unsafe")
                    continue
                terms = _workspace("quot", block.shape, np.int64)
                np.copyto(terms, part, casting="unsafe")
                block += terms
                if i % _CHUNK_SUMS == 0:
                    _reduce(block, q)
            _reduce(block, q)
        return out

    def _float_a(self, a: np.ndarray):
        """The float64 left operand ``x`` (this thread's ``x`` workspace) and
        the most inner terms one exact chunk may hold.

        Plain residues give terms up to (q-1)^2.  With 16-bit limbs ``a``
        becomes ``[a | a * 2^16 mod q]``, twice as wide, to meet ``b`` split as
        ``[b_lo; b_hi]`` by ``_float_b``: twice the terms, but each at most
        (q-1)(2^16-1), so a chunk can be nonempty up to q = 2^31.  The form
        needing fewer chunks wins, the plain one on a tie.
        """
        q, inner = self.q, a.shape[-1]
        plain = (_FLOAT_EXACT - 1) // (q - 1) ** 2
        split = (_FLOAT_EXACT - 1) // ((q - 1) * (2**_LIMB_BITS - 1))
        limbs = not plain or -(-inner // plain) > -(-2 * inner // split)
        x = _workspace("x", a.shape[:-1] + ((1 + limbs) * inner,), np.float64)
        np.copyto(x[..., :inner], a)
        if limbs:
            shifted = np.left_shift(a, _LIMB_BITS, out=_workspace("shift", a.shape, np.int64))
            np.copyto(x[..., inner:], _reduce(shifted, q))
        return x, split if limbs else plain

    def _float_b(self, b: np.ndarray, rows: int) -> np.ndarray:
        """One column block of ``b`` as float64 rows matching the columns of
        ``x`` in this thread's ``y`` workspace: ``[b_lo; b_hi]`` in 16-bit
        limbs when ``rows`` exceeds ``b``'s, else the residues."""
        inner = b.shape[-2]
        y = _workspace("y", b.shape[:-2] + (rows, b.shape[-1]), np.float64)
        if rows > inner:
            np.bitwise_and(b, 2**_LIMB_BITS - 1, out=y[..., :inner, :])
            np.right_shift(b, _LIMB_BITS, out=y[..., inner:, :])
        else:
            np.copyto(y, b)
        return y

    def rand_matrix(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        return rng.integers(0, self.q, size=(rows, cols), dtype=np.int64)


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """``x %= q`` for an int64 array, in place: numpy's remainder below
    ``_REDUCE_MIN`` entries, else the quotient in this thread's ``quot``
    workspace.  numpy vectorises integer floor division by a scalar but not
    the remainder, so the quotient wins on large arrays (8.1 against 16.5 us
    at 4,096 entries), but its lookup costs about 2 us: 3.6 against 2.8 us at
    512 entries, 4.4 against 4.8 at 1,024 (q = 65537, best of 7 timeit
    repeats, net of a copy)."""
    if x.size < _REDUCE_MIN:
        return np.remainder(x, q, out=x)
    quot = np.floor_divide(x, q, out=_workspace("quot", x.shape, np.int64))
    quot *= q
    x -= quot
    return x


def _arena(name: str, shape: tuple) -> np.ndarray | None:
    """This thread's round-arena buffer ``name`` as an int64 array of
    ``shape``, or None (the caller then allocates a fresh array) when that
    is below ``_ARENA_MIN_BYTES``."""
    if 8 * math.prod(shape) < _ARENA_MIN_BYTES:
        return None
    return _workspace(name, shape, np.int64)


class _RoundState(threading.local):
    """This thread's round state (see the module docstring): ``running``,
    whether a round runs, and ``shares``, the index of the next
    ``shares-<i>`` buffer while a top-level round runs its encode step,
    else None."""

    running = False
    shares = None


_ROUND = _RoundState()


def _shares_out(shape: tuple) -> np.ndarray:
    """An int64 array of ``shape`` for one encode's shares: the next
    ``shares-<i>`` round-arena buffer during a top-level round's encode
    step, else (or below ``_ARENA_MIN_BYTES``) a fresh array."""
    i, out = _ROUND.shares, None
    if i is not None:
        _ROUND.shares = i + 1
        out = _arena(f"shares-{i}", shape)
    return np.empty(shape, np.int64) if out is None else out


def _workspace(name: str, shape: tuple, dtype) -> np.ndarray:
    """This thread's scratch array ``name``, viewed as ``shape``.  Its
    contents are left over from earlier products or rounds; it is replaced
    by a larger one when ``shape`` does not fit, and never shrinks."""
    buffers, size = _WORKSPACES.__dict__, math.prod(shape)
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = np.empty(size, dtype=dtype)
    return np.ndarray(shape, dtype, buf)


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
