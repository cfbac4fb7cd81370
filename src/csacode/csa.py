"""Cross-subspace alignment codes for batch matrix multiplication.

A batch of L = ell * kc products is split into ell groups of kc.  Within a
group, A matrices are combined along Cauchy terms 1/(f - alpha) with the
group's pole product as prefactor (which clears every denominator), B
matrices along bare Cauchy terms.  Each server returns the sum of its ell
coded products; desired products stay separable along the Cauchy coordinates
while all cross terms collapse into a kc - 1 dimensional Vandermonde tail,
giving recovery threshold (ell + 1) * kc - 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientAnswersError, ParameterError
from .ffield import _ARENA_MIN_BYTES, PrimeField, _arena
# perfbench/tracer.py requires csa.cv_matrix, so it stays importable here.
from .structmat import (CVSpec, confluent_cv_matrix, cv_matrix,  # noqa: F401
                        matrix_rank, solve_batch)


class _Groups:
    """The batch layout of every Cauchy code's parameters (CSA, GCSA, N-CSA):
    L = ell * kc entries in ell groups of kc, with one pole each."""

    @property
    def batch_size(self) -> int:
        return self.ell * self.kc

    def pole(self, l: int, k: int) -> int:
        """f_{l,k} with 0-based group and slot indices."""
        return self.poles[l * self.kc + k]


@dataclass(frozen=True)
class CSAParams(_Groups):
    ell: int
    kc: int
    servers: int
    poles: tuple[int, ...]    # f values, group-major, length ell * kc
    samples: tuple[int, ...]  # alpha values, one per server

    @property
    def arity(self) -> int:
        """CSA is N-CSA with N = 2: the matrix product is a bilinear map."""
        return 2

    @property
    def threshold(self) -> int:
        return csa_threshold(self.ell, self.kc)


def csa_threshold(ell: int, kc: int) -> int:
    return (ell + 1) * kc - 1


def cauchy_points(field: PrimeField, batch: int, servers: int, poles, samples,
                  systematic: bool) -> tuple[tuple, tuple]:
    """Poles and samples of a Cauchy code, reduced mod q and validated.

    A missing side takes the canonical layout: poles 1..L, samples
    L+1..L+S (mod q).
    """
    if poles is None:
        poles = range(1, batch + 1)
    if samples is None:
        samples = range(batch + 1, batch + servers + 1)
    poles = tuple(x % field.q for x in poles)
    samples = tuple(x % field.q for x in samples)
    if len(poles) != batch or len(samples) != servers:
        raise ParameterError("need one pole per batch entry and one sample per server")
    # Systematic servers 1..L never evaluate at their alpha, so those slots
    # are exempt from the distinctness requirement (smaller fields suffice).
    used = poles + (samples[batch:] if systematic else samples)
    if len(set(used)) != len(used):
        raise ParameterError("evaluation points must be pairwise distinct")
    return poles, samples


def csa_params(field: PrimeField, ell: int, kc: int, servers: int,
               poles=None, samples=None, systematic: bool = False) -> CSAParams:
    """Validated parameter bundle; default points follow the canonical layout."""
    if min(ell, kc, servers) < 1:
        raise ParameterError("ell, kc and server count must be positive")
    r = csa_threshold(ell, kc)
    if r > servers:
        raise ParameterError(f"R <= S violated: threshold {r} exceeds {servers} servers")
    # R = L + kc - 1 >= L, so the systematic layout's S >= L holds here too
    poles, samples = cauchy_points(field, ell * kc, servers, poles, samples, systematic)
    return CSAParams(ell, kc, servers, poles, samples)


def csa_encode_a(field: PrimeField, batch_a, params: CSAParams, servers,
                 arena: str | None = None) -> list:
    """A-side shares: ell matrices per server, one per group.

    Uses the expanded polynomial form prod_{k' != k}(f_{l,k'} - alpha), so no
    inversions are needed on the A side.  ``servers`` is one server index,
    which returns that server's ell shares, or a sequence of indices, which
    returns one such list per server, all from one generator product.  The
    shares are fresh arrays, or views of the round-arena buffer named
    ``arena`` (see ``_generator_encode``).
    """
    _check_batch(batch_a, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "a")
    return _shares(_generator_encode(field, batch_a, weights, arena=arena), servers)


def csa_encode_b(field: PrimeField, batch_b, params: CSAParams, servers,
                 arena: str | None = None) -> list:
    """B-side shares: bare Cauchy combinations with weights 1/(f_{l,k} - alpha),
    the inverses of all listed servers from one batched inversion.
    ``servers`` and ``arena`` as for ``csa_encode_a``."""
    _check_batch(batch_b, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "b")
    return _shares(_generator_encode(field, batch_b, weights, arena=arena), servers)


def _server_list(servers) -> list[int]:
    """One server index becomes a one-element list, so both forms share a path."""
    return [servers] if isinstance(servers, numbers.Integral) else list(servers)


def _shares(groups, servers) -> list:
    """The share lists of ``_generator_encode``'s group outputs, one per
    listed server, or the one list when ``servers`` is a single index."""
    shares = [[group[i] for group in groups] for i in range(len(groups[0]))]
    return shares[0] if isinstance(servers, numbers.Integral) else shares


def _cauchy_weights(field: PrimeField, params, listed, side: str, order: int = 1,
                    exps=(0,)) -> np.ndarray:
    """Generator weights of the listed servers, shape (servers, ell, kc * len(exps)).

    With d = f_{l,k} - alpha_s, entry (s, l, k * len(exps) + j) is
    d^exps[j] times prod_{k' != k} d_{k'}^order on the A side (the cleared
    denominators), or times 1/d^order on the B side, every inverse from one
    ``batch_inv``.  CSA uses order 1 and the single exponent 0; GCSA puts its
    inner partition code's exponents on every slot.
    """
    q = field.q
    alphas = np.array([params.samples[s] for s in listed], dtype=np.int64)
    poles = np.array(params.poles, dtype=np.int64).reshape(params.ell, params.kc)
    d = (poles - alphas[:, None, None]) % q
    powers = [np.ones_like(d), d]
    while len(powers) <= max(order, *exps):
        powers.append(powers[-1] * d % q)
    if side == "a":  # row k of the last two axes holds every slot but k
        others = np.where(np.eye(params.kc, dtype=bool), 1, powers[order][..., None, :])
        pref = others[..., 0]
        for k in range(1, params.kc):
            pref = pref * others[..., k] % q
    else:
        pref = np.array(field.batch_inv(powers[order].ravel().tolist()),
                        dtype=np.int64).reshape(d.shape)
    if tuple(exps) == (0,):  # every block carries d^0
        return pref
    weights = pref[..., None] * np.stack([powers[e] for e in exps], axis=-1) % q
    return weights.reshape(len(alphas), params.ell, params.kc * len(exps))


def _generator_encode(field: PrimeField, batch, weights: np.ndarray,
                      grid=(1, 1), arena: str | None = None) -> list:
    """Shares from generator products, as ell arrays of shape (servers, bh, bw),
    one per group.

    Every batch entry is split into a ``grid`` of rows x cols equal blocks
    (bh x bw), and the L entries form ell groups of kc.  ``weights`` has
    shape (servers, ell, kc * blocks): group l's shares are ``weights[:, l]``
    times the group's blocks stacked as (kc * blocks x bh * bw), one product
    per group.  A 2-D ``weights`` (servers, blocks) is one row used for every
    entry alone (kc = 1, ell = L); the blocks of all entries then stack as
    (blocks x L * bh * bw) and one product yields every share.  On the 1 x 1
    grid an entry may have any shape, which each share keeps.

    The products write into one int64 array: a fresh one, or, when
    ``arena`` names a buffer, this thread's round-arena buffer of that name
    (``ffield._arena``), which a round reuses instead of faulting in the
    shares' pages afresh.  Those shares stay valid only until the next
    encode into the same buffer in this thread.
    """
    try:
        arr = np.asarray(batch)
    except ValueError:  # entries of different shapes
        raise ParameterError("batch entries must share one shape") from None
    rows, cols = grid
    if arr.dtype.kind not in "iu" or (arr.ndim != 3 and grid != (1, 1)):
        raise ParameterError("batch entries must be integer matrices of one shape")
    entries, entry_shape = arr.shape[0], arr.shape[1:]
    h, w = entry_shape if arr.ndim == 3 else (1, int(np.prod(entry_shape)))
    if h % rows or w % cols:
        raise ParameterError(
            f"matrices of shape {(h, w)} are not divisible into {rows}x{cols} blocks")
    bh, bw = h // rows, w // cols
    servers, width = weights.shape[0], weights.shape[-1]
    kc = width // (rows * cols)
    ell = entries // kc
    group_shape = (servers,) + ((bh, bw) if grid != (1, 1) else entry_shape)
    blocks = field.residues(arr).reshape(ell, kc, rows, bh, cols, bw)
    if weights.ndim == 2:
        stacked = blocks.transpose(1, 2, 4, 0, 3, 5).reshape(width, -1)
        coded = field.matmul(weights, stacked, out=_coded(
            arena, (servers, stacked.shape[1]))).reshape((servers, ell, -1))
        return [coded[:, l].reshape(group_shape) for l in range(ell)]
    stacked = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(ell, width, -1)
    coded = _coded(arena, (ell, servers, stacked.shape[-1]))
    for l in range(ell):
        field.matmul(weights[:, l], stacked[l], out=coded[l])
    return list(coded.reshape((ell,) + group_shape))


def _coded(arena: str | None, shape: tuple) -> np.ndarray:
    """The round-arena buffer ``arena`` as an int64 array of ``shape``, or a
    fresh one without an arena name or below the arena's smallest size."""
    out = None if arena is None else _arena(arena, shape)
    return np.empty(shape, np.int64) if out is None else out


def csa_answer(field: PrimeField, share_a, share_b, counter=None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Server-side work: Y_s = sum_l A~_l B~_l, as the one product
    [A~_1 | ... | A~_ell] [B~_1; ...; B~_ell], written into ``out`` (a
    C-contiguous int64 array of the answer's shape) when given, else into a
    fresh array.  The concatenations go to this thread's round-arena
    buffers ``concat-a`` and ``concat-b`` where large enough."""
    if len(share_a) != len(share_b):
        raise ParameterError("share group counts differ")
    inner = 0
    for a, b in zip(share_a, share_b):
        if a.shape[1] != b.shape[0]:
            raise ParameterError("share shapes are not conformable")
        if counter is not None:
            counter.mults += a.shape[0] * a.shape[1] * b.shape[1]
        inner += a.shape[1]
    left = np.concatenate(share_a, axis=1,
                          out=_arena("concat-a", (share_a[0].shape[0], inner)))
    right = np.concatenate(share_b, axis=0,
                           out=_arena("concat-b", (inner, share_b[0].shape[1])))
    return field.matmul(left, right, out=out)


def csa_decode(field: PrimeField, answers, params: CSAParams) -> list[np.ndarray]:
    """Recover the L results from any R answers of a CSA code, or of an
    N-CSA code without Byzantine servers (X-security's noise lies in the
    Vandermonde tail).

    ``answers`` is an iterable of (server_index, Y) pairs, 0-based indices.
    """
    answers = _take_answers(answers, params.threshold, params.servers)
    mat = _decode_matrix(field, params, [s for s, _ in answers], params.arity - 1)
    sol = solve_batch(field, mat, _answer_rows([y for _, y in answers]),
                      rows=slice(params.batch_size))
    shape = answers[0][1].shape
    return [sol[j].reshape(shape) for j in range(params.batch_size)]


def _answer_rows(ys) -> np.ndarray:
    """The answers ``ys`` as the rows of one (R, entries) array.  Where they
    are consecutive rows of one int64 buffer, as a harness round writes
    them, that memory is read in place (each answer covers its own bytes, so
    the view covers exactly the answers); else they are stacked into a fresh
    array.  Answers below ``ffield._ARENA_MIN_BYTES`` are always stacked:
    checking an address costs about 3 us an answer, more than copying a
    small one (11 answers of 32 KiB: 29.7 us to check, 22.8 to stack; of
    64 KiB: 30.8 and 41.8; best of 7, 2-core x86-64 VM)."""
    first = ys[0]
    if (isinstance(first, np.ndarray) and first.dtype == np.int64
            and first.nbytes >= _ARENA_MIN_BYTES):
        start = first.__array_interface__["data"][0]
        if all(isinstance(y, np.ndarray) and y.dtype == np.int64
               and y.shape == first.shape and y.flags.c_contiguous
               and y.__array_interface__["data"][0] == start + i * first.nbytes
               for i, y in enumerate(ys)):
            return np.lib.stride_tricks.as_strided(
                first, (len(ys), first.size), (first.nbytes, first.itemsize),
                writeable=False)
    return np.stack([np.asarray(y).reshape(-1) for y in ys])


def _decode_matrix(field: PrimeField, params, listed, power: int, order: int = 1,
                   slots=None, weights=None) -> np.ndarray:
    """Decode matrix of a Cauchy code at the ``listed`` servers, whose
    unknowns are ``order`` Cauchy coordinates per batch entry in ``slots``
    (all by default), then the Vandermonde tail.

    It is ``confluent_cv_matrix`` with every Cauchy column of slot (l, k)
    multiplied, row by row, by the encoder's A-side weight
    w(alpha) = prod_{k' != k}(f_{l,k'} - alpha)^power (power N - 1 for CSA
    and N-CSA, R' for GCSA), so each column holds the exact coefficient
    w(alpha) / (f_{l,k} - alpha)^j its unknown carries in the answers.  The
    paper's column is the pole part of that (c_{l,k} / (f_{l,k} - alpha),
    or GCSA's Toeplitz-mixed pole powers); the rest is a polynomial in
    alpha of degree below deg w = power * (kc - 1), which never exceeds the
    tail width R - order * L.  So this matrix is the paper's times
    [[I, 0], [P, I]]: the same determinant, and the same rows of the
    inverse, hence the same solution, for the Cauchy unknowns.  A caller
    that already holds those weights, (listed x L), passes them as
    ``weights``.
    """
    slots = range(params.batch_size) if slots is None else slots
    alphas = tuple(params.samples[s] for s in listed)
    mat = confluent_cv_matrix(field, CVSpec(tuple(params.poles[i] for i in slots),
                                            alphas, order))
    if weights is None:
        weights = _cauchy_weights(field, params, listed, "a", power).reshape(len(alphas), -1)
    width = order * len(slots)
    mat[:, :width] = mat[:, :width] * np.repeat(weights[:, slots], order, axis=1) % field.q
    return mat


# ---- systematic layout ----


def systematic_encode(field: PrimeField, batch_a, batch_b, params: CSAParams,
                      arenas=None) -> list:
    """Shares for all S servers: ("raw", (A_s, B_s)) for the first L, then
    ("coded", (A-side shares, B-side shares)), the N-CSA layout with N = 2.
    ``arenas`` optionally names one round-arena buffer per side for the
    coded shares (see ``_generator_encode``)."""
    return _systematic_shares(field, (batch_a, batch_b), (csa_encode_a, csa_encode_b),
                              params, arenas)


def _systematic_shares(field: PrimeField, batches, encoders, params,
                       arenas=None) -> list:
    """The systematic layout of one batch per variable: ("raw", every
    variable's entry s) for servers s < L, then ("coded", every variable's
    shares) from its encoder, each of which checks its batch, into the
    variable's round-arena buffer in ``arenas`` if given."""
    if params.servers < params.batch_size:
        raise ParameterError("systematic layout needs S >= L")
    arenas = [None] * len(batches) if arenas is None else arenas
    coded = [encode(field, batch, params, range(params.batch_size, params.servers),
                    arena=arena)
             for encode, batch, arena in zip(encoders, batches, arenas)]
    return ([("raw", tuple(batch[s] for batch in batches))
             for s in range(params.batch_size)]
            + [("coded", shares) for shares in zip(*coded)])


def systematic_answer(field: PrimeField, share, counter=None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """A raw or coded server's answer, into ``out`` as for ``csa_answer``."""
    kind, (a, b) = share
    if kind == "raw":  # one product: the CSA answer of a single group
        a, b = [a], [b]
    return csa_answer(field, a, b, counter, out)


def systematic_decode(field: PrimeField, answers, params) -> list[np.ndarray]:
    """Decode mixed raw/coded answers of a CSA or N-CSA systematic layout.

    Raw results are read off and removed from the coded answers with the
    exact coefficient each carries there, its A-side weight to the power
    N - 1 times its B-side weight 1/(f_{l,k} - alpha); the reduced system
    keeps the Cauchy columns of the unknown results plus the full
    Vandermonde tail, R - L = (kc-1)(N-1) columns wide.  Returned raw
    results are copies, never the answers themselves.
    """
    batch = params.batch_size
    answers = _take_answers(answers, params.threshold, params.servers)
    known = {s: y for s, y in answers if s < batch}
    coded = [(s, y) for s, y in answers if s >= batch]
    if len(known) == batch:
        return [np.array(known[i]) for i in range(batch)]
    listed = [s for s, _ in coded]
    unknown = [i for i in range(batch) if i not in known]
    weights = _cauchy_weights(field, params, listed, "a",
                              params.arity - 1).reshape(len(listed), -1)
    mat = _decode_matrix(field, params, listed, params.arity - 1, slots=unknown,
                         weights=weights)
    rhs = _answer_rows([y for _, y in coded])
    if known:  # the A-side weight times the B-side 1/(f - alpha)
        inverses = field.batch_inv([params.poles[k] - params.samples[s]
                                    for s in listed for k in known])
        weights = weights[:, list(known)] * np.array(
            inverses, dtype=np.int64).reshape(len(listed), len(known)) % field.q
        known_rows = _answer_rows(list(known.values()))
        rhs = (rhs - field.matmul(weights, known_rows)) % field.q
    sol = solve_batch(field, mat, rhs, rows=slice(len(unknown)))
    shape = answers[0][1].shape
    return [np.array(known[i]) if i in known else sol[unknown.index(i)].reshape(shape)
            for i in range(batch)]


# ---- interference structure ----


def cross_term_matrix(field: PrimeField, params: CSAParams) -> np.ndarray:
    """Map from cross products A_{l,k} B_{l,k'} (k != k') to server answers.

    Row s, column (l, k, k') holds the A-side weight of slot k times the
    B-side weight of slot k' at alpha_s, which is
    prod_{k'' not in {k, k'}}(f_{l,k''} - alpha_s), the exact coefficient
    those interference terms carry in Y_s.
    """
    servers = range(params.servers)
    a = _cauchy_weights(field, params, servers, "a")
    b = _cauchy_weights(field, params, servers, "b")
    cross = a[..., :, None] * b[..., None, :] % field.q
    return cross[..., ~np.eye(params.kc, dtype=bool)].reshape(params.servers, -1)


def interference_rank(field: PrimeField, params: CSAParams) -> int:
    """Dimension spanned by all cross-term coefficient vectors."""
    return matrix_rank(field, cross_term_matrix(field, params))


# ---- shared helpers ----


def _check_batch(batch, params):
    if len(batch) != params.batch_size:
        raise ParameterError(
            f"batch of {len(batch)} entries does not match L = {params.batch_size}"
        )
    arrays = [np.asarray(x) for x in batch]
    if len({x.shape for x in arrays}) != 1:
        raise ParameterError("batch entries must share one shape")
    if any(x.dtype.kind not in "iu" for x in arrays):
        raise ParameterError("batch entries must hold integer residues")


def _take_answers(answers, r: int, servers: int):
    answers = list(answers)
    seen = set()
    taken = []
    for s, y in answers:
        if not 0 <= s < servers:
            raise ParameterError(f"server index {s} out of range")
        if s in seen:
            raise ParameterError(f"duplicate answer from server {s}")
        seen.add(s)
        taken.append((s, y))
        if len(taken) == r:
            return taken
    raise InsufficientAnswersError(f"need {r} answers, got {len(taken)}")
