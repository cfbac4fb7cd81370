"""Cross-subspace alignment codes: one code for every matrix product.

A batch of L = ell * kc products is split into ell groups of kc.  Within a
group, A matrices are combined along Cauchy terms 1/(f - alpha) with the
group's pole product as prefactor (which clears every denominator), B
matrices along bare Cauchy terms.  Each server returns the sum of its ell
coded products; desired products stay separable along the Cauchy coordinates
while all cross terms collapse into a kc - 1 dimensional Vandermonde tail,
giving recovery threshold (ell + 1) * kc - 1.

Each entry may also be split by an ``ep`` partition (p, m, n on the
parameters), whose block exponents and order R' = pmn set the weights, the
encode path's block grid and the decode plan: that is GCSA, of which CSA is
the case p = m = n = 1 and EP (``harness.ep_setup``) ell = kc = 1.  A code
of batch size 1 encodes each entry of a longer batch alone.

In the systematic layout (``systematic=True`` on the parameters) servers
0..L-1 hold their own entries uncoded, as one-group shares, so their
answers are desired products: known Cauchy coordinates, which the one
decoder subtracts from the coded answers before solving for the rest.

N-CSA is this code for an N-linear map, unpartitioned: ``CSAParams``
carries its N (``arity``), X and B, and it shares the batch layout, the
weights and the decoder.  CSA is its case N = 2.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .ep import EPParams, _a_exponents, _b_exponents, _desired_indices, _extract_products
from .errors import InsufficientAnswersError, ParameterError
from .ffield import _ARENA_MIN_BYTES, PrimeField, _arena, _integer, _shares_out
# perfbench/tracer.py requires csa.cv_matrix, so it stays importable here.
from .structmat import _powers, cv_matrix, matrix_rank, solve_batch  # noqa: F401

_PLANS: tuple = ()  # every builder of a plan (a read-only table of the code alone), LRU 512


def _plan_cache(builder):
    global _PLANS
    _PLANS += (functools.lru_cache(maxsize=512)(builder),)
    return _PLANS[-1]


@dataclass(frozen=True)
class CSAParams:
    """The parameters of every Cauchy code: L = ell * kc entries in ell
    groups of kc, one pole each, and raw servers only if ``systematic``.
    N-CSA evaluates an N-linear map (``arity``), with X-secure shares and up
    to B Byzantine servers; CSA is its N = 2.  A matrix product (N = 2, no
    X or B) may split each entry by the partition ``ep``: GCSA, whose cases
    are CSA (p = m = n = 1) and EP (ell = kc = 1)."""

    ell: int
    kc: int
    servers: int
    poles: tuple[int, ...] | range    # f values, group-major, length ell * kc
    samples: tuple[int, ...] | range  # alpha values, one per server
    systematic: bool = False  # servers 0..L-1 hold their own entry, uncoded
    p: int = 1  # GCSA's partition (``gcsa.gcsa_params``), EP's with ell = kc = 1
    m: int = 1
    n: int = 1
    arity: int = 2  # N; a matrix product is the bilinear map
    x_secure: int = 0
    byzantine: int = 0
    noise_seed: int = 0

    @property
    def batch_size(self) -> int:
        return self.ell * self.kc

    @property
    def inner_order(self) -> int:
        """R' = pmn, the pole multiplicity of the partition."""
        return self.p * self.m * self.n

    def pole(self, l: int, k: int) -> int:
        """f_{l,k} with 0-based group and slot indices."""
        return self.poles[l * self.kc + k]

    @functools.cached_property
    def ep(self) -> EPParams:  # the partition code; read by every round and plan
        return EPParams(self.p, self.m, self.n)

    @property
    def threshold(self) -> int:
        """pmn(kc(N + ell - 1) + N(X - 1) + 2B + 1) + p - 1: GCSA's at N = 2
        and X = B = 0, N-CSA's at p = m = n = 1."""
        n = self.arity
        return self.inner_order * (self.kc * (n + self.ell - 1) + n * (self.x_secure - 1)
                                   + 2 * self.byzantine + 1) + self.p - 1

    @functools.cached_property
    def code(self) -> CSAParams:
        """The key of every plan: no noise seed, and B = 0 as in the decode."""
        return replace(self, byzantine=0, noise_seed=0)


def csa_threshold(ell: int, kc: int) -> int:
    return (ell + 1) * kc - 1


def gcsa_threshold(ell: int, kc: int, p: int, m: int, n: int) -> int:
    """pmn((ell + 1) kc - 1) + p - 1: CSA's at p = m = n = 1, EP's at ell = kc = 1."""
    return p * m * n * csa_threshold(ell, kc) + p - 1


def cauchy_points(field: PrimeField, batch: int, servers: int, threshold: int, poles,
                  samples, systematic: bool) -> tuple[tuple, tuple]:
    """Poles and samples of a Cauchy code, reduced mod q and validated (R <= S first).

    A missing side takes the canonical layout: poles 1..L, samples
    L+1..L+S (mod q), as unbuilt ranges when both are missing and L + S < q.
    More points than GF(q) holds are refused unbuilt.
    """
    if threshold > servers:
        raise ParameterError(f"R <= S violated: threshold {threshold} exceeds {servers} servers")
    if (servers if systematic else batch + servers) > field.q:
        raise ParameterError("evaluation points must be pairwise distinct")
    if poles is None and samples is None and batch + servers < field.q:  # distinct residues
        return range(1, batch + 1), range(batch + 1, batch + servers + 1)
    if poles is None:
        poles = range(1, batch + 1)
    if samples is None:
        samples = range(batch + 1, batch + servers + 1)
    poles = tuple(_integer(x, "a pole") % field.q for x in poles)
    samples = tuple(_integer(x, "a sample") % field.q for x in samples)
    if len(poles) != batch or len(samples) != servers:
        raise ParameterError("need one pole per batch entry and one sample per server")
    # Systematic servers 1..L never evaluate at their alpha, so those slots
    # are exempt from the distinctness requirement (smaller fields suffice).
    used = poles + (samples[batch:] if systematic else samples)
    if len(set(used)) != len(used):
        raise ParameterError("evaluation points must be pairwise distinct")
    return poles, samples


def csa_params(field: PrimeField, ell: int, kc: int, servers: int, poles=None, samples=None,
               systematic: bool = False, *, p: int = 1, m: int = 1, n: int = 1,
               arity: int = 2, x_secure: int = 0, byzantine: int = 0,
               noise_seed: int = 0) -> CSAParams:
    """The validated parameters of any Cauchy code, every count an integer;
    default points follow the canonical layout.  A partition (GCSA's p, m,
    n) takes a coded matrix product (N = 2, no X or B, no systematic
    layout), and the systematic layout no X or B."""
    ell, kc, servers, p, m, n, arity, x_secure, byzantine, noise_seed = (
        _integer(value, what) for value, what in zip(
            (ell, kc, servers, p, m, n, arity, x_secure, byzantine, noise_seed),
            ("ell", "kc", "servers", "p", "m", "n", "N", "X", "B", "noise_seed")))
    if min(ell, kc, servers, p, m, n, arity) < 1 or min(x_secure, byzantine) < 0:
        raise ParameterError("ell, kc, p, m, n, N and the server count must be positive, "
                             "X and B non-negative")
    if (p, m, n) != (1, 1, 1) and (arity, x_secure, byzantine, systematic) != (2, 0, 0, False):
        raise ParameterError("a partition takes a coded matrix product: N = 2, X = B = 0 and "
                             "no systematic layout")
    if systematic and x_secure + byzantine:
        raise ParameterError("the systematic layout takes no X-security and no Byzantine budget")
    if not -2**63 <= noise_seed < 2**63:  # noise_block packs an int64
        raise ParameterError(f"noise_seed {noise_seed} lies outside the signed 64-bit range")
    params = CSAParams(ell, kc, servers, (), (), systematic, p, m, n, arity, x_secure,
                       byzantine, noise_seed)
    # R - L = (kc - 1)(N - 1) >= 0, so the systematic layout's S >= L follows from R <= S
    poles, samples = cauchy_points(field, ell * kc, servers, params.threshold, poles, samples,
                                   systematic)
    return replace(params, poles=poles, samples=samples)


def csa_encode_a(field: PrimeField, batch_a, params: CSAParams, servers) -> np.ndarray | list:
    """A-side shares: ell matrices per server, one per group.

    Uses the expanded polynomial form prod_{k' != k}(f_{l,k'} - alpha), so no
    inversions are needed on the A side (GCSA: the inner polynomial at
    f_{l,k} - alpha, the prefactor to the power R').  ``servers`` is one
    server index, which returns that server's shares, or a sequence of
    indices, which returns them row by row, all from one generator product
    (see ``_generator_encode`` for their layout).  In a systematic layout a
    server s < L holds its own entry s as a one-group share [X_s].  At L = 1
    a share holds every entry of a longer batch, as (entries, 1, ...).
    """
    return _cauchy_encode(field, batch_a, params, servers, "a")


def csa_encode_b(field: PrimeField, batch_b, params: CSAParams, servers) -> np.ndarray | list:
    """B-side shares: bare Cauchy combinations with weights 1/(f_{l,k} - alpha),
    the inverses of all listed servers from one batched inversion.
    ``servers`` and the systematic layout as for ``csa_encode_a``."""
    return _cauchy_encode(field, batch_b, params, servers, "b")


def _cauchy_encode(field: PrimeField, batch, params, servers, side: str) -> np.ndarray | list:
    """Every matrix product's encoders: ``side`` "a" or "b" picks the weights
    and the partition's block grid (m x p, or p x n).  A code of batch size 1
    takes a batch of any length, each entry encoded alone with the one row."""
    inner = params.ep
    grid = (inner.m, inner.p) if side == "a" else (inner.p, inner.n)
    one = params.batch_size == 1
    arr = _batch_entries(field, batch, None if one else params.batch_size, grid != (1, 1))
    weights = _weights(field, params, tuple(_server_list(servers)), side)
    return _generator_encode(field, arr, weights[:, 0] if one and len(arr) > 1 else weights,
                             servers, grid, _raw(params))


@_plan_cache
def _weights(field: PrimeField, params, listed: tuple, side: str) -> np.ndarray:
    """The encoders' plan: ``_cauchy_weights`` of the coded ``listed`` servers,
    at the partition's order R' and block exponents."""
    coded = [s for s in listed if s >= _raw(params)]
    exps = (_a_exponents if side == "a" else _b_exponents)(params.ep)
    return _read_only(_cauchy_weights(field, params, coded, side, params.inner_order, exps))


def _raw(params) -> int:
    """Servers below this index hold their own batch entry: L in a
    systematic layout, none otherwise."""
    return params.batch_size if params.systematic else 0


def _server_list(servers) -> list[int]:
    """One server index becomes a one-element list, so both forms share a path."""
    return [servers] if isinstance(servers, numbers.Integral) else list(servers)


def _cauchy_weights(field: PrimeField, params, listed, side: str, order: int = 1,
                    exps=(0,)) -> np.ndarray:
    """Generator weights of the listed servers, shape (servers, ell, kc * len(exps)).

    With d = f_{l,k} - alpha_s, entry (s, l, k * len(exps) + j) is
    d^exps[j] times prod_{k' != k} d_{k'}^order on the A side (the cleared
    denominators, all ones when kc = 1), or times 1/d^order on the B side,
    every inverse from one ``batch_inv``.  CSA uses order 1 and the single
    exponent 0; GCSA puts its inner partition code's exponents on every slot.
    """
    q = field.q
    alphas = np.array([params.samples[s] for s in listed], dtype=np.int64)
    if side == "a" and params.kc == 1 and tuple(exps) == (0,):  # no other slot
        return np.ones((len(alphas), params.ell, 1), dtype=np.int64)
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


def _generator_encode(field: PrimeField, arr: np.ndarray, weights: np.ndarray, servers,
                      grid=(1, 1), raw: int = 0) -> np.ndarray | list:
    """The shares of ``servers`` (one index, or a sequence as for
    ``csa_encode_a``) from generator products of ``arr``, the checked batch
    (``_batch_entries``) stacked as residues: a listed server s < ``raw``
    holds entry s alone (every entry, with a 2-D ``weights``), a view of
    ``arr``, every other its share of each group,
    from its row of ``weights`` (one row per such server, in listed order).
    Without raw servers a sequence gets one (servers, groups, ...) view of
    the products, else a list of rows.

    Every batch entry is split into a ``grid`` of rows x cols equal blocks
    (bh x bw), and the L entries form ell groups of kc.  ``weights`` has
    shape (coded servers, ell, kc * blocks): group l's shares are
    ``weights[:, l]`` times the group's blocks stacked as
    (kc * blocks x bh * bw), all ell groups in one stacked product.  A 2-D
    ``weights`` (coded servers, blocks) is the one row of a code of one group
    of one entry, used for every entry of a longer batch alone (EP); the
    blocks of all entries then stack as (blocks x entries * bh * bw), one product
    yields every share, and a server's share is (entries, 1, bh, bw), one
    group per entry.  On the 1 x 1 grid an entry may have any shape, which
    each share keeps.

    The products write into one int64 array from ``ffield._shares_out``:
    during a top-level round's encode step, the round-arena buffer
    ``shares-<i>`` of the i-th encode, which every round reuses instead of
    faulting in the shares' pages afresh, and valid only until the next
    round in this thread; else a fresh array.
    """
    rows, cols = grid
    coded, width = weights.shape[0], weights.shape[-1]
    kc = width // (rows * cols)
    h, w = arr.shape[1:] if arr.ndim == 3 else (1, arr[0].size)
    if h % rows or w % cols:
        raise ParameterError(
            f"matrices of shape {(h, w)} are not divisible into {rows}x{cols} blocks")
    bh, bw = h // rows, w // cols
    ell = len(arr) // kc
    group_shape = (coded,) + ((bh, bw) if grid != (1, 1) else arr.shape[1:])
    blocks = arr.reshape(ell, kc, rows, bh, cols, bw)
    if weights.ndim == 2:
        stacked = blocks.transpose(1, 2, 4, 0, 3, 5).reshape(width, -1)
        shares = field.matmul(weights, stacked, out=_shares_out((coded, stacked.shape[1])))
        shares = shares.reshape((coded, ell, 1) + group_shape[1:])
    else:
        stacked = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(ell, width, -1)
        out = field.matmul(np.swapaxes(weights, 0, 1), stacked,
                           out=_shares_out((ell, coded, stacked.shape[-1])))
        shares = out.reshape((ell,) + group_shape).swapaxes(0, 1)
    if raw:  # the coded servers' rows, in listed order, among the raw ones
        coded_rows, own = iter(shares), arr[:, None]  # own[s]: entry s as one group
        shares = [(own if weights.ndim == 2 else own[s]) if s < raw else next(coded_rows)
                  for s in _server_list(servers)]
    return shares[0] if isinstance(servers, numbers.Integral) else shares


def csa_answer(field: PrimeField, share_a, share_b, counter=None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Server-side work: Y_s = sum_l A~_l B~_l, as the one product
    [A~_1 | ... | A~_ell] [B~_1; ...; B~_ell], written into ``out`` (a
    C-contiguous int64 array of the answer's shape) when given, else into a
    fresh array.  The shares are one server's ell groups, with leading axes
    for a stack: n servers' (n, ell, ...) rows of an encode, the entries of
    an EP share (entries, 1, ...), or both, answered as one stacked product;
    ``counter`` counts every product of the call.  More than one A group is
    copied side by side into the round-arena buffer ``concat-a``; B's
    groups in a contiguous row are already stacked, else they are copied
    into ``concat-b``."""
    share_a, share_b = np.asarray(share_a), np.asarray(share_b)  # a list of groups stacks
    lead, (ell, rows, inner), cols = share_a.shape[:-3], share_a.shape[-3:], share_b.shape[-1]
    if share_b.shape[:-1] != lead + (ell, inner):
        raise ParameterError("share groups are not conformable")
    if counter is not None:
        counter.mults += share_a.size * cols
    left = share_a if ell == 1 else _arena_copy("concat-a", np.swapaxes(share_a, -3, -2))
    right = share_b if share_b.flags.c_contiguous else _arena_copy("concat-b", share_b)
    return field.matmul(left.reshape(lead + (rows, ell * inner)),
                        right.reshape(lead + (ell * inner, cols)), out=out)


def _arena_copy(name: str, x: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``x``, in this thread's round-arena buffer ``name``."""
    out = _arena(name, x.shape)
    if out is None:  # below _ARENA_MIN_BYTES
        return x.copy()
    np.copyto(out, x)
    return out


def csa_decode(field: PrimeField, answers, params: CSAParams) -> list[np.ndarray]:
    """Recover the L results from any R answers of a matrix product's code,
    or of an N-CSA code without Byzantine servers (X-security's noise lies
    in the Vandermonde tail).

    ``answers``: (0-based int index, integer array) pairs, whose first R of
    distinct servers are stacked once, or a round's ``_Answers``, whose
    first R rows are read in place.  In a systematic layout a raw server's
    answer is its own result, which ``_plan`` removes from the coded answers
    through its own Cauchy column of ``_decode_matrix``.  The reduced system
    keeps the unknown results' Cauchy columns plus the (kc-1)(N-1) tail
    columns.  At L = 1 an answer and the one result may hold every entry,
    (entries, ...).  Returned raw results are copies, never the answers.
    """
    return _results(field, params, *_take_answers(field, answers, params.threshold,
                                                  params.servers))


def _results(field: PrimeField, params, listed: tuple, rows: np.ndarray,
             shape) -> list[np.ndarray]:
    """The L results from the taken answers of the ``listed`` servers, in
    answer order: ``rows`` holds them as residues, one row each of
    ``shape``.  A raw server's row is its own result, copied; one product of
    ``_plan`` and every row gives each unknown entry's desired blocks,
    entry-major (GCSA's blocks ``ep._extract_products`` reassembles)."""
    known = {s: i for i, s in enumerate(listed) if s < _raw(params)}
    solved, inner = (), params.ep
    if len(known) < params.batch_size:
        solved = field.matmul(_plan(field, params, listed), rows)
        if (inner.m, inner.n) == (1, 1):
            solved = solved.reshape((-1,) + shape)
        else:  # rows entry-major, mn desired blocks each, beside the block axes
            solved = _extract_products(inner, solved.reshape(
                (-1, inner.m * inner.n) + shape).swapaxes(1, -3))
    solved = iter(solved)
    return [rows[known[i]].reshape(shape).copy() if i in known else next(solved)
            for i in range(params.batch_size)]


@_plan_cache
def _plan(field: PrimeField, params, listed: tuple) -> np.ndarray:
    """Every Cauchy decoder's plan for the ``listed`` servers in answer order:
    the reduced inverse's rows of each unknown entry's desired blocks (power
    (N - 1) R', order R'), and in a raw server's column minus those rows
    times its known result's Cauchy column, which removes that result."""
    raw, rp = _raw(params), params.inner_order
    coded = [i for i, s in enumerate(listed) if s >= raw]
    known = [s for s in listed if s < raw]  # entry s's Cauchy column (R' = 1)
    mat = _decode_matrix(field, params, [listed[i] for i in coded],
                         (params.arity - 1) * rp, params.threshold, rp)
    desired = [j * rp + i for j in range(params.batch_size - len(known))
               for i in _desired_indices(params.ep)]
    plan = np.empty((len(desired), len(listed)), dtype=np.int64)
    plan[:, coded] = solve_batch(field, np.delete(mat, known, axis=1),
                                 np.eye(len(mat), dtype=np.int64), rows=desired)
    if known:
        plan[:, [i for i, s in enumerate(listed) if s < raw]] = (
            -field.matmul(plan[:, coded], mat[:, known]) % field.q)
    return _read_only(plan)


def _read_only(plan: np.ndarray) -> np.ndarray:
    plan.setflags(write=False)  # every later decode of its key shares it
    return plan


def _decode_matrix(field: PrimeField, params, listed, power: int, width: int,
                   order: int = 1) -> np.ndarray:
    """Decode matrix of a Cauchy code at the ``listed`` servers, (listed x
    width): ``order`` Cauchy columns per batch entry, then the Vandermonde
    tail alpha^0, ..., alpha^(width - order * L - 1).

    A Cauchy column holds the coefficient its unknown carries in the
    answers, the encoders' own weights: the A-side w(alpha) =
    prod_{k' != k}(f_{l,k'} - alpha)^power ((N - 1) R': N - 1 for CSA and
    N-CSA, R' for GCSA) times the B-side 1/(f_{l,k} - alpha)^j, j = order, ..., 1.  The
    paper's column is its pole part (c_{l,k} / (f_{l,k} - alpha), or GCSA's
    Toeplitz-mixed pole powers); the rest is a polynomial in alpha of degree
    below power * (kc - 1), within the tail.  So this is the paper's matrix
    times [[I, 0], [P, I]], with the same solution for the Cauchy unknowns.
    """
    rows, cols = len(listed), order * params.batch_size
    a = _cauchy_weights(field, params, listed, "a", power).reshape(rows, params.batch_size)
    b = _cauchy_weights(field, params, listed, "b", order, range(order)).reshape(rows, cols)
    tail = _powers(field, [params.samples[s] for s in listed], width - cols)
    return np.concatenate([np.repeat(a, order, axis=1) * b % field.q, tail], axis=1)


# ---- interference structure ----


def cross_term_matrix(field: PrimeField, params: CSAParams) -> np.ndarray:
    """Map from cross products A_{l,k} B_{l,k'} (k != k') to server answers.

    Row s, column (l, k, k') holds the A-side weight of slot k times the
    B-side weight of slot k' at alpha_s, which is
    prod_{k'' not in {k, k'}}(f_{l,k''} - alpha_s), the exact coefficient
    those interference terms carry in Y_s; raw servers hold none, no row.
    """
    servers = range(_raw(params), params.servers)
    a = _cauchy_weights(field, params, servers, "a")
    b = _cauchy_weights(field, params, servers, "b")
    cross = a[..., :, None] * b[..., None, :] % field.q
    return cross[..., ~np.eye(params.kc, dtype=bool)].reshape(len(servers), -1)


def interference_rank(field: PrimeField, params: CSAParams) -> int:
    """Dimension spanned by all cross-term coefficient vectors."""
    return matrix_rank(field, cross_term_matrix(field, params))


# ---- shared helpers ----


def _batch_entries(field: PrimeField, batch, size=None, matrices=False, stack_large=True):
    """One input batch, checked for every encoder and the harness
    (rectangular, ``size`` entries if given (L), integer, one shape), as one
    int64 residue stack, which passes again without a copy.  Without
    ``stack_large`` (a round), a list of ``_ARENA_MIN_BYTES`` or more stays
    a list of residues, for its encoder to stack: one such stack at a time."""
    if isinstance(batch, np.ndarray) and batch.ndim:  # one shape and one dtype already
        arrays, dtypes, shapes = batch, {batch.dtype}, {batch.shape[1:]}
    else:
        try:
            arrays = [np.asarray(x) for x in batch]
        except ValueError as exc:  # a ragged nested list
            raise ParameterError(f"batch entries must be rectangular arrays: {exc}") from None
        dtypes, shapes = {x.dtype for x in arrays}, {x.shape for x in arrays}
    if not len(arrays):
        raise ParameterError("batch is empty")
    if size is not None and len(arrays) != size:
        raise ParameterError(f"batch of {len(arrays)} entries does not match L = {size}")
    if any(d.kind not in "iu" for d in dtypes):
        raise ParameterError("batch entries must hold integers")
    if len(shapes) != 1:
        raise ParameterError("batch entries must share one shape")
    if matrices and arrays[0].ndim != 2:
        raise ParameterError("batch entries must be matrices")
    if not arrays[0].size:  # no cost of a round could be normalized
        raise ParameterError(f"batch entries of shape {arrays[0].shape} have no elements")
    if not (stack_large or isinstance(arrays, np.ndarray)
            or 8 * len(arrays) * arrays[0].size < _ARENA_MIN_BYTES):
        return [field.residues(x) for x in arrays]
    # entries of mixed dtypes come as residues, so that they stack as int64
    return field.residues(arrays if len(dtypes) == 1 else [field.residues(x) for x in arrays])


@dataclass(frozen=True, eq=False)
class _Answers:
    """A round's answers (``harness._round``): ``rows[i]``, int64 residues,
    answers ``servers[i]``, R or more distinct servers; iterates as pairs."""

    servers: list
    rows: np.ndarray

    def __iter__(self):
        return zip(self.servers, self.rows)


def _take_answers(field: PrimeField, answers, r: int, servers: int) -> tuple:
    """The first ``r`` answers of distinct servers as (their servers, an
    (r, entries) residue array of their rows, an answer's shape): an
    ``_Answers``' first r rows in place, else the first r (server, answer)
    pairs of distinct servers (an index by ``ffield._integer``'s rule, an
    answer an integer numpy array) stacked into a fresh array."""
    if isinstance(answers, _Answers):
        rows = answers.rows
        return tuple(answers.servers[:r]), rows.reshape(len(rows), -1)[:r], rows.shape[1:]
    taken = {}  # server -> answer, in answer order
    for s, y in answers:
        if type(s) is not int:  # the common case skips the full rule
            s = _integer(s, "a server index")
        if not isinstance(y, np.ndarray) or y.dtype.kind not in "iu":
            raise ParameterError(f"the answer of server {s} must be an integer array")
        if not 0 <= s < servers:
            raise ParameterError(f"server index {s} out of range")
        if s in taken:
            raise ParameterError(f"duplicate answer from server {s}")
        taken[s] = y
        if len(taken) == r:
            rows = [y.reshape(-1) for y in taken.values()]
            return tuple(taken), field.residues(np.stack(rows)), next(iter(taken.values())).shape
    raise InsufficientAnswersError(f"need {r} answers, got {len(taken)}")
