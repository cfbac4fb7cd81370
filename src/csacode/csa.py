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
from .ffield import PrimeField
# perfbench/tracer.py traces csa.cv_matrix, so the name stays importable here.
from .structmat import (CVSpec, cv_matrix, matrix_rank,  # noqa: F401
                        scaled_cv_matrix, solve_batch)


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
    if systematic and servers < ell * kc:
        raise ParameterError("systematic layout needs S >= L")
    poles, samples = cauchy_points(field, ell * kc, servers, poles, samples, systematic)
    return CSAParams(ell, kc, servers, poles, samples)


def scaling_constants(field: PrimeField, params: CSAParams, power: int = 1) -> list[int]:
    """c_{l,k} = prod_{k' != k} (f_{l,k'} - f_{l,k}) ** power, group-major."""
    out = []
    for l in range(params.ell):
        for k in range(params.kc):
            c = 1
            for k2 in range(params.kc):
                if k2 != k:
                    c = c * field.sub(params.pole(l, k2), params.pole(l, k)) % field.q
            out.append(field.pow(c, power))
    return out


def csa_encode_a(field: PrimeField, batch_a, params: CSAParams, servers) -> list:
    """A-side shares: ell matrices per server, one per group.

    Uses the expanded polynomial form prod_{k' != k}(f_{l,k'} - alpha), so no
    inversions are needed on the A side.  ``servers`` is one server index,
    which returns that server's ell shares, or a sequence of indices, which
    returns one such list per server, all from one generator product.
    """
    _check_batch(batch_a, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "a")
    return _shares(_generator_encode(field, batch_a, weights), servers)


def csa_encode_b(field: PrimeField, batch_b, params: CSAParams, servers) -> list:
    """B-side shares: bare Cauchy combinations with weights 1/(f_{l,k} - alpha),
    the inverses of all listed servers from one batched inversion.
    ``servers`` is one index or a sequence, as for ``csa_encode_a``."""
    _check_batch(batch_b, params)
    weights = _cauchy_weights(field, params, _server_list(servers), "b")
    return _shares(_generator_encode(field, batch_b, weights), servers)


def _server_list(servers) -> list[int]:
    """One server index becomes a one-element list, so both forms share a path."""
    return [servers] if isinstance(servers, numbers.Integral) else list(servers)


def _shares(coded: np.ndarray, servers) -> list:
    """The share lists of ``_generator_encode``'s output, one per listed
    server, or the one list when ``servers`` is a single index."""
    count, ell = coded.shape[:2]
    flat = list(coded.reshape((count * ell,) + coded.shape[2:]))
    shares = [flat[i * ell : (i + 1) * ell] for i in range(count)]
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
    weights = pref[..., None] * np.stack([powers[e] for e in exps], axis=-1) % q
    return weights.reshape(len(alphas), params.ell, params.kc * len(exps))


def _generator_encode(field: PrimeField, batch, weights: np.ndarray,
                      grid=(1, 1)) -> np.ndarray:
    """Shares from one generator product, as a (servers, ell, bh, bw) array.

    Every batch entry is split into a ``grid`` of rows x cols equal blocks
    (bh x bw), and the L entries form ell groups of kc.  ``weights`` has
    shape (servers, ell, kc * blocks): generator row (s, l) carries
    ``weights[s, l]`` on group l's columns (entry, block) and zeros
    elsewhere, so the (servers * ell x L * blocks) generator times the
    blocks stacked as (L * blocks x bh * bw) yields every share at once.
    A 2-D ``weights`` (servers, blocks) is one row used for every entry
    alone (kc = 1, ell = L); the blocks then stack as (blocks x L * bh * bw)
    and the generator needs no zeros.  On the 1 x 1 grid an entry may have
    any shape, which each share keeps.
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
    blocks = field.residues(arr).reshape(ell, kc, rows, bh, cols, bw)
    if weights.ndim == 2:
        stacked = blocks.transpose(1, 2, 4, 0, 3, 5).reshape(width, -1)
        coded = field.matmul(weights, stacked)
    else:
        gen = np.zeros((servers, ell, ell, width), dtype=np.int64)
        gen[:, np.arange(ell), np.arange(ell)] = weights
        stacked = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(entries * rows * cols, -1)
        coded = field.matmul(gen.reshape(servers * ell, ell * width), stacked)
    return coded.reshape((servers, ell) + ((bh, bw) if grid != (1, 1) else entry_shape))


def csa_answer(field: PrimeField, share_a, share_b, counter=None) -> np.ndarray:
    """Server-side work: Y_s = sum_l A~_l B~_l."""
    if len(share_a) != len(share_b):
        raise ParameterError("share group counts differ")
    acc = None
    for a, b in zip(share_a, share_b):
        if a.shape[1] != b.shape[0]:
            raise ParameterError("share shapes are not conformable")
        if counter is not None:
            counter.mults += a.shape[0] * a.shape[1] * b.shape[1]
        prod = field.matmul(a, b)
        acc = prod if acc is None else (acc + prod) % field.q
    return acc


def csa_decode(field: PrimeField, answers, params: CSAParams) -> list[np.ndarray]:
    """Recover the L results from any R answers of a CSA code, or of an
    N-CSA code without Byzantine servers (X-security's noise lies in the
    Vandermonde tail).

    ``answers`` is an iterable of (server_index, Y) pairs, 0-based indices.
    """
    answers = _take_answers(answers, params.threshold, params.servers)
    alphas = tuple(params.samples[s] for s, _ in answers)
    mat = scaled_cv_matrix(field, CVSpec(params.poles, alphas),
                           scaling_constants(field, params, params.arity - 1))
    stacked = np.stack([y.reshape(-1) for _, y in answers])
    sol = solve_batch(field, mat, stacked)
    shape = answers[0][1].shape
    return [sol[j].reshape(shape) for j in range(params.batch_size)]


# ---- systematic layout ----


def systematic_encode(field: PrimeField, batch_a, batch_b, params: CSAParams) -> list:
    """Shares for all S servers: ("raw", (A_s, B_s)) for the first L, then
    ("coded", (A-side shares, B-side shares)), the N-CSA layout with N = 2."""
    return _systematic_shares(field, (batch_a, batch_b), (csa_encode_a, csa_encode_b),
                              params)


def _systematic_shares(field: PrimeField, batches, encoders, params) -> list:
    """The systematic layout of one batch per variable: ("raw", every
    variable's entry s) for servers s < L, then ("coded", every variable's
    shares) from its encoder, each of which checks its batch."""
    if params.servers < params.batch_size:
        raise ParameterError("systematic layout needs S >= L")
    coded = [encode(field, batch, params, range(params.batch_size, params.servers))
             for encode, batch in zip(encoders, batches)]
    return ([("raw", tuple(batch[s] for batch in batches))
             for s in range(params.batch_size)]
            + [("coded", shares) for shares in zip(*coded)])


def systematic_answer(field: PrimeField, share, counter=None) -> np.ndarray:
    kind, (a, b) = share
    if kind == "raw":  # one product: the CSA answer of a single group
        a, b = [a], [b]
    return csa_answer(field, a, b, counter)


def systematic_decode(field: PrimeField, answers, params) -> list[np.ndarray]:
    """Decode mixed raw/coded answers of a CSA or N-CSA systematic layout.

    Raw results are read off and their Cauchy contributions, scaled by
    c_{l,k}^(N-1), eliminated from the coded answers; the reduced system
    keeps the Cauchy columns of the unknown results plus the full
    Vandermonde tail, R - L = (kc-1)(N-1) columns wide.
    """
    batch = params.batch_size
    answers = _take_answers(answers, params.threshold, params.servers)
    known = {s: y for s, y in answers if s < batch}
    coded = [(s, y) for s, y in answers if s >= batch]
    if len(known) == batch:
        return [known[i] for i in range(batch)]
    consts = scaling_constants(field, params, params.arity - 1)
    unknown = [i for i in range(batch) if i not in known]
    alphas = tuple(params.samples[s] for s, _ in coded)
    spec = CVSpec(tuple(params.poles[i] for i in unknown), alphas)
    mat = scaled_cv_matrix(field, spec, [consts[i] for i in unknown])
    rhs = np.stack([y.reshape(-1) for _, y in coded])
    for idx, val in known.items():
        w = [consts[idx] * field.inv(field.sub(params.poles[idx], alpha)) % field.q
             for alpha in alphas]
        rhs = (rhs - np.outer(w, val.reshape(-1))) % field.q
    sol = solve_batch(field, mat, rhs)
    shape = answers[0][1].shape
    return [known[i] if i in known else sol[unknown.index(i)].reshape(shape)
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
