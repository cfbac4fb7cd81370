"""Batch computation of N-linear maps and degree-N polynomial evaluations.

Generalizes the bilinear batch scheme (CSA is the case N = 2): every variable
batch is Cauchy-coded per group with the CSA A-side weights, servers evaluate
the map on coded variables and return the prefactor-normalized group sum, and
the decoder solves the CSA decode matrix with the A-side weights to the power
N - 1, whose Vandermonde tail absorbs the (kc-1)(N-1) interference dimensions.
The parameters are ``csa.CSAParams`` with N = ``arity``, X and B
(``ncsa_params``), so an N = 2 setup without X or B is the CSA setup.
Points, batch checks, the generator product and the decoder (also on
``xsb_decode``'s clean rows) are the CSA ones, and so is the systematic
layout.  Lagrange coded computing (LCC) is ell = 1, kc = L, threshold
N(L - 1) + 1.  X-secure shares add X uniform noise blocks a group, one
draw a variable, on the generator's Vandermonde terms, so any X servers
learn nothing; all of a round's variables and groups are one product.
Up to B forged answers are located from the answers' syndromes at once.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .csa import (CSAParams, _batch_entries, _cauchy_weights, _generator_encode, _plan_cache,
                  _raw, _read_only, _results, _server_list, _take_answers, csa_decode,
                  csa_params)
from .errors import DecodingFailureError, ParameterError
from .ffield import PrimeField, _reduce, poly_eval
# perfbench/tracer.py requires ncsa.solve_batch and ncsa.rs_error_correct, so
# they stay importable here; no ncsa code calls either.
from .structmat import _determinants, _powers, rs_error_correct, solve_batch  # noqa: F401

# ---- N-linear maps ----


@dataclass(frozen=True)
class NLinearMap:
    """A function of ``arity`` vector variables, linear in each separately.

    ``fn`` takes the field followed by one numpy array per variable and
    returns the output array; in a round's stacked answers the arrays carry
    a leading server axis, which the output must keep (the built-in maps
    do; a call refuses an output without it).  ``mults`` is the
    field-multiplication count of one evaluation, for the cost accounting.
    """

    arity: int
    var_shapes: tuple[tuple[int, ...], ...]
    out_shape: tuple[int, ...]
    fn: Callable
    name: str = "custom"
    mults: Optional[int] = None

    def __call__(self, field: PrimeField, *args) -> np.ndarray:
        if len(args) != self.arity:
            raise ParameterError(f"map {self.name} expects {self.arity} variables")
        y, lead = self.fn(field, *args), np.shape(args[0])[:-len(self.var_shapes[0]) or None]
        if lead and np.shape(y) != lead + tuple(self.out_shape):
            raise ParameterError(f"map {self.name} returned {np.shape(y)}: keep the leading axes")
        return y


def matmul_map(rows: int, inner: int, cols: int) -> NLinearMap:
    """Bilinear matrix product: the CDBMM kernel as a 2-linear map."""
    return replace(matrix_chain_map((rows, inner, cols)), name="matmul")


def matrix_chain_map(dims: tuple[int, ...]) -> NLinearMap:
    """Product of N matrices with the given boundary dimensions."""
    n = len(dims) - 1
    if n < 1:
        raise ParameterError("need at least one factor")

    def chain(field, *mats):
        acc = mats[0]
        for m in mats[1:]:
            acc = field.matmul(acc, m)
        return acc

    mults = sum(dims[0] * dims[i] * dims[i + 1] for i in range(1, n))
    return NLinearMap(
        arity=n,
        var_shapes=tuple((dims[i], dims[i + 1]) for i in range(n)),
        out_shape=(dims[0], dims[n]),
        fn=chain,
        name="matrix-chain",
        mults=mults,
    )


def elementwise_product_map(arity: int, dim: int) -> NLinearMap:
    def prod(field, *vecs):
        acc = vecs[0].copy()
        for v in vecs[1:]:
            acc = acc * v % field.q
        return acc

    return NLinearMap(
        arity=arity,
        var_shapes=tuple((dim,) for _ in range(arity)),
        out_shape=(dim,),
        fn=prod,
        name="elementwise-product",
        mults=(arity - 1) * dim,
    )


def determinant_map(size: int) -> NLinearMap:
    """Determinant of a size x size matrix, multilinear in its columns."""

    def det(field, *cols):  # the whole stack in one elimination
        m = field.residues(np.stack(cols, axis=-1))  # a fresh stack, reduced in place
        return _determinants(field, m)[..., None]

    return NLinearMap(
        arity=size,
        var_shapes=tuple((size,) for _ in range(size)),
        out_shape=(1,),
        fn=det,
        name="determinant",
    )


# ---- N-CSA parameters ----


def ncsa_params(field: PrimeField, arity: int, ell: int, kc: int, servers: int,
                x_secure: int = 0, byzantine: int = 0, poles=None, samples=None,
                noise_seed: int = 0, systematic: bool = False) -> CSAParams:
    """N-CSA's validated parameters: ``csa.csa_params`` with N = ``arity``."""
    return csa_params(field, ell, kc, servers, poles, samples, systematic, arity=arity,
                      x_secure=x_secure, byzantine=byzantine, noise_seed=noise_seed)


# ---- encoding ----


def noise_block(field: PrimeField, seed: int, var: int, l: int, k: int, x: int,
                shape) -> np.ndarray:
    """Uniform noise block keyed by (seed, var, l, k, x): one SHAKE-256 stream.

    Counter-based (Salmon et al., SC 2011): the packed key seeds a SHAKE-256
    stream (FIPS 202) read as little-endian words, 32-bit up to q = 2^32
    (every ``PrimeField``) and 64-bit above.  Words at or above the largest
    multiple of q below 2^32 (2^64) are rejected, so there is no modulo
    bias; the first n survivors mod q fill the block in row-major order, and
    a short read continues the stream.  ``xs_encode`` draws a variable's ell
    * X blocks as one, keyed (seed, var, 0, 0, 0): the seven arguments
    perfbench's tracer unpacks stay."""
    q, n = field.q, math.prod(shape)
    bits = 32 if q <= 2**32 else 64
    limit = (2**bits // q) * q
    xof = hashlib.shake_256(struct.pack("<5q", seed, var, l, k, x))
    words = n * 2**bits // limit + 4  # the expected read, and a little more
    while True:
        stream = np.frombuffer(xof.digest(bits // 8 * words), dtype=f"<u{bits // 8}")
        kept = stream[stream < limit]
        if kept.size >= n:
            return (kept[:n] % q).astype(np.int64).reshape(shape)
        words += 2 * (n - kept.size) + 4


def xs_encode(field: PrimeField, batches, params: CSAParams, servers,
              noise=None) -> list:
    """Secure shares of every variable (``batches``, one batch each): data
    Cauchy terms plus uniform noise along powers of alpha.

    Variable v draws X noise blocks a group, as in the paper: every server
    adds Delta_s(l) * alpha_s^(x-1) * Z_{l,x} to its group-l share, where
    Delta_s(l) = prod_k (f_{l,k} - alpha_s), and Z_{l,x} is row (l, x - 1)
    of one ``noise_block`` (ell, X, entry size) keyed (v, 0, 0, 0).  Group
    l's kc entries and X noise blocks of every variable, side by side (a
    large batch's entries copied in one by one, never stacked), times the
    plan ``_weights`` of ``params.code`` and the listed servers, are one
    generator product for all groups (``csa._generator_encode``).  Returns
    per variable views of it in that variable's entry shape: for one server
    index its ell shares, for a sequence their shares row by row (a list of
    rows in a systematic layout).  The noise depends on ``params.noise_seed``
    and v alone: every round of one ``CSAParams`` adds the same masks, so
    X-security across rounds needs a fresh ``noise_seed`` per round (plans
    are keyed on ``params.code``, so no new plan).  ``noise`` may override
    the seeded blocks: a mapping (v, l, x) -> array (1-based x).
    """
    kc, ell, x_secure = params.kc, params.ell, params.x_secure
    arrays = [_batch_entries(field, b, params.batch_size) for b in batches]  # before any noise
    sizes = [a[0].size for a in arrays]
    spans = [slice(end - n, end) for n, end in zip(sizes, itertools.accumulate(sizes))]
    groups = np.empty((ell, kc + x_secure, sum(sizes)), dtype=np.int64)
    for v, (a, n, span) in enumerate(zip(arrays, sizes, spans)):
        if isinstance(a, np.ndarray):
            groups[:, :kc, span] = a.reshape(ell, kc, n)
        else:  # a large batch's entries, each copied once, unstacked
            for i, x in enumerate(a):
                groups[i // kc, i % kc, span] = x.reshape(-1)
        if x_secure:
            groups[:, kc:, span] = (noise_block(
                field, params.noise_seed, v, 0, 0, 0, (ell, x_secure, n)) if noise is None
                else [[np.ravel(field.residues(noise[(v, l, x)]))
                       for x in range(1, x_secure + 1)] for l in range(ell)])
    weights = _weights(field, params.code, tuple(_server_list(servers)))
    shares = _generator_encode(field, groups.reshape(ell * (kc + x_secure), -1), weights,
                               servers, raw=_raw(params))

    def split(rows):  # (..., every variable's entries) -> a view per variable
        return [rows[..., span].reshape(rows.shape[:-1] + a[0].shape)
                for a, span in zip(arrays, spans)]

    if isinstance(shares, list):  # a systematic layout's rows, raw or coded
        return [list(rows) for rows in zip(*map(split, shares))]
    return split(shares)


@_plan_cache
def _weights(field: PrimeField, params: CSAParams, listed: tuple) -> np.ndarray:
    """``xs_encode``'s plan, (coded servers, ell, kc + X): the A-side Cauchy
    weights of the listed servers from ``_raw`` on, then
    Delta_s(l) * alpha_s^(x-1) for the noise blocks."""
    coded = [s for s in listed if s >= _raw(params)]
    alphas = [params.samples[s] for s in coded]
    powers = _powers(field, alphas, params.x_secure)
    masks = _group_deltas(field, params, alphas)[..., None] * powers[:, None] % field.q
    return _read_only(np.concatenate([_cauchy_weights(field, params, coded, "a"), masks],
                                     axis=2))


def _group_deltas(field: PrimeField, params: CSAParams, alphas) -> np.ndarray:
    """(alphas x ell) Delta(l) = prod_k (f_{l,k} - alpha), group l's pole product."""
    return np.array([[math.prod(params.pole(l, k) - a for k in range(params.kc)) % field.q
                      for l in range(params.ell)] for a in alphas],
                    dtype=np.int64).reshape(len(alphas), params.ell)


# ---- answering ----


def ncsa_answer(field: PrimeField, shares, omega: NLinearMap, params: CSAParams,
                s, counter=None) -> np.ndarray:
    """Y_s = sum_l Delta_s^{-1} Omega(coded variables of group l).

    ``shares`` holds one share list (length ell) per variable slot, with one
    map call per group, or for a sequence ``s`` of n servers their (n, ell,
    ...) rows, with one map call on their (n * ell)-long stack, the map's
    one leading axis; ``counter`` counts the call's.  A raw server of a
    systematic layout (s < L) holds one-group shares, its own entries, and
    returns Omega of them unnormalized (in a call of raw servers only).
    """
    if len(shares) != omega.arity or omega.arity != params.arity:
        raise ParameterError("share count does not match the map arity")
    listed, raw = _server_list(s), _raw(params)
    if min(listed) < raw <= max(listed):
        raise ParameterError("raw and coded servers answer in separate calls")
    if listed[0] < raw:  # one-group shares
        if counter is not None and omega.mults is not None:
            counter.mults += len(listed) * omega.mults
        return omega(field, *[np.asarray(sh)[:, 0] if np.ndim(s) else sh[0] for sh in shares])
    if np.ndim(s):  # (n, ell, ...) rows: one map call on their (n * ell, ...) stack
        ys = omega(field, *[np.reshape(sh, (len(listed) * params.ell,) + np.shape(sh)[2:])
                            for sh in shares])
        ys = np.reshape(ys, (len(listed), params.ell) + np.shape(ys)[1:])
    else:  # one server's ell groups, as the map takes no leading axis
        ys = np.stack([omega(field, *[sh[l] for sh in shares]) for l in range(params.ell)])
    if counter is not None and omega.mults is not None:
        counter.mults += len(listed) * params.ell * (omega.mults + math.prod(omega.out_shape))
    w = _inverse_deltas(field, params.code)[np.subtract(s, raw)]  # (n, ell) or (ell,)
    ys = w.reshape(w.shape + (1,) * (ys.ndim - w.ndim)) * ys  # Delta^-1 each group
    ys = ys if params.ell * (field.q - 1) ** 2 < 2**63 else _reduce(ys, field.q)  # int64 sum
    return _reduce(ys.sum(axis=w.ndim - 1), field.q)


@_plan_cache
def _inverse_deltas(field: PrimeField, params: CSAParams) -> np.ndarray:
    """``ncsa_answer``'s plan: Delta_s(l)^-1, one row per coded server s >= ``_raw``."""
    deltas = _group_deltas(field, params, params.samples[_raw(params):])
    return _read_only(np.reshape(field.batch_inv(deltas.ravel().tolist()), deltas.shape))


@dataclass(frozen=True)
class PolyTerm:
    """One weighted N-linear term of a degree-N polynomial.

    ``slots`` names the source variable per map slot; None plugs in the
    constant-one batch, which is how lower-degree terms are padded to full
    arity."""

    weight: int
    omega: NLinearMap
    slots: tuple

    def __post_init__(self):
        if len(self.slots) != self.omega.arity:
            raise ParameterError("slot list must match the map arity")


@dataclass(frozen=True)
class PolynomialSpec:
    num_vars: int
    terms: tuple

    def __post_init__(self):
        arities = {t.omega.arity for t in self.terms}
        if len(arities) > 1:
            raise ParameterError("all terms must share one arity (pad with "
                                 "constant slots)")
        for t in self.terms:
            for slot in t.slots:
                if slot is not None and not 0 <= slot < self.num_vars:
                    raise ParameterError(f"slot {slot} out of range")

    @property
    def arity(self) -> int:
        return self.terms[0].omega.arity


def poly_batch_eval_answer(field: PrimeField, shares_by_var, spec: PolynomialSpec,
                           params: CSAParams, s, counter=None) -> np.ndarray:
    """Weighted sum of per-term answers; ``shares_by_var`` maps a variable
    index (or None for the constant batch) to its share list for server s
    (or servers, as ``ncsa_answer``), and ``counter`` counts every term's
    answer and its weighting, one multiplication an output element."""
    acc = None
    for term in spec.terms:
        shares = [shares_by_var[slot] for slot in term.slots]
        y = ncsa_answer(field, shares, term.omega, params, s, counter)
        y = term.weight % field.q * y % field.q
        if counter is not None and term.omega.mults is not None:
            counter.mults += y.size
        acc = y if acc is None else (acc + y) % field.q
    return acc


# ---- decoding ----


def ncsa_decode(field: PrimeField, answers, params: CSAParams) -> list[np.ndarray]:
    """Recover the L evaluations from R = kc(N + ell - 1) - N + 1 answers
    (straggler-only setting): the CSA decoder, A-side weights to the power N - 1."""
    if params.x_secure or params.byzantine:
        raise ParameterError("use xsb_decode when X or B is nonzero")
    return csa_decode(field, answers, params.code)


def xsb_decode(field: PrimeField, answers, params: CSAParams):
    """Decode under X-security and up to B forged answers.

    Returns (evaluations, flagged server indices).  ``answers`` are taken as
    by ``csa_decode``: the first R pairs of distinct servers, stacked once,
    or a round's ``csa._Answers``, whose first R rows are read in place.
    Scaled by the full pole product P(alpha) = prod_f (f - alpha), the R
    taken answers are one interleaved Reed-Solomon codeword of dimension
    width = R - 2B, whose entries share their error positions
    (Bleichenbacher, Kiayias and Yung, ICALP 2003): the forgers are located
    once, then the CSA decoder's solve runs on the first width clean rows of
    those taken rows.  At B = 0 there is nothing to locate: it is
    ``csa_decode``.

    Syndromes: as sum_i v_i g(alpha_i) = 0 for every g of degree <= R - 2,
    with the dual multipliers v_i = 1/prod_{k != i}(alpha_i - alpha_k), one
    product with the plan ``_parity_checks``, (j, i) = v_i P(alpha_i)
    alpha_i^j for j < 2B, gives each entry's syndromes S_j = sum_i v_i e_i
    alpha_i^j, those of its error e alone.  One locator, ``_error_locator``
    (Berlekamp-Massey), finds from 2B syndromes the rows of the one error of
    weight <= B that has them, or fails.  It runs first on a fixed seeded
    projection of every entry's syndromes, and its rows E stand if every
    entry's syndromes obey its recurrence (one banded product).  Else it
    runs on each entry's own syndromes, and E is the union of their rows;
    an entry it fails on, or more than B rows, raise.  Both paths flag the
    same E: past the check each entry's error lies on E, and each row of E
    carries some entry's error, as the projection's does.

    Up to B forgers among the first R answers are corrected and flagged, at
    every q.  Past B nothing is promised: a forgery that adds a codeword
    decodes to wrong values and flags honest servers.  Random offsets, such
    as ``harness.ByzantineModel.seeded`` adds, are usually refused.
    """
    r, b, code = params.threshold, params.byzantine, params.code
    if not b:  # nothing to locate: the CSA decode
        return csa_decode(field, answers, code), []
    listed, rows, shape = _take_answers(field, answers, r, params.servers)
    alphas = [params.samples[s] for s in listed]
    syndromes = field.matmul(_parity_checks(field, code, listed), rows)
    located = _error_locator(field, alphas, field.matmul(
        syndromes, _projection_weights(field, rows.shape[1])).tolist())
    if located is not None and not field.matmul(located[1], syndromes).any():
        flagged = set(located[0])
    else:  # each entry's own syndromes decide, result or exception
        flagged = set()
        for column in syndromes.T.tolist():
            located = _error_locator(field, alphas, column)
            if located is None:
                raise DecodingFailureError("more errors than the correction budget")
            flagged.update(located[0])
        if len(flagged) > b:
            raise DecodingFailureError("corruptions exceed the Byzantine budget")
    # without the B budget the threshold is width: the CSA decode of the
    # first width clean rows, already stacked
    clean = [i for i in range(r) if i not in flagged][:code.threshold]
    evals = _results(field, code, tuple(listed[i] for i in clean), rows[clean], shape)
    return evals, sorted(listed[i] for i in flagged)


@_plan_cache
def _parity_checks(field: PrimeField, params: CSAParams, listed: tuple) -> np.ndarray:
    """``xsb_decode``'s plan, (2B x listed) for the ``listed`` servers in answer
    order, 2B their count past the B = 0 threshold: entry (j, i) is the dual
    multiplier v_i times the full pole product P(alpha_i) = prod_f (f - alpha_i)
    times alpha_i^j."""
    alphas = [params.samples[s] for s in listed]
    duals = field.batch_inv([math.prod(a - x for x in alphas if x != a) for a in alphas])
    scale = [v * math.prod(f - a for f in params.poles) % field.q for v, a in zip(duals, alphas)]
    powers = _powers(field, alphas, len(listed) - params.threshold)
    return _read_only(np.ascontiguousarray(powers.T * np.array(scale, dtype=np.int64) % field.q))


@_plan_cache
def _projection_weights(field: PrimeField, cols: int) -> np.ndarray:
    """The fixed seeded weights in [1, q) that project ``cols`` answer
    entries onto the one column ``xsb_decode`` locates forgers in."""
    return _read_only(np.random.default_rng(20031).integers(1, field.q, size=cols, dtype=np.int64))


def _error_locator(field: PrimeField, alphas, syndromes: list) -> Optional[tuple]:
    """Berlekamp-Massey on the 2B ``syndromes`` (Python ints) gives the
    shortest recurrence s_n = -sum_k c_k s_(n-k), c = [1, c_1, ..., c_L]:
    the rows whose alphas are roots of sum_k c_k x^(L-k), and the (2B - L)
    x 2B band whose row j holds c_L, ..., c_0 from column j (times the
    syndromes, their residuals); None when L > B or fewer than L roots."""
    q = field.q
    c, prev, length, shift, last = [1], [1], 0, 1, 1
    for n in range(len(syndromes)):
        d = sum(ci * syndromes[n - i] for i, ci in enumerate(c)) % q
        if not d:
            shift += 1
            continue
        coef, new = d * field.inv(last) % q, c + [0] * (len(prev) + shift - len(c))
        for i, p in enumerate(prev):
            new[i + shift] = (new[i + shift] - coef * p) % q
        if 2 * length <= n:
            prev, last, length, shift = c, d, n + 1 - length, 1
        else:
            shift += 1
        c = (new + [0] * length)[:length + 1]  # no term past x^L is nonzero
    rows = [i for i, a in enumerate(alphas) if not poly_eval(field, c[::-1], a)]
    if 2 * length > len(syndromes) or len(rows) != length:
        return None
    checks = len(syndromes) - length
    return rows, np.array([[0] * j + c[::-1] + [0] * (checks - 1 - j) for j in range(checks)],
                          dtype=np.int64)
