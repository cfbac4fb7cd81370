"""Batch computation of N-linear maps and degree-N polynomial evaluations.

Generalizes the bilinear batch scheme (CSA is the case N = 2): every variable
batch is Cauchy-coded per group with the CSA A-side weights, servers evaluate
the map on coded variables and return the prefactor-normalized group sum, and
the decoder solves the CSA decode matrix with the A-side weights to the power
N - 1, whose Vandermonde tail absorbs the (kc-1)(N-1) interference dimensions.
Points, batch checks, the generator product and the decoder (also on
``xsb_decode``'s clean rows) are the CSA ones, and so is the systematic
layout.  Lagrange coded computing (LCC) is ell = 1, kc = L, threshold
N(L - 1) + 1.  X-secure shares add X uniform noise blocks a group, keyed
(var, l, x), on the generator's Vandermonde terms (one product per group), so
any X servers learn nothing; error correction locates B forged answers.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .csa import (_answer_rows, _batch_entries, _cauchy_weights, _generator_encode, _Groups,
                  _plan_cache, _raw, _read_only, _server_list, _take_answers, cauchy_points,
                  csa_decode, csa_encode_a)
from .errors import DecodingFailureError, ParameterError
from .ffield import PrimeField, _integer
# perfbench/tracer.py requires ncsa.solve_batch, so it stays importable here.
from .structmat import _powers, _row_reduce, rs_error_correct, solve_batch  # noqa: F401

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

    def det(field, *cols):  # each matrix of a stack in turn
        m = field.residues(np.stack(cols, axis=-1))  # a fresh stack, reduced in place
        dets = [out if len(pivots) == size else 0 for pivots, out in
                (_row_reduce(field, x, size) for x in m.reshape(-1, size, size))]
        return np.array(dets, dtype=np.int64).reshape(m.shape[:-2] + (1,))

    return NLinearMap(
        arity=size,
        var_shapes=tuple((size,) for _ in range(size)),
        out_shape=(1,),
        fn=det,
        name="determinant",
    )


# ---- N-CSA parameters ----


@dataclass(frozen=True)
class NCSAParams(_Groups):
    arity: int  # N
    ell: int
    kc: int
    servers: int
    x_secure: int = 0
    byzantine: int = 0
    poles: tuple[int, ...] = ()
    samples: tuple[int, ...] = ()
    noise_seed: int = 0
    systematic: bool = False  # servers 0..L-1 hold their own entries, uncoded

    @property
    def threshold(self) -> int:
        return xsb_threshold(self.arity, self.ell, self.kc, self.x_secure,
                             self.byzantine)

    @functools.cached_property
    def code(self) -> NCSAParams:
        """The key of every plan: no noise seed, and B = 0 as in the decode."""
        return replace(self, byzantine=0, noise_seed=0)


def ncsa_threshold(arity: int, ell: int, kc: int) -> int:
    return kc * (arity + ell - 1) - arity + 1


def lcc_threshold(arity: int, batch: int) -> int:
    """N(L - 1) + 1: Lagrange coded computing is N-CSA with ell = 1, kc = L."""
    return ncsa_threshold(arity, 1, batch)


def xsb_threshold(arity: int, ell: int, kc: int, x_secure: int, byzantine: int) -> int:
    return kc * (arity + ell - 1) + arity * (x_secure - 1) + 2 * byzantine + 1


def ncsa_params(field: PrimeField, arity: int, ell: int, kc: int, servers: int,
                x_secure: int = 0, byzantine: int = 0, poles=None, samples=None,
                noise_seed: int = 0, systematic: bool = False) -> NCSAParams:
    if min(arity, ell, kc, servers) < 1 or min(x_secure, byzantine) < 0:
        raise ParameterError("invalid scheme parameters")
    if systematic and x_secure >= 1:
        raise ParameterError("systematic layout cannot be combined with X-security")
    if systematic and byzantine >= 1:
        raise ParameterError("systematic layout cannot be combined with a Byzantine budget B >= 1")
    if not -2**63 <= _integer(noise_seed, "noise_seed") < 2**63:  # noise_block packs an int64
        raise ParameterError(f"noise_seed {noise_seed} lies outside the signed 64-bit range")
    # R - L = (kc - 1)(N - 1) >= 0, so the systematic layout's S >= L follows from R <= S
    r = xsb_threshold(arity, ell, kc, x_secure, byzantine)
    poles, samples = cauchy_points(field, ell * kc, servers, r, poles, samples, systematic)
    return NCSAParams(arity, ell, kc, servers, x_secure, byzantine,
                      poles, samples, noise_seed, systematic)


# ---- encoding ----


def noise_block(field: PrimeField, seed: int, var: int, l: int, k: int, x: int,
                shape) -> np.ndarray:
    """Uniform noise block keyed by (seed, var, l, k, x): one SHAKE-256 stream.

    Counter-based (Salmon et al., SC 2011): the packed key seeds a SHAKE-256
    stream (FIPS 202) read as little-endian 64-bit words.  Words at or above
    the largest multiple of q below 2^64 are rejected, so there is no modulo
    bias; the first n survivors mod q fill the block in row-major order, and
    a short read continues the stream.  ``xs_encode`` passes k = 0, which
    keeps each block's stream and the seven arguments perfbench's tracer unpacks.
    """
    q = field.q
    n = math.prod(shape)
    limit = np.uint64((2**64 // q) * q)
    xof = hashlib.shake_256(struct.pack("<5q", seed, var, l, k, x))
    words = n + 4  # below 2^31 a word is rejected with probability under 2^-33
    while True:
        stream = np.frombuffer(xof.digest(8 * words), dtype="<u8")
        kept = stream[stream < limit]
        if kept.size >= n:
            return (kept[:n] % np.uint64(q)).astype(np.int64).reshape(shape)
        words += 2 * (n - kept.size) + 4


def xs_encode(field: PrimeField, batch, params: NCSAParams, var: int, servers,
              noise=None) -> np.ndarray | list:
    """Secure shares: data Cauchy terms plus uniform noise along powers of alpha.

    X noise blocks a group, keyed (var, l, x), as in the paper: every server
    adds Delta_s(l) * alpha_s^(x-1) * Z_{l,x} to its group-l share, where
    Delta_s(l) = prod_k (f_{l,k} - alpha_s).  So group l's kc entries and its
    X noise blocks, times the plan ``_weights`` of ``params.code`` and the
    listed servers, are one generator product (``csa._generator_encode``);
    X = 0 is ``csa_encode_a``.  ``servers`` is one server index (its ell
    shares) or a sequence of indices (their shares row by row).  The noise
    depends on ``params.noise_seed``, ``var`` and (l, x) alone: every round
    of one ``NCSAParams`` adds the same masks, so X-security across rounds
    needs a fresh ``noise_seed`` per round (plans are keyed on
    ``params.code``, so no new plan).  ``noise`` may override the seeded
    blocks: a mapping (l, x) -> array (1-based x).
    """
    if params.x_secure < 1:
        return csa_encode_a(field, batch, params.code, servers)
    entries = _batch_entries(field, batch, params.batch_size)  # before any noise
    kc, augmented = params.kc, []
    for l in range(params.ell):
        augmented += entries[l * kc:(l + 1) * kc] + [
            noise[(l, x)] if noise is not None else
            noise_block(field, params.noise_seed, var, l, 0, x, entries[0].shape)
            for x in range(1, params.x_secure + 1)]
    weights = _weights(field, params.code, tuple(_server_list(servers)))
    return _generator_encode(field, augmented, weights, servers)


@_plan_cache
def _weights(field: PrimeField, params: NCSAParams, listed: tuple) -> np.ndarray:
    """``xs_encode``'s plan, (servers, ell, kc + X): the A-side Cauchy
    weights, then Delta_s(l) * alpha_s^(x-1) for the noise blocks."""
    alphas = [params.samples[s] for s in listed]
    powers = _powers(field, alphas, params.x_secure)
    masks = _group_deltas(field, params, alphas)[..., None] * powers[:, None] % field.q
    return _read_only(np.concatenate([_cauchy_weights(field, params, listed, "a"), masks],
                                     axis=2))


def _group_deltas(field: PrimeField, params: NCSAParams, alphas) -> np.ndarray:
    """(alphas x ell) Delta(l) = prod_k (f_{l,k} - alpha), group l's pole product."""
    return np.array([[math.prod(params.pole(l, k) - a for k in range(params.kc)) % field.q
                      for l in range(params.ell)] for a in alphas], dtype=np.int64)


# ---- answering ----


def ncsa_answer(field: PrimeField, shares, omega: NLinearMap, params: NCSAParams,
                s, counter=None) -> np.ndarray:
    """Y_s = sum_l Delta_s^{-1} Omega(coded variables of group l).

    ``shares`` holds one share list (length ell) per variable slot, or for
    a sequence ``s`` of n servers their (n, ell, ...) rows, with one map
    call per group; ``counter`` counts the call's.  A raw server of a
    systematic layout (s < L) holds one-group shares, its own entries, and
    returns Omega of them unnormalized (in a call of raw servers only).
    """
    if len(shares) != omega.arity or omega.arity != params.arity:
        raise ParameterError("share count does not match the map arity")
    listed, raw = _server_list(s), _raw(params)
    if min(listed) < raw <= max(listed):
        raise ParameterError("raw and coded servers answer in separate calls")
    if np.ndim(s):  # servers x groups: iterate the groups
        shares = [np.swapaxes(sh, 0, 1) for sh in shares]
    if listed[0] < raw:
        if counter is not None and omega.mults is not None:
            counter.mults += len(listed) * omega.mults
        return omega(field, *[sh[0] for sh in shares])
    inverses = _inverse_deltas(field, params.code)[np.subtract(s, raw)]
    acc = None
    for l in range(params.ell):
        y, w = omega(field, *[sh[l] for sh in shares]), inverses[..., l]
        term = w.reshape(w.shape + (1,) * (y.ndim - w.ndim)) * y % field.q
        if counter is not None and omega.mults is not None:
            counter.mults += len(listed) * (omega.mults + math.prod(omega.out_shape))
        acc = term if acc is None else (acc + term) % field.q
    return acc


@_plan_cache
def _inverse_deltas(field: PrimeField, params: NCSAParams) -> np.ndarray:
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
                           params: NCSAParams, s, counter=None) -> np.ndarray:
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


def ncsa_decode(field: PrimeField, answers, params: NCSAParams) -> list[np.ndarray]:
    """Recover the L evaluations from R = kc(N + ell - 1) - N + 1 answers
    (straggler-only setting): the CSA decoder, A-side weights to the power N - 1."""
    if params.x_secure or params.byzantine:
        raise ParameterError("use xsb_decode when X or B is nonzero")
    return csa_decode(field, answers, params.code)


def xsb_decode(field: PrimeField, answers, params: NCSAParams):
    """Decode under X-security and up to B forged answers.

    Three stages: scale each answer by the full pole product at its sample
    (turning clean answers into evaluations of one polynomial of degree
    < width = R - 2B per entry), locate the forged answers, then drop the
    flagged servers and solve the reduced Cauchy-Vandermonde system.
    Returns (evaluations, flagged server indices).

    The clean answers form one interleaved Reed-Solomon codeword whose
    entries share their error positions (Bleichenbacher, Kiayias and Yung,
    ICALP 2003), so the locator runs once: ``rs_error_correct`` on a fixed
    seeded projection of the entries gives a row set E, and one batched
    product checks that every row outside E lies on a polynomial of degree
    < width in every entry.  If the locator fails or the check does, the
    per-entry Berlekamp-Welch loop decides, result or exception.

    The fast path returns what that loop would.  The locator flags at most
    B rows, so the rows outside E number at least width + B.  Once they lie
    on a polynomial P_c of degree < width in every entry c, each entry has
    at most B rows off P_c, and P_c is its only codeword within distance B
    (two such codewords would agree on width rows).  So the loop decodes
    entry c to P_c and flags the rows of E where entry c is off P_c.  The
    locator decoded the projection to sum_c w_c P_c by the same uniqueness,
    so every row of E is off that sum and hence off some P_c.  The loop
    therefore flags exactly E, whether or not the forgers stayed within
    the budget, and decodes from the same clean rows.
    """
    r = params.threshold
    b = params.byzantine
    answers = _take_answers(answers, r, params.servers)
    alphas = [params.samples[s] for s, _ in answers]
    width = r - 2 * b
    flagged_rows: set[int] = set()
    if b > 0:
        weights = _pole_products(field, params.code)[[s for s, _ in answers]]
        scaled = _answer_rows([y for _, y in answers]) * weights[:, None] % field.q
        located = _locate_rows(field, alphas, scaled, width, b)
        if located is not None:
            flagged_rows = located
        else:  # the per-entry loop decides, result or exception
            for col in range(scaled.shape[1]):
                _, positions = rs_error_correct(field, alphas, scaled[:, col].tolist(),
                                                degree_bound=width, max_errors=b)
                flagged_rows.update(positions)
            if len(flagged_rows) > b:
                raise DecodingFailureError("corruptions exceed the Byzantine budget")
    # without the B budget the threshold is width: the CSA decode of clean rows
    clean = [answers[i] for i in range(r) if i not in flagged_rows]
    evals = csa_decode(field, clean, params.code)
    return evals, sorted(answers[i][0] for i in flagged_rows)


@_plan_cache
def _pole_products(field: PrimeField, params: NCSAParams) -> np.ndarray:
    """``xsb_decode``'s plan: every server's full pole product prod_f (f - alpha_s)."""
    return _read_only(np.array([math.prod(f - a for f in params.poles) % field.q
                                for a in params.samples], dtype=np.int64))


@_plan_cache
def _projection_weights(field: PrimeField, cols: int) -> np.ndarray:
    """The fixed seeded weights in [1, q) that project ``cols`` answer
    entries onto the one column ``xsb_decode`` locates forgers in."""
    return _read_only(np.random.default_rng(20031).integers(1, field.q, size=cols, dtype=np.int64))


def _locate_rows(field: PrimeField, alphas, scaled: np.ndarray, width: int,
                 b: int) -> Optional[set[int]]:
    """The rows of ``scaled`` off a degree < width codeword in every column,
    found with one Reed-Solomon decode of a projected column, or None when
    that decode fails or some column disagrees with its result."""
    column = field.matmul(scaled, _projection_weights(field, scaled.shape[1]))
    try:
        _, positions = rs_error_correct(field, alphas, column.tolist(),
                                        degree_bound=width, max_errors=b)
    except DecodingFailureError:
        return None
    clean = [i for i in range(len(alphas)) if i not in positions]
    nodes, rest = clean[:width], clean[width:]
    lagrange = _lagrange_matrix(field, [alphas[i] for i in nodes],
                                [alphas[i] for i in rest])
    if not np.array_equal(field.matmul(lagrange, scaled[nodes]), scaled[rest]):
        return None
    return set(positions)


def _lagrange_matrix(field: PrimeField, nodes, points) -> np.ndarray:
    """(points x nodes) values of the Lagrange basis of ``nodes``: entry (j, i)
    is the i-th basis polynomial at points[j], so the matrix maps values at
    the nodes to values of their interpolant at the points.  The
    denominators take one batched inversion."""
    q = field.q

    def numerator(x: int, i: int) -> int:  # prod_{j != i} (x - nodes[j])
        return math.prod(x - node for j, node in enumerate(nodes) if j != i) % q

    inv = field.batch_inv([numerator(a, i) for i, a in enumerate(nodes)])
    rows = [[numerator(x, i) * c % q for i, c in enumerate(inv)] for x in points]
    return np.array(rows, dtype=np.int64).reshape(len(points), len(nodes))
