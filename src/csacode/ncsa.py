"""Batch computation of N-linear maps and degree-N polynomial evaluations.

Generalizes the bilinear batch scheme (CSA is the case N = 2): every variable
batch is Cauchy-coded per group with the CSA A-side encoder
``csa.csa_encode_a``, servers evaluate the map on coded variables and return
the prefactor-normalized group sum, and the decoder solves the scaled
Cauchy-Vandermonde system of ``structmat`` (Cauchy columns scaled by
c_{l,k}^(N-1)), whose tail absorbs the (kc-1)(N-1) interference dimensions.
Points, batch checks, the plain decoder and the systematic decoder are the
CSA ones.  Adds the Lagrange-interpolation baseline, uniform-noise shares
that keep any X servers ignorant of the data, and error correction against B
forged answers.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .csa import (_check_batch, _take_answers, cauchy_points, csa_decode,
                  csa_encode_a, scaling_constants)
from .errors import DecodingFailureError, InsufficientAnswersError, ParameterError
from .ffield import PrimeField
from .structmat import (CVSpec, _row_reduce, rs_error_correct, scaled_cv_matrix,
                        solve_batch)

# ---- N-linear maps ----


@dataclass(frozen=True)
class NLinearMap:
    """A function of ``arity`` vector variables, linear in each separately.

    ``fn`` takes the field followed by one numpy array per variable and
    returns the output array.  ``mults`` is the field-multiplication count of
    one evaluation, used by the cost accounting when available.
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
        return self.fn(field, *args)


def matmul_map(rows: int, inner: int, cols: int) -> NLinearMap:
    """Bilinear matrix product: the CDBMM kernel as a 2-linear map."""
    return NLinearMap(
        arity=2,
        var_shapes=((rows, inner), (inner, cols)),
        out_shape=(rows, cols),
        fn=lambda field, a, b: field.matmul(a, b),
        name="matmul",
        mults=rows * inner * cols,
    )


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

    def det(field, *cols):
        m = np.stack(cols, axis=1).astype(np.int64) % field.q
        pivots, out = _row_reduce(field, m, size)
        return np.array([out if len(pivots) == size else 0], dtype=np.int64)

    return NLinearMap(
        arity=size,
        var_shapes=tuple((size,) for _ in range(size)),
        out_shape=(1,),
        fn=det,
        name="determinant",
    )


def check_multilinear(field: PrimeField, omega: NLinearMap,
                      rng: np.random.Generator, trials: int = 20) -> bool:
    """Random two-point linearity probe in every slot."""
    for _ in range(trials):
        base = [field.rand_matrix(rng, *_as2d(s)).reshape(s) for s in omega.var_shapes]
        for slot in range(omega.arity):
            alt = field.rand_matrix(rng, *_as2d(omega.var_shapes[slot])).reshape(
                omega.var_shapes[slot])
            c1, c2 = int(rng.integers(0, field.q)), int(rng.integers(0, field.q))
            mixed = list(base)
            mixed[slot] = (c1 * base[slot] + c2 * alt) % field.q
            lhs = omega(field, *mixed)
            alt_args = list(base)
            alt_args[slot] = alt
            rhs = (c1 * omega(field, *base) + c2 * omega(field, *alt_args)) % field.q
            if not np.array_equal(lhs, rhs):
                return False
    return True


def _as2d(shape):
    if len(shape) == 1:
        return (shape[0], 1)
    return shape


# ---- Lagrange-interpolation baseline ----


def lcc_threshold(arity: int, batch: int) -> int:
    return arity * (batch - 1) + 1


def _lagrange_weight(field: PrimeField, nodes, i: int, x: int) -> int:
    """The i-th Lagrange basis polynomial of ``nodes`` evaluated at x."""
    w = 1
    for j, node in enumerate(nodes):
        if j != i:
            w = w * field.sub(x, node) % field.q
            w = w * field.inv(field.sub(nodes[i], node)) % field.q
    return w


def lcc_encode(field: PrimeField, batch, betas, alpha: int) -> np.ndarray:
    """Evaluate the Lagrange interpolant through (beta_l, x_l) at alpha."""
    betas = [b % field.q for b in betas]
    alpha %= field.q
    if len(set(betas)) != len(betas):
        raise ParameterError("anchor points must be pairwise distinct")
    acc = np.zeros_like(batch[0])
    for l, x in enumerate(batch):
        acc = (acc + _lagrange_weight(field, betas, l, alpha) * x) % field.q
    return acc


def lcc_decode(field: PrimeField, answers, betas, arity: int) -> list[np.ndarray]:
    """Interpolate the degree <= N(L-1) answer polynomial and evaluate it at
    every anchor point."""
    betas = [b % field.q for b in betas]
    r = lcc_threshold(arity, len(betas))
    answers = list(answers)
    if len(answers) < r:
        raise InsufficientAnswersError(f"need {r} answers, got {len(answers)}")
    answers = answers[:r]
    alphas = [a % field.q for a, _ in answers]
    if len(set(alphas)) != len(alphas):
        raise ParameterError("duplicate evaluation points in answers")
    out = []
    for beta in betas:
        weights = [_lagrange_weight(field, alphas, i, beta) for i in range(r)]
        acc = np.zeros_like(answers[0][1])
        for w, (_, y) in zip(weights, answers):
            acc = (acc + w * y) % field.q
        out.append(acc)
    return out


# ---- N-CSA parameters ----


@dataclass(frozen=True)
class NCSAParams:
    arity: int  # N
    ell: int
    kc: int
    servers: int
    x_secure: int = 0
    byzantine: int = 0
    poles: tuple[int, ...] = ()
    samples: tuple[int, ...] = ()
    noise_seed: int = 0

    @property
    def batch_size(self) -> int:
        return self.ell * self.kc

    def pole(self, l: int, k: int) -> int:
        return self.poles[l * self.kc + k]

    @property
    def threshold(self) -> int:
        return xsb_threshold(self.arity, self.ell, self.kc, self.x_secure,
                             self.byzantine)


def ncsa_threshold(arity: int, ell: int, kc: int) -> int:
    return kc * (arity + ell - 1) - arity + 1


def xsb_threshold(arity: int, ell: int, kc: int, x_secure: int, byzantine: int) -> int:
    return kc * (arity + ell - 1) + arity * (x_secure - 1) + 2 * byzantine + 1


def ncsa_params(field: PrimeField, arity: int, ell: int, kc: int, servers: int,
                x_secure: int = 0, byzantine: int = 0, poles=None, samples=None,
                noise_seed: int = 0, systematic: bool = False) -> NCSAParams:
    if min(arity, ell, kc, servers) < 1 or min(x_secure, byzantine) < 0:
        raise ParameterError("invalid scheme parameters")
    if systematic and x_secure >= 1:
        raise ParameterError("systematic layout cannot be combined with X-security")
    if systematic and servers < ell * kc:
        raise ParameterError("systematic layout needs S >= L")
    r = xsb_threshold(arity, ell, kc, x_secure, byzantine)
    if r > servers:
        raise ParameterError(f"R <= S violated: threshold {r} exceeds {servers} servers")
    poles, samples = cauchy_points(field, ell * kc, servers, poles, samples, systematic)
    return NCSAParams(arity, ell, kc, servers, x_secure, byzantine,
                      poles, samples, noise_seed)


# ---- encoding ----


def noise_element(field: PrimeField, seed: int, var: int, l: int, k: int,
                  x: int, idx: int) -> int:
    """Deterministic uniform field element keyed by (seed, var, l, k, x, idx).

    Counter-based: SHA-256 of the packed key yields 64-bit words that are
    rejection-sampled to remove modulo bias.
    """
    limit = (2**64 // field.q) * field.q
    ctr = 0
    while True:
        data = struct.pack("<7q", seed, var, l, k, x, idx, ctr)
        digest = hashlib.sha256(data).digest()
        for off in range(0, 32, 8):
            word = struct.unpack_from("<Q", digest, off)[0]
            if word < limit:
                return word % field.q
        ctr += 1


def noise_block(field: PrimeField, seed: int, var: int, l: int, k: int, x: int,
                shape) -> np.ndarray:
    flat = [noise_element(field, seed, var, l, k, x, i)
            for i in range(int(np.prod(shape)))]
    return np.array(flat, dtype=np.int64).reshape(shape)


def xs_encode(field: PrimeField, batch, params: NCSAParams, var: int, s: int,
              noise=None) -> list[np.ndarray]:
    """Secure share: data Cauchy terms plus uniform noise along powers of alpha.

    The noise realization is fixed per (var, l, k, x) and reused for every
    server, forming the MDS-coded mask.  ``noise`` may override the seeded
    values: a mapping (l, k, x) -> array (1-based x).
    """
    base = csa_encode_a(field, batch, params, s)
    if params.x_secure < 1:
        return base
    alpha = params.samples[s]
    shares = []
    for l in range(params.ell):
        delta = 1
        for k in range(params.kc):
            delta = delta * field.sub(params.pole(l, k), alpha) % field.q
        acc = base[l]
        for x in range(1, params.x_secure + 1):
            power = field.pow(alpha, x - 1)
            for k in range(params.kc):
                if noise is not None:
                    z = noise[(l, k, x)]
                else:
                    z = noise_block(field, params.noise_seed, var, l, k, x,
                                    batch[0].shape)
                acc = (acc + delta * power % field.q * z) % field.q
        shares.append(acc)
    return shares


# ---- answering ----


def ncsa_answer(field: PrimeField, shares, omega: NLinearMap, params: NCSAParams,
                s: int, counter=None) -> np.ndarray:
    """Y_s = sum_l Delta_s^{-1} Omega(coded variables of group l).

    ``shares`` holds one share list (length ell) per variable slot.
    """
    if len(shares) != omega.arity or omega.arity != params.arity:
        raise ParameterError("share count does not match the map arity")
    alpha = params.samples[s]
    acc = None
    for l in range(params.ell):
        d = 1
        for k in range(params.kc):
            d = d * field.sub(params.pole(l, k), alpha) % field.q
        term = omega(field, *[sh[l] for sh in shares])
        term = field.inv(d) * term % field.q
        if counter is not None and omega.mults is not None:
            counter.mults += omega.mults + int(np.prod(omega.out_shape))
        acc = term if acc is None else (acc + term) % field.q
    return acc


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
                           params: NCSAParams, s: int) -> np.ndarray:
    """Weighted sum of per-term answers; ``shares_by_var`` maps a variable
    index (or None for the constant batch) to its share list for server s."""
    acc = None
    for term in spec.terms:
        shares = [shares_by_var[slot] for slot in term.slots]
        y = ncsa_answer(field, shares, term.omega, params, s)
        y = term.weight % field.q * y % field.q
        acc = y if acc is None else (acc + y) % field.q
    return acc


# ---- decoding ----


def ncsa_decode(field: PrimeField, answers, params: NCSAParams) -> list[np.ndarray]:
    """Recover the L evaluations from R = kc(N + ell - 1) - N + 1 answers
    (straggler-only setting): the CSA decoder with c_{l,k}^(N-1) scaling."""
    if params.x_secure or params.byzantine:
        raise ParameterError("use xsb_decode when X or B is nonzero")
    return csa_decode(field, answers, params)


def xsb_decode(field: PrimeField, answers, params: NCSAParams):
    """Decode under X-security and up to B forged answers.

    Three stages: scale each answer by the full pole product at its sample
    (turning clean answers into evaluations of one polynomial of degree
    < R - 2B), locate errors entry-wise with the Reed-Solomon decoder,
    then drop flagged servers and solve the reduced Cauchy-Vandermonde
    system.  Returns (evaluations, flagged server indices).
    """
    r = params.threshold
    b = params.byzantine
    answers = _take_answers(answers, r, params.servers)
    alphas = [params.samples[s] for s, _ in answers]
    width = r - 2 * b
    flagged_rows: set[int] = set()
    if b > 0:
        weights = []
        for alpha in alphas:
            w = 1
            for f in params.poles:
                w = w * field.sub(f, alpha) % field.q
            weights.append(w)
        stacked = np.stack([y.reshape(-1) for _, y in answers])
        scaled = stacked * np.array(weights, dtype=np.int64)[:, None] % field.q
        for col in range(scaled.shape[1]):
            _, positions = rs_error_correct(field, alphas, scaled[:, col].tolist(),
                                            degree_bound=width, max_errors=b)
            flagged_rows.update(positions)
        if len(flagged_rows) > b:
            raise DecodingFailureError("corruptions exceed the Byzantine budget")
    clean = [i for i in range(r) if i not in flagged_rows][:width]
    mat = scaled_cv_matrix(field, CVSpec(params.poles, tuple(alphas[i] for i in clean)),
                           scaling_constants(field, params, params.arity - 1))
    stacked = np.stack([answers[i][1].reshape(-1) for i in clean])
    sol = solve_batch(field, mat, stacked)
    shape = answers[0][1].shape
    evals = [sol[j].reshape(shape) for j in range(params.batch_size)]
    return evals, sorted(answers[i][0] for i in flagged_rows)


# ---- systematic layout ----


def ncsa_systematic_encode(field: PrimeField, batches, params: NCSAParams) -> list:
    """First L servers receive the raw variable tuple, the rest coded shares.

    ``batches`` holds one variable batch (length L) per map slot.
    """
    if params.x_secure >= 1:
        raise ParameterError("systematic layout cannot be combined with X-security")
    if params.servers < params.batch_size:
        raise ParameterError("systematic layout needs S >= L")
    for batch in batches:
        _check_batch(batch, params)
    shares = []
    for s in range(params.servers):
        if s < params.batch_size:
            shares.append(("raw", tuple(batch[s] for batch in batches)))
        else:
            shares.append(("coded", tuple(csa_encode_a(field, batch, params, s)
                                          for batch in batches)))
    return shares


def ncsa_systematic_answer(field: PrimeField, share, omega: NLinearMap,
                           params: NCSAParams, s: int) -> np.ndarray:
    kind, payload = share
    if kind == "raw":
        return omega(field, *payload)
    return ncsa_answer(field, list(payload), omega, params, s)
