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

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientAnswersError, ParameterError
from .ffield import PrimeField
# perfbench/tracer.py traces csa.cv_matrix, so the name stays importable here.
from .structmat import (CVSpec, cv_matrix, matrix_rank,  # noqa: F401
                        scaled_cv_matrix, solve_batch)


@dataclass(frozen=True)
class CSAParams:
    ell: int
    kc: int
    servers: int
    poles: tuple[int, ...]    # f values, group-major, length ell * kc
    samples: tuple[int, ...]  # alpha values, one per server

    @property
    def batch_size(self) -> int:
        return self.ell * self.kc

    def pole(self, l: int, k: int) -> int:
        """f_{l,k} with 0-based group and slot indices."""
        return self.poles[l * self.kc + k]

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
        raise ParameterError("need ell*kc poles and one sample per server")
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


def csa_encode_a(field: PrimeField, batch_a, params: CSAParams, s: int) -> list[np.ndarray]:
    """A-side share for server s: ell matrices, one per group.

    Uses the expanded polynomial form prod_{k' != k}(f_{l,k'} - alpha), so no
    inversions are needed on the A side.
    """
    _check_batch(batch_a, params)
    alpha = params.samples[s]
    shares = []
    for l in range(params.ell):
        acc = np.zeros_like(batch_a[0])
        for k in range(params.kc):
            w = 1
            for k2 in range(params.kc):
                if k2 != k:
                    w = w * field.sub(params.pole(l, k2), alpha) % field.q
            acc = (acc + w * batch_a[l * params.kc + k]) % field.q
        shares.append(acc)
    return shares


def csa_encode_b(field: PrimeField, batch_b, params: CSAParams, s: int) -> list[np.ndarray]:
    """B-side share for server s: bare Cauchy combination with explicit inverses."""
    _check_batch(batch_b, params)
    alpha = params.samples[s]
    inv = field.batch_inv([field.sub(f, alpha) for f in params.poles])
    shares = []
    for l in range(params.ell):
        acc = np.zeros_like(batch_b[0])
        for k in range(params.kc):
            acc = (acc + inv[l * params.kc + k] * batch_b[l * params.kc + k]) % field.q
        shares.append(acc)
    return shares


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
    N-CSA code without X-security or Byzantine servers.

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
    """Shares for all S servers: the first L get the raw matrix pair,
    the rest get ordinary coded shares."""
    _check_batch(batch_a, params)
    _check_batch(batch_b, params)
    if params.servers < params.batch_size:
        raise ParameterError("systematic layout needs S >= L")
    shares = []
    for s in range(params.servers):
        if s < params.batch_size:
            shares.append(("raw", batch_a[s], batch_b[s]))
        else:
            shares.append(
                ("coded", csa_encode_a(field, batch_a, params, s),
                 csa_encode_b(field, batch_b, params, s))
            )
    return shares


def systematic_answer(field: PrimeField, share, counter=None) -> np.ndarray:
    kind = share[0]
    if kind == "raw":
        _, a, b = share
        if counter is not None:
            counter.mults += a.shape[0] * a.shape[1] * b.shape[1]
        return field.matmul(a, b)
    _, sa, sb = share
    return csa_answer(field, sa, sb, counter)


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

    Row s, column (l, k, k') holds prod_{k'' not in {k, k'}}(f_{l,k''} - alpha_s),
    the exact coefficient those interference terms carry in Y_s.
    """
    cols = []
    for l in range(params.ell):
        for k in range(params.kc):
            for k2 in range(params.kc):
                if k2 == k:
                    continue
                col = []
                for alpha in params.samples:
                    w = 1
                    for k3 in range(params.kc):
                        if k3 != k and k3 != k2:
                            w = w * field.sub(params.pole(l, k3), alpha) % field.q
                    col.append(w)
                cols.append(col)
    if not cols:  # kc = 1 produces no cross terms at all
        return np.zeros((params.servers, 0), dtype=np.int64)
    return np.array(cols, dtype=np.int64).T


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
    if any(not np.issubdtype(x.dtype, np.integer) for x in arrays):
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
