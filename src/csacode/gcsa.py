"""Generalized cross-subspace alignment codes: block partitioning inside batch coding.

Every constituent matrix pair is first encoded with the entangled-polynomial
partition code of ``ep``, evaluated at the shifted point (f_{l,k} - alpha).
The group prefactor is raised to the power R' = pmn, so a server's answer
expands into pole powers 1/(f - alpha)^R' .. 1/(f - alpha) carrying the
inner code's coefficients, plus a shared Vandermonde tail.  Points, batch
checks and the server answer (``csa.csa_answer``) are the CSA ones.

Both nestings fold into one linear code, so each side encodes every listed
server with one generator product per group (``csa._generator_encode``).
Weight (s, l; k, block) is w_{l,k}(alpha_s) * (f_{l,k} - alpha_s)^e, e the
block's EP exponent, w the cleared-denominator weight
prod_{k' != k}(f_{l,k'} - alpha_s)^R' on the A side and
1/(f_{l,k} - alpha_s)^R' on the B side (all inverses from one
``batch_inv``).  Decoding solves ``csa._decode_matrix`` at order and power
R' and reassembles products with the inner code's block extraction rule.

EP is the case ell = kc = 1 (``harness.ep_setup``): with one pole and
S samples it needs S + 1 distinct points, so S <= q - 1.  A code of batch
size 1 takes a batch of any length and encodes every entry alone with its
one row of weights; each share and answer then holds every entry, and
``gcsa_decode`` returns them all from one product with its plan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .csa import (_answer_rows, _cauchy_weights, _decode_matrix, _generator_encode, _Groups,
                  _plan_cache, _read_only, _server_list, _take_answers, cauchy_points)
from .ep import (EPParams, _a_exponents, _b_exponents, _desired_indices,
                 _extract_products)
from .errors import ParameterError
from .ffield import PrimeField
# perfbench/tracer.py requires gcsa.confluent_cv_matrix, so it stays importable here.
from .structmat import confluent_cv_matrix, solve_batch  # noqa: F401


@dataclass(frozen=True)
class GCSAParams(_Groups):
    ell: int
    kc: int
    p: int
    m: int
    n: int
    servers: int
    poles: tuple[int, ...]
    samples: tuple[int, ...]

    @property
    def inner_order(self) -> int:
        """R' = pmn, the pole multiplicity used throughout."""
        return self.p * self.m * self.n

    @functools.cached_property
    def ep(self) -> EPParams:  # the partition code; read by every round and plan
        return EPParams(self.p, self.m, self.n)

    @property
    def threshold(self) -> int:
        return gcsa_threshold(self.ell, self.kc, self.p, self.m, self.n)


def gcsa_threshold(ell: int, kc: int, p: int, m: int, n: int) -> int:
    return p * m * n * ((ell + 1) * kc - 1) + p - 1


def _gcsa_costs(ell: int, kc: int, p: int, m: int, n: int, servers: int):
    """(R, (U_A, U_B), D) of GCSA on ``servers`` servers: the threshold, the
    normalized uploads S/(kc p m) and S/(kc p n) and the normalized download
    R/(mn ell kc).  EP is the case ell = kc = 1 and CSA p = m = n = 1."""
    r = gcsa_threshold(ell, kc, p, m, n)
    return (r, (Fraction(servers, kc * p * m), Fraction(servers, kc * p * n)),
            Fraction(r, m * n * ell * kc))


def grid_naive_threshold(s_outer: int, r_outer: int, s_inner: int, r_inner: int) -> int:
    """Worst-case threshold of the column-wise two-layer composition.

    Each of the s_outer partitioned sub-tasks is farmed out to its own group
    of s_inner servers; recovery needs r_outer groups with r_inner responses.
    The adversary wastes whole groups first, then stalls the rest just below
    their local threshold.
    """
    return (r_outer - 1) * s_inner + (s_outer - r_outer + 1) * (r_inner - 1) + 1


def gcsa_params(field: PrimeField, ell: int, kc: int, p: int, m: int, n: int,
                servers: int, poles=None, samples=None) -> GCSAParams:
    if min(ell, kc, p, m, n, servers) < 1:
        raise ParameterError("all parameters must be positive")
    poles, samples = cauchy_points(field, ell * kc, servers, gcsa_threshold(ell, kc, p, m, n),
                                   poles, samples, False)
    return GCSAParams(ell, kc, p, m, n, servers, poles, samples)


def gcsa_encode_a(field: PrimeField, batch_a, params: GCSAParams, servers) -> np.ndarray | list:
    """A-side shares: per group, sum over slots of the inner polynomial at
    f_{l,k} - alpha times the cleared-denominator weight
    prod_{k' != k}(f_{l,k'} - alpha)^R'.  ``servers`` is one server index
    (that server's ell shares) or a sequence (their rows, as for
    ``csa_encode_a``).  With batch size 1, a longer batch encodes entry by
    entry: a server's share then holds every entry, as (entries, 1, ...)."""
    return _encode(field, batch_a, params, servers, "a", (params.m, params.p))


def gcsa_encode_b(field: PrimeField, batch_b, params: GCSAParams, servers) -> np.ndarray | list:
    """B-side shares: the inner B polynomials at f_{l,k} - alpha, weighted by
    1/(f_{l,k} - alpha)^R'; ``servers`` as for ``gcsa_encode_a``."""
    return _encode(field, batch_b, params, servers, "b", (params.p, params.n))


def _encode(field: PrimeField, batch, params: GCSAParams, servers, side: str, grid):
    """Both encoders; a longer batch than L = 1 (EP) takes the 2-D weights of
    ``csa._generator_encode``, its one row used for every entry alone."""
    weights = _weights(field, params, tuple(_server_list(servers)), side)
    if params.batch_size == 1 and len(batch) > 1:
        weights = weights[:, 0]
    return _generator_encode(field, batch, weights, servers, grid)


@_plan_cache
def _weights(field: PrimeField, params: GCSAParams, listed: tuple, side: str) -> np.ndarray:
    """The encoders' plan: the ``listed`` servers' weights on ``side`` "a" or "b"."""
    exps = (_a_exponents if side == "a" else _b_exponents)(params.ep)
    return _read_only(_cauchy_weights(field, params, listed, side, params.inner_order, exps))


def gcsa_decode(field: PrimeField, answers, params: GCSAParams) -> list[np.ndarray]:
    """Recover the L full products from any R answers.

    The decode matrix's Cauchy unknowns are the inner-code coefficient
    matrices per (group, slot), R' pole powers each; one product with
    ``_plan`` solves for just the desired blocks at the entangled-polynomial
    extraction indices, which are reassembled.  An answer of a batch-size-1
    code may hold several entries, (entries, bh, bw): every entry's product
    comes from the same product with the plan.
    """
    answers = _take_answers(answers, params.threshold, params.servers)
    sol = field.matmul(_plan(field, params, tuple(s for s, _ in answers)),
                       field.residues(_answer_rows([y for _, y in answers])))
    bh, bw = answers[0][1].shape[-2:]
    mn = params.m * params.n  # sol's rows are slot-major, its columns entry-major
    desired = sol.reshape(params.batch_size, mn, -1, bh, bw).swapaxes(0, 1)
    return list(_extract_products(params.ep, desired.reshape(mn, -1, bh, bw)))


@_plan_cache
def _plan(field: PrimeField, params: GCSAParams, listed: tuple) -> np.ndarray:
    """``gcsa_decode``'s plan: the desired blocks' rows of the inverse, slot-major."""
    rp = params.inner_order
    mat = _decode_matrix(field, params, listed, rp, params.threshold, rp)
    rows = [j * rp + i for j in range(params.batch_size) for i in _desired_indices(params.ep)]
    return _read_only(solve_batch(field, mat, np.eye(len(listed), dtype=np.int64), rows=rows))
