"""Generalized cross-subspace alignment codes: block partitioning inside batch coding.

Every constituent matrix pair is first encoded with the entangled-polynomial
partition code of ``ep``, evaluated at the shifted point (f_{l,k} - alpha).
The group prefactor is raised to the power R' = pmn, so a server's answer
expands into pole powers 1/(f - alpha)^R' .. 1/(f - alpha) carrying the
inner code's coefficients, plus a shared Vandermonde tail.

Both nestings fold into one linear code, the Cauchy code of ``csa``:
``gcsa_params`` returns ``csa.CSAParams`` with the partition p, m, n (CSA is
p = m = n = 1), and its rounds run csa's encoders, answer and decoder.
Weight (s, l; k, block) is d^e times prod_{k' != k} d_{k'}^R' on the A side
and 1/d^R' on the B side, d = f_{l,k} - alpha_s and e the block's EP
exponent.  EP is the case ell = kc = 1 (``harness.ep_setup``).  This module
keeps GCSA's builder and costs.
"""

from __future__ import annotations

from fractions import Fraction

from .csa import CSAParams, cauchy_points, gcsa_threshold
from .errors import ParameterError
from .ffield import PrimeField
# perfbench/tracer.py alone needs these names here; this module calls neither.
from .structmat import confluent_cv_matrix, solve_batch  # noqa: F401


def _gcsa_costs(ell: int, kc: int, p: int, m: int, n: int, servers: int):
    """(R, (U_A, U_B), D) of GCSA on ``servers`` servers: the threshold, the
    normalized uploads S/(kc p m) and S/(kc p n) and the normalized download
    R/(mn ell kc).  EP is the case ell = kc = 1 and CSA p = m = n = 1."""
    r = gcsa_threshold(ell, kc, p, m, n)
    return (r, (Fraction(servers, kc * p * m), Fraction(servers, kc * p * n)),
            Fraction(r, m * n * ell * kc))


def gcsa_params(field: PrimeField, ell: int, kc: int, p: int, m: int, n: int,
                servers: int, poles=None, samples=None) -> CSAParams:
    if min(ell, kc, p, m, n, servers) < 1:
        raise ParameterError("all parameters must be positive")
    poles, samples = cauchy_points(field, ell * kc, servers, gcsa_threshold(ell, kc, p, m, n),
                                   poles, samples, False)
    return CSAParams(ell, kc, servers, poles, samples, False, p, m, n)
