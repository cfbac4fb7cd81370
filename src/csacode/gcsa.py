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
keeps GCSA's builder.
"""

from __future__ import annotations

from .csa import CSAParams, csa_params, gcsa_threshold  # noqa: F401 (GCSA's threshold)
from .ffield import PrimeField
# perfbench/tracer.py alone needs these names here; this module calls neither.
from .structmat import confluent_cv_matrix, solve_batch  # noqa: F401


def gcsa_params(field: PrimeField, ell: int, kc: int, p: int, m: int, n: int,
                servers: int, poles=None, samples=None) -> CSAParams:
    return csa_params(field, ell, kc, servers, poles, samples, p=p, m=m, n=n)
