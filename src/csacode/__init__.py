"""Coded distributed batch computation over prime fields.

Code families: entangled polynomial (partitioning), cross-subspace alignment
(batch), their generalized combination, and N-linear / polynomial-evaluation
variants with X-secure shares and Byzantine tolerance, of which Lagrange
coded computing is the case ell = 1, kc = L.
"""

from .ffield import PrimeField, DEFAULT_MODULUS
from .errors import (DecodingFailureError, InsufficientAnswersError,
                     ParameterError, SingularMatrixError)

__version__ = "0.1.0"

__all__ = [
    "PrimeField",
    "DEFAULT_MODULUS",
    "ParameterError",
    "InsufficientAnswersError",
    "SingularMatrixError",
    "DecodingFailureError",
]
