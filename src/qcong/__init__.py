"""Exact computation of q-Euler, q-tangent, and q-Salie polynomial families,
with machine verification of their congruence and divisibility properties.

Everything is integer-exact: polynomials over arbitrary-precision integers,
cyclotomic factorizations, and quotient-ring arithmetic at roots of unity.
"""

from .cyclotomic import FactoredPoly, cyclotomic, factor_one_plus_qd
from .divisors import big_d, big_p, ev, q_bar, q_hat, q_tilde
from .poly import IntPoly, SizeLimitExceeded
from .qbinom import gauss
from .residues import inject
from .sequences import (
    SEQUENCE_FAMILIES,
    euler,
    gen_euler,
    salie,
    salie_bar,
    salie_hat,
    salie_tilde,
    tangent,
)

__version__ = "0.1.0"

__all__ = [
    "FactoredPoly",
    "IntPoly",
    "SEQUENCE_FAMILIES",
    "SizeLimitExceeded",
    "big_d",
    "big_p",
    "cyclotomic",
    "euler",
    "ev",
    "factor_one_plus_qd",
    "gauss",
    "gen_euler",
    "inject",
    "q_bar",
    "q_hat",
    "q_tilde",
    "salie",
    "salie_bar",
    "salie_hat",
    "salie_tilde",
    "tangent",
    "__version__",
]
