"""Exact computation of q-Euler, q-tangent, and q-Salie polynomial families,
with machine verification of their congruence and divisibility properties.

Everything is integer-exact: polynomials over arbitrary-precision integers,
cyclotomic factorizations, and quotient-ring arithmetic at roots of unity.
"""

from .cyclotomic import FactoredPoly, cyclotomic, factor_one_plus_qd
from .divisors import (
    big_d,
    big_p,
    ev,
    q_bar,
    q_hat,
    q_tilde,
)
from .perms import SizeLimitExceeded, alternating_gf, salie_perm_gf
from .poly import (
    IntPoly,
    NonMonicModulus,
    ONE,
    Q,
    ZERO,
    one_plus_q_power,
    q_power,
)
from .qbinom import gauss, gauss_factored, q_lucas_holds, q_lucas_sides
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
    "NonMonicModulus",
    "ONE",
    "Q",
    "SEQUENCE_FAMILIES",
    "SizeLimitExceeded",
    "ZERO",
    "alternating_gf",
    "big_d",
    "big_p",
    "cyclotomic",
    "euler",
    "ev",
    "factor_one_plus_qd",
    "gauss",
    "gauss_factored",
    "gen_euler",
    "inject",
    "one_plus_q_power",
    "q_bar",
    "q_hat",
    "q_lucas_holds",
    "q_lucas_sides",
    "q_power",
    "q_tilde",
    "salie",
    "salie_bar",
    "salie_hat",
    "salie_perm_gf",
    "salie_tilde",
    "tangent",
    "__version__",
]
