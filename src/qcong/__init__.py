"""Exact computation of q-Euler, q-tangent, and q-Salie polynomial families,
with machine verification of their congruence and divisibility properties.

Everything is integer-exact: polynomials over arbitrary-precision integers,
cyclotomic factorizations, and quotient-ring arithmetic at roots of unity.
"""

from .cyclotomic import FactoredPoly, cyclotomic, factor_one_plus_qd
from .divisors import (
    OddPartDecomposition,
    a_exponent,
    big_d,
    big_p,
    ev,
    little_p,
    odd_part,
    q_bar,
    q_hat,
    q_tilde,
)
from .perms import (
    SizeLimitExceeded,
    alternating_gf,
    inversions,
    is_alternating,
    is_salie,
    prefix_split_count,
    salie_perm_gf,
)
from .poly import (
    IntPoly,
    NonMonicModulus,
    NotDivisible,
    ONE,
    Q,
    ZERO,
    one_plus_q_power,
    q_power,
)
from .qbinom import (
    gauss,
    gauss_factored,
    pochhammer_cyclo_exponents,
    q_lucas_holds,
    q_lucas_sides,
    qpoch,
)
from .residues import ModulusMismatch, ResidueElem, inject, root_power
from .sequences import (
    SEQUENCE_FAMILIES,
    euler,
    family_value,
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
    "ModulusMismatch",
    "NonMonicModulus",
    "NotDivisible",
    "ONE",
    "OddPartDecomposition",
    "Q",
    "ResidueElem",
    "SEQUENCE_FAMILIES",
    "SizeLimitExceeded",
    "ZERO",
    "a_exponent",
    "alternating_gf",
    "big_d",
    "big_p",
    "cyclotomic",
    "euler",
    "ev",
    "factor_one_plus_qd",
    "family_value",
    "gauss",
    "gauss_factored",
    "gen_euler",
    "inject",
    "inversions",
    "is_alternating",
    "is_salie",
    "little_p",
    "odd_part",
    "one_plus_q_power",
    "pochhammer_cyclo_exponents",
    "prefix_split_count",
    "q_bar",
    "q_hat",
    "q_lucas_holds",
    "q_lucas_sides",
    "q_power",
    "q_tilde",
    "qpoch",
    "root_power",
    "salie",
    "salie_bar",
    "salie_hat",
    "salie_perm_gf",
    "salie_tilde",
    "tangent",
    "__version__",
]
