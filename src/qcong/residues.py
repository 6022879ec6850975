"""Exact arithmetic at roots of unity: residues in Z[q]/Phi_m(q).

The class of q in Z[q]/Phi_m is a primitive m-th root of unity, and the
remainder modulo the monic Phi_m is unique, so a residue is the reduced
IntPoly from `inject`, the one reduction modulo Phi_m: two polynomials agree
at every primitive m-th root of unity exactly when their residues are equal.
No floating point.
"""

from .cyclotomic import cyclotomic
from .poly import IntPoly


def inject(p: IntPoly, m: int) -> IntPoly:
    """The residue of p in Z[q]/Phi_m: its canonical remainder modulo Phi_m.

    For even m, Phi_m divides 1 + q^(m/2), so p is first folded modulo it
    in one pass and only the rest, of degree below m/2, is long-divided;
    at odd m, which no decision takes, p is long-divided whole.  Remainders
    modulo a monic polynomial are unique, so this is p's remainder by Phi_m.

    >>> print(inject(IntPoly((0, 0, 0, 1)), 6))
    -1
    """
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    folded = p.rem_binomial(m // 2) if m % 2 == 0 else p
    return folded._divmod(cyclotomic(m))[1]
