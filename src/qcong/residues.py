"""Exact arithmetic at roots of unity: residues in Z[q]/Phi_m(q).

The class of q in Z[q]/Phi_m is a primitive m-th root of unity, and the
remainder modulo the monic Phi_m is unique, so a residue is the reduced
IntPoly from `rem_cyclotomic`: two polynomials agree at every primitive m-th
root of unity exactly when their residues are equal.  No floating point.
"""

from __future__ import annotations

from .cyclotomic import rem_cyclotomic
from .poly import IntPoly


def inject(p: IntPoly, m: int) -> IntPoly:
    """The residue of an integer polynomial in Z[q]/Phi_m."""
    return rem_cyclotomic(p, m)
