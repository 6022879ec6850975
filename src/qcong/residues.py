"""Exact arithmetic at roots of unity: the quotient rings Z[q]/Phi_m(q).

The class of q in Z[q]/Phi_m is a primitive m-th root of unity, so residue
elements give exact yes/no answers to "do these polynomials agree at every
primitive m-th root of unity" -- no floating point anywhere.
"""

from __future__ import annotations

from .cyclotomic import rem_cyclotomic
from .poly import IntPoly, q_power


class ModulusMismatch(ValueError):
    """Operands live in quotient rings with different cyclotomic moduli."""


class ResidueElem:
    """A residue class modulo Phi_m, stored by its reduced representative."""

    __slots__ = ("modulus_index", "rep")

    def __init__(self, modulus_index: int, rep: IntPoly):
        if modulus_index < 1:
            raise ValueError("modulus index must be positive")
        self.modulus_index = modulus_index
        self.rep = rem_cyclotomic(rep, modulus_index)

    def _coerce(self, other) -> "ResidueElem | None":
        if isinstance(other, ResidueElem):
            if other.modulus_index != self.modulus_index:
                raise ModulusMismatch(
                    f"moduli differ: Phi_{self.modulus_index} vs Phi_{other.modulus_index}"
                )
            return other
        if isinstance(other, int):
            return ResidueElem(self.modulus_index, IntPoly((other,)))
        if isinstance(other, IntPoly):
            return ResidueElem(self.modulus_index, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ResidueElem(self.modulus_index, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self):
        return ResidueElem(self.modulus_index, -self.rep)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ResidueElem(self.modulus_index, self.rep - other.rep)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ResidueElem(self.modulus_index, self.rep * other.rep)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rep == other.rep

    __hash__ = None  # equality raises across rings, so hashing would be unsound

    def __repr__(self) -> str:
        return f"ResidueElem(m={self.modulus_index}, rep={self.rep!r})"

    def __str__(self) -> str:
        return f"[{self.rep}] mod Phi_{self.modulus_index}"


def inject(p: IntPoly, m: int) -> ResidueElem:
    """Reduce an integer polynomial into Z[q]/Phi_m."""
    return ResidueElem(m, p)


def root_power(m: int, j: int) -> ResidueElem:
    """The class of q^(j mod m): the j-th power of a primitive m-th root of unity."""
    if m < 1:
        raise ValueError("modulus index must be positive")
    return ResidueElem(m, q_power(j % m))
