"""Gaussian binomial polynomials and the q-Pochhammer product (q;q)_n.

The main computation path for [m over n]_q is the q-Pascal recurrence
[m, n] = [m-1, n-1] + q^n [m-1, n], which is division-free and keeps all
coefficients nonnegative.  Two independent routes are provided as oracles:
the quotient (q;q)_m / ((q;q)_n (q;q)_{m-n}) and the cyclotomic
factorization by the floor-count criterion.
"""

from __future__ import annotations

import functools
from math import comb

from .cyclotomic import FactoredPoly
from .poly import IntPoly, ONE, ZERO, q_power
from .residues import ResidueElem, inject


@functools.lru_cache(maxsize=None)
def qpoch(n: int) -> IntPoly:
    """(q;q)_n = (1-q)(1-q^2)...(1-q^n); the q-analogue of n factorial."""
    if n < 0:
        raise ValueError("q-Pochhammer index must be nonnegative")
    if n == 0:
        return ONE
    return qpoch(n - 1) * (ONE - q_power(n))


def gauss(m: int, n: int) -> IntPoly:
    """The Gaussian polynomial [m over n]_q; zero when n is out of range."""
    if m < 0:
        raise ValueError("upper index must be nonnegative")
    if n < 0 or n > m:
        return ZERO
    return _gauss(m, min(n, m - n))


@functools.lru_cache(maxsize=None)
def _gauss(m: int, n: int) -> IntPoly:
    # n is already normalized to min(n, m - n), halving the memo table.
    if n == 0:
        return ONE
    return gauss(m - 1, n - 1) + gauss(m - 1, n).shift(n)


def gauss_factored(m: int, n: int) -> FactoredPoly:
    """Cyclotomic factorization of [m over n]_q.

    Phi_d appears (with exponent 1) exactly when
    floor(n/d) + floor((m-n)/d) < floor(m/d); d = 1 never qualifies.
    """
    if not 0 <= n <= m:
        raise ValueError("need 0 <= n <= m")
    return FactoredPoly(
        {d: 1 for d in range(2, m + 1) if n // d + (m - n) // d < m // d}
    )


def pochhammer_cyclo_exponents(m: int) -> tuple[FactoredPoly, int]:
    """(q;q)_m = sign * prod_{d<=m} Phi_d^{floor(m/d)}; returns (product, sign)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return FactoredPoly({d: m // d for d in range(1, m + 1)}), (-1) ** m


def q_lucas_sides(m: int, k: int, d: int) -> tuple[ResidueElem, ResidueElem]:
    """Both sides of the q-Lucas reduction at a primitive d-th root of unity.

    Writing m = a*d + b and k = r*d + s with 0 <= b, s < d, the left side is
    the image of [m over k]_q in Z[q]/Phi_d and the right side is
    C(a, r) times the image of [b over s]_q.
    """
    if m < 0 or k < 0 or d < 1:
        raise ValueError("need m, k >= 0 and d >= 1")
    a, b = divmod(m, d)
    r, s = divmod(k, d)
    lhs = inject(gauss(m, k), d)
    rhs = comb(a, r) * inject(gauss(b, s), d)
    return lhs, rhs


def q_lucas_holds(m: int, k: int, d: int) -> bool:
    """Whether the q-Lucas reduction is an equality for these parameters."""
    lhs, rhs = q_lucas_sides(m, k, d)
    return lhs == rhs
