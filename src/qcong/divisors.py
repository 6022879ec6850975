"""Divisor families for the q-Salie and q-tangent divisibility theorems.

All products are kept in cyclotomic-factored form (FactoredPoly).  P_n,
Qbar_n and Qhat_n are given by their cyclotomic exponents; Ev_n, D_n and
Qtilde_n are products of binomials 1 + q^j, built from their exponents j by
cyclotomic.factor_one_plus_qd.  FactoredPoly.divides divides the dividend by
all factors in one power series and never expands the divisor, whether the
division is exact or not.
"""

from __future__ import annotations

from .cyclotomic import FactoredPoly, factor_one_plus_qd


def _ev_exponents(n: int) -> list[int]:
    """2^j r for j = 0..s, where n = 2^s r with r odd."""
    r = n // (n & -n)
    return [r << j for j in range((n // r).bit_length())]


def big_p(n: int) -> FactoredPoly:
    """P_n = prod_{r>=0} Phi_{4r+2}^{floor(n/(2r+1))}, the q-Salie divisor.

    Equivalently prod_{k<=n} (1 + q^(odd part of k)), or
    prod_r (1+q^{2r+1})^{a(n,r)} where a(n, r) counts the integers
    2^s (2r+1) <= n; P_n(1) = 2^n.
    """
    if n < 1:
        raise ValueError("index must be positive")
    return FactoredPoly(
        {4 * r + 2: n // (2 * r + 1) for r in range((n + 1) // 2)}
    )


def ev(n: int) -> FactoredPoly:
    """Ev_n = prod_{j=0..s} (1 + q^(2^j r)) for n = 2^s r with r odd."""
    if n < 1:
        raise ValueError("index must be positive")
    return factor_one_plus_qd(*_ev_exponents(n))


def big_d(n: int) -> FactoredPoly:
    """D_n = prod_{k<=n} Ev_k, with an extra factor 1 + q^2 for even n.

    The q-tangent number T_{2n+1} is divisible by D_n.
    """
    if n < 1:
        raise ValueError("index must be positive")
    extra = [2] if n % 2 == 0 else []
    return factor_one_plus_qd(*(j for k in range(1, n + 1) for j in _ev_exponents(k)), *extra)


def _q_bar_pairs(n: int) -> list[tuple[int, int]]:
    if n < 1:
        raise ValueError("index must be positive")
    return [(4 * r, n // (2 * r)) for r in range(1, n // 2 + 1)]


def q_bar(n: int) -> FactoredPoly:
    """Qbar_n = prod_{r>=1} Phi_{4r}^{floor(n/(2r))}, the even counterpart of P_n."""
    return FactoredPoly(_q_bar_pairs(n))


def q_hat(n: int) -> FactoredPoly:
    """Qhat_n = Qbar_n for even n, (1 + q^2) Qbar_n = Phi_4 Qbar_n for odd n."""
    return FactoredPoly(_q_bar_pairs(n) + [(4, n % 2)])


def q_tilde(n: int) -> FactoredPoly:
    """Qtilde_n = (1+q)(1+q^2)...(1+q^n)."""
    if n < 1:
        raise ValueError("index must be positive")
    return factor_one_plus_qd(*range(1, n + 1))


DIVISOR_FAMILIES = {
    "P": big_p,
    "D": big_d,
    "Ev": ev,
    "Qbar": q_bar,
    "Qhat": q_hat,
    "Qtilde": q_tilde,
}
