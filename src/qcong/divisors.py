"""Divisor families for the q-Salie and q-tangent divisibility theorems.

All products are kept in cyclotomic-factored form (FactoredPoly).  Each is
a product of binomials 1 + q^j, so FactoredPoly.divides strips them from the
dividend one exact quotient at a time and never expands the divisor unless
the division fails.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import FactoredPoly, factor_one_plus_qd


class OddPartDecomposition(NamedTuple):
    """n = 2**s * (2*r + 1), with s the 2-adic valuation of n."""

    n: int
    s: int
    r: int


def odd_part(n: int) -> OddPartDecomposition:
    """Split a positive integer into its 2-power and odd part."""
    if n < 1:
        raise ValueError("need a positive integer")
    s, m = 0, n
    while m % 2 == 0:
        s += 1
        m //= 2
    return OddPartDecomposition(n, s, (m - 1) // 2)


def big_p(n: int) -> FactoredPoly:
    """P_n = prod_{r>=0} Phi_{4r+2}^{floor(n/(2r+1))}, the q-Salie divisor.

    Equivalently prod_{k<=n} (1 + q^(odd part of k)), or
    prod_r (1+q^{2r+1})^{a(n,r)} where a(n, r) counts the integers
    2^s (2r+1) <= n; P_n(1) = 2^n.
    """
    if n < 1:
        raise ValueError("need a positive integer")
    return FactoredPoly(
        {4 * r + 2: n // (2 * r + 1) for r in range((n + 1) // 2)}
    )


def ev(n: int) -> FactoredPoly:
    """Ev_n = prod_{j=0..s} (1 + q^(2^j r)) for n = 2^s r with r odd."""
    dec = odd_part(n)
    odd = 2 * dec.r + 1
    out = FactoredPoly()
    for j in range(dec.s + 1):
        out = out * factor_one_plus_qd((1 << j) * odd)
    return out


def big_d(n: int) -> FactoredPoly:
    """D_n = prod_{k<=n} Ev_k, with an extra factor 1 + q^2 for even n.

    The q-tangent number T_{2n+1} is divisible by D_n.
    """
    if n < 1:
        raise ValueError("need a positive integer")
    out = FactoredPoly()
    for k in range(1, n + 1):
        out = out * ev(k)
    if n % 2 == 0:
        out = out * factor_one_plus_qd(2)
    return out


def q_bar(n: int) -> FactoredPoly:
    """Qbar_n = prod_{r>=1} Phi_{4r}^{floor(n/(2r))}, the even counterpart of P_n."""
    if n < 1:
        raise ValueError("need a positive integer")
    return FactoredPoly({4 * r: n // (2 * r) for r in range(1, n // 2 + 1)})


def q_hat(n: int) -> FactoredPoly:
    """Qhat_n = Qbar_n for even n, (1 + q^2) Qbar_n for odd n."""
    out = q_bar(n)
    if n % 2 == 1:
        out = out * factor_one_plus_qd(2)
    return out


def q_tilde(n: int) -> FactoredPoly:
    """Qtilde_n = (1+q)(1+q^2)...(1+q^n)."""
    if n < 1:
        raise ValueError("need a positive integer")
    out = FactoredPoly()
    for j in range(1, n + 1):
        out = out * factor_one_plus_qd(j)
    return out


DIVISOR_FAMILIES = {
    "P": big_p,
    "D": big_d,
    "Ev": ev,
    "Qbar": q_bar,
    "Qhat": q_hat,
    "Qtilde": q_tilde,
}
