"""Divisor families for the q-Salie and q-tangent divisibility theorems.

Every family is a product of binomials 1 + q^j, kept in cyclotomic-factored
form (FactoredPoly) and built from its exponents j by one call to
cyclotomic.factor_one_plus_qd.  Write k = 2^s r with r odd, so that Ev_k is
the chain (1 + q^r)(1 + q^2r)...(1 + q^k): P_n takes the first binomial
1 + q^r of each of Ev_1 ... Ev_n and Qbar_n all the others, so
D_n = P_n Qbar_n (1 + q^2)^[n even] and Qhat_n = Qbar_n (1 + q^2)^[n odd].
"""

from .cyclotomic import FactoredPoly, factor_one_plus_qd


def _ev_chains(n: int) -> tuple[list[int], list[int]]:
    """The exponents of Ev_k, k = 2^s r <= n with r odd: each r, and k, ..., 2r."""
    if n < 1:
        raise ValueError("index must be positive")
    firsts = [k // (k & -k) for k in range(1, n + 1)]
    others = [k >> j for k in range(2, n + 1, 2) for j in range((k & -k).bit_length() - 1)]
    return firsts, others


def big_p(n: int) -> FactoredPoly:
    """P_n = prod_{k<=n} (1 + q^(odd part of k)), the q-Salie divisor;
    equivalently prod_{r>=0} Phi_{4r+2}^{floor(n/(2r+1))}, and P_n(1) = 2^n.

    >>> print(big_p(6))
    Phi_2^6 * Phi_6^2 * Phi_10
    """
    return factor_one_plus_qd(*_ev_chains(n)[0])


def ev(n: int) -> FactoredPoly:
    """Ev_n = prod_{j=0..s} (1 + q^(2^j r)) for n = 2^s r with r odd."""
    if n < 1:
        raise ValueError("index must be positive")
    return factor_one_plus_qd(*(n >> j for j in range((n & -n).bit_length())))


def big_d(n: int) -> FactoredPoly:
    """D_n = prod_{k<=n} Ev_k, times 1 + q^2 for even n, which divides the
    q-tangent number T_{2n+1}.

    >>> print(big_d(6))
    Phi_2^6 * Phi_4^4 * Phi_6^2 * Phi_8 * Phi_10 * Phi_12
    """
    firsts, others = _ev_chains(n)
    return factor_one_plus_qd(*firsts, *others, *[2] * (1 - n % 2))


def q_bar(n: int) -> FactoredPoly:
    """Qbar_n = the binomials of Ev_1 ... Ev_n past the first of each, the
    even counterpart of P_n; equivalently prod_{r>=1} Phi_{4r}^{floor(n/2r)}.

    >>> print(q_bar(6))
    Phi_4^3 * Phi_8 * Phi_12
    """
    return factor_one_plus_qd(*_ev_chains(n)[1])


def q_hat(n: int) -> FactoredPoly:
    """Qhat_n = Qbar_n for even n, (1 + q^2) Qbar_n = Phi_4 Qbar_n for odd n."""
    return factor_one_plus_qd(*_ev_chains(n)[1], *[2] * (n % 2))


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
