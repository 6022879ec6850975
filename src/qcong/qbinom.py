"""Gaussian binomial polynomials [m over n]_q.

The one computation path is the quotient
[m over n]_q = prod_{j<=n} (1 - q^(m-n+j)) / (1 - q^j), taken as a product
of binomials in power series, as cyclotomic polynomials are.  gauss_factored
gives the cyclotomic factorization by the floor-count criterion, and
q_lucas_sides the two sides of the q-Lucas reduction as residues modulo
Phi_d.  The tests check gauss against the q-Pascal recurrence, against
(q;q)_m / ((q;q)_n (q;q)_{m-n}) by long division, and against the
expansion of gauss_factored.
"""

import functools
from math import comb

from .cyclotomic import FactoredPoly, _binomial_series, rem_cyclotomic
from .poly import IntPoly, ZERO


def gauss(m: int, n: int) -> IntPoly:
    """The Gaussian polynomial [m over n]_q; zero when n is out of range.

    >>> print(gauss(4, 2))
    1 + q + 2q^2 + q^3 + q^4
    """
    if m < 0:
        raise ValueError("upper index must be nonnegative")
    if n < 0 or n > m:
        return ZERO
    return _gauss(m, min(n, m - n))


@functools.lru_cache(maxsize=None)
def _gauss(m: int, n: int) -> IntPoly:
    # n is already normalized to min(n, m - n), halving the memo table.
    # Step j multiplies by 1 - q^(m-n+j) and divides by 1 - q^j, so after
    # it the series is [m-n+j over j] exactly, of degree j(m-n), which is
    # coefficientwise at most [m over n]: no coefficient on the way is
    # more than twice the largest of the result.
    steps = [
        step for j in range(1, n + 1) for step in ((m - n + j, False, False), (j, True, False))
    ]
    return IntPoly(_binomial_series(steps, n * (m - n)))


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


def q_lucas_sides(m: int, k: int, d: int) -> tuple[IntPoly, IntPoly]:
    """Both sides of the q-Lucas reduction at a primitive d-th root of unity.

    Writing m = a*d + b and k = r*d + s with 0 <= b, s < d, the left side is
    the residue of [m over k]_q in Z[q]/Phi_d and the right side is
    C(a, r) times the residue of [b over s]_q; both are reduced IntPolys,
    so the reduction holds exactly when they are equal.
    """
    if m < 0 or k < 0 or d < 1:
        raise ValueError("need m, k >= 0 and d >= 1")
    a, b = divmod(m, d)
    r, s = divmod(k, d)
    lhs = rem_cyclotomic(gauss(m, k), d)
    rhs = comb(a, r) * rem_cyclotomic(gauss(b, s), d)
    return lhs, rhs


def q_lucas_holds(m: int, k: int, d: int) -> bool:
    """Whether the q-Lucas reduction is an equality for these parameters."""
    lhs, rhs = q_lucas_sides(m, k, d)
    return lhs == rhs
