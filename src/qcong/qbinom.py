"""Gaussian binomial polynomials [m over n]_q.

The one computation path is the quotient
[m over n]_q = prod_{j<=n} (1 - q^(m-n+j)) / (1 - q^j), taken as a product
of binomials in power series, as cyclotomic polynomials are.  The tests
check gauss against the q-Pascal recurrence, against
(q;q)_m / ((q;q)_n (q;q)_{m-n}) by long division, against its cyclotomic
factorization by the floor-count criterion, and against the q-Lucas
reduction modulo Phi_d.
"""

import functools

from .cyclotomic import _binomial_series, _refuse_series
from .poly import IntPoly


def gauss(m: int, n: int) -> IntPoly:
    """The Gaussian polynomial [m over n]_q; zero when n is out of range.

    >>> print(gauss(4, 2))
    1 + q + 2q^2 + q^3 + q^4
    """
    if m < 0:
        raise ValueError("upper index must be nonnegative")
    if n < 0 or n > m:
        return IntPoly()
    return _gauss(m, min(n, m - n))


@functools.lru_cache(maxsize=None)
def _gauss(m: int, n: int) -> IntPoly:
    # n is already normalized to min(n, m - n), halving the memo table.
    # Step j multiplies by 1 - q^(m-n+j) and divides by 1 - q^j, so after
    # it the series is [m-n+j over j] exactly, of degree j(m-n), which is
    # coefficientwise at most [m over n]: no coefficient on the way is
    # more than twice the largest of the result.  The series weighs all 2n
    # steps at q = 1, O(n^2) bit work, once they are built, so its floor in
    # bytes is stated first, in its words: its passes are the n divisions
    # and the multiplications with m - n + j <= degree.
    degree = n * (m - n)
    _refuse_series(n + min(n, max(0, degree - m + n)), degree, None)
    steps = [
        step for j in range(1, n + 1) for step in ((m - n + j, False, False), (j, True, False))
    ]
    return IntPoly(_binomial_series(steps, degree))
