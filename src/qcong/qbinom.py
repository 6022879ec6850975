"""Gaussian binomial polynomials [m over n]_q.

The one computation path is the q-Pascal recurrence
[m, n] = [m-1, n-1] + q^n [m-1, n], which is division-free and keeps all
coefficients nonnegative.  gauss_factored gives the cyclotomic factorization
by the floor-count criterion, and q_lucas_sides the two sides of the q-Lucas
reduction as residues modulo Phi_d.  The tests check gauss against both and
against the quotient (q;q)_m / ((q;q)_n (q;q)_{m-n}).
"""

from __future__ import annotations

import functools
import threading
from math import comb

from .cyclotomic import FactoredPoly
from .perms import SizeLimitExceeded
from .poly import IntPoly, ONE, ZERO
from .residues import inject

# The most bytes one request may add to the table.  Entry [i over k] holds
# k(i-k)+1 coefficients of about 11 bytes each while they fit the small-int
# cache: gauss(N, 1) fills ~N^2/2 of them, and on CPython 3.11 N = 4,000 /
# 8,000 / 13,500 peak at 110 / 388 / 1,071 MB; N = 13,900 is about the last
# under the limit.
GAUSS_BYTES_LIMIT = 1 << 30


def gauss(m: int, n: int) -> IntPoly:
    """The Gaussian polynomial [m over n]_q; zero when n is out of range."""
    if m < 0:
        raise ValueError("upper index must be nonnegative")
    if n < 0 or n > m:
        return ZERO
    n = min(n, m - n)
    if n not in _held.get(m, ()):
        _fill(m, n)
    return _gauss(m, n)


@functools.lru_cache(maxsize=None)
def _gauss(m: int, n: int) -> IntPoly:
    # n is already normalized to min(n, m - n), halving the memo table.
    if n == 0:
        return ONE
    return gauss(m - 1, n - 1) + gauss(m - 1, n).shift(n)


# _held[m]: the normalized columns n with _gauss(m, n) in the table.
_held: dict[int, set[int]] = {}
_fill_lock = threading.Lock()


def _fill(m: int, n: int) -> None:
    """Put the entries [m over n] rests on in the table, lowest row first.

    Row i < m needs the columns [n-(m-i), n] of [m over n]'s q-Pascal
    cone.  The rows with entries missing are collected from row m down
    and filled upward, so each entry is one step from entries the table
    already holds and the call depth stays the same however large m is.
    The bytes of the missing entries are counted as they are collected,
    largest rows first, and past GAUSS_BYTES_LIMIT nothing is filled.
    """
    with _fill_lock:
        # larger coefficients add an int object each, sized by the mean
        # C(m, n) / (n(m-n)+1) of [m over n]; gauss(200, 100) fills 12.9 M
        # coefficients, 63 bytes each by this count, and peaks at 709 MB
        mean = comb(m, n) // (n * (m - n) + 1) if n * (m - n) < GAUSS_BYTES_LIMIT else 0
        per_coeff = 11 if mean <= 256 else 39 + mean.bit_length() // 30 * 4
        rows, size = [], 0
        for i in range(m, -1, -1):
            cone = range(max(0, n - (m - i)), min(n, i) + 1)
            needed = {min(k, i - k) for k in cone}
            missing = needed - _held.setdefault(i, set())
            if missing:
                rows.append((i, missing))
                size += per_coeff * sum(k * (i - k) + 1 for k in missing)
                if size > GAUSS_BYTES_LIMIT:
                    raise SizeLimitExceeded(
                        f"[{m} over {n}]_q would fill more than the "
                        f"{GAUSS_BYTES_LIMIT >> 20} MB limit of the Gaussian-binomial table"
                    )
            if not missing or needed == {0}:
                break  # held entries, or [i over 0] = 1, rest on nothing
        for i, missing in reversed(rows):
            for k in missing:
                _gauss(i, k)
            _held[i] |= missing


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
    lhs = inject(gauss(m, k), d)
    rhs = comb(a, r) * inject(gauss(b, s), d)
    return lhs, rhs


def q_lucas_holds(m: int, k: int, d: int) -> bool:
    """Whether the q-Lucas reduction is an equality for these parameters."""
    lhs, rhs = q_lucas_sides(m, k, d)
    return lhs == rhs
