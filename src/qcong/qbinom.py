"""Gaussian binomial polynomials [m over n]_q.

The one computation path is the q-Pascal recurrence
[m, n] = [m-1, n-1] + q^n [m-1, n], which is division-free and keeps all
coefficients nonnegative.  gauss_factored gives the cyclotomic
factorization by the floor-count criterion, and q_lucas_sides the q-Lucas
reduction at a root of unity.  The tests check gauss against both and
against the quotient (q;q)_m / ((q;q)_n (q;q)_{m-n}).
"""

from __future__ import annotations

import functools
import threading
from math import comb

from .cyclotomic import FactoredPoly
from .poly import IntPoly, ONE, ZERO
from .residues import ResidueElem, inject


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
    """
    with _fill_lock:
        rows = []
        for i in range(m, -1, -1):
            cone = range(max(0, n - (m - i)), min(n, i) + 1)
            needed = {min(k, i - k) for k in cone}
            missing = needed - _held.setdefault(i, set())
            if missing:
                rows.append((i, missing))
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
