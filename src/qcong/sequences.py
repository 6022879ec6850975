"""The seven q-polynomial families, generated by one convolution recurrence.

Every family is defined by a quotient of even/odd q-exponential-like series;
multiplying through by the denominator and comparing coefficients turns each
definition into a finite recurrence over Gaussian polynomials.  All of them
have the shape

    f(n) = lead(n) - sum_{j<n} s_j [w*n+o over w*j+o] f(j),     f(0) = 1,

with s_j = (-1)^(n-j) for the alternating families and s_j = 1 otherwise:

    value        function      lead(n)    w   o   alternating
    E_{2n}       euler         0          2   0   no
    E^(k)_{kn}   gen_euler     0          k   0   no
    T_{2n+1}     tangent       (-1)^n     2   1   yes
    S_{2n}       salie         q^n        2   0   yes
    Sbar_{2n}    salie_bar     1          2   0   yes
    Shat_{2n}    salie_hat     q^{2n}     2   0   yes
    Stil_{2n}    salie_tilde   q^{n^2}    2   0   yes

euler(n) is gen_euler(2, n).  All functions are memoized, so asking for
index n fills the prefix 0..n once.  gen_euler_at_one runs the generalized
Euler recurrence over the integers, for the checks that only read values at
q = 1.  Index convention: the argument n is the recurrence index; the
polynomial subscript is 2n for the even families, 2n+1 for the tangent
family, and k*n for the generalized Euler family with parameter k.
"""

from __future__ import annotations

import functools
from math import comb

from .poly import IntPoly, ONE, q_power
from .qbinom import gauss


def _recurrence(n: int, lead, width: int, offset: int, alternate: bool, prefix, binom):
    """lead(n) - sum_{j<n} s_j binom(width*n+offset, width*j+offset) prefix(j).

    s_j is (-1)^(n-j) when `alternate` is set and 1 otherwise.  `binom` is
    the image of the Gaussian binomial in the ring of the values, so
    binom(0, 0) is the value 1 at n = 0.  Ascending j keeps the call depth
    at two frames when `prefix` is the memoized caller.  Callers pass
    `gauss` by its module name, not as a default bound at import, so the
    wrappers that bench/tracer.py puts on that name see every call.
    """
    if width < 1:
        raise ValueError("family parameter must be positive")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return binom(0, 0)
    top = width * n + offset
    total = 0
    for j in range(n):
        term = binom(top, width * j + offset) * prefix(j)
        total = total - term if alternate and (n - j) % 2 else total + term
    return lead(n) - total


@functools.lru_cache(maxsize=None)
def gen_euler(k: int, n: int) -> IntPoly:
    """Generalized q-Euler numbers E^(k)_{kn}(q); the k = 2 family is euler()."""
    prefix = functools.partial(gen_euler, k)
    return _recurrence(n, lambda i: 0, k, 0, False, prefix, gauss)


@functools.lru_cache(maxsize=None)
def gen_euler_at_one(k: int, n: int) -> int:
    """E^(k)_{kn}(1), the image of gen_euler(k, n) under q -> 1.

    Evaluation at 1 is a ring map Z[q] -> Z sending [a over b]_q to C(a, b),
    so the same recurrence run over the integers gives the exact value
    without building the polynomial.
    """
    prefix = functools.partial(gen_euler_at_one, k)
    return _recurrence(n, lambda i: 0, k, 0, False, prefix, comb)


@functools.lru_cache(maxsize=None)
def euler(n: int) -> IntPoly:
    """q-Euler (q-secant) numbers E_{2n}(q); E_0 = 1, E_2 = -1."""
    return gen_euler(2, n)


@functools.lru_cache(maxsize=None)
def tangent(n: int) -> IntPoly:
    """q-tangent numbers T_{2n+1}(q); T_1 = 1, T_3 = q + q^2."""
    return _recurrence(n, lambda i: (-1) ** i, 2, 1, True, tangent, gauss)


@functools.lru_cache(maxsize=None)
def salie(n: int) -> IntPoly:
    """q-Salie numbers S_{2n}(q); S_0 = 1, S_2 = 1 + q."""
    return _recurrence(n, q_power, 2, 0, True, salie, gauss)


@functools.lru_cache(maxsize=None)
def salie_bar(n: int) -> IntPoly:
    """Variant q-Salie numbers Sbar_{2n}(q) with constant numerator term 1."""
    return _recurrence(n, lambda i: ONE, 2, 0, True, salie_bar, gauss)


@functools.lru_cache(maxsize=None)
def salie_hat(n: int) -> IntPoly:
    """Variant q-Salie numbers Shat_{2n}(q) with numerator term q^{2n}."""
    return _recurrence(n, lambda i: q_power(2 * i), 2, 0, True, salie_hat, gauss)


@functools.lru_cache(maxsize=None)
def salie_tilde(n: int) -> IntPoly:
    """Variant q-Salie numbers Stil_{2n}(q) with numerator term q^{n^2}."""
    return _recurrence(n, lambda i: q_power(i * i), 2, 0, True, salie_tilde, gauss)


# family tag -> generator; gen-euler takes the extra parameter k first.
_FAMILIES = {
    "euler": euler,
    "tangent": tangent,
    "salie": salie,
    "gen-euler": gen_euler,
    "salie-bar": salie_bar,
    "salie-hat": salie_hat,
    "salie-tilde": salie_tilde,
}

SEQUENCE_FAMILIES = tuple(_FAMILIES)


def family_value(family: str, n: int, k: int | None = None) -> IntPoly:
    """Dispatch on a family tag; gen-euler requires the extra parameter k."""
    if family == "gen-euler":
        if k is None:
            raise ValueError("family gen-euler requires the parameter k")
        return gen_euler(k, n)
    try:
        return _FAMILIES[family](n)
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
