"""The seven q-polynomial families, generated by convolution recurrences.

Every family is defined by a quotient of even/odd q-exponential-like series;
multiplying through by the denominator and comparing coefficients turns each
definition into a finite recurrence over Gaussian polynomials, which is what
gets implemented.  The recurrences for the q-Euler and variant q-Salie
numbers are:

    E_{2m}    = -sum_{k<m} [2m over 2k] E_{2k},                 E_0 = 1
    E^(c)_{cn} = -sum_{j<n} [cn over cj] E^(c)_{cj},            E^(c)_0 = 1
    Sbar_{2n} = 1       - sum_{k<n} (-1)^{n-k} [2n over 2k] Sbar_{2k}
    Shat_{2n} = q^{2n}  - sum_{k<n} (-1)^{n-k} [2n over 2k] Shat_{2k}
    Stil_{2n} = q^{n^2} - sum_{k<n} (-1)^{n-k} [2n over 2k] Stil_{2k}

The q-Salie and q-tangent recurrences follow from their definitions by the
same coefficient comparison:

    S_{2n}    = q^n     - sum_{k<n} (-1)^{n-k} [2n over 2k] S_{2k}
    T_{2n+1}  = (-1)^n  - sum_{k<n} (-1)^{n-k} [2n+1 over 2k+1] T_{2k+1}

All functions are memoized, so asking for index n fills the prefix 0..n once.
gen_euler_at_one runs the generalized Euler recurrence over the integers,
for the checks that only read values at q = 1.
Index convention: the argument n is the recurrence index; the polynomial
subscript is 2n for the even families, 2n+1 for the tangent family, and c*n
for the generalized Euler family with parameter c.
"""

from __future__ import annotations

import functools
from math import comb

from .poly import IntPoly, ONE, ZERO, q_power
from .qbinom import gauss


def _gen_euler_step(k: int, n: int, binom, prefix, zero):
    """-sum_{j<n} binom(kn, kj) * prefix(j): the E^(k)_{kn} recurrence in any
    ring, given the image `binom` of the Gaussian binomial there, the earlier
    values `prefix(j)` and the ring's `zero`."""
    total = zero
    for j in range(n):
        total = total + binom(k * n, k * j) * prefix(j)
    return -total


def _check_gen_euler(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("family parameter must be positive")
    if n < 0:
        raise ValueError("index must be nonnegative")


@functools.lru_cache(maxsize=None)
def euler(n: int) -> IntPoly:
    """q-Euler (q-secant) numbers E_{2n}(q); E_0 = 1, E_2 = -1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return _gen_euler_step(2, n, gauss, euler, ZERO)


@functools.lru_cache(maxsize=None)
def gen_euler(k: int, n: int) -> IntPoly:
    """Generalized q-Euler numbers E^(k)_{kn}(q); the k = 2 family is euler()."""
    _check_gen_euler(k, n)
    if n == 0:
        return ONE
    return _gen_euler_step(k, n, gauss, functools.partial(gen_euler, k), ZERO)


def gen_euler_at_one(k: int, n: int) -> int:
    """E^(k)_{kn}(1), the image of gen_euler(k, n) under q -> 1.

    Evaluation at 1 is a ring map Z[q] -> Z sending [a over b]_q to C(a, b),
    so the same recurrence run over the integers gives the exact value
    without building the polynomial.  The table is filled bottom-up, so the
    call depth stays constant in n.
    """
    _check_gen_euler(k, n)
    for i in range(n):
        _gen_euler_at_one(k, i)
    return _gen_euler_at_one(k, n)


@functools.lru_cache(maxsize=None)
def _gen_euler_at_one(k: int, n: int) -> int:
    if n == 0:
        return 1
    return _gen_euler_step(k, n, comb, functools.partial(_gen_euler_at_one, k), 0)


def _sub_signed(total: IntPoly, e: int, term: IntPoly) -> IntPoly:
    """total - (-1)^e * term, by parity instead of a product with a sign."""
    return total + term if e % 2 else total - term


def _salie_variant(n: int, lead: IntPoly, prefix) -> IntPoly:
    total = lead
    for k in range(n):
        total = _sub_signed(total, n - k, gauss(2 * n, 2 * k) * prefix(k))
    return total


@functools.lru_cache(maxsize=None)
def tangent(n: int) -> IntPoly:
    """q-tangent numbers T_{2n+1}(q); T_1 = 1, T_3 = q + q^2."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    total = IntPoly(((-1) ** n,))
    for k in range(n):
        total = _sub_signed(total, n - k, gauss(2 * n + 1, 2 * k + 1) * tangent(k))
    return total


@functools.lru_cache(maxsize=None)
def salie(n: int) -> IntPoly:
    """q-Salie numbers S_{2n}(q); S_0 = 1, S_2 = 1 + q."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return _salie_variant(n, q_power(n), salie)


@functools.lru_cache(maxsize=None)
def salie_bar(n: int) -> IntPoly:
    """Variant q-Salie numbers Sbar_{2n}(q) with constant numerator term 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return _salie_variant(n, ONE, salie_bar)


@functools.lru_cache(maxsize=None)
def salie_hat(n: int) -> IntPoly:
    """Variant q-Salie numbers Shat_{2n}(q) with numerator term q^{2n}."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return _salie_variant(n, q_power(2 * n), salie_hat)


@functools.lru_cache(maxsize=None)
def salie_tilde(n: int) -> IntPoly:
    """Variant q-Salie numbers Stil_{2n}(q) with numerator term q^{n^2}."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return _salie_variant(n, q_power(n * n), salie_tilde)


SEQUENCE_FAMILIES = (
    "euler",
    "tangent",
    "salie",
    "gen-euler",
    "salie-bar",
    "salie-hat",
    "salie-tilde",
)

_PLAIN = {
    "euler": euler,
    "tangent": tangent,
    "salie": salie,
    "salie-bar": salie_bar,
    "salie-hat": salie_hat,
    "salie-tilde": salie_tilde,
}


def family_value(family: str, n: int, k: int | None = None) -> IntPoly:
    """Dispatch on a family tag; gen-euler requires the extra parameter k."""
    if family == "gen-euler":
        if k is None:
            raise ValueError("family gen-euler requires the parameter k")
        return gen_euler(k, n)
    try:
        return _PLAIN[family](n)
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
