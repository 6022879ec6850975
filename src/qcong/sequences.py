"""The seven q-polynomial families: a q-Seidel triangle and one recurrence.

Write e(m) = (-1)^m E_{2m}(q), the inversion generating function of the
alternating permutations of [2m].  Each q-Salie family is defined by
sum_{j<=n} (-1)^(n-j) [2n over 2j] f(j) = q^l(n); e is the inverse of
(-1)^m under that convolution, so

    f(n) = sum_j [2n over 2j] q^l(j) e(n-j),

    value        function      l(j)
    S_{2n}       salie         j
    Sbar_{2n}    salie_bar     0
    Shat_{2n}    salie_hat     2j
    Stil_{2n}    salie_tilde   j^2

that is, f(n) is the inversion generating function of the permutations of
[2n] written as an alternating word followed by an increasing word of length
2j, each weighted by q^l(j).  Such words are built from the right: prepending
a letter of rank t among the L+1 letters adds t inversions.  Row L of the
triangle holds F_L(r), r = 0..L-1, the words of length L whose first letter
has rank r.  The source sigma(L) = q^l(L/2) at even L is the increasing tail
of length L, a first letter of virtual rank -1 that any letter may precede:

    L even:  F_{L+1}(t) = q^t (sigma(L) + sum_{r<t} F_L(r)),
    L odd:   F_{L+1}(t) = q^t sum_{r>=t} F_L(r),
    value read at row L:  sigma(L) + sum_r F_L(r),   f(n) at row 2n.

With sigma(L) = [L = 0] the even rows read e(n), so euler(n) = (-1)^n e(n),
and the odd rows read the down-up permutations of [2n+1], which are
tangent(n).  Every coefficient counts (permutation of [L], tail length)
pairs, so it is at most L! (L//2 + 1): a row is a list of Python ints with
that many nonnegative digits of a fixed byte width, q^t is a left shift and
the whole triangle is additions, with no product and no Gaussian binomial.

gen_euler keeps the generalized Euler recurrence
E^(k)_{kn} = -sum_{j<n} [kn over kj] E^(k)_{kj}, E^(k)_0 = 1, and
gen_euler_at_one runs it over the integers, for the checks that only read
values at q = 1.  All functions are memoized.  Index convention: the
argument n is the recurrence index; the polynomial subscript is 2n for the
even families, 2n+1 for the tangent family, and k*n for the generalized
Euler family with parameter k.
"""

from __future__ import annotations

import functools
import threading
from math import comb, factorial

from .poly import IntPoly
from .qbinom import gauss


def _recurrence(n: int, width: int, prefix, binom):
    """-sum_{j<n} binom(width*n, width*j) prefix(j), and binom(0, 0) at n = 0.

    `binom` is the image of the Gaussian binomial in the ring of the values,
    so binom(0, 0) is the value 1.  Ascending j keeps the call depth at two
    frames when `prefix` is the memoized caller.  Callers pass `gauss` by
    its module name, not as a default bound at import, so the wrappers that
    bench/tracer.py puts on that name see every call.
    """
    if width < 1:
        raise ValueError("family parameter must be positive")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return binom(0, 0)
    top = width * n
    total = 0
    for j in range(n):
        total = total + binom(top, width * j) * prefix(j)
    return -total


def _digit_bytes(length: int) -> int:
    """Bytes per coefficient that hold every entry of row `length`."""
    bound = factorial(length) * (length // 2 + 1)
    return (bound.bit_length() + 7) // 8


def _widen(packed: int, old: int, new: int) -> int:
    """`packed` with its `old`-byte digits moved into `new`-byte slots."""
    count = -(-packed.bit_length() // (8 * old))
    data = packed.to_bytes(count * old, "little")
    out = bytearray(count * new)
    for b in range(old):
        out[b::new] = data[b::old]
    return int.from_bytes(out, "little")


def _unpack(packed: int, width: int) -> IntPoly:
    """The polynomial whose `width`-byte coefficients are the digits of `packed`."""
    size = -(-packed.bit_length() // (8 * width)) * width
    data = packed.to_bytes(size, "little")
    return IntPoly(int.from_bytes(data[i : i + width], "little") for i in range(0, size, width))


class _Triangle:
    """The q-Seidel triangle of one source, advanced on demand.

    `source(j)` is the exponent l(j) of sigma(2j), or None where sigma(2j)
    is 0.  The triangle keeps its last row, the digit width, and the packed
    value read at every row it has passed, so a smaller index asked after a
    larger one is decoded, not recomputed.
    """

    def __init__(self, source):
        self._source = source
        self._lock = threading.Lock()
        self._row: list[int] = []
        self._width = 1
        self._values: list[tuple[int, int]] = []  # (packed value, width) per row

    def value(self, length: int) -> IntPoly:
        """sigma(length) + sum_r F_length(r) as a polynomial."""
        if length < 0:
            raise ValueError("index must be nonnegative")
        with self._lock:
            if length >= len(self._values):
                self._advance(length + 1)
            packed, width = self._values[length]
        return _unpack(packed, width)

    def _advance(self, stop: int) -> None:
        """Step from the current row to row `stop`, keeping each row's value."""
        start = len(self._values)
        if self._width < _digit_bytes(stop):
            # widen for a row half again as long, so widening is rare
            width = max(_digit_bytes(stop), _digit_bytes(start + start // 2))
            self._row = [_widen(x, self._width, width) for x in self._row]
            self._width = width
        # each row overwrites the last in place, entry by entry, so only
        # one row is held at a time
        bits, row = 8 * self._width, self._row
        for length in range(start, stop):
            if length % 2:
                acc = 0
                for t in range(length - 1, -1, -1):
                    acc += row[t]
                    row[t] = acc << (t * bits)
                row.append(0)
            else:
                exponent = self._source(length // 2)
                acc = 0 if exponent is None else 1 << (exponent * bits)
                for t, entry in enumerate(row):
                    row[t] = acc << (t * bits)
                    acc += entry
                row.append(acc << (length * bits))
            self._values.append((acc, self._width))


_EULER_TANGENT = _Triangle(lambda j: None if j else 0)
_SALIE = _Triangle(lambda j: j)
_SALIE_BAR = _Triangle(lambda j: 0)
_SALIE_HAT = _Triangle(lambda j: 2 * j)
_SALIE_TILDE = _Triangle(lambda j: j * j)


@functools.lru_cache(maxsize=None)
def gen_euler(k: int, n: int) -> IntPoly:
    """Generalized q-Euler numbers E^(k)_{kn}(q); the k = 2 family is euler()."""
    prefix = functools.partial(gen_euler, k)
    return _recurrence(n, k, prefix, gauss)


@functools.lru_cache(maxsize=None)
def gen_euler_at_one(k: int, n: int) -> int:
    """E^(k)_{kn}(1), the image of gen_euler(k, n) under q -> 1.

    Evaluation at 1 is a ring map Z[q] -> Z sending [a over b]_q to C(a, b),
    so the same recurrence run over the integers gives the exact value
    without building the polynomial.
    """
    prefix = functools.partial(gen_euler_at_one, k)
    return _recurrence(n, k, prefix, comb)


@functools.lru_cache(maxsize=None)
def euler(n: int) -> IntPoly:
    """q-Euler (q-secant) numbers E_{2n}(q); E_0 = 1, E_2 = -1."""
    value = _EULER_TANGENT.value(2 * n)
    return -value if n % 2 else value


@functools.lru_cache(maxsize=None)
def tangent(n: int) -> IntPoly:
    """q-tangent numbers T_{2n+1}(q); T_1 = 1, T_3 = q + q^2."""
    return _EULER_TANGENT.value(2 * n + 1)


@functools.lru_cache(maxsize=None)
def salie(n: int) -> IntPoly:
    """q-Salie numbers S_{2n}(q); S_0 = 1, S_2 = 1 + q."""
    return _SALIE.value(2 * n)


@functools.lru_cache(maxsize=None)
def salie_bar(n: int) -> IntPoly:
    """Variant q-Salie numbers Sbar_{2n}(q) with constant numerator term 1."""
    return _SALIE_BAR.value(2 * n)


@functools.lru_cache(maxsize=None)
def salie_hat(n: int) -> IntPoly:
    """Variant q-Salie numbers Shat_{2n}(q) with numerator term q^{2n}."""
    return _SALIE_HAT.value(2 * n)


@functools.lru_cache(maxsize=None)
def salie_tilde(n: int) -> IntPoly:
    """Variant q-Salie numbers Stil_{2n}(q) with numerator term q^{n^2}."""
    return _SALIE_TILDE.value(2 * n)


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
