"""The seven q-polynomial families, each read from a q-Seidel triangle.

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
2j, each weighted by q^l(j).  Likewise (-1)^n E^(k)_{kn}(q), where
E^(k)_{kn} = -sum_{j<n} [kn over kj] E^(k)_{kj}, counts by q^inv the
permutations of [kn] with descent set {k, 2k, ..., (n-1)k} (Stanley 1976);
k = 2 gives e.

Such words are built from the right: prepending a letter of rank t among
the L+1 letters adds t inversions, and makes a descent exactly when k | L.
Row L of the triangle of block length k holds F_L(r), r = 0..L-1, the words
of length L whose first letter has rank r.  The source sigma(L) = q^l(L/k)
at k | L is the increasing tail of length L, a first letter of virtual rank
-1 that any letter may precede:

    k | L:   F_{L+1}(t) = q^t (sigma(L) + sum_{r<t} F_L(r)),
    else:    F_{L+1}(t) = q^t sum_{r>=t} F_L(r),
    value read at row L:  sigma(L) + sum_r F_L(r).

With sigma(L) = [L = 0], row kn reads (-1)^n gen_euler(k, n), and at k = 2
the odd rows read the down-up permutations of [2n+1], tangent(n).  Every
coefficient counts (permutation of [L], tail) pairs; for L = bk + a the
permutation rises within a top block of a letters, the blocks of k and the
tail, so each of the b + 1 tails has at most L! / (a! k!^b).  A row is a
list of Python ints with nonnegative digits wide enough for that, q^t is a
left shift and the triangle is additions, with no product and no Gaussian
binomial.

gen_euler_at_one runs the generalized Euler recurrence over the integers.
All functions are memoized.  The argument n is the recurrence index; the
polynomial subscript is 2n, 2n+1 for tangent, and k*n for gen_euler.
"""

from __future__ import annotations

import functools
import threading
from math import comb, factorial

from .perms import SizeLimitExceeded
from .poly import IntPoly

# The largest triangle row, in estimated bytes, that a request may build:
# row L holds L entries of about L^2/2 digits.  euler(115) is the largest
# euler value under it; euler(200) needs a 10 GB row.
ROW_BYTES_LIMIT = 1 << 30

# The largest subscript k*n that gen_euler_at_one may take: its binomials
# C(kn, kj) grow with it.  On 2 vCPUs gen_euler_at_one(1 << 15, 3) takes
# 0.25 s, (1 << 16, 3) 0.9 s and (1 << 20, 3) more than a minute.
AT_ONE_INDEX_LIMIT = 1 << 16


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
    """The q-Seidel triangle of block length k and one source, advanced on demand.

    `source(j)` is the exponent l(j) of sigma(kj), or None where sigma(kj)
    is 0.  The triangle keeps its last row, the digit width, and the packed
    value read at every row it has passed, so a smaller index asked after a
    larger one is decoded, not recomputed.
    """

    def __init__(self, k: int, source):
        self._k = k
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

    def _digit_bytes(self, length: int) -> int:
        """Bytes per coefficient that hold every entry of row `length`."""
        blocks, top = divmod(length, self._k)
        bound = factorial(length) // (factorial(self._k) ** blocks * factorial(top))
        return ((bound * (blocks + 1)).bit_length() + 7) // 8

    def _advance(self, stop: int) -> None:
        """Step from the current row to row `stop`, keeping each row's value."""
        digits = stop**3 // 2  # checked first: a huge row's factorial is slow
        if digits > ROW_BYTES_LIMIT or digits * self._digit_bytes(stop) > ROW_BYTES_LIMIT:
            raise SizeLimitExceeded(
                f"row {stop} of the q-Seidel triangle would take more than "
                f"the {ROW_BYTES_LIMIT >> 20} MB row limit"
            )
        start = len(self._values)
        if self._width < self._digit_bytes(stop):
            # widen for a row half again as long, so widening is rare
            width = max(self._digit_bytes(stop), self._digit_bytes(start + start // 2))
            self._row = [_widen(x, self._width, width) for x in self._row]
            self._width = width
        # each row overwrites the last in place, entry by entry, so only
        # one row is held at a time
        bits, row = 8 * self._width, self._row
        for length in range(start, stop):
            if length % self._k:
                acc = 0
                for t in range(length - 1, -1, -1):
                    acc += row[t]
                    row[t] = acc << (t * bits)
                row.append(0)
            else:
                exponent = self._source(length // self._k)
                acc = 0 if exponent is None else 1 << (exponent * bits)
                for t, entry in enumerate(row):
                    row[t] = acc << (t * bits)
                    acc += entry
                row.append(acc << (length * bits))
            self._values.append((acc, self._width))


_SALIE = _Triangle(2, lambda j: j)
_SALIE_BAR = _Triangle(2, lambda j: 0)
_SALIE_HAT = _Triangle(2, lambda j: 2 * j)
_SALIE_TILDE = _Triangle(2, lambda j: j * j)
# block length k -> the triangle of source [L = 0], made on first use
_EULER: dict[int, _Triangle] = {}


def _euler_triangle(k: int) -> _Triangle:
    return _EULER.setdefault(k, _Triangle(k, lambda j: None if j else 0))


@functools.lru_cache(maxsize=None)
def gen_euler(k: int, n: int) -> IntPoly:
    """Generalized q-Euler numbers E^(k)_{kn}(q); the k = 2 family is euler()."""
    if k < 1:
        raise ValueError("family parameter must be positive")
    value = _euler_triangle(k).value(k * n)
    return -value if n % 2 else value


@functools.lru_cache(maxsize=None)
def gen_euler_at_one(k: int, n: int) -> int:
    """E^(k)_{kn}(1) = -sum_{j<n} C(kn, kj) E^(k)_{kj}(1), E^(k)_0(1) = 1.

    q -> 1 sends [a over b]_q to C(a, b), so this is the recurrence of
    gen_euler over the integers.  Ascending j keeps the call depth constant.
    """
    if k < 1:
        raise ValueError("family parameter must be positive")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if k * n > AT_ONE_INDEX_LIMIT:
        raise SizeLimitExceeded(
            f"E^({k})_{k * n}(1): subscript {k * n} is past the q = 1 limit of {AT_ONE_INDEX_LIMIT}"
        )
    return -sum(comb(k * n, k * j) * gen_euler_at_one(k, j) for j in range(n)) if n else 1


@functools.lru_cache(maxsize=None)
def euler(n: int) -> IntPoly:
    """q-Euler (q-secant) numbers E_{2n}(q); E_0 = 1, E_2 = -1."""
    return gen_euler(2, n)


@functools.lru_cache(maxsize=None)
def tangent(n: int) -> IntPoly:
    """q-tangent numbers T_{2n+1}(q); T_1 = 1, T_3 = q + q^2."""
    return _euler_triangle(2).value(2 * n + 1)


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
SEQUENCE_FAMILIES = {
    "euler": euler,
    "tangent": tangent,
    "salie": salie,
    "gen-euler": gen_euler,
    "salie-bar": salie_bar,
    "salie-hat": salie_hat,
    "salie-tilde": salie_tilde,
}
