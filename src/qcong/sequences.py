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
list of Python ints with nonnegative digits wide enough for that, in the
packed format of `poly`, read by its `_digits`; q^t is a left shift and the
triangle is additions, with no product and no Gaussian binomial.

gen_euler_at_one runs the generalized Euler recurrence over the integers.
Before it builds, a triangle and gen_euler_at_one each state their peak bytes
and steps to `poly.refuse`, the one size guard.  All functions are memoized.
The argument n is the recurrence index; the polynomial subscript is 2n,
2n+1 for tangent, and k*n for gen_euler.
"""

import functools
import threading
from math import comb, factorial

from .poly import IntPoly, _digits, refuse


class _Triangle:
    """The q-Seidel triangle of block length k and one source, built on demand.

    `source(j)` is the exponent l(j) of sigma(kj), or None where sigma(kj)
    is 0.  The triangle keeps one digit width and the packed value read at
    each row it built, and no row: a smaller index asked after a larger one
    is decoded, not recomputed, and an index past the built rows builds the
    triangle again from row 0.
    """

    def __init__(self, k: int, source):
        self._k = k
        self._source = source
        self._lock = threading.Lock()
        self._width = 1
        self._values: list[int] = []  # the packed value of each row

    def value(self, length: int) -> IntPoly:
        """sigma(length) + sum_r F_length(r) as a polynomial."""
        if length < 0:
            raise ValueError("index must be nonnegative")
        with self._lock:
            if length >= len(self._values):
                self._advance(length + 1)
            packed, width = self._values[length], self._width
        return IntPoly(_digits(packed, width, -(-packed.bit_length() // (8 * width))))

    def _digit_bytes(self, length: int) -> int:
        """Bytes per coefficient that hold every entry of row `length`: one
        below a block, with no k! taken."""
        blocks, top = divmod(length, self._k)
        if not blocks:
            return 1
        bound = factorial(length) // (factorial(self._k) ** blocks * factorial(top))
        return ((bound * (blocks + 1)).bit_length() + 7) // 8

    def _advance(self, stop: int) -> None:
        """Build rows 0 .. stop - 1 at the digit width of row `stop`, keeping
        each row's value in place of the values built before."""
        # row `stop` is stop entries of about stop^2/2 digits, counted twice,
        # as the allocator keeps much of what each row frees as it overwrites
        # the last; the packed values of the rows before it and an IntPoly of
        # each, at 36 bytes more a coefficient, are a third of a row each.
        # Row L takes L^3/2 digit additions, one step a machine word.
        what = f"row {stop} of the q-Seidel triangle"
        refuse(what, stop**3 * 22 // 3, 0)  # at one-byte digits, before any factorial
        width = self._digit_bytes(stop)
        refuse(what, stop**3 * (4 * width + 18) // 3, stop**4 * width // 64)
        # the old values go before the build, so they are never held with the
        # new ones; each row overwrites the last in place, entry by entry, and
        # the one row held goes when the build ends
        self._width, self._values = width, []
        bits, row = 8 * width, []
        for length in range(stop):
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
            self._values.append(acc)


_SALIE = _Triangle(2, lambda j: j)
_SALIE_BAR = _Triangle(2, lambda j: 0)
_SALIE_HAT = _Triangle(2, lambda j: 2 * j)
_SALIE_TILDE = _Triangle(2, lambda j: j * j)
# block length k -> the triangle of source [L = 0], made on first use
_EULER: dict[int, _Triangle] = {}


def _euler_triangle(k: int) -> _Triangle:
    triangle = _EULER.get(k)
    if triangle is None:
        # setdefault keeps one triangle per k when two threads race here
        triangle = _EULER.setdefault(k, _Triangle(k, lambda j: None if j else 0))
    return triangle


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
    C(kn, kj) has at most kn bits and each value at most kj log2(kn), so the
    values take about k n^2 log2(kn) / 16 bytes and their products, a step a
    pair of machine words, about k^2 n^4 log2(kn) / 2^15 steps.
    """
    if k < 1:
        raise ValueError("family parameter must be positive")
    if n < 0:
        raise ValueError("index must be nonnegative")
    bits = (k * n).bit_length()
    refuse(f"E^({k})_{k * n}(1)", k * n * n * bits // 16, k * k * n**4 * bits >> 15)
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
