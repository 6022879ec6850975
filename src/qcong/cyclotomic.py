"""Cyclotomic polynomials and exact products of them.

Every polynomial expanded here, and the Gaussian binomials of ``qbinom``,
is a product of binomials 1 - q^d and their inverses, built by one
shift-and-add pass per binomial with no product and no long division.
``FactoredPoly`` represents a product prod_d Phi_d^{e_d} without expanding
it; since distinct cyclotomic polynomials are coprime, divisibility
questions between such products reduce to exponent comparisons, and lcm is
an exponent-wise max.  ``cyclotomic(n)`` is the one-factor product Phi_n,
expanded by ``FactoredPoly.expand``.

``FactoredPoly.divides`` divides on the same passes: the reversal of a
monic product is the product of the same binomials, so the reversed
dividend over it, in power series, holds the reversed quotient and, past
it, what the remainder comes back from.  No product is expanded.

>>> print(cyclotomic(6))
1 - q + q^2
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .perms import SizeLimitExceeded
from .poly import IntPoly

# The most bytes one binomial product may take: (nonempty passes) x
# (degree + 1) x (bytes per coefficient), 16 for the list and tuple slots
# of a small int, more for a mean coefficient (value at q = 1) / (degree + 1)
# past 256.  At the limit gauss(1184, 100) and gauss(6882961, 2) take
# 2.5-4.5 s and under 650 MB; gauss(20000000, 1) peaks at 319 MB.
SERIES_BYTES_LIMIT = 1 << 30


def _binomial_series(steps, degree: int, at_one=lambda: 1, start=(1,)) -> list[int]:
    """`start` times prod (1 - q^d)^(-1 if divide else 1) over (d, divide)
    in `steps`, in power series cut off above `degree`; `start` has at most
    degree + 1 coefficients.

    Every factor has constant term 1, so the coefficient of q^i depends
    only on those of degree at most i: a product that is a polynomial of
    degree at most `degree` comes out exactly.  Multiplying by 1 - q^d
    subtracts the series shifted by d, dividing by it takes running sums
    along each class of exponents mod d, and both are empty when d > degree.
    No coefficient above `top` is nonzero, so a multiply pass stops at
    top + d, and a divide pass at top when its last d sums are zero (the
    quotient is then a polynomial of degree top - d).  `at_one()`, the
    product at q = 1, is called only once the passes would fit the limit
    at 16 bytes a coefficient.
    """
    passes = [(d, divide) for d, divide in steps if d <= degree]
    count, size = len(passes) * (degree + 1), 16
    if count * size <= SERIES_BYTES_LIMIT:
        mean = at_one() // (degree + 1)
        if mean > 256:
            size = 39 + mean.bit_length() // 30 * 4
    if count * size > SERIES_BYTES_LIMIT:
        raise SizeLimitExceeded(
            f"a degree-{degree} series in {len(passes)} binomial pass(es) would "
            f"take more than the {SERIES_BYTES_LIMIT >> 20} MB series limit"
        )
    s, top = [*start] + [0] * (degree + 1 - len(start)), len(start) - 1
    for d, divide in passes:
        if not divide:
            top = min(top + d, degree)
            s[d : top + 1] = map(operator.sub, s[d : top + 1], s[: top + 1 - d])
            continue
        for r in range(min(d, top + 1)):
            s[r : top + 1 : d] = itertools.accumulate(s[r : top + 1 : d])
        if top >= d and not any(s[top - d + 1 : top + 1]):
            top -= d
            continue
        for i in range(max(d, top + 1), degree + 1):
            s[i] = s[i - d]
        top = degree
    return s


def _moebius(n: int) -> tuple[int, list[tuple[int, bool]]]:
    """phi(n), and each squarefree divisor e of n with whether mu(e) = -1.

    n has no more prime factors than there are first primes with product at
    most n, so n prod (p - 1)/p over those is at most phi(n): a series of
    degree phi(n) past the limit is refused on it before n is factored.
    Every prime below p divides `den`, so p is prime when coprime to it.
    """
    num, den, p = 1, 1, 2
    while den * p <= n:
        if math.gcd(den, p) == 1:
            num, den = num * (p - 1), den * p
        p += 1
    low = n * num // den
    if (low + 1) * 16 > SERIES_BYTES_LIMIT:
        raise SizeLimitExceeded(
            f"a series of degree at least {low} would take more than the "
            f"{SERIES_BYTES_LIMIT >> 20} MB series limit"
        )
    phi, squarefree, rest, p = n, [(1, False)], n, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            phi = phi // p * (p - 1)
            squarefree += [(e * p, not odd) for e, odd in squarefree]
            while rest % p == 0:
                rest //= p
        p += 1
    return phi, squarefree


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic with integer coefficients.

    The product of the single factor Phi_n, expanded: for n > 1 that is
    prod_{e|n} (1 - q^(n/e))^mu(e) in power series cut off above its
    degree phi(n), one pass per squarefree e.

    >>> print(cyclotomic(1))
    -1 + q
    >>> print(cyclotomic(2))
    1 + q
    >>> [i for i, c in enumerate(cyclotomic(105).coeffs) if c == -2]
    [7, 41]
    """
    return FactoredPoly({n: 1}).expand()


def rem_cyclotomic(p: IntPoly, m: int) -> IntPoly:
    """Canonical remainder of p modulo Phi_m.

    Phi_m divides q^(m/2) + 1 for even m and q^m - 1 for odd m, so p is
    first folded modulo that binomial in one pass; only the rest, of degree
    below m, is long-divided by Phi_m.  Remainders modulo a monic
    polynomial are unique, so this equals p.rem_monic(cyclotomic(m)).

    >>> print(rem_cyclotomic(IntPoly((0, 0, 0, 1)), 6))
    -1
    """
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    folded = p.rem_binomial(m // 2, -1) if m % 2 == 0 else p.rem_binomial(m, 1)
    return folded.rem_monic(cyclotomic(m))


def one_plus_qd_indices(d: int) -> list[int]:
    """The indices 2k of the factors Phi_2k of 1 + q^d: k | d, 2k does not divide d."""
    return [2 * k for k in range(1, d + 1) if d % k == 0 and d % (2 * k) != 0]


def factor_one_plus_qd(d: int) -> "FactoredPoly":
    """Cyclotomic factorization of 1 + q^d."""
    if d < 1:
        raise ValueError("exponent must be positive")
    return FactoredPoly(dict.fromkeys(one_plus_qd_indices(d), 1))


class FactoredPoly:
    """A product of cyclotomic polynomials, kept in factored form.

    The factors are a map from cyclotomic index to a strictly positive
    exponent; the empty product is the constant 1.  Instances are immutable.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors=None):
        items: dict[int, int] = {}
        if factors:
            pairs = factors.items() if isinstance(factors, dict) else factors
            for d, e in pairs:
                if d < 1:
                    raise ValueError("cyclotomic index must be positive")
                if e < 0:
                    raise ValueError("exponent must be nonnegative")
                if e:
                    items[d] = items.get(d, 0) + e
        self._factors = dict(sorted(items.items()))

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._factors)

    def exponent(self, d: int) -> int:
        return self._factors.get(d, 0)

    def is_one(self) -> bool:
        return not self._factors

    def lcm(self, other: "FactoredPoly") -> "FactoredPoly":
        """Least common multiple: exponent-wise max (cyclotomics are coprime)."""
        merged = dict(self._factors)
        for d, e in other._factors.items():
            merged[d] = max(merged.get(d, 0), e)
        return FactoredPoly(merged)

    def _net(self) -> tuple[list[tuple[int, bool]], int]:
        """The product as prod (1 - q^c)^(-1 if divide else 1) over its
        passes (c, divide), up to the sign (-1)^e_1, and its degree.

        Phi_d^e = prod_{k|d} (1 - q^(d/k))^(e mu(k)) for d > 1, and
        Phi_1 = q - 1 = -(1 - q); the exponents of all factors are summed
        per binomial, and many cancel.  The passes come in the order in
        which each binomial first appears; for a single Phi_d that is the
        order of the squarefree divisors k from `_moebius`.
        """
        net: dict[int, int] = {}
        degree = 0
        for d, e in self._factors.items():
            phi, squarefree = _moebius(d)
            degree += e * phi
            for k, odd in squarefree:
                net[d // k] = net.get(d // k, 0) + (-e if odd else e)
        return [(c, x < 0) for c, x in net.items() for _ in range(abs(x))], degree

    def expand(self) -> IntPoly:
        """Multiply the product out; always monic.

        The passes of `_net` are taken as one series cut off above the
        degree, with the sign (-1)^e_1.  At q = 1 each Phi_d with d > 1 is
        prod_k (d/k)^mu(k), so the product of c^(+-1) over the passes is
        its value there.

        >>> print(FactoredPoly({1: 1, 2: 1}).expand())
        -1 + q^2
        """
        steps, degree = self._net()

        def at_one():
            up = math.prod(c for c, divide in steps if not divide)
            return up // math.prod(c for c, divide in steps if divide)

        s = _binomial_series(steps, degree, at_one)
        return IntPoly([-c for c in s] if self.exponent(1) % 2 else s)

    def divides(self, p: IntPoly) -> tuple[bool, IntPoly]:
        """Whether the expanded product D divides p exactly.

        Returns (True, quotient) on success and (False, remainder witness)
        on failure, as the long division by D gives them.  The reversal
        q^delta D(1/q) of D, of degree delta, is the product of the passes
        of `_net` with sign +: each 1 - q^c reverses to -(1 - q^c), and
        the multiply passes outnumber the divide passes by e_1.  For
        p = Q D + R of degree N >= delta, the reversed p over that product,
        in power series cut off above N, holds the reversed Q in its first
        N - delta + 1 entries and, in its last delta entries T, the
        reversed R over the same product: R is zero exactly when T is, and
        is otherwise T times the product, cut off above delta - 1 and
        reversed.  No product is expanded.

        >>> FactoredPoly({2: 1, 4: 1}).divides(IntPoly((2, 0, 0, 1)))
        (False, IntPoly((1, -1, -1)))
        >>> FactoredPoly({3: 1}).divides(IntPoly((1, 2, 3, 2, 1)))
        (True, IntPoly((1, 1, 1)))
        >>> FactoredPoly({3: 1}).divides(IntPoly((0, 0, 0, 1)))
        (False, IntPoly((1,)))
        """
        if p.is_zero():
            raise ValueError("divisibility of the zero polynomial is not tested")
        steps, degree = self._net()
        n = p.degree()
        if n < degree:
            return False, p
        inverse = [(c, not divide) for c, divide in steps]
        s = _binomial_series(inverse, n, start=p.coeffs[::-1])
        tail = s[n - degree + 1 :]
        if not any(tail):
            return True, IntPoly(s[n - degree :: -1])
        return False, IntPoly(_binomial_series(steps, degree - 1, start=tail)[::-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredPoly):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self):
        return hash(tuple(self._factors.items()))

    def __repr__(self) -> str:
        return f"FactoredPoly({self._factors!r})"

    def __str__(self) -> str:
        if not self._factors:
            return "1"
        return " * ".join(
            f"Phi_{d}" if e == 1 else f"Phi_{d}^{e}"
            for d, e in self._factors.items()
        )
