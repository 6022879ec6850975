"""Cyclotomic polynomials and exact products of them.

Every polynomial expanded here, and the Gaussian binomials of ``qbinom``,
is a product of binomials 1 - q^c and 1 + q^c and their inverses, built by
one shift-and-add pass per binomial with no product and no long division;
a 1 - q^(2c) over a 1 - q^c is the one pass 1 + q^c.
``FactoredPoly`` represents a product prod_d Phi_d^{e_d} without expanding
it.  ``cyclotomic(n)`` is the one-factor product Phi_n, expanded by
``FactoredPoly.expand``, and ``factor_one_plus_qd`` is the one place that
factors products of binomials 1 + q^d.

``FactoredPoly.divides`` divides on the same passes: the reversal of a
monic product is the product of the same binomials, so the reversed
dividend over it, in power series, holds the reversed quotient and, past
it, what the remainder comes back from.  No product is expanded.

Every series states its size to `poly.refuse`, the one size guard, before
it allocates anything: a product of binomials 1 + q^d from its exponents
before any is factored, Phi_n from a lower bound on phi(n) before n is.

>>> print(cyclotomic(6))
1 - q + q^2
"""

import collections
import functools
import math
import operator

from .poly import IntPoly, refuse


def _refuse_series(passes: int, degree: int, at_one: int | None, count: int = 1) -> None:
    """The size guard of `count` series of `passes` passes cut off above
    `degree` whose sum is about `at_one`.  A pass holds the list, a copy and
    two slices, four slots a coefficient, and, past the small ints CPython
    shares, each coefficient old and new; a step is a word of a coefficient.
    With `at_one` None, only the floor, four slots a coefficient, is stated."""
    bits = 0 if at_one is None else (at_one // (degree + 1)).bit_length()
    ints = 0 if bits < 9 else 64 + bits // 30 * 8
    what = f"a degree-{degree} series in {passes} binomial pass(es)"
    what = what if count == 1 else f"{count} expansions, each about {what},"
    steps = 0 if at_one is None else count * passes * (degree + 1) * (1 + bits // 64)
    refuse(what, (degree + 1) * (32 + ints), steps)


def _binomial_series(steps, degree: int, start=(1,), count: int = 1) -> list[int]:
    """`start` times prod (1 + q^c)^(-1 if divide else 1) over (c, divide,
    True) and prod (1 - q^c)^(-1 if divide else 1) over (c, divide, False)
    in the list `steps`, in power series cut off above `degree`; `start`
    has at most degree + 1 coefficients.

    Every factor has constant term 1, so the coefficient of q^i depends
    only on those of degree at most i: a product that is a polynomial of
    degree at most `degree` comes out exactly.  Multiplying by 1 -+ q^c
    takes s[i] -+= s[i - c] from the entries before the pass, and dividing
    by it takes s[i] +-= s[i - c] in ascending i, from the entries the pass
    has already made; each is one map over a slice.  Every pass is empty
    when c > degree.  No coefficient above `top` is nonzero, so a multiply
    pass stops at top + c, and a divide pass at top when its last c entries
    are zero (the quotient is then a polynomial of degree top - c).

    The guard sizes coefficients by the product of every step at q = 1,
    empty passes too (Phi_p(1) = p needs the pass 1 - q^p): c^(+-1) for
    1 - q^c, read as (1 - q^c) / (1 - q), and 2^(+-1) for 1 + q^c; a first
    few steps with k > 0 more divisions than multiplications by 1 - q^c
    have a pole of order k at q = 1 and count (degree + 1)^k times theirs.
    """
    passes = [step for step in steps if step[0] <= degree]
    value, pole, largest = [1, 1], 0, 0  # of the multiply and of the divide steps
    for c, divide, plus in steps:
        value[divide] *= 2 if plus else c
        pole += 0 if plus else 1 if divide else -1
        if pole > 0:
            largest = max(largest, value[0] * (degree + 1) ** pole // value[1])
    _refuse_series(len(passes), degree, max(largest, value[0] // value[1]), count)
    s, top = [*start] + [0] * (degree + 1 - len(start)), len(start) - 1
    for c, divide, plus in passes:
        op = operator.add if plus != divide else operator.sub
        if not divide:
            top = min(top + c, degree)
            s[c : top + 1] = map(op, s[c : top + 1], s[: top + 1 - c])
            continue
        # += appends each entry as map makes it, and map reads t as it
        # grows: t[i - c] is the quotient's entry when t[i] is made
        t = s[: min(c, top + 1)]
        t += map(op, s[c : top + 1], t)
        s[: top + 1] = t
        if top >= c and not any(t[top - c + 1 :]):
            top -= c
            continue
        for i in range(max(c, top + 1), degree + 1):
            s[i] = op(s[i], s[i - c])
        top = degree
    return s


def _moebius(n: int) -> tuple[int, tuple[tuple[int, bool], ...]]:
    """phi(n), and each squarefree divisor e of n with whether mu(e) = -1.

    n has no more prime factors than there are first primes with product at
    most n, so n prod (p - 1)/p over those is at most phi(n): a series of
    degree phi(n) past a limit is refused on it before n is factored.
    Every prime below p divides `den`, so p is prime when coprime to it.
    The bound is checked on every call, against the limit of the moment;
    only the factorization is memoized.
    """
    num, den, p = 1, 1, 2
    while den * p <= n:
        if math.gcd(den, p) == 1:
            num, den = num * (p - 1), den * p
        p += 1
    low = n * num // den
    refuse(f"a series of degree at least {low}", (low + 1) * 32, low + 1)
    return _factor(n)


@functools.lru_cache(maxsize=None)
def _factor(n: int) -> tuple[int, tuple[tuple[int, bool], ...]]:
    """phi(n) and the squarefree divisors of `_moebius`, by trial division."""
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
    return phi, tuple(squarefree)


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


def factor_one_plus_qd(*exponents: int) -> "FactoredPoly":
    """Cyclotomic factorization of prod (1 + q^d) over d in `exponents`; a
    repeated exponent raises the power.  For d = 2^v t with t odd, 1 + q^d
    is the product of the Phi_(2^(v+1) e) over the divisors e of t, found
    in pairs e, t/e by trial division up to sqrt(t), once per distinct d.
    A product past a limit, a pass a binomial, is refused first.

    >>> print(factor_one_plus_qd(3, 1, 1))
    Phi_2^3 * Phi_6
    >>> print(factor_one_plus_qd(9))
    Phi_2 * Phi_6 * Phi_18
    """
    if min(exponents, default=1) < 1:
        raise ValueError("exponent must be positive")
    _refuse_series(len(exponents), sum(exponents), 2 ** len(exponents))
    pairs = []
    for d, count in collections.Counter(exponents).items():
        power2, t = 2 * (d & -d), d // (d & -d)
        for e in range(1, math.isqrt(t) + 1, 2):
            if t % e == 0:
                pairs += [(power2 * k, count) for k in {e, t // e}]
    return FactoredPoly(pairs)


class FactoredPoly:
    """A product of cyclotomic polynomials, kept in factored form.

    The factors are a map, in ascending index order, from cyclotomic index
    to a strictly positive exponent; the empty product is the constant 1.
    Instances are immutable.
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

    def _net(self) -> tuple[list[tuple[int, bool, bool]], int]:
        """The product as the passes (c, divide, plus) of `_binomial_series`,
        up to the sign (-1)^e_1, and its degree.

        Phi_d^e = prod_{k|d} (1 - q^(d/k))^(e mu(k)) for d > 1, and
        Phi_1 = q - 1 = -(1 - q); the exponents of all factors are summed
        per binomial, and many cancel.  Where the net exponents of 1 - q^c
        and 1 - q^(2c) have opposite signs, as many of the two as can be are
        paired into 1 + q^c = (1 - q^(2c)) / (1 - q^c): one pass in place of
        two.  Pairing up each chain c, 2c, 4c, ... from its odd start leaves
        the fewest passes.  Every Phi_2k is prod (1 + q^(k/e))^mu(e) over
        the odd squarefree e | k, half the passes of its Moebius product,
        and P_n, a product of n binomials 1 + q^c, is n passes.  The
        passes come in the order in which each binomial 1 - q^c first
        appears, a 1 + q^c where its 1 - q^(2c) does; for a single Phi_d
        that is the order of the squarefree divisors k from `_moebius`.
        """
        net: dict[int, int] = {}
        degree = 0
        for d, e in self._factors.items():
            phi, squarefree = _moebius(d)
            degree += e * phi
            for k, odd in squarefree:
                net[d // k] = net.get(d // k, 0) + (-e if odd else e)
        plus: dict[int, int] = {}
        for c in sorted(net):
            x, y = net[c], net.get(2 * c, 0)
            if x * y < 0:
                plus[c] = k = min(-x, y) if x < 0 else max(-x, y)
                net[c], net[2 * c] = x + k, y - k
        steps = []
        for c, x in net.items():
            k = plus.get(c // 2, 0) if c % 2 == 0 else 0
            steps += [(c // 2, k < 0, True)] * abs(k) + [(c, x < 0, False)] * abs(x)
        return steps, degree

    def expand(self, count: int = 1) -> IntPoly:
        """Multiply the product out; always monic.

        The passes of `_net`, one series cut off above the degree, with the
        sign (-1)^e_1; the guard is told the work of `count` such series.  At
        q = 1 each Phi_d with d > 1 is prod_k (d/k)^mu(k), so the value at
        q = 1 that sizes the guard, read off the passes, is the product's own.

        >>> print(FactoredPoly({1: 1, 2: 1}).expand())
        -1 + q^2
        """
        steps, degree = self._net()
        s = _binomial_series(steps, degree, count=count)
        return IntPoly([-c for c in s] if self._factors.get(1, 0) % 2 else s)

    def divides(self, p: IntPoly) -> tuple[bool, IntPoly]:
        """Whether the expanded product D divides p exactly.

        Returns (True, quotient) on success and (False, remainder witness)
        on failure, as the long division by D gives them.  The reversal
        q^delta D(1/q) of D, of degree delta, is the product of the passes
        of `_net` with sign +: each 1 - q^c reverses to -(1 - q^c), and
        its multiply passes outnumber its divide passes by e_1, while each
        1 + q^c reverses to itself, so it carries no sign.  For
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
        if not p:
            raise ValueError("divisibility of the zero polynomial is not tested")
        steps, degree = self._net()
        n = p.degree()
        if n < degree:
            return False, p
        inverse = [(c, not divide, plus) for c, divide, plus in steps]
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
