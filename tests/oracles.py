"""Small independent oracles used by the tests.

Everything here is deliberately primitive (plain lists and integers, no
imports from the package's arithmetic paths) so a bug in the library cannot
hide behind the same bug in its test.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from math import comb

from qcong.poly import IntPoly  # only as a container of coefficients


def naive_mul(a: list, b: list) -> list:
    """Schoolbook convolution on raw coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_divmod(a: list, b: list) -> tuple[list, list]:
    """Long division on raw coefficient lists; b must be monic."""
    assert b and b[-1] == 1
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(rem) - len(b), -1, -1):
        t = rem[shift + len(b) - 1]
        if t == 0:
            continue
        quot[shift] = t
        for i, c in enumerate(b):
            rem[shift + i] -= t * c
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return quot, rem


def naive_rem(p, modulus) -> IntPoly:
    """The remainder of the polynomial p by the monic coefficient sequence
    `modulus`, by naive_divmod."""
    return IntPoly(naive_divmod(list(p.coeffs), list(modulus))[1])


@lru_cache(maxsize=None)
def naive_cyclotomic(n: int) -> tuple:
    """Phi_n: q^n - 1 long-divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = naive_divmod(poly, list(naive_cyclotomic(d)))
            assert not rem
    return tuple(poly)


# the quotient ring Z[q]/Phi_m -------------------------------------------------
#
# The reference for `qcong.residues`, whose residues are bare reduced
# IntPolys: a residue class that carries its modulus and refuses to mix
# rings.  Every operation works on raw coefficient lists and reduces by
# naive_divmod by naive_cyclotomic.


class ModulusMismatch(ValueError):
    """Operands live in quotient rings with different cyclotomic moduli."""


class ResidueElem:
    """A residue class modulo Phi_m, stored by its reduced representative."""

    __slots__ = ("modulus_index", "rep")

    def __init__(self, modulus_index: int, rep):
        if modulus_index < 1:
            raise ValueError("modulus index must be positive")
        self.modulus_index = modulus_index
        coeffs = list(rep.coeffs) if isinstance(rep, IntPoly) else list(rep)
        _, rem = naive_divmod(coeffs, list(naive_cyclotomic(modulus_index)))
        self.rep = IntPoly(rem)

    def _coerce(self, other) -> "ResidueElem | None":
        if isinstance(other, ResidueElem):
            if other.modulus_index != self.modulus_index:
                raise ModulusMismatch(
                    f"moduli differ: Phi_{self.modulus_index} vs Phi_{other.modulus_index}"
                )
            return other
        if isinstance(other, int):
            return ResidueElem(self.modulus_index, [other])
        if isinstance(other, IntPoly):
            return ResidueElem(self.modulus_index, other)
        return None

    def _add_signed(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = [(1, self.rep.coeffs), (sign, other.rep.coeffs)]
        return ResidueElem(self.modulus_index, _combine(terms))

    def __add__(self, other):
        return self._add_signed(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ResidueElem(self.modulus_index, [-c for c in self.rep.coeffs])

    def __sub__(self, other):
        return self._add_signed(other, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        product = naive_mul(list(self.rep.coeffs), list(other.rep.coeffs))
        return ResidueElem(self.modulus_index, product)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.rep.coeffs

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rep.coeffs == other.rep.coeffs

    __hash__ = None  # equality raises across rings, so hashing would be unsound

    def __repr__(self) -> str:
        return f"ResidueElem(m={self.modulus_index}, rep={self.rep!r})"


def inject(p, m: int) -> ResidueElem:
    """The class of an integer polynomial in Z[q]/Phi_m."""
    return ResidueElem(m, p)


def root_power(m: int, j: int) -> ResidueElem:
    """The class of q^(j mod m): the j-th power of a primitive m-th root of unity."""
    if m < 1:
        raise ValueError("modulus index must be positive")
    return ResidueElem(m, [0] * (j % m) + [1])


def naive_expand(factors: dict) -> list:
    """prod Phi_d^e multiplied out, one cyclotomic factor at a time."""
    product = [1]
    for d, e in factors.items():
        for _ in range(e):
            product = naive_mul(product, list(naive_cyclotomic(d)))
    return product


def naive_factored_divides(factors: dict, a: list) -> tuple[bool, list]:
    """Expand prod Phi_d^e and long-divide a by it.

    Returns (True, quotient) when the remainder is zero and (False,
    remainder) otherwise: the expand-then-divide route for a cyclotomic
    product.
    """
    quot, rem = naive_divmod(a, naive_expand(factors))
    return (False, rem) if rem else (True, quot)


def factors_lcm(a: dict, b: dict) -> dict:
    """lcm of prod Phi_d^a_d and prod Phi_d^b_d: cyclotomic polynomials are
    coprime, so each exponent is the larger of the two."""
    return {d: max(a.get(d, 0), b.get(d, 0)) for d in a.keys() | b.keys()}


# polynomials the tests write values with ---------------------------------------

ONE = IntPoly((1,))
Q = IntPoly((0, 1))


def one_plus_q_power(d: int) -> IntPoly:
    """The binomial 1 + q^d."""
    if d < 1:
        raise ValueError("exponent must be positive")
    return IntPoly([1] + [0] * (d - 1) + [1])


def q_power(n: int) -> IntPoly:
    """The monomial q^n."""
    if n < 0:
        raise ValueError("monomial degree must be nonnegative")
    return IntPoly([0] * n + [1])


def poly_pow(p, e: int) -> IntPoly:
    """p^e by e schoolbook products."""
    if e < 0:
        raise ValueError("negative power of a polynomial")
    product = [1]
    for _ in range(e):
        product = naive_mul(product, list(p.coeffs))
    return IntPoly(product)


def eval_int(p, x: int) -> int:
    """The value of a polynomial at the integer x, by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def zigzag_numbers(count: int) -> list[int]:
    """1, 1, 1, 2, 5, 16, 61, 272, 1385, ... by the Seidel triangle.

    Even positions are the secant numbers |E_2n(1)|, odd positions the
    tangent numbers T_{2n+1}(1); computed with additions only.
    """
    values = []
    row: list[int] = []
    for n in range(count):
        new = [1 if n == 0 else 0]
        for k in range(1, n + 1):
            new.append(new[k - 1] + row[n - k])
        row = new
        values.append(row[n])
    return values


def euler_at_one(count: int) -> list[int]:
    """Signed secant numbers via E_{2m} = -sum_{k<m} C(2m,2k) E_{2k}."""
    values = [1]
    for m in range(1, count):
        values.append(-sum(comb(2 * m, 2 * k) * values[k] for k in range(m)))
    return values


def gen_euler_at_one(k: int, count: int) -> list[int]:
    """Generalized Euler numbers at q=1 via the integer recurrence."""
    values = [1]
    for n in range(1, count):
        values.append(-sum(comb(k * n, k * j) * values[j] for j in range(n)))
    return values


# permutations and exponent counts -------------------------------------------


def is_alternating(seq) -> bool:
    """Zigzag test x_1 < x_2 > x_3 < ... for a prefix of any length."""
    return all(
        seq[i - 1] < seq[i] if i % 2 == 1 else seq[i - 1] > seq[i]
        for i in range(1, len(seq))
    )


def is_salie(seq) -> bool:
    """Brute-force Salie predicate over all admissible split points."""
    half = len(seq) // 2
    for k in range(1, half + 1):
        if not is_alternating(seq[: 2 * k]):
            continue
        tail = seq[2 * k - 1 :]
        if all(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
            return True
    return False


def prefix_split_count(seq) -> int:
    """Number of k in 0..n with alternating prefix x_1..x_{2k} and strictly
    increasing tail x_{2k+1}..x_{2n} (no constraint at the junction).

    Every Salie permutation admits exactly two such splits; every other
    permutation admits none, which is what makes twice the Salie generating
    function expressible as a signed Gaussian-binomial sum.
    """
    half = len(seq) // 2
    count = 0
    for k in range(half + 1):
        if not is_alternating(seq[: 2 * k]):
            continue
        tail = seq[2 * k :]
        if all(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
            count += 1
    return count


def inversions(seq) -> int:
    """inv(x): the number of pairs i < j with x_i > x_j."""
    return sum(1 for a, b in combinations(seq, 2) if a > b)


def a_exponent(n: int, r: int) -> int:
    """How many integers of the form 2^s (2r+1) are <= n."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    count, value = 0, 2 * r + 1
    while value <= n:
        count += 1
        value *= 2
    return count


# the seven families -----------------------------------------------------------
#
# Each recurrence of the `qcong.sequences` docstring, written out on its own
# with raw coefficient lists, the q-Pascal rule and `naive_mul`.

@lru_cache(maxsize=None)
def naive_gauss(m: int, n: int) -> tuple:
    """[m over n]_q by the q-Pascal rule [m, n] = [m-1, n-1] + q^n [m-1, n]."""
    if n == 0 or n == m:
        return (1,)
    shifted = [0] * n + list(naive_gauss(m - 1, n))
    return tuple(_combine([(1, naive_gauss(m - 1, n - 1)), (1, shifted)]))


def gauss_factored(m: int, n: int) -> dict:
    """The cyclotomic factorization of [m over n]_q, {d: 1} for each Phi_d
    it has: those with floor(n/d) + floor((m-n)/d) < floor(m/d)."""
    if not 0 <= n <= m:
        raise ValueError("need 0 <= n <= m")
    return {d: 1 for d in range(2, m + 1) if n // d + (m - n) // d < m // d}


def q_lucas_sides(m: int, k: int, d: int, gauss) -> tuple[list, list]:
    """Both sides of the q-Lucas reduction of gauss(m, k) at a primitive d-th
    root of unity, as remainders modulo Phi_d: with m = a*d + b and
    k = r*d + s, 0 <= b, s < d, that of gauss(m, k) and C(a, r) times that
    of gauss(b, s)."""
    a, b = divmod(m, d)
    r, s = divmod(k, d)
    phi = list(naive_cyclotomic(d))
    _, lhs = naive_divmod(list(gauss(m, k).coeffs), phi)
    _, rhs = naive_divmod(list(gauss(b, s).coeffs), phi)
    return lhs, _combine([(comb(a, r), rhs)])


def q_lucas_holds(m: int, k: int, d: int, gauss) -> bool:
    """Whether the q-Lucas reduction of gauss(m, k) modulo Phi_d is an equality."""
    lhs, rhs = q_lucas_sides(m, k, d, gauss)
    return lhs == rhs


def _combine(terms) -> list:
    """sum c * p over (c, p) in terms, trimmed."""
    out = [0] * max((len(p) for _, p in terms), default=0)
    for c, p in terms:
        for i, x in enumerate(p):
            out[i] += c * x
    while out and out[-1] == 0:
        out.pop()
    return out


def _monomial(e: int) -> list:
    return [0] * e + [1]


def naive_euler(count: int) -> list[list]:
    """E_{2m} = -sum_{k<m} [2m over 2k] E_{2k}, E_0 = 1."""
    e = [[1]]
    for m in range(1, count):
        terms = [(-1, naive_mul(naive_gauss(2 * m, 2 * k), e[k])) for k in range(m)]
        e.append(_combine(terms))
    return e


def naive_gen_euler(c: int, count: int) -> list[list]:
    """E^(c)_{cn} = -sum_{j<n} [cn over cj] E^(c)_{cj}, E^(c)_0 = 1."""
    e = [[1]]
    for n in range(1, count):
        terms = [(-1, naive_mul(naive_gauss(c * n, c * j), e[j])) for j in range(n)]
        e.append(_combine(terms))
    return e


def naive_tangent(count: int) -> list[list]:
    """T_{2n+1} = (-1)^n - sum_{k<n} (-1)^{n-k} [2n+1 over 2k+1] T_{2k+1}, T_1 = 1."""
    t = [[1]]
    for n in range(1, count):
        terms = [(1, [(-1) ** n])]
        for k in range(n):
            term = naive_mul(naive_gauss(2 * n + 1, 2 * k + 1), t[k])
            terms.append((-((-1) ** (n - k)), term))
        t.append(_combine(terms))
    return t


def _naive_salie_family(lead, count: int) -> list[list]:
    """X_{2n} = lead(n) - sum_{k<n} (-1)^{n-k} [2n over 2k] X_{2k}, X_0 = 1."""
    x = [[1]]
    for n in range(1, count):
        terms = [(1, lead(n))]
        for k in range(n):
            term = naive_mul(naive_gauss(2 * n, 2 * k), x[k])
            terms.append((-((-1) ** (n - k)), term))
        x.append(_combine(terms))
    return x


def naive_salie(count: int) -> list[list]:
    """S_{2n} = q^n - sum_{k<n} (-1)^{n-k} [2n over 2k] S_{2k}."""
    return _naive_salie_family(_monomial, count)


def naive_salie_bar(count: int) -> list[list]:
    """Sbar_{2n} = 1 - sum_{k<n} (-1)^{n-k} [2n over 2k] Sbar_{2k}."""
    return _naive_salie_family(lambda n: [1], count)


def naive_salie_hat(count: int) -> list[list]:
    """Shat_{2n} = q^{2n} - sum_{k<n} (-1)^{n-k} [2n over 2k] Shat_{2k}."""
    return _naive_salie_family(lambda n: _monomial(2 * n), count)


def naive_salie_tilde(count: int) -> list[list]:
    """Stil_{2n} = q^{n^2} - sum_{k<n} (-1)^{n-k} [2n over 2k] Stil_{2k}."""
    return _naive_salie_family(lambda n: _monomial(n * n), count)


# the divisor families as multiply chains -----------------------------------------
#
# Each family as a chain of products, one factor 1 + q^d at a time, on plain
# {cyclotomic index: exponent} dicts: 1 + q^d = prod Phi_2k over k | d with
# d/k odd.


def chain_binomials(pairs) -> dict:
    """prod (1 + q^d)^e over (d, e) in `pairs`."""
    out = {}
    for d, e in pairs:
        for _ in range(e):
            for k in range(1, d + 1):
                if d % k == 0 and (d // k) % 2:
                    out[2 * k] = out.get(2 * k, 0) + 1
    return out


def _ev_chain(n: int) -> list[int]:
    """r, 2r, ..., n: the exponents of Ev_n, r the odd part of n."""
    chain, d = [], n
    while d % 2 == 0:
        d //= 2
    while d <= n:
        chain, d = chain + [d], 2 * d
    return chain


def chain_ev(n: int) -> dict:
    """Ev_n = (1 + q^r)(1 + q^2r)...(1 + q^n), r the odd part of n."""
    return chain_binomials((d, 1) for d in _ev_chain(n))


def chain_big_p(n: int) -> dict:
    """P_n = the first binomial 1 + q^r of each of Ev_1 ... Ev_n."""
    return chain_binomials((_ev_chain(k)[0], 1) for k in range(1, n + 1))


def chain_q_bar(n: int) -> dict:
    """Qbar_n = every binomial of Ev_1 ... Ev_n past the first of each."""
    return chain_binomials((d, 1) for k in range(1, n + 1) for d in _ev_chain(k)[1:])


def chain_big_d(n: int) -> dict:
    """D_n = Ev_1 ... Ev_n, times 1 + q^2 for even n."""
    out = chain_binomials([(2, 1)] if n % 2 == 0 else [])
    for k in range(1, n + 1):
        for d, e in chain_ev(k).items():
            out[d] = out.get(d, 0) + e
    return out


def phi_big_p(n: int) -> dict:
    """P_n in the paper's form, prod_{r>=0} Phi_{4r+2}^floor(n/(2r+1))."""
    return {4 * r + 2: n // (2 * r + 1) for r in range((n + 1) // 2)}


def phi_q_bar(n: int) -> dict:
    """Qbar_n in the paper's form, prod_{r>=1} Phi_{4r}^floor(n/2r)."""
    return {4 * r: n // (2 * r) for r in range(1, n // 2 + 1)}


def chain_q_hat(n: int) -> dict:
    """Qhat_n = Qbar_n, in its Phi form, times 1 + q^2 for odd n."""
    out = chain_binomials([(2, n % 2)])
    for d, e in phi_q_bar(n).items():
        out[d] = out.get(d, 0) + e
    return out


def full_binomial_series(steps, degree: int) -> list:
    """prod (1 + q^c)^(-1 if divide else 1) over (c, divide, True) and
    prod (1 - q^c)^(-1 if divide else 1) over (c, divide, False) in power
    series cut off above `degree`, every pass over the whole range."""
    s = [1] + [0] * degree
    for c, divide, plus in steps:
        sign = 1 if plus else -1
        if divide:
            for i in range(c, degree + 1):
                s[i] -= sign * s[i - c]
        else:
            for i in range(degree, c - 1, -1):
                s[i] += sign * s[i - c]
    return s


def series_estimate(steps, degree: int) -> tuple[int, int]:
    """The binomial series guard's (peak bytes, steps), written out apart from
    `cyclotomic._refuse_series`.  Coefficients are sized by the value at
    q = 1 of the product of every step, the empty passes too:
    2^(+-1) for 1 + q^c and c^(+-1) for 1 - q^c, or, if larger, of a product
    of the first steps with a pole of order k > 0 at q = 1, times
    (degree + 1)^k.  A coefficient takes four slots and, past 8 bits of the
    mean, two ints; a nonempty pass takes a step per machine word of each
    coefficient."""
    passes = sum(1 for c, _, _ in steps if c <= degree)
    num, den, pole, largest = 1, 1, 0, 0
    for c, divide, plus in steps:
        if divide:
            den *= 2 if plus else c
        else:
            num *= 2 if plus else c
        if not plus:
            pole += 1 if divide else -1
        if pole > 0:
            largest = max(largest, num * (degree + 1) ** pole // den)
    largest = max(largest, num // den)
    bits = (largest // (degree + 1)).bit_length()
    size = 32 if bits < 9 else 96 + bits // 30 * 8
    return (degree + 1) * size, passes * (degree + 1) * (1 + bits // 64)


def gauss_series_estimate(m: int, n: int) -> tuple[int, int]:
    """The estimate for [m over n], 0 < n <= m - n: each step j multiplies by
    1 - q^(m-n+j) and divides by 1 - q^j."""
    steps = [s for j in range(1, n + 1) for s in ((m - n + j, False, False), (j, True, False))]
    return series_estimate(steps, n * (m - n))


def binomial_power_series(c: int, divide: bool, plus: bool, degree: int) -> list:
    """(1 + q^c)^(-1 if divide else 1) if plus, else with 1 - q^c, in power
    series cut off above `degree`: 1/(1 + x) is the geometric series in -x."""
    sign = 1 if plus else -1
    s = [1] + [0] * degree
    if not divide:
        if c <= degree:
            s[c] = sign
        return s
    for k in range(1, degree // c + 1):
        s[k * c] = (-sign) ** k
    return s


# the identity and q = 1 checks as separate loops -----------------------------------
#
# One hand-written route per claim, as the checks stood before they shared
# `verify._signed_gauss_sum` and `verify._gap_at_one`.  Every family is an
# argument, so a test can hand in the same (possibly perturbed) functions
# that it patches into `qcong.verify`; each returns (passed, witness).


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def loop_lemma41(n, gauss, salie, tangent):
    """sum_k (-1)^k q^k [2n,2k] S_{2k} S_{2n-2k} - T_{2n-1} (1 - q^{2n})."""
    lhs = IntPoly()
    for k in range(n + 1):
        term = (gauss(2 * n, 2 * k) * salie(k) * salie(n - k)).shift(k)
        lhs = lhs - term if k % 2 else lhs + term
    t = tangent(n - 1)
    diff = lhs - (t - t.shift(2 * n))
    return not diff, diff


def loop_eq23(n, gauss, salie_bar, euler):
    """Sbar_{2n} - sum_k (-1)^k [2n,2k] E_{2k}."""
    rhs = IntPoly()
    for k in range(n + 1):
        term = gauss(2 * n, 2 * k) * euler(k)
        rhs = rhs - term if k % 2 else rhs + term
    diff = salie_bar(n) - rhs
    return not diff, diff


def loop_eq24(n, gauss, salie_hat, tangent):
    """sum_k (-1)^k q^{2k} [2n,2k] Shat_{2k} Shat_{2n-2k}
    - T_{2n-1} (1 + q)(1 - q^{2n})."""
    lhs = IntPoly()
    for k in range(n + 1):
        term = (gauss(2 * n, 2 * k) * salie_hat(k) * salie_hat(n - k)).shift(2 * k)
        lhs = lhs - term if k % 2 else lhs + term
    t = tangent(n - 1)
    t = t + t.shift(1)
    diff = lhs - (t - t.shift(2 * n))
    return not diff, diff


def at_one_corollary52(k, m, n, at_one):
    """a - b = 0 mod 2^s, s = v2(m-n) + 1, and not mod 2^(s+1) when k = 1."""
    diff = at_one(1 << k, m) - at_one(1 << k, n)
    s = _v2(m - n) + 1
    holds = diff % (1 << s) == 0
    if k == 1:
        holds = holds and diff % (1 << (s + 1)) != 0
    return holds, diff


def at_one_stern(m, n, at_one):
    """v2(E_{2m}(1) - E_{2n}(1)) against v2(2m - 2n); witness the former, -1 for 0."""
    a, b = at_one(2, m), at_one(2, n)
    actual = _v2(a - b) if a != b else -1
    return actual == _v2(2 * (m - n)), actual


def at_one_conj51(k_max, m_max, at_one):
    """(params, holds, witness) of every conj51 instance, from a value table."""
    out = []
    for k in range(1, k_max + 1):
        values = [at_one(1 << k, i) for i in range(m_max + 1)]
        for m in range(1, m_max + 1):
            for n in range(m):
                s = _v2(m - n) + 1
                diff = values[m] - values[n]
                holds = (diff - (1 << s)) % (1 << (s + 1)) == 0
                params = {"k": k, "m": m, "n": n, "s": s}
                out.append((params, holds, diff % (1 << (s + 1))))
    return out


# report and compute records -------------------------------------------------------
#
# The reference for `qcong.cli.report_record` and the lines of `compute`:
# each JSON record as a dict, in key order, for json.dumps to render.

RECORD_KEYS = {
    "congruence": (
        "check",
        "params",
        "expected_equivalence",
        "observed_congruence",
        "passed",
        "witness",
    ),
    "divisibility": ("check", "family", "index", "params", "divisor", "passed", "witness"),
    "identity": ("check", "params", "passed", "witness"),
    "conjecture": ("conjecture", "params", "status", "witness"),
}


def _record_value(key: str, value):
    if key == "divisor":
        return [{"cyclo_index": d, "exponent": e} for d, e in sorted(value.factors.items())]
    if key == "witness":
        return [str(c) for c in value.coeffs] if isinstance(value, IntPoly) else str(value)
    return value


def report_dict(r) -> dict:
    """JSON-ready dict of any verify/explore report; a conjecture report's
    "conjecture" is its check, and its "status" is "holds" if it passed,
    else "fails"."""
    derived = {"conjecture": r.check, "status": "holds" if r.passed else "fails"}
    return {
        key: _record_value(key, derived[key] if key in derived else getattr(r, key))
        for key in RECORD_KEYS[r.kind]
    }


# The reference for `qcong.cli.report_text`: the text line of each kind of
# report, restated from its fields.


def report_text(r) -> str:
    """`check [family n=index] params... [divisor=D]: verdict`, where the
    verdict of a theorem check is PASS or FAIL with its witness, a
    conjecture's is holds or fails with its witness, and a congruence's
    verdict follows what it expected and observed."""
    params = [f"{key}={value}" for key, value in r.params.items()]
    if r.kind == "divisibility":
        words = [r.check, r.family, f"n={r.index}", *params, f"divisor={r.divisor}"]
    else:
        words = [r.check, *params]
    if r.kind == "conjecture":
        verdict = "holds" if r.passed else f"fails witness={r.witness}"
    else:
        label = {"congruence": "witness", "divisibility": "remainder", "identity": "difference"}
        verdict = "PASS" if r.passed else f"FAIL {label[r.kind]}={r.witness}"
    if r.kind == "congruence":
        said = {True: "congruent", False: "incongruent"}
        verdict = (f"expected {said[r.expected_equivalence]}, "
                   f"observed {said[r.observed_congruence]} -> {verdict}")
    return " ".join(words) + ": " + verdict


def compute_dict(family: str, index: int, poly, k=None, divisor=None) -> dict:
    """JSON-ready dict of one `compute` line: gauss puts its k before the
    coefficients, gen-euler after them, and a divisor family adds its factors."""
    rec = {"family": family, "index": index}
    if family == "gauss":
        rec["k"] = k
    rec["coeffs"] = [str(c) for c in poly.coeffs]
    if divisor is not None:
        rec["factored"] = _record_value("divisor", divisor)
    if k is not None and family != "gauss":
        rec["k"] = k
    return rec


# a process's own peak --------------------------------------------------------------
#
# Runs `cli.main` on argv with every call of `poly.refuse` recorded, output to
# os.devnull, and prints the process's peak resident size, VmHWM, read from
# its own /proc/self/status, with the peak-byte estimate of each call.
_PEAK_CHILD = """
import importlib, json, os, sys
from qcong import cli, poly
estimates, refuse = [], poly.refuse

def recording(what, peak_bytes, steps):
    estimates.append(peak_bytes)
    refuse(what, peak_bytes, steps)

for name in ("cli", "cyclotomic", "perms", "sequences", "verify"):
    importlib.import_module("qcong." + name).refuse = recording
sys.stdout = open(os.devnull, "w")
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = int(fh.read().split("VmHWM:")[1].split()[0]) << 10
print(json.dumps({"code": code, "peak": peak, "estimates": estimates}), file=sys.stderr)
"""


def child_peak(*argv) -> tuple[int, list[int]]:
    """The peak resident bytes of a fresh process that runs qcong on `argv`,
    read from that process's own /proc/self/status, and the peak-byte
    estimates its builders gave `poly.refuse`.  A forked child's ru_maxrss
    starts at the size of its parent, so it cannot show the child's peak."""
    env = dict(os.environ)
    env.pop("QCONG_MAX_N", None)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    result = json.loads(proc.stderr.strip().splitlines()[-1])
    assert result["code"] == 0, (argv, proc.stderr)
    return result["peak"], result["estimates"]
