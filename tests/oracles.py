"""Small independent oracles used by the tests.

Everything here is deliberately primitive (plain lists and integers, no
imports from the package's arithmetic paths) so a bug in the library cannot
hide behind the same bug in its test.
"""

from functools import lru_cache
from itertools import combinations
from math import comb


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


@lru_cache(maxsize=None)
def naive_cyclotomic(n: int) -> tuple:
    """Phi_n: q^n - 1 long-divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = naive_divmod(poly, list(naive_cyclotomic(d)))
            assert not rem
    return tuple(poly)


def naive_factored_divides(factors: dict, a: list) -> tuple[bool, list]:
    """Expand prod Phi_d^e and long-divide a by it.

    Returns (True, quotient) when the remainder is zero and (False,
    remainder) otherwise: the expand-then-divide route for a cyclotomic
    product.
    """
    divisor = [1]
    for d, e in factors.items():
        for _ in range(e):
            divisor = naive_mul(divisor, list(naive_cyclotomic(d)))
    quot, rem = naive_divmod(a, divisor)
    return (False, rem) if rem else (True, quot)


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
