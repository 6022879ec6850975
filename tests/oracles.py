"""Small independent oracles used by the tests.

Everything here is deliberately primitive (plain lists and integers, no
imports from the package's arithmetic paths) so a bug in the library cannot
hide behind the same bug in its test.
"""

from functools import lru_cache
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
