"""Family generators against printed values, classical specializations, and
the cross-identities that tie the derived recurrences together."""

import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from qcong import sequences
from qcong.poly import IntPoly, SizeLimitExceeded
from qcong.qbinom import gauss
from qcong.sequences import (
    SEQUENCE_FAMILIES,
    euler,
    gen_euler,
    gen_euler_at_one,
    salie,
    salie_bar,
    salie_hat,
    salie_tilde,
    tangent,
)
import oracles
from oracles import ONE, Q, eval_int, naive_rem, poly_pow, q_power, zigzag_numbers


def poly(*coeffs):
    return IntPoly(coeffs)


# printed first values ------------------------------------------------------


def test_euler_first_values():
    assert euler(0) == ONE
    assert euler(1) == poly(-1)
    assert euler(2) == Q * poly(1, 1) * poly(1, 0, 1) + q_power(2)
    assert euler(2) == poly(0, 1, 2, 1, 1)
    e6 = -q_power(2) * poly(1, 0, 0, 1) * poly(1, 4, 5, 7, 6, 5, 2, 1) + q_power(3)
    assert euler(3) == e6


def test_tangent_first_values():
    assert tangent(0) == ONE
    assert tangent(1) == poly(0, 1, 1)
    # T_3 = -1 + [3 over 1] T_1
    assert tangent(1) == -ONE + gauss(3, 1)


def test_salie_first_values():
    assert salie(0) == ONE
    assert salie(1) == poly(1, 1)
    assert salie(2) == poly(0, 2, 4, 3, 2, 1)
    assert salie(2) == Q * poly(2, 0, 1) * poly_pow(poly(1, 1), 2)


def test_salie_bar_values():
    assert salie_bar(0) == ONE
    assert salie_bar(1) == poly(2)
    assert salie_bar(2) == 2 * poly(1, 0, 1) * poly(1, 1, 1)
    assert salie_bar(3) == 2 * poly(1, 0, 1) * poly(1, 1, 2, 4, 6, 6, 6, 5, 4, 2, 1)


def test_salie_hat_values():
    assert salie_hat(0) == ONE
    assert salie_hat(1) == poly(1, 0, 1)
    assert salie_hat(2) == Q * poly(1, 0, 1) * poly(1, 3, 1, 1)
    assert salie_hat(3) == q_power(2) * poly_pow(poly(1, 0, 1), 2) * poly(1, 4, 7, 6, 6, 6, 5, 2, 1)


def test_salie_tilde_values():
    assert salie_tilde(0) == ONE
    assert salie_tilde(1) == poly(1, 1)
    assert salie_tilde(2) == Q * poly(1, 1) * poly(1, 0, 1) * poly(2, 1)
    assert salie_tilde(3) == (
        q_power(2) * poly(1, 1) * poly(1, 0, 1) * poly(1, 0, 0, 1) * poly(2, 4, 5, 4, 3, 1)
    )


def test_negative_index_rejected():
    for fn in (euler, tangent, salie, salie_bar, salie_hat, salie_tilde):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        gen_euler(0, 1)
    with pytest.raises(ValueError):
        gen_euler_at_one(0, 1)
    with pytest.raises(ValueError):
        gen_euler_at_one(2, -1)


# generalized family ---------------------------------------------------------


def test_gen_euler_base_value():
    for k in (1, 2, 3, 5, 8):
        assert gen_euler(k, 0) == ONE


def test_gen_euler_k1_is_monomial():
    # Euler's identity: the k=1 family collapses to (-1)^n q^(n(n-1)/2).
    for n in range(12):
        assert gen_euler(1, n) == IntPoly((0,) * (n * (n - 1) // 2) + ((-1) ** n,))


def test_gen_euler_at_one_matches_integer_recurrence():
    for k in (1, 2, 3, 4):
        expected = oracles.gen_euler_at_one(k, 9)
        assert [eval_int(gen_euler(k, n), 1) for n in range(9)] == expected


# the integer route at q = 1 ---------------------------------------------------


def test_gen_euler_at_one_refuses_a_subscript_past_its_limit():
    # the guard counts the binomial products and their words, not the
    # subscript: n = 1 is one product however large k is, while (2, 2000)
    # is about 2 * 10^10 word steps and (2^40, 3) takes gigabytes
    assert gen_euler_at_one(1 << 17, 1) == -1
    for k, n in ((2, 2000), (1 << 20, 3), (1 << 40, 3)):
        with pytest.raises(SizeLimitExceeded, match=rf"E\^\({k}\)_{k * n}\(1\) would take more"):
            gen_euler_at_one(k, n)


def test_gen_euler_at_one_matches_polynomial_route():
    for k in range(1, 9):
        for n in range(10):
            assert gen_euler_at_one(k, n) == eval_int(gen_euler(k, n), 1), (k, n)


def test_gen_euler_at_one_is_signed_secant():
    # the Seidel triangle only adds, so it shares no arithmetic with the route
    zz = zigzag_numbers(121)
    for n in range(61):
        assert gen_euler_at_one(2, n) == (-1) ** n * zz[2 * n]


@given(st.integers(1, 8), st.integers(0, 8))
def test_gen_euler_at_one_matches_oracle(k, n):
    assert gen_euler_at_one(k, n) == oracles.gen_euler_at_one(k, n + 1)[n]


def test_gen_euler_at_one_needs_no_deep_recursion():
    # earlier values are asked for in ascending order, so each is cached
    # before the next needs it: index 400 runs under a 200-frame limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        value = gen_euler_at_one(1, 400)
    finally:
        sys.setrecursionlimit(limit)
    assert value == (-1) ** 400


# primitive oracle: each recurrence on raw coefficient lists ------------------


@pytest.mark.parametrize(
    "name", ["euler", "tangent", "salie", "salie_bar", "salie_hat", "salie_tilde"]
)
def test_family_matches_primitive_oracle(name):
    expected = getattr(oracles, f"naive_{name}")(11)
    for n in range(11):
        assert list(getattr(sequences, name)(n).coeffs) == expected[n], (name, n)


def test_gen_euler_matches_primitive_oracle():
    for k in range(1, 5):
        expected = oracles.naive_gen_euler(k, 11)
        for n in range(11):
            assert list(gen_euler(k, n).coeffs) == expected[n], (k, n)


# the Gaussian-binomial recurrences the triangle replaced ---------------------


def gauss_recurrence(lead, width, offset, alternate, count):
    """f(n) = lead(n) - sum_{j<n} s_j [w*n+o over w*j+o] f(j), f(0) = 1, with
    s_j = (-1)^(n-j) when alternating and 1 otherwise."""
    values = [ONE]
    for n in range(1, count):
        total = IntPoly()
        for j in range(n):
            term = gauss(width * n + offset, width * j + offset) * values[j]
            total = total - term if alternate and (n - j) % 2 else total + term
        values.append(lead(n) - total)
    return values


# name -> (generator, recurrence arguments, count)
GAUSS_ROUTES = {
    "euler": (euler, (lambda n: IntPoly(), 2, 0, False), 21),
    "tangent": (tangent, (lambda n: IntPoly([(-1) ** n]), 2, 1, True), 21),
    "salie": (salie, (q_power, 2, 0, True), 21),
    "salie_bar": (salie_bar, (lambda n: ONE, 2, 0, True), 21),
    "salie_hat": (salie_hat, (lambda n: q_power(2 * n), 2, 0, True), 21),
    "salie_tilde": (salie_tilde, (lambda n: q_power(n * n), 2, 0, True), 21),
}
GAUSS_ROUTES.update(
    (f"gen_euler_{k}", (partial(gen_euler, k), (lambda n: IntPoly(), k, 0, False), 10))
    for k in range(1, 9)
)


@pytest.mark.parametrize("name", sorted(GAUSS_ROUTES))
def test_family_matches_gaussian_recurrence(name):
    family, route, count = GAUSS_ROUTES[name]
    expected = gauss_recurrence(*route, count)
    for n in range(count):
        assert family(n) == expected[n], (name, n)


@pytest.mark.parametrize("name", ["salie", "salie_bar", "salie_hat", "salie_tilde"])
def test_salie_family_at_one_counts_split_words(name):
    # f(n)(1) = sum_j C(2n, 2j) |E_{2n-2j}(1)|; a carry between digits
    # would lower the coefficient sum
    zz = zigzag_numbers(61)
    for n in range(31):
        expected = sum(comb(2 * n, 2 * j) * zz[2 * (n - j)] for j in range(n + 1))
        assert eval_int(getattr(sequences, name)(n), 1) == expected, (name, n)


def test_widened_triangle_matches_fresh_one():
    # a small index first fixes a narrow digit width; a larger one that
    # needs wider digits rebuilds the triangle, and a smaller one read last
    # is decoded
    salie_source = sequences._SALIE._source
    euler_source = sequences._euler_triangle(3)._source
    for k, source, lengths, value in (
        (2, salie_source, (6, 20, 50, 10), salie(25)),
        (3, euler_source, (6, 21, 48, 9), gen_euler(3, 16)),
    ):
        grown = sequences._Triangle(k, source)
        early = [grown.value(length) for length in lengths]
        fresh = [sequences._Triangle(k, source).value(length) for length in lengths]
        assert early == fresh, k
        assert early[2] == value, k


def test_refused_wider_ask_keeps_the_built_rows(monkeypatch):
    # row 100,001 is past the memory limit at once; the guard refuses it
    # before the kept rows are dropped for a wider digit
    expected = salie(5)
    triangle = sequences._Triangle(2, sequences._SALIE._source)
    triangle.value(20)
    width, values = triangle._width, list(triangle._values)
    with pytest.raises(SizeLimitExceeded):
        triangle.value(100_000)
    assert (triangle._width, triangle._values) == (width, values)

    def advance_again(self, stop):
        raise AssertionError("advanced again")

    monkeypatch.setattr(sequences._Triangle, "_advance", advance_again)
    assert triangle.value(10) == expected


def test_a_row_past_its_floor_is_refused_before_any_factorial(monkeypatch):
    # past row 527 a row is past the memory limit even at one-byte digits,
    # so the guard refuses it, in the words of its full statement, before
    # a factorial sizes its digits
    def no_factorial(n):
        raise AssertionError(f"took {n}!")

    triangle = sequences._Triangle(2, sequences._SALIE._source)
    with monkeypatch.context() as patch:
        patch.setattr(sequences, "factorial", no_factorial)
        for row in (601, 2001, 4001):
            with pytest.raises(SizeLimitExceeded) as refused:
                triangle.value(row - 1)
            assert str(refused.value) == (
                f"row {row} of the q-Seidel triangle would take more than the limit of 1024 MB"
            )
    # a small row still builds at the digit width of 41! / 2!^20 times 21 tails
    assert triangle.value(40) == salie(20)
    assert triangle._width == ((factorial(41) // 2**20 * 21).bit_length() + 7) // 8


def test_euler_triangle_is_built_only_for_a_new_k(monkeypatch):
    first = sequences._euler_triangle(3)
    monkeypatch.setattr(sequences, "_Triangle", None)  # building one now raises
    assert sequences._euler_triangle(3) is first


def test_cold_concurrent_fills_are_consistent():
    # a fresh process, so the triangles start empty; more threads than
    # cores, each asking for its own index
    code = textwrap.dedent("""
        import random, sys
        from concurrent.futures import ThreadPoolExecutor
        from functools import partial
        from qcong import sequences as s
        sys.setswitchinterval(1e-6)
        families = {
            "tangent": s.tangent,
            "salie_tilde": s.salie_tilde,
            "gen_euler_3": partial(s.gen_euler, 3),  # the first call makes
            "gen_euler_4": partial(s.gen_euler, 4),  # the triangle of its k
        }
        jobs = [(name, n) for name in families for n in range(24)]
        random.Random(7).shuffle(jobs)
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: families[job[0]](job[1]), jobs))
        # one thread on triangles of their own, in the same order
        t2, t3, t4 = (s._Triangle(k, s._EULER[k]._source) for k in (2, 3, 4))
        tilde = s._Triangle(2, s._SALIE_TILDE._source)
        fresh = {
            "tangent": lambda n: t2.value(2 * n + 1),
            "salie_tilde": lambda n: tilde.value(2 * n),
            "gen_euler_3": lambda n: (-1) ** n * t3.value(3 * n),
            "gen_euler_4": lambda n: (-1) ** n * t4.value(4 * n),
        }
        for (name, n), value in zip(jobs, got):
            assert value == fresh[name](n), (name, n)
        print("ok")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# classical specializations at q = 1 -----------------------------------------


def test_euler_at_one_is_signed_secant():
    zz = zigzag_numbers(61)
    for n in range(31):
        assert eval_int(euler(n), 1) == (-1) ** n * zz[2 * n]


def test_tangent_at_one_is_tangent_numbers():
    zz = zigzag_numbers(62)
    assert [eval_int(tangent(n), 1) for n in range(4)] == [1, 2, 16, 272]
    for n in range(31):
        assert eval_int(tangent(n), 1) == zz[2 * n + 1]


def test_salie_at_one_carlitz_divisibility():
    values = [eval_int(salie(n), 1) for n in range(9)]
    assert values[:4] == [1, 2, 12, 152]
    for n, v in enumerate(values):
        assert v % 2**n == 0


# structural identities (cross-validate the derived recurrences) ---------------


def test_salie_tangent_convolution_small():
    # sum_k (-1)^k q^k [2n,2k] S_{2k} S_{2n-2k} = T_{2n-1} (1 - q^{2n})
    for n in range(1, 7):
        lhs = IntPoly()
        for k in range(n + 1):
            lhs = lhs + (-1) ** k * q_power(k) * gauss(2 * n, 2 * k) * salie(k) * salie(n - k)
        assert lhs == tangent(n - 1) * (ONE - q_power(2 * n))


def test_salie_bar_euler_sum_small():
    # Sbar_{2n} = sum_k (-1)^k [2n,2k] E_{2k}
    for n in range(7):
        rhs = IntPoly()
        for k in range(n + 1):
            rhs = rhs + (-1) ** k * gauss(2 * n, 2 * k) * euler(k)
        assert salie_bar(n) == rhs


def test_salie_hat_tangent_convolution_small():
    # sum_k (-1)^k q^{2k} [2n,2k] Shat_{2k} Shat_{2n-2k} = T_{2n-1}(1+q)(1-q^{2n})
    for n in range(2, 7):
        lhs = IntPoly()
        for k in range(n + 1):
            term = gauss(2 * n, 2 * k) * salie_hat(k) * salie_hat(n - k)
            lhs = lhs + (-1) ** k * q_power(2 * k) * term
        assert lhs == tangent(n - 1) * poly(1, 1) * (ONE - q_power(2 * n))


def test_variant_constant_divisibilities():
    for n in range(1, 16):
        assert all(c % 2 == 0 for c in salie_bar(n).coeffs)
        assert not naive_rem(salie_hat(n), (1, 0, 1))
        assert not naive_rem(salie_tilde(n), (1, 1))


def test_salie_one_plus_q_power_divisibility():
    for n in range(1, 9):
        assert not naive_rem(salie(n), poly_pow(poly(1, 1), n).coeffs)


# dispatch + concurrency ------------------------------------------------------


def test_sequence_families_dispatch():
    # tag -> generator, as DIVISOR_FAMILIES; gen-euler takes k first
    assert SEQUENCE_FAMILIES == {
        "euler": euler,
        "tangent": tangent,
        "salie": salie,
        "gen-euler": gen_euler,
        "salie-bar": salie_bar,
        "salie-hat": salie_hat,
        "salie-tilde": salie_tilde,
    }
    assert SEQUENCE_FAMILIES["euler"](2) == euler(2)
    assert SEQUENCE_FAMILIES["gen-euler"](3, 3) == gen_euler(3, 3)


def test_concurrent_fills_are_consistent():
    expected = euler(8)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: euler(8), range(16)))
    assert all(r == expected for r in results)
