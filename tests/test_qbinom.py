"""Gaussian polynomials: the binomial-series route of gauss must agree with
the q-Pascal recurrence, with long division of q-Pochhammer symbols, and
with the expanded cyclotomic factorization."""

import importlib
import subprocess
import sys
import textwrap
from functools import lru_cache
from math import comb

import pytest

from qcong import qbinom
from qcong.cyclotomic import FactoredPoly
from qcong.poly import IntPoly
from qcong.residues import inject
from qcong.qbinom import gauss
from oracles import (
    ONE,
    eval_int,
    gauss_factored,
    naive_cyclotomic,
    naive_expand,
    naive_gauss,
    naive_rem,
    q_lucas_holds,
    q_lucas_sides,
    q_power,
)

CYCLOTOMIC = importlib.import_module("qcong.cyclotomic")


def poly(*coeffs):
    return IntPoly(coeffs)


@lru_cache(maxsize=None)
def qpoch(n):
    """(q;q)_n = (1-q)(1-q^2)...(1-q^n); the q-analogue of n factorial."""
    if n < 0:
        raise ValueError("q-Pochhammer index must be nonnegative")
    if n == 0:
        return ONE
    return qpoch(n - 1) * (ONE - q_power(n))


def pochhammer_cyclo_exponents(m):
    """(q;q)_m = sign * prod_{d<=m} Phi_d^{floor(m/d)}; returns (product, sign)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return FactoredPoly({d: m // d for d in range(1, m + 1)}), (-1) ** m


def gauss_by_division(m, n):
    """Oracle: (q;q)_m / ((q;q)_n (q;q)_{m-n}) by exact division.

    Both leading coefficients are (-1)^m, so both sides are multiplied by
    (-1)^m to make the divisor monic.
    """
    sign = (-1) ** m
    quotient, remainder = (sign * qpoch(m))._divmod(sign * qpoch(n) * qpoch(m - n))
    assert not remainder
    return quotient


def test_qpoch_small():
    assert qpoch(0) == ONE
    assert qpoch(1) == poly(1, -1)
    assert qpoch(3) == poly(1, -1) * poly(1, 0, -1) * poly(1, 0, 0, -1)
    assert qpoch(3) == poly(1, -1, -1, 0, 1, 1, -1)
    with pytest.raises(ValueError):
        qpoch(-1)


def test_gauss_small():
    assert gauss(2, 1) == poly(1, 1)
    assert gauss(4, 2) == poly(1, 1, 2, 1, 1)
    assert gauss(3, 5) == IntPoly()
    assert gauss(3, -1) == IntPoly()
    assert gauss(5, 0) == ONE
    assert gauss(5, 5) == ONE
    with pytest.raises(ValueError):
        gauss(-1, 0)


def test_gauss_matches_pascal_oracle():
    for m in range(31):
        for n in range(m + 1):
            assert gauss(m, n) == IntPoly(naive_gauss(m, n)), (m, n)


def test_gauss_matches_division_oracle():
    for m in range(21):
        for n in range(m + 1):
            assert gauss(m, n) == gauss_by_division(m, n)


def test_gauss_symmetry_and_shape():
    for m in range(21):
        for n in range(m + 1):
            g = gauss(m, n)
            assert g == gauss(m, m - n)
            assert g.degree() == n * (m - n)
            assert all(c >= 0 for c in g.coeffs)
            # palindromic coefficients
            assert g.coeffs == tuple(reversed(g.coeffs))


def test_gauss_specializes_to_binomial():
    for m in range(31):
        for n in range(m + 1):
            assert eval_int(gauss(m, n), 1) == comb(m, n)


def test_gauss_states_a_floor_of_its_series_first_in_the_same_words(monkeypatch):
    # before its steps are built, `_gauss` states its series' bytes at 32 a
    # coefficient and no steps; the series then states its own estimate, of
    # the same passes and degree, in the same words
    stated = []
    monkeypatch.setattr(CYCLOTOMIC, "refuse", lambda *args: stated.append(args))
    for m in range(41):
        for n in range(m // 2 + 1):
            stated.clear()
            qbinom._gauss.__wrapped__(m, n)
            (floor_what, floor_bytes, floor_steps), (what, peak, _) = stated
            assert floor_what == what, (m, n)
            assert floor_bytes == (n * (m - n) + 1) * 32 <= peak
            assert floor_steps == 0


def test_cold_table_needs_no_deep_recursion():
    # a fresh process, so the memo table starts empty; each value is one
    # loop of binomial passes, with no recursion
    code = textwrap.dedent("""
        import sys
        sys.setrecursionlimit(200)
        from qcong.qbinom import gauss
        assert gauss(1500, 1).coeffs == (1,) * 1500
        assert sum(gauss(600, 2).coeffs) == 600 * 599 // 2
        print("ok")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_gauss_factored_small():
    # the floor-count factorization the tests check gauss against
    assert gauss_factored(4, 2) == {3: 1, 4: 1}
    assert gauss_factored(2, 1) == {2: 1}
    assert gauss_factored(7, 0) == {}
    with pytest.raises(ValueError):
        gauss_factored(3, 4)


def test_gauss_factored_matches_pascal_route():
    for m in range(21):
        for n in range(m + 1):
            assert naive_expand(gauss_factored(m, n)) == list(naive_gauss(m, n))


def test_pochhammer_cyclo_exponents():
    f, sign = pochhammer_cyclo_exponents(0)
    assert f.factors == {} and sign == 1
    f, sign = pochhammer_cyclo_exponents(2)
    assert f.factors == {1: 2, 2: 1} and sign == 1
    f, sign = pochhammer_cyclo_exponents(3)
    assert f.factors == {1: 3, 2: 1, 3: 1} and sign == -1
    for m in range(51):
        f, sign = pochhammer_cyclo_exponents(m)
        assert sign * f.expand() == qpoch(m)


def test_q_lucas_degenerate_and_small():
    # d = 1 reduces to plain binomials, d = 2 to evaluation at -1
    for m in range(13):
        for k in range(m + 1):
            assert q_lucas_holds(m, k, 1, gauss)
            assert q_lucas_holds(m, k, 2, gauss)
    for d in range(1, 7):
        for m in range(17):
            for k in range(m + 1):
                assert q_lucas_holds(m, k, d, gauss)


def test_q_lucas_specific_value():
    # [5 over 3] at a primitive cube root: 5=1*3+2, 3=1*3+0 -> C(1,1)*[2 over 0]
    lhs, rhs = q_lucas_sides(5, 3, 3, gauss)
    assert lhs == rhs
    assert rhs == [1]
    # and the raw reduction really is nontrivial
    assert naive_rem(gauss(5, 3), naive_cyclotomic(3)) == naive_rem(ONE, naive_cyclotomic(3))


def test_q_lucas_sides_are_reduced_residues():
    # the sides, long-divided by Phi_d, are the library's residues in Z[q]/Phi_d
    for d in range(1, 9):
        for m in range(13):
            for k in range(m + 1):
                lhs, rhs = q_lucas_sides(m, k, d, gauss)
                assert IntPoly(lhs) == inject(gauss(m, k), d)
                a, b = divmod(m, d)
                r, s = divmod(k, d)
                assert IntPoly(rhs) == comb(a, r) * inject(gauss(b, s), d)
