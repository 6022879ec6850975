"""Gaussian polynomials: three independent computation routes must agree."""

import subprocess
import sys
import textwrap
from functools import lru_cache
from math import comb

import pytest

from qcong.cyclotomic import FactoredPoly, cyclotomic
from qcong.poly import IntPoly, ONE, ZERO, q_power
from qcong.qbinom import gauss, gauss_factored, q_lucas_holds


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
    """Oracle: (q;q)_m / ((q;q)_n (q;q)_{m-n}) by exact division."""
    return qpoch(m).exact_div(qpoch(n) * qpoch(m - n))


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
    assert gauss(3, 5) == ZERO
    assert gauss(3, -1) == ZERO
    assert gauss(5, 0) == ONE
    assert gauss(5, 5) == ONE
    with pytest.raises(ValueError):
        gauss(-1, 0)


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
            assert gauss(m, n).eval_int(1) == comb(m, n)


def test_cold_table_needs_no_deep_recursion():
    # a fresh process, so the table starts empty; it is filled row by row
    code = textwrap.dedent("""
        import sys
        sys.setrecursionlimit(200)
        from qcong.qbinom import gauss
        assert gauss(1500, 1).coeffs == (1,) * 1500
        assert gauss(600, 2).eval_int(1) == 600 * 599 // 2
        print("ok")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_gauss_factored_small():
    assert gauss_factored(4, 2).factors == {3: 1, 4: 1}
    assert gauss_factored(2, 1).factors == {2: 1}
    assert gauss_factored(7, 0).factors == {}
    with pytest.raises(ValueError):
        gauss_factored(3, 4)


def test_gauss_factored_matches_pascal_route():
    for m in range(21):
        for n in range(m + 1):
            assert gauss_factored(m, n).expand() == gauss(m, n)


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
            assert q_lucas_holds(m, k, 1)
            assert q_lucas_holds(m, k, 2)
    for d in range(1, 7):
        for m in range(17):
            for k in range(m + 1):
                assert q_lucas_holds(m, k, d)


def test_q_lucas_specific_value():
    # [5 over 3] at a primitive cube root: 5=1*3+2, 3=1*3+0 -> C(1,1)*[2 over 0]
    from qcong.qbinom import q_lucas_sides

    lhs, rhs = q_lucas_sides(5, 3, 3)
    assert lhs == rhs
    assert rhs == 1
    # and the raw reduction really is nontrivial
    assert gauss(5, 3).rem_monic(cyclotomic(3)) == ONE.rem_monic(cyclotomic(3))
