"""Divisor families: decompositions, exponent counts, and the printed tables."""

import pytest

from qcong.cyclotomic import FactoredPoly, factor_one_plus_qd
from qcong.divisors import big_d, big_p, ev, odd_part, q_bar, q_hat, q_tilde
from qcong.poly import IntPoly, ONE, one_plus_q_power
from qcong.sequences import salie, tangent
from oracles import a_exponent


def little_p(n):
    """1 + q^(2r+1) where 2r+1 is the odd part of n, factored."""
    dec = odd_part(n)
    return factor_one_plus_qd(2 * dec.r + 1)


def chunks(*pairs):
    """Product of (1 + q^base)^exp factors, in factored form."""
    out = FactoredPoly()
    for base, exp in pairs:
        out = out * factor_one_plus_qd(base) ** exp
    return out


# Table of P_n as printed: (odd base, exponent) pairs.
TABLE_P = {
    1: [(1, 1)],
    2: [(1, 2)],
    3: [(1, 2), (3, 1)],
    4: [(1, 3), (3, 1)],
    5: [(1, 3), (3, 1), (5, 1)],
    6: [(1, 3), (3, 2), (5, 1)],
    7: [(1, 3), (3, 2), (5, 1), (7, 1)],
    8: [(1, 4), (3, 2), (5, 1), (7, 1)],
}

# Table of Qbar_n; row 6 is printed as (1+q^2)^2(1+q^4)^2(1+q^6) in the
# source table, which contradicts the defining product (exponent of Phi_8
# is floor(6/4) = 1) and its lcm characterization, so the corrected row
# (1+q^2)^2(1+q^4)(1+q^6) is pinned here.
TABLE_QBAR = {
    1: [],
    2: [(2, 1)],
    3: [(2, 1)],
    4: [(2, 2), (4, 1)],
    5: [(2, 2), (4, 1)],
    6: [(2, 2), (4, 1), (6, 1)],
    7: [(2, 2), (4, 1), (6, 1)],
    8: [(2, 3), (4, 2), (6, 1), (8, 1)],
}


def test_odd_part():
    assert odd_part(12) == (12, 2, 1)
    assert odd_part(1) == (1, 0, 0)
    assert odd_part(40) == (40, 3, 2)
    for n in range(1, 200):
        dec = odd_part(n)
        assert n == 2**dec.s * (2 * dec.r + 1)
    with pytest.raises(ValueError):
        odd_part(0)


def test_little_p():
    assert little_p(4) == factor_one_plus_qd(1)
    assert little_p(6) == factor_one_plus_qd(3)
    assert little_p(5) == factor_one_plus_qd(5)


def test_a_exponent():
    assert a_exponent(7, 0) == 3  # 1, 2, 4
    assert a_exponent(3, 1) == 1
    assert a_exponent(8, 0) == 4
    for n in range(1, 30):
        for r in range(n, n + 5):
            if 2 * r + 1 > n:
                assert a_exponent(n, r) == 0


def test_big_p_table():
    for n, spec in TABLE_P.items():
        assert big_p(n) == chunks(*spec)
        assert big_p(n).expand() == chunks(*spec).expand()


def test_big_p_two_forms_agree():
    # prod_k little_p(k) == prod_r (1+q^{2r+1})^{a(n,r)} == big_p(n)
    for n in range(1, 31):
        via_little = FactoredPoly()
        for k in range(1, n + 1):
            via_little = via_little * little_p(k)
        via_counts = chunks(
            *((2 * r + 1, a_exponent(n, r)) for r in range((n + 1) // 2))
        )
        assert via_little == big_p(n)
        assert via_counts == big_p(n)


def test_big_p_at_one():
    for n in range(1, 21):
        assert big_p(n).expand().eval_int(1) == 2**n


def test_big_p_is_lcm_of_powers():
    for n in range(1, 21):
        acc = FactoredPoly()
        for r in range((n + 1) // 2):
            acc = acc.lcm(factor_one_plus_qd(2 * r + 1) ** (n // (2 * r + 1)))
        assert acc == big_p(n)


def test_ev():
    assert ev(1) == factor_one_plus_qd(1)
    assert ev(6) == factor_one_plus_qd(3) * factor_one_plus_qd(6)
    assert ev(4) == chunks((1, 1), (2, 1), (4, 1))
    for n in range(1, 40):
        dec = odd_part(n)
        odd = 2 * dec.r + 1
        expected = ONE
        for j in range(dec.s + 1):
            expected = expected * one_plus_q_power(2**j * odd)
        assert ev(n).expand() == expected


def test_big_d():
    assert big_d(1) == factor_one_plus_qd(1)
    assert big_d(2) == chunks((1, 2), (2, 2))
    ok, quotient = big_d(1).divides(tangent(1))
    assert ok and quotient == IntPoly((0, 1))


def test_foata_divisibility_small():
    for n in range(1, 9):
        ok, _ = big_d(n).divides(tangent(n))
        assert ok


def test_theorem_divisor_small():
    for n in range(1, 9):
        ok, _ = big_p(n).divides(salie(n))
        assert ok


def test_q_bar_table():
    assert q_bar(1).is_one()
    for n, spec in TABLE_QBAR.items():
        assert q_bar(n) == chunks(*spec)
        assert q_bar(n).expand() == chunks(*spec).expand()


def test_q_bar_is_lcm_of_even_powers():
    for n in range(1, 21):
        acc = FactoredPoly()
        for r in range(1, n // 2 + 1):
            acc = acc.lcm(factor_one_plus_qd(2 * r) ** (n // (2 * r)))
        assert acc == q_bar(n)


def test_q_hat():
    assert q_hat(3) == q_bar(3) * factor_one_plus_qd(2)
    assert q_hat(4) == q_bar(4)
    assert q_hat(1) == FactoredPoly({4: 1})


def test_q_tilde():
    assert q_tilde(3) == chunks((1, 1), (2, 1), (3, 1))
    for n in range(1, 21):
        expected = ONE
        for j in range(1, n + 1):
            expected = expected * one_plus_q_power(j)
        assert q_tilde(n).expand() == expected


def test_preconditions():
    for fn in (little_p, big_p, ev, big_d, q_bar, q_hat, q_tilde):
        with pytest.raises(ValueError):
            fn(0)
