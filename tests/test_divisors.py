"""Divisor families: decompositions, exponent counts, and the printed tables."""

import pytest

from qcong import verify as v
from qcong.cyclotomic import FactoredPoly, factor_one_plus_qd
from qcong.divisors import big_d, big_p, ev, q_bar, q_hat, q_tilde
from qcong.poly import IntPoly
from qcong.sequences import salie, tangent
import oracles
from oracles import ONE, a_exponent, eval_int, factors_lcm, one_plus_q_power


def little_p(n):
    """1 + q^(2r+1) where 2r+1 is the odd part of n, factored."""
    odd = n
    while odd and odd % 2 == 0:
        odd //= 2
    return factor_one_plus_qd(odd)


def chunks(*pairs):
    """Product of (1 + q^base)^exp factors, in factored form."""
    return FactoredPoly(oracles.chain_binomials(pairs))


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
        via_little = FactoredPoly(
            pair for k in range(1, n + 1) for pair in little_p(k).factors.items()
        )
        via_counts = chunks(
            *((2 * r + 1, a_exponent(n, r)) for r in range((n + 1) // 2))
        )
        assert via_little == big_p(n)
        assert via_counts == big_p(n)


def test_big_p_at_one():
    for n in range(1, 21):
        assert eval_int(big_p(n).expand(), 1) == 2**n


def test_big_p_is_lcm_of_powers():
    for n in range(1, 21):
        acc = {}
        for r in range((n + 1) // 2):
            acc = factors_lcm(acc, chunks((2 * r + 1, n // (2 * r + 1))).factors)
        assert acc == big_p(n).factors


def test_ev():
    assert ev(1) == factor_one_plus_qd(1)
    assert ev(6) == chunks((3, 1), (6, 1))
    assert ev(4) == chunks((1, 1), (2, 1), (4, 1))
    for n in range(1, 40):
        s, odd = 0, n
        while odd % 2 == 0:
            s, odd = s + 1, odd // 2
        expected = ONE
        for j in range(s + 1):
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
    assert q_bar(1) == FactoredPoly()
    for n, spec in TABLE_QBAR.items():
        assert q_bar(n) == chunks(*spec)
        assert q_bar(n).expand() == chunks(*spec).expand()


def test_q_bar_is_lcm_of_even_powers():
    for n in range(1, 21):
        acc = {}
        for r in range(1, n // 2 + 1):
            acc = factors_lcm(acc, chunks((2 * r, n // (2 * r))).factors)
        assert acc == q_bar(n).factors


def test_q_hat():
    assert q_hat(3) == FactoredPoly([*q_bar(3).factors.items(), *chunks((2, 1)).factors.items()])
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


def test_families_match_their_multiply_chains():
    # each family is one factor_one_plus_qd call on its binomials' exponents
    for n in range(1, 41):
        assert ev(n).factors == oracles.chain_ev(n), n
        assert big_p(n).factors == oracles.chain_big_p(n), n
        assert q_bar(n).factors == oracles.chain_q_bar(n), n
        assert big_d(n).factors == oracles.chain_big_d(n), n
        assert q_hat(n).factors == oracles.chain_q_hat(n), n
        assert q_tilde(n).factors == oracles.chain_binomials((j, 1) for j in range(1, n + 1)), n


def test_families_match_the_papers_cyclotomic_forms():
    # P_n and Qbar_n split the chains of D_n, and each is the paper's
    # product of Phi_{4r+2} or Phi_{4r}
    for n in range(1, 301):
        p, q = big_p(n), q_bar(n)
        assert p.factors == oracles.phi_big_p(n), n
        assert q.factors == oracles.phi_q_bar(n), n
        assert q_hat(n).factors == oracles.chain_q_hat(n), n
        product = [*p.factors.items(), *q.factors.items(), (4, 1 - n % 2)]
        assert big_d(n) == FactoredPoly(product), n


def test_theorem2_power_divisor_matches_its_multiply_chain(monkeypatch):
    # only the divisor is compared: the division itself is skipped
    monkeypatch.setattr(v, "salie", lambda n: None)
    monkeypatch.setattr(v, "_divisibility", lambda *args, **kwargs: args[3])
    for n in range(1, 41):
        for r in range((n + 1) // 2):
            divisor = v.check_theorem2_power(n, r)
            expected = oracles.chain_binomials([(2 * r + 1, n // (2 * r + 1))])
            assert divisor.factors == expected, (n, r)
