"""Cyclotomic generation and factored products."""

import pytest
from hypothesis import given, strategies as st

from qcong.cyclotomic import FactoredPoly, cyclotomic, factor_one_plus_qd, rem_cyclotomic
from qcong.divisors import big_d, big_p, q_bar, q_hat, q_tilde
from qcong.poly import IntPoly, ONE, one_plus_q_power, q_power
from qcong.sequences import salie, salie_bar, salie_hat, salie_tilde, tangent
from oracles import a_exponent, naive_factored_divides


def poly(*coeffs):
    return IntPoly(coeffs)


def test_first_cyclotomics():
    assert cyclotomic(1) == poly(-1, 1)
    assert cyclotomic(2) == poly(1, 1)
    assert cyclotomic(3) == poly(1, 1, 1)
    assert cyclotomic(4) == poly(1, 0, 1)
    assert cyclotomic(6) == poly(1, -1, 1)
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomics_are_monic():
    for n in range(1, 60):
        assert cyclotomic(n).leading_coefficient() == 1


def test_product_over_divisors_up_to_200():
    for n in range(1, 201):
        product = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == q_power(n) - 1


def test_factor_one_plus_qd_small():
    assert factor_one_plus_qd(1).factors == {2: 1}
    assert factor_one_plus_qd(2).factors == {4: 1}
    assert factor_one_plus_qd(3).factors == {2: 1, 6: 1}
    assert factor_one_plus_qd(3).expand() == poly(1, 0, 0, 1)


def test_factor_one_plus_qd_expands_correctly():
    for d in range(1, 101):
        assert factor_one_plus_qd(d).expand() == one_plus_q_power(d)


def test_odd_exponent_uses_all_divisors():
    # For odd d = 2r+1 every factor Phi_{2t} with t | d appears once.
    for r in range(31):
        d = 2 * r + 1
        expected = {2 * t: 1 for t in range(1, d + 1) if d % t == 0}
        assert factor_one_plus_qd(d).factors == expected


def test_expand_examples():
    assert FactoredPoly().expand() == ONE
    # (1+q)^2 (1+q^3) carries Phi_2 three times: twice alone, once inside 1+q^3
    assert FactoredPoly({2: 3, 6: 1}).expand() == poly(1, 1) ** 2 * poly(1, 0, 0, 1)
    assert FactoredPoly({2: 2, 6: 1}).expand() == poly(1, 1) * poly(1, 0, 0, 1)
    assert FactoredPoly({2: 1, 4: 1}).expand() == poly(1, 1) * poly(1, 0, 1)


def test_divides_with_witness():
    ok, quotient = FactoredPoly({2: 1}).divides(poly(1, 1))
    assert ok and quotient == ONE

    ok, remainder = FactoredPoly({2: 3}).divides(poly(1, 1) ** 2)
    assert not ok and not remainder.is_zero()

    s4 = poly(0, 2, 4, 3, 2, 1)
    ok, quotient = FactoredPoly({2: 2}).divides(s4)
    assert ok and quotient == poly(0, 2, 0, 1)

    with pytest.raises(ValueError):
        FactoredPoly({2: 1}).divides(IntPoly())


def assert_divides_like_oracle(divisor, p):
    ok, result = divisor.divides(p)
    assert (ok, list(result.coeffs)) == naive_factored_divides(
        divisor.factors, list(p.coeffs)
    )
    return ok


def divisibility_cases():
    """(divisor, dividend) of theorem2 n <= 22 with its powers, foata n <= 20
    with salie-unit-power, and conj61 n <= 18: the divisibility workload."""
    for n in range(1, 23):
        yield big_p(n), salie(n)
        for r in range((n + 1) // 2):
            yield factor_one_plus_qd(2 * r + 1) ** (n // (2 * r + 1)), salie(n)
    for n in range(1, 21):
        yield big_d(n), tangent(n)
        yield FactoredPoly({2: n}), salie(n)
    for n in range(1, 19):
        for divisor_fn, value_fn in ((q_bar, salie_bar), (q_hat, salie_hat),
                                     (q_tilde, salie_tilde)):
            yield divisor_fn(n), value_fn(n)


def test_divides_matches_expanded_long_division():
    for divisor, p in divisibility_cases():
        # every divisor of the suites is a product of binomials 1 + q^j
        assert divisor.binomial_split() is not None
        assert assert_divides_like_oracle(divisor, p)
        # q^i is a unit modulo every Phi_d, so this fails unless divisor is 1,
        # and the witness is the canonical remainder of the long division
        perturbed = p + q_power(p.degree() // 2 + len(divisor.factors))
        assert assert_divides_like_oracle(divisor, perturbed) == divisor.is_one()


def test_divides_products_that_do_not_split():
    s5 = salie(5)
    for factors in ({1: 1}, {3: 1}, {6: 1}, {2: 1, 3: 1}, {2: 1, 6: 2}):
        divisor = FactoredPoly(factors)
        assert divisor.binomial_split() is None
        assert assert_divides_like_oracle(divisor, s5 * divisor.expand())
        assert not assert_divides_like_oracle(divisor, s5 + q_power(3))


def test_divides_fails_late_in_the_chain():
    # (1 + q^3) passes, then (1 + q) does not divide 1 + q^2
    divisor = factor_one_plus_qd(3) * factor_one_plus_qd(1)
    assert divisor.binomial_split() == [(3, 1), (1, 1)]
    assert not assert_divides_like_oracle(divisor, one_plus_q_power(3) * one_plus_q_power(2))


def test_divides_by_the_empty_product():
    assert FactoredPoly().binomial_split() == []
    for p in (salie(4), poly(-3), q_power(5)):
        assert FactoredPoly().divides(p) == (True, p)
        assert assert_divides_like_oracle(FactoredPoly(), p)


def test_big_p_splits_into_its_binomials():
    # P_n = prod_r (1 + q^(2r+1))^a(n, r), largest binomial first
    for n in range(1, 31):
        split = big_p(n).binomial_split()
        expected = [(2 * r + 1, a_exponent(n, r)) for r in range((n - 1) // 2, -1, -1)]
        assert split == expected
        product = FactoredPoly()
        for j, e in split:
            product = product * factor_one_plus_qd(j) ** e
        assert product == big_p(n)


def test_distinct_cyclotomics_are_coprime():
    for d in range(1, 51):
        for e in range(1, 51):
            if d == e:
                continue
            ok, _ = FactoredPoly({d: 1}).divides(cyclotomic(e))
            assert not ok


def test_factored_algebra():
    a = FactoredPoly({2: 1, 6: 2})
    b = FactoredPoly({2: 3, 10: 1})
    assert (a * b).factors == {2: 4, 6: 2, 10: 1}
    assert (a**2).factors == {2: 2, 6: 4}
    assert (a**0).is_one()
    assert a.lcm(b).factors == {2: 3, 6: 2, 10: 1}
    assert a.exponent(6) == 2 and a.exponent(30) == 0
    assert a.expand() == a.expand()  # deterministic
    assert str(FactoredPoly()) == "1"
    assert str(a) == "Phi_2 * Phi_6^2"


def test_factored_validation():
    assert FactoredPoly({4: 0}).is_one()  # zero exponents dropped
    assert FactoredPoly([(2, 1), (2, 2)]).factors == {2: 3}  # pairs merge
    with pytest.raises(ValueError):
        FactoredPoly({0: 1})
    with pytest.raises(ValueError):
        FactoredPoly({2: -1})
    with pytest.raises(ValueError):
        FactoredPoly({2: 1}) ** -1


def test_factored_equality_hash():
    assert FactoredPoly({2: 1}) == FactoredPoly([(2, 1)])
    assert hash(FactoredPoly({2: 1})) == hash(FactoredPoly({2: 1}))
    assert FactoredPoly({2: 1}) != FactoredPoly({2: 2})


@given(
    st.integers(0, 250).flatmap(
        lambda n: st.lists(st.integers(-(2**200), 2**200), min_size=n, max_size=n)
    ),
    st.integers(1, 60),
)
def test_rem_cyclotomic_matches_long_division(a, m):
    p = IntPoly(a)
    assert rem_cyclotomic(p, m) == p.rem_monic(cyclotomic(m))


def test_rem_cyclotomic_rejects_bad_index():
    for m in (0, -1, -4):
        with pytest.raises(ValueError):
            rem_cyclotomic(poly(1, 1), m)
