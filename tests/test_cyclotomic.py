"""Cyclotomic generation and factored products."""

import importlib
import math
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from qcong import qbinom
from qcong.cyclotomic import (
    FactoredPoly,
    _binomial_series,
    _moebius,
    cyclotomic,
    factor_one_plus_qd,
)
from qcong.divisors import DIVISOR_FAMILIES, big_d, big_p, q_bar, q_hat, q_tilde
from qcong.poly import IntPoly, SizeLimitExceeded
from qcong.qbinom import gauss
from qcong.sequences import salie, salie_bar, salie_hat, salie_tilde, tangent
from oracles import (
    ONE,
    a_exponent,
    binomial_power_series,
    chain_binomials,
    eval_int,
    full_binomial_series,
    gauss_factored,
    gauss_series_estimate,
    naive_cyclotomic,
    naive_expand,
    naive_factored_divides,
    naive_mul,
    one_plus_q_power,
    poly_pow,
    q_power,
    series_estimate,
)

# the package namespace binds `qcong.cyclotomic` to the function
CYCLOTOMIC = importlib.import_module("qcong.cyclotomic")
POLY = importlib.import_module("qcong.poly")


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
        assert cyclotomic(n).coeffs[-1] == 1


def test_cyclotomics_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic(n).coeffs) == expected, n


def test_product_over_divisors_up_to_200():
    # and 2310, the product of the first five primes
    for n in [*range(1, 201), 2310]:
        product = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == q_power(n) - 1


def test_cyclotomics_match_the_division_oracle():
    for n in range(1, 301):
        assert cyclotomic(n) == IntPoly(naive_cyclotomic(n)), n


def test_cyclotomic_takes_no_product_and_no_long_division(monkeypatch):
    # and neither do the Gaussian binomials nor expanded products, which
    # are built from the same binomial passes
    composite = {n: cyclotomic(n) for n in (105, 2310, 30030)}
    expanded = {f: IntPoly(naive_expand(f.factors)) for f in (big_d(40), big_p(60))}

    def forbidden(*args):
        raise AssertionError("a product of binomials multiplied or long-divided")

    monkeypatch.setattr(IntPoly, "_divmod", forbidden)
    monkeypatch.setattr(IntPoly, "__mul__", forbidden)
    cyclotomic.cache_clear()
    qbinom._gauss.cache_clear()
    try:
        for p in (2, 3, 5, 7, 97, 1009):
            assert cyclotomic(p) == IntPoly((1,) * p)
        # Phi_(p^k)(q) = Phi_p(q^(p^(k-1)))
        assert cyclotomic(4096) == one_plus_q_power(2048)
        assert cyclotomic(3**7) == IntPoly((1, 1, 1)).substitute_power(3**6)
        for n, expected in composite.items():
            assert cyclotomic(n) == expected, n
        phi_105 = cyclotomic(105).coeffs
        assert [i for i, c in enumerate(phi_105) if c == -2] == [7, 41]
        middle = gauss(200, 100)
        assert middle.degree() == 100 * 100 and eval_int(middle, 1) == comb(200, 100)
        assert gauss(1500, 1) == IntPoly((1,) * 1500)
        for factored, expected in expanded.items():
            assert factored.expand() == expected, factored
    finally:
        cyclotomic.cache_clear()
        qbinom._gauss.cache_clear()


STEPS = st.lists(st.tuples(st.integers(1, 12), st.booleans(), st.booleans()), max_size=12)


@given(STEPS, st.integers(0, 60))
@example([(6, False, False), (3, True, False), (2, True, False), (1, False, False)], 2)  # Phi_6
@example([(3, False, True), (1, True, True)], 2)  # Phi_6 as (1 + q^3) / (1 + q)
@example(
    [(8, False, False), (4, True, False), (2, True, False), (4, False, False), (2, True, False)], 60
)
@example([(3, True, False), (6, False, False), (3, False, False), (2, True, False)], 10)
@example([(2, True, True), (1, False, True), (3, False, True), (3, True, True)], 12)
def test_binomial_series_matches_full_passes(steps, degree):
    # the passes stop at the live degree, and a divide that leaves a
    # polynomial lowers it; every pass over the whole range is the reference
    assert _binomial_series(steps, degree) == full_binomial_series(steps, degree)


@given(STEPS, st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=40), st.integers(0, 60))
@example([(3, True, True)], [1, 0, 0, 1], 3)  # (1 + q^3) / (1 + q^3), exact
@example([(1, True, True), (2, True, True)], [1, 1], 9)  # 1 / (1 + q^2), a power series
@example([(2, True, True)], [1, 0, 0, 1], 9)  # (1 + q^3) / (1 + q^2): on from index 4
@example([(2, True, True)], [5], 0)  # nothing past the cut-off
def test_binomial_series_matches_the_product_oracle(steps, start, cut):
    # start times each binomial's power series, multiplied out and cut off;
    # divisions by 1 + q^c may be exact or leave a true power series
    cut = max(cut, len(start) - 1)
    expected = start
    for step in steps:
        expected = naive_mul(expected, binomial_power_series(*step, cut))[: cut + 1]
    expected = (expected + [0] * (cut + 1))[: cut + 1]
    assert _binomial_series(steps, cut, start=start) == expected


def test_each_one_plus_q_power_is_one_pass():
    # (1 - q^(2c)) / (1 - q^c) is paired into the one pass 1 + q^c
    for n in range(1, 41):
        steps, _ = big_p(n)._net()
        assert len(steps) == n and all(plus for _, _, plus in steps), n
    for m in range(1, 25):
        for b in range(1, 4):
            assert factor_one_plus_qd(*[m] * b)._net()[0] == [(m, False, True)] * b
    for p in (3, 5, 7, 11, 97):
        # Phi_2p = (1 + q^p) / (1 + q)
        assert FactoredPoly({2 * p: 1})._net()[0] == [(p, False, True), (1, True, True)]


def test_series_guard_is_sized_as_its_callers_sized_it(monkeypatch):
    # the guard takes the value at q = 1 over every step, the empty passes
    # too, so each product is refused exactly where the estimate written out
    # in the oracle passes the memory or the work limit.  Phi_105 Phi_2^e is
    # of degree 48 + e < 105 for e < 57, and the empty pass 1 - q^105 puts
    # 105 in its value
    cases = [
        (gauss_series_estimate(m, n), lambda m=m, n=n: qbinom._gauss.__wrapped__(m, n))
        for m in range(2, 31)
        for n in range(1, m // 2 + 1)
    ]
    for p in (2, 3, 5, 7, 11, 13, 97, 101):
        steps, degree = FactoredPoly({p: 1})._net()
        cases.append((series_estimate(steps, degree), lambda p=p: cyclotomic.__wrapped__(p)))
    for e in range(10, 21):
        product = FactoredPoly({2: e, 105: 1})
        cases.append((series_estimate(*product._net()), product.expand))
    for (peak, steps), build in cases:
        for memory, work in ((peak, steps), (peak - 1, steps), (peak, steps - 1)):
            monkeypatch.setattr(POLY, "MEMORY_LIMIT", memory)
            monkeypatch.setattr(POLY, "WORK_LIMIT", work)
            if (memory, work) == (peak, steps):
                build()
            else:
                with pytest.raises(SizeLimitExceeded):
                    build()


def test_moebius_refuses_on_a_lower_bound_of_phi(monkeypatch):
    # with room for exactly phi(n) + 1 coefficients of 32 bytes, the bound
    # never refuses
    for n in range(1, 1001):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        monkeypatch.setattr(POLY, "MEMORY_LIMIT", (phi + 1) * 32)
        assert _moebius(n)[0] == phi, n
    # and it is met at a primorial: phi(2 * 3 * 5 * 7 * 11 * 13) = 5760
    monkeypatch.setattr(POLY, "MEMORY_LIMIT", 5761 * 32 - 1)
    with pytest.raises(SizeLimitExceeded, match="degree at least 5760 "):
        _moebius(30030)


def test_factorizations_are_memoized_but_the_bound_is_not(monkeypatch):
    # each index is factored once however often its product is divided or
    # expanded, and the lower bound still answers to the limit of the moment
    CYCLOTOMIC._factor.cache_clear()
    divisor = big_p(12)
    for _ in range(3):
        divisor.divides(salie(12))
        divisor.expand()
    assert CYCLOTOMIC._factor.cache_info().misses == len(divisor.factors)
    assert _moebius(12) == (4, ((1, False), (2, True), (3, True), (6, False)))
    monkeypatch.setattr(POLY, "MEMORY_LIMIT", 4 * 32)
    with pytest.raises(SizeLimitExceeded, match="degree at least 4 "):
        _moebius(12)


def test_huge_cyclotomic_index_is_refused_before_factoring():
    # trial division of the prime 2^61 - 1 would take minutes
    with pytest.raises(SizeLimitExceeded):
        cyclotomic(2**61 - 1)
    with pytest.raises(SizeLimitExceeded):
        FactoredPoly({2**61 - 1: 1}).expand()


def test_huge_binomial_product_is_refused_before_any_index_is_factored():
    # Q~_11000 is 11,000 passes over 60,505,501 coefficients: refused from its
    # exponents, before _net factors any of its 18,000 cyclotomic indices
    CYCLOTOMIC._factor.cache_clear()
    with pytest.raises(SizeLimitExceeded, match="degree-60505500 series in 11000 "):
        q_tilde(11000).expand()
    assert CYCLOTOMIC._factor.cache_info().misses == 0


def test_expand_matches_the_multiply_out_oracle():
    for family in DIVISOR_FAMILIES.values():
        for n in range(1, 31):
            factored = family(n)
            assert factored.expand() == IntPoly(naive_expand(factored.factors)), factored
    for m in range(21):
        for n in range(m + 1):
            factored = FactoredPoly(gauss_factored(m, n))
            assert factored.expand() == IntPoly(naive_expand(factored.factors)), (m, n)


@given(st.dictionaries(st.integers(1, 40), st.integers(0, 3), max_size=6))
@example({1: 3, 2: 1})
def test_expand_random_products_match_the_oracle(factors):
    # Phi_1 = q - 1 is the one factor whose binomial 1 - q carries a sign
    factored = FactoredPoly(factors)
    expanded = factored.expand()
    assert expanded == IntPoly(naive_expand(factored.factors))
    assert expanded.coeffs[-1] == 1


def test_factor_one_plus_qd_small():
    assert factor_one_plus_qd(1).factors == {2: 1}
    assert factor_one_plus_qd(2).factors == {4: 1}
    assert factor_one_plus_qd(3).factors == {2: 1, 6: 1}
    assert factor_one_plus_qd(3).expand() == poly(1, 0, 0, 1)


def test_factor_one_plus_qd_expands_correctly():
    for d in range(1, 101):
        assert factor_one_plus_qd(d).expand() == one_plus_q_power(d)


@given(st.lists(st.integers(1, 5000), max_size=6))
@example([3, 1, 1])
@example([2, 2, 2])
@example([9, 18, 225])
@example([2**10 * 81, 3**8])
def test_factor_one_plus_qd_of_a_multiset_is_the_binomial_chain(exponents):
    # a repeated exponent raises the power of each of its factors; odd
    # squares and 2^s times odd squares have a divisor at the square root
    factored = factor_one_plus_qd(*exponents)
    assert factored.factors == chain_binomials((d, 1) for d in exponents)
    product = ONE
    for d in exponents:
        product = product + product.shift(d)  # times 1 + q^d
    assert factored.expand() == product


def test_factor_one_plus_qd_of_no_exponent_is_one():
    assert factor_one_plus_qd() == FactoredPoly()
    assert factor_one_plus_qd().expand() == ONE


def test_factor_one_plus_qd_refuses_an_exponent_below_one():
    for exponents in ((0,), (-1,), (3, 0), (1, 2, -4)):
        with pytest.raises(ValueError, match="exponent must be positive"):
            factor_one_plus_qd(*exponents)


def test_odd_exponent_uses_all_divisors():
    # For odd d = 2r+1 every factor Phi_{2t} with t | d appears once.
    for r in range(31):
        d = 2 * r + 1
        expected = {2 * t: 1 for t in range(1, d + 1) if d % t == 0}
        assert factor_one_plus_qd(d).factors == expected


def test_expand_examples():
    assert FactoredPoly().expand() == ONE
    # (1+q)^2 (1+q^3) carries Phi_2 three times: twice alone, once inside 1+q^3
    assert FactoredPoly({2: 3, 6: 1}).expand() == poly_pow(poly(1, 1), 2) * poly(1, 0, 0, 1)
    assert FactoredPoly({2: 2, 6: 1}).expand() == poly(1, 1) * poly(1, 0, 0, 1)
    assert FactoredPoly({2: 1, 4: 1}).expand() == poly(1, 1) * poly(1, 0, 1)


def test_divides_with_witness():
    ok, quotient = FactoredPoly({2: 1}).divides(poly(1, 1))
    assert ok and quotient == ONE

    ok, remainder = FactoredPoly({2: 3}).divides(poly_pow(poly(1, 1), 2))
    assert not ok and remainder != IntPoly()

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
            yield FactoredPoly(chain_binomials([(2 * r + 1, n // (2 * r + 1))])), salie(n)
    for n in range(1, 21):
        yield big_d(n), tangent(n)
        yield FactoredPoly({2: n}), salie(n)
    for n in range(1, 19):
        for divisor_fn, value_fn in ((q_bar, salie_bar), (q_hat, salie_hat),
                                     (q_tilde, salie_tilde)):
            yield divisor_fn(n), value_fn(n)


def test_divides_matches_expanded_long_division():
    for divisor, p in divisibility_cases():
        assert assert_divides_like_oracle(divisor, p)
        # q^i is a unit modulo every Phi_d, so this fails unless divisor is 1,
        # and the witness is the canonical remainder of the long division
        perturbed = p + q_power(p.degree() // 2 + len(divisor.factors))
        assert assert_divides_like_oracle(divisor, perturbed) == (not divisor.factors)


# products of cyclotomic polynomials that are no product of binomials 1 + q^j
UNSPLIT = ({1: 1}, {3: 1}, {6: 1}, {2: 1, 3: 1}, {2: 1, 6: 2})


def test_divides_products_that_do_not_split():
    s5 = salie(5)
    for factors in UNSPLIT:
        divisor = FactoredPoly(factors)
        assert assert_divides_like_oracle(divisor, s5 * divisor.expand())
        assert not assert_divides_like_oracle(divisor, s5 + q_power(3))


def test_divides_fails_late_in_the_chain():
    # divided binomial by binomial, (1 + q^3) passes and then (1 + q) does
    # not divide 1 + q^2
    divisor = FactoredPoly(chain_binomials([(3, 1), (1, 1)]))
    p = one_plus_q_power(3) * one_plus_q_power(2)
    assert factor_one_plus_qd(3).divides(p) == (True, one_plus_q_power(2))
    assert not assert_divides_like_oracle(divisor, p)
    # remainder q^2 modulo 1 + q^3, then 2 modulo 1 + q
    assert not assert_divides_like_oracle(divisor, p + q_power(2))
    # a P_12 chain of 12 binomial steps, seven of them inexact
    assert not assert_divides_like_oracle(big_p(12), salie(12) + q_power(40))


def test_divides_never_expands_or_multiplies(monkeypatch):
    cases = [
        (divisor, p, p + q_power(p.degree() // 2 + len(divisor.factors)))
        for divisor, p in divisibility_cases()
    ]
    s5 = salie(5)
    unsplit = [(FactoredPoly(f), s5 * FactoredPoly(f).expand(), s5 + q_power(3)) for f in UNSPLIT]

    def forbidden(*args):
        raise AssertionError("a product was expanded, multiplied or long-divided")

    monkeypatch.setattr(FactoredPoly, "expand", forbidden)
    monkeypatch.setattr(IntPoly, "_divmod", forbidden)
    monkeypatch.setattr(IntPoly, "__mul__", forbidden)
    monkeypatch.setattr(IntPoly, "__rmul__", forbidden)
    for divisor, p, perturbed in cases + unsplit:
        assert divisor.divides(p)[0]
        assert divisor.divides(perturbed)[0] == (not divisor.factors)


@given(
    st.dictionaries(st.integers(1, 40), st.integers(0, 3), max_size=5),
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=201),
)
@example({}, [5])
@example({1: 3}, [0, 0, 1])
@example({1: 1, 2: 2, 30: 3}, [1, -1] * 100)
def test_divides_random_products_match_the_oracle(factors, a):
    # odd powers of Phi_1, products that do not split, the empty product,
    # dividends shorter than the divisor, and their exact multiples
    divisor, p = FactoredPoly(factors), IntPoly(a)
    if not p:
        with pytest.raises(ValueError):
            divisor.divides(p)
        return
    assert_divides_like_oracle(divisor, p)
    multiple = IntPoly(naive_mul(a, naive_expand(divisor.factors)))
    assert divisor.divides(multiple) == (True, p)


@given(
    st.dictionaries(st.integers(1, 40), st.integers(0, 3), max_size=4),
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=60),
    st.integers(0, 400),
)
def test_binomial_series_from_a_starting_series(factors, start, cut):
    # start times prod (1 - q^c)^x_c = (-1)^e_1 prod Phi_d^e_d, cut off
    factored = FactoredPoly(factors)
    steps, degree = factored._net()
    cut = max(cut, len(start) - 1)
    sign = -1 if factored.factors.get(1, 0) % 2 else 1
    product = [sign * c for c in naive_mul(start, naive_expand(factored.factors))]
    expected = (product + [0] * (cut + 1))[: cut + 1]
    assert _binomial_series(steps, cut, start=start) == expected


def test_divides_by_the_empty_product():
    for p in (salie(4), poly(-3), q_power(5)):
        assert FactoredPoly().divides(p) == (True, p)
        assert assert_divides_like_oracle(FactoredPoly(), p)


def test_big_p_splits_into_its_binomials():
    # P_n = prod_r (1 + q^(2r+1))^a(n, r), largest binomial first
    for n in range(1, 31):
        split = [(2 * r + 1, a_exponent(n, r)) for r in range((n - 1) // 2, -1, -1)]
        assert FactoredPoly(chain_binomials(split)) == big_p(n)


def test_distinct_cyclotomics_are_coprime():
    for d in range(1, 51):
        for e in range(1, 51):
            if d == e:
                continue
            ok, _ = FactoredPoly({d: 1}).divides(cyclotomic(e))
            assert not ok


def test_factored_algebra():
    a = FactoredPoly({2: 1, 6: 2})
    assert a.factors.get(6, 0) == 2 and a.factors.get(30, 0) == 0
    assert a.expand() == a.expand()  # deterministic
    assert str(FactoredPoly()) == "1"
    assert str(a) == "Phi_2 * Phi_6^2"


def test_factored_validation():
    assert FactoredPoly({4: 0}) == FactoredPoly()  # zero exponents dropped
    assert FactoredPoly([(2, 1), (2, 2)]).factors == {2: 3}  # pairs merge
    with pytest.raises(ValueError):
        FactoredPoly({0: 1})
    with pytest.raises(ValueError):
        FactoredPoly({2: -1})


def test_factored_equality_hash():
    assert FactoredPoly({2: 1}) == FactoredPoly([(2, 1)])
    assert hash(FactoredPoly({2: 1})) == hash(FactoredPoly({2: 1}))
    assert FactoredPoly({2: 1}) != FactoredPoly({2: 2})
