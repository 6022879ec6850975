"""Exact polynomial arithmetic, checked against naive list-based oracles."""

import random
import sys

import pytest
from hypothesis import given, strategies as st

from qcong import cli
from qcong.cyclotomic import cyclotomic, factor_one_plus_qd
from qcong.poly import IntPoly
from qcong.residues import inject
from oracles import ONE, Q, naive_divmod, naive_mul, one_plus_q_power, poly_pow, q_power


def poly(*coeffs):
    return IntPoly(coeffs)


def random_poly(rng, max_degree=8, span=9):
    return IntPoly(
        [rng.randint(-span, span) for _ in range(rng.randint(0, max_degree + 1))]
    )


# Signed coefficients of 0 to 300 bits, with zeros drawn often enough to leave
# interior gaps; all-negative operands are drawn from their own strategy.
big_coeff = st.one_of(
    st.just(0), st.integers(0, 300).flatmap(lambda b: st.integers(-(2**b), 2**b))
)
big_coeffs = st.lists(big_coeff, min_size=1, max_size=60)
negative_coeffs = st.lists(st.integers(-(2**300), -1), min_size=1, max_size=60)


def test_canonical_form():
    assert poly(1, 2, 0, 0).coeffs == (1, 2)
    assert poly(0, 0).coeffs == ()
    assert not IntPoly() and IntPoly().degree() == -1
    assert poly(7).degree() == 0
    assert poly(0, 0, 3).degree() == 2


def test_constructor_keeps_no_view_of_its_argument():
    for coeffs in ([1, 2, 3], [1, 2, 0, 0], [0, 0]):
        p = IntPoly(coeffs)
        before = p.coeffs
        coeffs[0] = 99
        coeffs.append(5)
        assert p.coeffs == before
    trimmed = (4, 0, 5, 0, 0)
    assert IntPoly(trimmed).coeffs == (4, 0, 5)
    assert IntPoly(iter([3, 0])).coeffs == (3,)
    untrimmed = (4, 0, 5)
    assert IntPoly(untrimmed).coeffs is untrimmed  # immutable, so shared


def test_add_basics():
    assert poly(1, 1) + poly(-1, -1) == IntPoly()
    assert poly(1, 1) + poly(0, 1) == poly(1, 2)
    assert poly(1, 1) + 2 == poly(3, 1)
    assert 2 + poly(1, 1) == poly(3, 1)


def test_sub_and_neg():
    assert -poly(1, -2) == poly(-1, 2)
    assert poly(1, 1) - poly(1, 1) == IntPoly()
    assert Q - 1 == poly(-1, 1)


@given(st.lists(big_coeff, max_size=60), st.lists(big_coeff, max_size=60), big_coeff)
def test_sub_matches_adding_the_negation(a, b, c):
    # both length orders, cancelling leading terms, and int operands
    p, q = IntPoly(a), IntPoly(b)
    assert (p - q).coeffs == (p + IntPoly(-x for x in b)).coeffs
    assert p - p == IntPoly()
    assert -(p - c) == IntPoly([c]) - p


def test_mul_small_cases():
    assert poly(1, 1) * poly(1, 1) == poly(1, 2, 1)
    assert poly(1, 1, 1) * poly(1, 0, 1) == poly(1, 1, 2, 1, 1)
    assert poly(1, 1) * IntPoly() == IntPoly()
    assert 3 * poly(1, -1) == poly(3, -3)


def test_mul_euler4_expansion():
    # q(1+q)(1+q^2) + q^2 expands to q + 2q^2 + q^3 + q^4
    value = Q * poly(1, 1) * poly(1, 0, 1) + q_power(2)
    assert value == poly(0, 1, 2, 1, 1)


def test_mul_matches_naive_oracle():
    rng = random.Random(20060884)
    for _ in range(400):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).coeffs == tuple(naive_mul(list(a.coeffs), list(b.coeffs)))


@given(st.one_of(big_coeffs, negative_coeffs), st.one_of(big_coeffs, negative_coeffs))
def test_mul_big_signed_matches_naive_oracle(a, b):
    assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(naive_mul(a, b))


def test_mul_coefficient_on_the_slot_bound():
    # Every coefficient -2^b: the middle coefficient of the product is
    # min(len) * 2^(2b), exactly the bound the slot width is chosen from.
    for bits in (0, 1, 7, 8, 63, 64, 127, 300):
        for n, m in ((1, 1), (1, 5), (4, 4), (3, 60), (60, 60)):
            a, b = [-(2**bits)] * n, [-(2**bits)] * m
            product = IntPoly(a) * IntPoly(b)
            assert product.coeffs == tuple(naive_mul(a, b))
            assert max(product.coeffs) == min(n, m) * 2 ** (2 * bits)


@given(big_coeffs, big_coeff)
def test_mul_by_constant(a, c):
    expected = tuple(naive_mul(a, [c]))
    assert (IntPoly(a) * c).coeffs == expected
    assert (c * IntPoly(a)).coeffs == expected
    assert (IntPoly(a) * IntPoly((c,))).coeffs == expected


def test_mul_degree_additive():
    rng = random.Random(1)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        if a and b:
            assert (a * b).degree() == a.degree() + b.degree()


def test_ring_axioms_random_triples():
    rng = random.Random(12345)
    for _ in range(1000):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def monic(p):
    """p with its leading coefficient replaced by 1."""
    return IntPoly(p.coeffs[:-1] + (1,))


def test_exact_div_cyclotomic_extraction():
    # (q^6 - 1) / ((q-1)(q+1)(1+q+q^2)) = q^2 - q + 1
    q6_minus_1 = q_power(6) - 1
    divisor = poly(-1, 1) * poly(1, 1) * poly(1, 1, 1)
    assert q6_minus_1._divmod(divisor) == (poly(1, -1, 1), IntPoly())


def test_exact_div_salie4():
    # S_4 = 2q + 4q^2 + 3q^3 + 2q^4 + q^5 divided by (1+q)^2
    s4 = poly(0, 2, 4, 3, 2, 1)
    assert s4._divmod(poly_pow(poly(1, 1), 2)) == (poly(0, 2, 0, 1), IntPoly())


def test_exact_div_self():
    # a monic p divides itself
    rng = random.Random(7)
    for _ in range(100):
        p = random_poly(rng)
        if p:
            assert monic(p)._divmod(monic(p)) == (ONE, IntPoly())


def test_exact_div_roundtrip_random():
    rng = random.Random(99)
    for _ in range(500):
        a, b = random_poly(rng), random_poly(rng)
        if not b:
            continue
        assert (a * monic(b))._divmod(monic(b)) == (a, IntPoly())


def test_rem_monic_examples():
    # E_4 = q(1+q)(1+q^2) + q^2, so mod 1 + q^2 only q^2 survives, and the
    # canonical remainder is its reduction q^2 = -1
    e4 = poly(0, 1, 2, 1, 1)
    assert not (e4 - q_power(2))._divmod(one_plus_q_power(2))[1]
    assert e4._divmod(one_plus_q_power(2))[1] == poly(-1)
    # degree(p) < degree(m) keeps p
    assert poly(1, 1)._divmod(poly(1, 0, 0, 1))[1] == poly(1, 1)
    # (q^4 + 1) mod (q^2 + 1) = 2, and q^4 + 1 = (q^3 - q^2 + q - 1)(1 + q) + 2
    assert (q_power(4) + 1)._divmod(poly(1, 0, 1))[1] == poly(2)
    assert (q_power(4) + 1)._divmod(poly(1, 1)) == (poly(-1, 1, -1, 1), poly(2))


def test_rem_monic_matches_naive_division():
    rng = random.Random(4242)
    for _ in range(300):
        a = random_poly(rng, max_degree=10)
        m = IntPoly(
            [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [1]
        )
        quotient, r = a._divmod(m)
        _, naive_r = naive_divmod(list(a.coeffs), list(m.coeffs))
        assert r.coeffs == tuple(naive_r)
        assert r.degree() < m.degree()
        assert quotient * m + r == a


@given(st.lists(big_coeff, max_size=80), st.integers(1, 30), st.booleans())
def test_rem_monic_sparse_moduli_match_naive_division(a, d, use_cyclotomic):
    modulus = cyclotomic(d) if use_cyclotomic else one_plus_q_power(d)
    naive_q, naive_r = naive_divmod(a, list(modulus.coeffs))
    quotient, r = IntPoly(a)._divmod(modulus)
    assert r.coeffs == tuple(naive_r)
    assert quotient == IntPoly(naive_q)


# 0 to 300 coefficients, long enough that every d <= 40 folds several blocks;
# drawn big operands are repeated to the length, which keeps generation cheap.
long_coeffs = st.tuples(big_coeffs, st.integers(0, 300)).map(
    lambda t: (t[0] * (t[1] // len(t[0]) + 1))[: t[1]]
)


@given(long_coeffs, st.integers(1, 40))
def test_rem_binomial_matches_naive_division(a, d):
    _, naive_r = naive_divmod(a, list(one_plus_q_power(d).coeffs))
    assert IntPoly(a).rem_binomial(d).coeffs == tuple(naive_r)


@given(long_coeffs, st.integers(1, 40), st.lists(big_coeff, max_size=40))
def test_divmod_binomial_matches_naive_division(a, k, r):
    # a * (1 + q^k) + r with deg r < k: the quotient is a and the remainder r,
    # both as the naive long division gives them
    binomial = list(one_plus_q_power(k).coeffs)
    r = r[:k]
    multiple = IntPoly(naive_mul(a, binomial))
    dividend = multiple + IntPoly(r)
    naive_q, naive_r = naive_divmod(list(dividend.coeffs), binomial)
    assert (IntPoly(naive_q), IntPoly(naive_r)) == (IntPoly(a), IntPoly(r))
    divides = factor_one_plus_qd(k).divides
    if multiple:
        assert divides(multiple) == (True, IntPoly(a))
    if IntPoly(r):
        assert divides(dividend) == (False, IntPoly(r))


def test_divmod_binomial_edge_cases():
    # division by 1 + q^k is FactoredPoly(factor_one_plus_qd(k)).divides
    with pytest.raises(ValueError):
        factor_one_plus_qd(3).divides(IntPoly())
    assert factor_one_plus_qd(5).divides(one_plus_q_power(5)) == (True, ONE)
    # shorter than the divisor: the dividend is the remainder
    for p, k in ((poly(1, 1), 3), (poly(0, 0, 7), 3), (poly(5), 1)):
        assert factor_one_plus_qd(k).divides(p) == (False, p)
    # a monomial folds down with alternating sign: q^7 = (1 + q^3)(q^4 - q) + q
    for i, k in ((4, 2), (7, 3), (2, 2), (9, 1)):
        _, naive_r = naive_divmod(list(q_power(i).coeffs), list(one_plus_q_power(k).coeffs))
        assert factor_one_plus_qd(k).divides(q_power(i)) == (False, IntPoly(naive_r))
    assert factor_one_plus_qd(3).divides(q_power(7)) == (False, Q)
    assert factor_one_plus_qd(3).divides(q_power(7) - Q) == (True, poly(0, -1, 0, 0, 1))
    for k in (0, -1, -5):
        with pytest.raises(ValueError):
            factor_one_plus_qd(k)


def test_rem_binomial_rejects_other_moduli():
    for d in (0, -2):
        with pytest.raises(ValueError):
            poly(1, 2, 3, 4).rem_binomial(d)


@given(big_coeffs, st.integers(0, 80))
def test_shift_matches_monomial_product(a, j):
    assert IntPoly(a).shift(j) == q_power(j) * IntPoly(a)


def test_shift_rejects_negative():
    with pytest.raises(ValueError):
        poly(1, 1).shift(-1)


def test_every_division_on_a_cli_path_is_by_a_monic_divisor(monkeypatch, capsys):
    # `_divmod` does not check that its divisor is monic; every default run
    # of the suites and explorers divides, and only by monic divisors.  Each
    # division is one `inject`, every one modulo Phi_m of an even m,
    # so `rem_binomial` folds modulo 1 + q^(m/2) alone
    divisors, indices = [], []
    divmod_, rem = IntPoly._divmod, inject

    def recorded(self, divisor):
        divisors.append(divisor)
        return divmod_(self, divisor)

    def recorded_rem(p, m):
        indices.append(m)
        return rem(p, m)

    monkeypatch.setattr(IntPoly, "_divmod", recorded)
    for name, module in list(sys.modules.items()):
        if name.startswith("qcong") and getattr(module, "inject", None) is rem:
            monkeypatch.setattr(module, "inject", recorded_rem)
    monkeypatch.delenv(cli.ENV_CAP, raising=False)
    for argv in (
        ("verify", "--suite", "all"),
        ("explore", "--conjecture", "conj51"),
        ("explore", "--conjecture", "conj61"),
    ):
        cli.main([*argv, "--format", "json"])
        capsys.readouterr()
    assert divisors
    non_monic = {d for d in divisors if d.coeffs[-1:] != (1,)}
    assert not non_monic, non_monic
    assert len(indices) == len(divisors)
    odd = {m for m in indices if m % 2}
    assert not odd, odd


def test_substitute_power():
    assert poly(1, 1).substitute_power(2) == poly(1, 0, 1)
    assert poly(-1).substitute_power(3) == poly(-1)
    assert poly(0, 1, 1).substitute_power(2) == poly(0, 0, 1, 0, 1)
    assert IntPoly().substitute_power(5) == IntPoly()
    with pytest.raises(ValueError):
        poly(1, 1).substitute_power(0)


def test_substitute_power_composes():
    rng = random.Random(31)
    for _ in range(200):
        a = random_poly(rng)
        j, k = rng.randint(1, 4), rng.randint(1, 4)
        assert a.substitute_power(j).substitute_power(k) == a.substitute_power(j * k)


def test_helpers():
    assert q_power(0) == ONE
    assert q_power(3) == poly(0, 0, 0, 1)
    with pytest.raises(ValueError):
        q_power(-1)


def test_equality_and_hash():
    assert poly(5) == 5 and hash(poly(5)) == hash(5)
    assert IntPoly() == 0 and hash(IntPoly()) == hash(0)
    assert poly(1, 2) != poly(1, 2, 3)
    assert {poly(1, 1), poly(1, 1)} == {poly(1, 1)}


def test_str():
    assert str(IntPoly()) == "0"
    assert str(poly(-1, 0, 2)) == "-1 + 2q^2"
    assert str(poly(0, 1, 2, 1, 1)) == "q + 2q^2 + q^3 + q^4"
    assert str(poly(1, -1)) == "1 - q"
