"""Quotient-ring arithmetic at roots of unity."""

import random

import pytest
from hypothesis import given, strategies as st

from qcong import residues, verify
from qcong.poly import IntPoly
from oracles import (
    ONE,
    ModulusMismatch,
    ResidueElem,
    inject,
    naive_cyclotomic,
    naive_rem,
    q_power,
    root_power,
)


def poly(*coeffs):
    return IntPoly(coeffs)


def test_inject_constants():
    for m in (1, 2, 3, 4, 6, 12):
        assert inject(poly(-1), m) == -1
    assert inject(poly(1, 1), 2).is_zero()
    assert inject(q_power(3), 4) == ResidueElem(4, poly(0, -1))


def test_inject_reduces():
    # Degrees up to 200 exercise the fold modulo q^(m/2) + 1 or q^m - 1.
    rng = random.Random(5)
    for _ in range(400):
        p = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 200))])
        m = rng.randint(1, 40)
        elem = inject(p, m)
        assert elem.rep == naive_rem(p, naive_cyclotomic(m))
        assert elem.rep.degree() < max(len(naive_cyclotomic(m)) - 1, 1)


def test_res_mul():
    i = inject(q_power(1), 4)
    assert i * i == inject(poly(-1), 4)
    a = inject(poly(3, 2), 5)
    assert a * inject(ONE, 5) == a
    w = inject(q_power(1), 6)
    assert w * w == inject(poly(-1, 1), 6)


def test_residue_ring_ops():
    a = inject(poly(1, 2), 8)
    b = inject(poly(0, 0, 5), 8)
    assert a + b == inject(poly(1, 2, 5), 8)
    assert a - a == 0
    assert -a == inject(poly(-1, -2), 8)
    assert 3 * a == inject(poly(3, 6), 8)


def test_root_power():
    assert root_power(2, 1) == -1
    assert root_power(4, 6) == root_power(4, 2)
    assert root_power(4, 2) == -1
    assert root_power(7, 0) == 1
    assert root_power(5, -1) == root_power(5, 4)
    assert root_power(1, 3) == 1
    with pytest.raises(ValueError):
        root_power(0, 1)


def test_root_power_inverse_pairs():
    for m in range(1, 25):
        for j in range(m):
            assert root_power(m, j) * root_power(m, m - j) == 1


def test_equality_bridge_to_remainder():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randint(1, 10)
        p1 = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 9))])
        p2 = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 9))])
        same = inject(p1, m) == inject(p2, m)
        assert same == (naive_rem(p1 - p2, naive_cyclotomic(m)) == IntPoly())


def test_modulus_mismatch():
    a, b = inject(ONE, 3), inject(ONE, 4)
    with pytest.raises(ModulusMismatch):
        a * b
    with pytest.raises(ModulusMismatch):
        a + b
    with pytest.raises(ModulusMismatch):
        a == b
    with pytest.raises(ValueError):
        ResidueElem(0, ONE)


# the library's residues are bare reduced IntPolys ------------------------------


def test_library_inject_is_the_reference_rep():
    rng = random.Random(12)
    for _ in range(300):
        p = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 201))])
        m = rng.randint(1, 40)
        assert residues.inject(p, m) == inject(p, m).rep


@given(
    st.integers(0, 250).flatmap(
        lambda n: st.lists(st.integers(-(2**200), 2**200), min_size=n, max_size=n)
    ),
    st.integers(1, 60),
)
def test_inject_matches_long_division(a, m):
    p = IntPoly(a)
    assert residues.inject(p, m) == naive_rem(p, naive_cyclotomic(m))


def test_theorem51_root_residue_is_the_reference_rep():
    # theorem51 reduces each power of q, already taken mod the ring, once
    for m in range(1, 25):
        for j in range(m):
            assert verify._root_in_ring(m, j) == root_power(m, j).rep
    with pytest.raises(ValueError):
        residues.inject(ONE, 0)


def test_inject_rejects_bad_index():
    for m in (0, -1, -4):
        with pytest.raises(ValueError):
            residues.inject(poly(1, 1), m)
