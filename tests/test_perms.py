"""Permutation oracles cross-checked against dumb full enumeration."""

from itertools import permutations

import pytest

from qcong.perms import alternating_gf, salie_perm_gf
from qcong.poly import IntPoly, SizeLimitExceeded
from qcong.sequences import euler, salie_bar
from oracles import ONE, eval_int, inversions, is_alternating, is_salie, prefix_split_count


def full_enumeration_gf(n, predicate):
    counts = {}
    for perm in permutations(range(1, 2 * n + 1)):
        if predicate(perm):
            inv = inversions(perm)
            counts[inv] = counts.get(inv, 0) + 1
    size = max(counts, default=0) + 1
    return IntPoly([counts.get(i, 0) for i in range(size)])


def test_predicates_small():
    assert is_alternating((1, 2))
    assert not is_alternating((2, 1))
    assert is_alternating((1, 3, 2, 4))
    assert not is_alternating((1, 2, 3, 4))
    assert is_salie((1, 2))
    assert not is_salie((2, 1))
    assert is_salie((1, 2, 3, 4))  # k = 1 with increasing tail
    assert is_salie((1, 3, 2, 4))  # fully alternating, k = 2
    assert is_salie((3, 4, 1, 2))  # alternating, k = 2 despite 4 > 1
    assert not is_salie((4, 3, 2, 1))


def test_alternating_gf_base():
    assert alternating_gf(1) == ONE


def test_alternating_gf_matches_full_enumeration():
    for n in (1, 2, 3):
        assert alternating_gf(n) == full_enumeration_gf(n, is_alternating)


def test_alternating_gf_matches_euler():
    for n in range(1, 4):
        assert alternating_gf(n) == (-1) ** n * euler(n)


def test_salie_gf_base():
    assert salie_perm_gf(1) == ONE


def test_salie_gf_matches_full_enumeration():
    for n in (1, 2, 3):
        assert salie_perm_gf(n) == full_enumeration_gf(n, is_salie)


def test_salie_gf_matches_half_salie_bar():
    for n in range(1, 4):
        assert 2 * salie_perm_gf(n) == salie_bar(n)


def test_salie_count_at_one():
    # 6 Salie permutations of [4]
    assert eval_int(salie_perm_gf(2), 1) == 6


def test_every_salie_perm_has_exactly_two_splits():
    # The split count (alternating even prefix + increasing tail, junction
    # free) is 2 on Salie permutations and 0 elsewhere; summed with signs it
    # is what turns the Gaussian-binomial identity into the factor 2.
    for n in (1, 2, 3):
        for perm in permutations(range(1, 2 * n + 1)):
            expected = 2 if is_salie(perm) else 0
            assert prefix_split_count(perm) == expected


def test_size_guard():
    # 12! prefixes of 12 letters are past the work limit
    with pytest.raises(SizeLimitExceeded, match=r"permutations of \[12\] .* 1,000,000,000 steps"):
        alternating_gf(6)
    with pytest.raises(SizeLimitExceeded):
        salie_perm_gf(6)
    with pytest.raises(ValueError):
        alternating_gf(0)
