"""Brute-force permutation oracles: inversion generating functions.

This module exists to be dumb and trustworthy.  It enumerates permutations
of [2n] = {1, ..., 2n} directly, pruning only on the defining prefix
predicates, and tallies q^inv(x) where inv counts pairs i < j with
x_i > x_j.

A permutation x_1 ... x_{2n} is *alternating* when
x_1 < x_2 > x_3 < ... < x_{2n}.  It is a *Salie permutation* when there is
an even index 2k (k >= 1) such that x_1 ... x_{2k} is alternating and
x_{2k} < x_{2k+1} < ... < x_{2n}; k = n (empty increasing tail) is allowed,
k = 0 is not.
"""

from __future__ import annotations

from .poly import IntPoly

# The largest half-size n that the verify suites enumerate.  On a 2.0 GHz
# Xeon, n = 5 takes 0.3 s (alternating) and 0.6 s (Salie); n = 6 takes 19 s
# and 29 s, since (2n)! grows by a factor of 132.
ENUMERATION_CAP = 5


class SizeLimitExceeded(ValueError):
    """A request beyond a size guard: enumeration, a triangle row or a binomial series."""


def _guard(n: int) -> None:
    if n < 1:
        raise ValueError("half-size must be positive")
    if n > ENUMERATION_CAP:
        raise SizeLimitExceeded(
            f"half-size {n} exceeds the enumeration cap {ENUMERATION_CAP}; "
            f"(2n)! grows too fast to enumerate casually"
        )


def alternating_gf(n: int) -> IntPoly:
    """Sum of q^inv(x) over alternating permutations of [2n].

    Equals (-1)^n E_{2n}(q).
    """
    return _inversion_gf(n, tails=False)


def salie_perm_gf(n: int) -> IntPoly:
    """Sum of q^inv(x) over Salie permutations of [2n], each counted once.

    Equals half of Sbar_{2n}(q).
    """
    return _inversion_gf(n, tails=True)


def _inversion_gf(n: int, tails: bool) -> IntPoly:
    """Sum of q^inv(x) over the permutations of [2n] that are alternating
    or, when `tails`, Salie; a prefix grows only while it can still become
    one of them."""
    _guard(n)
    size = 2 * n
    counts = [0] * (size * (size - 1) // 2 + 1)
    used = [False] * (size + 1)

    def place(pos: int, prev: int, alt_alive: bool, tail_alive: bool, inv: int) -> None:
        if pos > size:
            if alt_alive or tail_alive:
                counts[inv] += 1
            return
        ascend = pos % 2 == 0
        for v in range(1, size + 1):
            if used[v]:
                continue
            new_alt = alt_alive and (pos == 1 or (v > prev) == ascend)
            # The increasing tail may start at any odd position 2k+1 >= 3
            # after an alternating prefix of even length 2k.
            new_tail = tails and v > prev and (
                tail_alive or (alt_alive and pos >= 3 and pos % 2 == 1)
            )
            if not (new_alt or new_tail):
                continue
            added = sum(1 for u in range(v + 1, size + 1) if used[u])
            used[v] = True
            place(pos + 1, v, new_alt, new_tail, inv + added)
            used[v] = False

    place(1, 0, True, False, 0)
    return IntPoly(counts)
