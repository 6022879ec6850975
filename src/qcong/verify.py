"""Executable checks for the congruence, divisibility, and identity claims,
plus numeric explorers for the two open conjectures.

Every checker returns a `Report`, a record that `cli` renders.  Theorem
checkers always test both directions of an if-and-only-if: a report passes
when the observed congruence agrees with the predicted equivalence.
Conjecture explorers never assert; they report holds/fails per instance with
a witness.  The identities share `_signed_gauss_sum` and `_identity`, and the
claims at q = 1 `_gap_at_one`.  `SUITES` maps each suite name of the command
line to its sweep or explorer: its cases, its largest-value ask and its
checks, run by the driver `_sweep`.
"""

import functools
import math

from .cyclotomic import factor_one_plus_qd
from .divisors import big_d, big_p, ev, q_bar, q_hat, q_tilde
from .poly import IntPoly, refuse
from .qbinom import gauss
from .residues import inject
from .sequences import (
    euler,
    gen_euler,
    gen_euler_at_one,
    salie,
    salie_bar,
    salie_hat,
    salie_tilde,
    tangent,
)


class PreconditionViolation(ValueError):
    """Checker called outside its parameter domain."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionViolation(message)


def _v2(x: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    return (x & -x).bit_length() - 1


# reports ---------------------------------------------------------------------


class Report:
    """One decision with its witness; `cli` renders its line.

    `kind` is "congruence", "divisibility", "identity" or "conjecture".  The
    witness is the remainder of a congruence, the quotient of a division that
    passes and the remainder of one that fails, the difference of the two
    sides of an identity, or an int or IntPoly for a conjecture instance.
    Congruence reports also carry `expected_equivalence` and
    `observed_congruence`; divisibility reports carry `family`, `index` and
    `divisor`.
    """

    __slots__ = (
        "kind",
        "check",
        "params",
        "passed",
        "witness",
        "expected_equivalence",
        "observed_congruence",
        "family",
        "index",
        "divisor",
    )

    def __init__(self, kind, check, params, passed, witness, **fields):
        self.kind = kind
        self.check = check
        self.params = params
        self.passed = passed
        self.witness = witness
        for name, value in fields.items():
            setattr(self, name, value)


def _congruence(check, params, expected, remainder) -> Report:
    """A congruence report: it passes when `remainder` is zero iff `expected`."""
    observed = not remainder
    return Report("congruence", check, params, expected == observed, remainder,
                  expected_equivalence=expected, observed_congruence=observed)


def _divisibility(check, family, index, divisor, value, params=None) -> Report:
    """Whether `divisor` divides `value`, the `index`-th member of `family`."""
    ok, witness = divisor.divides(value)
    return Report("divisibility", check, params or {}, ok, witness,
                  family=family, index=index, divisor=divisor)


# congruence checkers -----------------------------------------------------------
#
# Reduction modulo 1 + q^e is a ring map, and 1 + q^e is a multiple of
# Phi_2k for every k with e/k odd.  So each check folds each family value
# modulo 1 + q^e once per (index, e), caches the residue, and forms
# E^(c)_{cm} - q^s E^(c)_{cn} from two cached residues in one pass:
# in Z[q]/(1 + q^e), q^s r turns the e coefficients of r s places and
# negates those that wrap, so -q^s r is a window of e coefficients of
# (r, -r, r), and no difference is built past degree e.
# theorem51 likewise reduces each E^(k)_{kn}(q^2), and each power of q, to
# its residue modulo Phi_2kd once per ring, and reduces one product per check.
# Remainders modulo a monic polynomial are unique, so every witness is the
# remainder of the full-degree difference.


@functools.lru_cache(maxsize=None)
def _turns(c: int, n: int, d: int) -> tuple[int, ...]:
    """r, -r, r for the d coefficients r of gen_euler(c, n) modulo 1 + q^d:
    as q^(2d) = 1 there, the d from j = (d - s) mod 2d on are those of -q^s r."""
    r = gen_euler(c, n).rem_binomial(d).coeffs
    r += (0,) * (d - len(r))
    return r + tuple([-x for x in r]) + r


def _residue(c: int, m: int, n: int, s: int, e: int) -> IntPoly:
    """E^(c)_{cm} - q^s E^(c)_{cn} modulo 1 + q^e."""
    j = (e - s) % (2 * e)
    return IntPoly([a + b for a, b in zip(_turns(c, m, e), _turns(c, n, e)[j : j + e])])


def check_theorem1(m: int, n: int, d: int) -> Report:
    """E_{2m} = q^(m-n) E_{2n} mod (1 + q^d) holds iff m = n mod d."""
    _require(m > n >= 0 and 1 <= d <= m, "need m > n >= 0 and 1 <= d <= m")
    remainder = _residue(2, m, n, m - n, d)
    return _congruence("theorem1", {"m": m, "n": n, "d": d}, (m - n) % d == 0, remainder)


def check_lemma31(m: int, n: int, d: int) -> Report:
    """Same congruence as theorem1 but modulo the single factor Phi_{2d}."""
    _require(m > n >= 0 and 1 <= d <= m, "need m > n >= 0 and 1 <= d <= m")
    remainder = inject(_residue(2, m, n, m - n, d), 2 * d)
    return _congruence("lemma31", {"m": m, "n": n, "d": d}, (m - n) % d == 0, remainder)


def check_desarmenien(k: int, m: int, n: int) -> Report:
    """E_{2km+2n} = (-1)^m E_{2n} mod Phi_{2k}; always congruent.

    (-1)^m is q^(km) modulo 1 + q^k, a multiple of Phi_{2k}."""
    _require(k >= 1 and m >= 0 and n >= 0, "need k >= 1 and m, n >= 0")
    remainder = inject(_residue(2, k * m + n, n, k * m, k), 2 * k)
    return _congruence("desarmenien", {"k": k, "m": m, "n": n}, True, remainder)


def check_corollary1(m: int, n: int) -> Report:
    """E_{2m} - q^(m-n) E_{2n} is divisible by prod_{i<s} (1 + q^(2^i r)),
    where 2m - 2n = 2^s r with r odd; that product is Ev_{m-n}."""
    _require(m > n >= 0, "need m > n >= 0")
    diff = euler(m) - euler(n).shift(m - n)
    return _divisibility("corollary1", "euler", m, ev(m - n), diff, {"m": m, "n": n})


@functools.lru_cache(maxsize=None)
def _gen_euler_in_ring(k: int, n: int, ring: int) -> IntPoly:
    """The residue of E^(k)_{kn}(q^2) in Z[q]/Phi_ring."""
    return inject(gen_euler(k, n).substitute_power(2), ring)


@functools.lru_cache(maxsize=None)
def _root_in_ring(ring: int, j: int) -> IntPoly:
    """The residue of q^j in Z[q]/Phi_ring."""
    return inject(IntPoly((1,)).shift(j), ring)


def check_theorem51(k: int, m: int, n: int, d: int) -> Report:
    """In Z[q]/Phi_{2kd}, with z the class of q (a primitive 2kd-th root):
    E^(k)_{km}(z^2) = z^(k(m-n)) E^(k)_{kn}(z^2) iff m = n mod d."""
    _require(
        k >= 1 and m > n >= 0 and 1 <= d <= m,
        "need k >= 1, m > n >= 0 and 1 <= d <= m",
    )
    ring = 2 * k * d
    rhs = _root_in_ring(ring, k * (m - n) % ring) * _gen_euler_in_ring(k, n, ring)
    diff = _gen_euler_in_ring(k, m, ring) - inject(rhs, ring)
    return _congruence("theorem51", {"k": k, "m": m, "n": n, "d": d}, (m - n) % d == 0, diff)


def check_theorem52(k: int, m: int, n: int, d: int) -> Report:
    """For the family E^(2^k): congruence mod 1 + q^(2^(k-1) d) iff m = n mod d."""
    _require(
        k >= 1 and m > n >= 0 and 1 <= d <= m,
        "need k >= 1, m > n >= 0 and 1 <= d <= m",
    )
    half = _block(k) >> 1
    diff = _residue(2 * half, m, n, half * (m - n), half * d)
    return _congruence("theorem52", {"k": k, "m": m, "n": n, "d": d}, (m - n) % d == 0, diff)


# divisibility checkers -----------------------------------------------------------


def check_theorem2(n: int) -> Report:
    """P_n divides the q-Salie number S_{2n}."""
    _require(n >= 1, "need n >= 1")
    return _divisibility("theorem2", "salie", n, big_p(n), salie(n))


def check_theorem2_power(n: int, r: int) -> Report:
    """(1 + q^(2r+1))^floor(n/(2r+1)) divides S_{2n}."""
    _require(n >= 1 and r >= 0 and 2 * r + 1 <= n, "need 2r+1 <= n")
    divisor = factor_one_plus_qd(*[2 * r + 1] * (n // (2 * r + 1)))
    return _divisibility("theorem2-power", "salie", n, divisor, salie(n), {"r": r})


def check_foata(n: int) -> Report:
    """D_n divides the q-tangent number T_{2n+1}."""
    _require(n >= 1, "need n >= 1")
    return _divisibility("foata", "tangent", n, big_d(n), tangent(n))


def check_salie_unit_power(n: int) -> Report:
    """(1 + q)^n divides S_{2n}."""
    _require(n >= 1, "need n >= 1")
    divisor = factor_one_plus_qd(*[1] * n)
    return _divisibility("salie-unit-power", "salie", n, divisor, salie(n))


# identity checkers ------------------------------------------------------------


def _signed_gauss_sum(n: int, factors, a: int) -> IntPoly:
    """sum_k (-1)^k q^(a k) [2n,2k] prod factors(k), k = 0..n."""
    total = IntPoly()
    for k in range(n + 1):
        term = math.prod(factors(k), start=gauss(2 * n, 2 * k)).shift(a * k)
        total = total - term if k % 2 else total + term
    return total


def _identity(check: str, n: int, diff: IntPoly) -> Report:
    """Report of an identity whose two sides differ by `diff`."""
    return Report("identity", check, {"n": n}, not diff, diff)


def check_lemma41(n: int) -> Report:
    """sum_k (-1)^k q^k [2n,2k] S_{2k} S_{2n-2k} = T_{2n-1} (1 - q^{2n})."""
    _require(n >= 1, "need n >= 1")
    lhs = _signed_gauss_sum(n, lambda k: (salie(k), salie(n - k)), 1)
    t = tangent(n - 1)
    return _identity("lemma41", n, lhs - (t - t.shift(2 * n)))


def check_eq23(n: int) -> Report:
    """Sbar_{2n} = sum_k (-1)^k [2n,2k] E_{2k}."""
    _require(n >= 0, "need n >= 0")
    return _identity("eq23", n, salie_bar(n) - _signed_gauss_sum(n, lambda k: (euler(k),), 0))


def check_eq24(n: int) -> Report:
    """sum_k (-1)^k q^{2k} [2n,2k] Shat_{2k} Shat_{2n-2k}
    = T_{2n-1} (1 + q)(1 - q^{2n}), valid for n >= 2."""
    _require(n >= 2, "need n >= 2")
    lhs = _signed_gauss_sum(n, lambda k: (salie_hat(k), salie_hat(n - k)), 2)
    t = tangent(n - 1)
    t = t + t.shift(1)
    return _identity("eq24", n, lhs - (t - t.shift(2 * n)))


def check_perm_euler(n: int) -> Report:
    """The alternating-permutation inversion gf equals (-1)^n E_{2n}."""
    from .perms import alternating_gf  # the oracles load only for their suites
    gf = alternating_gf(n)
    return _identity("perm-euler", n, gf + euler(n) if n % 2 else gf - euler(n))


def check_perm_salie(n: int) -> Report:
    """Twice the Salie-permutation inversion gf equals Sbar_{2n}."""
    from .perms import salie_perm_gf
    return _identity("perm-salie", n, 2 * salie_perm_gf(n) - salie_bar(n))


# integer congruences at q = 1 -----------------------------------------------------


def _block(k: int) -> int:
    """2^k, refused past k = 64 before it is multiplied or written out: each
    E^(2^k) value past index 0 takes at least (k + 1) 2^k / 16 bytes."""
    if k > 64:
        refuse(f"each value of E^(2^{k}) past index 0", (k + 1 << k) >> 4, 0)
    return 1 << k


def _gap_at_one(k: int, m: int, n: int) -> tuple[int, int]:
    """s = v2(m-n) + 1 and E^(2^k)_{2^k m}(1) - E^(2^k)_{2^k n}(1)."""
    return _v2(m - n) + 1, gen_euler_at_one(_block(k), m) - gen_euler_at_one(_block(k), n)


def check_corollary52_and_stern(k: int, m: int, n: int) -> Report:
    """At q = 1, the E^(2^k) family satisfies a - b = 0 mod 2^s with
    s = v2(m-n) + 1; for k = 1 the congruence is 2-adically exact (Stern)."""
    _require(k >= 1 and m > n >= 0, "need k >= 1 and m > n >= 0")
    s, diff = _gap_at_one(k, m, n)
    holds = diff % (1 << s) == 0 and (k > 1 or diff % (2 << s) != 0)
    return Report("conjecture", "corollary52", {"k": k, "m": m, "n": n, "s": s}, holds, diff)


def check_stern(m: int, n: int) -> Report:
    """Both directions of Stern's congruence at q = 1:
    v2(E_{2m}(1) - E_{2n}(1)) equals v2(2m - 2n) = s exactly."""
    _require(m > n >= 0, "need m > n >= 0")
    s, diff = _gap_at_one(1, m, n)
    actual = _v2(diff) if diff else -1
    return Report("conjecture", "stern", {"m": m, "n": n, "s": s}, actual == s, actual)


# conjecture instances ------------------------------------------------------------


def _conjecture51(k: int, m: int, n: int) -> Report:
    """E^(2^k)_{2^k m}(1) = E^(2^k)_{2^k n}(1) + 2^s mod 2^(s+1),
    s = v2(m-n) + 1; reported, never asserted.  The witness is the
    difference mod 2^(s+1), which the conjecture puts at 2^s."""
    s, diff = _gap_at_one(k, m, n)
    witness = diff % (1 << (s + 1))
    params = {"k": k, "m": m, "n": n, "s": s}
    return Report("conjecture", "conj51", params, witness == 1 << s, witness)


_VARIANTS = (
    ("bar", q_bar, salie_bar),
    ("hat", q_hat, salie_hat),
    ("tilde", q_tilde, salie_tilde),
)


def _conjecture61(variant: str, divisor_fn, value_fn, n: int) -> Report:
    """Qbar_n | Sbar_{2n}, Qhat_n | Shat_{2n} or Qtilde_n | Stil_{2n};
    reported, never asserted."""
    ok, witness = divisor_fn(n).divides(value_fn(n))
    return Report("conjecture", "conj61", {"variant": variant, "n": n}, ok, witness)


# sweeps and explorers -------------------------------------------------------------


def _sweep(cases, largest, *checks) -> list[Report]:
    """Every check on every case, in order, after calling `largest` (for the
    last value the cases read of each family) once the first case is drawn:
    a bound past a size limit then fails before any check, and bounds that
    leave no case call nothing and give [].  A case is a tuple of the
    checks' arguments, drawn one at a time; `zip(range(...))` lists one-index cases."""
    cases = iter(cases)
    first = next(cases, None)
    if first is None:
        return []
    largest()
    reports = [check(*first) for check in checks]
    reports.extend(check(*case) for case in cases for check in checks)
    return reports


def _mn(m_max: int):
    """Every (m, n) with 0 <= n < m <= m_max."""
    return ((m, n) for m in range(1, m_max + 1) for n in range(m))


def _mnd(m_max: int, d_max: int | None):
    """Every (m, n) of `_mn` with each d <= m, and d <= d_max unless None."""
    return (
        (m, n, d)
        for m, n in _mn(m_max)
        for d in range(1, (m if d_max is None else min(m, d_max)) + 1)
    )


def _each_k(k_max: int, cases, *bounds):
    """(k, *case) for each k <= k_max and each case of cases(*bounds)."""
    return ((k, *case) for k in range(1, k_max + 1) for case in cases(*bounds))


def sweep_theorem1(m_max: int = 12, d_max: int | None = None):
    return _sweep(_mnd(m_max, d_max), lambda: gen_euler(2, m_max), check_theorem1)


def sweep_lemma31(m_max: int = 12, d_max: int | None = None):
    return _sweep(_mnd(m_max, d_max), lambda: gen_euler(2, m_max), check_lemma31)


def sweep_corollary1(m_max: int = 10):
    return _sweep(_mn(m_max), lambda: euler(m_max), check_corollary1)


def _residue_table(k_max: int, n_max: int) -> None:
    """Build E_{2 n_max}, then state desarmenien's `_turns` table to the guard.

    Its m = 0 cases fold every index up to n_max modulo 1 + q^k for every
    k <= k_max, each into the 3k slots of an entry, beside the at most k + 1
    of Phi_2k, 8 bytes a slot.  A value of L coefficients, at most as many as
    E_{2 n_max}, folds into at most min(k, L) new ints, and as many negatives,
    none wider than E_{2 n_max}(1).  Half as much again is a margin for what
    the allocator keeps of the shorter tuples each entry is built from."""
    top = gen_euler(2, n_max)
    t, bits = min(k_max, len(top.coeffs)), sum(map(abs, top.coeffs)).bit_length()
    slots = (3 * n_max + 4) * k_max * (k_max + 1) // 2 + k_max
    ints = (n_max + 1) * t * (2 * k_max - t + 1)
    what = f"the residues of {n_max + 1} value(s) modulo 1 + q^k for each k <= {k_max}"
    refuse(what, 3 * (8 * slots + ints * (32 + 4 * (bits // 30))) // 2, slots)


def sweep_desarmenien(k_max: int = 4, n_max: int = 10):
    """Every (k, m, n) with k <= k_max and k*m + n <= n_max."""
    cases = (
        (k, m, n)
        for k in range(1, k_max + 1)
        for m in range(n_max // k + 1)
        for n in range(n_max - k * m + 1)
    )
    return _sweep(cases, lambda: _residue_table(k_max, n_max), check_desarmenien)


def sweep_theorem2(n_max: int = 15):
    """Per n, P_n | S_{2n} (r None), then the power check of each r."""
    cases = ((n, r) for n in range(1, n_max + 1) for r in (None, *range((n + 1) // 2)))
    return _sweep(
        cases,
        lambda: salie(n_max),
        lambda n, r: check_theorem2(n) if r is None else check_theorem2_power(n, r),
    )


def sweep_theorem51(k_max: int = 3, m_max: int = 6, d_max: int | None = None):
    cases = _each_k(k_max, _mnd, m_max, d_max)
    blocks = range(k_max, 0, -1)  # the largest first, so it meets the size guard first
    return _sweep(cases, lambda: [gen_euler(k, m_max) for k in blocks], check_theorem51)


def sweep_theorem52(k_max: int = 2, m_max: int = 8, d_max: int | None = None):
    cases = _each_k(k_max, _mnd, m_max, d_max)
    blocks = range(k_max, 0, -1)
    return _sweep(cases, lambda: [gen_euler(_block(k), m_max) for k in blocks], check_theorem52)


def sweep_corollary52(k_max: int = 2, m_max: int = 8):
    cases, check = _each_k(k_max, _mn, m_max), check_corollary52_and_stern
    return _sweep(cases, lambda: gen_euler_at_one(_block(k_max), m_max), check)


def sweep_stern(m_max: int = 10):
    return _sweep(_mn(m_max), lambda: gen_euler_at_one(2, m_max), check_stern)


def sweep_lemma41(n_max: int = 15):
    cases = zip(range(1, n_max + 1))
    return _sweep(cases, lambda: (salie(n_max), tangent(n_max - 1)), check_lemma41)


def sweep_eq23(n_max: int = 15):
    return _sweep(zip(range(n_max + 1)), lambda: (salie_bar(n_max), euler(n_max)), check_eq23)


def sweep_eq24(n_max: int = 15):
    cases = zip(range(2, n_max + 1))
    return _sweep(cases, lambda: (salie_hat(n_max), tangent(n_max - 1)), check_eq24)


def sweep_foata(n_max: int = 15):
    cases = zip(range(1, n_max + 1))
    checks = (check_foata, check_salie_unit_power)
    return _sweep(cases, lambda: (tangent(n_max), salie(n_max)), *checks)


def sweep_perm_euler(n_max: int = 3):
    from .perms import alternating_gf
    cases = zip(range(1, n_max + 1))
    return _sweep(cases, lambda: (alternating_gf(n_max), euler(n_max)), check_perm_euler)


def sweep_perm_salie(n_max: int = 3):
    from .perms import salie_perm_gf
    cases = zip(range(1, n_max + 1))
    return _sweep(cases, lambda: (salie_perm_gf(n_max), salie_bar(n_max)), check_perm_salie)


def explore_conjecture51(k_max: int = 3, m_max: int = 10) -> list[Report]:
    cases = _each_k(k_max, _mn, m_max)
    return _sweep(cases, lambda: gen_euler_at_one(_block(k_max), m_max), _conjecture51)


def explore_conjecture61(n_max: int = 12) -> list[Report]:
    cases = ((*variant, n) for n in range(1, n_max + 1) for variant in _VARIANTS)
    return _sweep(cases, lambda: [f(n_max) for _, _, f in _VARIANTS], _conjecture61)


# suite registry ---------------------------------------------------------------------
#
# CLI subcommand -> suite name -> its sweep or explorer, a list from `_sweep`.
# Every parameter is a bound with a default, and the CLI reads the bound
# names and defaults from the signatures, so each default is declared once.
SUITES = {
    "verify": {
        "theorem1": sweep_theorem1,
        "corollary1": sweep_corollary1,
        "lemma31": sweep_lemma31,
        "desarmenien": sweep_desarmenien,
        "theorem2": sweep_theorem2,
        "lemma41": sweep_lemma41,
        "eq23": sweep_eq23,
        "eq24": sweep_eq24,
        "theorem51": sweep_theorem51,
        "theorem52": sweep_theorem52,
        "corollary52": sweep_corollary52,
        "stern": sweep_stern,
        "foata": sweep_foata,
        "perm-euler": sweep_perm_euler,
        "perm-salie": sweep_perm_salie,
    },
    "explore": {"conj51": explore_conjecture51, "conj61": explore_conjecture61},
}
