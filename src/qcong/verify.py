"""Executable checks for the congruence, divisibility, and identity claims,
plus numeric explorers for the two open conjectures.

Every checker returns a `Report`.  Theorem checkers always test both
directions of an if-and-only-if: a report passes when the observed congruence
agrees with the predicted equivalence.  Conjecture explorers never assert;
they report holds/fails per instance with a witness.  `SUITES` maps each
suite name of the command line to its sweep or explorer.
"""

from __future__ import annotations

import functools

from .cyclotomic import FactoredPoly, one_plus_qd_indices, rem_cyclotomic
from .divisors import big_d, big_p, ev, q_bar, q_hat, q_tilde
from .perms import alternating_gf, salie_perm_gf
from .poly import IntPoly, q_power
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

# kind -> keys of the report's JSON record, in order.
RECORD_KEYS = {
    "congruence": (
        "check",
        "params",
        "expected_equivalence",
        "observed_congruence",
        "passed",
        "witness",
    ),
    "divisibility": (
        "check",
        "family",
        "index",
        "params",
        "divisor",
        "passed",
        "witness",
    ),
    "identity": ("check", "params", "passed", "witness"),
    "conjecture": ("conjecture", "params", "status", "witness"),
}

# kind -> describe() verdict when the report passes, and the label of the
# witness when it fails.
_VERDICTS = {
    "congruence": ("PASS", "FAIL witness"),
    "divisibility": ("PASS", "FAIL remainder"),
    "identity": ("PASS", "FAIL difference"),
    "conjecture": ("holds", "fails witness"),
}

_CONGRUENT = {True: "congruent", False: "incongruent"}


class Report:
    """One decision with its witness.

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

    @classmethod
    def congruence(cls, check, params, expected, observed, witness) -> Report:
        """A congruence report passes when observed agrees with expected."""
        fields = {"expected_equivalence": expected, "observed_congruence": observed}
        return cls("congruence", check, params, expected == observed, witness, **fields)

    @property
    def conjecture(self) -> str:
        return self.check

    @property
    def status(self) -> str:
        return "holds" if self.passed else "fails"

    def describe(self) -> str:
        words = [self.check]
        if self.kind == "divisibility":
            words += [self.family, f"n={self.index}"]
        words += [f"{k}={v}" for k, v in self.params.items()]
        if self.kind == "divisibility":
            words.append(f"divisor={self.divisor}")
        ok, fail = _VERDICTS[self.kind]
        verdict = ok if self.passed else f"{fail}={self.witness}"
        if self.kind == "congruence":
            verdict = (
                f"expected {_CONGRUENT[self.expected_equivalence]}, "
                f"observed {_CONGRUENT[self.observed_congruence]} -> {verdict}"
            )
        return f"{' '.join(words)}: {verdict}"


def _divisibility(check, family, index, divisor, value, params=None) -> Report:
    """Whether `divisor` divides `value`, the `index`-th member of `family`."""
    ok, witness = divisor.divides(value)
    fields = {"family": family, "index": index, "divisor": divisor}
    return Report("divisibility", check, params or {}, ok, witness, **fields)


def summarize(reports) -> tuple[int, int, int]:
    """(checked, passed, failed) over a list of reports."""
    checked = len(reports)
    passed = sum(1 for r in reports if r.passed)
    return checked, passed, checked - passed


# congruence checkers -----------------------------------------------------------
#
# Reduction modulo 1 + q^e is a ring map, and 1 + q^e is a multiple of
# Phi_2k for every k with e/k odd.  So each check folds each family value
# modulo 1 + q^e once per (index, e), caches the residue, and forms
# E^(c)_{cm} - q^s E^(c)_{cn} from two cached residues and one rotation:
# in Z[q]/(1 + q^e), q^s r turns the e coefficients of r s places and
# negates those that wrap, so no difference is built past degree e.
# theorem51 likewise reduces each E^(k)_{kn}(q^2), and each power of q, to
# its residue modulo Phi_2kd once per ring, and reduces one product per check.
# Remainders modulo a monic polynomial are unique, so every witness is the
# remainder of the full-degree difference.


@functools.lru_cache(maxsize=None)
def _gen_euler_mod(c: int, n: int, d: int) -> IntPoly:
    """gen_euler(c, n) modulo 1 + q^d."""
    return gen_euler(c, n).rem_binomial(d, -1)


def _residue(c: int, m: int, n: int, s: int, e: int) -> IntPoly:
    """E^(c)_{cm} - q^s E^(c)_{cn} modulo 1 + q^e."""
    return _gen_euler_mod(c, m, e) - _gen_euler_mod(c, n, e).rotate(s, e)


def _iff_report(check: str, params: dict, remainder: IntPoly) -> Report:
    """Report of a congruence predicted to hold iff m = n mod d."""
    expected = (params["m"] - params["n"]) % params["d"] == 0
    return Report.congruence(check, params, expected, remainder.is_zero(), remainder)


def check_theorem1(m: int, n: int, d: int) -> Report:
    """E_{2m} = q^(m-n) E_{2n} mod (1 + q^d) holds iff m = n mod d."""
    _require(m > n >= 0 and 1 <= d <= m, "need m > n >= 0 and 1 <= d <= m")
    remainder = _residue(2, m, n, m - n, d)
    return _iff_report("theorem1", {"m": m, "n": n, "d": d}, remainder)


def check_lemma31(m: int, n: int, d: int) -> Report:
    """Same congruence as theorem1 but modulo the single factor Phi_{2d}."""
    remainder = rem_cyclotomic(check_theorem1(m, n, d).witness, 2 * d)
    return _iff_report("lemma31", {"m": m, "n": n, "d": d}, remainder)


def check_desarmenien(k: int, m: int, n: int) -> Report:
    """E_{2km+2n} = (-1)^m E_{2n} mod Phi_{2k}; always congruent.

    (-1)^m is q^(km) modulo 1 + q^k, a multiple of Phi_{2k}."""
    _require(k >= 1 and m >= 0 and n >= 0, "need k >= 1 and m, n >= 0")
    remainder = rem_cyclotomic(_residue(2, k * m + n, n, k * m, k), 2 * k)
    params = {"k": k, "m": m, "n": n}
    return Report.congruence(
        "desarmenien", params, True, remainder.is_zero(), remainder
    )


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
    return rem_cyclotomic(q_power(j), ring)


def check_theorem51(k: int, m: int, n: int, d: int) -> Report:
    """In Z[q]/Phi_{2kd}, with z the class of q (a primitive 2kd-th root):
    E^(k)_{km}(z^2) = z^(k(m-n)) E^(k)_{kn}(z^2) iff m = n mod d."""
    _require(
        k >= 1 and m > n >= 0 and 1 <= d <= m,
        "need k >= 1, m > n >= 0 and 1 <= d <= m",
    )
    ring = 2 * k * d
    rhs = _root_in_ring(ring, k * (m - n) % ring) * _gen_euler_in_ring(k, n, ring)
    diff = _gen_euler_in_ring(k, m, ring) - rem_cyclotomic(rhs, ring)
    return _iff_report("theorem51", {"k": k, "m": m, "n": n, "d": d}, diff)


def check_theorem52(k: int, m: int, n: int, d: int) -> Report:
    """For the family E^(2^k): congruence mod 1 + q^(2^(k-1) d) iff m = n mod d."""
    _require(
        k >= 1 and m > n >= 0 and 1 <= d <= m,
        "need k >= 1, m > n >= 0 and 1 <= d <= m",
    )
    half = 1 << (k - 1)
    remainder = _residue(1 << k, m, n, half * (m - n), half * d)
    return _iff_report("theorem52", {"k": k, "m": m, "n": n, "d": d}, remainder)


# divisibility checkers -----------------------------------------------------------


def check_theorem2(n: int) -> Report:
    """P_n divides the q-Salie number S_{2n}."""
    _require(n >= 1, "need n >= 1")
    return _divisibility("theorem2", "salie", n, big_p(n), salie(n))


def check_theorem2_power(n: int, r: int) -> Report:
    """(1 + q^(2r+1))^floor(n/(2r+1)) divides S_{2n}."""
    _require(n >= 1 and r >= 0 and 2 * r + 1 <= n, "need 2r+1 <= n")
    power = n // (2 * r + 1)
    divisor = FactoredPoly((d, power) for d in one_plus_qd_indices(2 * r + 1))
    return _divisibility("theorem2-power", "salie", n, divisor, salie(n), {"r": r})


def check_foata(n: int) -> Report:
    """D_n divides the q-tangent number T_{2n+1}."""
    _require(n >= 1, "need n >= 1")
    return _divisibility("foata", "tangent", n, big_d(n), tangent(n))


def check_salie_unit_power(n: int) -> Report:
    """(1 + q)^n divides S_{2n}."""
    _require(n >= 1, "need n >= 1")
    divisor = FactoredPoly({2: n})
    return _divisibility("salie-unit-power", "salie", n, divisor, salie(n))


# identity checkers ------------------------------------------------------------


def check_lemma41(n: int) -> Report:
    """sum_k (-1)^k q^k [2n,2k] S_{2k} S_{2n-2k} = T_{2n-1} (1 - q^{2n})."""
    _require(n >= 1, "need n >= 1")
    lhs = IntPoly()
    for k in range(n + 1):
        term = (gauss(2 * n, 2 * k) * salie(k) * salie(n - k)).shift(k)
        lhs = lhs - term if k % 2 else lhs + term
    t = tangent(n - 1)
    rhs = t - t.shift(2 * n)
    diff = lhs - rhs
    return Report("identity", "lemma41", {"n": n}, diff.is_zero(), diff)


def check_eq23(n: int) -> Report:
    """Sbar_{2n} = sum_k (-1)^k [2n,2k] E_{2k}."""
    _require(n >= 0, "need n >= 0")
    rhs = IntPoly()
    for k in range(n + 1):
        term = gauss(2 * n, 2 * k) * euler(k)
        rhs = rhs - term if k % 2 else rhs + term
    diff = salie_bar(n) - rhs
    return Report("identity", "eq23", {"n": n}, diff.is_zero(), diff)


def check_eq24(n: int) -> Report:
    """sum_k (-1)^k q^{2k} [2n,2k] Shat_{2k} Shat_{2n-2k}
    = T_{2n-1} (1 + q)(1 - q^{2n}), valid for n >= 2."""
    _require(n >= 2, "need n >= 2")
    lhs = IntPoly()
    for k in range(n + 1):
        term = (gauss(2 * n, 2 * k) * salie_hat(k) * salie_hat(n - k)).shift(2 * k)
        lhs = lhs - term if k % 2 else lhs + term
    t = tangent(n - 1)
    t = t + t.shift(1)
    rhs = t - t.shift(2 * n)
    diff = lhs - rhs
    return Report("identity", "eq24", {"n": n}, diff.is_zero(), diff)


def check_perm_euler(n: int) -> Report:
    """The alternating-permutation inversion gf equals (-1)^n E_{2n}."""
    gf = alternating_gf(n)
    diff = gf + euler(n) if n % 2 else gf - euler(n)
    return Report("identity", "perm-euler", {"n": n}, diff.is_zero(), diff)


def check_perm_salie(n: int) -> Report:
    """Twice the Salie-permutation inversion gf equals Sbar_{2n}."""
    diff = 2 * salie_perm_gf(n) - salie_bar(n)
    return Report("identity", "perm-salie", {"n": n}, diff.is_zero(), diff)


# integer congruences at q = 1 -----------------------------------------------------


def check_corollary52_and_stern(k: int, m: int, n: int) -> Report:
    """At q = 1, the E^(2^k) family satisfies a - b = 0 mod 2^s with
    s = v2(m-n) + 1; for k = 1 the congruence is 2-adically exact (Stern)."""
    _require(k >= 1 and m > n >= 0, "need k >= 1 and m > n >= 0")
    fam = 1 << k
    a = gen_euler_at_one(fam, m)
    b = gen_euler_at_one(fam, n)
    s = _v2(m - n) + 1
    diff = a - b
    holds = diff % (1 << s) == 0
    if k == 1:
        holds = holds and diff % (1 << (s + 1)) != 0
    params = {"k": k, "m": m, "n": n, "s": s}
    return Report("conjecture", "corollary52", params, holds, diff)


def check_stern(m: int, n: int) -> Report:
    """Both directions of Stern's congruence at q = 1:
    v2(E_{2m}(1) - E_{2n}(1)) equals v2(2m - 2n) exactly."""
    _require(m > n >= 0, "need m > n >= 0")
    a = gen_euler_at_one(2, m)
    b = gen_euler_at_one(2, n)
    target = _v2(2 * (m - n))
    actual = _v2(a - b) if a != b else -1
    params = {"m": m, "n": n, "s": target}
    return Report("conjecture", "stern", params, actual == target, actual)


# conjecture explorers -------------------------------------------------------------


def explore_conjecture51(k_max: int = 3, m_max: int = 10) -> list[Report]:
    """E^(2^k)_{2^k m}(1) = E^(2^k)_{2^k n}(1) + 2^s mod 2^(s+1),
    s = v2(m-n) + 1; reported per instance, never asserted."""
    _require(k_max >= 1 and m_max >= 1, "bounds must be >= 1")
    gen_euler_at_one(1 << k_max, m_max)  # the largest value, before any check
    reports = []
    for k in range(1, k_max + 1):
        fam = 1 << k
        values = [gen_euler_at_one(fam, i) for i in range(m_max + 1)]
        for m in range(1, m_max + 1):
            for n in range(m):
                s = _v2(m - n) + 1
                diff = values[m] - values[n]
                holds = (diff - (1 << s)) % (1 << (s + 1)) == 0
                params = {"k": k, "m": m, "n": n, "s": s}
                witness = diff % (1 << (s + 1))
                reports.append(Report("conjecture", "conj51", params, holds, witness))
    return reports


_VARIANTS = (
    ("bar", q_bar, salie_bar),
    ("hat", q_hat, salie_hat),
    ("tilde", q_tilde, salie_tilde),
)


def explore_conjecture61(n_max: int = 12) -> list[Report]:
    """Qbar_n | Sbar_{2n}, Qhat_n | Shat_{2n}, Qtilde_n | Stil_{2n};
    reported per instance, never asserted."""
    _require(n_max >= 1, "bound must be >= 1")
    reports = []
    cases = _largest_first(range(1, n_max + 1), lambda: [f(n_max) for _, _, f in _VARIANTS])
    for n in cases:
        for name, divisor_fn, value_fn in _VARIANTS:
            ok, witness = divisor_fn(n).divides(value_fn(n))
            params = {"variant": name, "n": n}
            reports.append(Report("conjecture", "conj61", params, ok, witness))
    return reports


# sweeps ---------------------------------------------------------------------------


def _iter_mnd(m_max: int, d_max: int | None):
    for m in range(1, m_max + 1):
        top_d = m if d_max is None else min(m, d_max)
        for n in range(m):
            for d in range(1, top_d + 1):
                yield m, n, d


def _largest_first(cases, largest) -> list:
    """The list of `cases`, built after calling `largest` for the largest
    family value the sweep reads, when there is a case: a bound past a size
    limit then fails before any case is listed or checked."""
    cases = iter(cases)
    first = next(cases, None)
    if first is None:
        return []
    largest()
    return [first, *cases]


def sweep_theorem1(m_max: int = 12, d_max: int | None = None):
    cases = _largest_first(_iter_mnd(m_max, d_max), lambda: gen_euler(2, m_max))
    return [check_theorem1(m, n, d) for m, n, d in cases]


def sweep_lemma31(m_max: int = 12, d_max: int | None = None):
    cases = _largest_first(_iter_mnd(m_max, d_max), lambda: gen_euler(2, m_max))
    return [check_lemma31(m, n, d) for m, n, d in cases]


def sweep_corollary1(m_max: int = 10):
    cases = ((m, n) for m in range(1, m_max + 1) for n in range(m))
    cases = _largest_first(cases, lambda: euler(m_max))
    return [check_corollary1(m, n) for m, n in cases]


def sweep_desarmenien(k_max: int = 4, n_max: int = 10):
    """Every (k, m, n) with k <= k_max and k*m + n <= n_max."""
    cases = (
        (k, m, n)
        for k in range(1, k_max + 1)
        for m in range(n_max // k + 1)
        for n in range(n_max - k * m + 1)
    )
    cases = _largest_first(cases, lambda: gen_euler(2, n_max))
    return [check_desarmenien(k, m, n) for k, m, n in cases]


def sweep_theorem2(n_max: int = 15):
    reports = []
    for n in _largest_first(range(1, n_max + 1), lambda: salie(n_max)):
        reports.append(check_theorem2(n))
        for r in range((n + 1) // 2):
            reports.append(check_theorem2_power(n, r))
    return reports


def _k_mnd(k_max: int, m_max: int, d_max: int | None):
    return ((k, m, n, d) for k in range(1, k_max + 1) for m, n, d in _iter_mnd(m_max, d_max))


def sweep_theorem51(k_max: int = 3, m_max: int = 6, d_max: int | None = None):
    # row km of the block-k triangle has digits of about (km)! / k!^m,
    # which grows with k, so the largest k meets the row limit first
    cases = _largest_first(_k_mnd(k_max, m_max, d_max), lambda: gen_euler(k_max, m_max))
    return [check_theorem51(k, m, n, d) for k, m, n, d in cases]


def sweep_theorem52(k_max: int = 2, m_max: int = 8, d_max: int | None = None):
    cases = _largest_first(
        _k_mnd(k_max, m_max, d_max), lambda: gen_euler(1 << k_max, m_max)
    )
    return [check_theorem52(k, m, n, d) for k, m, n, d in cases]


def sweep_corollary52(k_max: int = 2, m_max: int = 8):
    cases = ((k, m, n) for k in range(1, k_max + 1) for m in range(1, m_max + 1) for n in range(m))
    cases = _largest_first(cases, lambda: gen_euler_at_one(1 << k_max, m_max))
    return [check_corollary52_and_stern(k, m, n) for k, m, n in cases]


def sweep_stern(m_max: int = 10):
    cases = ((m, n) for m in range(1, m_max + 1) for n in range(m))
    cases = _largest_first(cases, lambda: gen_euler_at_one(2, m_max))
    return [check_stern(m, n) for m, n in cases]


def sweep_lemma41(n_max: int = 15):
    cases = _largest_first(range(1, n_max + 1), lambda: (salie(n_max), tangent(n_max - 1)))
    return [check_lemma41(n) for n in cases]


def sweep_eq23(n_max: int = 15):
    cases = _largest_first(range(n_max + 1), lambda: (salie_bar(n_max), euler(n_max)))
    return [check_eq23(n) for n in cases]


def sweep_eq24(n_max: int = 15):
    cases = _largest_first(range(2, n_max + 1), lambda: (salie_hat(n_max), tangent(n_max - 1)))
    return [check_eq24(n) for n in cases]


def sweep_foata(n_max: int = 15):
    reports = []
    cases = _largest_first(range(1, n_max + 1), lambda: (tangent(n_max), salie(n_max)))
    for n in cases:
        reports.append(check_foata(n))
        reports.append(check_salie_unit_power(n))
    return reports


def sweep_perm_euler(n_max: int = 3):
    return [check_perm_euler(n) for n in range(1, n_max + 1)]


def sweep_perm_salie(n_max: int = 3):
    return [check_perm_salie(n) for n in range(1, n_max + 1)]


# suite registry ---------------------------------------------------------------------
#
# CLI subcommand -> suite name -> its sweep or explorer.  Every parameter of
# these functions is a bound with a default, and the CLI reads the bound
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
