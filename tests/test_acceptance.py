"""Acceptance suite: the package's exit criteria, one test per criterion.

Every check is exact (integer polynomial arithmetic, tolerance zero).  Each
test prints a single line `criterion NN [PASS|FAIL] description [elapsed]`;
run with `pytest tests/test_acceptance.py -v -s` to see them.

Criterion 9 is expected to FAIL: the printed root-of-unity iff-statement is
provably false for the k=1 family (see the failure message, and
test_verify.py::test_theorem51_k1_known_anomaly for the exact k=1 law); the
sweep is asserted as stated rather than weakened around the defect.
"""

import time

from qcong import verify as v
from qcong.cyclotomic import FactoredPoly, factor_one_plus_qd
from qcong.divisors import big_p, q_bar
from qcong.perms import alternating_gf, salie_perm_gf
from qcong.poly import IntPoly, ONE, Q, q_power
from qcong.qbinom import gauss, gauss_factored, q_lucas_holds
from qcong.sequences import (
    euler,
    salie,
    salie_bar,
    salie_hat,
    salie_tilde,
    tangent,
)
from oracles import euler_at_one, zigzag_numbers


def poly(*coeffs):
    return IntPoly(coeffs)


def chunks(*pairs):
    return FactoredPoly(
        (d, exp) for base, exp in pairs for d in factor_one_plus_qd(base).factors
    )


def _criterion(num, description, ok, detail=""):
    elapsed = time.perf_counter() - _criterion.t0
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {description}. {detail}"


def _start():
    _criterion.t0 = time.perf_counter()


def _failures(reports):
    return [r.describe() for r in reports if not r.passed]


def test_criterion_01_first_values():
    _start()
    checks = [
        euler(0) == ONE,
        euler(1) == poly(-1),
        euler(2) == Q * poly(1, 1) * poly(1, 0, 1) + q_power(2),
        euler(3)
        == -q_power(2) * poly(1, 0, 0, 1) * poly(1, 4, 5, 7, 6, 5, 2, 1) + q_power(3),
        salie(0) == ONE,
        salie(1) == poly(1, 1),
        salie_bar(0) == ONE,
        salie_bar(1) == poly(2),
        salie_bar(2) == 2 * poly(1, 0, 1) * poly(1, 1, 1),
        salie_bar(3) == 2 * poly(1, 0, 1) * poly(1, 1, 2, 4, 6, 6, 6, 5, 4, 2, 1),
        salie_hat(0) == ONE,
        salie_hat(1) == poly(1, 0, 1),
        salie_hat(2) == Q * poly(1, 0, 1) * poly(1, 3, 1, 1),
        salie_hat(3)
        == q_power(2) * poly(1, 0, 1) ** 2 * poly(1, 4, 7, 6, 6, 6, 5, 2, 1),
        salie_tilde(0) == ONE,
        salie_tilde(1) == poly(1, 1),
        salie_tilde(2) == Q * poly(1, 1) * poly(1, 0, 1) * poly(2, 1),
        salie_tilde(3)
        == q_power(2)
        * poly(1, 1)
        * poly(1, 0, 1)
        * poly(1, 0, 0, 1)
        * poly(2, 4, 5, 4, 3, 1),
    ]
    _criterion(1, "first printed values of E, S, Sbar, Shat, Stil", all(checks))


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

# Row 6 as printed, (1+q^2)^2(1+q^4)^2(1+q^6), contradicts the defining
# product (exponent of Phi_8 is floor(6/4) = 1) and the lcm description the
# same source states; the corrected row is pinned.
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


def test_criterion_02_tables():
    _start()
    ok = True
    for n, spec in TABLE_P.items():
        expected = chunks(*spec)
        ok = ok and big_p(n) == expected and big_p(n).expand() == expected.expand()
    for n, spec in TABLE_QBAR.items():
        expected = chunks(*spec)
        ok = ok and q_bar(n) == expected and q_bar(n).expand() == expected.expand()
    _criterion(2, "P_1..P_8 and Qbar_1..Qbar_8 tables, factored and expanded", ok)


def test_criterion_03_theorem1_sweep():
    _start()
    bad = _failures(v.sweep_theorem1(12))
    _criterion(3, "main congruence iff-sweep, d <= m <= 12", not bad, str(bad[:5]))


def test_criterion_04_lemma31_sweep():
    _start()
    bad = _failures(v.sweep_lemma31(12))
    _criterion(4, "cyclotomic-modulus congruence iff-sweep, d <= m <= 12", not bad, str(bad[:5]))


def test_criterion_05_corollary1():
    _start()
    bad = _failures(v.sweep_corollary1(10))
    _criterion(5, "product-modulus divisibility for m <= 10", not bad, str(bad[:5]))


def test_criterion_06_theorem2():
    _start()
    bad = _failures(v.sweep_theorem2(15))
    _criterion(6, "P_n | S_2n and the per-power divisibilities, n <= 15", not bad, str(bad[:5]))


def test_criterion_07_tangent_convolutions():
    _start()
    bad = _failures(v.sweep_lemma41(15)) + _failures(v.sweep_eq24(15))
    _criterion(7, "S/T and Shat/T convolution identities, n <= 15", not bad, str(bad[:5]))


def test_criterion_08_salie_bar_euler_sum():
    _start()
    bad = _failures(v.sweep_eq23(15))
    _criterion(8, "Sbar as signed Gaussian-binomial Euler sum, n <= 15", not bad, str(bad[:5]))


def test_criterion_09_root_of_unity_family():
    _start()
    bad = _failures(v.sweep_theorem51(3, 6))
    bad += _failures(v.sweep_theorem52(2, 8))
    agree = True
    for m in range(1, 7):
        for n in range(m):
            for d in range(1, m + 1):
                agree = agree and (
                    v.check_theorem51(2, m, n, d).observed_congruence
                    == v.check_lemma31(m, n, d).observed_congruence
                )
    for m in range(1, 9):
        for n in range(m):
            for d in range(1, m + 1):
                agree = agree and (
                    v.check_theorem52(1, m, n, d).observed_congruence
                    == v.check_theorem1(m, n, d).observed_congruence
                )
    _criterion(
        9,
        "generalized-family iff-sweeps (k <= 3, m <= 6; 2^k family k <= 2, m <= 8) + reductions",
        not bad and agree,
        "The k=1 slice of the root-of-unity iff is provably false as stated: "
        "E^(1)_n = (-1)^n q^(n(n-1)/2), so equality holds iff "
        "(m-n)(m+n+d-2) = 0 mod 2d, weaker than d | m-n. Reductions "
        f"agree: {agree}. Violations: {bad[:12]}",
    )


def test_criterion_10_gaussian_routes():
    _start()
    ok = True
    for m in range(31):
        for n in range(m + 1):
            ok = ok and gauss_factored(m, n).expand() == gauss(m, n)
    for d in range(1, 9):
        for m in range(25):
            for k in range(m + 1):
                ok = ok and q_lucas_holds(m, k, d)
    _criterion(10, "factorization = q-Pascal for M <= 30; q-Lucas d <= 8, m <= 24", ok)


def test_criterion_11_foata_and_unit_powers():
    _start()
    bad = _failures(v.sweep_foata(15))
    _criterion(11, "D_n | T_2n+1 and (1+q)^n | S_2n for n <= 15", not bad, str(bad[:5]))


def test_criterion_12_permutation_oracles():
    _start()
    ok = True
    for n in range(1, 5):
        ok = ok and alternating_gf(n) == (-1) ** n * euler(n)
        ok = ok and 2 * salie_perm_gf(n) == salie_bar(n)
    _criterion(12, "alternating/Salie permutation inversion gfs, n <= 4", ok)


def test_criterion_13_classical_specializations():
    _start()
    signed_secant = euler_at_one(7)
    zz = zigzag_numbers(16)
    ok = all(euler(n).eval_int(1) == signed_secant[n] for n in range(7))
    ok = ok and signed_secant[:5] == [1, -1, 5, -61, 1385]
    ok = ok and [tangent(n).eval_int(1) for n in range(4)] == [1, 2, 16, 272]
    ok = ok and all(tangent(n).eval_int(1) == zz[2 * n + 1] for n in range(8))
    ok = ok and all(salie(n).eval_int(1) % 2**n == 0 for n in range(1, 16))
    ok = ok and all(big_p(n).expand().eval_int(1) == 2**n for n in range(1, 21))
    _criterion(13, "q=1 values: secant, tangent, Carlitz 2^n, P_n(1) = 2^n", ok)


def test_criterion_14_conjecture_explorers():
    _start()
    r51 = v.explore_conjecture51(3, 10)
    r61 = v.explore_conjecture61(12)
    fails = [r.describe() for r in r51 + r61 if not r.passed]
    _criterion(
        14,
        "conjecture explorers all-holds (2-adic refinement k <= 3, m <= 10; divisibility n <= 12)",
        not fails,
        str(fails[:5]),
    )
