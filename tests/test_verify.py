"""Theorem checkers: hand-verified instances, reduced sweeps, consistency
between independent code paths, and the pinned k=1 anomaly of the
root-of-unity congruence family."""

import inspect
import json
import sys

import pytest

import oracles
from oracles import ONE, naive_cyclotomic, naive_rem, one_plus_q_power, q_power
from qcong import verify as v
from qcong.cli import report_record, report_text
from qcong.cyclotomic import FactoredPoly
from qcong.poly import IntPoly
from qcong.residues import inject
from qcong.sequences import euler, gen_euler, gen_euler_at_one


def poly(*coeffs):
    return IntPoly(coeffs)


def all_pass(reports):
    bad = [report_text(r) for r in reports if not r.passed]
    assert not bad, f"{len(bad)} failing: {bad[:4]}"


# theorem 1 -------------------------------------------------------------------


def test_theorem1_examples():
    r = v.check_theorem1(2, 0, 2)
    assert r.expected_equivalence and r.observed_congruence and r.passed
    assert not r.witness
    # the raw congruence behind the (m, n, d) = (1, 0, 2) case, which sits
    # outside the checker's domain d <= m: E_2 - q E_0 = -1 - q mod 1 + q^2
    remainder = naive_rem(euler(1) - q_power(1) * euler(0), one_plus_q_power(2).coeffs)
    assert remainder == poly(-1, -1)


def test_theorem1_incongruent_case():
    # m=2, n=1, d=2: m-n odd, remainder must be nonzero
    r = v.check_theorem1(2, 1, 2)
    assert not r.expected_equivalence
    assert not r.observed_congruence
    assert r.passed
    assert r.witness != IntPoly()


def test_theorem1_d_one_always_congruent():
    for m in range(1, 8):
        for n in range(m):
            r = v.check_theorem1(m, n, 1)
            assert r.expected_equivalence and r.observed_congruence


def test_theorem1_sweep():
    all_pass(v.sweep_theorem1(10))


def test_theorem1_preconditions():
    with pytest.raises(v.PreconditionViolation):
        v.check_theorem1(1, 1, 1)
    with pytest.raises(v.PreconditionViolation):
        v.check_theorem1(2, 0, 3)
    with pytest.raises(v.PreconditionViolation):
        v.check_theorem1(2, 0, 0)


# lemma 3.1 and Desarmenien ----------------------------------------------------


def test_lemma31_examples():
    assert v.check_lemma31(2, 0, 2).passed
    r = v.check_lemma31(1, 0, 1)
    assert r.expected_equivalence and r.observed_congruence
    assert v.check_lemma31(3, 1, 2).observed_congruence


def test_lemma31_sweep():
    all_pass(v.sweep_lemma31(10))


def test_desarmenien_examples():
    assert v.check_desarmenien(1, 1, 0).passed
    assert v.check_desarmenien(2, 1, 1).passed
    assert v.check_desarmenien(3, 2, 0).passed


def test_desarmenien_sweep():
    all_pass(v.sweep_desarmenien(4, 10))


# corollary 1.1 ----------------------------------------------------------------


def test_corollary1_modulus_structure():
    # m=3, n=1: 2m-2n = 4 = 2^2, modulus (1+q)(1+q^2)
    r = v.check_corollary1(3, 1)
    assert r.divisor.factors == {2: 1, 4: 1}
    assert r.passed
    r = v.check_corollary1(1, 0)
    assert r.divisor.factors == {2: 1}
    assert r.passed


def test_corollary1_sweep():
    all_pass(v.sweep_corollary1(9))


# theorem 1.2 -----------------------------------------------------------------


def test_theorem2_examples():
    r = v.check_theorem2(1)
    assert r.passed and r.witness == ONE
    r = v.check_theorem2(2)
    assert r.passed and r.witness == poly(0, 2, 0, 1)
    assert v.check_theorem2(4).passed


def test_theorem2_sweep():
    all_pass(v.sweep_theorem2(10))


def test_theorem2_power_preconditions():
    with pytest.raises(v.PreconditionViolation):
        v.check_theorem2_power(3, 2)


# identities -------------------------------------------------------------------


def test_lemma41_n1():
    r = v.check_lemma41(1)
    assert r.passed and not r.witness


def test_identity_sweeps():
    all_pass(v.sweep_lemma41(10))
    all_pass(v.sweep_eq23(10))
    all_pass(v.sweep_eq24(10))


def test_eq24_excludes_n1():
    with pytest.raises(v.PreconditionViolation):
        v.check_eq24(1)
    # and indeed the identity genuinely fails at n=1: that is why the
    # correction term exists
    from qcong.qbinom import gauss
    from qcong.sequences import salie_hat, tangent

    lhs = IntPoly()
    for k in range(2):
        lhs = lhs + (-1) ** k * q_power(2 * k) * gauss(2, 2 * k) * salie_hat(
            k
        ) * salie_hat(1 - k)
    rhs = tangent(0) * poly(1, 1) * (ONE - q_power(2))
    assert lhs != rhs


def test_foata_sweep():
    all_pass(v.sweep_foata(10))


def test_perm_sweeps():
    all_pass(v.sweep_perm_euler(3))
    all_pass(v.sweep_perm_salie(3))


# root-of-unity congruences (theorem 5.1) ----------------------------------------


def test_theorem51_spec_examples():
    assert v.check_theorem51(1, 2, 1, 1).passed  # d=1: always congruent
    assert v.check_theorem51(3, 2, 0, 2).passed
    assert v.check_theorem51(3, 2, 0, 2).observed_congruence


def test_theorem51_k2_k3_sweep():
    reports = [r for r in v.sweep_theorem51(3, 6) if r.params["k"] >= 2]
    all_pass(reports)


def test_theorem51_k2_matches_lemma31():
    for m in range(1, 7):
        for n in range(m):
            for d in range(1, m + 1):
                a = v.check_theorem51(2, m, n, d)
                b = v.check_lemma31(m, n, d)
                assert a.observed_congruence == b.observed_congruence


def test_theorem51_k1_sufficiency_holds():
    for m in range(1, 9):
        for n in range(m):
            for d in range(1, m + 1):
                r = v.check_theorem51(1, m, n, d)
                if r.expected_equivalence:
                    assert r.observed_congruence


def test_theorem51_k1_known_anomaly():
    # For k=1 the family degenerates to E_n = (-1)^n q^(n(n-1)/2), and the
    # root-of-unity equality holds iff (m-n)(m+n+d-2) = 0 mod 2d, which is
    # weaker than d | m-n.  The printed iff therefore fails; pin both the
    # smallest counterexample and the exact law.
    r = v.check_theorem51(1, 3, 2, 3)
    assert r.observed_congruence and not r.expected_equivalence and not r.passed
    for m in range(1, 9):
        for n in range(m):
            for d in range(1, m + 1):
                law = (m - n) * (m + n + d - 2) % (2 * d) == 0
                assert v.check_theorem51(1, m, n, d).observed_congruence == law


# theorem 5.2 and the q=1 corollaries ----------------------------------------------


def test_theorem52_examples():
    assert v.check_theorem52(2, 2, 0, 2).passed
    r = v.check_theorem52(2, 2, 1, 2)
    assert not r.expected_equivalence and not r.observed_congruence and r.passed
    assert r.witness != IntPoly()


def test_theorem52_k1_matches_theorem1():
    for m in range(1, 9):
        for n in range(m):
            for d in range(1, m + 1):
                a = v.check_theorem52(1, m, n, d)
                b = v.check_theorem1(m, n, d)
                assert a.observed_congruence == b.observed_congruence
                assert a.passed and b.passed


def test_theorem52_sweep():
    all_pass(v.sweep_theorem52(2, 6))


def test_corollary52_examples():
    assert v.check_corollary52_and_stern(1, 1, 0).passed
    r = v.check_corollary52_and_stern(1, 3, 1)
    assert r.passed and r.params["s"] == 2 and r.witness == -60
    assert v.check_corollary52_and_stern(2, 2, 1).passed


def test_corollary52_sweep():
    all_pass(v.sweep_corollary52(2, 7))


def test_stern_sweep():
    all_pass(v.sweep_stern(9))
    r = v.check_stern(3, 1)
    assert r.passed and r.params["s"] == 2


def test_stern_fails_with_witness_minus_one_on_equal_values(monkeypatch):
    # v2 of a zero gap is undefined; the check fails with the witness -1
    monkeypatch.setattr(v, "gen_euler_at_one", lambda k, n: 61)
    r = v.check_stern(3, 1)
    assert r.passed is False and r.witness == -1


# the shared identity and q = 1 routes against the separate loops -------------------

IDENTITY_ROUTES = (
    (v.check_lemma41, oracles.loop_lemma41, ("gauss", "salie", "tangent"), 1),
    (v.check_eq23, oracles.loop_eq23, ("gauss", "salie_bar", "euler"), 0),
    (v.check_eq24, oracles.loop_eq24, ("gauss", "salie_hat", "tangent"), 2),
)


def routes_agree() -> list[bool]:
    """Assert that every identity check for n <= 12, and every q = 1 check
    for k <= 3, m <= 10, gives the (passed, witness) of its separate loop,
    on the families `verify` reads now; return the passed flags."""
    flags = []
    for check, loop, names, first in IDENTITY_ROUTES:
        for n in range(first, 13):
            r = check(n)
            assert (r.passed, r.witness) == loop(n, *(getattr(v, f) for f in names)), (check, n)
            flags.append(r.passed)
    at_one = v.gen_euler_at_one
    for m in range(1, 11):
        for n in range(m):
            r = v.check_stern(m, n)
            assert (r.passed, r.witness) == oracles.at_one_stern(m, n, at_one), (m, n)
            flags.append(r.passed)
            for k in range(1, 4):
                r = v.check_corollary52_and_stern(k, m, n)
                assert (r.passed, r.witness) == oracles.at_one_corollary52(k, m, n, at_one)
                flags.append(r.passed)
    reports = v.explore_conjecture51(3, 10)
    assert [(r.params, r.passed, r.witness) for r in reports] == oracles.at_one_conj51(3, 10, at_one)
    return flags + [r.passed for r in reports]


def test_shared_routes_match_the_separate_loops():
    assert all(routes_agree())


@pytest.mark.parametrize("scale", (lambda c: 1, lambda c: c // 2), ids=("n", "c/2 n"))
def test_shared_routes_match_the_separate_loops_on_perturbed_families(monkeypatch, scale):
    # shifted families make every identity and many q = 1 instances fail,
    # so nonzero witnesses are compared, not only zeros; E^(c)(1) shifted
    # by c/2 n differs 2-adically between families, so reading the wrong
    # one shows, and shifted by n it fails every q = 1 claim
    for name in ("gauss", "salie", "salie_bar", "salie_hat", "euler", "tangent"):
        f = getattr(v, name)
        monkeypatch.setattr(v, name, lambda *a, f=f: f(*a) + q_power(a[-1] % 3))
    monkeypatch.setattr(v, "gen_euler_at_one", lambda c, n: gen_euler_at_one(c, n) + scale(c) * n)
    flags = routes_agree()
    assert not any(flags[:33]) and False in flags[33:]


# conjecture explorers ----------------------------------------------------------


def test_conjecture51_small():
    reports = v.explore_conjecture51(2, 6)
    assert all(r.passed for r in reports)
    k1 = [r for r in reports if r.params["k"] == 1]
    assert k1 and all(r.passed for r in k1)


def test_conjecture51_first_instance():
    r = v.explore_conjecture51(1, 1)[0]
    assert r.params == {"k": 1, "m": 1, "n": 0, "s": 1}
    assert r.passed  # E_2 - E_0 = -2 = 2 mod 4


def test_conjecture61_small():
    reports = v.explore_conjecture61(8)
    assert all(r.passed for r in reports)
    variants = {r.params["variant"] for r in reports}
    assert variants == {"bar", "hat", "tilde"}


def test_explorer_reports_do_not_raise():
    # explorers report rather than assert: passed is a plain field
    r = v.explore_conjecture61(2)[0]
    assert isinstance(r.passed, bool)
    assert json.loads(report_record(r))["status"] == ("holds" if r.passed else "fails")


def memo_tables():
    """cache_info() of every memo table defined in a qcong module."""
    return {
        (mod_name, name): fn.cache_info()
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "qcong" or mod_name.startswith("qcong.")
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_info") and fn.__module__ == mod_name
    }


def test_bounds_that_leave_no_case_give_no_reports_and_touch_no_memo():
    # one bound at -1 and the others at their defaults leaves no case, so
    # no largest value is asked for and no check runs
    before = memo_tables()
    assert len(before) >= 10
    for suites in v.SUITES.values():
        for name, fn in suites.items():
            for bound in inspect.signature(fn).parameters:
                assert fn(**{bound: -1}) == [], (name, bound)
    assert memo_tables() == before


# report plumbing ----------------------------------------------------------------


def test_congruence_report_pass_logic():
    # a nonzero remainder observes no congruence
    r = v._congruence("x", {"m": 1}, True, ONE)
    assert not r.passed
    assert "FAIL" in report_text(r)
    r = v._congruence("x", {"m": 1}, False, poly(1, 1))
    assert r.passed


def test_failed_report_descriptions():
    r = v.Report("divisibility", "theorem2-power", {"r": 1}, False, poly(1, 1),
                 family="salie", index=3, divisor=FactoredPoly({6: 1}))
    assert report_text(r) == (
        "theorem2-power salie n=3 r=1 divisor=Phi_6: FAIL remainder=1 + q"
    )
    r = v.Report("identity", "eq23", {"n": 2}, False, poly(0, -2))
    assert report_text(r) == "eq23 n=2: FAIL difference=-2q"
    r = v.Report("conjecture", "conj51", {"k": 1, "m": 2, "n": 0, "s": 2}, False, 3)
    assert not r.passed
    assert report_text(r) == "conj51 k=1 m=2 n=0 s=2: fails witness=3"


def test_describe_strings():
    assert "PASS" in report_text(v.check_theorem1(2, 0, 2))
    assert "holds" in report_text(v.explore_conjecture61(1)[0])
    assert "PASS" in report_text(v.check_theorem2(1))
    assert "PASS" in report_text(v.check_lemma41(1))


def test_v2():
    assert v._v2(8) == 3
    assert v._v2(12) == 2
    assert v._v2(-4) == 2
    with pytest.raises(ValueError):
        v._v2(0)


def test_euler_memo_shared_with_checkers():
    # the checker and the raw sequence must agree on the same cache
    r = v.check_theorem1(3, 1, 2)
    assert r.observed_congruence == (
        naive_rem(euler(3) - poly(0, 0, 1) * euler(1), (1, 0, 1)) == IntPoly()
    )


# cached residues against the full-difference route ------------------------------
#
# The congruence checks reduce cached residues of each family value; the
# full-difference route builds each difference at full degree and
# long-divides it; theorem51's is reduced by inject, with no value
# or power of q taken from the per-ring tables.  Remainders modulo a monic
# polynomial are unique, so the two must agree on every verdict and every
# witness.


def full_difference_cases():
    for m in range(1, 11):
        for n in range(m):
            diff = euler(m) - q_power(m - n) * euler(n)
            for d in range(1, m + 1):
                yield v.check_theorem1(m, n, d), naive_rem(diff, one_plus_q_power(d).coeffs)
                yield v.check_lemma31(m, n, d), naive_rem(diff, naive_cyclotomic(2 * d))
    for k in (1, 2):
        fam, half = 1 << k, 1 << (k - 1)
        for m in range(1, 9):
            for n in range(m):
                diff = gen_euler(fam, m) - q_power(half * (m - n)) * gen_euler(fam, n)
                for d in range(1, m + 1):
                    yield (
                        v.check_theorem52(k, m, n, d),
                        naive_rem(diff, one_plus_q_power(half * d).coeffs),
                    )
    for k in range(1, 5):
        for m in range(12 // k + 1):
            for n in range(12 - k * m + 1):
                diff = euler(k * m + n) - (-1) ** m * euler(n)
                yield v.check_desarmenien(k, m, n), naive_rem(diff, naive_cyclotomic(2 * k))
    for k in range(1, 4):
        for m in range(1, 7):
            top = gen_euler(k, m).substitute_power(2)
            for n in range(m):
                diff = top - q_power(k * (m - n)) * gen_euler(k, n).substitute_power(2)
                for d in range(1, m + 1):
                    yield v.check_theorem51(k, m, n, d), inject(diff, 2 * k * d)


def test_residue_checks_match_full_difference_route():
    seen = set()
    for report, remainder in full_difference_cases():
        seen.add(report.check)
        assert report.witness == remainder, report_text(report)
        assert report.observed_congruence == (remainder == IntPoly())
    assert seen == {"theorem1", "lemma31", "theorem52", "desarmenien", "theorem51"}


def test_residue_is_the_folded_full_difference():
    # s below e, equal to e, and odd and even multiples of e plus a remainder
    for c in (2, 3, 4, 8):
        for m in range(13):
            top = gen_euler(c, m)
            for n in {0, m // 2}:
                for e in range(1, 2 * m + 1):
                    r = (m + n) % e
                    for s in {r, e - 1, e, e + r, 2 * e + r, 3 * e + r}:
                        want = (top - gen_euler(c, n).shift(s)).rem_binomial(e)
                        assert v._residue(c, m, n, s, e) == want, (c, m, n, s, e)
