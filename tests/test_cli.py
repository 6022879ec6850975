"""CLI contract: subcommands, exit codes, and exact machine output."""

import hashlib
import json
import os
import subprocess
import sys
import time

from qcong import verify as v
from qcong.cli import report_record
from qcong.divisors import big_p
from qcong.perms import ENUMERATION_CAP
from qcong.poly import IntPoly
from qcong.sequences import euler, gen_euler, gen_euler_at_one

CMD = [sys.executable, "-m", "qcong"]


def run(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("QCONG_MAX_N", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env
    )


def json_lines(output):
    return [json.loads(line) for line in output.strip().splitlines()]


def test_compute_euler_json_roundtrip():
    proc = run("compute", "--family", "euler", "--n", "3", "--format", "json")
    assert proc.returncode == 0
    records = json_lines(proc.stdout)
    assert len(records) == 4
    for rec in records:
        assert rec["family"] == "euler"
        rebuilt = IntPoly(int(c) for c in rec["coeffs"])
        assert rebuilt == euler(rec["index"])


def test_compute_euler_text():
    proc = run("compute", "--family", "euler", "--n", "2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "euler 0: 1"
    assert lines[1] == "euler 1: -1"
    assert lines[2] == "euler 2: q + 2q^2 + q^3 + q^4"


def test_compute_divisor_family_json():
    proc = run("compute", "--family", "P", "--n", "8", "--format", "json")
    assert proc.returncode == 0
    records = json_lines(proc.stdout)
    assert [rec["index"] for rec in records] == list(range(1, 9))
    for rec in records:
        expected = big_p(rec["index"])
        assert {
            (f["cyclo_index"], f["exponent"]) for f in rec["factored"]
        } == set(expected.factors.items())
        assert IntPoly(int(c) for c in rec["coeffs"]) == expected.expand()


def test_compute_gen_euler_requires_k():
    proc = run("compute", "--family", "gen-euler", "--n", "3")
    assert proc.returncode == 2
    proc = run("compute", "--family", "gen-euler", "--n", "3", "--k", "3",
               "--format", "json")
    assert proc.returncode == 0
    records = json_lines(proc.stdout)
    assert all(rec["k"] == 3 for rec in records)
    assert IntPoly(int(c) for c in records[2]["coeffs"]) == gen_euler(3, 2)


def test_compute_foreign_k_is_usage_error():
    # only gen-euler and gauss take --k; every other family refuses it
    # instead of printing its values as if --k had not been given
    proc = run("compute", "--family", "euler", "--n", "1", "--k", "7")
    assert_usage_error(proc)
    assert "--family euler does not take --k" in proc.stderr
    for family in ("salie-tilde", "P", "cyclotomic"):
        assert_usage_error(run("compute", "--family", family, "--n", "2", "--k", "1"))


def test_compute_gauss_and_cyclotomic():
    proc = run("compute", "--family", "gauss", "--n", "4", "--k", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "gauss 4 2: 1 + q + 2q^2 + q^3 + q^4"
    proc = run("compute", "--family", "gauss", "--n", "4")
    assert proc.returncode == 2
    proc = run("compute", "--family", "cyclotomic", "--n", "6")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "cyclotomic 6: 1 - q + q^2"


def test_compute_unknown_family_is_usage_error():
    proc = run("compute", "--family", "nope", "--n", "3")
    assert proc.returncode == 2


def test_verify_suite_json_summary():
    proc = run("verify", "--suite", "theorem1", "--m-max", "6",
               "--format", "json")
    assert proc.returncode == 0
    records = json_lines(proc.stdout)
    summary = records[-1]
    body = records[:-1]
    assert summary["checked"] == len(body)
    assert summary["failed"] == 0
    assert summary["passed"] == summary["checked"]
    assert all(rec["passed"] for rec in body)
    # m<=6: sum over m of m*m instances
    assert summary["checked"] == sum(m * m for m in range(1, 7))


def test_verify_failure_exit_code():
    # the k=1 slice of the root-of-unity family genuinely violates the
    # printed iff, so this suite must exit 1 and report the witnesses
    proc = run("verify", "--suite", "theorem51", "--k-max", "1",
               "--m-max", "6", "--format", "json")
    assert proc.returncode == 1
    summary = json_lines(proc.stdout)[-1]
    assert summary["failed"] > 0


def test_verify_text_output():
    proc = run("verify", "--suite", "lemma41", "--n-max", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "checked=4 passed=4 failed=0"
    assert all("PASS" in line for line in lines[:-1])


def test_explore_conjecture():
    proc = run("explore", "--conjecture", "conj61", "--n-max", "4",
               "--format", "json")
    assert proc.returncode == 0
    records = json_lines(proc.stdout)
    assert records[-1]["failed"] == 0
    assert all(rec["status"] == "holds" for rec in records[:-1])
    proc = run("explore", "--conjecture", "conj51", "--k-max", "1",
               "--m-max", "4")
    assert proc.returncode == 0
    assert "fails" not in proc.stdout.replace("fails=0", "")


def test_env_cap_limits_default_bounds():
    proc = run("verify", "--suite", "theorem1", "--format", "json",
               env_extra={"QCONG_MAX_N": "3"})
    assert proc.returncode == 0
    summary = json_lines(proc.stdout)[-1]
    assert summary["checked"] == sum(m * m for m in range(1, 4))
    # explicit flag beats the env cap
    proc = run("verify", "--suite", "theorem1", "--m-max", "4",
               "--format", "json", env_extra={"QCONG_MAX_N": "3"})
    summary = json_lines(proc.stdout)[-1]
    assert summary["checked"] == sum(m * m for m in range(1, 5))


def test_env_cap_must_be_integer():
    proc = run("verify", "--suite", "lemma41", env_extra={"QCONG_MAX_N": "x"})
    assert proc.returncode == 2


def test_out_file(tmp_path):
    target = tmp_path / "out.jsonl"
    proc = run("compute", "--family", "Qbar", "--n", "4", "--format", "json",
               "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert len(records) == 4


def test_missing_subcommand_usage_error():
    proc = run()
    assert proc.returncode == 2


def assert_usage_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("qcong: error: ")
    assert proc.stdout == ""


def test_enumeration_cap_is_usage_error():
    # one cap for both permutation suites
    for suite in ("perm-euler", "perm-salie"):
        proc = run("verify", "--suite", suite, "--n-max", str(ENUMERATION_CAP + 1))
        assert_usage_error(proc)
        assert f"enumeration cap {ENUMERATION_CAP}" in proc.stderr


def test_triangle_row_limit_is_usage_error():
    # both read row 400 of a q-Seidel triangle, about 10 GB and 3 GB; the
    # largest index is asked first, so the guard answers before any work
    for argv in (("--family", "euler", "--n", "200"),
                 ("--family", "gen-euler", "--k", "100", "--n", "4")):
        proc = run("compute", *argv)
        assert_usage_error(proc)
        assert "MB row limit" in proc.stderr


LOWERED_ROW_LIMIT = """
import json, sys
from qcong import cli, sequences
sequences.ROW_BYTES_LIMIT = 1 << 20
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
else:
    code = 0
sizes = [fn.cache_info().currsize for fn in sequences.SEQUENCE_FAMILIES.values()]
print(json.dumps({"code": code, "cached": sizes}), file=sys.stderr)
"""


LOWERED_SERIES_LIMIT = """
import importlib, json, sys
from qcong import cli, qbinom
importlib.import_module("qcong.cyclotomic").SERIES_BYTES_LIMIT = 1 << 20
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print(json.dumps({"code": code, "cached": qbinom._gauss.cache_info().currsize}), file=sys.stderr)
"""


# Runs the CLI with its address space capped near 600 MB, so a request that
# slipped past the series limit fails with a MemoryError traceback instead of
# exhausting the machine.
ADDRESS_SPACE_CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))
from qcong import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def run_capped(*argv):
    env = dict(os.environ)
    env.pop("QCONG_MAX_N", None)
    return subprocess.run(
        [sys.executable, "-c", ADDRESS_SPACE_CAP, *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )


def test_series_limit_is_usage_error():
    # [2000 over 10] is 20 binomial passes over 19,901 coefficients of about
    # 47 bytes: past a 1 MB series limit it is refused before any pass
    proc = subprocess.run(
        [sys.executable, "-c", LOWERED_SERIES_LIMIT,
         "compute", "--family", "gauss", "--n", "2000", "--k", "10"],
        capture_output=True, text=True,
    )
    assert proc.stdout == ""
    *_, message, result = proc.stderr.strip().splitlines()
    assert message == (
        "qcong: error: gauss: a degree-19900 series in 20 binomial pass(es) "
        "would take more than the 1 MB series limit"
    )
    assert json.loads(result) == {"code": 2, "cached": 0}
    # at the default 1 GB limit: 2,000 passes over 10^6 coefficients, and
    # one pass over 10^9
    for n, k in (("2000", "1000"), ("1000000000", "1")):
        assert_usage_error(run_capped("compute", "--family", "gauss", "--n", n, "--k", k))


def test_huge_cyclotomic_is_usage_error():
    # Phi_p of the prime p = 10^9 + 7 has 10^9 + 7 coefficients
    proc = run_capped("compute", "--family", "cyclotomic", "--n", "1000000007")
    assert_usage_error(proc)
    assert proc.stderr.strip().splitlines()[-1].startswith("qcong: error: cyclotomic: ")


def test_huge_cyclotomic_index_is_refused_before_factoring():
    # 2^61 - 1 is prime: trial division would take minutes, but a lower
    # bound on phi(n) is past the series limit already
    start = time.perf_counter()
    proc = run_capped("compute", "--family", "cyclotomic", "--n", str(2**61 - 1))
    assert time.perf_counter() - start < 1
    assert_usage_error(proc)
    assert proc.stderr.strip().splitlines()[-1] == (
        "qcong: error: cyclotomic: a series of degree at least 319829862353704159 "
        "would take more than the 1024 MB series limit"
    )


STR_FORBIDDEN = """
import sys
from qcong import cli
from qcong.poly import IntPoly

def forbidden(self):
    raise AssertionError("a polynomial was rendered as text")

IntPoly.__str__ = forbidden
sys.exit(cli.main(sys.argv[1:]))
"""


def test_json_compute_renders_no_text():
    # only the printed format is built: JSON output never calls str(poly)
    for argv in (
        ("--family", "euler", "--n", "6"),
        ("--family", "gen-euler", "--k", "3", "--n", "4"),
        ("--family", "D", "--n", "5"),
        ("--family", "cyclotomic", "--n", "30"),
        ("--family", "gauss", "--n", "8", "--k", "3"),
    ):
        argv = ("compute", *argv, "--format", "json")
        proc = subprocess.run(
            [sys.executable, "-c", STR_FORBIDDEN, *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run(*argv).stdout


def test_divisor_family_asks_for_its_largest_index_first():
    # P_400 is 800 binomial passes over 53,345 coefficients, past the 1 GB
    # series limit; asked for first, it is refused before P_1 .. P_399 are built
    assert_usage_error(run_capped("compute", "--family", "P", "--n", "400"))


def assert_refused_before_any_check(*argv):
    # with a 1 MB row limit the run's largest value is refused; it is asked
    # for first, so no family value is built or cached before exit 2
    proc = subprocess.run(
        [sys.executable, "-c", LOWERED_ROW_LIMIT, *argv],
        capture_output=True, text=True,
    )
    assert proc.stdout == "", argv
    assert "1 MB row limit" in proc.stderr, argv
    result = json.loads(proc.stderr.strip().splitlines()[-1])
    assert result == {"code": 2, "cached": [0] * 7}, argv


def test_congruence_sweeps_meet_the_row_limit_before_any_check():
    for argv in (
        ("--suite", "theorem1", "--m-max", "40"),
        ("--suite", "lemma31", "--m-max", "40"),
        ("--suite", "corollary1", "--m-max", "40"),
        ("--suite", "desarmenien", "--n-max", "40"),
        ("--suite", "theorem51", "--k-max", "3", "--m-max", "24"),
        ("--suite", "theorem52", "--k-max", "3", "--m-max", "12"),
    ):
        assert_refused_before_any_check("verify", *argv)


def test_congruence_sweeps_ask_for_their_largest_value_before_listing_cases():
    # theorem1 and lemma31 at m_max = 3000 have about 10^10 cases, which
    # would exhaust the address-space cap before the row guard is asked
    for argv, row in (
        (("theorem1", "--m-max", "3000"), 6001),
        (("lemma31", "--m-max", "3000"), 6001),
        (("theorem51", "--k-max", "1", "--m-max", "3000"), 3001),
        (("corollary1", "--m-max", "100000"), 200001),
    ):
        proc = run_capped("verify", "--suite", *argv)
        assert_usage_error(proc)
        assert proc.stderr.strip().splitlines()[-1] == (
            f"qcong: error: {argv[0]}: row {row} of the q-Seidel triangle would "
            "take more than the 1024 MB row limit"
        )


def test_q_at_one_sweeps_meet_the_subscript_limit_at_once():
    # C(2^40 * 3, 2^40 * j) would run for hours, and stern at m_max = 40000
    # would check about 5 * 10^8 cases before it reached the limit at m = 32769
    for argv, k, subscript in (
        (("verify", "--suite", "corollary52", "--k-max", "40", "--m-max", "3"), 1 << 40, 3 << 40),
        (("explore", "--conjecture", "conj51", "--k-max", "40", "--m-max", "3"), 1 << 40, 3 << 40),
        (("verify", "--suite", "stern", "--m-max", "40000"), 2, 80000),
    ):
        start = time.perf_counter()
        proc = run_capped(*argv)
        assert time.perf_counter() - start < 1
        assert_usage_error(proc)
        assert proc.stderr.strip().splitlines()[-1] == (
            f"qcong: error: {argv[2]}: E^({k})_{subscript}(1): "
            f"subscript {subscript} is past the q = 1 limit of 65536"
        )


def test_divisibility_sweeps_meet_the_row_limit_before_any_check():
    for argv in (
        ("verify", "--suite", "theorem2", "--n-max", "40"),
        ("verify", "--suite", "foata", "--n-max", "40"),
        ("explore", "--conjecture", "conj61", "--n-max", "40"),
    ):
        assert_refused_before_any_check(*argv)


def test_identity_sweeps_meet_the_row_limit_before_any_check():
    for argv in (
        ("--suite", "lemma41", "--n-max", "40"),
        ("--suite", "eq23", "--n-max", "60"),
        ("--suite", "eq24", "--n-max", "60"),
    ):
        assert_refused_before_any_check("verify", *argv)


def test_q_at_one_witnesses_past_the_int_string_limit_are_exact():
    # E^(2048)(1) differences have more digits than CPython's default limit
    # on int-to-decimal conversion; each witness is still the exact decimal
    proc = run("verify", "--suite", "corollary52", "--k-max", "11", "--m-max", "4",
               "--format", "json")
    assert proc.returncode == 0, proc.stderr
    *records, summary = json_lines(proc.stdout)
    assert summary["checked"] == len(records) == 11 * (1 + 2 + 3 + 4)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [
            str(gen_euler_at_one(1 << p["k"], p["m"]) - gen_euler_at_one(1 << p["k"], p["n"]))
            for p in (r["params"] for r in records)
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [r["witness"] for r in records] == expected
    assert max(map(len, expected)) > limit


def test_theorem52_at_k_max_4_runs_under_the_row_limit():
    # the 2^4 family reads row 128 of the k = 16 triangle (about 48 MB);
    # the digest is the output of the Gaussian-binomial route it replaced
    proc = run("verify", "--suite", "theorem52", "--k-max", "4", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "9b24d90daf93053b63f94fb9d07afdf5a53baf4014fa23872bece1a22bfb150e"
    )


def test_unwritable_out_is_usage_error(tmp_path):
    # a missing directory and a directory in place of the file
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        proc = run("verify", "--suite", "stern", "--m-max", "2", "--out", str(target))
        assert_usage_error(proc)
        assert f"cannot write --out {target}" in proc.stderr


def test_explorer_precondition_is_usage_error():
    assert_usage_error(run("explore", "--conjecture", "conj61", "--n-max", "0"))


def test_empty_sweep_is_usage_error():
    assert_usage_error(run("verify", "--suite", "theorem2", "--n-max", "0"))
    assert_usage_error(run("verify", "--suite", "stern", "--m-max", "-3"))
    assert_usage_error(run("verify", "--suite", "theorem2",
                           env_extra={"QCONG_MAX_N": "-2"}))
    # an empty congruence sweep asks for no family value first
    for argv in (("theorem1", "--m-max", "-3"), ("theorem52", "--k-max", "-1"),
                 ("theorem51", "--d-max", "0"), ("desarmenien", "--k-max", "0")):
        proc = run("verify", "--suite", *argv)
        assert_usage_error(proc)
        assert "no instances within these bounds" in proc.stderr


def test_all_suites_under_small_cap_succeed():
    # some suites are empty under the cap, but the total is not
    proc = run("verify", "--suite", "all", "--format", "json",
               env_extra={"QCONG_MAX_N": "1"})
    assert proc.returncode == 0
    summary = json_lines(proc.stdout)[-1]
    assert summary["checked"] > 0 and summary["failed"] == 0


def test_foreign_bound_flag_is_usage_error():
    # a single suite rejects a bound it does not take instead of running at
    # its defaults
    proc = run("verify", "--suite", "stern", "--n-max", "3", "--format", "json")
    assert_usage_error(proc)
    assert "stern does not take --n-max (its bounds: --m-max)" in proc.stderr
    assert_usage_error(run("explore", "--conjecture", "conj61", "--m-max", "3"))
    assert_usage_error(run("explore", "--conjecture", "conj51", "--d-max", "3"))
    # desarmenien's bound on k*m + n is --n-max
    proc = run("verify", "--suite", "desarmenien", "--k-max", "2", "--n-max", "3",
               "--format", "json")
    assert proc.returncode == 0
    assert json_lines(proc.stdout)[-1]["checked"] == len(v.sweep_desarmenien(2, 3))
    # --suite all applies each flag to the suites that take it
    proc = run("verify", "--suite", "all", "--n-max", "2", "--m-max", "2",
               "--k-max", "1", "--d-max", "1", "--format", "json")
    assert proc.returncode == 0


# sha256 of stdout and the exit code at default bounds, pinned so that the
# output stays byte-identical across refactors
DEFAULT_OUTPUTS = {
    ("verify", "--suite", "all", "--format", "json"):
        ("afb8a50b008104034de40017d17e4724c75ec071dfa20f5188e808ea7eaa89b2", 1),
    ("verify", "--suite", "all"):
        ("41a5dd44eb4eb86f4bbb44125ddf70d64ca1e9d526cafc7a1b858a4fa2941358", 1),
    ("explore", "--conjecture", "conj51", "--format", "json"):
        ("5ea1cc50b1a0a5578731631d85fbdfb9443fbc7e5ce075e5583004f1895c79a1", 0),
    ("explore", "--conjecture", "conj61", "--format", "json"):
        ("c455b60911c44105c7df60cb74c3df9c9e1d55e08236f0dfd878adce569c81d6", 0),
}


def test_default_bound_outputs_are_pinned():
    for argv, (digest, code) in DEFAULT_OUTPUTS.items():
        proc = run(*argv)
        assert proc.returncode == code, argv
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, argv


GOLDEN = os.path.join(os.path.dirname(__file__), "..", "bench", "golden.json")


def test_benchmark_invocations_match_their_golden_record():
    # the benchmark times these invocations and rejects any whose exit code
    # or stdout differs from its golden record; a changed route fails here too
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 12
    for key, want in golden.items():
        proc = run(*key.split())
        assert proc.returncode == want["exit"], key
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want["sha256"], key


def test_record_shapes():
    shapes = {
        "congruence": (v.check_theorem1(2, 1, 1),
                       ["check", "params", "expected_equivalence",
                        "observed_congruence", "passed", "witness"]),
        "divisibility": (v.check_theorem2_power(3, 1),
                         ["check", "family", "index", "params", "divisor",
                          "passed", "witness"]),
        "identity": (v.check_lemma41(2), ["check", "params", "passed", "witness"]),
        "conjecture": (v.explore_conjecture61(1)[0],
                       ["conjecture", "params", "status", "witness"]),
    }
    for kind, (report, keys) in shapes.items():
        assert report.kind == kind
        assert list(report_record(report)) == keys


def test_import_loads_no_dataclasses_or_inspect():
    # interpreter start-up dominates short invocations
    code = ("import sys, qcong.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
