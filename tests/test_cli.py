"""CLI contract: subcommands, exit codes, and exact machine output."""

import hashlib
import json
import os
import subprocess
import sys

from qcong import verify as v
from qcong.cli import report_record
from qcong.divisors import big_p
from qcong.perms import ENUMERATION_CAP
from qcong.poly import IntPoly
from qcong.sequences import euler, gen_euler

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
