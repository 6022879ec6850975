"""CLI contract: subcommands, exit codes, and exact machine output."""

import json
import os
import subprocess
import sys

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
