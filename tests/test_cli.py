"""CLI contract: subcommands, exit codes, and exact machine output."""

import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from qcong import cli
from qcong import verify as v
from qcong.cli import report_record, report_text
from qcong.cyclotomic import FactoredPoly, cyclotomic
from qcong.divisors import DIVISOR_FAMILIES, big_p
from qcong.poly import IntPoly
from qcong.qbinom import gauss
from qcong.sequences import SEQUENCE_FAMILIES, euler, gen_euler, gen_euler_at_one

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


# compute argv -> the one-line refusal; the family refuses its own index,
# and --k is given exactly to gen-euler and gauss
COMPUTE_REFUSALS = {
    ("euler", "--n", "-1"): "euler: index must be nonnegative",
    ("gen-euler", "--n", "3", "--k", "0"): "gen-euler: family parameter must be positive",
    ("P", "--n", "0"): "P: index must be positive",
    ("Ev", "--n", "-4"): "Ev: index must be positive",
    ("cyclotomic", "--n", "0"): "cyclotomic: cyclotomic index must be positive",
    ("gauss", "--n", "-1", "--k", "2"): "gauss: upper index must be nonnegative",
    ("gauss", "--n", "4"): "gauss: --family gauss requires --k",
    ("Qtilde", "--n", "3", "--k", "1"): "Qtilde: --family Qtilde does not take --k",
}


def test_compute_refusals_come_from_the_family(capsys):
    for (family, *argv), message in COMPUTE_REFUSALS.items():
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--family", family, *argv])
        assert exc.value.code == 2, family
        out, err = capsys.readouterr()
        assert out == "", family
        usage, *_, line = err.splitlines()
        assert usage.startswith("usage: qcong compute ")
        assert line == f"qcong compute: error: {message}"


def test_compute_asks_each_family_for_its_largest_index_first(monkeypatch, capsys):
    for families, name, first in ((SEQUENCE_FAMILIES, "euler", 0), (DIVISOR_FAMILIES, "P", 1)):
        asked, family = [], families[name]

        def spy(i, family=family, asked=asked):
            asked.append(i)
            return family(i)

        monkeypatch.setitem(families, name, spy)
        assert cli.main(["compute", "--family", name, "--n", "5"]) == 0
        assert asked == [5, *range(first, 5)], name
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"{name} 5:")


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


def test_compute_does_not_read_the_env_cap():
    # compute has no sweep bound to cap, so even a malformed cap is not read
    plain = run("compute", "--family", "euler", "--n", "2")
    capped = run("compute", "--family", "euler", "--n", "2", env_extra={"QCONG_MAX_N": "x"})
    assert plain.returncode == capped.returncode == 0
    assert (capped.stdout, capped.stderr) == (plain.stdout, plain.stderr)


def test_out_file(tmp_path):
    target = tmp_path / "out.jsonl"
    proc = run("compute", "--family", "Qbar", "--n", "4", "--format", "json",
               "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert len(records) == 4


def test_block_writes_match_one_write(monkeypatch, capsys, tmp_path):
    # blocks of a few characters print what a single block prints, and an
    # --out file of many blocks holds exactly what stdout gets
    monkeypatch.delenv(cli.ENV_CAP, raising=False)
    target = tmp_path / "out.txt"
    for argv in (
        ("compute", "--family", "euler", "--n", "4"),
        ("compute", "--family", "P", "--n", "4"),
        ("verify", "--suite", "theorem51", "--k-max", "1", "--m-max", "4", "--d-max", "3"),
        ("explore", "--conjecture", "conj61", "--n-max", "4"),
    ):
        for fmt in ("text", "json"):
            argv_fmt = [*argv, "--format", fmt]
            monkeypatch.setattr(cli, "BLOCK_CHARS", 1 << 40)
            code = cli.main(argv_fmt)
            whole = capsys.readouterr().out
            monkeypatch.setattr(cli, "BLOCK_CHARS", 5)
            assert cli.main(argv_fmt) == code, argv_fmt
            assert capsys.readouterr().out == whole, argv_fmt
            assert cli.main([*argv_fmt, "--out", str(target)]) == code, argv_fmt
            assert capsys.readouterr().out == ""
            assert target.read_text(encoding="utf-8") == whole, argv_fmt
            assert whole.count("\n") > 2, argv_fmt


FAST_EXIT = """
import atexit, os, runpy, sys
atexit.register(os.write, 2, b"teardown ran\\n")
route, sys.argv[1:] = sys.argv[1], sys.argv[2:]
if route == "module":
    runpy.run_module("qcong", run_name="__main__", alter_sys=True)
else:
    from qcong.cli import console_entry
    console_entry()
"""


def test_entry_points_end_without_teardown(capsys):
    # `python -m qcong` and the `qcong` script flush and skip the atexit
    # hooks once main returns; a usage error still exits normally
    env = dict(os.environ)
    env.pop(cli.ENV_CAP, None)
    for argv in (
        ("compute", "--family", "euler", "--n", "30", "--format", "json"),
        ("verify", "--suite", "theorem51"),
    ):
        code = cli.main(list(argv))
        want = capsys.readouterr().out
        for route in ("module", "script"):
            proc = subprocess.run([sys.executable, "-c", FAST_EXIT, route, *argv],
                                  capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stderr) == (code, ""), (route, argv)
            assert proc.stdout == want, (route, argv)
    assert code == 1
    for route in ("module", "script"):
        proc = subprocess.run([sys.executable, "-c", FAST_EXIT, route, "verify"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.endswith("teardown ran\n")


def test_missing_subcommand_usage_error():
    proc = run()
    assert proc.returncode == 2


def assert_usage_error(proc):
    # argv is the interpreter, "-m qcong" or "-c" and a program, then the
    # command, whose own parser reports the error
    command = proc.args[3]
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith(f"qcong {command}: error: ")
    assert proc.stdout == ""


def test_enumeration_cap_is_usage_error():
    # both permutation suites state (2n)! prefixes of 2n letters as their
    # work, so n = 6 (12! * 12 steps) is refused and n = 5 admitted
    for suite in ("perm-euler", "perm-salie"):
        proc = run("verify", "--suite", suite, "--n-max", "6")
        assert_usage_error(proc)
        assert proc.stderr.splitlines()[-1] == (
            f"qcong verify: error: {suite}: enumerating the permutations of [12] would "
            "take more than the limit of 1,000,000,000 steps"
        )


# suite or conjecture -> bounds past its guard
PAST_THE_GUARD = {
    "theorem1": ("--m-max", "3000"),
    "lemma31": ("--m-max", "3000"),
    "corollary1": ("--m-max", "100000"),
    "desarmenien": ("--n-max", "3000"),
    "theorem2": ("--n-max", "3000"),
    "lemma41": ("--n-max", "3000"),
    "eq23": ("--n-max", "3000"),
    "eq24": ("--n-max", "3000"),
    "foata": ("--n-max", "3000"),
    "conj61": ("--n-max", "3000"),
    "theorem51": ("--k-max", "1", "--m-max", "3000"),
    "theorem52": ("--k-max", "2", "--m-max", "3000"),
    "corollary52": ("--k-max", "40", "--m-max", "3"),
    "conj51": ("--k-max", "40", "--m-max", "3"),
    "stern": ("--m-max", "40000"),
    "perm-euler": ("--n-max", "6"),
    "perm-salie": ("--n-max", "6"),
}


def test_every_suite_is_refused_before_its_first_report(monkeypatch, capsys):
    # every sweep and explorer asks for its largest value before it checks
    # anything, so a bound past a guard exits 2 with no Report built
    monkeypatch.delenv(cli.ENV_CAP, raising=False)
    built = []
    init = v.Report.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(v.Report, "__init__", counting_init)
    assert set(PAST_THE_GUARD) == {name for suites in v.SUITES.values() for name in suites}
    for command, suites in v.SUITES.items():
        option = "--suite" if command == "verify" else "--conjecture"
        for name in suites:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, option, name, *PAST_THE_GUARD[name]])
            assert exc.value.code == 2, name
            assert built == [], name
            out, err = capsys.readouterr()
            assert out == "", name
            assert err.splitlines()[-1].startswith(f"qcong {command}: error: {name}: "), name


def test_triangle_row_limit_is_usage_error():
    # the first two read row 400 of a q-Seidel triangle, a row of about 10 GB
    # and 3 GB; the largest index is asked first, so the guard answers before
    # any work.  A row shorter than one block has one-byte digits, so blocks
    # of 2^20 letters and more are refused, or row 0 read, without taking k!
    for argv, row in (
        (("compute", "--family", "euler", "--n", "200"), 401),
        (("compute", "--family", "gen-euler", "--k", "100", "--n", "4"), 401),
        (("compute", "--family", "gen-euler", "--k", "1048576", "--n", "1"), 2**20 + 1),
        (("verify", "--suite", "theorem52", "--k-max", "20", "--m-max", "1"), 2**20 + 1),
        (("verify", "--suite", "theorem52", "--k-max", "24", "--m-max", "1"), 2**24 + 1),
        (("verify", "--suite", "theorem52", "--k-max", "30", "--m-max", "2"), 2**31 + 1),
    ):
        start = time.perf_counter()
        proc = run_capped(*argv)
        assert time.perf_counter() - start < 1, argv
        assert_usage_error(proc)
        assert proc.stderr.splitlines()[-1] == (
            f"qcong {argv[0]}: error: {argv[2]}: row {row} of the q-Seidel triangle would "
            "take more than the limit of 1024 MB"
        )
    start = time.perf_counter()
    proc = run_capped("compute", "--family", "gen-euler", "--k", "4194304", "--n", "0")
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "gen-euler 0: 1\n", "")


LOWERED_ROW_LIMIT = """
import json, sys
from qcong import cli, poly, sequences
poly.MEMORY_LIMIT = 1 << 20
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
import json, sys
from qcong import cli, poly, qbinom
poly.MEMORY_LIMIT = 1 << 20
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print(json.dumps({"code": code, "cached": qbinom._gauss.cache_info().currsize}), file=sys.stderr)
"""


# Runs the CLI with its address space capped near 600 MB, so a request that
# slipped past the memory limit fails with a MemoryError traceback instead of
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
    # [2000 over 10] is 20 binomial passes over 19,901 coefficients of 74
    # bits, 112 bytes a coefficient: past a 1 MB limit it is refused before
    # any pass
    proc = subprocess.run(
        [sys.executable, "-c", LOWERED_SERIES_LIMIT,
         "compute", "--family", "gauss", "--n", "2000", "--k", "10"],
        capture_output=True, text=True,
    )
    assert proc.stdout == ""
    *_, message, result = proc.stderr.strip().splitlines()
    assert message == (
        "qcong compute: error: gauss: a degree-19900 series in 20 binomial pass(es) "
        "would take more than the limit of 1 MB"
    )
    assert json.loads(result) == {"code": 2, "cached": 0}
    # at the default limits: 2,000 passes over 10^6 coefficients, past the
    # work limit, and one pass over 10^9, past the memory limit
    for n, k in (("2000", "1000"), ("1000000000", "1")):
        assert_usage_error(run_capped("compute", "--family", "gauss", "--n", n, "--k", k))


def test_huge_cyclotomic_is_usage_error():
    # Phi_p of the prime p = 10^9 + 7 has 10^9 + 7 coefficients
    proc = run_capped("compute", "--family", "cyclotomic", "--n", "1000000007")
    assert_usage_error(proc)
    assert proc.stderr.strip().splitlines()[-1].startswith("qcong compute: error: cyclotomic: ")


def test_huge_cyclotomic_index_is_refused_before_factoring():
    # 2^61 - 1 is prime: trial division would take minutes, but a lower
    # bound on phi(n) is past the memory limit already
    start = time.perf_counter()
    proc = run_capped("compute", "--family", "cyclotomic", "--n", str(2**61 - 1))
    assert time.perf_counter() - start < 1
    assert_usage_error(proc)
    assert proc.stderr.strip().splitlines()[-1] == (
        "qcong compute: error: cyclotomic: a series of degree at least 319829862353704159 "
        "would take more than the limit of 1024 MB"
    )


def test_huge_binomial_products_are_refused_before_factoring():
    # each family is a product of binomials 1 + q^d of degree sum(d), whose
    # expansion, one pass per binomial, is past the memory limit here, so no
    # d is factored and no cyclotomic index is listed before the refusal;
    # a Gaussian binomial, 2n binomials 1 - q^c, is refused on its degree
    # before its steps are built or multiplied out at q = 1
    for family, bounds, degree, count in (
        ("Qtilde", "--n 20000", 200010000, 20000),
        ("Ev", "--n 100000000", 199609375, 9),
        ("P", "--n 200000", 13333334736, 200000),
        ("Qbar", "--n 200000", 13333530528, 199994),
        ("Qhat", "--n 200000", 13333530528, 199994),
        ("gauss", "--n 400000 --k 200000", 40000000000, 400000),
        ("gauss", "--n 100000000 --k 50000000", 2500000000000000, 100000000),
    ):
        start = time.perf_counter()
        proc = run_capped("compute", "--family", family, *bounds.split())
        assert time.perf_counter() - start < 1, family
        assert_usage_error(proc)
        assert proc.stderr.strip().splitlines()[-1] == (
            f"qcong compute: error: {family}: a degree-{degree} series in {count} binomial "
            "pass(es) would take more than the limit of 1024 MB"
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
    # P_700 is 700 binomial passes over 163,447 coefficients of 683 bits,
    # 1.26 * 10^9 word steps, past the work limit; asked for first, it is
    # refused before P_1 .. P_699 are built
    proc = run_capped("compute", "--family", "P", "--n", "700")
    assert_usage_error(proc)
    assert proc.stderr.strip().splitlines()[-1] == (
        "qcong compute: error: P: a degree-163446 series in 700 binomial pass(es) would "
        "take more than the limit of 1,000,000,000 steps"
    )
    # P_600 and Qtilde_400 are each under the limit, but the last record
    # states the work of all n, n times its own, before any is expanded
    for family, n, degree, passes in (("P", 600, 120042, 600), ("Qtilde", 400, 80200, 300)):
        start = time.perf_counter()
        proc = run_capped("compute", "--family", family, "--n", str(n))
        assert time.perf_counter() - start < 1, family
        assert_usage_error(proc)
        assert proc.stderr.strip().splitlines()[-1] == (
            f"qcong compute: error: {family}: {n} expansions, each about a degree-{degree} "
            f"series in {passes} binomial pass(es), would take more than the limit "
            "of 1,000,000,000 steps"
        )


# compute points of the q-Seidel triangle, then of the binomial series;
# compute sizes the rendering of its output too; then desarmenien's residue
# table.  gen_euler_at_one and the enumerations hold about a megabyte or less
# at every input they admit, too little to measure against a process's own
# size.  A compute point is named by its family and bounds.
CALIBRATION_POINTS = (
    ("compute", "--family", "euler", "--n", "45"),
    ("compute", "--family", "gen-euler", "--k", "16", "--n", "7"),
    ("compute", "--family", "salie", "--n", "40"),
    ("compute", "--family", "gauss", "--n", "150000", "--k", "2"),
    ("compute", "--family", "gauss", "--n", "700", "--k", "100"),
    ("compute", "--family", "cyclotomic", "--n", "500009"),
    ("verify", "--suite", "desarmenien", "--k-max", "2000", "--n-max", "1"),
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize(
    "argv", CALIBRATION_POINTS, ids=lambda argv: " ".join(argv).removeprefix("compute --family ")
)
def test_size_estimates_bound_each_builders_peak(argv):
    # the largest peak estimate a run states is at least what the run adds
    # to a bare process's peak, and at most 4 times it
    bare, _ = oracles.child_peak("compute", "--family", "cyclotomic", "--n", "1")
    peak, estimates = oracles.child_peak(*argv)
    own = peak - bare
    assert own < 200 << 20
    assert own <= max(estimates) <= 4 * own, (own, estimates)


def test_compute_admits_a_divisor_family_that_fits():
    # the records of P_1 .. P_175 state 175 times the 5.4 * 10^6 word steps
    # of P_175, under the work limit (P_180 is past it); the other 174
    # records are made as they are rendered, so compute holds two
    args = cli.build_parser().parse_args(["compute", "--family", "P", "--n", "175"])
    records = cli._compute_records(args)
    assert next(records)[1] == "P 1: Phi_2 ="


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_compute_weighs_each_coefficient_it_renders(fmt):
    # Ev's coefficients fit one word, but each costs about 80 ns to build
    # and render: Ev 16384, 16384 records of up to 32768 coefficients, would
    # run for minutes and write gigabytes of JSON (the timeout ends it)
    start = time.perf_counter()
    proc = subprocess.run(CMD + ["compute", "--family", "Ev", "--n", "16384", "--format", fmt],
                          capture_output=True, text=True, timeout=2)
    assert time.perf_counter() - start < 1
    assert_usage_error(proc)
    assert proc.stderr.strip().splitlines()[-1] == (
        "qcong compute: error: Ev: rendering 16384 record(s) of up to 32768 coefficients "
        "would take more than the limit of 1,000,000,000 steps"
    )


@pytest.mark.parametrize("argv", (
    ("Ev", "--n", "4000"),
    ("Qtilde", "--n", "150"),
    ("euler", "--n", "60"),
    ("gen-euler", "--k", "4", "--n", "20"),
), ids=" ".join)
def test_compute_admits_a_rendering_that_fits(argv):
    # each takes 0.2-3 s in all, as P 175 above; its last record is made
    # and sized at once
    args = cli.build_parser().parse_args(["compute", "--family", *argv])
    assert next(cli._compute_records(args))


def assert_refused_before_any_check(*argv):
    # with a 1 MB memory limit the run's largest value is refused; it is
    # asked for first, so no family value is built or cached before exit 2
    proc = subprocess.run(
        [sys.executable, "-c", LOWERED_ROW_LIMIT, *argv],
        capture_output=True, text=True,
    )
    assert proc.stdout == "", argv
    assert "q-Seidel triangle would take more than the limit of 1 MB" in proc.stderr, argv
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
            f"qcong verify: error: {argv[0]}: row {row} of the q-Seidel triangle would "
            "take more than the limit of 1024 MB"
        )


def test_q_at_one_sweeps_meet_the_subscript_limit_at_once():
    # C(2^40 * 3, 2^40 * j) would run for hours; the values of stern at
    # m_max = 40000 would take gigabytes, and its products at m_max = 2000
    # about 2 * 10^10 word steps, minutes
    huge, memory, work = "E^(1099511627776)_3298534883328(1)", "1024 MB", "1,000,000,000 steps"
    for argv, value, limit in (
        (("verify", "--suite", "corollary52", "--k-max", "40", "--m-max", "3"), huge, memory),
        (("explore", "--conjecture", "conj51", "--k-max", "40", "--m-max", "3"), huge, memory),
        (("verify", "--suite", "stern", "--m-max", "40000"), "E^(2)_80000(1)", memory),
        (("verify", "--suite", "stern", "--m-max", "2000"), "E^(2)_4000(1)", work),
    ):
        start = time.perf_counter()
        proc = run_capped(*argv)
        assert time.perf_counter() - start < 1
        assert_usage_error(proc)
        assert proc.stderr.strip().splitlines()[-1] == (
            f"qcong {argv[0]}: error: {argv[2]}: {value} would take more than the limit of {limit}"
        )


def test_power_of_two_blocks_are_refused_before_2_to_the_k_is_written_out():
    # 2^3000000 has 903,090 decimal digits: when it was written into the
    # refusal, and squared and cubed for the size estimates, each of these
    # took 13-27 s and wrote a last line of 1-2 MB
    for argv in (
        ("verify", "--suite", "corollary52"),
        ("verify", "--suite", "theorem52"),
        ("explore", "--conjecture", "conj51"),
    ):
        start = time.perf_counter()
        proc = run_capped(*argv, "--k-max", "3000000", "--m-max", "2")
        assert time.perf_counter() - start < 1, argv
        assert_usage_error(proc)
        last = proc.stderr.strip().splitlines()[-1]
        assert len(last) < 200
        assert last == (
            f"qcong {argv[0]}: error: {argv[2]}: each value of E^(2^3000000) past index 0 "
            "would take more than the limit of 1024 MB"
        )


def test_desarmenien_states_its_residue_table_before_any_check():
    # every index up to n_max is folded modulo 1 + q^k for every k <= k_max:
    # at k_max = 20000 that is gigabytes of residue slots, however small n_max
    for k_max, n_max, values in (("20000", "1", 2), ("5000", "3", 4)):
        start = time.perf_counter()
        proc = run_capped("verify", "--suite", "desarmenien", "--k-max", k_max, "--n-max", n_max)
        assert time.perf_counter() - start < 1
        assert_usage_error(proc)
        assert proc.stderr.strip().splitlines()[-1] == (
            f"qcong verify: error: desarmenien: the residues of {values} value(s) modulo "
            f"1 + q^k for each k <= {k_max} would take more than the limit of 1024 MB"
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


# A child's prelude that counts the advances of each triangle it builds.
COUNTING_ADVANCES = """
import collections, json, os, sys
from qcong import cli, sequences, verify
advance = sequences._Triangle._advance
advances = collections.Counter()

def counting(self, stop):
    advances[id(self)] += 1
    advance(self, stop)

sequences._Triangle._advance = counting
"""
# Runs every suite at its default bounds, each in a child forked before any
# value is built, and prints how many times each triangle advanced.
ADVANCES_PER_SUITE = COUNTING_ADVANCES + """
for suites in verify.SUITES.values():
    for name, sweep in suites.items():
        if os.fork() == 0:
            sweep()
            print(name, *sorted(advances.values()), flush=True)
            os._exit(0)
        os.wait()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child per suite")
def test_each_default_suite_advances_each_triangle_once():
    # every suite asks first for the last row of each triangle it reads, so
    # no triangle steps again
    proc = subprocess.run(
        [sys.executable, "-c", ADVANCES_PER_SUITE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    advances = {name: counts for name, *counts in map(str.split, proc.stdout.splitlines())}
    assert set(advances) == {name for suites in v.SUITES.values() for name in suites}
    for name, counts in advances.items():
        assert counts == ["1"] * len(counts), name
    assert advances["theorem51"] == ["1"] * 3 and advances["theorem52"] == ["1"] * 2


# Runs each verify and explore invocation the benchmark times, each in a
# forked child with stdout to /dev/null, and prints its advances as JSON.
ADVANCES_PER_BENCHMARK_INVOCATION = COUNTING_ADVANCES + """
with open(sys.argv[1]) as fh:
    keys = [key for key in json.load(fh) if key.split()[0] in ("verify", "explore")]
for key in keys:
    if os.fork() == 0:
        report, sys.stdout = sys.stdout, open(os.devnull, "w")
        cli.main(key.split())
        print(json.dumps([key, sorted(advances.values())]), file=report, flush=True)
        os._exit(0)
    os.wait()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child per invocation")
def test_each_benchmark_invocation_advances_each_triangle_once():
    # each verify and explore run the benchmark times asks first for the last
    # row of each triangle it reads, so none builds a triangle twice
    proc = subprocess.run(
        [sys.executable, "-c", ADVANCES_PER_BENCHMARK_INVOCATION, GOLDEN],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    advances = dict(map(json.loads, proc.stdout.splitlines()))
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert set(advances) == {key for key in golden if not key.startswith("compute ")}
    for key, counts in advances.items():
        assert counts == [1] * len(counts), key
    assert any(advances.values())


def test_theorem52_at_k_max_4_runs_under_the_row_limit():
    # the 2^4 family reads row 128 of the k = 16 triangle (about 100 MB);
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
    # an explorer with no instance is refused as an empty sweep is
    for argv in (("conj61", "--n-max", "0"), ("conj51", "--k-max", "0")):
        proc = run("explore", "--conjecture", *argv)
        assert_usage_error(proc)
        assert proc.stderr.endswith("\nqcong explore: error: no instances within these bounds\n")


@pytest.mark.parametrize("target", ("closed-pipe", "dev-full"))
def test_failed_stdout_write_is_usage_error(target):
    # a reader that has gone and a full device exit 2 with the usage line
    # and one error line, as an unwritable --out does; no traceback
    if target == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
        reason = os.strerror(errno.EPIPE)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
        reason = os.strerror(errno.ENOSPC)
    env = dict(os.environ)
    env.pop(cli.ENV_CAP, None)
    try:
        proc = subprocess.run(CMD + ["verify", "--suite", "stern", "--m-max", "2"],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(stdout)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    usage, *_, error = proc.stderr.splitlines()
    assert usage.startswith("usage: qcong verify ")
    assert error == f"qcong verify: error: cannot write stdout: {reason}"


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
    # of two foreign flags, the one named is the first the suites take,
    # whatever their order on the command line
    proc = run("verify", "--suite", "stern", "--n-max", "3", "--k-max", "2")
    assert_usage_error(proc)
    assert proc.stderr.strip().splitlines()[-1] == (
        "qcong verify: error: stern does not take --k-max (its bounds: --m-max)"
    )
    assert_usage_error(run("explore", "--conjecture", "conj61", "--m-max", "3"))
    # no explorer takes --d-max, so explore has no such flag: argparse refuses
    # it, and reports it through the top-level parser
    proc = run("explore", "--conjecture", "conj51", "--d-max", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("\nqcong: error: unrecognized arguments: --d-max 3\n")
    # desarmenien's bound on k*m + n is --n-max
    proc = run("verify", "--suite", "desarmenien", "--k-max", "2", "--n-max", "3",
               "--format", "json")
    assert proc.returncode == 0
    assert json_lines(proc.stdout)[-1]["checked"] == len(v.sweep_desarmenien(2, 3))
    # --suite all applies each flag to the suites that take it
    proc = run("verify", "--suite", "all", "--n-max", "2", "--m-max", "2",
               "--k-max", "1", "--d-max", "1", "--format", "json")
    assert proc.returncode == 0


def test_usage_errors_are_the_same_on_both_argv_routes(monkeypatch, capsys, tmp_path):
    # an argv read without argparse builds the parser only to refuse, and
    # prints what the argparse route prints, byte for byte
    def refusal(argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    for argv, cap in (
        (("verify", "--suite", "stern", "--n-max", "3", "--k-max", "2"), None),
        (("verify", "--suite", "lemma41"), "x"),
        (("verify", "--suite", "theorem2", "--n-max", "0"), None),
        (("compute", "--family", "euler", "--n", "3", "--k", "2"), None),
        (("compute", "--family", "Ev", "--n", "16384", "--format", "json"), None),
        (("verify", "--suite", "stern", "--m-max", "2", "--out", str(tmp_path)), None),
    ):
        if cap is None:
            monkeypatch.delenv(cli.ENV_CAP, raising=False)
        else:
            monkeypatch.setenv(cli.ENV_CAP, cap)
        assert cli._read_args(list(argv)) is not None, argv
        fast = refusal(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_args", lambda argv: None)
            assert refusal(argv) == fast, argv
        code, out, err = fast
        # the command's usage lines and error prefix, as argparse prints them
        # for an error of its own inside the command
        prefix = f"qcong {argv[0]}: error: "
        _, _, own = refusal((argv[0], "--format", "x"))
        usage = own[: own.index(prefix)]
        assert usage.startswith(f"usage: qcong {argv[0]} [-h] --"), argv
        assert (code, out) == (2, ""), argv
        assert err.startswith(usage + prefix) and err.count("\n") == usage.count("\n") + 1, argv


# Tokens of the argv grammar the flag reader is checked on against argparse:
# spellings argparse reads or refuses its own way, and values that int()
# reads but that are not plain digits.
ODD_FLAGS = ("--m-m", "--fam", "--m-max=3", "--m_max", "--bogus", "--", "-h", "--help")
ODD_VALUES = ("-3", "-h", "--", "1_0", "３", " 7", "", "x")
EVERY_FLAG = tuple({flag: None for _, options in cli.COMMANDS.values() for flag in options})


def _usual_values(kind):
    return ("0", "3", "12") if kind is int else kind if isinstance(kind, tuple) else ("out.txt",)


@st.composite
def argvs(draw):
    """(argv, whether it is well formed): a command, its required flags or
    not, then flag and value pairs; each token drawn from the usual ones
    three times in four, else from the odd ones."""
    usual = True

    def token(common, odd):
        nonlocal usual
        if draw(st.integers(0, 3)):
            return draw(st.sampled_from(common))
        usual = False
        return draw(st.sampled_from(odd))

    command = token(tuple(cli.COMMANDS), ("comp", "-h", "--help", "--"))
    options = cli.COMMANDS[command][1] if command in cli.COMMANDS else {}
    with_required = draw(st.booleans())
    pairs = [(flag, draw(st.sampled_from(_usual_values(kind))))
             for flag, (_, kind, default, _) in options.items()
             if with_required and default is cli._REQUIRED]
    for _ in range(draw(st.integers(0, 3))):
        flag = token(tuple(options) or EVERY_FLAG, EVERY_FLAG + ODD_FLAGS)
        pairs.append((flag, token(_usual_values(options[flag][1] if flag in options else int),
                                  ODD_VALUES)))
    usual = usual and with_required and len({flag for flag, _ in pairs}) == len(pairs)
    argv = [command, *itertools.chain.from_iterable(draw(st.permutations(pairs)))]
    if draw(st.integers(0, 3)) == 0:  # an extra token, or a flag with no value
        usual = False
        where = draw(st.just(len(argv)) | st.integers(1, len(argv)))
        argv.insert(where, draw(st.sampled_from(ODD_FLAGS + ODD_VALUES)))
    return argv, usual


@given(argvs())
@example((["verify", "--suite", "stern", "--m_max", "3"], False))
@example((["verify", "--suite", "stern", "--m-max", "3", "--m-max", "4"], False))
@example((["verify", "--suite", "stern", "--m-max"], False))
@example((["compute", "--family", "euler", "--n", "3", "--out", "-h"], False))
@settings(max_examples=300, deadline=None)
def test_flag_reader_agrees_with_argparse(drawn):
    # whenever the reader returns a namespace, argparse parses argv to the
    # same attributes; whenever argparse exits, the reader returns None; and
    # every well-formed argv is read
    argv, well_formed = drawn
    fast = cli._read_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        parsed = None
    if fast is not None:
        assert vars(fast) == parsed, argv
    assert fast is not None or not well_formed, argv


# sha256 of stdout and the exit code at default bounds, and of compute for
# six families, pinned so that the output stays byte-identical across
# refactors
DEFAULT_OUTPUTS = {
    ("verify", "--suite", "all", "--format", "json"):
        ("afb8a50b008104034de40017d17e4724c75ec071dfa20f5188e808ea7eaa89b2", 1),
    ("verify", "--suite", "all"):
        ("41a5dd44eb4eb86f4bbb44125ddf70d64ca1e9d526cafc7a1b858a4fa2941358", 1),
    ("explore", "--conjecture", "conj51", "--format", "json"):
        ("5ea1cc50b1a0a5578731631d85fbdfb9443fbc7e5ce075e5583004f1895c79a1", 0),
    ("explore", "--conjecture", "conj61", "--format", "json"):
        ("c455b60911c44105c7df60cb74c3df9c9e1d55e08236f0dfd878adce569c81d6", 0),
    ("compute", "--family", "euler", "--n", "12"):
        ("bf44f58da282d783836bd6ed4a6a90651be0d88374c71db45523c0b3f9c9983b", 0),
    ("compute", "--family", "euler", "--n", "12", "--format", "json"):
        ("e0e8902f4ba8c0a1bdd9534fe6fb9b87ff490d1fb9a54ef83015caf43bb1da4b", 0),
    ("compute", "--family", "gen-euler", "--k", "3", "--n", "8"):
        ("64b2547a962d0dd91dd70aa76f0532c59a1107649d5b5863d1160b26d8c18eb8", 0),
    ("compute", "--family", "gen-euler", "--k", "3", "--n", "8", "--format", "json"):
        ("4fe275ae73e5076a565d2a36af4f418dce1f69eeec27ac2773ebda26e67bb7dc", 0),
    ("compute", "--family", "P", "--n", "12"):
        ("75b5bcc25bab7523c28aabd7077d8c9371bcc734f51ac49f5c2f27623d8b41c7", 0),
    ("compute", "--family", "P", "--n", "12", "--format", "json"):
        ("4599407b85532b88232f024db221167c5962c6ecbc3cc77e75fc9c173a53ead0", 0),
    ("compute", "--family", "Qtilde", "--n", "10"):
        ("b99c9782d72c61fd5d28ac105ec922189b4073c66a1fe9f4d0ca6feba4a6cb82", 0),
    ("compute", "--family", "Qtilde", "--n", "10", "--format", "json"):
        ("47aee58186328aea15a9cb162d68345e07010f946db4d47b23c41b23ad7803f4", 0),
    ("compute", "--family", "cyclotomic", "--n", "105"):
        ("c0572b762e3f1a96f7d9bdb4b79d978a542e708c6095a00109a33ce5317c41db", 0),
    ("compute", "--family", "cyclotomic", "--n", "105", "--format", "json"):
        ("9fd9962a779db2712c51beedfe505babbc1bb73698851de868d354a9d95c3825", 0),
    ("compute", "--family", "gauss", "--n", "14", "--k", "5"):
        ("b1664327091a871cebb90895f144610bebda2ee9089c06517a4d92e770859ff8", 0),
    ("compute", "--family", "gauss", "--n", "14", "--k", "5", "--format", "json"):
        ("ad53eacad9aa3756d0d9d68b67bd93c2aba5fab146bf78b6f79fb79b974cf1d1", 0),
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
        assert list(json.loads(report_record(report))) == keys


# report fields as the checks make them: 200-bit coefficients of either sign,
# zero witnesses, int witnesses (stern's -1), divisor exponents above 1
coeff = st.integers(-(1 << 200), 1 << 200)
polys = st.lists(coeff, max_size=6).map(IntPoly)
int_params = st.dictionaries(st.sampled_from("kmndsr"), st.integers(-1, 10**6), max_size=4)
checks = st.sampled_from(["theorem1", "theorem2-power", "salie-unit-power", "perm-euler"])
divisors = st.dictionaries(st.integers(1, 5000), st.integers(0, 40), max_size=5)


@st.composite
def reports(draw):
    passed, witness = draw(st.booleans()), draw(polys)
    kind = draw(st.sampled_from(["congruence", "divisibility", "identity", "conjecture"]))
    if kind == "congruence":
        expected, observed = draw(st.booleans()), draw(st.booleans())
        return v.Report(kind, draw(checks), draw(int_params), expected == observed, witness,
                        expected_equivalence=expected, observed_congruence=observed)
    if kind == "divisibility":
        fields = {
            "family": draw(st.sampled_from(sorted(SEQUENCE_FAMILIES))),
            "index": draw(st.integers(0, 10**6)),
            "divisor": FactoredPoly(draw(divisors)),
        }
        return v.Report(kind, draw(checks), draw(int_params), passed, witness, **fields)
    if kind == "identity":
        return v.Report(kind, draw(checks), draw(int_params), passed, witness)
    if draw(st.booleans()):
        params = {"variant": draw(st.sampled_from(["bar", "hat", "tilde"])), "n": 1}
        return v.Report(kind, "conj61", params, passed, witness)
    name = draw(st.sampled_from(["stern", "corollary52", "conj51"]))
    return v.Report(kind, name, draw(int_params), passed, draw(st.one_of(coeff, polys)))


@given(reports())
def test_report_line_is_the_json_of_its_record(report):
    assert report_record(report) == json.dumps(oracles.report_dict(report))


@given(reports())
def test_report_text_matches_the_oracle(report):
    assert report_text(report) == oracles.report_text(report)


def assert_compute_json(capsys, records, *argv):
    """compute's JSON lines for argv are json.dumps of the oracle's records."""
    assert cli.main(["compute", *argv, "--format", "json"]) == 0
    assert capsys.readouterr().out.splitlines() == [json.dumps(r) for r in records]


def test_compute_line_is_the_json_of_its_record(capsys):
    for fam, build in DIVISOR_FAMILIES.items():
        records = [oracles.compute_dict(fam, i, build(i).expand(), divisor=build(i))
                   for i in range(1, 9)]
        assert_compute_json(capsys, records, "--family", fam, "--n", "8")
    for fam, build in SEQUENCE_FAMILIES.items():
        if fam != "gen-euler":
            records = [oracles.compute_dict(fam, i, build(i)) for i in range(9)]
            assert_compute_json(capsys, records, "--family", fam, "--n", "8")
    for k in range(1, 5):
        records = [oracles.compute_dict("gen-euler", i, gen_euler(k, i), k=k) for i in range(9)]
        assert_compute_json(capsys, records, "--family", "gen-euler", "--k", str(k), "--n", "8")
    for n in range(9):
        if n:
            records = [oracles.compute_dict("cyclotomic", n, cyclotomic(n))]
            assert_compute_json(capsys, records, "--family", "cyclotomic", "--n", str(n))
        for k in range(n + 2):
            records = [oracles.compute_dict("gauss", n, gauss(n, k), k=k)]
            assert_compute_json(capsys, records, "--family", "gauss", "--n", str(n), "--k", str(k))


def test_summary_line_is_the_json_of_its_counts(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_CAP, "3")
    runs = [("verify", "suite", name) for name in (*v.SUITES["verify"], "all")]
    runs += [("explore", "conjecture", name) for name in v.SUITES["explore"]]
    for command, option, name in runs:
        reports = []
        for each in v.SUITES[command] if name == "all" else (name,):
            bounds = cli.BOUNDS[command][each]
            capped = {b: None if d is None else min(d, 3) for b, d in bounds.items()}
            reports += v.SUITES[command][each](**capped)
        checked = len(reports)
        passed = sum(r.passed for r in reports)
        failed = checked - passed
        code = cli.main([command, f"--{option}", name, "--format", "json"])
        assert code == (1 if command == "verify" and failed else 0), name
        want = {option: name, "checked": checked, "passed": passed, "failed": failed}
        assert capsys.readouterr().out.splitlines()[-1] == json.dumps(want)


def test_every_default_output_line_is_canonical_json():
    for argv in (
        ("verify", "--suite", "all"),
        ("explore", "--conjecture", "conj51"),
        ("explore", "--conjecture", "conj61"),
    ):
        proc = run(*argv, "--format", "json")
        assert proc.returncode == (1 if argv[0] == "verify" else 0), argv
        for line in proc.stdout.splitlines():
            assert json.dumps(json.loads(line)) == line, line[:200]


def test_import_loads_no_dataclasses_or_inspect():
    # interpreter start-up dominates short invocations
    code = ("import sys, qcong.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the modules bench/tracer.py indexes when it wraps each layer
TRACED_MODULES = {f"qcong.{m}" for m in
                  ("poly", "qbinom", "sequences", "cyclotomic", "residues", "verify", "cli")}
STARTUP = """
import sys
from qcong import cli
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0, argv
sys.stderr.write(" ".join(sys.modules))
"""


def test_startup_imports_only_what_a_decision_uses():
    # without site hooks, every module qcong imports is one the process pays for
    src = os.path.join(os.path.dirname(__file__), "..", "src")

    def loaded(*argvs):
        proc = subprocess.run([sys.executable, "-S", "-c", STARTUP, *argvs],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.split())

    modules = loaded("verify --suite stern --m-max 4 --format json",
                     "explore --conjecture conj61 --n-max 3 --format json",
                     "compute --family P --n 3 --format json")
    # a well-formed argv is read without argparse, and so without gettext
    # and the locale module its first message lookup imports
    assert not {"json", "typing", "__future__", "qcong.perms",
                "argparse", "gettext", "locale"} & modules
    assert TRACED_MODULES <= modules
    assert "qcong.perms" in loaded("verify --suite perm-euler --format json")
    # argparse still reads every other argv and prints its own text
    proc = run("verify", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: qcong verify [-h] --suite")
    assert "write output to FILE instead of stdout" in proc.stdout
    proc = run("verify", "--suite", "stern", "--m_max", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("usage: qcong [-h] {compute,verify,explore} ...\n"
                           "qcong: error: unrecognized arguments: --m_max 3\n")
