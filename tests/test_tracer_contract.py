"""What bench/tracer.py needs from the package: module-level memo tables it
can wrap and read, and a traced run with the plain run's output."""

import collections
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from qcong import qbinom, sequences

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qcong_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_module_level_memo_tables():
    tracer = load_tracer()
    caches = tracer.memo_caches([sequences, qbinom])
    for name in tracer.SEQUENCE_FUNCTIONS:
        fn = getattr(sequences, name)
        assert caches.get(f"qcong.sequences.{name}") is fn, name
        assert fn.cache_parameters()["maxsize"] is None, name
    assert caches.get("qcong.qbinom._gauss") is qbinom._gauss
    assert set(tracer.cache_counts(caches)) == {
        "qbinom.gauss.hits",
        "qbinom.gauss.misses",
        "sequences.hits",
        "sequences.misses",
    }


def traced_run(tmp_path, *argv: str, code: int = 0) -> dict:
    """Spans and counters of a traced `qcong ARGV --format json` run, after
    checking its stdout and exit code against the plain run's and `code`."""
    argv = [*argv, "--format", "json"]
    env = dict(os.environ)
    env.pop("QCONG_MAX_N", None)
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(spans)] + argv,
        capture_output=True, text=True, env=env,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "qcong"] + argv, capture_output=True, text=True, env=env
    )
    assert traced.returncode == plain.returncode == code, traced.stderr
    assert traced.stdout == plain.stdout
    return json.loads(spans.read_text())


def traced_counters(tmp_path, *argv: str) -> dict:
    return traced_run(tmp_path, *argv)["counters"]


def test_traced_run_matches_plain_run(tmp_path):
    counters = traced_counters(tmp_path, "verify", "--suite", "eq23", "--n-max", "4")
    assert counters["sequences.misses"] > 0
    assert counters["qbinom.gauss.misses"] > 0


def test_traced_foata_run_reads_tangent_by_its_name(tmp_path):
    # tangent comes from the q-Seidel triangle, which verify must reach
    # through the memoized family name the tracer wraps: one miss for each
    # of tangent(1..4) and salie(1..4)
    counters = traced_counters(tmp_path, "verify", "--suite", "foata", "--n-max", "4")
    assert counters["sequences.misses"] == 8


def test_traced_congruence_run_touches_no_gaussian_binomial(tmp_path):
    # every generalized Euler value, the 2^k families of theorem52
    # included, is read from a q-Seidel triangle
    counters = traced_counters(
        tmp_path, "verify", "--suite", "theorem52", "--k-max", "2", "--m-max", "5"
    )
    assert counters["sequences.misses"] > 0
    assert counters["qbinom.gauss.misses"] == 0


def test_traced_theorem51_run_keeps_the_benchmark_layers(tmp_path):
    # of the tiny pass of bench/test_bench.py, only theorem51 reduces modulo
    # Phi_m or takes a product: each check reduces its values through
    # residues.inject and takes one IntPoly product (its k = 1 slice fails
    # at m = 3 by design, so the run exits 1)
    data = traced_run(
        tmp_path, "verify", "--suite", "theorem51", "--k-max", "2", "--m-max", "4", code=1
    )
    calls = collections.Counter(span[0] for span in data["spans"])
    tracer = load_tracer()
    checks = data["counters"]["verify.checks"]
    assert checks == 2 * (1 + 4 + 9 + 16)
    assert calls[tracer.INJECT] > 0
    assert calls[tracer.MUL] == checks


def test_traced_root_of_unity_runs_count_every_remainder_as_an_injection(tmp_path):
    # every remainder modulo Phi_m is one residues.inject, so lemma31 and
    # desarmenien, modulo Phi_2d and Phi_2k, show one injection per division
    tracer = load_tracer()
    for argv in (
        ("verify", "--suite", "lemma31", "--m-max", "6"),
        ("verify", "--suite", "desarmenien", "--k-max", "3", "--n-max", "6"),
    ):
        calls = collections.Counter(span[0] for span in traced_run(tmp_path, *argv)["spans"])
        assert calls[tracer.INJECT] == calls[tracer.DIVMOD] > 0, argv
