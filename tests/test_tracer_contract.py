"""What bench/tracer.py needs from the package: module-level memo tables it
can wrap and read, and a traced run with the plain run's output."""

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


def traced_counters(tmp_path, suite: str) -> dict:
    """Counters of a traced `verify --suite SUITE --n-max 4` run, after
    checking its stdout and exit code against the plain run's."""
    argv = ["verify", "--suite", suite, "--n-max", "4", "--format", "json"]
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
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    return json.loads(spans.read_text())["counters"]


def test_traced_run_matches_plain_run(tmp_path):
    counters = traced_counters(tmp_path, "eq23")
    assert counters["sequences.misses"] > 0
    assert counters["qbinom.gauss.misses"] > 0


def test_traced_foata_run_reads_tangent_by_its_name(tmp_path):
    # tangent comes from the q-Seidel triangle, which verify must reach
    # through the memoized family name the tracer wraps: one miss for each
    # of tangent(1..4) and salie(1..4)
    counters = traced_counters(tmp_path, "foata")
    assert counters["sequences.misses"] == 8
