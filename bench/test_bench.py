"""Tests of the benchmark itself: the golden check, the tracer and its counters.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402

# A few seconds of work that reaches every traced layer, including a suite
# that exits 1 (theorem51's k=1 slice fails at m=3 by design).
TINY = (
    ("verify", "--suite", "theorem1", "--m-max", "5", "--format", "json"),
    ("verify", "--suite", "theorem51", "--k-max", "2", "--m-max", "4", "--format", "json"),
    ("verify", "--suite", "foata", "--n-max", "5", "--format", "json"),
    ("explore", "--conjecture", "conj51", "--k-max", "2", "--m-max", "4", "--format", "json"),
)


@pytest.fixture(scope="module", autouse=True)
def work_dir():
    bench.WORK.mkdir(parents=True, exist_ok=True)


@pytest.fixture(scope="module")
def plain() -> dict:
    return {argv: bench.run_invocation(argv) for argv in TINY}


@pytest.fixture(scope="module")
def golden(plain) -> dict:
    return {bench.key(argv): o.record() for argv, o in plain.items()}


def traced_run(argv, tmp_path: Path):
    spans = tmp_path / "spans.json"
    outcome = bench.run_invocation(argv, spans)
    with open(spans, encoding="utf-8") as fh:
        return outcome, json.load(fh)


def test_golden_record_covers_every_invocation():
    golden = bench.preflight()
    wanted = {bench.key(bench.SETUP)} | {bench.key(a) for inv in bench.WORKLOADS.values() for a in inv}
    assert wanted <= set(golden)


def test_setup_probe_matches_golden_record():
    outcome = bench.run_invocation(bench.SETUP)
    assert bench.mismatch(outcome, bench.preflight()) is None


def test_tampered_digest_is_caught(plain, golden):
    argv = TINY[0]
    assert bench.mismatch(plain[argv], golden) is None

    tampered = {k: dict(v) for k, v in golden.items()}
    tampered[bench.key(argv)]["sha256"] = "0" * 64
    assert bench.mismatch(plain[argv], tampered) == "sha256 differ"

    runner = bench.Runner(tampered)
    runner.invoke(argv)
    runner.invoke(TINY[1])
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "sha256" in runner.failures[0]
    assert not runner.correct


def test_expected_theorem51_failure_is_not_a_failed_op(plain, golden):
    outcome = plain[TINY[1]]
    assert outcome.exit_code == 1
    assert bench.mismatch(outcome, golden) is None


@pytest.mark.parametrize("argv", TINY, ids=lambda a: a[2])
def test_tracing_keeps_output_and_self_times_add_up(argv, plain, tmp_path):
    outcome, data = traced_run(argv, tmp_path)
    assert outcome.record() == plain[argv].record()

    roots = [s for s in data["spans"] if s[1] < 0]
    assert [s[0] for s in roots] == [tr.ROOT]
    root_s = (roots[0][3] - roots[0][2]) / 1e9
    assert sum(tr.self_times(data["spans"]).values()) == pytest.approx(root_s, abs=1e-6)
    assert all(v >= 0 for v in tr.self_times(data["spans"]).values())


def test_traced_counts_repeat_exactly(golden):
    runner = bench.Runner(golden)
    first, second = (runner.run_pass(TINY, random.Random(seed), traced=True) for seed in (1, 2))
    assert runner.correct
    a, b = bench.layer_metrics(first), bench.layer_metrics(second)
    assert set(a) == set(bench.PER_LAYER) - {"trace.overhead_ratio"}
    assert bench.count_metrics(a) == bench.count_metrics(b)
    for name in ("poly.mul.calls", "poly.divmod.steps", "cyclotomic.divides.calls",
                 "residues.inject.calls", "sequences.values_generated"):
        assert a[name] > 0, name
    assert a["verify.checks"] == first.decisions


def test_times_are_rescaled_by_the_adjacent_reference(golden):
    runner = bench.Runner(golden)
    outcome = runner.invoke(bench.SETUP)
    before, after = runner.references
    assert outcome.scaled_s == pytest.approx(outcome.wall_s * 2 * bench.REF_NOMINAL_S / (before + after))


def test_warm_memo_cache_is_refused():
    sys.path.insert(0, str(bench.SRC))
    caches = tr.memo_caches(tr.qcong_modules().values())
    assert "qcong.qbinom._gauss" in caches and "qcong.sequences.euler" in caches
    try:
        for fn in caches.values():
            fn.cache_clear()
        tr.check_cold(caches)
        caches["qcong.sequences.euler"](2)
        with pytest.raises(tr.WarmCacheError):
            tr.check_cold(caches)
    finally:
        for fn in caches.values():
            fn.cache_clear()


def test_seed_permutes_invocation_order():
    invocations = bench.WORKLOADS["congruence"]
    orders = [tuple(bench.pass_order(invocations, random.Random(seed))) for seed in range(8)]
    assert all(sorted(o) == sorted(invocations) for o in orders)
    assert len(set(orders)) > 1
    assert orders[3] == tuple(bench.pass_order(invocations, random.Random(3)))


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "congruence", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_metric_tables():
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
