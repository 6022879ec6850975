"""Closed-loop benchmark of the `qcong` command line.

One client runs a workload's invocations one after another, each as a fresh
`python -m qcong ... --format json` process started only after the previous
one has exited, so every invocation starts with cold memo caches, as it does
for a user.  A pass is one run of every invocation of the workload, in an
order drawn from the seed.  Passes repeat until the measuring time is spent.

    python3 bench/run.py --workload congruence --seed 1 --seconds 30 --trace 0

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced passes with traced ones (each invocation run under
bench/tracer.py) and reports the per-layer metrics.  Every invocation's exit
code, summary line and stdout digest is checked against bench/golden.json.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tr

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "qcong-bench"
GOLDEN = BENCH / "golden.json"

# Set-up probe: interpreter start, `import qcong` and argument parsing, with
# next to no computation.
SETUP = ("compute", "--family", "cyclotomic", "--n", "1", "--format", "json")


def _json(*invocations: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    return tuple(argv + ("--format", "json") for argv in invocations)


# Bounds are sized so that one pass takes 3-5 s on a shared 2-vCPU VM, which
# gives four to six passes per 30 s run.  See README.md for why each workload
# exists and which layer it stresses.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Remainders by small moduli (1+q^d, Phi_2d) and residue injection.
    "congruence": _json(
        ("verify", "--suite", "theorem1", "--m-max", "16"),
        ("verify", "--suite", "lemma31", "--m-max", "16"),
        ("verify", "--suite", "theorem52", "--k-max", "2", "--m-max", "11"),
        ("verify", "--suite", "theorem51", "--k-max", "3", "--m-max", "8"),
        ("verify", "--suite", "desarmenien", "--k-max", "6", "--n-max", "18"),
    ),
    # Balanced big x big products, exact division by large cyclotomic
    # products, and MBs of quotient witnesses serialized as JSON.
    "divisibility": _json(
        ("verify", "--suite", "theorem2", "--n-max", "22"),
        ("verify", "--suite", "foata", "--n-max", "20"),
        ("explore", "--conjecture", "conj61", "--n-max", "18"),
    ),
    # High-degree generalized Euler polynomials built only to be read at q=1:
    # products only, no division.
    "q-at-one": _json(
        ("explore", "--conjecture", "conj51", "--k-max", "3", "--m-max", "9"),
        ("verify", "--suite", "corollary52", "--k-max", "3", "--m-max", "8"),
        ("verify", "--suite", "stern", "--m-max", "18"),
    ),
}

# name -> unit; BENCHMARK.json lists the same names with their bounds.
END_TO_END = {
    "wall_s": "s",
    "decisions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "poly.mul.calls": "count",
    "poly.mul.coeff_products": "count",
    "poly.mul.self_s": "s",
    "poly.mul.max_coeff_bits": "bits",
    "poly.divmod.calls": "count",
    "poly.divmod.steps": "count",
    "poly.divmod.self_s": "s",
    "qbinom.gauss.calls": "count",
    "qbinom.gauss.hit_ratio": "ratio",
    "qbinom.gauss.self_s": "s",
    "sequences.values_generated": "count",
    "sequences.hit_ratio": "ratio",
    "sequences.self_s": "s",
    "sequences.max_degree": "degree",
    "cyclotomic.expand.self_s": "s",
    "cyclotomic.divides.calls": "count",
    "cyclotomic.divides.self_s": "s",
    "cyclotomic.divides.max_divisor_degree": "degree",
    "residues.inject.calls": "count",
    "residues.inject.self_s": "s",
    "verify.checks": "count",
    "verify.self_s": "s",
    "cli.serialize_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

MIN_ROUNDS = 2  # fewest rounds a run makes, unless HARD_LIMIT_S stops it
SETUP_PER_PASS = 3  # set-up probes run before each pass

# Times are reported at a fixed host speed: each invocation's wall time is
# multiplied by REF_NOMINAL_S over the mean of the reference_s() timings taken
# just before and just after it, on the same CPU.  The speed a shared VM
# gives a process drifts by up to 2x within minutes, which spreads raw pass
# times of ten runs by 13-50% (quartile distance over median); scaled, they
# spread by a few percent.  Unscaled medians are printed as well.
REF_NOMINAL_S = 0.1
REFERENCE = """
a = tuple((i * 0x9E3779B97F4A7C15) % (1 << 120) for i in range(256))
for _ in range(4):
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
"""
INVOCATION_TIMEOUT_S = 120.0
HARD_LIMIT_S = 150.0  # no round starts that is expected to end later than this
DEADLINE_S = 170.0  # invocations still running this long after the start are killed


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Outcome:
    """One finished invocation."""

    argv: tuple[str, ...]
    wall_s: float
    rss_mb: float
    exit_code: int
    sha256: str
    summary: str
    output_bytes: int
    error: str = ""  # last line of stderr
    scale: float = 1.0  # REF_NOMINAL_S over the reference time around the invocation

    @property
    def scaled_s(self) -> float:
        """Wall time at the host speed where reference_s() is REF_NOMINAL_S."""
        return self.wall_s * self.scale

    @property
    def checked(self) -> int:
        try:
            return int(json.loads(self.summary).get("checked", 0))
        except (ValueError, AttributeError):
            return 0

    def record(self) -> dict:
        return {"exit": self.exit_code, "summary": self.summary, "sha256": self.sha256}


@dataclass
class Pass:
    """One closed-loop pass over a workload's invocations."""

    outcomes: list[Outcome]
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def scaled_s(self) -> float:
        return sum(o.scaled_s for o in self.outcomes)

    @property
    def decisions(self) -> int:
        return sum(o.checked for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    @property
    def output_bytes(self) -> int:
        return sum(o.output_bytes for o in self.outcomes)


def key(argv) -> str:
    return " ".join(argv)


def reference_s() -> float:
    """Wall time of a fixed pure-Python big-integer convolution.

    It runs in a fresh interpreter, so process start-up counts as it does for
    an invocation, and it works the interpreter the way IntPoly's kernels do.
    It runs no qcong code, so a change to qcong never changes it; it tracks
    only the speed the host gives this CPU at the moment.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], check=True, cwd=ROOT)
    return time.perf_counter() - start


def run_invocation(argv, spans_path: Path | None = None, timeout: float = INVOCATION_TIMEOUT_S) -> Outcome:
    """Run one invocation in a fresh process and wait for it to end.

    With `spans_path` the process runs under the tracer, which writes its
    spans and counters there.  A process still running after `timeout`
    seconds is killed.
    """
    if spans_path is None:
        cmd = [sys.executable, "-m", "qcong", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *argv]
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        status = None
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
            if status is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    errors = (WORK / "stderr.txt").read_bytes().splitlines()
    lines = out.splitlines()
    return Outcome(
        argv=tuple(argv),
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        sha256=hashlib.sha256(out).hexdigest(),
        summary=lines[-1].decode("utf-8", "replace") if lines else "",
        output_bytes=len(out),
        error=errors[-1].decode("utf-8", "replace") if errors else "",
    )


def mismatch(outcome: Outcome, golden: dict) -> str | None:
    """Why the outcome differs from its golden record, or None if it matches."""
    want = golden.get(key(outcome.argv))
    if want is None:
        return "no golden record"
    got = outcome.record()
    diffs = [k for k in ("exit", "summary", "sha256") if got[k] != want[k]]
    return f"{', '.join(diffs)} differ" if diffs else None


def summarize_trace(path: Path) -> dict:
    """Span counts, self times and counters of one traced invocation."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    path.unlink()
    calls: dict[str, int] = {}
    for span in data["spans"]:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return {"calls": calls, "self_s": tr.self_times(data["spans"]), "counters": data["counters"]}


def pass_order(invocations, rng: random.Random) -> list:
    """The invocations in the order of the next pass, drawn from `rng`."""
    order = list(invocations)
    rng.shuffle(order)
    return order


MAXIMA = ("poly.mul.max_coeff_bits", "sequences.max_degree", "cyclotomic.divides.max_divisor_degree")


def layer_metrics(traced: Pass) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except the overhead ratio."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for t in traced.traces:
        for name, n in t["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in t["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, n in t["counters"].items():
            old = counters.get(name, 0)
            counters[name] = max(old, n) if name in MAXIMA else old + n

    def ratio(hits: str, misses: str) -> float:
        total = counters.get(hits, 0) + counters.get(misses, 0)
        return counters.get(hits, 0) / total if total else 0.0

    return {
        "poly.mul.calls": calls.get(tr.MUL, 0),
        "poly.mul.coeff_products": counters.get("poly.mul.coeff_products", 0),
        "poly.mul.self_s": self_s.get(tr.MUL, 0.0),
        "poly.mul.max_coeff_bits": counters.get("poly.mul.max_coeff_bits", 0),
        "poly.divmod.calls": calls.get(tr.DIVMOD, 0),
        "poly.divmod.steps": counters.get("poly.divmod.steps", 0),
        "poly.divmod.self_s": self_s.get(tr.DIVMOD, 0.0),
        "qbinom.gauss.calls": calls.get(tr.GAUSS, 0),
        "qbinom.gauss.hit_ratio": ratio("qbinom.gauss.hits", "qbinom.gauss.misses"),
        "qbinom.gauss.self_s": self_s.get(tr.GAUSS, 0.0),
        "sequences.values_generated": counters.get("sequences.misses", 0),
        "sequences.hit_ratio": ratio("sequences.hits", "sequences.misses"),
        "sequences.self_s": self_s.get(tr.SEQUENCES, 0.0),
        "sequences.max_degree": counters.get("sequences.max_degree", 0),
        "cyclotomic.expand.self_s": self_s.get(tr.EXPAND, 0.0),
        "cyclotomic.divides.calls": calls.get(tr.DIVIDES, 0),
        "cyclotomic.divides.self_s": self_s.get(tr.DIVIDES, 0.0),
        "cyclotomic.divides.max_divisor_degree": counters.get("cyclotomic.divides.max_divisor_degree", 0),
        "residues.inject.calls": calls.get(tr.INJECT, 0),
        "residues.inject.self_s": self_s.get(tr.INJECT, 0.0),
        "verify.checks": counters.get("verify.checks", 0),
        "verify.self_s": self_s.get(tr.VERIFY, 0.0),
        "cli.serialize_s": self_s.get(tr.SERIALIZE, 0.0),
        "cli.output_bytes": traced.output_bytes,
    }


def count_metrics(metrics: dict) -> dict:
    """The metrics that are exact counts, which must repeat across runs."""
    return {k: v for k, v in metrics.items() if PER_LAYER.get(k) not in ("s", "ratio")}


class Runner:
    """Runs invocations one at a time, each between two reference timings,
    and checks every outcome against the golden record."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []  # failed invocations
        self.inconsistent: list[str] = []  # failed checks on the run as a whole
        self.deadline = time.perf_counter() + DEADLINE_S
        self.references: list[float] = [reference_s()]

    @property
    def correct(self) -> bool:
        return not (self.failures or self.inconsistent)

    def invoke(self, argv, spans_path: Path | None = None) -> Outcome:
        timeout = min(INVOCATION_TIMEOUT_S, max(self.deadline - time.perf_counter(), 0.1))
        outcome = run_invocation(argv, spans_path, timeout)
        self.references.append(reference_s())
        outcome.scale = 2 * REF_NOMINAL_S / (self.references[-2] + self.references[-1])
        self.attempted += 1
        why = mismatch(outcome, self.golden)
        if why:
            self.failures.append(f"{key(outcome.argv)}: {why} (exit {outcome.exit_code}) {outcome.error}")
        return outcome

    def run_pass(self, invocations, rng: random.Random, traced: bool = False) -> Pass:
        done = Pass([])
        for i, argv in enumerate(pass_order(invocations, rng)):
            spans = WORK / f"spans-{i}.json" if traced else None
            outcome = self.invoke(argv, spans)
            done.outcomes.append(outcome)
            if traced and spans.exists():
                trace = summarize_trace(spans)
                trace["self_s"] = {k: v * outcome.scale for k, v in trace["self_s"].items()}
                done.traces.append(trace)
        return done

    def measure(self, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
        """Run the workload for about `seconds`; return (metrics, notes).

        Each round runs SETUP_PER_PASS set-up probes and one untraced pass,
        plus one traced pass when `trace` is set.
        """
        invocations = WORKLOADS[workload]
        rng = random.Random(seed)
        self.invoke(SETUP)  # warm-up: writes bytecode caches, not timed
        start = time.perf_counter()
        rounds: list[float] = []
        setup: list[Outcome] = []
        plain: list[Pass] = []
        traced: list[Pass] = []
        while True:
            round_start = time.perf_counter()
            setup.extend(self.invoke(SETUP) for _ in range(SETUP_PER_PASS))
            plain.append(self.run_pass(invocations, rng))
            if trace:
                traced.append(self.run_pass(invocations, rng, traced=True))
            now = time.perf_counter()
            rounds.append(now - round_start)
            next_end = now - start + statistics.median(rounds)
            if next_end > HARD_LIMIT_S:
                break
            if next_end > seconds and len(rounds) >= MIN_ROUNDS:
                break

        notes = [
            f"rounds={len(rounds)} setup_probes={len(setup)} cpu={sorted(os.sched_getaffinity(0))}",
            f"reference_s median={statistics.median(self.references):.4f} "
            f"min={min(self.references):.4f} max={max(self.references):.4f}",
            f"unscaled: wall_s={statistics.median(p.wall_s for p in plain):.4f} "
            f"setup_s={statistics.median(o.wall_s for o in setup):.4f}",
        ]
        wall = statistics.median(p.scaled_s for p in plain)
        if not trace:
            metrics = {
                "wall_s": wall,
                "decisions_per_s": plain[0].decisions / wall,
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
                "setup_s": statistics.median(o.scaled_s for o in setup),
            }
            return metrics, notes

        per_pass = [layer_metrics(p) for p in traced]
        counts = count_metrics(per_pass[0])
        if any(count_metrics(other) != counts for other in per_pass[1:]):
            self.inconsistent.append("per-layer counts differ between traced passes")
        metrics = {
            name: statistics.median(m[name] for m in per_pass) if unit in ("s", "ratio") else per_pass[0][name]
            for name, unit in PER_LAYER.items()
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = statistics.median(p.scaled_s for p in traced) / wall
        return metrics, notes


# run metadata and trajectory -------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcong").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata() -> dict:
    return {
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _bench_number(path: str) -> int:
    match = re.search(r"BENCH_(\d+)\.json$", path)
    return int(match.group(1)) if match else -1


def previous_result(exclude: Path | None = None) -> Path | None:
    """The highest-numbered BENCH_<n>.json at the root or in bench/."""
    found = [
        p for p in glob.glob(str(ROOT / "BENCH_*.json")) + glob.glob(str(BENCH / "BENCH_*.json"))
        if _bench_number(p) >= 0 and (exclude is None or Path(p).resolve() != exclude.resolve())
    ]
    return Path(max(found, key=_bench_number)) if found else None


def base_values(path: Path, workload: str, trace: bool) -> dict[str, tuple[float, int]]:
    """Median and sample count of each metric over the recorded runs."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh).get("runs", [])
    values: dict[str, list[float]] = {}
    for run in runs:
        if run.get("workload") == workload and bool(run.get("trace")) == trace:
            for name, metric in run.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
    return {name: (statistics.median(v), len(v)) for name, v in values.items()}


def append_record(path: Path, entry: dict) -> None:
    data = {"runs": []}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["runs"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


# entry point -----------------------------------------------------------------


def write_golden() -> int:
    """Record the expected outcome of every invocation of every workload."""
    golden = {}
    for argv in (SETUP,) + tuple(a for inv in WORKLOADS.values() for a in inv):
        outcome = run_invocation(argv)
        golden[key(argv)] = outcome.record()
        print(f"{outcome.wall_s:8.3f} s  exit {outcome.exit_code}  {key(argv)}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def preflight() -> dict:
    """The golden record; raises BenchError if the program or it is missing."""
    if not (SRC / "qcong" / "__init__.py").is_file():
        raise BenchError(f"no qcong sources under {SRC}")
    if not GOLDEN.is_file():
        raise BenchError(f"missing golden record {GOLDEN}")
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="permutes the invocation order of each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, metavar="FILE", help="append this run's metrics to FILE")
    parser.add_argument("--write-golden", action="store_true", help="record bench/golden.json and exit")
    args = parser.parse_args(argv)

    try:
        golden = preflight() if not args.write_golden else None
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")

    # One client on one CPU: the children inherit this affinity, so the
    # reference loop and the invocations it scales run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meta = run_metadata()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# meta {json.dumps(meta)}")
    runner = Runner(golden)
    metrics, notes = runner.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    for note in notes:
        print(f"# {note}")

    base_path = previous_result(exclude=args.record)
    base = base_values(base_path, args.workload, bool(args.trace)) if base_path else {}
    for name, value in metrics.items():
        line = f"{name:40s} {value:14.6g} {units[name]}"
        if name in base and base[name][0]:
            b, n = base[name]
            line += f"   x{value / b:.3f} of base {b:.6g} {units[name]} ({base_path.name}, median of {n})"
        print(line)
    failed = len(runner.failures)
    print(f"{'failed_ops':40s} {failed / runner.attempted:14.6g} share ({failed} of {runner.attempted})")
    for failure in runner.failures + runner.inconsistent:
        print(f"# FAILED {failure}")

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.record:
        append_record(args.record, {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                    "meta": meta, "notes": notes, "correct": result["correct"],
                                    "metrics": result["metrics"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
