"""Per-layer tracer for one `qcong` invocation.

Run as a script, it imports `qcong`, checks that every memo cache is empty,
wraps the public entry points of each layer in spans, and calls
`qcong.cli.main` with the remaining arguments, so the process writes the same
stdout and exit code as `python -m qcong ...`.  The spans (name, parent id,
start, end) stay in memory and are written as JSON to the given file at exit,
together with exact work counters computed here from operand sizes:

    python bench/tracer.py SPANS.json verify --suite theorem1 --m-max 4 --format json

Nothing in `qcong` itself is modified; the wrappers replace module and class
attributes, including every name bound by `from ... import`, so that calls
between layers go through them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# Span name of each layer; self_times() is keyed by these.
MUL = "poly.mul"
DIVMOD = "poly.divmod"
GAUSS = "qbinom.gauss"
SEQUENCES = "sequences"
EXPAND = "cyclotomic.expand"
DIVIDES = "cyclotomic.divides"
INJECT = "residues.inject"
VERIFY = "verify"
SERIALIZE = "cli.serialize"
ROOT = "cli.main"

SEQUENCE_FUNCTIONS = (
    "euler",
    "gen_euler",
    "tangent",
    "salie",
    "salie_bar",
    "salie_hat",
    "salie_tilde",
)


class WarmCacheError(RuntimeError):
    """A memo cache held entries before the first call of the invocation."""


def memo_caches(modules) -> dict[str, object]:
    """Every `functools.lru_cache` function defined in the given modules."""
    found = {}
    for mod in modules:
        for name, value in vars(mod).items():
            if hasattr(value, "cache_info") and value.__module__ == mod.__name__:
                found[f"{mod.__name__}.{name}"] = value
    return found


def check_cold(caches) -> None:
    """Raise WarmCacheError unless every cache is empty and unused."""
    warm = {name: fn.cache_info() for name, fn in caches.items()}
    warm = {name: info for name, info in warm.items() if info.currsize or info.hits or info.misses}
    if warm:
        raise WarmCacheError(f"memo caches not cold at start: {warm}")


def _size(x) -> int:
    """Coefficient count of an IntPoly operand, or of an int coerced to one."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return len(coeffs)
    if isinstance(x, int):
        return 1 if x else 0
    return 0


def _totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


class Tracer:
    """In-memory spans plus exact work counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start ns, end ns]
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def _add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _max(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, after=None):
        """`fn` recorded as a span named `name`; `after(args, result)` updates
        counters once the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # counters, computed from operand and result sizes --------------------

    def after_mul(self, args, result) -> None:
        self._add("poly.mul.coeff_products", _size(args[0]) * _size(args[1]))
        coeffs = getattr(result, "coeffs", ())
        if coeffs:
            self._max("poly.mul.max_coeff_bits", max(max(coeffs), -min(coeffs)).bit_length())

    def after_divmod(self, args, result) -> None:
        la, lb = _size(args[0]), _size(args[1])
        if la >= lb:
            self._add("poly.divmod.steps", (la - lb + 1) * lb)

    def after_sequence(self, args, result) -> None:
        self._max("sequences.max_degree", _size(result) - 1)

    def after_divides(self, args, result) -> None:
        degree = sum(_totient(d) * e for d, e in args[0].factors.items())
        self._max("cyclotomic.divides.max_divisor_degree", degree)

    def after_verify(self, args, result) -> None:
        if isinstance(result, list):
            self._add("verify.checks", len(result))


def _rebind(modules, original, replacement) -> None:
    """Point every module-level reference to `original` at `replacement`,
    including references held in module-level tuples and dicts."""

    def swap(value):
        if value is original:
            return replacement
        if isinstance(value, tuple):
            items = tuple(swap(v) for v in value)
            return value if all(a is b for a, b in zip(items, value)) else items
        if isinstance(value, dict):
            items = {k: swap(v) for k, v in value.items()}
            return value if all(items[k] is v for k, v in value.items()) else items
        return value

    for mod in modules:
        for name, value in list(vars(mod).items()):
            new = swap(value)
            if new is not value:
                setattr(mod, name, new)


def qcong_modules() -> dict[str, types.ModuleType]:
    """Every imported module of the qcong package, by dotted name.

    Modules are looked up in sys.modules because the package namespace
    rebinds some submodule names, such as `qcong.cyclotomic`, to functions.
    """
    importlib.import_module("qcong.cli")
    return {n: mod for n, mod in sys.modules.items() if n == "qcong" or n.startswith("qcong.")}


def install(tracer: Tracer, modules: dict[str, types.ModuleType]) -> None:
    """Wrap each layer's public entry points in spans of `tracer`."""
    every = list(modules.values())
    poly, qbinom, sequences = modules["qcong.poly"], modules["qcong.qbinom"], modules["qcong.sequences"]
    cyclotomic, residues, verify = modules["qcong.cyclotomic"], modules["qcong.residues"], modules["qcong.verify"]
    cli = modules["qcong.cli"]

    def rebind(name, original, after=None):
        _rebind(every, original, tracer.wrap(name, original, after))

    IntPoly, FactoredPoly = poly.IntPoly, cyclotomic.FactoredPoly
    traced_mul = tracer.wrap(MUL, IntPoly.__mul__, tracer.after_mul)
    IntPoly.__mul__ = traced_mul
    IntPoly.__rmul__ = traced_mul
    IntPoly._divmod = tracer.wrap(DIVMOD, IntPoly._divmod, tracer.after_divmod)
    FactoredPoly.expand = tracer.wrap(EXPAND, FactoredPoly.expand)
    FactoredPoly.divides = tracer.wrap(DIVIDES, FactoredPoly.divides, tracer.after_divides)

    rebind(GAUSS, qbinom.gauss)
    for name in SEQUENCE_FUNCTIONS:
        rebind(SEQUENCES, getattr(sequences, name), tracer.after_sequence)
    rebind(EXPAND, cyclotomic.cyclotomic)
    rebind(INJECT, residues.inject)
    for name, value in list(vars(verify).items()):
        if name.startswith(("check_", "sweep_", "explore_")) and callable(value):
            rebind(VERIFY, value, tracer.after_verify)

    cli.report_record = tracer.wrap(SERIALIZE, cli.report_record)
    cli.json = types.SimpleNamespace(dumps=tracer.wrap(SERIALIZE, json.dumps))
    cli.main = tracer.wrap(ROOT, cli.main)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name of each span's duration minus its children's.

    Spans of one process nest properly, so the children of a span cover
    disjoint parts of it and the self times of all spans add up to the
    durations of the root spans.
    """
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    totals: dict[str, int] = {}
    for s, ns in zip(spans, own):
        totals[s[0]] = totals.get(s[0], 0) + ns
    return {name: ns / 1e9 for name, ns in totals.items()}


def cache_counts(caches) -> dict[str, int]:
    """Memo hits and misses of the Gaussian table and the seven families."""
    gauss = caches["qcong.qbinom._gauss"].cache_info()
    seq = [caches[f"qcong.sequences.{n}"].cache_info() for n in SEQUENCE_FUNCTIONS]
    return {
        "qbinom.gauss.hits": gauss.hits,
        "qbinom.gauss.misses": gauss.misses,
        "sequences.hits": sum(i.hits for i in seq),
        "sequences.misses": sum(i.misses for i in seq),
    }


def main(argv: list[str]) -> int:
    spans_path, qcong_argv = argv[0], argv[1:]
    modules = qcong_modules()
    caches = memo_caches(modules.values())
    check_cold(caches)
    tracer = Tracer()
    install(tracer, modules)
    try:
        return modules["qcong.cli"].main(qcong_argv)
    finally:
        sys.stdout.flush()
        counts = dict(tracer.counters)
        counts.update(cache_counts(caches))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": counts}, fh, separators=(",", ":"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
