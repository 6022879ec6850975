"""Command-line front end: compute families, verify theorem suites, explore
conjectures.

Exit codes: 0 success, 1 at least one theorem check failed, 2 usage error.
Coefficients are serialized as decimal strings (they outgrow 64-bit integers
quickly); the json format emits one record per line followed, for verify and
explore, by a summary object with counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as v
from .cyclotomic import FactoredPoly, cyclotomic
from .divisors import DIVISOR_FAMILIES
from .perms import SizeLimitExceeded
from .poly import IntPoly
from .qbinom import gauss
from .sequences import SEQUENCE_FAMILIES

ENV_CAP = "QCONG_MAX_N"

COMPUTE_FAMILIES = (*SEQUENCE_FAMILIES, *DIVISOR_FAMILIES, "cyclotomic", "gauss")


# command -> suite name -> bound name -> default, read from the signature of
# the suite's function (its parameters come first in co_varnames, and every
# one has a default).  Read once at import: wrappers that later replace the
# functions need not carry their defaults.
BOUNDS = {
    command: {
        name: dict(zip(fn.__code__.co_varnames, fn.__defaults__))
        for name, fn in suites.items()
    }
    for command, suites in v.SUITES.items()
}


def _coeff_strings(p: IntPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _factored_records(f: FactoredPoly) -> list[dict]:
    return [
        {"cyclo_index": d, "exponent": e} for d, e in sorted(f.factors.items())
    ]


def _witness_record(w):
    if isinstance(w, IntPoly):
        return _coeff_strings(w)
    return str(w)


# report field -> its JSON encoding; other fields are JSON already.
_ENCODERS = {"divisor": _factored_records, "witness": _witness_record}


def report_record(r) -> dict:
    """JSON-ready dict for any verify/explore report."""
    record = {}
    for key in v.RECORD_KEYS[r.kind]:
        value = getattr(r, key)
        record[key] = _ENCODERS[key](value) if key in _ENCODERS else value
    return record


def _env_cap(parser: argparse.ArgumentParser) -> int | None:
    raw = os.environ.get(ENV_CAP)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{ENV_CAP} must be an integer, got {raw!r}")


def _resolve_bounds(args, defaults: dict, cap: int | None) -> dict:
    """Each bound is the explicit flag, else the default capped by
    QCONG_MAX_N; an unbounded default (None) is never capped."""
    resolved = {}
    for name, default in defaults.items():
        flag = getattr(args, name)
        if flag is not None:
            resolved[name] = flag
        elif cap is not None and default is not None:
            resolved[name] = min(default, cap)
        else:
            resolved[name] = default
    return resolved


def _bound_names(command: str) -> dict:
    """Every bound that some suite of `command` takes, in first-seen order."""
    return {name: None for bounds in BOUNDS[command].values() for name in bounds}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def _add_bounds(parser: argparse.ArgumentParser, command: str) -> None:
    for name in _bound_names(command):
        parser.add_argument(_flag(name), dest=name, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact q-Euler/q-Salie polynomial families and their "
        "congruence and divisibility checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="print one family up to an index")
    pc.add_argument("--family", required=True, choices=COMPUTE_FAMILIES)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--k", type=int, help="gen-euler parameter, or lower index for gauss")
    _add_common(pc)

    pv = sub.add_parser("verify", help="run a theorem-check suite")
    suites = tuple(v.SUITES["verify"]) + ("all",)
    pv.add_argument("--suite", required=True, choices=suites)
    _add_bounds(pv, "verify")
    _add_common(pv)

    pe = sub.add_parser("explore", help="explore a conjecture numerically")
    pe.add_argument("--conjecture", required=True, choices=tuple(v.SUITES["explore"]))
    _add_bounds(pe, "explore")
    _add_common(pe)

    return parser


def _compute_records(args, parser) -> list[tuple[dict, str]]:
    """(json record, text head) pairs for the compute subcommand; "coeffs"
    holds the IntPoly until main renders it in the printed format only."""
    fam = args.family
    if args.k is not None and fam not in ("gen-euler", "gauss"):
        parser.error(f"--family {fam} does not take --k")
    records = []
    # sequence and divisor families are built from the largest index down:
    # past a size limit it fails before any work; output stays ascending
    if fam in SEQUENCE_FAMILIES:
        if args.n < 0:
            parser.error("--n must be nonnegative for sequence families")
        if fam == "gen-euler" and args.k is None:
            parser.error("--family gen-euler requires --k")
        if fam == "gen-euler" and args.k < 1:
            parser.error("--k must be positive")
        k = (args.k,) if fam == "gen-euler" else ()
        polys = [SEQUENCE_FAMILIES[fam](*k, i) for i in range(args.n, -1, -1)]
        for i, poly in enumerate(reversed(polys)):
            rec = {"family": fam, "index": i, "coeffs": poly}
            if fam == "gen-euler":
                rec["k"] = args.k
            records.append((rec, f"{fam} {i}:"))
    elif fam in DIVISOR_FAMILIES:
        if args.n < 1:
            parser.error("--n must be positive for divisor families")
        pairs = [(f, f.expand()) for f in map(DIVISOR_FAMILIES[fam], range(args.n, 0, -1))]
        for i, (factored, poly) in enumerate(reversed(pairs), 1):
            rec = {
                "family": fam,
                "index": i,
                "coeffs": poly,
                "factored": _factored_records(factored),
            }
            records.append((rec, f"{fam} {i}: {factored} ="))
    elif fam == "cyclotomic":
        if args.n < 1:
            parser.error("--n must be positive for cyclotomic")
        rec = {"family": fam, "index": args.n, "coeffs": cyclotomic(args.n)}
        records.append((rec, f"cyclotomic {args.n}:"))
    else:  # gauss
        if args.k is None:
            parser.error("--family gauss requires --k (the lower index)")
        if args.n < 0:
            parser.error("--n must be nonnegative for gauss")
        rec = {"family": fam, "index": args.n, "k": args.k, "coeffs": gauss(args.n, args.k)}
        records.append((rec, f"gauss {args.n} {args.k}:"))
    return records


def _reject_foreign_bounds(args, parser, command: str, name: str) -> None:
    """Usage error for a bound flag that suite `name` does not take."""
    taken = BOUNDS[command][name]
    for other in _bound_names(command):
        if other not in taken and getattr(args, other) is not None:
            allowed = ", ".join(_flag(n) for n in taken)
            parser.error(f"{name} does not take {_flag(other)} (its bounds: {allowed})")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = _env_cap(parser)
    # witnesses are written as exact decimal strings, however many digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    lines: list[str] = []
    exit_code = 0

    if args.command == "compute":
        try:
            records = _compute_records(args, parser)
        except SizeLimitExceeded as exc:
            parser.error(f"{args.family}: {exc}")
        for rec, head in records:
            if args.format == "json":
                rec["coeffs"] = _coeff_strings(rec["coeffs"])
                lines.append(json.dumps(rec))
            else:
                lines.append(f"{head} {rec['coeffs']}")
    else:
        option = "suite" if args.command == "verify" else "conjecture"
        chosen = getattr(args, option)
        summary = {option: chosen}
        words = ("passed", "failed") if args.command == "verify" else ("holds", "fails")
        bounds = BOUNDS[args.command]
        names = tuple(bounds) if chosen == "all" else (chosen,)
        if chosen != "all":
            _reject_foreign_bounds(args, parser, args.command, chosen)
        reports = []
        for name in names:
            sweep = v.SUITES[args.command][name]
            try:
                reports.extend(sweep(**_resolve_bounds(args, bounds[name], cap)))
            except (v.PreconditionViolation, SizeLimitExceeded) as exc:
                parser.error(f"{name}: {exc}")
        checked, passed, failed = v.summarize(reports)
        if checked == 0:
            parser.error(f"{args.command}: no instances within these bounds")
        for r in reports:
            lines.append(
                json.dumps(report_record(r)) if args.format == "json" else r.describe()
            )
        summary.update(checked=checked, passed=passed, failed=failed)
        lines.append(
            json.dumps(summary)
            if args.format == "json"
            else f"checked={checked} {words[0]}={passed} {words[1]}={failed}"
        )
        # conjecture explorers report, they never assert
        if args.command == "verify" and failed:
            exit_code = 1

    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
    return exit_code


def console_entry() -> None:
    raise SystemExit(main())
