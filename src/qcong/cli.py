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
from .sequences import SEQUENCE_FAMILIES, family_value

ENV_CAP = "QCONG_MAX_N"

COMPUTE_FAMILIES = SEQUENCE_FAMILIES + tuple(DIVISOR_FAMILIES) + ("cyclotomic", "gauss")

# suite name -> (runner, {bound flag default}); bounds resolve as
# explicit flag > QCONG_MAX_N > default.
SUITES = {
    "theorem1": (lambda b: v.sweep_theorem1(b["m_max"], b["d_max"]), {"m_max": 12, "d_max": None}),
    "corollary1": (lambda b: v.sweep_corollary1(b["m_max"]), {"m_max": 10}),
    "lemma31": (lambda b: v.sweep_lemma31(b["m_max"], b["d_max"]), {"m_max": 12, "d_max": None}),
    "desarmenien": (lambda b: v.sweep_desarmenien(b["k_max"], b["n_max"]), {"k_max": 4, "n_max": 10}),
    "theorem2": (lambda b: v.sweep_theorem2(b["n_max"]), {"n_max": 15}),
    "lemma41": (lambda b: v.sweep_lemma41(b["n_max"]), {"n_max": 15}),
    "eq23": (lambda b: v.sweep_eq23(b["n_max"]), {"n_max": 15}),
    "eq24": (lambda b: v.sweep_eq24(b["n_max"]), {"n_max": 15}),
    "theorem51": (lambda b: v.sweep_theorem51(b["k_max"], b["m_max"], b["d_max"]), {"k_max": 3, "m_max": 6, "d_max": None}),
    "theorem52": (lambda b: v.sweep_theorem52(b["k_max"], b["m_max"], b["d_max"]), {"k_max": 2, "m_max": 8, "d_max": None}),
    "corollary52": (lambda b: v.sweep_corollary52(b["k_max"], b["m_max"]), {"k_max": 2, "m_max": 8}),
    "stern": (lambda b: v.sweep_stern(b["m_max"]), {"m_max": 10}),
    "foata": (lambda b: v.sweep_foata(b["n_max"]), {"n_max": 15}),
    "perm-euler": (lambda b: v.sweep_perm_euler(b["n_max"]), {"n_max": 3}),
    "perm-salie": (lambda b: v.sweep_perm_salie(b["n_max"]), {"n_max": 3}),
}

CONJECTURES = {
    "conj51": (lambda b: v.explore_conjecture51(b["k_max"], b["m_max"]), {"k_max": 3, "m_max": 10}),
    "conj61": (lambda b: v.explore_conjecture61(b["n_max"]), {"n_max": 12}),
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
    if w is None:
        return None
    return str(w)


def report_record(r) -> dict:
    """JSON-ready dict for any verify/explore report."""
    if isinstance(r, v.CongruenceReport):
        return {
            "check": r.check,
            "params": r.params,
            "expected_equivalence": r.expected_equivalence,
            "observed_congruence": r.observed_congruence,
            "passed": r.passed,
            "witness": _witness_record(r.witness),
        }
    if isinstance(r, v.DivisibilityReport):
        return {
            "check": r.check,
            "family": r.family,
            "index": r.index,
            "params": r.params,
            "divisor": _factored_records(r.divisor),
            "passed": r.passed,
            "witness": _witness_record(r.witness),
        }
    if isinstance(r, v.IdentityReport):
        return {
            "check": r.check,
            "params": r.params,
            "passed": r.passed,
            "witness": _witness_record(r.witness),
        }
    if isinstance(r, v.ConjectureReport):
        return {
            "conjecture": r.conjecture,
            "params": r.params,
            "status": "holds" if r.holds else "fails",
            "witness": _witness_record(r.witness),
        }
    raise TypeError(f"unknown report type {type(r)!r}")


def _env_cap(parser: argparse.ArgumentParser) -> int | None:
    raw = os.environ.get(ENV_CAP)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{ENV_CAP} must be an integer, got {raw!r}")


def _resolve_bounds(args, defaults: dict, cap: int | None) -> dict:
    resolved = {}
    for name, default in defaults.items():
        flag = getattr(args, name, None)
        if flag is not None:
            resolved[name] = flag
        elif cap is not None and isinstance(default, int):
            resolved[name] = min(default, cap)
        else:
            resolved[name] = default
    return resolved


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def _add_bounds(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-max", dest="n_max", type=int)
    parser.add_argument("--m-max", dest="m_max", type=int)
    parser.add_argument("--k-max", dest="k_max", type=int)
    parser.add_argument("--d-max", dest="d_max", type=int)


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
    pv.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    _add_bounds(pv)
    _add_common(pv)

    pe = sub.add_parser("explore", help="explore a conjecture numerically")
    pe.add_argument("--conjecture", required=True, choices=tuple(CONJECTURES))
    _add_bounds(pe)
    _add_common(pe)

    return parser


def _compute_records(args, parser) -> list[tuple[dict, str]]:
    """(json record, text line) pairs for the compute subcommand."""
    fam = args.family
    records = []
    if fam in SEQUENCE_FAMILIES:
        if args.n < 0:
            parser.error("--n must be nonnegative for sequence families")
        if fam == "gen-euler" and args.k is None:
            parser.error("--family gen-euler requires --k")
        if fam == "gen-euler" and args.k < 1:
            parser.error("--k must be positive")
        for i in range(args.n + 1):
            poly = family_value(fam, i, args.k)
            rec = {"family": fam, "index": i, "coeffs": _coeff_strings(poly)}
            if fam == "gen-euler":
                rec["k"] = args.k
            records.append((rec, f"{fam} {i}: {poly}"))
    elif fam in DIVISOR_FAMILIES:
        if args.n < 1:
            parser.error("--n must be positive for divisor families")
        for i in range(1, args.n + 1):
            factored = DIVISOR_FAMILIES[fam](i)
            poly = factored.expand()
            rec = {
                "family": fam,
                "index": i,
                "coeffs": _coeff_strings(poly),
                "factored": _factored_records(factored),
            }
            records.append((rec, f"{fam} {i}: {factored} = {poly}"))
    elif fam == "cyclotomic":
        if args.n < 1:
            parser.error("--n must be positive for cyclotomic")
        poly = cyclotomic(args.n)
        records.append(
            (
                {"family": fam, "index": args.n, "coeffs": _coeff_strings(poly)},
                f"cyclotomic {args.n}: {poly}",
            )
        )
    else:  # gauss
        if args.k is None:
            parser.error("--family gauss requires --k (the lower index)")
        if args.n < 0:
            parser.error("--n must be nonnegative for gauss")
        poly = gauss(args.n, args.k)
        records.append(
            (
                {
                    "family": fam,
                    "index": args.n,
                    "k": args.k,
                    "coeffs": _coeff_strings(poly),
                },
                f"gauss {args.n} {args.k}: {poly}",
            )
        )
    return records


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = _env_cap(parser)

    lines: list[str] = []
    exit_code = 0

    if args.command == "compute":
        for rec, text in _compute_records(args, parser):
            lines.append(json.dumps(rec) if args.format == "json" else text)
    else:
        if args.command == "verify":
            names = tuple(SUITES) if args.suite == "all" else (args.suite,)
            runs = [(name, SUITES[name]) for name in names]
            summary = {"suite": args.suite}
            words = ("passed", "failed")
        else:
            runs = [(args.conjecture, CONJECTURES[args.conjecture])]
            summary = {"conjecture": args.conjecture}
            words = ("holds", "fails")
        reports = []
        for name, (runner, defaults) in runs:
            try:
                reports.extend(runner(_resolve_bounds(args, defaults, cap)))
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def console_entry() -> None:
    raise SystemExit(main())
