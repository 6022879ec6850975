"""Command-line front end: compute families, verify theorem suites, explore
conjectures.

Exit codes: 0 success, 1 at least one theorem check failed, 2 usage error,
a failed write to stdout or --out among them.
Coefficients are serialized as decimal strings (they outgrow 64-bit integers
quickly); the json format emits one record per line followed, for verify and
explore, by a summary object with counts.  Only `report_text` and
`report_record` know a report's line.  Every JSON line, report, compute
record and summary, is rendered from an f-string template, byte for byte the
`json.dumps` of its record, so no process imports `json`.  compute asks each
family for its largest index first, and the family refuses a bad or
oversized one itself (a divisor family on the work of all the records);
compute sizes its output from that record with `poly.refuse`, and makes
every other record as it renders it.

A well-formed argv (a command, then distinct exact flags each with a value)
is read from the flag table `COMMANDS` without argparse; argparse, built from
the same table, parses every other argv and prints every usage error.

Records are rendered one at a time and written in blocks of BLOCK_CHARS
characters, once nothing can be refused; `main` flushes stdout itself.
`console_entry`, behind both `qcong` and `python -m qcong`, ends the process
with `os._exit` once `main` returns, skipping the interpreter's teardown.
"""

import itertools
import os
import sys
from types import SimpleNamespace

from . import verify as v
from .cyclotomic import cyclotomic
from .divisors import DIVISOR_FAMILIES
from .poly import IntPoly, SizeLimitExceeded, refuse
from .qbinom import gauss
from .sequences import SEQUENCE_FAMILIES

ENV_CAP = "QCONG_MAX_N"

# Characters gathered before one write of the output.
BLOCK_CHARS = 1 << 18

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


# Coefficients and int witnesses are JSON strings; params hold ints and plain
# identifiers, so their repr with double quotes is their JSON.
_BOOL = ("false", "true")
_STATUS = ("fails", "holds")  # a conjecture report's JSON status, by `passed`


def _poly(p: IntPoly) -> str:
    return '["' + '", "'.join(map(str, p.coeffs)) + '"]' if p.coeffs else "[]"


def _factors(f) -> str:
    """The JSON list of a FactoredPoly's cyclotomic indices and exponents."""
    pairs = f.factors.items()  # in ascending index order
    return "[" + ", ".join([f'{{"cyclo_index": {d}, "exponent": {e}}}' for d, e in pairs]) + "]"


def report_record(r) -> str:
    """The JSON line of any verify/explore report."""
    params = str(r.params).replace("'", '"')
    w = r.witness
    witness = _poly(w) if isinstance(w, IntPoly) else f'"{w}"'
    if r.kind == "congruence":
        return (
            f'{{"check": "{r.check}", "params": {params}, '
            f'"expected_equivalence": {_BOOL[r.expected_equivalence]}, '
            f'"observed_congruence": {_BOOL[r.observed_congruence]}, '
            f'"passed": {_BOOL[r.passed]}, "witness": {witness}}}'
        )
    if r.kind == "divisibility":
        return (
            f'{{"check": "{r.check}", "family": "{r.family}", "index": {r.index}, '
            f'"params": {params}, "divisor": {_factors(r.divisor)}, '
            f'"passed": {_BOOL[r.passed]}, "witness": {witness}}}'
        )
    if r.kind == "identity":
        return (
            f'{{"check": "{r.check}", "params": {params}, '
            f'"passed": {_BOOL[r.passed]}, "witness": {witness}}}'
        )
    return (
        f'{{"conjecture": "{r.check}", "params": {params}, '
        f'"status": "{_STATUS[r.passed]}", "witness": {witness}}}'
    )


# kind -> the text verdict of a report that passes, and the label of the
# witness of one that fails.
_VERDICTS = {
    "congruence": ("PASS", "FAIL witness"),
    "divisibility": ("PASS", "FAIL remainder"),
    "identity": ("PASS", "FAIL difference"),
    "conjecture": ("holds", "fails witness"),
}

_CONGRUENT = ("incongruent", "congruent")


def report_text(r) -> str:
    """The text line of any verify/explore report."""
    words = [f"{name}={value}" for name, value in r.params.items()]
    if r.kind == "divisibility":
        words = [r.family, f"n={r.index}", *words, f"divisor={r.divisor}"]
    ok, fail = _VERDICTS[r.kind]
    verdict = ok if r.passed else f"{fail}={r.witness}"
    if r.kind == "congruence":
        verdict = (
            f"expected {_CONGRUENT[r.expected_equivalence]}, "
            f"observed {_CONGRUENT[r.observed_congruence]} -> {verdict}"
        )
    return f"{' '.join([r.check, *words])}: {verdict}"


def _fail(command: str, message: str):
    """Exit 2 with the usage line of `command` and `qcong command: error:
    message`, as argparse reports a usage error inside the command."""
    build_parser(command).error(message)


def _env_cap(command: str) -> int | None:
    raw = os.environ.get(ENV_CAP)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        _fail(command, f"{ENV_CAP} must be an integer, got {raw!r}")


def _resolve_bounds(args, defaults: dict, cap: int | None) -> dict:
    """Each bound is the explicit flag, else the default capped by
    QCONG_MAX_N; an unbounded default (None) is never capped."""
    return {
        name: getattr(args, name, default if cap is None or default is None else min(default, cap))
        for name, default in defaults.items()
    }


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# Defaults that are not values: a required flag has none, and an absent bound
# sets no attribute (argparse.SUPPRESS), so the suite's capped default applies.
_REQUIRED, _ABSENT = object(), object()


def _bound_flags(command: str) -> dict:
    """Every bound that some suite of `command` takes, in first-seen order."""
    return {_flag(name): (name, int, _ABSENT, {})
            for bounds in BOUNDS[command].values() for name in bounds}


_COMMON = {
    "--format": ("format", ("text", "json"), "text", {}),
    "--out": ("out", str, None, {"metavar": "FILE",
                                 "help": "write output to FILE instead of stdout"}),
}
# command -> (its help, flag -> (dest, kind, default, help keywords) of each
# of its options, in --help order); kind is int, str or the tuple of choices.
COMMANDS = {
    "compute": ("print one family up to an index", {
        "--family": ("family", COMPUTE_FAMILIES, _REQUIRED, {}),
        "--n": ("n", int, _REQUIRED, {}),
        "--k": ("k", int, None, {"help": "gen-euler parameter, or lower index for gauss"}),
        **_COMMON,
    }),
    "verify": ("run a theorem-check suite", {
        "--suite": ("suite", (*v.SUITES["verify"], "all"), _REQUIRED, {}),
        **_bound_flags("verify"), **_COMMON,
    }),
    "explore": ("explore a conjecture numerically", {
        "--conjecture": ("conjecture", tuple(v.SUITES["explore"]), _REQUIRED, {}),
        **_bound_flags("explore"), **_COMMON,
    }),
}


def build_parser(command: str | None = None):
    """The argparse parser of qcong or, given a command, of that command."""
    import argparse

    parser = argparse.ArgumentParser(prog="qcong", description="Exact q-Euler/q-Salie polynomial "
                                     "families and their congruence and divisibility checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {_REQUIRED: None, _ABSENT: argparse.SUPPRESS}
    for name, (summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, (dest, kind, default, keywords) in options.items():
            p.add_argument(flag, dest=dest, type=int if kind is int else None,
                           choices=kind if isinstance(kind, tuple) else None,
                           required=default is _REQUIRED, default=defaults.get(default, default),
                           **keywords)
        if name == command:
            return p
    return parser


def _read_args(argv) -> SimpleNamespace | None:
    """`build_parser().parse_args(argv)`, read from COMMANDS without argparse
    if argv is a command, then distinct exact flags of it (the required ones
    among them) each with a value not starting with "-"; else None."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    options, values = COMMANDS[argv[0]][1], {"command": argv[0]}
    try:
        for flag, value in zip(argv[1::2], argv[2::2]):
            dest, kind, _, _ = options[flag]
            if (dest in values or value.startswith("-")
                    or isinstance(kind, tuple) and value not in kind):
                return None
            values[dest] = int(value) if kind is int else value
    except (KeyError, ValueError):  # an unknown flag, a value int() refuses
        return None
    args = {dest: d for dest, _, d, _ in options.values() if d is not _ABSENT} | values
    return None if _REQUIRED in args.values() else SimpleNamespace(**args)


def _compute_records(args):
    """(polynomial, text head, JSON head, JSON tail) of each compute line,
    made as main renders it in the printed format only.  The last, of the
    largest index, is made first, its family refusing it if oversized; the
    others are no longer in all, so the output is sized from it first."""
    fam, n, k = args.family, args.n, args.k
    takes_k = fam in ("gen-euler", "gauss")
    if takes_k != (k is not None):
        raise ValueError(f"--family {fam} {'requires' if takes_k else 'does not take'} --k")
    first = n if fam in ("cyclotomic", "gauss") else int(fam in DIVISOR_FAMILIES)

    def record(i):
        head = f'{{"family": "{fam}", "index": {i}, '
        if fam == "cyclotomic":
            return cyclotomic(i), f"{fam} {i}:", head, "}"
        if fam == "gauss":
            return gauss(i, k), f"{fam} {i} {k}:", f'{head}"k": {k}, ', "}"
        if fam in DIVISOR_FAMILIES:
            # the last, made first, states the series work of all n records:
            # each is a product of its own, and they take 1/4 to 2/3 of that
            f = DIVISOR_FAMILIES[fam](i)
            p = f.expand(n + 1 - first if i == n else 1)
            return p, f"{fam} {i}: {f} =", head, f', "factored": {_factors(f)}}}'
        if takes_k:
            return SEQUENCE_FAMILIES[fam](k, i), f"{fam} {i}:", head, f', "k": {k}}}'
        return SEQUENCE_FAMILIES[fam](i), f"{fam} {i}:", head, "}"

    last = record(n)
    size, bits = len(last[0].coeffs), max(map(abs, last[0].coeffs), default=0).bit_length()
    what = f"rendering {n + 1 - first} record(s) of up to {size} coefficients"
    # a coefficient, however small, costs about 80 ns to build and render,
    # 16 steps of the work limit's 5 ns, before its words count
    refuse(what, size * (136 + 2 * bits), (n + 1 - first) * size * (16 + bits // 64))
    return itertools.chain(map(record, range(first, n)), [last])


def _reject_foreign_bounds(args, command: str, name: str) -> None:
    """Usage error for a bound flag that suite `name` does not take."""
    taken = BOUNDS[command][name]
    for other, _, default, _ in COMMANDS[command][1].values():
        if default is _ABSENT and other not in taken and hasattr(args, other):
            allowed = ", ".join(_flag(n) for n in taken)
            _fail(command, f"{name} does not take {_flag(other)} (its bounds: {allowed})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or build_parser().parse_args(argv)
    # witnesses are written as exact decimal strings, however many digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    exit_code = 0

    if args.command == "compute":
        try:
            records = _compute_records(args)
        except ValueError as exc:  # SizeLimitExceeded among them
            _fail(args.command, f"{args.family}: {exc}")
        if args.format == "json":
            lines = (f'{head}"coeffs": {_poly(p)}{tail}' for p, _, head, tail in records)
        else:
            lines = (f"{head} {p}" for p, head, _, _ in records)
    else:
        cap = _env_cap(args.command)
        option = "suite" if args.command == "verify" else "conjecture"
        chosen = getattr(args, option)
        words = ("passed", "failed") if args.command == "verify" else ("holds", "fails")
        bounds = BOUNDS[args.command]
        names = tuple(bounds) if chosen == "all" else (chosen,)
        if chosen != "all":
            _reject_foreign_bounds(args, args.command, chosen)
        reports = []
        for name in names:
            sweep = v.SUITES[args.command][name]
            try:
                reports.extend(sweep(**_resolve_bounds(args, bounds[name], cap)))
            except (v.PreconditionViolation, SizeLimitExceeded) as exc:
                _fail(args.command, f"{name}: {exc}")
        checked = len(reports)
        passed = sum(r.passed for r in reports)
        failed = checked - passed
        if checked == 0:
            _fail(args.command, "no instances within these bounds")
        if args.format == "json":
            lines = (report_record(r) for r in reports)
            last = (
                f'{{"{option}": "{chosen}", "checked": {checked}, '
                f'"passed": {passed}, "failed": {failed}}}'
            )
        else:
            lines = (report_text(r) for r in reports)
            last = f"checked={checked} {words[0]}={passed} {words[1]}={failed}"
        lines = itertools.chain(lines, (last,))
        # conjecture explorers report, they never assert
        if args.command == "verify" and failed:
            exit_code = 1

    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_blocks(fh, lines)
        else:
            _write_blocks(sys.stdout, lines)
            sys.stdout.flush()
    except OSError as exc:  # BrokenPipeError among them
        if not args.out:
            # what the failed write left buffered goes nowhere at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = f"--out {args.out}" if args.out else "stdout"
        _fail(args.command, f"cannot write {where}: {exc.strerror or exc}")
    return exit_code


def _write_blocks(fh, lines) -> None:
    """Write each line with its newline, in blocks of about BLOCK_CHARS."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line) + 1
        if size >= BLOCK_CHARS:
            fh.write("\n".join(block) + "\n")
            block, size = [], 0
    if block:
        fh.write("\n".join(block) + "\n")


def console_entry() -> None:
    """Run `main` as a process and end without the interpreter's teardown.
    A usage error (SystemExit) or any exception from `main` takes the
    normal exit."""
    code = main()
    sys.stderr.flush()
    os._exit(code)
