"""Every function and method in `src/qcong` is run by a decision: it is named
in `src/qcong` outside its own definition, or it is a documented entry point.
A helper only the tests call belongs in `tests/oracles.py`.  `qcong.__all__`
names the documented entry points and seven fixed names, no more."""

import ast
from pathlib import Path

import qcong
from qcong import verify as v

SRC = Path(__file__).resolve().parent.parent / "src" / "qcong"

# The documented entry points are the sequence and divisor families,
# `cyclotomic`, `gauss` and `factor_one_plus_qd`, and the targets of the
# suite registry; all but the suite targets are public.
DOCUMENTED = {
    "euler", "gen_euler", "tangent", "salie", "salie_bar", "salie_hat", "salie_tilde",
    "big_p", "big_d", "ev", "q_bar", "q_hat", "q_tilde",
    "cyclotomic", "gauss", "factor_one_plus_qd",
}
ENTRY_POINTS = DOCUMENTED | {
    fn.__name__ for suites in v.SUITES.values() for fn in suites.values()
}


def test_every_function_in_src_has_a_caller_or_is_an_entry_point():
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert ENTRY_POINTS <= defined.keys()
    uncalled = {
        name: where for name, where in defined.items()
        if name not in named and name not in ENTRY_POINTS
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert not uncalled, f"named nowhere in src/qcong: {uncalled}"


def test_all_is_the_documented_entry_points_and_six_fixed_names():
    # a new public name needs a deliberate edit here
    others = {"IntPoly", "FactoredPoly", "SizeLimitExceeded", "SEQUENCE_FAMILIES", "inject",
              "__version__"}
    assert len(set(qcong.__all__)) == len(qcong.__all__)
    assert set(qcong.__all__) == DOCUMENTED | others
