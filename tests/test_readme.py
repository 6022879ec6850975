"""The figures README.md states about the source tree, and its code, and
the test dependencies its install line installs."""

import ast
import re
import sys
from pathlib import Path

import qcong

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_layout_sentence_counts_the_source_files_and_lines():
    # as `wc -l src/qcong/*.py` counts them
    files = sorted((ROOT / "src" / "qcong").glob("*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    sentence = f"`src/qcong` holds {len(files)} files, {lines:,} lines in all."
    assert sentence in README


def test_layout_counts_the_names_in_all():
    stated = re.findall(r"(\d+) names in `__all__`", README)
    assert stated == [str(len(qcong.__all__))]


def test_every_test_import_is_stdlib_local_or_in_the_test_extra():
    # README installs `.[test]`: a module the tests import from outside the
    # standard library and this repo must be named in that extra
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    declared = {re.split(r"[<>=!~\[; ]", name)[0].lower().replace("-", "_")
                for name in re.findall(r'"([^"]+)"', extra)}
    allowed = set(sys.stdlib_module_names) | {"qcong", "oracles"} | declared
    imported = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    undeclared = {name: where for name, where in imported.items() if name not in allowed}
    assert not undeclared, f"imported by tests, not in the test extra: {undeclared}"
    assert {"pytest", "hypothesis"} <= imported.keys()


def test_library_quick_tour_runs():
    tour = README.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(code, names)
    assert names["ok"] and str(names["e10"].rem_binomial(3)) == "1 - 2q^2"
