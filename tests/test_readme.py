"""The figures README.md states about the source tree, and its code."""

import re
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


def test_library_quick_tour_runs():
    tour = README.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(code, names)
    assert names["ok"] and str(names["e10"].rem_binomial(3, -1)) == "1 - 2q^2"
