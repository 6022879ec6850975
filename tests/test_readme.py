"""The figures README.md states about the source tree."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layout_sentence_counts_the_source_files_and_lines():
    # as `wc -l src/qcong/*.py` counts them
    files = sorted((ROOT / "src" / "qcong").glob("*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    sentence = f"`src/qcong` holds {len(files)} files, {lines:,} lines in all."
    assert sentence in (ROOT / "README.md").read_text(encoding="utf-8")
