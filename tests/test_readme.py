"""The README's "Library use" snippet runs as written against the public API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs(ctg_table):
    _, csv_path, _ = ctg_table
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert '"ctg.csv"' in snippet
    scope: dict = {}
    exec(snippet.replace('"ctg.csv"', repr(csv_path)), scope)
    test, labels = scope["test"], scope["labels"]
    assert len(labels) == test.n_rows
    assert set(labels) <= set(test.class_labels)
    truth = [test.class_labels[c] for c in test.class_codes()]
    assert sum(p == t for p, t in zip(labels, truth)) / len(truth) > 0.9
