"""The README's library example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_prints_what_its_comments_say():
    code = _library_example()
    # every print stands alone on its line, with the line it prints as its comment
    expected = [
        line.partition("  # ")[2]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(expected) == 3 and all(expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    # the kxk dimension table, and e1 (x) e1 # 1 as a form: e1 kept, e2 sent to 0
    assert expected == [
        "[4, 6, 8, 10]",
        "{'degree': 3, 'saturation': 5, 'dimension': 10, 'stable': True}",
        "(({0: 1}, {}), 1)",
    ]
