"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The Python block under the README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_comments():
    source = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["4 False", "3", "4"]
    comments = re.findall(r"^print\(.*#\s*(.*)$", source, re.M)
    assert len(comments) == len(printed)
    for line, comment in zip(printed, comments):
        assert re.match(re.escape(line) + r"(?![\w.])", comment), (line, comment)
