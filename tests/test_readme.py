"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text):
    """(first line, source) of each ```python block of ``text``, the line counted in the file."""
    return [(text.count("\n", 0, match.start(1)) + 1, match.group(1))
            for match in re.finditer(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)]


def test_readme_python_blocks_run_in_fresh_namespaces():
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    for line, source in blocks:
        # padded so that a traceback names the README's own line
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "readme"})
    assert len(blocks) >= 2  # the quick start and the criterion on a band
