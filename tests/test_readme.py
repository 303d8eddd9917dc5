"""The README's Python API example runs as written and prints what its
comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block() -> str:
    """The first ```python block under the "Python API" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_example_prints_its_documented_exchanges(capsys):
    block = python_api_block()
    expected = re.search(r"^print\(\[m\.method .*\)\n# (\[.*\])$", block, re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == expected
    assert len(lines) > 1  # the CDL export follows
