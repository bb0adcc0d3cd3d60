"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python blocks"
    namespace: dict = {}  # later blocks use names that earlier ones define
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i + 1}", "exec"), namespace)
