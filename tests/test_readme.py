"""README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_library_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                          fh.read(), re.S)
    assert block, "README has no library quick start block"
    exec(compile(block.group(1), "README.md", "exec"), {})
