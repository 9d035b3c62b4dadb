"""The README's Python examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def test_readme_python_blocks_run(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md, python block {i}", "exec"),
             {"__name__": "readme"})
