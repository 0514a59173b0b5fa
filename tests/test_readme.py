"""The README's library quick start runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_quick_start_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:quick start", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3
