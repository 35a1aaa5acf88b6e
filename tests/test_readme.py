"""README's library quick start runs as printed.

The one ``python`` block of README.md is executed verbatim, so an API
change that breaks the documented example fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_verbatim(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert re.fullmatch(r"acceptance 0\.\d{3}, mean error vs closed form "
                        r"\d+\.\d{2}%\n", out), out
