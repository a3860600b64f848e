"""README's quick example runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_prints_the_cuq_peak():
    # the peak |b| of the r = 0.85 CUQ from a mixed start is 2r/(1 + r^2)
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert "r=0.85" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    r = 0.85
    assert abs(float(out.getvalue()) - 2 * r / (1 + r * r)) <= 1e-12
