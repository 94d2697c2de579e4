"""The README's library examples run as written against the package namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_match_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    scope: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), scope)
    assert scope["rep"].rho == pytest.approx(0.21922, abs=1e-5)
    assert scope["report"].xi_big == pytest.approx(0.662440, abs=1e-6)
