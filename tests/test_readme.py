"""README.md's python examples run as written.

Each ```python block is run on its own, in a fresh interpreter in an
empty directory, with `src` on the path, and must exit 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = [(README.count("\n", 0, m.start()) + 2, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", README,
                               re.MULTILINE | re.DOTALL)]


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("code", [code for _, code in BLOCKS],
                         ids=[f"line-{line}" for line, _ in BLOCKS])
def test_a_readme_example_runs(tmp_path, code):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
