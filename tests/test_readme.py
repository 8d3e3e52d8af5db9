"""The README's library quickstart runs as written."""

import pathlib
import re
import subprocess
import sys

from child_env import child_env

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs_without_warnings():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
