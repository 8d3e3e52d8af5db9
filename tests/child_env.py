"""Environment for tests that run ``python -m blockboot.cli`` in a child process."""

from __future__ import annotations

import os
from pathlib import Path

import blockboot


def child_env(**overrides: str) -> dict[str, str]:
    """``os.environ`` with ``overrides``, and the directory holding the
    imported ``blockboot`` package first on ``PYTHONPATH``.

    The child then imports the same package as the test process, whether it
    is installed or only on the test process's ``sys.path``.
    """
    env = dict(os.environ, **overrides)
    package_root = str(Path(blockboot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env
