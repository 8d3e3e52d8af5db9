"""The README's library quickstart runs as written, and its INI blocks show the config keys."""

import pathlib
import re
import subprocess
import sys

from blockboot import config
from child_env import child_env

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs_without_warnings():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


KEYS = {"process": config._PROCESS, "process_y": config._PROCESS, "grid": config._GRID,
        "experiment": config._EXPERIMENT}


def ini_blocks() -> list[dict[str, dict[str, str | None]]]:
    """Per annotated INI block: ``{section: {key: value, or None where shown commented out}}``."""
    blocks = []
    for text in re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL):
        sections = {}
        for line in text.splitlines():
            if header := re.match(r"\[(\w+)\]", line):
                keys = sections.setdefault(header[1], {})
            elif setting := re.match(r"(;\s*)?(\w+)\s*=\s*(.*?)\s*(;.*)?$", line):
                keys[setting[2]] = None if setting[1] else setting[3]
        blocks.append(sections)
    return blocks


def test_ini_blocks_name_only_keys_their_section_accepts():
    blocks = ini_blocks()
    assert [list(sections) for sections in blocks] == [
        ["process", "grid"], ["experiment", "process", "process_y", "grid"]]
    for sections in blocks:
        for name, keys in sections.items():
            assert keys.keys() <= KEYS[name].keys(), name


def test_ini_blocks_show_every_key_of_process_grid_and_experiment():
    for name in ("process", "grid", "experiment"):
        shown = {key for sections in ini_blocks() for key in sections.get(name, {})}
        assert shown == KEYS[name].keys(), name


def test_experiment_block_as_set_loads(tmp_path):
    """What the experiment block sets, not what it shows commented out, is a valid file:
    it sets no alternatives together, nor a key an experiment file refuses."""
    sections = ini_blocks()[1]
    path = tmp_path / "experiment.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                                    for key, value in sections[name].items()
                                                    if value is not None)
                            for name in ("experiment", "process")))
    assert config.load_experiment_config(str(path)).block_length == 10
