"""The README's examples stay valid: its ```python blocks run in order, in
one namespace, as a reader would paste them; each ```json block parses, and
its canonical echo parses back to the same echo."""

import json
import re
from pathlib import Path

import pytest

from sdrkit.config import parse_pipeline_config

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```json\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)


def test_readme_has_config_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: json.loads(b)["encoder"]["type"])
def test_readme_config_parses_and_echo_round_trips(block):
    echo = parse_pipeline_config(json.loads(block)).spec
    assert parse_pipeline_config(json.loads(json.dumps(echo))).spec == echo


def test_readme_python_blocks_run_in_order(capsys):
    assert len(PYTHON_BLOCKS) >= 2
    namespace = {"__name__": "readme"}
    for block in PYTHON_BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    # the quick start's two overlaps, then the geospatial sparse line
    assert int(lines[0]) > 0 and lines[1] == "0"
    assert re.fullmatch(r"\d+(,\d+)*", lines[2])
    assert "samples_checked: 90" in lines
