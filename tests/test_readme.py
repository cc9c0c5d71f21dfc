"""The README's config examples stay valid: each ```json block parses, and
its canonical echo parses back to the same echo."""

import json
import re
from pathlib import Path

import pytest

from sdrkit.config import parse_pipeline_config, serialize_pipeline

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_config_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: json.loads(b)["encoder"]["type"])
def test_readme_config_parses_and_echo_round_trips(block):
    echo = serialize_pipeline(parse_pipeline_config(json.loads(block)))
    assert serialize_pipeline(parse_pipeline_config(json.loads(json.dumps(echo)))) == echo
