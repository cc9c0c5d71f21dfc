"""`sdrkit evaluate` reports pinned byte for byte, one per named distance
and one past 2**64 bits.

Each `tests/data/evaluate/<name>.json` config scores an encoder against the
named distance on the ~50 rows of `<name>.csv`; `<name>.stdout` is the report
the CLI printed when the file was written.  `past_2_64` scores an unbounded
scalar of n = 2**70 bits against `absolute`, whose bit matrix holds Python
ints.  A change to any distance, to the evaluator or to the report format
shows here as a diff.
"""

from pathlib import Path

import pytest

from sdrkit import cli

DATA = Path(__file__).resolve().parent / "data" / "evaluate"


@pytest.mark.parametrize("name", ["absolute", "circular", "chebyshev", "discrete", "past_2_64"])
def test_evaluate_report_is_byte_identical(name, capsys):
    code = cli.main(["evaluate", "--config", str(DATA / f"{name}.json"),
                     "--input", str(DATA / f"{name}.csv")])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"{name}.stdout").read_text(encoding="utf-8")
