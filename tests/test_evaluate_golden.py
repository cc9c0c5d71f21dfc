"""`sdrkit evaluate` reports pinned byte for byte, one per named distance.

Each `tests/data/evaluate/<name>.json` config scores an encoder against the
named distance on the ~50 rows of `<name>.csv`; `<name>.stdout` is the report
the CLI printed when the file was written.  A change to any distance, to the
evaluator or to the report format shows here as a diff.
"""

from pathlib import Path

import pytest

from sdrkit import cli

DATA = Path(__file__).resolve().parent / "data" / "evaluate"


@pytest.mark.parametrize("name", ["absolute", "circular", "chebyshev", "discrete"])
def test_evaluate_report_is_byte_identical(name, capsys):
    code = cli.main(["evaluate", "--config", str(DATA / f"{name}.json"),
                     "--input", str(DATA / f"{name}.csv")])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"{name}.stdout").read_text(encoding="utf-8")
