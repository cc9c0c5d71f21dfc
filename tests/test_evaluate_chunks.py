"""`sdrkit evaluate` keyed by chunk, pinned to the library path.

`sdrkit evaluate` reads its samples in chunks, keys each a column at a time
through `cli._keyed_runs`, the step that `encode` writes from, and counts
the overlaps from the bit matrix of the keys; the library's
`evaluate_encoder` counts them from each sample's SDR.

* For every single-encoder type, the CLI's report, read in chunks of 3
  rows so that delta state crosses chunk edges, is the one
  ``evaluate_encoder(binding.encoder.encode, …)`` gives on the samples that
  ``value_from_row`` reads, and the CLI builds no `SDR` on the way.
* The matrix the overlaps are counted from holds each sample's encoding:
  every chunk keys into a matrix of its own, which no later chunk writes.
* No chunk's matrix is alive once they are joined into the samples'
  matrix, so the evaluator never holds the samples' bits twice.
* A sample that fails to encode gives the line `encode` prints for it,
  naming the row.
* Reading stops at the first chunk that takes the sample count past
  `MAX_EVALUATE_SAMPLES`.
"""

import csv
import io
import json
import random
import sys
import weakref
from unittest import mock

import pytest

from sdrkit import cli, quality
from sdrkit.composite import MultiEncoder
from sdrkit.config import parse_pipeline_config
from sdrkit.quality import evaluate_encoder
from sdrkit.sdr import SDR

ROWS = 40
PER_CHUNK = 3


def numbers(lo, hi):
    return lambda rng: f"{rng.uniform(lo, hi):.2f}"


# name: (config, {column: draw of one text})
CASES = {
    "scalar": ({"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21},
                "field": "v", "distance": "absolute"}, {"v": numbers(-5, 50)}),
    "cyclic": ({"encoder": {"type": "cyclic", "period": 24, "n": 100, "w": 21},
                "field": "v", "distance": {"name": "circular", "period": 24}},
               {"v": numbers(-30, 30)}),
    "category-catch-all": ({"encoder": {"type": "category", "categories": ["a", "b", "c"],
                                        "w": 5, "unknown_policy": "catch_all"},
                            "field": "v", "distance": "discrete"},
                           {"v": lambda rng: rng.choice(["a", "b", "c", "zz", "q"])}),
    "delta": ({"encoder": {"type": "delta", "min": -3, "max": 3, "n": 80, "w": 11},
               "field": "v", "distance": "absolute"}, {"v": numbers(-2, 2)}),
    "unbounded-n-2**70": ({"encoder": {"type": "scalar_unbounded", "resolution": 0.5,
                                       "n": 1 << 70, "w": 21, "seed": 3},
                           "field": "v", "distance": "absolute"}, {"v": numbers(-20, 20)}),
    "geospatial-fixed": ({"encoder": {"type": "geospatial", "n": 1000, "radius": 1,
                                      "seed": 7},
                          "field": ["x", "y"], "distance": "chebyshev"},
                         {"x": lambda rng: str(rng.randint(-6, 6)),
                          "y": lambda rng: str(rng.randint(-6, 6))}),
    "geospatial-cell-size": ({"encoder": {"type": "geospatial", "n": 1000, "radius": 1,
                                          "cell_size": 50000.0},
                              "field": ["lat", "lon"], "distance": "chebyshev"},
                             {"lat": numbers(40, 42), "lon": numbers(-3, 3)}),
    "geospatial-topw-speed": ({"encoder": {"type": "geospatial", "n": 1000, "variant": "topw",
                                           "w": 9, "radius": 1, "radius_min": 1,
                                           "radius_max": 3, "speed_scale": 1.0},
                               "field": ["x", "y"], "speed_field": "s",
                               "distance": {"expression": "max(abs(a[0][0] - b[0][0]), "
                                                          "abs(a[0][1] - b[0][1])) "
                                                          "+ abs(a[1] - b[1])"}},
                              {"x": lambda rng: str(rng.randint(-6, 6)),
                               "y": lambda rng: str(rng.randint(-6, 6)),
                               "s": numbers(0, 4)}),
    "datetime": ({"encoder": {"type": "datetime", "weekend": {"w": 5},
                              "day_of_week": {"n": 70, "w": 11},
                              "time_of_day": {"n": 48, "w": 9}},
                  "field": "v", "distance": "discrete"},
                 {"v": lambda rng: f"2024-03-{rng.randint(1, 14):02d}T"
                                   f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"}),
}


def csv_text(draws, seed):
    rng = random.Random(seed)
    lines = [",".join(draws)]
    lines += [",".join(draw(rng) for draw in draws.values()) for _ in range(ROWS)]
    return "\n".join(lines) + "\n"


def library_report(config, text):
    """The report of `evaluate_encoder` on a fresh pipeline, each sample
    read by its binding's ``value_from_row`` and encoded one at a time."""
    cfg = parse_pipeline_config(config)
    binding = cfg.bound[0]
    samples = [binding.value_from_row(row) for row in csv.DictReader(io.StringIO(text))]
    return evaluate_encoder(binding.encoder.encode, cfg.distance, samples).to_text()


def evaluate(config, text, tmp_path, capsys):
    """(exit code, stdout, stderr, SDRs built, chunk sizes keyed) of
    ``sdrkit evaluate`` in chunks of PER_CHUNK rows."""
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    w = parse_pipeline_config(config).multi.w
    with mock.patch.object(cli, "_CHUNK_CELLS", PER_CHUNK * w), \
         mock.patch.object(SDR, "_trusted", side_effect=SDR._trusted) as trusted, \
         mock.patch.object(SDR, "__post_init__", autospec=True,
                           side_effect=SDR.__post_init__) as checked, \
         mock.patch.object(cli, "_keyed_runs", wraps=cli._keyed_runs) as chunks:
        code = cli.main(["evaluate", "--config", str(tmp_path / "cfg.json"),
                         "--input", str(tmp_path / "in.csv")])
    out, err = capsys.readouterr()
    sizes = [len(call.args[2]) for call in chunks.call_args_list]
    return code, out, err, trusted.call_count + checked.call_count, sizes


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", CASES)
def test_the_cli_report_is_the_library_report(name, seed, tmp_path, capsys):
    config, draws = CASES[name]
    text = csv_text(draws, seed)
    code, out, _, sdrs, sizes = evaluate(config, text, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert out.split("quadruple_seed: 0\n")[1] == library_report(config, text) + "\n"
    assert sdrs == 0
    assert sizes == [PER_CHUNK] * (ROWS // PER_CHUNK) + [ROWS % PER_CHUNK]


def test_a_sample_that_fails_to_encode_is_named_as_encode_names_it(tmp_path, capsys):
    config = {"encoder": {"type": "category", "categories": ["a", "b"], "w": 3,
                          "unknown_policy": "error"}, "field": "k", "distance": "discrete"}
    text = "k\na\nb\na\nzz\nb\n"
    code, out, err, _, _ = evaluate(config, text, tmp_path, capsys)
    assert (code, out) == (cli.EXIT_DATA, "")
    assert cli.main(["encode", "--config", str(tmp_path / "cfg.json"),
                     "--input", str(tmp_path / "in.csv")]) == cli.EXIT_DATA
    encoded = capsys.readouterr()
    assert err.splitlines()[-1] == encoded.err.splitlines()[-1] == (
        "data error: row 4: field 'k': unknown category 'zz'; known: ['a', 'b']")


def test_reading_stops_at_the_sample_bound(tmp_path, capsys, monkeypatch):
    bound = quality.MAX_EVALUATE_SAMPLES
    config = CASES["scalar"][0]
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    read = []

    def lines():  # stdin as text, with no buffer: the CLI reads it as is
        yield "v\n"
        for i in range(3 * bound):
            read.append(i)
            yield f"{i % 45}\n"

    monkeypatch.setattr(sys, "stdin", lines())
    code = cli.main(["evaluate", "--config", str(tmp_path / "cfg.json"), "--input", "-"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_DATA, "")
    assert err.splitlines()[-1] == (
        f"data error: the input has more than MAX_EVALUATE_SAMPLES ({bound}) samples, "
        "which bounds the memory of the m x m matrices")
    per_chunk = cli._CHUNK_CELLS // parse_pipeline_config(config).multi.w
    assert bound < len(read) <= bound + per_chunk


@pytest.mark.parametrize("name", CASES)
def test_each_chunk_keeps_its_own_matrix(name, tmp_path, capsys):
    config, draws = CASES[name]
    text = csv_text(draws, 0)
    real, matrices = cli._evaluate, []

    def recording(bits, *args):  # the matrix that the overlaps are counted from
        matrices.append(bits())  # once: joining frees the chunks' matrices
        return real(lambda: matrices[-1], *args)

    with mock.patch.object(cli, "_evaluate", recording):
        code, _, _, _, sizes = evaluate(config, text, tmp_path, capsys)
    assert code == cli.EXIT_OK and len(sizes) >= 3
    binding = parse_pipeline_config(config).bound[0]
    sdrs = [binding.encoder.encode(binding.value_from_row(row))
            for row in csv.DictReader(io.StringIO(text))]
    assert [sorted(set(row)) for row in matrices[0].tolist()] == [list(sdr.active) for sdr in sdrs]


@pytest.mark.parametrize("name", ["scalar", "unbounded-n-2**70", "geospatial-fixed"])
def test_no_chunk_matrix_outlives_the_join(name, tmp_path, capsys, monkeypatch):
    config, draws = CASES[name]
    real_matrix, real_evaluate, blocks, alive = MultiEncoder._matrix, cli._evaluate, [], []

    def allocating(self, rows):  # each chunk's matrix, as weakly held
        block = real_matrix(self, rows)
        blocks.append(weakref.ref(block))
        return block

    def joining(bits, *args):
        matrix = bits()
        alive.extend(block() is not None for block in blocks)
        return real_evaluate(lambda: matrix, *args)

    monkeypatch.setattr(MultiEncoder, "_matrix", allocating)
    with mock.patch.object(cli, "_evaluate", joining):
        code, _, _, _, sizes = evaluate(config, csv_text(draws, 0), tmp_path, capsys)
    assert code == cli.EXIT_OK and len(sizes) >= 3
    assert alive == [False] * len(sizes)
