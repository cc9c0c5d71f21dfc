"""`sdrkit evaluate` keyed in one step, pinned to the library path.

`sdrkit evaluate` reads all its samples as one chunk and keys it a column
at a time through one `cli._keyed_runs` call, the step that `encode` writes
from, into one bit matrix, from which it counts the overlaps; the library's
`evaluate_encoder` counts them from each sample's SDR.

* For every single-encoder type, the CLI's report is the one
  ``evaluate_encoder(binding.encoder.encode, …)`` gives on the samples that
  ``value_from_row`` reads; the CLI keys all 40 rows in one `_keyed_runs`
  call and builds no `SDR` on the way.
* The matrix the overlaps are counted from holds each sample's encoding.
* The samples' matrix is not alive once `_overlap_matrix` has returned, so
  the m x m steps after it do not hold it.
* On the evaluate-scalar bench's shape (m = 1,500), the command's traced
  peak is at most 24 bytes per m x m cell: it holds no m x m overlap
  matrix and no mask, and frees the distance matrix before the ranks.
* `_keyed_runs`, which evaluate's one matrix rests on, yields exactly one
  run of a chunk whose rows all key, and otherwise ends by raising its
  first failing row's error, after the runs of the rows before it.
* A sample that fails to encode gives the line `encode` prints for it,
  naming the row.
* Reading stops at `MAX_EVALUATE_SAMPLES` + 1 rows, before any row is
  keyed, so such an input gets the bound's error even where an early row
  would fail to encode.
* m x w past `MAX_EVALUATE_CELLS` is refused before any row is keyed;
  exactly at the bound, the input is evaluated.
* The samples' bit matrix is allocated only once the distance has passed
  the axiom checks: a distance that fails on a pair allocates none.
"""

import csv
import io
import json
import random
import sys
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdrkit import cli, quality
from sdrkit.composite import MultiEncoder
from sdrkit.config import parse_pipeline_config
from sdrkit.errors import InputError
from sdrkit.quality import evaluate_encoder
from sdrkit.sdr import SDR

from test_dense_chunks import HEADER, I32_MAX
from test_sparse_chunks import ERROR_CONFIG

ROWS = 40


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
    """(exit code, stdout, stderr, SDRs built, row counts keyed) of
    ``sdrkit evaluate``, one count per `_keyed_runs` call."""
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    with mock.patch.object(SDR, "_trusted", side_effect=SDR._trusted) as trusted, \
         mock.patch.object(SDR, "__post_init__", autospec=True,
                           side_effect=SDR.__post_init__) as checked, \
         mock.patch.object(cli, "_keyed_runs", wraps=cli._keyed_runs) as keyed:
        code = cli.main(["evaluate", "--config", str(tmp_path / "cfg.json"),
                         "--input", str(tmp_path / "in.csv")])
    out, err = capsys.readouterr()
    sizes = [len(call.args[2]) for call in keyed.call_args_list]
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
    assert sizes == [ROWS]


@pytest.mark.parametrize("name", CASES)
def test_each_chunk_keeps_its_own_matrix(name, tmp_path, capsys, monkeypatch):
    """The one chunk's matrix, which the overlaps are counted from, holds
    each sample's encoding."""
    config, draws = CASES[name]
    text = csv_text(draws, 0)
    real, counted = quality._overlap_matrix, []

    def counting(bits):
        counted.append(bits.tolist())
        return real(bits)

    monkeypatch.setattr(quality, "_overlap_matrix", counting)
    code, _, _, _, sizes = evaluate(config, text, tmp_path, capsys)
    assert code == cli.EXIT_OK and sizes == [ROWS] and len(counted) == 1
    binding = parse_pipeline_config(config).bound[0]
    sdrs = [binding.encoder.encode(binding.value_from_row(row))
            for row in csv.DictReader(io.StringIO(text))]
    assert [sorted(set(row)) for row in counted[0]] == [list(sdr.active) for sdr in sdrs]


@pytest.mark.parametrize("name", ["scalar", "unbounded-n-2**70", "geospatial-fixed"])
def test_no_matrix_outlives_the_overlap_count(name, tmp_path, capsys, monkeypatch):
    """Weak references to the matrix the samples are keyed into and to the
    one the overlaps are counted from, read at the step after the count."""
    config, draws = CASES[name]
    real_matrix, real_overlap, real_rank = (MultiEncoder._matrix, quality._overlap_matrix,
                                            quality._rank_correlation)
    held, alive = [], []

    def allocating(self, rows):
        matrix = real_matrix(self, rows)
        held.append(weakref.ref(matrix))
        return matrix

    def counting(bits):
        held.append(weakref.ref(bits))
        return real_overlap(bits)

    def ranking(*args):  # the step after `_overlap_matrix` has returned
        alive.extend(ref() is not None for ref in held)
        return real_rank(*args)

    monkeypatch.setattr(MultiEncoder, "_matrix", allocating)
    monkeypatch.setattr(quality, "_overlap_matrix", counting)
    monkeypatch.setattr(quality, "_rank_correlation", ranking)
    code, _, _, _, sizes = evaluate(config, csv_text(draws, 0), tmp_path, capsys)
    assert code == cli.EXIT_OK and sizes == [ROWS]
    assert alive == [False, False]


def test_evaluate_peaks_within_24_bytes_per_cell(tmp_path, capsys):
    """m = 1,500 distinct scalar samples, n = 400 and w = 21: the peak that
    tracemalloc sees above the memory traced at entry.  The distance matrix
    is 8 bytes per cell; the 2 x P ranks are 8 more, the pair distances and
    their sort order 4 each, and np.corrcoef's copy of the ranks 8."""
    m = 1500
    config = {"encoder": {"type": "scalar", "min": 0, "max": 100, "n": 400, "w": 21},
              "field": "v", "distance": "absolute"}
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "in.csv").write_text("v\n" + "".join(f"{100 * i / m:.6f}\n" for i in range(m)),
                                     encoding="utf-8")
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        code = cli.main(["evaluate", "--config", str(tmp_path / "cfg.json"),
                         "--input", str(tmp_path / "in.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert f"samples_checked: {m}\n" in capsys.readouterr().out
    assert peak - entry <= 24 * m * m


# Values that the column step refuses, from the failing rows of `test_dense_chunks`.
BAD_VALUES = [("label", "c"), ("temp", "inf"), ("temp", "nan"), ("temp", "warm"),
              ("x", str(I32_MAX)), ("speed", "-1")]


def error_rows(count, bad):
    """``count`` rows of `ERROR_CONFIG`, drawn as `test_dense_chunks`' rows
    are, with the value ``bad[i]`` = (column, text) in row index i."""
    rows = [[repr(0.7 * i - 2), "ab"[i % 2], str(4 * i), str(i), str(-i), str(i // 2), "3",
             repr(i / 3), "0"] for i in range(count)]
    for i, (column, text) in bad.items():
        rows[i][HEADER.index(column)] = text
    return rows


chunks = st.integers(1, 40).flatmap(lambda count: st.tuples(
    st.just(count),
    st.dictionaries(st.integers(0, count - 1), st.sampled_from(BAD_VALUES), max_size=3)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chunks, st.integers(1, 50))
def test_a_chunk_keys_as_one_run_or_raises_its_first_error(chunk, first):
    count, bad = chunk
    rows, runs = error_rows(count, bad), []
    cfg, reference = parse_pipeline_config(ERROR_CONFIG), parse_pipeline_config(ERROR_CONFIG)
    if not bad:
        runs.extend(cli._keyed_runs(cfg, HEADER, rows, first))
        assert [size for size, _ in runs] == [count]
        multi, keys = cfg.multi, reference._chunk_keys(HEADER, rows)
        assert (multi._bits(runs[0][1], multi._matrix(count)).tolist()
                == multi._bits(keys, multi._matrix(count)).tolist())
        return
    with pytest.raises(InputError) as raised:
        runs.extend(cli._keyed_runs(cfg, HEADER, rows, first))
    with pytest.raises(InputError) as per_row:  # the per-row path's first error
        list(cli._each_value(HEADER, rows, first, reference.encode_row))
    assert str(raised.value) == str(per_row.value)
    assert str(raised.value).startswith(f"row {first + min(bad)}: ")
    assert sum(size for size, _ in runs) == min(bad)  # the rows before it, in its runs


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


SAMPLE_BOUND_ERROR = (f"data error: the input has more than MAX_EVALUATE_SAMPLES "
                      f"({quality.MAX_EVALUATE_SAMPLES}) samples, which bounds the memory of "
                      "the m x m matrices")


def evaluate_stdin(texts, tmp_path, capsys, monkeypatch):
    """(exit code, stdout, stderr, rows read, `_keyed_runs` calls) of
    ``sdrkit evaluate`` of the scalar case on the header "v" and then
    ``texts``, one a row, read from stdin as it asks for them."""
    (tmp_path / "cfg.json").write_text(json.dumps(CASES["scalar"][0]), encoding="utf-8")
    read = []

    def lines():  # stdin as text, with no buffer: the CLI reads it as is
        yield "v\n"
        for text in texts:
            read.append(text)
            yield f"{text}\n"

    monkeypatch.setattr(sys, "stdin", lines())
    with mock.patch.object(cli, "_keyed_runs", wraps=cli._keyed_runs) as keyed:
        code = cli.main(["evaluate", "--config", str(tmp_path / "cfg.json"), "--input", "-"])
    out, err = capsys.readouterr()
    return code, out, err, len(read), keyed.call_count


def test_reading_stops_at_the_sample_bound(tmp_path, capsys, monkeypatch):
    bound = quality.MAX_EVALUATE_SAMPLES
    texts = (str(i % 45) for i in range(3 * bound))
    code, out, err, read, keyed = evaluate_stdin(texts, tmp_path, capsys, monkeypatch)
    assert (code, out) == (cli.EXIT_DATA, "")
    assert err.splitlines()[-1] == SAMPLE_BOUND_ERROR
    assert (read, keyed) == (bound + 1, 0)


def test_past_the_sample_bound_an_early_bad_row_gets_the_bound_error(tmp_path, capsys,
                                                                      monkeypatch):
    texts = ["warm" if i == 4 else str(i % 45) for i in range(quality.MAX_EVALUATE_SAMPLES + 1)]
    code, out, err, _, keyed = evaluate_stdin(texts, tmp_path, capsys, monkeypatch)
    assert (code, out, keyed) == (cli.EXIT_DATA, "", 0)
    assert err.splitlines()[-1] == SAMPLE_BOUND_ERROR  # not row 5's own error


def test_the_cells_bound_takes_exactly_its_cells(tmp_path, capsys, monkeypatch):
    w = CASES["scalar"][0]["encoder"]["w"]
    monkeypatch.setattr(cli, "MAX_EVALUATE_CELLS", ROWS * w)
    texts = [str(i % 45) for i in range(ROWS + 1)]
    code, out, _, _, keyed = evaluate_stdin(texts[:ROWS], tmp_path, capsys, monkeypatch)
    assert (code, keyed) == (cli.EXIT_OK, 1) and out.startswith("# encoder evaluation\n")
    code, out, err, _, keyed = evaluate_stdin(texts, tmp_path, capsys, monkeypatch)
    assert (code, out, keyed) == (cli.EXIT_DATA, "", 0)
    assert err.splitlines()[-1] == (
        f"data error: the input has {ROWS + 1} samples of w = {w} bits, more than "
        f"MAX_EVALUATE_CELLS ({ROWS * w}) cells, which bounds the memory of the m x w bit "
        "matrix")


def test_a_failing_distance_allocates_no_bit_matrix(tmp_path, capsys):
    # a ZeroDivisionError on the first pair, (a, a)
    config = dict(CASES["scalar"][0], distance={"expression": "1 / (a - b)"})
    with mock.patch.object(MultiEncoder, "_matrix",
                           side_effect=AssertionError("allocated")) as allocated:
        code, out, err, _, sizes = evaluate(config, csv_text(CASES["scalar"][1], 0),
                                            tmp_path, capsys)
    assert (code, out, sizes, allocated.call_count) == (cli.EXIT_DATA, "", [ROWS], 0)
    assert err.splitlines()[-1].startswith("data error: distance failed on pair (")


def test_a_wide_encoder_is_refused_before_a_row_is_keyed(tmp_path, capsys):
    """Radius 200 (w = 401**2) over 1,000 samples, 4.8 times the bound: a
    1.2 GiB matrix, so a call to `_keyed_runs` fails the test instead."""
    config = {"encoder": {"type": "geospatial", "n": 100_000, "radius": 200},
              "field": ["x", "y"], "distance": "chebyshev"}
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "in.csv").write_text("x,y\n" + "".join(f"{i},{-i}\n" for i in range(1000)),
                                     encoding="utf-8")
    with mock.patch.object(cli, "_keyed_runs", side_effect=AssertionError("keyed")) as keyed:
        code = cli.main(["evaluate", "--config", str(tmp_path / "cfg.json"),
                         "--input", str(tmp_path / "in.csv")])
    out, err = capsys.readouterr()
    assert (code, out, keyed.call_count) == (cli.EXIT_DATA, "", 0)
    assert err.splitlines()[-1].startswith(
        "data error: the input has 1000 samples of w = 160801 bits, more than MAX_EVALUATE_CELLS ")
