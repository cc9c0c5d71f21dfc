"""Chunked dense `sdrkit encode` pinned to the per-row path.

`sdrkit encode --format dense` checks and keys each chunk of rows a column
at a time (the encoders' ``_keys`` step) and turns the chunk into text at
once (``_bits`` and `cli._dense_lines`); where the column step raises, it
halves the chunk until the failing row stands alone, and writes the rows
before it.  The oracle is the per-row path:
``to_dense_string(cfg.encode_row(row))`` for every row, and `per_row_run`,
the CLI's row reading and error report around
``to_sparse_string(cfg.encode_row(row))``, for stderr and the exit code.

* Random pipelines of every leaf type, at an n that puts 1, 2, 3 or 5 rows
  in a chunk or all rows in one, give the same bytes as the oracle, in
  chunks of that many rows.  The
  draws cover delta state across chunk edges, several top-w radii in one
  chunk, cyclic windows that wrap, unbounded hashes that collide (n <= 32)
  and cells at the signed 32-bit edges.
* Each encoder's ``_bits`` rows, from the key columns of its binding's
  column reader and ``_keys`` on a chunk of CSV text, written by a
  one-part `MultiEncoder` (`leaf_bits`), are uint64 indices below its n
  that hold the bits of its ``encode``.
* A data error inside the second chunk leaves exactly the rows before it on
  stdout, with the per-row path's stderr and exit code.
* A value error is the one reported, with only the rows before it written,
  when rows later in its chunk cannot be read (a field past the size limit,
  bytes that are not UTF-8), in the second chunk and in the last, partial
  one.
* `encode` writes every chunk into the first rows of one bit matrix and one
  text buffer for the run: a short last chunk, the halves of a failing
  chunk and runs one after another in one process, with other n, digit
  widths and formats, write only their own rows, in every format.
* A run allocates its bit matrix once (`MultiEncoder._matrix`), when its
  first row keys: once over chunks that include a halved one, and never
  for an input with no row that keys.
"""

import contextlib
import csv
import datetime as dt
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdrkit import cli
from sdrkit.composite import MultiEncoder
from sdrkit.config import parse_pipeline_config
from sdrkit.sdr import to_dense_string, to_sparse_string

from test_column_keys import leaf_bits

I32_MIN = -(1 << 31)
I32_MAX = (1 << 31) - 1
CHUNK_BYTES = cli._CHUNK_BYTES

finite = st.floats(-1e9, 1e9, allow_nan=False).map(repr)
seeds = st.integers(-(1 << 70), 1 << 70)


# --- leaf parts: (encoder spec, speed column or None, {column: text strategy}) ---

@st.composite
def scalar_part(draw, kind):
    lo = draw(st.floats(-100, 100))
    n = draw(st.integers(2, 300))
    spec = {"type": kind, "min": lo, "max": lo + draw(st.floats(0.5, 100)),
            "n": n, "w": draw(st.integers(1, min(n - 1, 40)))}
    values = st.one_of(finite, st.floats(lo - 10, lo + 110).map(repr),
                       st.integers(-10, 200).map(str))
    return spec, None, {"v": values}


@st.composite
def cyclic_part(draw):
    period = draw(st.floats(0.5, 1000))
    n = draw(st.integers(1, 200))
    # w up to n: most windows wrap past bit n - 1.
    spec = {"type": "cyclic", "period": period, "n": n, "w": draw(st.integers(1, n))}
    values = st.one_of(finite, st.floats(-period, 2 * period).map(repr),
                       st.sampled_from(["0", repr(period), repr(-period), "-1e-9"]))
    return spec, None, {"v": values}


@st.composite
def unbounded_part(draw):
    n = draw(st.integers(1, 32))  # few bits: the w hashed buckets collide
    spec = {"type": "scalar_unbounded", "resolution": draw(st.floats(0.01, 10)),
            "n": n, "w": draw(st.integers(1, n)), "seed": draw(seeds)}
    return spec, None, {"v": st.one_of(finite, st.floats(-50, 50).map(repr))}


@st.composite
def category_part(draw):
    labels = draw(st.lists(st.text("abcdef", min_size=1, max_size=3), min_size=1,
                           max_size=5, unique=True))
    spec = {"type": "category", "categories": labels, "w": draw(st.integers(1, 20)),
            "unknown_policy": "catch_all"}
    return spec, None, {"v": st.one_of(st.sampled_from(labels), st.text("abcxyz", max_size=3))}


@st.composite
def datetime_part(draw):
    names = draw(st.lists(st.sampled_from(["weekend", "day_of_week", "time_of_day",
                                           "month_of_year", "day_of_month"]),
                          min_size=1, max_size=5, unique=True))
    spec = {"type": "datetime"}
    for name in names:
        if name == "weekend":
            spec[name] = {"w": draw(st.integers(1, 20))}
        else:
            n = draw(st.integers(1, 60))
            spec[name] = {"n": n, "w": draw(st.integers(1, n))}
    stamps = st.datetimes(dt.datetime(1900, 1, 1), dt.datetime(2100, 12, 31))
    return spec, None, {"v": stamps.map(dt.datetime.isoformat)}


def ordinates(margin):
    """Grid ordinates whose radius-``margin`` neighborhood fits, edges included."""
    return st.one_of(st.integers(I32_MIN + margin, I32_MIN + margin + 3),
                     st.integers(I32_MAX - margin - 3, I32_MAX - margin),
                     st.integers(-50, 50)).map(str)


@st.composite
def fixed_part(draw):
    radius = draw(st.integers(0, 3))
    spec = {"type": "geospatial", "variant": "fixed", "n": draw(st.integers(1, 500)),
            "radius": radius, "seed": draw(seeds)}
    return spec, None, {"x": ordinates(radius), "y": ordinates(radius)}


@st.composite
def topw_part(draw):
    r_min = draw(st.integers(0, 2))
    r_max = r_min + draw(st.integers(0, 3))
    spec = {"type": "geospatial", "variant": "topw", "n": draw(st.integers(1, 500)),
            "radius": r_min, "radius_min": r_min, "radius_max": r_max,
            "w": draw(st.integers(1, (2 * r_min + 1) ** 2)),
            "speed_scale": draw(st.sampled_from([0.5, 1.0, 2.0])), "seed": draw(seeds)}
    # Speeds 0..8 pick several radii, so one chunk holds more than one.
    return spec, "speed", {"x": ordinates(r_max), "y": ordinates(r_max),
                           "speed": st.floats(0, 8).map(repr)}


PARTS = [scalar_part("scalar"), scalar_part("delta"), cyclic_part(), unbounded_part(),
         category_part(), datetime_part(), fixed_part(), topw_part()]


def bind(index, part):
    """The config part with its columns named after ``index``."""
    spec, speed_field, columns = part
    names = {c: f"c{index}{c}" for c in columns}
    geo = "x" in columns
    entry = {"field": [names["x"], names["y"]] if geo else names["v"], "encoder": spec}
    if speed_field:
        entry["speed_field"] = names[speed_field]
    return entry, {names[c]: values for c, values in columns.items()}


def dense_pad(multi, per_chunk):
    """A scalar of the remaining bits, which brings n + 1 to
    CHUNK_BYTES // per_chunk."""
    return {"type": "scalar", "min": 0, "max": 1,
            "n": CHUNK_BYTES // per_chunk - 1 - multi.n, "w": 1}


@st.composite
def pipelines(draw, pad=dense_pad):
    """(config, header, rows, per_chunk): a multi config, padded by the
    encoder ``pad(multi, per_chunk)`` so that a chunk holds the drawn number
    of rows (all of them when None), and CSV rows of text."""
    entries, columns = [], {}
    for i, part in enumerate(draw(st.lists(st.sampled_from(PARTS), min_size=1, max_size=4))):
        entry, cols = bind(i, draw(part))
        entries.append(entry)
        columns.update(cols)
    multi = parse_pipeline_config({"encoder": {"type": "multi", "parts": entries}}).multi
    per_chunk = draw(st.sampled_from([1, 2, 3, 5, None]))
    if per_chunk is not None:
        entries.append({"field": "pad", "encoder": pad(multi, per_chunk)})
        columns["pad"] = st.sampled_from(["0", "0.5", "1"])
    header = list(columns)
    rows = draw(st.lists(st.tuples(*columns.values()).map(list), min_size=1, max_size=12))
    return {"encoder": {"type": "multi", "parts": entries}}, header, rows, per_chunk


# --- running the CLI --------------------------------------------------------------

def csv_text(header, rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def encode(config, text, fmt="dense"):
    """(exit code, stdout, stderr) of `sdrkit encode` on the CSV ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, in_path, out_path = (Path(tmp) / name for name in ("c.json", "in.csv", "out"))
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        # A lone surrogate \udcXX in ``text`` writes the byte 0xXX, not UTF-8.
        in_path.write_text(text, encoding="utf-8", errors="surrogateescape")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["encode", "--config", str(cfg_path), "--input", str(in_path),
                             "--output", str(out_path), "--format", fmt])
        return code, out_path.read_text(encoding="utf-8"), err.getvalue()


def encode_counting_chunks(config, text, fmt, lines_function):
    """`encode`, and the number of rows in each chunk that reached the
    CLI's ``lines_function``."""
    real, sizes = getattr(cli, lines_function), []

    def counting(multi, keys, *args, **kwargs):
        sizes.append(len(keys))
        return real(multi, keys, *args, **kwargs)

    with mock.patch.object(cli, lines_function, counting):
        return encode(config, text, fmt), sizes


def expected_chunks(row_count, per_chunk):
    """The chunk sizes of ``row_count`` rows, ``per_chunk`` (None: all) at a time."""
    per_chunk = per_chunk or row_count
    return [min(per_chunk, row_count - i) for i in range(0, row_count, per_chunk)]


def per_row_run(config, text, self_describing=False):
    """(exit code, stdout, stderr) of the per-row path on the CSV ``text``:
    the config's warnings, then `cli._chunks` a row at a time, which reads
    the rows, writing ``to_sparse_string(cfg.encode_row(row))`` for each row
    as it is read, and raises a data error that `cli._reported` prints."""
    cfg = parse_pipeline_config(config)
    out, err = io.StringIO(), io.StringIO()
    cli._emit_warnings(cfg, err)
    with tempfile.TemporaryDirectory() as tmp:
        in_path = Path(tmp) / "in.csv"
        in_path.write_text(text, encoding="utf-8", errors="surrogateescape")

        def run():
            with cli._open_input(str(in_path)) as lines:
                for header, first, rows in cli._chunks(lines, cfg, 1):
                    for sdr in cli._each_value(header, rows, first, cfg.encode_row):
                        out.write(to_sparse_string(sdr, self_describing) + "\n")
            return cli.EXIT_OK

        code = cli._reported(run, err)
    return code, out.getvalue(), err.getvalue()


def per_row_dense(config, header, rows):
    """The oracle: `to_dense_string(encode_row(row))` of every row, in order."""
    cfg = parse_pipeline_config(config)
    return "".join(to_dense_string(cfg.encode_row(dict(zip(header, row)))) + "\n"
                   for row in rows)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(pipelines())
def test_chunked_dense_equals_the_per_row_path(case):
    config, header, rows, per_chunk = case
    (code, out, _), sizes = encode_counting_chunks(config, csv_text(header, rows), "dense",
                                                   "_dense_lines")
    assert code == 0
    assert sizes == expected_chunks(len(rows), per_chunk)
    assert out == per_row_dense(config, header, rows)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PARTS).flatmap(lambda part: part), st.data())
def test_each_encoder_bits_hold_its_encode(part, data):
    entry, columns = bind(0, part)
    config = {"encoder": entry["encoder"], "field": entry["field"]}
    if "speed_field" in entry:
        config["speed_field"] = entry["speed_field"]
    rows = data.draw(st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=12))
    chunked, per_value = (parse_pipeline_config(config).bound[0] for _ in range(2))
    enc = chunked.encoder
    cut = data.draw(st.integers(0, len(rows)))

    def bits(chunk):  # the column step of one chunk of CSV text
        texts = ([row[c] for row in chunk] for c in chunked.columns)
        keys = enc._keys(chunked._read_columns(*texts))
        block = leaf_bits(enc, keys, len(chunk))
        assert block.dtype == np.uint64
        return block

    # Two chunks: a delta's state carries across the cut.
    blocks = [bits(chunk) for chunk in (rows[:cut], rows[cut:]) if chunk]
    for block in blocks:
        assert block.dtype.kind in "iu" and block.shape[1] == enc.w
        assert ((0 <= block) & (block < enc.n)).all()
    sdrs = [per_value.encoder.encode(per_value.value_from_row(row)) for row in rows]
    assert [sorted(set(row)) for row in np.vstack(blocks).tolist()] == [
        list(sdr.active) for sdr in sdrs]


def test_delta_change_past_the_float_range_clamps():
    config = {"encoder": {"type": "delta", "min": -5, "max": 5, "n": 60, "w": 21}, "field": "v"}
    rows = [["-1e308"], ["1e308"], ["-1e308"]]
    code, out, _ = encode(config, csv_text(["v"], rows))
    assert code == 0
    assert out == per_row_dense(config, ["v"], rows)
    # a zero change, then +inf and -inf: the middle bucket, the top and the bottom
    assert [line.index("1") for line in out.splitlines()] == [19, 39, 0]


# --- data errors inside a chunk ------------------------------------------------------

ERROR_PARTS = [
    {"field": "level", "encoder": {"type": "delta", "min": -5, "max": 5, "n": 60, "w": 5}},
    {"field": "label", "encoder": {"type": "category", "categories": ["a", "b"], "w": 5}},
    {"field": "temp", "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 50, "w": 5}},
    {"field": ["x", "y"], "encoder": {"type": "geospatial", "variant": "fixed", "n": 100,
                                      "radius": 2}},
    {"field": ["u", "v"], "speed_field": "speed",
     "encoder": {"type": "geospatial", "variant": "topw", "n": 100, "w": 5, "radius": 1,
                 "radius_min": 1, "radius_max": 3, "speed_scale": 1.0}},
]
ROWS_PER_CHUNK = 4
# A padding scalar brings n + 1 to CHUNK_BYTES // 4, so each chunk holds 4 rows.
PAD_N = (CHUNK_BYTES // ROWS_PER_CHUNK - 1
         - parse_pipeline_config({"encoder": {"type": "multi", "parts": ERROR_PARTS}}).multi.n)
ERROR_CONFIG = {"encoder": {"type": "multi", "parts": [
    *ERROR_PARTS,
    {"field": "pad", "encoder": {"type": "scalar", "min": 0, "max": 1, "n": PAD_N, "w": 1}},
]}}
HEADER = ["level", "label", "temp", "x", "y", "u", "v", "speed", "pad"]
ROWS = [[repr(0.7 * i - 2), "ab"[i % 2], str(4 * i), str(i), str(-i), str(i // 2), "3",
         repr(i / 3), "0"] for i in range(10)]
FAILING = ROWS_PER_CHUNK + 2  # row 6, the middle of the second chunk


def test_error_config_puts_four_rows_in_a_chunk():
    n = parse_pipeline_config(ERROR_CONFIG).multi.n
    assert CHUNK_BYTES // (n + 1) == ROWS_PER_CHUNK


def with_row(row_number, column, text):
    rows = [list(row) for row in ROWS]
    rows[row_number - 1][HEADER.index(column)] = text
    return rows


# Rows with one error in row FAILING, each a different kind of data error.
FAILING_ROWS = [
    pytest.param(with_row(FAILING, "label", "c"), id="unknown-category"),
    pytest.param(with_row(FAILING, "temp", "inf"), id="non-finite-scalar"),
    pytest.param(with_row(FAILING, "temp", "nan"), id="nan-scalar"),
    pytest.param(with_row(FAILING, "temp", "warm"), id="unparsable-number"),
    pytest.param([*ROWS[:FAILING - 1], ROWS[FAILING - 1] + ["extra"], *ROWS[FAILING:]],
                 id="wrong-field-count"),
    pytest.param(with_row(FAILING, "x", str(I32_MAX)), id="neighborhood-off-the-grid"),
    pytest.param(with_row(FAILING, "speed", "-1"), id="negative-topw-speed"),
    pytest.param(with_row(FAILING, "label", "a" * 131073), id="field-past-the-size-limit"),
    pytest.param(with_row(FAILING, "label", "\udce9"), id="not-utf-8"),  # the byte 0xe9
]


@pytest.mark.parametrize("rows", FAILING_ROWS)
def test_data_error_mid_chunk_matches_the_per_row_path(rows):
    text = csv_text(HEADER, rows)
    code, out, err = encode(ERROR_CONFIG, text)
    per_row_code, _, per_row_err = per_row_run(ERROR_CONFIG, text)
    assert (code, err) == (per_row_code, per_row_err)
    assert code == cli.EXIT_DATA
    assert f"data error: row {FAILING}: " in err
    # The delta field, first in each row, saw the failing row too; the rows
    # before it are still exactly the per-row encodings.
    assert out == per_row_dense(ERROR_CONFIG, HEADER, ROWS[:FAILING - 1])


def test_the_first_failing_row_is_reported():
    rows = with_row(FAILING, "label", "c")
    rows[FAILING] = rows[FAILING] + ["extra"]  # a parse error on the next row
    code, out, err = encode(ERROR_CONFIG, csv_text(HEADER, rows))
    assert code == cli.EXIT_DATA
    assert err.endswith(f"data error: row {FAILING}: field 'label': unknown category "
                        "'c'; known: ['a', 'b']\n")
    assert out == per_row_dense(ERROR_CONFIG, HEADER, ROWS[:FAILING - 1])


def value_error_then(failing, *later):
    """ROWS with an unknown label in row ``failing`` and each text of
    ``later`` as the label of a row after it, in turn."""
    rows = with_row(failing, "label", "c")
    for row, text in enumerate(later, failing + 1):
        rows[row - 1][HEADER.index("label")] = text
    return rows


LONG_FIELD = "a" * 131073  # past csv.field_size_limit()
NOT_UTF_8 = "\udce9"  # the byte 0xe9
LAST_CHUNK = 2 * ROWS_PER_CHUNK + 1  # row 9, the first of the last chunk's 2
# (rows, the row of the value error): rows that cannot be read later in
# the value error's chunk do not hide it.
VALUE_ERROR_FIRST = [
    pytest.param(value_error_then(FAILING, LONG_FIELD, NOT_UTF_8), FAILING,
                 id="mid-chunk-then-long-field-then-not-utf-8"),
    pytest.param(value_error_then(LAST_CHUNK), LAST_CHUNK, id="last-chunk"),
    pytest.param(value_error_then(LAST_CHUNK, LONG_FIELD), LAST_CHUNK,
                 id="last-chunk-then-long-field"),
    pytest.param(value_error_then(LAST_CHUNK, NOT_UTF_8), LAST_CHUNK,
                 id="last-chunk-then-not-utf-8"),
]


def value_error_message(row):
    return f"data error: row {row}: field 'label': unknown category 'c'; known: ['a', 'b']\n"


@pytest.mark.parametrize("rows, failing", VALUE_ERROR_FIRST)
def test_a_value_error_before_unreadable_rows_is_reported(rows, failing):
    text = csv_text(HEADER, rows)
    code, out, err = encode(ERROR_CONFIG, text)
    per_row_code, _, per_row_err = per_row_run(ERROR_CONFIG, text)
    assert (code, err) == (per_row_code, per_row_err)
    assert code == cli.EXIT_DATA
    assert err.endswith(value_error_message(failing))
    assert out == per_row_dense(ERROR_CONFIG, HEADER, ROWS[:failing - 1])


class WriteRecorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


# Rows and the number of lines in each write, at 4 rows per chunk.
WRITE_CASES = [
    (ROWS, [4, 4, 2]),
    (with_row(FAILING, "label", "c"), [4, 1]),  # the rows before the error
    (ROWS[:ROWS_PER_CHUNK], [4]),
]


def check_each_chunk_is_one_write(tmp_path, config, fmt, rows, lines_per_write):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    in_path = tmp_path / "in.csv"
    in_path.write_text(csv_text(HEADER, rows), encoding="utf-8")
    out = WriteRecorder()
    with mock.patch("sys.stdout", out), mock.patch("sys.stderr", out):
        code = cli.main(["encode", "--config", str(cfg_path), "--input", str(in_path),
                         "--format", fmt])
    # print() writes a message and its newline in two writes; skip both.
    lines = [text for text in out.writes if text != "\n" and set(text) <= set("0123456789,\n")]
    assert [text.count("\n") for text in lines] == lines_per_write
    assert all(text.endswith("\n") for text in lines)
    if code != 0:  # the pending rows are written before the error is printed
        assert out.getvalue().splitlines()[-1].startswith(f"data error: row {FAILING}: ")


@pytest.mark.parametrize("rows, lines_per_write", WRITE_CASES)
def test_each_chunk_is_one_write(tmp_path, rows, lines_per_write):
    check_each_chunk_is_one_write(tmp_path, ERROR_CONFIG, "dense", rows, lines_per_write)


# --- one set of chunk buffers per run --------------------------------------------

def per_row_out(config, rows, fmt):
    """The per-row path's lines of ``rows`` in ``fmt``."""
    if fmt == "dense":
        return per_row_dense(config, HEADER, rows)
    return per_row_run(config, csv_text(HEADER, rows), fmt == "sparse-n")[1]


def encode_in_chunks(rows, fmt):
    """`encode_counting_chunks` of ERROR_CONFIG on ``rows``, ROWS_PER_CHUNK
    rows a chunk in every format."""
    w = parse_pipeline_config(ERROR_CONFIG).multi.w
    lines_function = "_dense_lines" if fmt == "dense" else "_sparse_lines"
    with mock.patch.object(cli, "_CHUNK_CELLS", ROWS_PER_CHUNK * w):
        return encode_counting_chunks(ERROR_CONFIG, csv_text(HEADER, rows), fmt, lines_function)


@pytest.mark.parametrize("fmt", ["dense", "sparse", "sparse-n"])
def test_a_short_last_chunk_writes_only_its_rows(fmt):
    (code, out, _), sizes = encode_in_chunks(ROWS, fmt)
    assert code == cli.EXIT_OK
    assert sizes == [4, 4, 2]  # the buffers' last two rows still hold the second chunk's
    assert out == per_row_out(ERROR_CONFIG, ROWS, fmt)


@pytest.mark.parametrize("fmt", ["dense", "sparse", "sparse-n"])
def test_the_halves_of_a_failing_chunk_write_their_rows(fmt):
    failing = 2 * ROWS_PER_CHUNK  # the last row of the second chunk
    rows = with_row(failing, "label", "c")
    (code, out, err), sizes = encode_in_chunks(rows, fmt)
    assert sizes == [4, 2, 1]  # rows 1-4, then the halves 5-6 and 7 before row 8
    per_row_code, _, per_row_err = per_row_run(ERROR_CONFIG, csv_text(HEADER, rows))
    assert (code, err) == (per_row_code, per_row_err)
    assert code == cli.EXIT_DATA and err.endswith(value_error_message(failing))
    assert out == per_row_out(ERROR_CONFIG, ROWS[:failing - 1], fmt)


def test_runs_in_one_process_share_no_buffer():
    small = {"encoder": {"type": "multi", "parts": [
        {"field": "temp", "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 40, "w": 3}},
        {"field": "label", "encoder": {"type": "category", "categories": ["a", "b"], "w": 2}},
    ]}}
    runs = [(ERROR_CONFIG, "sparse"), (small, "sparse-n"), (ERROR_CONFIG, "dense"),
            (small, "dense"), (ERROR_CONFIG, "sparse-n"), (small, "sparse")]
    for config, fmt in runs:  # n of 5 digits and 2, lines longer and shorter than the last
        code, out, _ = encode(config, csv_text(HEADER, ROWS), fmt)
        assert code == cli.EXIT_OK
        assert out == per_row_out(config, ROWS, fmt)


def counting_matrices():
    """`MultiEncoder._matrix`, patched to count its calls (``call_count``)."""
    return mock.patch.object(MultiEncoder, "_matrix", autospec=True,
                             side_effect=MultiEncoder._matrix)


@pytest.mark.parametrize("fmt", ["dense", "sparse", "sparse-n"])
def test_a_run_allocates_its_matrix_once(fmt):
    failing = 2 * ROWS_PER_CHUNK + 2  # the last row, the second of the third chunk
    rows = with_row(failing, "label", "c")
    with counting_matrices() as matrices:
        (code, out, err), sizes = encode_in_chunks(rows, fmt)
    assert sizes == [4, 4, 1]  # the third chunk halved: row 9, before row 10
    assert code == cli.EXIT_DATA and err.endswith(value_error_message(failing))
    assert out == per_row_out(ERROR_CONFIG, ROWS[:failing - 1], fmt)
    assert matrices.call_count == 1


@pytest.mark.parametrize("rows, code", [
    pytest.param([], cli.EXIT_OK, id="header-only"),
    pytest.param(with_row(1, "label", "c")[:1], cli.EXIT_DATA, id="first-row-fails"),
])
@pytest.mark.parametrize("fmt", ["dense", "sparse", "sparse-n"])
def test_no_row_keyed_allocates_no_matrix(rows, code, fmt):
    with counting_matrices() as matrices:
        (got, out, _), sizes = encode_in_chunks(rows, fmt)
    assert (got, out, sizes, matrices.call_count) == (code, "", [], 0)
