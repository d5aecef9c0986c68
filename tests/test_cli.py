"""CSV ingestion, report writing, and the `tad` command surface."""

import concurrent.futures
import csv
import enum
import json
import math
import types
import tempfile
import warnings
from dataclasses import MISSING
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from tadkit import cli
from tadkit.cli import (
    TASK_PARAMS,
    ExperimentConfig,
    RunReport,
    _classify,
    _jsonable,
    _load_label_file,
    _parse_float,
    _parse_timestamp,
    _read_rows,
    _write_columns,
    load_attributes_csv,
    load_covariates_csv,
    load_labeled_csv,
    load_matrix_csv,
    load_series_csv,
    main,
    strip_timings,
    write_report,
    write_series_csv,
)
from tadkit import __version__
from tadkit.core import (
    AlignmentError,
    CovariateSet,
    EventStream,
    FormatError,
    INT64_MAX,
    InputError,
    LabelSequence,
    OrderingError,
    SchemaError,
    SpecError,
    TimeSeries,
    field_specs,
)
from tadkit.detectors import METHODS, DetectorConfig
from tadkit.evaluation import score_and_decide
from tadkit.thresholds import KINDS, ThresholdSpec
from test_periodicity import recording_pool


def _write(path, text):
    path.write_text(text)
    return path


class TestLoaderClassification:
    def test_regular_spacing_yields_a_time_series(self, tmp_path):
        path = _write(tmp_path / "a.csv", "timestamp,value\n0,1.0\n60,2.0\n120,3.0\n")
        series = load_series_csv(path)
        assert isinstance(series, TimeSeries)
        assert series.start == 0 and series.interval == 60
        assert series.values.tolist() == [1.0, 2.0, 3.0]

    def test_irregular_spacing_yields_an_event_stream(self, tmp_path):
        path = _write(tmp_path / "a.csv", "timestamp,value\n0,1.0\n60,2.0\n200,3.0\n")
        series = load_series_csv(path)
        assert isinstance(series, EventStream)
        assert series.timestamps.tolist() == [0, 60, 200]

    def test_jitter_under_one_percent_still_counts_as_regular(self, tmp_path):
        path = _write(
            tmp_path / "a.csv",
            "timestamp,value\n0,1\n1000,1\n2000,1\n3005,1\n",
        )
        assert isinstance(load_series_csv(path), TimeSeries)
        path = _write(
            tmp_path / "b.csv",
            "timestamp,value\n0,1\n1000,1\n2000,1\n3011,1\n",
        )
        assert isinstance(load_series_csv(path), EventStream)

    def test_single_row_is_an_event_stream(self, tmp_path):
        path = _write(tmp_path / "a.csv", "timestamp,value\n5,1.0\n")
        assert isinstance(load_series_csv(path), EventStream)

    def test_decreasing_timestamps_name_the_offending_row(self, tmp_path):
        path = _write(tmp_path / "a.csv", "timestamp,value\n0,1\n60,1\n30,1\n")
        with pytest.raises(OrderingError, match="data row 3"):
            load_series_csv(path)


class TestLoaderErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_series_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(FormatError, match="empty"):
            load_series_csv(_write(tmp_path / "a.csv", ""))

    def test_wrong_header_names_the_expected_columns(self, tmp_path):
        path = _write(tmp_path / "a.csv", "time,val\n0,1\n")
        with pytest.raises(FormatError, match="timestamp,value"):
            load_series_csv(path)

    def test_header_without_rows(self, tmp_path):
        with pytest.raises(FormatError, match="no data rows"):
            load_series_csv(_write(tmp_path / "a.csv", "timestamp,value\n"))

    def test_field_count_error_carries_the_line_number(self, tmp_path):
        path = _write(tmp_path / "a.csv", "timestamp,value\n0,1\n60\n")
        with pytest.raises(FormatError, match="line 3"):
            load_series_csv(path)

    def test_bad_value_carries_file_and_line(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "timestamp,value\n0,1\n60,oops\n")
        with pytest.raises(FormatError, match=r"bad\.csv line 3"):
            load_series_csv(path)

    def test_bad_label_is_rejected(self, tmp_path):
        path = _write(tmp_path / "a.csv", "timestamp,value,label\n0,1,2\n")
        with pytest.raises(FormatError, match="label"):
            load_labeled_csv(path)


class TestTimestampFormats:
    def test_rfc3339_equals_epoch(self, tmp_path):
        iso = _write(
            tmp_path / "iso.csv",
            "timestamp,value\n2026-01-02T00:00:00Z,1\n2026-01-02T00:01:00Z,2\n",
        )
        epoch = _write(
            tmp_path / "epoch.csv", "timestamp,value\n1767312000,1\n1767312060,2\n"
        )
        a, b = load_series_csv(iso), load_series_csv(epoch)
        assert a.start == b.start and a.interval == b.interval

    def test_naive_timestamps_are_read_as_utc(self, tmp_path):
        naive = _write(
            tmp_path / "naive.csv",
            "timestamp,value\n2026-01-02T00:00:00,1\n2026-01-02T00:01:00,2\n",
        )
        assert load_series_csv(naive).start == 1767312000

    def test_offset_timestamps_convert(self, tmp_path):
        path = _write(
            tmp_path / "a.csv",
            "timestamp,value\n2026-01-02T01:00:00+01:00,1\n2026-01-02T01:01:00+01:00,2\n",
        )
        assert load_series_csv(path).start == 1767312000

    def test_subsecond_timestamps_are_refused(self, tmp_path):
        path = _write(
            tmp_path / "a.csv", "timestamp,value\n2026-01-02T00:00:00.500000Z,1\n"
        )
        with pytest.raises(FormatError, match="sub-second"):
            load_series_csv(path)


class TestRoundTrip:
    def test_time_series_with_gaps_and_awkward_floats(self, tmp_path):
        values = np.array([math.pi, np.nan, 1e-17, -0.0, 12345678.901234567])
        series = TimeSeries(100, 60, values)
        labels = np.array([0, 0, 1, 0, 1], dtype=np.int8)
        path = write_series_csv(tmp_path / "s.csv", series, labels)
        back, lab = load_labeled_csv(path)
        assert isinstance(back, TimeSeries)
        assert back.start == 100 and back.interval == 60
        np.testing.assert_array_equal(back.values, values)
        assert lab.labels.tolist() == labels.tolist()

    def test_irregular_event_stream_survives(self, tmp_path):
        stream = EventStream(
            np.array([0, 7, 9, 100]), np.array([1.5, -2.25, 0.1, 4.0])
        )
        back = load_series_csv(write_series_csv(tmp_path / "e.csv", stream))
        assert isinstance(back, EventStream)
        assert back.timestamps.tolist() == [0, 7, 9, 100]
        np.testing.assert_array_equal(back.values, stream.values)


class TestSideTables:
    def test_attributes_loader(self, tmp_path):
        path = _write(
            tmp_path / "attr.csv",
            "series_id,device,region\ns0,a,eu\ns1,b,us\n",
        )
        ids, rows = load_attributes_csv(path)
        assert ids == ["s0", "s1"]
        assert rows[1] == {"device": "b", "region": "us"}

    def test_duplicate_series_ids_are_rejected(self, tmp_path):
        path = _write(tmp_path / "attr.csv", "series_id,d\ns0,a\ns0,b\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_attributes_csv(path)

    def test_matrix_loader(self, tmp_path):
        path = _write(tmp_path / "m.csv", "series_id,t0,t1,t2\ns0,0,1,0\ns1,1,1,0\n")
        ids, matrix = load_matrix_csv(path)
        assert ids == ["s0", "s1"]
        assert matrix.tolist() == [[0, 1, 0], [1, 1, 0]]

    def test_matrix_cells_must_be_binary(self, tmp_path):
        path = _write(tmp_path / "m.csv", "series_id,t0\ns0,2\n")
        with pytest.raises(FormatError, match="0 or 1"):
            load_matrix_csv(path)

    def test_covariates_default_target_is_the_first_column(self, tmp_path):
        path = _write(
            tmp_path / "c.csv",
            "timestamp,sales,temp\n0,1.0,20.0\n60,2.0,21.0\n120,3.0,22.0\n",
        )
        data = load_covariates_csv(path)
        assert data.target.values.tolist() == [1.0, 2.0, 3.0]
        assert data.names == ("temp",)
        named = load_covariates_csv(path, target="temp")
        assert named.target.values.tolist() == [20.0, 21.0, 22.0]

    def test_covariates_header_validation(self, tmp_path):
        dup = _write(tmp_path / "dup.csv", "timestamp,a,a\n0,1,2\n60,1,2\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_covariates_csv(dup)
        path = _write(tmp_path / "c.csv", "timestamp,a\n0,1\n60,2\n")
        with pytest.raises(SchemaError, match="target"):
            load_covariates_csv(path, target="missing")

    def test_covariates_need_a_regular_grid(self, tmp_path):
        path = _write(tmp_path / "c.csv", "timestamp,a\n0,1\n60,2\n500,3\n")
        with pytest.raises(InputError, match="resample"):
            load_covariates_csv(path)


# ---------------------------------------------------------------------------
# Column-wise loaders and writer against per-row oracles.  The oracles are the
# former row-at-a-time bodies; each loader must return what its oracle
# returns, or raise the same exception with the same message.


def oracle_read_rows(path):
    """The former reader: ``csv.reader`` over the file opened as UTF-8 text."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if any(map(str.strip, row))]
    return rows


def _reader_corpus():
    texts = {
        "lf": "a,b\n1,2\n3,4\n",
        "crlf": "a,b\r\n1,2\r\n3,4\r\n",
        "lone_cr": "a,b\r1,2\r3,4\r",
        "mixed_endings": "a,b\r\n1,2\n3,4\r5,6\r\n7,8",
        "cr_before_crlf": "a,b\r\r\n1,2\n",
        "cr_at_the_end": "a,b\n1,2\r",
        "no_final_newline": "a,b\n1,2",
        "crlf_no_final_newline": "a,b\r\n1,2",
        "empty_lines": "\n\na,b\n\n1,2\n\n\n",
        "whitespace_lines": "a,b\n   \n\t\n1,2\n \x0b\x0c \n",
        "comma_lines": "a,b\n,\n , ,\n1,2\n,,,\n",
        "blank_crlf_lines": "a,b\r\n\r\n , \r\n1,2\r\n",
        "empty_first_cell": ",x\n , y\n",
        "nul": "a\x00b,c\n1,\x00\n\x00,\n",
        "separator_chars": "a,b\n\x1c1\x1c,2\n\x1c,\x1d\n\x1e\x1f,3\n",
        "next_line": "a,b\n1\x85,2\n\x85,\x85\n",
        "line_separator": "a,b\n1\u2028,2\n\u2028\n\u2029,\u2028\n",
        "tabs": "a\tb,c\n\t1,\t2\t\n\t,\t\n",
        "bom": "\ufeffa,b\n1,2\n",
        "bom_only": "\ufeff\n",
        "non_ascii": "zeit,wert\n\u00e9t\u00e9,\u2603\n\U0001f680,\u00a0\n",
        "trailing_commas": "a,b,\n1,2,\n",
        "empty": "",
        "newlines_only": "\n\r\n\n",
    }
    yield from texts.items()
    quoted = {
        "quoted_comma": 'a,b\n"1,5",2\n',
        "quoted_newline": 'a,b\n"line\nbreak",2\n"cr\r\nlf",3\r\n',
        "doubled_quote": 'a,b\n"say ""hi""",2\n"""",3\n',
        "quote_mid_field": 'a,b\n1"5,2\nx"y"z,3\n',
        "text_after_closing_quote": '"a"b,c\n"1" ,2\n',
        "unclosed_quote": 'a,b\n"1,2\n3,4\n',
        "quoted_blank_cells": 'a,b\n"",""\n" "," "\n1,2\n',
    }
    yield from quoted.items()
    for name, text in texts.items():  # the same rows through the csv path
        yield f"{name}_after_a_quoted_row", '"q",r\n' + text


@pytest.mark.parametrize("name, text", list(_reader_corpus()))
def test_reader_matches_the_csv_reader(tmp_path, name, text):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    assert _read_rows(path) == oracle_read_rows(path)


def oracle_load_labeled_csv(path):
    path = Path(path)
    rows = oracle_read_rows(path)
    if not rows:
        raise FormatError(f"{path}: empty file; expected header 'timestamp,value[,label]'")
    header = [cell.strip().lower() for cell in rows[0]]
    if header not in (["timestamp", "value"], ["timestamp", "value", "label"]):
        raise FormatError(
            f"{path}: expected header 'timestamp,value' or 'timestamp,value,label', "
            f"got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise FormatError(f"{path}: no data rows")
    has_label = len(header) == 3
    timestamps, values, labels = [], [], []
    for line_no, row in enumerate(rows[1:], start=2):
        where = f"{path} line {line_no}"
        if len(row) != len(header):
            raise FormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
        timestamps.append(_parse_timestamp(row[0], where))
        values.append(_parse_float(row[1], where, "value"))
        if has_label:
            if row[2].strip() not in ("0", "1"):
                raise FormatError(f"{where}: label must be 0 or 1, got {row[2]!r}")
            labels.append(int(row[2]))
    series = _classify(np.asarray(timestamps, dtype=np.int64), np.asarray(values))
    label_seq = LabelSequence(np.asarray(labels, dtype=np.int8)) if has_label else None
    return series, label_seq


def oracle_load_matrix_csv(path):
    path = Path(path)
    rows = oracle_read_rows(path)
    if not rows:
        raise FormatError(f"{path}: empty file; expected header 'series_id,<t0>,...'")
    header = [cell.strip() for cell in rows[0]]
    if header[0] != "series_id" or len(header) < 2:
        raise FormatError(
            f"{path}: expected header 'series_id,<t0>,...', got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise FormatError(f"{path}: no data rows")
    ids, bits = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"{path} line {line_no}: expected {len(header)} fields, got {len(row)}")
        ids.append(row[0].strip())
        line_bits = []
        for cell in row[1:]:
            if cell.strip() not in ("0", "1"):
                raise FormatError(f"{path} line {line_no}: cells must be 0 or 1, got {cell!r}")
            line_bits.append(int(cell))
        bits.append(line_bits)
    return ids, np.asarray(bits, dtype=np.int8)


def oracle_load_covariates_csv(path, target=None):
    path = Path(path)
    rows = oracle_read_rows(path)
    if not rows:
        raise FormatError(f"{path}: empty file; expected header 'timestamp,<col>,...'")
    header = [cell.strip() for cell in rows[0]]
    if header[0].lower() != "timestamp" or len(header) < 2:
        raise FormatError(
            f"{path}: expected header 'timestamp,<col>,...', got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise FormatError(f"{path}: no data rows")
    names = header[1:]
    if len(set(names)) != len(names):
        raise FormatError(f"{path}: duplicate column names in header")
    target = target if target is not None else names[0]
    if target not in names:
        raise SchemaError(f"target column {target!r} not in {names}")
    timestamps = []
    columns = {name: [] for name in names}
    for line_no, row in enumerate(rows[1:], start=2):
        where = f"{path} line {line_no}"
        if len(row) != len(header):
            raise FormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
        timestamps.append(_parse_timestamp(row[0], where))
        for name, cell in zip(names, row[1:]):
            columns[name].append(_parse_float(cell, where, name))
    shaped = _classify(np.asarray(timestamps, dtype=np.int64), np.asarray(columns[target]))
    if not isinstance(shaped, TimeSeries):
        raise InputError(f"{path}: conditional scoring needs a regular grid; resample first")
    covariates = {
        name: shaped.with_values(np.asarray(columns[name])) for name in names if name != target
    }
    return CovariateSet(target=shaped, covariates=covariates)


def _outcome(load, path):
    try:
        return load(path)
    except Exception as err:  # the exception itself is what is compared
        return err


def _same_series(a, b):
    assert type(a) is type(b)
    assert a.values.tobytes() == b.values.tobytes()
    if isinstance(a, TimeSeries):
        assert (a.start, a.interval) == (b.start, b.interval)
    else:
        assert a.timestamps.tobytes() == b.timestamps.tobytes()


def _assert_same_outcome(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected), repr(got)
        assert str(got) == str(expected)
        return True
    assert not isinstance(got, Exception), repr(got)
    return False


_SERIES_BODIES = {
    "plain": "0,1.5\n60,2.5\n120,3.5\n",
    "whitespace": " 0 , 1.5 \n\t60\t,2.5\n 120,  3.5\n",
    "underscores": "1_000,1_0.5\n1_060,2\n1_120,3\n",
    "nan_and_negative_zero": "0,nan\n60,-0.0\n120,NaN\n180,5e-324\n240,1e308\n",
    "infinity": "0,1\n60,inf\n120,2\n",
    "iso_z_and_offsets": "2026-01-02T00:00:00Z,1\n2026-01-02T01:01:00+01:00,2\n2026-01-02T00:02:00z,3\n",
    "iso_mixed_with_epoch": "1767312000,1\n2026-01-02T00:01:00Z,2\n1767312120,3\n",
    "naive_iso": "2026-01-02T00:00:00,1\n2026-01-02T00:01:00,2\n",
    "subsecond": "0,1\n2026-01-02T00:00:00.500000Z,2\n",
    "bad_timestamp": "0,1\n60,2\n1.5,3\n",
    "separator_char_around_timestamp": "0,1\n\x1c60\x1c,2\n120,3\n",
    "short_row": "0,1\n60\n120,3\n",
    "long_row": "0,1\n60,2,3,4\n",
    "blank_lines": "\n0,1\n\n   \n , \n60,2\n\n120,3\n",
    "bad_value_line_4": "0,1\n60,2\n120,oops\n180,x\n",
    "decreasing": "0,1\n60,1\n30,1\n",
    "irregular": "0,1.5\n7,-2.25\n9,0.1\n100,4\n",
    "single_row": "5,1.0\n",
    "overflowing_timestamp": "0,1\n99999999999999999999,2\n",
    "overflow_then_bad_value": "99999999999999999999,1\n60,oops\n",
    # traps of numpy's C reader: it strips \x1c-\x1f around numbers, which int and float refuse
    "file_separator_before_value": "0,1\n60,\x1c2\n120,3\n",
    "group_separator_after_value": "0,1\n60,2\x1d\n120,3\n",
    "record_separator_around_value": "0,\x1e1\x1e\n60,2\n",
    "unit_separator_after_timestamp": "0\x1f,1\n60,2\n",
    "negative_nan": "0,-nan\n60,-NaN\n120,nan\n",
    "float_overflow_and_underflow": "0,1e400\n60,-1e400\n120,1e-400\n",
    "leading_zero_and_plus_stamps": "007,1\n+67,2\n127,3\n",
    "int64_edge_stamps": "-9223372036854775808,1\n9223372036854775807,2\n",
    "float_timestamp": "0,1\n60.0,2\n",
    "exponent_timestamp": "0,1\n6e1,2\n",
    "next_line_around_value": "0,\x851\x85\n60,2\n",
    "line_separator_around_value": "0,\u20281\u2028\n60,2\n",
    "nbsp_around_cells": "\xa00\xa0,\xa01\xa0\n60,2\n",
    "hash_in_value": "0,2#3\n60,2\n",
    "hash_after_value": "0,2 #\n60,2\n",
    "nul_in_value": "0,1\x002\n60,2\n",
    "nul_after_timestamp": "0\x00,1\n60,2\n",
    "crlf": "0,1.5\r\n60,2.5\r\n120,3.5\r\n",
    "crlf_blank_lines": "0,1\r\n\r\n , \r\n60,2\r\n",
    "lone_cr": "0,1\r60,2\r\n",
    "quoted_value": '0,"1.5"\n60,2\n',
    "blank_body": "\n  \n , \n",
}
_LABEL_CELLS = {
    "plain": ["0", "1", "0"],
    "whitespace": [" 1 ", "0\t", " 0"],
    "bad_label_line_3": ["0", "2", "0"],
    "leading_zero_label": ["01", "0", "1"],
    "signed_label": ["+1", "0", "0"],
    "empty_label": ["0", "", "1"],
    "file_separator_before_label": ["\x1c1", "0", "1"],
    "unit_separator_after_label": ["1\x1f", "0", "1"],
    "nbsp_around_label": ["\xa01\xa0", "0", "0"],
    "nul_after_label": ["1\x00", "0", "0"],
    "hash_after_label": ["1#", "0", "0"],
    "negative_zero_label": ["-0", "0", "1"],
}


def _labeled_corpus():
    for name, body in _SERIES_BODIES.items():
        yield name, "timestamp,value\n" + body
    base = ["0,1.5", "60,2.5", "120,3.5"]
    for name, cells in _LABEL_CELLS.items():
        rows = [f"{row},{cell}" for row, cell in zip(base, cells)]
        yield f"labels_{name}", " Timestamp,VALUE,label\n" + "\n".join(rows) + "\n"
    yield "labels_short_row", "timestamp,value,label\n0,1,0\n60,2\n"
    yield "labels_iso", "timestamp,value,label\n2026-01-02T00:00:00Z,1,1\n2026-01-02T00:01:00Z,2,0\n"
    yield "labels_bad_label_after_iso", "timestamp,value,label\n2026-01-02T00:00:00Z,1,1\n60,2,5\n"
    yield "header_only", "timestamp,value\n"
    yield "empty", ""
    yield "wrong_header", "time,val\n0,1\n"
    yield "blank_lines_before_header", "\n \n , \ntimestamp,value\n0,1\n60,2\n"
    yield "long_blank_lines", " " * 20000 + "\ntimestamp,value\n" + "\t," * 10000 + "\n0,1\n60,2\n"
    yield "lone_cr_after_header", "timestamp,value\r0,1\n60,2\n"
    yield "blank_crlf_lines_before_header", "\r\n , \r\ntimestamp,value,label\r\n0,1,0\r\n60,2,1\r\n"


@pytest.mark.parametrize("name, text", list(_labeled_corpus()))
def test_labeled_loader_matches_the_per_row_oracle(tmp_path, name, text):
    path = _write(tmp_path / f"{name}.csv", text)
    expected = _outcome(oracle_load_labeled_csv, path)
    got = _outcome(load_labeled_csv, path)
    if _assert_same_outcome(got, expected):
        return
    _same_series(got[0], expected[0])
    if expected[1] is None:
        assert got[1] is None
    else:
        assert got[1].labels.tobytes() == expected[1].labels.tobytes()


@pytest.mark.parametrize(
    "text, by_rows",
    [
        ("timestamp,value\n0,1\n60,2\r", True),  # a lone CR as the last character
        ("timestamp,value\n0\r,1\n60,2\n", True),  # a lone CR before a comma
        ("timestamp,value\r\n0,1\r\n60,2\r\n", False),
        ("timestamp,value\r\n0,1\n60,2", False),
    ],
    ids=["cr_at_the_end", "cr_before_a_comma", "crlf", "crlf_then_lf"],
)
def test_a_lone_cr_and_only_a_lone_cr_takes_the_row_reader(tmp_path, monkeypatch, text, by_rows):
    calls = []
    read_rows = cli._read_rows
    monkeypatch.setattr(cli, "_read_rows", lambda *args: calls.append(args) or read_rows(*args))
    path = _write(tmp_path / "series.csv", text)
    got = _outcome(load_labeled_csv, path)
    assert bool(calls) == by_rows
    expected = _outcome(oracle_load_labeled_csv, path)
    if not _assert_same_outcome(got, expected):
        _same_series(got[0], expected[0])


# A drawn file is clean rows with one trap put into one cell: a character
# that numpy's reader strips or reads past where ``int`` and ``float`` may not.
_TRAPS = ["\x1c", "\x1d", "\x1e", "\x1f", " ", "\t", "\xa0", "\x85", "\u2028", "\x00", "#", "_", "+", "-", "0", "e",
          ".", "\r", '"', ","]


@settings(max_examples=400, deadline=None)
@given(
    stamps=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4, unique=True).map(sorted),
    values=st.lists(st.floats(), min_size=4, max_size=4),
    bits=st.lists(st.sampled_from("01"), min_size=4, max_size=4),
    width=st.sampled_from([2, 3]),
    trap=st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 30), st.sampled_from(_TRAPS)),
    end=st.sampled_from(["\n", "\r\n"]),
)
def test_labeled_loader_matches_the_per_row_oracle_on_drawn_traps(stamps, values, bits, width, trap, end):
    rows = [[str(t), repr(v), b][:width] for t, v, b in zip(stamps, values, bits)]
    row, column, at, char = trap
    cell = rows[row % len(rows)][column % width]
    rows[row % len(rows)][column % width] = cell[: at % (len(cell) + 1)] + char + cell[at % (len(cell) + 1) :]
    text = ",".join(["timestamp", "value", "label"][:width]) + end + "".join(",".join(r) + end for r in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.csv"
        path.write_bytes(text.encode())
        expected = _outcome(oracle_load_labeled_csv, path)
        got = _outcome(load_labeled_csv, path)
    if _assert_same_outcome(got, expected):
        return
    _same_series(got[0], expected[0])
    assert (got[1] is None) == (expected[1] is None)
    if expected[1] is not None:
        assert got[1].labels.tobytes() == expected[1].labels.tobytes()


# Cells for texts both routes read: numbers, runs of digits around a field
# limit lowered to 40, and characters numpy's reader strips or reads past.
_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(30, 50).map(lambda n: "0." + "0" * n + "1"),
    st.text(alphabet="0123456789.e+-_ \t\x00\xa0\u0661nai", max_size=45),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_CELLS, min_size=1, max_size=4), end=st.sampled_from(["\n", "\r\n"]))
def test_numpy_and_csv_routes_agree_on_any_text(cells, end):
    # the text as drawn takes numpy's route; a quoted header cell sends the same rows through csv.reader
    body = "".join(f"{60 * i},{cell}{end}" for i, cell in enumerate(cells))
    limit = csv.field_size_limit(40)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "drawn.csv"
            outcomes = []
            for header in ("timestamp,value", '"timestamp",value'):
                path.write_bytes((header + end + body).encode())
                outcomes.append(_outcome(load_labeled_csv, path))
    finally:
        csv.field_size_limit(limit)
    numpy_route, csv_route = outcomes
    if not _assert_same_outcome(numpy_route, csv_route):
        _same_series(numpy_route[0], csv_route[0])


def _covariate_corpus():
    yield "plain", "timestamp,a,b\n0,1,2\n60,3,4\n120,5,6\n"
    yield "whitespace", " timestamp , a , b \n 0 , 1 ,2\n60, 3 , 4\n120,5,6\n"
    yield "underscores_nan", "timestamp,a,b\n1_000,nan,-0.0\n1_060,1_0.5,NaN\n1_120,2,3\n"
    yield "infinity", "timestamp,a,b\n0,1,-inf\n60,2,3\n"
    yield "iso", "timestamp,a,b\n2026-01-02T00:00:00Z,1,2\n2026-01-02T01:01:00+01:00,3,4\n"
    yield "subsecond", "timestamp,a,b\n0,1,2\n2026-01-02T00:00:00.5Z,3,4\n"
    yield "bad_cell_in_b", "timestamp,a,b\n0,1,2\n60,3,x\n120,y,4\n"
    yield "short_row", "timestamp,a,b\n0,1,2\n60,3\n"
    yield "long_row", "timestamp,a,b\n0,1,2,9\n"
    yield "blank_lines", "timestamp,a,b\n\n0,1,2\n  \n60,3,4\n"
    yield "decreasing", "timestamp,a,b\n0,1,2\n60,3,4\n30,5,6\n"
    yield "irregular", "timestamp,a,b\n0,1,2\n60,3,4\n500,5,6\n"
    yield "overflow", "timestamp,a,b\n0,1,2\n99999999999999999999,3,4\n"
    yield "overflow_then_bad_cell", "timestamp,a,b\n99999999999999999999,1,2\n60,3,x\n"
    yield "duplicate_columns", "timestamp,a,a\n0,1,2\n"
    yield "file_separator_around_cell", "timestamp,a,b\n0,\x1c1,2\n60,3,4\x1f\n"
    yield "negative_nan_and_overflow", "timestamp,a,b\n0,-nan,1e400\n60,-1e400,-NaN\n"
    yield "unicode_spaces_around_cells", "timestamp,a,b\n0,\xa01,\x852\n60,\u20283,4\xa0\n"
    yield "hash_in_cell", "timestamp,a,b\n0,1#2,2\n60,3,4\n"
    yield "nul_in_cell", "timestamp,a,b\n0,1,2\n60,3,4\x00\n"
    yield "leading_zero_and_plus_stamps", "timestamp,a,b\n000,1,2\n+60,3,4\n"
    yield "blank_lines_before_header", "\n , \ntimestamp,a,b\n0,1,2\n60,3,4\n"
    yield "blank_body", "timestamp,a,b\n\n , \n"
    yield "crlf", "timestamp,a,b\r\n0,1,2\r\n60,3,4\r\n"


@pytest.mark.parametrize("name, text", list(_covariate_corpus()))
def test_covariate_loader_matches_the_per_row_oracle(tmp_path, name, text):
    path = _write(tmp_path / f"{name}.csv", text)
    expected = _outcome(oracle_load_covariates_csv, path)
    got = _outcome(load_covariates_csv, path)
    if _assert_same_outcome(got, expected):
        return
    _same_series(got.target, expected.target)
    assert got.names == expected.names
    for name in expected.names:
        _same_series(got.covariates[name], expected.covariates[name])


def _matrix_corpus():
    yield "plain", "series_id,t0,t1,t2\ns0,0,1,0\ns1,1,1,0\n"
    yield "whitespace", " series_id ,t0,t1\n s0 , 1 ,0\ns1,\t0,1 \n"
    yield "bad_bit_line_3", "series_id,t0,t1\ns0,0,1\ns1,0,2\ns2,x,0\n"
    yield "leading_zero_bit", "series_id,t0,t1\ns0,01,1\n"
    yield "signed_bit", "series_id,t0\ns0,+1\n"
    yield "empty_bit", "series_id,t0,t1\ns0,,1\n"
    yield "short_row", "series_id,t0,t1\ns0,0,1\ns1,0\n"
    yield "long_row", "series_id,t0\ns0,0,1\n"
    yield "blank_lines", "series_id,t0,t1\n\ns0,0,1\n , \ns1,1,0\n"
    yield "header_only", "series_id,t0\n"
    yield "wrong_header", "id,t0\ns0,1\n"
    yield "separator_chars_around_bits", "series_id,t0,t1\ns0,\x1c1,0\ns1,0,1\x1f\n"
    yield "unicode_spaces_around_cells", "series_id,t0,t1\n\x85s0\x85,\xa01\xa0,\u20280\n"
    yield "negative_zero_bit", "series_id,t0\ns0,-0\n"
    yield "nul_after_bit", "series_id,t0\ns0,1\x00\n"
    yield "hash_after_bit", "series_id,t0\ns0,1#\n"
    yield "hash_in_id", "series_id,t0\ns#0,1\n"
    yield "blank_lines_before_header", "\n , \nseries_id,t0\ns0,1\n"
    yield "blank_body", "series_id,t0\n\n , \n"
    yield "crlf", "series_id,t0,t1\r\ns0,0,1\r\ns1,1,0\r\n"


@pytest.mark.parametrize("name, text", list(_matrix_corpus()))
def test_matrix_loader_matches_the_per_row_oracle(tmp_path, name, text):
    path = _write(tmp_path / f"{name}.csv", text)
    expected = _outcome(oracle_load_matrix_csv, path)
    got = _outcome(load_matrix_csv, path)
    if _assert_same_outcome(got, expected):
        return
    assert got[0] == expected[0]
    assert got[1].dtype == expected[1].dtype and got[1].shape == expected[1].shape
    assert got[1].tobytes() == expected[1].tobytes()


def test_well_formed_files_parse_whole_columns(tmp_path, monkeypatch):
    def per_row(*args):
        raise AssertionError("the per-row parse ran on a well-formed file")

    monkeypatch.setattr("tadkit.cli._parsed_rows", per_row)
    series, labels = load_labeled_csv(_write(tmp_path / "s.csv", "timestamp,value,label\n0,1.5,0\n60,nan,1\n"))
    assert labels.labels.tolist() == [0, 1]
    ids, matrix = load_matrix_csv(_write(tmp_path / "m.csv", "series_id,t0,t1,t2\ns0,0,1,0\ns1, 1 ,1,0\n"))
    assert matrix.tolist() == [[0, 1, 0], [1, 1, 0]]
    assert load_covariates_csv(_write(tmp_path / "c.csv", "timestamp,a,b\n0,1,2\n60,3,4\n")).names == ("b",)
    label_file = _write(tmp_path / "l.csv", "timestamp,label\n0,1\n60,0\n")
    assert _load_label_file(label_file, series).labels.tolist() == [1, 0]

    # one file of each shape the workloads read, written as their writers write it,
    # parses in numpy's reader: neither the per-row parse nor csv.reader runs
    monkeypatch.setattr("tadkit.cli.csv.reader", per_row)
    stream = EventStream(np.array([0, 7, 9, 100, 3601]), np.array([1.5, -2.25, 0.1, -0.0, 5e-324]))
    write_series_csv(tmp_path / "events.csv", stream)
    _same_series(load_series_csv(tmp_path / "events.csv"), stream)
    grid = TimeSeries(1767312000, 60, np.array([0.5, np.nan, 1e308, -0.0]))
    write_series_csv(tmp_path / "labeled.csv", grid, np.array([0, 1, 1, 0]))
    series, labels = load_labeled_csv(tmp_path / "labeled.csv")
    _same_series(series, grid)
    assert labels.labels.tolist() == [0, 1, 1, 0]
    with open(tmp_path / "covariates.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "sales", "temp"])
        writer.writerows([60 * i, 40.0 + i / 3, math.pi * i] for i in range(5))
    loaded = load_covariates_csv(tmp_path / "covariates.csv", target="sales")
    assert loaded.target.values.tolist() == [40.0 + i / 3 for i in range(5)]
    assert loaded.covariates["temp"].values.tolist() == [math.pi * i for i in range(5)]
    with open(tmp_path / "matrix.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series_id", "0", "3600", "7200"])
        writer.writerows([["s000", 0, 1, 0], ["s001", 1, 0, 0]])
    ids, matrix = load_matrix_csv(tmp_path / "matrix.csv")
    assert ids == ["s000", "s001"] and matrix.tolist() == [[0, 1, 0], [1, 0, 0]]
    with open(tmp_path / "labels.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "label"])
        writer.writerows([1767312000 + 60 * i, bit] for i, bit in enumerate([1, 0, 0, 1]))
    assert _load_label_file(tmp_path / "labels.csv", grid).labels.tolist() == [1, 0, 0, 1]


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n  \r\n", "\n , \n"])
def test_a_label_file_without_rows_gives_no_numpy_warning(tmp_path, body):
    path = _write(tmp_path / "labels.csv", "timestamp,label\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="0 labels for 2 points"):
            _load_label_file(path, TimeSeries(0, 60, np.array([1.0, 2.0])))


def oracle_load_label_file(path, series):
    path = Path(path)
    rows = oracle_read_rows(path)
    if not rows:
        raise FormatError(f"{path}: empty file; expected header 'timestamp,label'")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["timestamp", "label"]:
        raise FormatError(f"{path}: expected header 'timestamp,label', got {','.join(rows[0])!r}")
    stamps, bits = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        where = f"{path} line {line_no}"
        if len(row) != 2:
            raise FormatError(f"{where}: expected 2 fields, got {len(row)}")
        stamps.append(_parse_timestamp(row[0], where))
        if row[1].strip() not in ("0", "1"):
            raise FormatError(f"{where}: label must be 0 or 1, got {row[1]!r}")
        bits.append(int(row[1]))
    if len(bits) != len(series) or not np.array_equal(
        np.asarray(stamps, dtype=np.int64), series.timestamps()
    ):
        raise AlignmentError(
            f"{path}: label timestamps do not match the series grid "
            f"({len(bits)} labels for {len(series)} points)"
        )
    return LabelSequence(np.asarray(bits, dtype=np.int8))


_ISO_START = 1767312000  # 2026-01-02T00:00:00Z


def _label_file_corpus():
    """(name, text, start of the three-point, 60 s series the labels belong to)."""
    yield "plain", "timestamp,label\n0,0\n60,1\n120,0\n", 0
    yield "whitespace", " Timestamp , LABEL \n 0 , 1 \n\t60\t,0\n120, 0\n", 0
    yield "iso", "timestamp,label\n2026-01-02T00:00:00Z, 1 \n2026-01-02T01:01:00+01:00,0\t\n1767312120,1\n", _ISO_START
    yield "iso_bad_label", "timestamp,label\n2026-01-02T00:00:00Z,1\n2026-01-02T00:01:00Z,x\n", _ISO_START
    yield "subsecond", "timestamp,label\n0,0\n2026-01-02T00:00:00.5Z,1\n", 0
    yield "bad_timestamp", "timestamp,label\n0,0\n1.5,1\n120,0\n", 0
    yield "overflowing_timestamp", "timestamp,label\n0,0\n99999999999999999999,1\n120,0\n", 0
    yield "overflow_then_bad_label", "timestamp,label\n99999999999999999999,0\n60,7\n", 0
    yield "bad_label", "timestamp,label\n0,0\n60,2\n120,0\n", 0
    yield "empty_label", "timestamp,label\n0,0\n60,\n120,1\n", 0
    yield "signed_label", "timestamp,label\n0,+1\n60,0\n120,0\n", 0
    yield "leading_zero_label", "timestamp,label\n0,01\n60,0\n120,0\n", 0
    yield "short_row", "timestamp,label\n0,0\n60\n120,0\n", 0
    yield "long_row", "timestamp,label\n0,0\n60,1,1\n120,0\n", 0
    yield "blank_lines", "timestamp,label\n\n0,0\n , \n60,1\n\n120,0\n", 0
    yield "misaligned", "timestamp,label\n0,0\n60,1\n180,0\n", 0
    yield "too_few", "timestamp,label\n0,0\n60,1\n", 0
    yield "header_only", "timestamp,label\n", 0
    yield "empty", "", 0
    yield "wrong_header", "time,label\n0,0\n", 0
    yield "value_header", "timestamp,value\n0,0\n", 0
    yield "file_separator_before_label", "timestamp,label\n0,\x1c1\n60,0\n120,0\n", 0
    yield "group_separator_after_timestamp", "timestamp,label\n0\x1d,1\n60,0\n120,0\n", 0
    yield "nbsp_around_cells", "timestamp,label\n\xa00\xa0,\xa01\xa0\n60,0\n120,0\n", 0
    yield "leading_zero_and_plus_stamps", "timestamp,label\n000,1\n+60,0\n120,0\n", 0
    yield "hash_after_label", "timestamp,label\n0,1#\n60,0\n120,0\n", 0
    yield "nul_after_label", "timestamp,label\n0,1\x00\n60,0\n120,0\n", 0
    yield "blank_lines_before_header", "\n , \ntimestamp,label\n0,0\n60,1\n120,0\n", 0
    yield "blank_body", "timestamp,label\n\n , \n\n", 0
    yield "crlf", "timestamp,label\r\n0,0\r\n60,1\r\n120,0\r\n", 0


@pytest.mark.parametrize("name, text, start", list(_label_file_corpus()))
def test_label_file_loader_matches_the_per_row_oracle(tmp_path, name, text, start):
    path = _write(tmp_path / f"{name}.csv", text)
    series = TimeSeries(start, 60, np.array([1.0, 2.0, 3.0]))
    expected = _outcome(lambda p: oracle_load_label_file(p, series), path)
    got = _outcome(lambda p: _load_label_file(p, series), path)
    if _assert_same_outcome(got, expected):
        return
    assert got.labels.tobytes() == expected.labels.tobytes()


def oracle_load_attributes_csv(path):
    path = Path(path)
    rows = oracle_read_rows(path)
    if not rows:
        raise FormatError(f"{path}: empty file; expected header 'series_id,<attr>,...'")
    header = [cell.strip() for cell in rows[0]]
    if header[0] != "series_id" or len(header) < 2:
        raise FormatError(
            f"{path}: expected header 'series_id,<attr>,...', got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise FormatError(f"{path}: no data rows")
    names = header[1:]
    ids, seen, attributes = [], set(), []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"{path} line {line_no}: expected {len(header)} fields, got {len(row)}")
        sid = row[0].strip()
        if sid in seen:
            raise FormatError(f"{path} line {line_no}: duplicate series_id {sid!r}")
        seen.add(sid)
        ids.append(sid)
        attributes.append({name: row[i + 1].strip() for i, name in enumerate(names)})
    return ids, attributes


def _attributes_corpus():
    yield "plain", "series_id,device,region\ns0,a,eu\ns1,b,us\n"
    yield "whitespace", " series_id , device \n s0 , a \n\ts1\t,b \n"
    yield "empty_cells", "series_id,device,region\ns0,,eu\n,b,\n"
    yield "short_row", "series_id,device,region\ns0,a,eu\ns1,b\n"
    yield "long_row", "series_id,device\ns0,a\ns1,b,c\n"
    yield "blank_lines", "series_id,device\n\ns0,a\n , \ns1,b\n\n"
    yield "duplicate_ids", "series_id,device\ns0,a\ns1,b\n s0 ,c\n"
    yield "duplicate_before_ragged_row", "series_id,device\ns0,a\ns0,b\ns1\n"
    yield "ragged_before_duplicate", "series_id,device\ns0,a\ns1\ns0,b\n"
    yield "header_only", "series_id,device\n"
    yield "id_column_only", "series_id\ns0\n"
    yield "empty", ""
    yield "wrong_header", "id,device\ns0,a\n"
    yield "separator_chars_around_cells", "series_id,device\n\x1cs0\x1c,\x1fa\ns1,b\n"
    yield "blank_lines_before_header", "\n , \nseries_id,device\ns0,a\n"


@pytest.mark.parametrize("name, text", list(_attributes_corpus()))
def test_attributes_loader_matches_the_per_row_oracle(tmp_path, name, text):
    path = _write(tmp_path / f"{name}.csv", text)
    expected = _outcome(oracle_load_attributes_csv, path)
    got = _outcome(load_attributes_csv, path)
    if _assert_same_outcome(got, expected):
        return
    assert got == expected


def oracle_write_series(path, timestamps, values, labels=None):
    """The former row-at-a-time writer."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "value"] + (["label"] if labels is not None else []))
        for i in range(len(values)):
            row = [int(timestamps[i]), repr(float(values[i]))]
            if labels is not None:
                row.append(int(labels[i]))
            writer.writerow(row)


_AWKWARD_VALUES = np.array(
    [-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, math.pi, 0.1, 1e-17]
)
_EXTREME_STAMPS = np.array(
    [np.iinfo(np.int64).min, -1, 0, 1, 1767312000, 2**53 + 1, np.iinfo(np.int64).max - 1,
     np.iinfo(np.int64).max, 7, 8, 9],
    dtype=np.int64,
)


@pytest.mark.parametrize("with_labels", [False, True])
def test_column_writer_matches_the_row_writer(tmp_path, with_labels):
    labels = np.array([0, 1] * 5 + [1], dtype=np.int8) if with_labels else None
    oracle_write_series(tmp_path / "rows.csv", _EXTREME_STAMPS, _AWKWARD_VALUES, labels)
    header = ["timestamp", "value"] + (["label"] if with_labels else [])
    columns = [_EXTREME_STAMPS.tolist(), _AWKWARD_VALUES.tolist()]
    if with_labels:
        columns.append(labels.tolist())
    _write_columns(tmp_path / "columns.csv", header, columns)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # zero rows: the header line alone
    oracle_write_series(tmp_path / "rows0.csv", [], [], None if labels is None else labels[:0])
    _write_columns(tmp_path / "columns0.csv", header, [column[:0] for column in columns])
    assert (tmp_path / "columns0.csv").read_bytes() == (tmp_path / "rows0.csv").read_bytes()


@pytest.mark.parametrize(
    "labels",
    [None, np.array([0, 1, 1, 0, 1], dtype=np.int8), np.array([0, 1, 1, 0, 1], dtype=bool),
     [0.0, 1.0, 1.0, 0.0, 1.0]],
)
def test_series_writer_matches_the_row_writer(tmp_path, labels):
    finite = np.array([-0.0, np.nan, 5e-324, 1e308, math.pi])
    series = TimeSeries(np.iinfo(np.int64).max - 4 * 60, 60, finite)
    stream = EventStream(_EXTREME_STAMPS[:5], np.array([-0.0, 5e-324, 1e308, -1e308, 0.1]))
    for name, data in (("series", series), ("stream", stream)):
        write_series_csv(tmp_path / f"{name}.csv", data, labels)
        stamps = data.timestamps() if isinstance(data, TimeSeries) else data.timestamps
        lab = None if labels is None else np.asarray(labels)
        oracle_write_series(tmp_path / f"{name}_rows.csv", stamps, data.values, lab)
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_rows.csv").read_bytes()


def oracle_write_report(report, out_dir):
    """The former report writer: one encoder call and one write per line."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl = out_dir / "report.jsonl"
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(jsonl, "w") as handle:
        meta = {
            "record": "meta",
            "config": _jsonable(report.config),
            "environment": _jsonable(report.environment),
            "timings": _jsonable(report.timings),
        }
        handle.write(encode(meta) + "\n")
        for record in report.records:
            handle.write(encode(_jsonable(record)) + "\n")
    return jsonl


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_REPORT_RECORDS = {
    "non_finite": ({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "in_list": [math.nan, -math.inf, 1.5]},),
    "numpy_scalars": (
        {"f32": np.float32(0.1), "i64": np.int64(-3), "bool": np.bool_(True), "u64": np.uint64(2**64 - 1),
         "f64_nan": np.float64("nan"), "f32_inf": np.float32("inf"), "nested": [np.int64(2), {"x": np.bool_(False)}]},
    ),
    "nested": (
        {"dict": {"a": {"b": [1, (2, 3)]}, 2: "two"}, "tuple": (1, [2, {"z": None}]), "list": [], "scalar": 1e-300},
    ),
    "non_ascii": ({"naïve": "café ☕", "emoji": "🚀", "quote": 'say "hi", ok', "newline": "a\nb\r\nc", "nul": "\x00"},),
    "non_str_keys": (
        {1: "int", 2.5: "float", None: "none", (1, 2): "tuple", "1": "collides with 1"},
        {"nested": {3: {4.5: [None]}}, True: "bool", "record": "x"},
    ),
    "none": ({"value": None, "list": [None], "zero": 0, "empty": ""},),
    "differing_keys": (
        {"record": "a", "x": 1, "list": [1]},
        {"record": "b", "y": -0.0, "x": 3, "dict": {}},
        {"only": "here"},
        {"y": 2.5, "record": "c"},
    ),
    "mapping_values": ({"proxy": types.MappingProxyType({"b": 1, "a": math.nan}), "plain": 1},),
    "mapping_records": (types.MappingProxyType({"record": "proxy", "v": 1.5}), {"record": "dict"}),
    "empty": (),
    # str keys and str, int, bool or None values: the writer's direct path
    "plain_scalars": (
        {"record": "feedback", "t": 7, "label": 1},
        {"s": "x\ny", "big": -(2**70), "yes": True, "no": False, "none": None, "empty": "", "zero": 0},
    ),
    # the same values under keys that are not str: json would write true and null
    # where str() writes True and None, so these must take the general path
    "plain_values_under_non_str_keys": (
        {1: "int key", "t": 2},
        {True: 1, "label": False},
        {None: None, "record": "none key"},
    ),
    "int_subclass": ({"record": "level", "level": _Level.HIGH, "t": 3},),
    "feedback_after_a_float": (
        {"record": "hil", "regret": math.inf, "precision": math.nan, "recall": 0.5},
        *({"record": "feedback", "t": t, "label": t % 2} for t in range(5)),
    ),
}


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c_encoder", "python_encoder"])
@pytest.mark.parametrize("name", list(_REPORT_RECORDS))
def test_report_writer_matches_the_per_line_writer(tmp_path, monkeypatch, name, c_encoder):
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    report = RunReport(
        config={"task": "detect", "seed": 3, "k": math.inf, "names": ("a", "b")},
        environment={"numpy": np.__version__, "seed": np.int64(3)},
        records=_REPORT_RECORDS[name],
        timings={"wall_s": 0.25},
    )
    written = write_report(report, tmp_path / "change")
    expected = oracle_write_report(report, tmp_path / "oracle")
    assert written.name == expected.name
    assert written.read_bytes() == expected.read_bytes()
    assert [p.name for p in (tmp_path / "change").iterdir()] == ["report.jsonl"]


def test_strip_timings_removes_nested_wall_clock_keys():
    record = {
        "accuracy": 0.7,
        "wall_s": 1.25,
        "nested": {"mean_runtime_s": 0.1, "kept": 1, "timings": {"wall_s": 9.0}},
    }
    assert strip_timings(record) == {"accuracy": 0.7, "nested": {"kept": 1}}


def test_experiment_config_validation(runner, tmp_path):
    with pytest.raises(SpecError):
        ExperimentConfig(task="explode")
    with pytest.raises(SpecError):
        ExperimentConfig(task="detect", seed="zero")
    with pytest.raises(SpecError):
        ExperimentConfig(task="detect", seed=-1)
    result = runner.invoke(
        main, ["bench-period", "--n-series", "2", "--threads", "0", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "SpecError"
    echo = ExperimentConfig(task="detect", seed=3, params={"window": 8}).echo()
    assert echo["task"] == "detect" and echo["window"] == 8


# ---------------------------------------------------------------------------
# command surface


@pytest.fixture()
def runner():
    return CliRunner()


def _read_report(out_dir):
    lines = (out_dir / "report.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def _make_input(runner_dir, n=240, seed=5):
    rng = np.random.default_rng(seed)
    values = np.sin(np.arange(n) / 10.0) + 0.2 * rng.standard_normal(n)
    labels = np.zeros(n, dtype=np.int8)
    for spot in (100, 180):
        values[spot] += 7.0
        labels[spot] = 1
    path = runner_dir / "input.csv"
    write_series_csv(path, TimeSeries(0, 60, values), labels)
    return path


def test_datagen_writes_series_and_a_report(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["datagen", "--n-series", "3", "--seed", "11", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    records = _read_report(out)
    assert records[0]["record"] == "meta"
    assert records[0]["config"]["seed"] == 11
    series_records = [r for r in records if r["record"] == "series"]
    assert len(series_records) == 3
    for rec in series_records:
        series = load_series_csv(out / rec["file"])
        assert len(series.values) == rec["n"]
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(["report.jsonl", *(rec["file"] for rec in series_records)])


def test_detect_writes_scores_aligned_with_the_input(runner, tmp_path):
    path = _make_input(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["detect", "--input", str(path), "--out", str(out), "--method",
         "ewma_residual", "--window", "16", "--threshold-kind", "k_sigma", "--k", "4"],
    )
    assert result.exit_code == 0, result.output
    with open(out / "scores.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["timestamp", "score", "decision"]
    assert len(rows) == 241
    decisions = [int(r[2]) for r in rows[1:]]
    (record,) = [r for r in _read_report(out) if r["record"] == "detect"]
    assert record["alert_count"] == sum(decisions)
    assert decisions[100] == 1  # the planted spike is flagged


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("protocol", ["streaming", "batch"])
def test_detect_and_evaluate_decide_through_score_and_decide(runner, tmp_path, protocol, method):
    path = _make_input(tmp_path)  # 240 points: every method scores at w=16
    flags = ["--input", str(path), "--method", method, "--window", "16", "--protocol", protocol,
             "--percentile", "0.5"]
    for task in ("detect", "evaluate"):
        result = runner.invoke(main, [task, "--out", str(tmp_path / task), *flags])
        assert result.exit_code == 0, result.output
    scores, decisions = score_and_decide(
        protocol, DetectorConfig(method=method, window=16), ThresholdSpec(percentile=0.5),
        load_series_csv(path),
    )
    assert 0 < decisions.sum() < len(decisions)
    with open(tmp_path / "detect" / "scores.csv") as handle:
        assert [int(row[2]) for row in list(csv.reader(handle))[1:]] == decisions.tolist()
    (record,) = [r for r in _read_report(tmp_path / "evaluate") if r["record"] == "evaluate"]
    assert record["alert_count"] == decisions.sum()
    assert record["warmup_excluded"] == scores.warmup


def test_evaluate_uses_the_inline_label_column(runner, tmp_path):
    path = _make_input(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["evaluate", "--input", str(path), "--out", str(out), "--method",
         "ewma_residual", "--window", "16", "--threshold-kind", "k_sigma", "--k", "4"],
    )
    assert result.exit_code == 0, result.output
    (record,) = [r for r in _read_report(out) if r["record"] == "evaluate"]
    assert record["protocol"] == "streaming"
    assert 0.0 <= record["f1"] <= 1.0
    assert record["recall"] == 1.0


def test_hil_reports_feedback_only_for_flagged_points(runner, tmp_path):
    path = _make_input(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["hil", "--input", str(path), "--out", str(out), "--method", "ewma_residual",
         "--window", "16", "--threshold-kind", "feedback_adaptive",
         "--threshold-value", "4"],
    )
    assert result.exit_code == 0, result.output
    records = _read_report(out)
    (report,) = [r for r in records if r["record"] == "hil"]
    feedback = [r for r in records if r["record"] == "feedback"]
    assert len(feedback) == report["alert_count"]
    assert all(f["label"] in (0, 1) for f in feedback)


def test_resample_command_reproduces_bin_means(runner, tmp_path):
    events = tmp_path / "events.csv"
    _write(events, "timestamp,value\n0,10\n1800,27\n3600,5\n")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["resample", "--input", str(events), "--interval", "3600", "--agg", "mean",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    series = load_series_csv(out / "resampled.csv")
    assert series.values.tolist() == [18.5, 5.0]


def test_conditional_command_scores_both_views(runner, tmp_path):
    rng = np.random.default_rng(8)
    n = 200
    temp = 20 + 5 * np.sin(np.arange(n) / 15.0) + 0.2 * rng.standard_normal(n)
    sales = 2.0 * temp + 0.1 * rng.standard_normal(n)
    path = tmp_path / "cov.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "sales", "temp"])
        for i in range(n):
            writer.writerow([i * 3600, repr(float(sales[i])), repr(float(temp[i]))])
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["conditional", "--input", str(path), "--out", str(out), "--mode", "both"]
    )
    assert result.exit_code == 0, result.output
    with open(out / "scores.csv") as handle:
        header = next(csv.reader(handle))
    assert header[0] == "timestamp"
    assert "conditional" in header and "joint" in header


def test_cohort_command_rules_and_timeline(runner, tmp_path):
    matrix = _write(
        tmp_path / "matrix.csv",
        "series_id,t0,t1,t2,t3\ns0,0,1,1,0\ns1,0,1,1,0\ns2,0,0,0,0\n",
    )
    attrs = _write(
        tmp_path / "attr.csv", "series_id,device\ns0,a\ns1,a\ns2,b\n"
    )
    out_rules = tmp_path / "rules"
    result = runner.invoke(
        main,
        ["cohort", "--matrix", str(matrix), "--attributes", str(attrs),
         "--mode", "rules", "--out", str(out_rules)],
    )
    assert result.exit_code == 0, result.output
    rules = [r for r in _read_report(out_rules) if r["record"] == "rule"]
    assert rules and rules[0]["rule"] == "device=a"

    out_tl = tmp_path / "timeline"
    result = runner.invoke(
        main,
        ["cohort", "--matrix", str(matrix), "--attributes", str(attrs),
         "--mode", "timeline", "--out", str(out_tl)],
    )
    assert result.exit_code == 0, result.output
    intervals = [r for r in _read_report(out_tl) if r["record"] == "interval"]
    assert [(iv["start"], iv["end"]) for iv in intervals] == [(1, 3)]


def test_bench_period_emits_one_record_per_method(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["bench-period", "--n-series", "4", "--permutations", "5", "--out", str(out),
         "--methods", "fft,peaks"],
    )
    assert result.exit_code == 0, result.output
    methods = [r["method"] for r in _read_report(out) if r["record"] == "method"]
    assert methods == ["fft", "peaks"]
    assert "accuracy" in result.output


def test_errors_are_machine_readable_json_on_stderr(runner, tmp_path):
    result = runner.invoke(
        main, ["detect", "--input", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["error"] == "InputError"
    assert payload["task"] == "detect"
    assert "ghost.csv" in payload["message"]


def _refusal_args(tmp_path, case):
    """The arguments of one refused ``tad`` run, writing the files it reads into ``tmp_path``."""
    config = tmp_path / "cfg.json"
    regular = _make_input(tmp_path)
    irregular = _write(tmp_path / "events.csv", "timestamp,value\n0,1.0\n60,2.0\n200,3.0\n")
    unlabeled = _write(tmp_path / "unlabeled.csv", "timestamp,value\n0,1.0\n60,2.0\n120,3.0\n")
    matrix = _write(tmp_path / "matrix.csv", "series_id,t0,t1\ns0,0,1\ns1,1,0\n")
    cohort = ["cohort", "--matrix", str(matrix), "--attributes"]
    if case == "config_missing":
        return ["detect", "--config", str(tmp_path / "ghost.json"), "--input", str(regular)]
    if case == "config_not_an_object":
        config.write_text("[1, 2]")
        return ["detect", "--config", str(config), "--input", str(regular)]
    if case == "config_for_another_task":
        config.write_text(json.dumps({"task": "hil"}))
        return ["detect", "--config", str(config), "--input", str(regular)]
    if case == "required_key_missing":
        return ["detect"]
    if case in ("detect_irregular", "hil_irregular"):
        return [case.split("_")[0], "--input", str(irregular)]
    if case == "evaluate_unlabeled":
        return ["evaluate", "--input", str(unlabeled)]
    if case == "cohort_ids_differ":
        return [*cohort, str(_write(tmp_path / "attr.csv", "series_id,device\ns0,a\ns2,b\n"))]
    assert case == "cohort_row_counts_differ"
    return [*cohort, str(_write(tmp_path / "attr.csv", "series_id,device\ns0,a\n"))]


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("config_missing", "InputError", "config file not found"),
        ("config_not_an_object", "FormatError", "config must be a JSON object"),
        ("config_for_another_task", "SpecError", "config is for task 'hil', not 'detect'"),
        ("required_key_missing", "InputError", "detect needs --input"),
        ("detect_irregular", "InputError", "needs a regular grid"),
        ("hil_irregular", "InputError", "needs a regular grid"),
        ("evaluate_unlabeled", "InputError", "labels required"),
        ("cohort_ids_differ", "SchemaError", "disagree on series ids (data row 2: 's1' vs 's2')"),
        ("cohort_row_counts_differ", "SchemaError", "disagree on series ids (2 vs 1 rows)"),
    ],
)
def test_cli_refusals_give_one_json_error_line(runner, tmp_path, case, error, message):
    args = _refusal_args(tmp_path, case)
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert set(payload) == {"error", "task", "module", "message"}
    assert (payload["error"], payload["task"], payload["module"]) == (error, args[0], "cli")
    assert message in payload["message"]
    assert not (tmp_path / "out" / "report.jsonl").exists()


def test_series_writer_refuses_a_wrong_label_count(tmp_path):
    series = TimeSeries(0, 60, np.arange(4.0))
    with pytest.raises(AlignmentError, match="labels length 3 != series length 4"):
        write_series_csv(tmp_path / "a.csv", series, np.array([0, 1, 0]))


def test_cohort_top_keeps_the_leading_rules(runner, tmp_path):
    rows = [f"s{i},{i % 2},{int(i % 3 == 0)},{int(i < 5)},{int(i in (0, 2, 7))}" for i in range(10)]
    matrix = _write(tmp_path / "matrix.csv", "series_id,t0,t1,t2,t3\n" + "\n".join(rows) + "\n")
    attrs = _write(
        tmp_path / "attr.csv",
        "series_id,device,region\n" + "".join(f"s{i},{'ab'[i % 2]},{'xyz'[i % 3]}\n" for i in range(10)),
    )
    reports = {}
    for name, top in (("all", []), ("top", ["--top", "2"])):
        result = runner.invoke(
            main,
            ["cohort", "--matrix", str(matrix), "--attributes", str(attrs), "--mode", "rules",
             "--out", str(tmp_path / name), *top],
        )
        assert result.exit_code == 0, result.output
        reports[name] = [strip_timings(r) for r in _read_report(tmp_path / name)[1:]]
    assert len(reports["all"]) > 2
    assert reports["top"] == reports["all"][:2]


@pytest.mark.parametrize("task", sorted(TASK_PARAMS))
def test_an_unknown_flag_gives_one_json_error_line(runner, task):
    assert len(TASK_PARAMS) == 8
    result = runner.invoke(main, [task, "--bogus", "1"])
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert set(payload) == {"error", "task", "module", "message"}
    assert (payload["error"], payload["task"], payload["module"]) == ("NoSuchOption", task, "cli")
    assert "--bogus" in payload["message"]
    assert "Usage:" not in result.output


def test_flag_usage_errors_give_one_json_error_line_but_help_and_version_do_not(runner):
    result = runner.invoke(main, ["hil", "--protocol", "batch"])
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["message"] == "No such option '--protocol'."
    result = runner.invoke(main, ["detect", "--out"])
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "BadOptionUsage"
    result = runner.invoke(main, ["detect", "--help"])
    assert result.exit_code == 0
    assert result.output.startswith("Usage:") and "--window" in result.output
    text = " ".join(result.output.split())  # help lines wrap at spaces
    assert "--alpha FLOAT DetectorConfig.alpha [a finite number in (0, 1]; default: 0.1]" in text
    assert all(f"'{kind}'" in text.split("--threshold-kind", 1)[1].split("--", 1)[0] for kind in KINDS)
    result = runner.invoke(main, ["--version"])
    assert (result.exit_code, result.output) == (0, f"tad, version {__version__}\n")


def test_module_attribution_in_error_payloads(runner, tmp_path):
    path = _make_input(tmp_path)
    result = runner.invoke(
        main,
        ["detect", "--input", str(path), "--out", str(tmp_path / "o"),
         "--window", "0"],
    )
    assert result.exit_code == 2
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["error"] == "SpecError"
    assert payload["module"] == "detectors"


def test_unknown_config_keys_are_rejected(runner, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"task": "datagen", "n_serise": 3}))
    result = runner.invoke(main, ["datagen", "--config", str(config)])
    assert result.exit_code == 2
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["error"] == "SpecError"
    assert "n_serise" in payload["message"]


def test_hil_has_no_protocol_key(runner, tmp_path):
    # the interactive loop only streams, so a protocol key would only be echoed
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"task": "hil", "protocol": "batch"}))
    path, out = _make_input(tmp_path), tmp_path / "out"
    result = runner.invoke(main, ["hil", "--config", str(config), "--input", str(path), "--out", str(out)])
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    assert "unknown config keys for hil: ['protocol']" in json.loads(line)["message"]
    result = runner.invoke(main, ["hil", "--input", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "protocol" not in _read_report(out)[0]["config"]


def test_flags_override_config_file_values(runner, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 5, "n_series": 2}))
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["datagen", "--config", str(config), "--seed", "9", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    meta = _read_report(out)[0]
    assert meta["config"]["seed"] == 9
    assert meta["config"]["n_series"] == 2


def test_reports_are_deterministic_modulo_timings(runner, tmp_path):
    path = _make_input(tmp_path)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["detect", "--input", str(path), "--out", str(out), "--seed", "3",
             "--threshold-kind", "trailing_percentile", "--percentile", "0.99"],
        )
        assert result.exit_code == 0, result.output
        outs.append(out)
    a, b = (_read_report(out) for out in outs)
    stripped_a = [strip_timings({k: v for k, v in r.items() if k != "config"}) for r in a]
    stripped_b = [strip_timings({k: v for k, v in r.items() if k != "config"}) for r in b]
    assert stripped_a == stripped_b
    assert (outs[0] / "scores.csv").read_bytes() == (outs[1] / "scores.csv").read_bytes()


@pytest.mark.parametrize(
    "task, flags, doc",
    [
        ("detect", ["--window", "abc"], None),
        ("detect", ["--k", "nan"], None),
        ("detect", [], {"k": float("nan")}),
        ("detect", [], {"alpha": "x"}),
        ("detect", [], {"n_clusters": 2.5}),
        ("datagen", [], {"n_series": "3"}),
        ("datagen", ["--seed", "-1"], None),
        ("hil", ["--threshold-kind", "feedback_adaptive", "--threshold-value", "-0.5"], None),
        ("bench-period", [], {"methods": 5}),
        ("bench-period", ["--n-series", "2", "--permutations", "-1"], None),
        ("bench-period", ["--n-series", "1", "--methods", "random", "--permutations", str(10**18)], None),
        ("cohort", [], {"top": "2"}),
        ("cohort", ["--top", "-1"], None),
        ("datagen", ["--n-series", "0"], None),
        ("datagen", ["--n-series", "-2"], None),
        ("bench-period", ["--n-series", "2", "--methods", ","], None),
        ("bench-period", ["--n-series", "2", "--methods", "peaks,peaks"], None),
        ("cohort", ["--mode", "rules", "--min-support", "-1"], None),
    ],
)
def test_malformed_values_give_one_json_error_line(runner, tmp_path, task, flags, doc):
    args = [task, *flags, "--out", str(tmp_path / "out")]
    if task in ("detect", "hil"):
        args += ["--input", str(_make_input(tmp_path))]
    if task == "cohort":
        matrix = _write(tmp_path / "matrix.csv", "series_id,t0,t1\ns0,0,1\ns1,0,0\n")
        attrs = _write(tmp_path / "attr.csv", "series_id,device\ns0,a\ns1,b\n")
        args += ["--matrix", str(matrix), "--attributes", str(attrs)]
    if doc is not None:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        args += ["--config", str(config)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, repr(result.exception)
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "SpecError"


@pytest.mark.parametrize("stamp", ["99999999999999999999", "9223372036854775808"])
@pytest.mark.parametrize("task", ["detect", "evaluate", "resample", "conditional", "labels"])
def test_epoch_timestamps_beyond_int64_give_one_json_error_line(runner, tmp_path, task, stamp):
    if task == "conditional":
        path = _write(tmp_path / "in.csv", f"timestamp,a,b\n0,1,2\n{stamp},3,4\n")
        args = [task, "--input", str(path)]
    elif task == "labels":
        labels = _write(tmp_path / "labels.csv", f"timestamp,label\n0,0\n{stamp},1\n")
        args = ["evaluate", "--input", str(_make_input(tmp_path)), "--labels", str(labels)]
    else:
        path = _write(tmp_path / "in.csv", f"timestamp,value\n0,1\n{stamp},2\n")
        args = [task, "--input", str(path)]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, repr(result.exception)
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "FormatError"
    assert "line 3" in payload["message"] and "int64" in payload["message"]


@pytest.mark.parametrize(
    "task, flags",
    [
        ("datagen", ["--length", "200", "--start", "-99999999999999999999"]),
        ("resample", ["--interval", "1000000000000000000000"]),
        ("resample", ["--interval", "60", "--anchor", "-9223372036854775808"]),
        ("datagen", ["--length", "200", "--interval", "9223372036854775807"]),  # stamps wrap
    ],
    ids=["datagen_start", "resample_interval", "resample_anchor", "datagen_interval"],
)
def test_timestamp_arithmetic_past_int64_gives_one_json_error_line(runner, tmp_path, task, flags):
    args = [task, *flags, "--out", str(tmp_path / "out")]
    if task == "resample":
        args += ["--input", str(_write(tmp_path / "events.csv", "timestamp,value\n0,1\n60,2\n"))]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, repr(result.exception)
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "SpecError" and "int64" in payload["message"]


@pytest.mark.parametrize(
    "flags",
    [
        ["datagen", "--n-series", "1", "--length", str(10**19)],
        ["detect", "--window", str(10**19)],
        ["detect", "--threshold-kind", "trailing_percentile", "--horizon", str(10**19)],
        ["conditional", "--cov-lags", str(10**19)],
    ],
    ids=["datagen_length", "detect_window", "detect_horizon", "conditional_cov_lags"],
)
def test_sizes_past_int64_give_one_json_error_line(runner, tmp_path, flags):
    args = [*flags, "--out", str(tmp_path / "out")]
    if flags[0] == "detect":
        args += ["--input", str(_make_input(tmp_path))]
    if flags[0] == "conditional":
        args += ["--input", str(_write(tmp_path / "in.csv", "timestamp,a,b\n0,1,2\n60,3,4\n120,5,7\n"))]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, repr(result.exception)
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    # datagen's length stops at its own bound, below int64's maximum
    bound = "1000000]" if flags[0] == "datagen" else "int64 max"
    assert payload["error"] == "SpecError" and bound in payload["message"]


@pytest.mark.parametrize("flag, bound", [("--length", 10**6), ("--n-series", 10_000)])
@pytest.mark.parametrize("past", ["one_past", "int64_max"])
def test_datagen_refuses_a_size_past_its_bound_before_the_first_file(runner, tmp_path, flag, bound, past):
    out = tmp_path / "out"
    value = bound + 1 if past == "one_past" else INT64_MAX
    result = runner.invoke(main, ["datagen", flag, str(value), "--out", str(out)])
    assert result.exit_code == 2, repr(result.exception)
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "SpecError" and f", {bound}]" in payload["message"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("method", ["spectral_residual", "left_discord", "kmeans_window"])
@pytest.mark.parametrize("task, warmup_key",
                         [("detect", "warmup"), ("evaluate", "warmup_excluded"), ("hil", "warmup_excluded")])
def test_a_window_longer_than_the_series_scores_all_warmup(runner, tmp_path, method, task, warmup_key):
    # a streaming window detector builds its window-sized arrays only at the w-th point
    out = tmp_path / "out"
    result = runner.invoke(main, [task, "--input", str(_make_input(tmp_path)), "--method", method,
                                  "--window", str(10**18), "--out", str(out)])
    assert result.exit_code == 0, repr(result.exception)
    (record,) = [r for r in _read_report(out) if r["record"] == task]
    assert record[warmup_key] == 240 and record["alert_count"] == 0


@pytest.mark.parametrize("flag", ["--ar-order", "--cov-lags"])
def test_a_conditional_order_longer_than_the_table_scores_all_warmup(runner, tmp_path, flag):
    # the order's warmup covers all 300 rows, so nothing of the order's size is built
    rows = "".join(f"{60 * i},{math.sin(i / 5)!r},{i % 7}\n" for i in range(300))
    path = _write(tmp_path / "in.csv", "timestamp,target,covariate\n" + rows)
    out = tmp_path / "out"
    result = runner.invoke(main, ["conditional", "--input", str(path), "--mode", "conditional",
                                  flag, str(10**18), "--out", str(out)])
    assert result.exit_code == 0, repr(result.exception)
    (record,) = [r for r in _read_report(out) if r["record"] == "scores"]
    assert record["warmup"] == record["n"] == 300 and record["max_score"] is None


def test_seeds_have_no_upper_bound(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["datagen", "--n-series", "1", "--length", "60", "--seed", str(10**20),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _read_report(out)[0]["config"]["seed"] == 10**20


def test_every_numeric_key_declares_its_range_and_every_kind_its_choices():
    for cls, binding in cli._BINDINGS.items():
        for key, name in binding.items():
            kind, numbers, choices = field_specs(cls)[name]
            kinds = get_args(kind) or (kind,)
            if int in kinds or float in kinds:
                assert numbers is not None, f"{cls.__name__}.{name}"
            elif key != "out":  # a path; every other str field names a kind
                assert choices, f"{cls.__name__}.{name}"
    for task, params in TASK_PARAMS.items():
        for param in params.values():
            kinds = get_args(param.type) or (param.type,)
            if param.owner is None and (int in kinds or float in kinds):
                assert param.range is not None, (task, param.key)


_PAIR = np.r_[np.zeros(60), 1e308, -1e308, np.zeros(58)]
_ALTERNATION = np.array([1e308, -1e308] * 100)


def _overflow_input(tmp_path, task):
    path = tmp_path / "in.csv"
    if task == "conditional":
        rows = "".join(f"{i * 60},{x!r},{i % 7}\n" for i, x in enumerate(_ALTERNATION.tolist()))
        _write(path, "timestamp,target,covariate\n" + rows)
    else:
        values = _PAIR if task == "evaluate" else _ALTERNATION
        write_series_csv(path, TimeSeries(0, 60, values), np.zeros(len(values), dtype=np.int8))
    return path


@pytest.mark.parametrize(
    "task, flags",
    [
        ("evaluate", ["--protocol", "batch", "--method", "spectral_residual", "--window", "8"]),
        ("conditional", []),
        ("hil", ["--method", "ewma_residual"]),
    ],
)
def test_an_overflowing_score_gives_one_json_error_line_and_no_warning(runner, tmp_path, task, flags):
    # an overflow must not pass for all warmup, or for no alert and F1 1.0
    args = [task, "--input", str(_overflow_input(tmp_path, task)), *flags, "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, args)
    assert result.exit_code == 2, repr(result.exception)
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "InputError" and "past the warmup" in payload["message"]


_BAD_CELLS = {
    "non_utf8": b"\xff",
    "quoted_field_over_the_csv_limit": b'"' + b"1" * (csv.field_size_limit() + 1) + b'"',
}


@pytest.mark.parametrize(
    "task, cell",
    [(task, cell) for task in ("detect", "evaluate", "resample", "conditional", "labels", "matrix", "attributes")
     for cell in _BAD_CELLS] + [("config", "non_utf8")],
)
def test_undecodable_or_oversized_input_gives_one_json_error_line(runner, tmp_path, task, cell):
    bad = _BAD_CELLS[cell]
    matrix = _write(tmp_path / "matrix.csv", "series_id,t0,t1\ns0,0,1\ns1,0,0\n")
    attrs = _write(tmp_path / "attr.csv", "series_id,device\ns0,a\ns1,b\n")
    path = tmp_path / "in.csv"
    if task == "conditional":
        path.write_bytes(b"timestamp,a,b\n0,1,2\n60,3," + bad + b"\n")
        args = [task, "--input", str(path)]
    elif task == "labels":
        path.write_bytes(b"timestamp,label\n0,0\n60," + bad + b"\n")
        args = ["evaluate", "--input", str(_make_input(tmp_path)), "--labels", str(path)]
    elif task in ("matrix", "attributes"):
        path.write_bytes(b"series_id,x\ns0,1\ns1," + bad + b"\n")
        files = {"matrix": matrix, "attributes": attrs, task: path}
        args = ["cohort", "--matrix", str(files["matrix"]), "--attributes", str(files["attributes"])]
    elif task == "config":
        path.write_bytes(b'{"window": ' + bad + b"}")
        args = ["detect", "--input", str(_make_input(tmp_path)), "--config", str(path)]
    else:
        path.write_bytes(b"timestamp,value\n0,1\n60," + bad + b"\n")
        args = [task, "--input", str(path)]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, repr(result.exception)
    (line,) = result.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "FormatError"
    assert str(path) in payload["message"]


@pytest.mark.parametrize(
    "task, flags",
    [
        ("detect", ["--method", "ewma_residual", "--window", "16", "--threshold-kind", "k_sigma"]),
        ("evaluate", ["--window", "32", "--protocol", "batch", "--max-delay", "2", "--k", "4"]),
        ("hil", ["--method", "ewma_residual", "--threshold-kind", "feedback_adaptive",
                 "--threshold-value", "4"]),
        ("datagen", ["--n-series", "2", "--length", "300", "--inject-rate", "0.02", "--seed", "4"]),
    ],
)
def test_any_report_replays_from_its_own_meta_record(runner, tmp_path, task, flags):
    if task != "datagen":
        flags = [*flags, "--input", str(_make_input(tmp_path))]
    first, second = tmp_path / "first", tmp_path / "second"
    result = runner.invoke(main, [task, *flags, "--out", str(first)])
    assert result.exit_code == 0, result.output
    meta, *records = _read_report(first)
    echoed = {k: v for k, v in meta["config"].items() if k != "out"}
    config = tmp_path / "replay.json"
    config.write_text(json.dumps(echoed))

    result = runner.invoke(main, [task, "--config", str(config), "--out", str(second)])
    assert result.exit_code == 0, result.output
    replay_meta, *replayed = _read_report(second)
    assert {k: v for k, v in replay_meta["config"].items() if k != "out"} == echoed
    assert [strip_timings(r) for r in replayed] == [strip_timings(r) for r in records]
    for path in first.iterdir():
        if path.name != "report.jsonl":
            assert (second / path.name).read_bytes() == path.read_bytes(), path.name


def _declared(param, task):
    """Values for ``param`` from its declaration: the low end and one below it,
    small values inside, the high end and one past it, and a bogus choice.
    Datagen's and bench-period's high ends are never drawn: even inside their
    bounds, one example would write 10,000 files, ten series of a million
    points, a million period draws or a million shuffles."""
    kinds = get_args(param.type) or (param.type,)
    options = [st.none()] if type(None) in kinds else []
    if param.choices:
        options.append(st.sampled_from([*param.choices, "bogus"]))
    numbers = param.range
    if numbers is not None:
        base = -5 if numbers.lo is None else max(numbers.lo, 0)
        if int in kinds:
            options.append(st.integers(base, base + 8))
        else:
            options.append(st.floats(base, base + 10 if numbers.hi is None else numbers.hi))
        ends = [] if numbers.lo is None else [numbers.lo, numbers.lo - 1]
        top = [numbers.hi] if task not in ("datagen", "bench-period") else []
        ends += [] if numbers.hi is None else [numbers.hi + 1, *top]
        options += [st.sampled_from(ends)] if ends else []
    return st.one_of(options)


_WRONG_TYPED = st.sampled_from(["x", True, 2.5, None, [1], float("nan")])
@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Per task, the keys that name files, and bench-period's size and methods:
    small valid inputs each run reads."""
    root = tmp_path_factory.mktemp("drawn")
    series = {"input": str(_make_input(root))}
    rows = "".join(f"{60 * i},{math.sin(i / 5)!r},{i % 7}\n" for i in range(80))
    covariates = str(_write(root / "covariates.csv", "timestamp,a,b\n" + rows))
    matrix = _write(root / "matrix.csv", "series_id,t0,t1,t2\n" + "".join(
        f"s{i},{int(i < 3)},{int(i % 2 == 0)},{int(i == 1)}\n" for i in range(6)))
    attributes = _write(root / "attr.csv", "series_id,device,region\n" + "".join(
        f"s{i},{'ab'[i % 2]},{'xyz'[i % 3]}\n" for i in range(6)))
    return {
        "detect": series,
        "evaluate": series,
        "hil": series,
        "datagen": {},
        "resample": series,
        "bench-period": {"n_series": 3, "methods": "peaks"},
        "conditional": {"input": covariates},
        "cohort": {"matrix": str(matrix), "attributes": str(attributes)},
    }


@pytest.fixture(scope="module")
def drawn_files(valid_inputs):
    """Per task, strategies for the keys that name files or columns."""
    common = {"out": st.just("overridden-by-the-flag"), "labels": st.none()}
    drawn = {task: {**common, **{key: st.just(path) for key, path in files.items()}}
             for task, files in valid_inputs.items()}
    drawn["conditional"]["target"] = st.sampled_from([None, "a", "b", "x"])
    drawn["bench-period"]["n_series"] = _declared(TASK_PARAMS["bench-period"]["n_series"], "bench-period")
    drawn["bench-period"]["methods"] = st.sampled_from(["peaks", "fft,acf", "random", ",", "bogus"])
    return drawn


@pytest.mark.parametrize(
    "task", ["detect", "evaluate", "hil", "datagen", "resample", "bench-period", "conditional", "cohort"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_config_document_runs_or_gives_one_json_error(drawn_files, task, data):
    keys, files = TASK_PARAMS[task], drawn_files[task]
    assert all(key in files or param.range or param.choices for key, param in keys.items())
    right = {key: files[key] if key in files else _declared(param, task) for key, param in keys.items()}
    # bench-period's defaults run every method, autoperiod's about 30 ms a draw, on 1,000 draws
    required = [key for key, param in keys.items()
                if param.default is MISSING or task == "bench-period" and key in ("n_series", "methods")]
    doc = data.draw(
        st.fixed_dictionaries(
            {key: right[key] for key in required},
            optional={key: right[key] for key in keys if key not in required},
        )
    )
    wrong = data.draw(st.none() | st.sampled_from(sorted(keys)))
    if wrong is not None:
        doc[wrong] = data.draw(_WRONG_TYPED)
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool([]))
        config = Path(scratch) / "cfg.json"
        config.write_text(json.dumps(doc))
        result = CliRunner().invoke(
            main, [task, "--config", str(config), "--out", str(Path(scratch) / "out")]
        )
    if result.exit_code != 0:
        assert result.exit_code == 2, repr(result.exception)
        (line,) = result.stderr.splitlines()
        assert set(json.loads(line)) == {"error", "task", "module", "message"}


_INT64_MAX_KEYS = [
    (task, key, method)
    for task in ("detect", "evaluate", "hil", "datagen", "resample", "bench-period", "conditional", "cohort")
    for key, param in TASK_PARAMS[task].items()
    if param.range is not None and param.range.hi == INT64_MAX and int in (get_args(param.type) or (param.type,))
    # a detector's size only allocates under the method that reads it
    for method in (METHODS if key in field_specs(DetectorConfig) else (None,))
]


@pytest.mark.parametrize(
    "task, key, method", _INT64_MAX_KEYS, ids=["-".join(filter(None, case)) for case in _INT64_MAX_KEYS]
)
def test_int64_maximum_alone_runs_or_gives_one_json_error(
    runner, valid_inputs, tmp_path, monkeypatch, task, key, method
):
    # the fuzz above draws this end only now and then; here every such key gets it once
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool([]))
    doc = {**valid_inputs[task], key: INT64_MAX, **({"method": method} if method else {})}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    result = runner.invoke(main, [task, "--config", str(config), "--out", str(tmp_path / "out")])
    if result.exit_code != 0:
        assert result.exit_code == 2, repr(result.exception)
        (line,) = result.stderr.splitlines()
        assert set(json.loads(line)) == {"error", "task", "module", "message"}
