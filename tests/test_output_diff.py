"""``tools/output_diff.compare``: what two commits' output files may differ in."""

import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    from output_diff import compare

    return compare


def _pair(tmp_path, name, ours, theirs):
    paths = tmp_path / "parent" / name, tmp_path / "change" / name
    for path, text in zip(paths, (ours, theirs)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    return paths


def _jsonl(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


def test_reports_that_differ_only_in_timings_match(compare, tmp_path):
    ours = _jsonl({"f1": 0.5, "wall_s": 1.0, "detail": {"timings": {"fit": 0.2}, "n": 3}})
    theirs = _jsonl({"f1": 0.5, "wall_s": 2.5, "detail": {"timings": {"fit": 0.9}, "n": 3}})
    assert compare(*_pair(tmp_path, "report.jsonl", ours, theirs)) is None


def test_nan_on_both_sides_matches(compare, tmp_path):
    text = _jsonl({"precision": float("nan"), "delays": [float("nan"), 1]})
    assert compare(*_pair(tmp_path, "report.jsonl", text, text)) is None


def test_a_differing_report_key_is_named(compare, tmp_path):
    ours = _jsonl({"f1": 0.5, "regret": 3.0, "wall_s": 1.0}, {"f1": 1.0, "extra": None})
    theirs = _jsonl({"f1": 0.5, "regret": 4.0, "wall_s": 2.0}, {"f1": 1.0})
    assert compare(*_pair(tmp_path, "report.jsonl", ours, theirs)) == (
        "records differ outside TIMING_FIELDS, in ['extra', 'regret (abs 1, rel 0.25)']"
    )


def test_a_numeric_report_key_carries_its_largest_move_over_every_record(compare, tmp_path):
    ours = _jsonl({"max_score": 2.0, "n": 3, "ok": True}, {"max_score": -8.0, "n": 3, "ok": True})
    theirs = _jsonl({"max_score": 2.5, "n": 3, "ok": False}, {"max_score": -8.0 - 1e-9, "n": 4, "ok": True})
    assert compare(*_pair(tmp_path, "report.jsonl", ours, theirs)) == (
        "records differ outside TIMING_FIELDS, in ['max_score (abs 0.5, rel 0.2)', 'n (abs 1, rel 0.25)', 'ok']"
    )
    # a value that is no finite number on one side is named without a size
    ours, theirs = _jsonl({"f1": 0.5, "delays": [1]}), _jsonl({"f1": None, "delays": [2]})
    assert compare(*_pair(tmp_path, "report.jsonl", ours, theirs)) == (
        "records differ outside TIMING_FIELDS, in ['delays', 'f1']"
    )


def test_differing_record_counts_are_named(compare, tmp_path):
    ours, theirs = _jsonl({"f1": 0.5}), _jsonl({"f1": 0.5}, {"f1": 0.5})
    assert compare(*_pair(tmp_path, "report.jsonl", ours, theirs)) == "record counts differ"


def test_a_csv_that_differs_only_in_wall_clock_runtime_matches(compare, tmp_path):
    ours = "method,accuracy,mean_runtime_s\r\nacf,0.9,0.0012\r\nfft,0.7,0.0003\r\n"
    theirs = "method,accuracy,mean_runtime_s\r\nacf,0.9,0.0019\r\nfft,0.7,0.0001\r\n"
    assert compare(*_pair(tmp_path, "period.csv", ours, theirs)) is None


def test_a_differing_csv_column_is_named(compare, tmp_path):
    ours = "method,accuracy,mean_runtime_s\r\nacf,0.9,0.0012\r\nfft,0.7,0.0003\r\n"
    theirs = "method,accuracy,mean_runtime_s\r\nacf,0.8,0.0019\r\nfft,0.7,0.0003\r\n"
    assert compare(*_pair(tmp_path, "period.csv", ours, theirs)) == (
        "bytes differ, in columns ['accuracy (abs 0.1, rel 0.11)', 'mean_runtime_s (abs 0.0007, rel 0.37)']"
    )
    ours, theirs = "timestamp,value\r\n0,1.0\r\n", "timestamp,value\r\n0,1.5\r\n"
    assert compare(*_pair(tmp_path, "scores.csv", ours, theirs)) == (
        "bytes differ, in columns ['value (abs 0.5, rel 0.33)']"
    )


def test_a_numeric_csv_column_carries_its_largest_move_and_any_other_column_only_its_name(compare, tmp_path):
    # the largest absolute move is in one row, the largest relative one in another
    ours = "timestamp,score,decision,kind\r\n0,nan,0,a\r\n60,4.0,1,a\r\n120,0.001,0,a\r\n"
    theirs = "timestamp,score,decision,kind\r\n0,nan,0,b\r\n60,4.001,1,a\r\n120,0.0011,0,a\r\n"
    assert compare(*_pair(tmp_path, "scores.csv", ours, theirs)) == (
        "bytes differ, in columns ['score (abs 0.001, rel 0.091)', 'kind']"
    )
    ours, theirs = "timestamp,score\r\n0,nan\r\n60,1.0\r\n", "timestamp,score\r\n0,0.5\r\n60,1.0\r\n"
    assert compare(*_pair(tmp_path, "scores.csv", ours, theirs)) == "bytes differ, in columns ['score']"
