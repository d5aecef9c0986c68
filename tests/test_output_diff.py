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
        "records differ outside TIMING_FIELDS, in ['extra', 'regret']"
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
        "bytes differ, in columns ['accuracy', 'mean_runtime_s']"
    )
    ours, theirs = "timestamp,value\r\n0,1.0\r\n", "timestamp,value\r\n0,1.5\r\n"
    assert compare(*_pair(tmp_path, "scores.csv", ours, theirs)) == "bytes differ, in columns ['value']"
