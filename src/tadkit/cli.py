"""Command-line surface: CSV ingestion, experiment dispatch, report files.

Everything here is plumbing around the library modules.  Three conventions
keep runs reproducible and diff-friendly:

- Configuration is a single flat JSON document; command-line flags override
  config keys, which override defaults.  Each task's keys, their types and
  defaults come from :data:`TASK_PARAMS`, which binds most keys to fields of
  the library's config dataclasses.  The merged, type-checked configuration
  is echoed into the report, so any report can be re-run from its own meta
  record.
- Timestamps are serialized as integer epoch seconds.
- Reports are ``report.jsonl``: one JSON object per line, keys sorted.
  Wall-clock numbers live only under the keys named in
  :data:`TIMING_FIELDS`; stripping those keys makes two runs of the same
  config byte-comparable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
import re
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn, get_args

import click
import numpy as np

from . import __version__
from .cohort import CohortMinerConfig, mine_rules, mine_rules_over_time
from .conditional import ConditionalConfig, JointConfig, run_conditional, run_joint
from .core import (
    INT64,
    INT64_MAX,
    AlignmentError,
    CovariateSet,
    EventStream,
    FormatError,
    InputError,
    LabelSequence,
    OrderingError,
    Range,
    SchemaError,
    SpecError,
    TadError,
    TimeSeries,
    as_label_array,
    check_fields,
    declared,
    describe,
    field_specs,
    refusal,
)
from .datagen import InjectionConfig, PeriodicGeneratorConfig, generate_periodic, inject_point_anomalies
from .detectors import DetectorConfig
from .evaluation import (DetectorThresholdPolicy, LossSpec, evaluate_batch, evaluate_streaming, run_hil,
                         score_and_decide)
from .periodicity import BENCH_SERIES, DEFAULT_METHODS, PERMUTATIONS, run_period_benchmark
from .resample import ResampleSpec, resample
from .thresholds import ThresholdSpec

__all__ = [
    "TASKS",
    "TASK_PARAMS",
    "TIMING_FIELDS",
    "ExperimentConfig",
    "RunReport",
    "load_series_csv",
    "load_labeled_csv",
    "write_series_csv",
    "load_attributes_csv",
    "load_matrix_csv",
    "load_covariates_csv",
    "run_experiment",
    "write_report",
    "strip_timings",
    "main",
]

#: Keys whose values are wall-clock measurements.  Everything else in a
#: report is a pure function of the echoed config.
TIMING_FIELDS = frozenset({"timings", "wall_s", "mean_runtime_s"})


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_timestamp(text: str, where: str) -> int:
    raw = text.strip()
    try:
        epoch = int(raw)
    except ValueError:
        pass
    else:
        if epoch not in INT64:
            raise FormatError(f"{where}: timestamp {text!r} is outside the int64 range")
        return epoch
    iso = raw[:-1] + "+00:00" if raw.endswith(("Z", "z")) else raw
    try:
        stamp = datetime.fromisoformat(iso)
    except ValueError:
        raise FormatError(
            f"{where}: unparseable timestamp {text!r} (want epoch seconds or RFC-3339)"
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    epoch = stamp.timestamp()
    if epoch != int(epoch):
        raise FormatError(f"{where}: sub-second timestamps are not supported: {text!r}")
    return int(epoch)


def _parse_float(text: str, where: str, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{where}: unparseable {column} {text!r}") from None


def _read_rows(path, text: str | None = None) -> list[list[str]]:
    """The rows of ``text`` (default: the file at ``path``) with a non-blank
    cell, as ``csv.reader`` reads them: the route for text with a ``"``, a
    lone CR or one of ``\\x1c``-``\\x1f``, and for rows numpy's reader refuses."""
    rows = csv.reader(io.StringIO(_read_text(path) if text is None else text, newline=""))
    try:
        # most rows show a non-blank cell first; csv.reader gives [] for an empty line
        return [row for row in rows if row and row[0].strip() or any(map(str.strip, row))]
    except csv.Error as err:
        raise FormatError(f"{path}: {err}") from None


def _read_text(path) -> str:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    try:
        return path.read_bytes().decode()
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def _table(
    path: Path, accept: Callable[[list[str]], bool], expected: str, named: str | None = None, *,
    need_data: bool = True,
) -> tuple[str | list[list[str]], list[str]]:
    """The data of ``path`` and its stripped header, after the checks every loader shares.

    The data is the text after the header line, for numpy's reader, unless
    the text holds a ``"``, a lone CR or one of ``\\x1c``-``\\x1f`` (numpy
    strips those around a number; ``int`` and ``float`` refuse them) or has
    no data rows: then it is the data rows of :func:`_read_rows`.  Either
    way a cell longer than ``csv.field_size_limit()`` is an error.  ``accept``
    judges the stripped header, and errors name ``expected`` as the header
    wanted (``named``, if given, for a wrong one); no data rows is an error
    unless ``need_data`` is false.
    """
    text = _read_text(path)
    if any(c in text for c in '"\x1c\x1d\x1e\x1f') or _LONE_CR.search(text):
        head, *data = _read_rows(path, text) or [None]
    else:
        if _has_long_cell(text, limit := csv.field_size_limit()):
            raise FormatError(f"{path}: field larger than field limit ({limit})")
        found = _ROW.search(text)
        head = found and found.group().removesuffix("\r").split(",")
        data = text[found.end() + 1 :] if found and _ROW.search(text, found.end()) else []
    if head is None:
        raise FormatError(f"{path}: empty file; expected header {expected!r}")
    header = [cell.strip() for cell in head]
    if not accept(header):
        wanted = named if named is not None else repr(expected)
        raise FormatError(f"{path}: expected header {wanted}, got {','.join(head)!r}")
    if need_data and not data:
        raise FormatError(f"{path}: no data rows")
    return data, header


def _has_long_cell(text: str, limit: int) -> bool:
    """Whether a cell of ``text`` (a run free of ``,``, CR and LF) is longer than ``limit``:
    such a run covers a multiple of ``limit``, so only the runs there are measured."""
    for at in range(limit, len(text), limit):
        if text[at] not in ",\r\n":
            before = max(text.rfind(sep, at - limit, at) for sep in ",\r\n")
            if before < 0 or _CELL.match(text, at).end() - before - 1 > limit:
                return True
    return False


# A cell kind is ``(kind, name)``: "timestamp" parses to int64 epoch seconds,
# "float" to float64, "bit" to int8 0 or 1 and "id" to a stripped string;
# ``name`` is how an error message calls the column.  Bit kinds come last.
_TIMESTAMP = ("timestamp", "timestamp")
_ID = ("id", "series_id")
_BITS = frozenset({"0", "1"})
_DTYPES = {"timestamp": np.int64, "float": np.float64}
# a line with a non-blank cell (``\s`` is ``str.isspace``); ``^`` keeps a search linear in its length
_ROW = re.compile(r"^[^\n]*?[^\s,][^\n]*", re.MULTILINE)
_LONE_CR = re.compile(r"\r(?!\n)")
_CELL = re.compile(r"[^,\r\n]*")


def _load_columns(path: Path, data: str | list[list[str]], kinds: list[tuple[str, str]]) -> list:
    """The data rows of a :func:`_table`, parsed by kind.

    Timestamp and float columns come back as arrays and id columns as lists,
    one per kind; the bit columns, if any, come last as one int8 block of
    shape (rows, bit columns).  Text data (free of ``\\x1c``-``\\x1f``, which
    numpy would strip) parses in one ``np.loadtxt`` call, whose C reader
    converts cells as ``float`` and ``int`` do; id and bit cells stay strings,
    and bits must strip to "0" or "1".  Row data, a ragged row or a cell that
    does not parse there (an ISO timestamp, ``1_000``, a bad bit) take
    :func:`_parsed_rows`, so messages and line numbers name the first bad row.
    """
    first = next((j for j, (kind, _) in enumerate(kinds) if kind == "bit"), len(kinds))
    width = len(kinds) - first
    if isinstance(data, str):
        fields = [(str(j), _DTYPES.get(kind, object)) for j, (kind, _) in enumerate(kinds[:first])]
        try:
            table = np.loadtxt(
                data.split("\n"), dtype=fields + [("bits", object, (width,))] * bool(width), delimiter=",",
                comments=None, ndmin=1,
            )
            cells = list(table["bits"].flat) if width else []
            if not _BITS.issuperset(cells):  # strip only when some cell needs it
                cells = [cell.strip() for cell in cells]
                if not _BITS.issuperset(cells):
                    raise ValueError("not a bit")
        except ValueError:  # the per-row parse below words the error
            pass
        else:
            columns = [
                [cell.strip() for cell in table[name].tolist()] if kind is object else table[name].copy()
                for name, kind in fields
            ]
            if width:  # one ASCII digit per cell: its byte minus b"0" is its bit
                digits = np.frombuffer("".join(cells).encode(), dtype=np.int8)
                columns.append((digits - ord("0")).reshape(-1, width))
            return columns
    parsed = [values for _, values in _parsed_rows(path, data, kinds)]
    columns = [[values[j] for values in parsed] for j in range(first)]
    columns = [np.array(c, _DTYPES[kind]) if kind in _DTYPES else c for c, (kind, _) in zip(columns, kinds)]
    if width:
        columns.append(np.array([values[first:] for values in parsed], dtype=np.int8).reshape(-1, width))
    return columns


def _parsed_rows(path: Path, data: str | list[list[str]], kinds: list[tuple[str, str]]):
    """Yield ``(where, values)`` per data row of a :func:`_table`, parsed cell by cell.

    The only place a loader words a width, timestamp, float or bit
    FormatError; ``where`` names the file and line.
    """
    rows = _read_rows(path, data) if isinstance(data, str) else data
    for line_no, row in enumerate(rows, start=2):
        where = f"{path} line {line_no}"
        if len(row) != len(kinds):
            raise FormatError(f"{where}: expected {len(kinds)} fields, got {len(row)}")
        values = []
        for (kind, name), cell in zip(kinds, row):
            if kind == "timestamp":
                values.append(_parse_timestamp(cell, where))
            elif kind == "float":
                values.append(_parse_float(cell, where, name))
            elif kind == "id":
                values.append(cell.strip())
            elif cell.strip() in _BITS:
                values.append(int(cell))
            else:
                raise FormatError(f"{where}: {name} must be 0 or 1, got {cell!r}")
        yield where, values


def load_labeled_csv(path) -> tuple[TimeSeries | EventStream, LabelSequence | None]:
    """Like :func:`load_series_csv`, also returning the label column if present."""
    path = Path(path)
    data, header = _table(
        path, lambda h: [c.lower() for c in h] in (["timestamp", "value"], ["timestamp", "value", "label"]),
        "timestamp,value[,label]", "'timestamp,value' or 'timestamp,value,label'",
    )
    kinds = [_TIMESTAMP, ("float", "value"), ("bit", "label")][: len(header)]
    timestamps, values, *labels = _load_columns(path, data, kinds)
    return _classify(timestamps, values), LabelSequence(labels[0][:, 0]) if labels else None


def load_series_csv(path) -> TimeSeries | EventStream:
    """Read ``timestamp,value[,label]`` CSV; pick the container by spacing.

    Spacing is regular when every gap deviates from the modal gap by less
    than 1% of it — that yields a :class:`TimeSeries`; anything else
    (including a single row) is an :class:`EventStream`.  Note the container
    follows the data: an irregular stream that happens to be regular comes
    back as the equivalent TimeSeries.
    """
    return load_labeled_csv(path)[0]


def _classify(timestamps: np.ndarray, values: np.ndarray) -> TimeSeries | EventStream:
    if len(timestamps) < 2:
        return EventStream(timestamps, values)
    gaps = np.diff(timestamps)
    if np.any(gaps < 0):
        bad = int(np.argmax(gaps < 0)) + 2
        raise OrderingError(f"timestamps decrease at data row {bad}")
    uniq, counts = np.unique(gaps, return_counts=True)
    modal = int(uniq[np.argmax(counts)])
    if modal > 0 and np.max(np.abs(gaps - modal)) < 0.01 * modal:
        return TimeSeries(int(timestamps[0]), modal, values)
    return EventStream(timestamps, values)


def write_series_csv(path, series: TimeSeries | EventStream, labels=None) -> Path:
    """Write a series as ``timestamp,value[,label]``; floats keep full precision."""
    path = Path(path)
    header = ["timestamp", "value"]
    stamps = series.timestamps() if isinstance(series, TimeSeries) else series.timestamps
    columns = [stamps.tolist(), series.values.tolist()]
    if labels is not None:
        header.append("label")
        columns.append(as_label_array(labels, len(series.values)).tolist())
    _write_columns(path, header, columns)
    return path


def _write_columns(path, header: list[str], columns: list[list]) -> None:
    """Write ``header``, then row ``i`` from item ``i`` of each column.

    Columns hold Python ints and floats, as ``ndarray.tolist`` gives them.  A
    data cell is its ``repr``, which is what ``csv`` writes for these types:
    ints in decimal, floats at full precision, so ``nan``, ``inf`` and
    ``-0.0`` round-trip through ``float``.  Lines end in CRLF, as in ``csv``.
    """
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        # the empty last item ends the last row; no rows leave the header alone
        handle.write("\r\n".join([*map(",".join, zip(*(map(repr, c) for c in columns))), ""]))


def load_attributes_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    """Read ``series_id,attr1,attr2,...`` rows into per-series attribute dicts."""
    path = Path(path)
    data, header = _table(path, lambda h: h[0] == "series_id" and len(h) >= 2, "series_id,<attr>,...")
    attributes: dict[str, dict[str, str]] = {}
    for where, (sid, *cells) in _parsed_rows(path, data, [_ID] * len(header)):
        if sid in attributes:
            raise FormatError(f"{where}: duplicate series_id {sid!r}")
        attributes[sid] = dict(zip(header[1:], cells))
    return list(attributes), list(attributes.values())


def load_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a 0/1 anomaly matrix: ``series_id,<t0>,<t1>,...`` rows."""
    path = Path(path)
    data, header = _table(path, lambda h: h[0] == "series_id" and len(h) >= 2, "series_id,<t0>,...")
    ids, bits = _load_columns(path, data, [_ID] + [("bit", "cells")] * (len(header) - 1))
    return ids, bits


def load_covariates_csv(path, target: str | None = None) -> CovariateSet:
    """Read a multi-column regular series: ``timestamp,<col>,<col>,...``.

    ``target`` names the column being scored (default: the first value
    column); every other column becomes a covariate.
    """
    path = Path(path)
    data, header = _table(
        path, lambda h: h[0].lower() == "timestamp" and len(h) >= 2, "timestamp,<col>,..."
    )
    names = header[1:]
    if len(set(names)) != len(names):
        raise FormatError(f"{path}: duplicate column names in header")
    target = target if target is not None else names[0]
    if target not in names:
        raise SchemaError(f"target column {target!r} not in {names}")
    timestamps, *values = _load_columns(path, data, [_TIMESTAMP] + [("float", name) for name in names])
    columns = dict(zip(names, values))
    shaped = _classify(timestamps, columns[target])
    if not isinstance(shaped, TimeSeries):
        raise InputError(f"{path}: conditional scoring needs a regular grid; resample first")
    covariates = {name: shaped.with_values(columns[name]) for name in names if name != target}
    return CovariateSet(target=shaped, covariates=covariates)


# ---------------------------------------------------------------------------
# Experiment runner


@dataclass(frozen=True)
class RunReport:
    config: Mapping[str, Any]
    environment: Mapping[str, Any]
    records: tuple[Mapping[str, Any], ...]
    timings: Mapping[str, float]


_JSON_SCALARS = frozenset({str, int, bool, type(None)})
_STR_ONLY = frozenset({str})


def _jsonable(value):
    kind = type(value)  # exact types first: an isinstance check against Mapping is slow
    if kind in _JSON_SCALARS:
        return value
    if kind is float:
        return value if math.isfinite(value) else None
    if kind is dict or isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def strip_timings(record: Mapping[str, Any]) -> dict[str, Any]:
    """Drop wall-clock keys so two reports of one config compare byte-equal."""
    return {
        key: strip_timings(value) if isinstance(value, Mapping) else value
        for key, value in record.items()
        if key not in TIMING_FIELDS
    }


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Dispatch to the named task and collect its result records."""
    started = time.perf_counter()
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _TASK_FUNCS[config.task](config, out_dir)
    environment = {
        "package": "tadkit",
        "version": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": config.seed,
    }
    return RunReport(
        config=config.echo(),
        environment=environment,
        records=tuple(records),
        timings={"wall_s": time.perf_counter() - started},
    )


def _encoder() -> Callable[[Any], str]:
    """``JSONEncoder(sort_keys=True).encode`` with the C encoder built once.

    ``encode`` builds it on every call; this one takes the arguments that
    ``JSONEncoder.iterencode`` passes, so the text is the same.
    """
    encoder = json.JSONEncoder(sort_keys=True)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    iterencode = json.encoder.c_make_encoder(
        {}, encoder.default, json.encoder.encode_basestring_ascii, encoder.indent,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys, encoder.skipkeys,
        encoder.allow_nan,
    )
    return lambda doc: "".join(iterencode(doc, 0))


def write_report(report: RunReport, out_dir) -> Path:
    """Persist ``report.jsonl``: the meta line, then one line per record.

    Each record's values are made JSON-safe once.  A dict record with only
    str keys and str, int, bool or None values is already JSON-safe, so it
    is encoded as it is.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    encode = _encoder()
    meta = {
        "record": "meta",
        "config": _jsonable(report.config),
        "environment": _jsonable(report.environment),
        "timings": _jsonable(report.timings),
    }
    lines = [encode(meta)]
    for record in report.records:
        if (type(record) is dict and _STR_ONLY.issuperset(map(type, record))
                and _JSON_SCALARS.issuperset(map(type, record.values()))):
            # other key types go below: str(True) is "True" where json writes true
            lines.append(encode(record))
        else:
            lines.append(encode({str(key): _jsonable(value) for key, value in record.items()}))
    lines.append("")  # the last line ends with a newline too
    jsonl = out_dir / "report.jsonl"
    with open(jsonl, "w") as handle:
        handle.write("\n".join(lines))
    return jsonl


# ---------------------------------------------------------------------------
# Task bodies.  Each returns the result records, already in canonical order.


def _child_seed(base: int, index: int, stream: int) -> int:
    return int(np.random.SeedSequence([base, index, stream]).generate_state(1)[0])


def _load_regular(path) -> tuple[TimeSeries, LabelSequence | None]:
    series, labels = load_labeled_csv(path)
    if not isinstance(series, TimeSeries):
        raise InputError(f"{path}: this task needs a regular grid; run `tad resample` first")
    return series, labels


def _load_label_file(path, series: TimeSeries) -> LabelSequence:
    path = Path(path)
    # a header alone is zero labels, which the grid check below reports
    data, _ = _table(
        path, lambda h: [c.lower() for c in h] == ["timestamp", "label"], "timestamp,label", need_data=False
    )
    stamps, bits = _load_columns(path, data, [_TIMESTAMP, ("bit", "label")])
    if len(bits) != len(series) or not np.array_equal(stamps, series.timestamps()):
        raise AlignmentError(
            f"{path}: label timestamps do not match the series grid "
            f"({len(bits)} labels for {len(series)} points)"
        )
    return LabelSequence(bits[:, 0])


def _labeled_input(p: Mapping[str, Any]) -> tuple[TimeSeries, LabelSequence]:
    """The regular series of ``p["input"]`` and its labels: the ``p["labels"]`` file, else its own column."""
    series, inline = _load_regular(p["input"])
    if p["labels"] is not None:
        return series, _load_label_file(p["labels"], series)
    if inline is None:
        raise InputError("labels required: add a label column or pass --labels FILE")
    return series, inline


def _task_datagen(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Write seeded synthetic periodic series as CSV files."""
    p = config.params
    generator = _build(PeriodicGeneratorConfig, p, seed=config.seed)
    injection = _build(InjectionConfig, p)
    records = []
    for index in range(p["n_series"]):
        drawn = generate_periodic(generator, index)
        series, labels = drawn.series, drawn.labels
        if injection.rate > 0.0:
            injected = inject_point_anomalies(
                series, replace(injection, seed=_child_seed(config.seed, index, 0xEC))
            )
            series, labels = injected.series, injected.labels
        name = f"series_{index:04d}.csv"
        write_series_csv(out_dir / name, series, labels)
        records.append(
            {
                "record": "series",
                "index": index,
                "file": name,
                "n": len(series),
                "true_period": drawn.true_period,
                "n_anomalies": labels.positive_count,
                "seed": config.seed,
            }
        )
    return records


def _task_resample(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Aggregate events onto a regular grid."""
    p = config.params
    loaded = load_series_csv(p["input"])
    if isinstance(loaded, TimeSeries):
        keep = ~np.isnan(loaded.values)  # gaps are not events
        events = EventStream(loaded.timestamps()[keep], loaded.values[keep])
    else:
        events = loaded
    spec = _build(ResampleSpec, p)
    series = resample(events, spec)
    write_series_csv(out_dir / "resampled.csv", series)
    missing = int(np.isnan(series.values).sum())
    return [
        {
            "record": "resample",
            "file": "resampled.csv",
            "n_events": len(events),
            "n_bins": len(series),
            "missing_bins": missing,
            "start": series.start,
            "interval": series.interval,
            "aggregation": spec.aggregation,
            "policy": spec.empty_bin_policy,
        }
    ]


def _task_detect(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Score a series and emit alert decisions."""
    p = config.params
    series, _ = _load_regular(p["input"])
    detector = _build(DetectorConfig, p)
    spec = _build(ThresholdSpec, p, seed=config.seed)
    scores, decisions = score_and_decide(p["protocol"], detector, spec, series)
    _write_columns(
        out_dir / "scores.csv",
        ["timestamp", "score", "decision"],
        [series.timestamps().tolist(), scores.scores.tolist(), decisions.tolist()],
    )
    return [
        {
            "record": "detect",
            "file": "scores.csv",
            "protocol": p["protocol"],
            "method": detector.method,
            "n": len(series),
            "warmup": scores.warmup,
            "alert_count": int(decisions.sum()),
            "max_score": float(scores.valid.max()) if scores.valid.size else None,
            "seed": config.seed,
        }
    ]


def _eval_record(kind: str, report, input_path: str) -> dict:
    doc = asdict(report)
    doc.update({"record": kind, "input": Path(input_path).name})
    return doc


def _task_evaluate(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Score a labeled series and report precision/recall/regret."""
    p = config.params
    series, labels = _labeled_input(p)
    detector = _build(DetectorConfig, p)
    spec = _build(ThresholdSpec, p, seed=config.seed)
    loss = _build(LossSpec, p)
    evaluate = evaluate_streaming if p["protocol"] == "streaming" else evaluate_batch
    report = evaluate(detector, spec, series, labels, loss, p["max_delay"])
    return [_eval_record("evaluate", report, p["input"])]


def _task_hil(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Run the interactive loop: labels revealed only for flagged points."""
    p = config.params
    series, labels = _labeled_input(p)
    policy = DetectorThresholdPolicy(
        _build(DetectorConfig, p), _build(ThresholdSpec, p, seed=config.seed)
    )
    report, log = run_hil(policy, series, labels, _build(LossSpec, p), p["max_delay"])
    records = [_eval_record("hil", report, p["input"])]
    records.extend(
        {"record": "feedback", "t": index, "label": label} for index, label in log.entries
    )
    return records


def _task_bench_period(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Accuracy/runtime table for the period-detection methods."""
    p = config.params
    methods = tuple(m.strip() for m in p["methods"].split(",") if m.strip())
    result = run_period_benchmark(
        n_series=p["n_series"],
        config=PeriodicGeneratorConfig(seed=config.seed),
        methods=methods,
        threads=p["threads"],
        random_permutations=p["permutations"],
    )
    return [
        {
            "record": "method",
            "method": row.method,
            "accuracy": row.accuracy,
            "accuracy_within_1": row.accuracy_within_1,
            "mean_runtime_s": row.mean_runtime_s,
            "n_series": result.n_series,
            "seed": result.seed,
        }
        for row in result.results
    ]


def _task_conditional(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Covariate-conditioned vs joint multivariate anomaly scores."""
    p = config.params
    data = load_covariates_csv(p["input"], p["target"])
    outputs: dict[str, Any] = {}
    if p["mode"] in ("conditional", "both"):
        outputs["conditional"] = run_conditional(_build(ConditionalConfig, p), data)
    if p["mode"] in ("joint", "both"):
        outputs["joint"] = run_joint(_build(JointConfig, p), data)
    _write_columns(
        out_dir / "scores.csv",
        ["timestamp", *outputs],
        [data.target.timestamps().tolist(), *(seq.scores.tolist() for seq in outputs.values())],
    )
    records = []
    for mode, seq in outputs.items():
        records.append(
            {
                "record": "scores",
                "mode": mode,
                "file": "scores.csv",
                "n": len(seq),
                "warmup": seq.warmup,
                "max_score": float(seq.valid.max()) if seq.valid.size else None,
                "covariates": list(data.names),
            }
        )
    return records


def _rule_record(kind: str, rank: int, rule) -> dict:
    return {
        "record": kind,
        "rank": rank,
        "rule": str(rule),
        "terms": [list(term) for term in rule.terms],
        "score": rule.score,
        "coverage": rule.coverage,
    }


def _task_cohort(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    """Mine attribute rules that explain which series are anomalous."""
    p = config.params
    matrix_ids, matrix = load_matrix_csv(p["matrix"])
    attr_ids, attributes = load_attributes_csv(p["attributes"])
    if matrix_ids != attr_ids:
        row = next((i for i, (a, b) in enumerate(zip(matrix_ids, attr_ids)) if a != b), None)
        where = f"{len(matrix_ids)} vs {len(attr_ids)} rows" if row is None else (
            f"data row {row + 1}: {matrix_ids[row]!r} vs {attr_ids[row]!r}")
        raise SchemaError(f"matrix and attribute files disagree on series ids ({where})")
    miner = _build(CohortMinerConfig, p)
    if p["mode"] == "rules":
        anomalous = matrix.any(axis=1).astype(np.int8)  # flagged anywhere in the window
        rules = mine_rules(anomalous, attributes, miner)
        if p["top"] is not None:
            rules = rules[: p["top"]]
        return [_rule_record("rule", rank, rule) for rank, rule in enumerate(rules, start=1)]
    intervals = mine_rules_over_time(matrix, attributes, miner, p["min_support"])
    records = []
    for rank, interval in enumerate(intervals, start=1):
        record = _rule_record("interval", rank, interval.rule)
        record.update({"start": interval.start, "end": interval.end})
        records.append(record)
    return records


_TASK_FUNCS: dict[str, Callable[[ExperimentConfig, Path], list[dict]]] = {
    "datagen": _task_datagen,
    "resample": _task_resample,
    "detect": _task_detect,
    "evaluate": _task_evaluate,
    "hil": _task_hil,
    "bench-period": _task_bench_period,
    "conditional": _task_conditional,
    "cohort": _task_cohort,
}
TASKS = tuple(_TASK_FUNCS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run: a task plus its merged parameters."""

    task: str = declared(choices=TASKS)
    seed: int = declared(0, Range(0))
    out: str = "."
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "params", dict(self.params))

    def echo(self) -> dict[str, Any]:
        doc = {"task": self.task, "seed": self.seed, "out": self.out}
        doc.update(self.params)
        return doc


# ---------------------------------------------------------------------------
# Config schema: every key a task accepts, with its type and default


@dataclass(frozen=True)
class Param:
    """One config key of a task; its command-line flag is ``--key-with-dashes``."""

    key: str
    type: Any
    default: Any  # ``MISSING``: the key must be given
    choices: tuple[str, ...] | None = None
    help: str = ""
    range: Range | None = None
    owner: type | None = None  # the config dataclass whose field checks the value; None: ``_coerce`` does


#: Config key -> field, per dataclass a task builds from its parameters.
_BINDINGS: dict[type, dict[str, str]] = {
    ExperimentConfig: {"seed": "seed", "out": "out"},
    DetectorConfig: {"method": "method", "window": "window", "alpha": "alpha", "n_clusters": "n_clusters"},
    ThresholdSpec: {"threshold_kind": "kind", "threshold_value": "value", "percentile": "percentile",
                    "k": "k", "up": "up", "down": "down", "horizon": "horizon"},
    LossSpec: {"loss_kind": "kind", "fn_cost": "fn_cost", "fp_cost": "fp_cost"},
    PeriodicGeneratorConfig: {"length": "fixed_length", "period": "fixed_period", "start": "start",
                              "interval": "interval"},
    InjectionConfig: {"inject_rate": "rate", "inject_kind": "kind"},
    ResampleSpec: {"interval": "interval", "agg": "aggregation", "policy": "empty_bin_policy",
                   "anchor": "bin_anchor", "max_carry": "max_carry_bins"},
    ConditionalConfig: {"ar_order": "ar_order", "cov_lags": "covariate_lags", "forgetting": "forgetting",
                        "ridge": "ridge"},
    JointConfig: {"forgetting": "forgetting", "ridge": "ridge"},
    CohortMinerConfig: {"max_depth": "max_depth", "min_score": "min_score", "quality": "quality",
                        "min_recall": "min_recall"},
}


def _bound(cls: type, **defaults: Any) -> tuple[Param, ...]:
    """The keys bound to ``cls``, typed, defaulted and declared by its fields."""
    specs, given = field_specs(cls), {f.name: f.default for f in fields(cls)}
    return tuple(
        Param(key, specs[name][0], defaults.get(key, given[name]), specs[name][2], f"{cls.__name__}.{name}",
              specs[name][1], cls)
        for key, name in _BINDINGS[cls].items()
    )


def _build(cls: type, params: Mapping[str, Any], **extra: Any):
    """Construct ``cls`` from the config keys bound to its fields."""
    return cls(**{name: params[key] for key, name in _BINDINGS[cls].items()}, **extra)


def _input(help: str) -> Param:
    return Param("input", str, MISSING, help=help)


_DETECT = (
    _input("Input series CSV."),
    *_bound(DetectorConfig),
    Param("protocol", str, "streaming", ("streaming", "batch")),
    *_bound(ThresholdSpec),
)
_LABELED = (
    *_DETECT,
    Param("labels", str | None, None, help="Separate timestamp,label CSV."),
    *_bound(LossSpec),
    Param("max_delay", int, 0, help="Alerts this many points late still count.", range=Range(0, INT64_MAX)),
)

#: Per task, every config key (and so every flag) it accepts.
TASK_PARAMS: dict[str, dict[str, Param]] = {
    task: {param.key: param for param in (*_bound(ExperimentConfig), *params)}
    for task, params in {
        "datagen": (
            # four-digit file names stay in order
            Param("n_series", int, 10, help="Series to write.", range=Range(1, 10_000)),
            *_bound(PeriodicGeneratorConfig),
            *_bound(InjectionConfig),
        ),
        "resample": (
            _input("Input series or event CSV."),
            *_bound(ResampleSpec, interval=3600),
        ),
        "detect": _DETECT,
        "evaluate": _LABELED,
        "hil": tuple(param for param in _LABELED if param.key != "protocol"),
        "bench-period": (
            Param("n_series", int, 1000, help="Generator draws to score.", range=BENCH_SERIES),
            Param("methods", str, ",".join(DEFAULT_METHODS), help="Comma-separated period methods."),
            Param("permutations", int, 100, help="Shuffles for the random baseline.", range=PERMUTATIONS),
            Param("threads", int, 1, help="Worker processes.", range=Range(1, INT64_MAX)),
        ),
        "conditional": (
            _input("Multi-column timestamp,<col>,... CSV."),
            Param("target", str | None, None, help="Column to score (default: first)."),
            Param("mode", str, "both", ("conditional", "joint", "both")),
            *_bound(ConditionalConfig),
        ),
        "cohort": (
            Param("matrix", str, MISSING, help="series_id,<t>,... 0/1 CSV."),
            Param("attributes", str, MISSING, help="series_id,<attr>,... CSV."),
            Param("mode", str, "rules", ("rules", "timeline")),
            *_bound(CohortMinerConfig),
            Param("min_support", int, 1, help="Anomalous series a timestep needs to be mined.",
                  range=Range(1, INT64_MAX)),
            Param("top", int | None, None, help="Keep only the best N rules.", range=Range(1, INT64_MAX)),
        ),
    }.items()
}


def _kinds(param: Param) -> tuple[type, ...]:
    """The types ``param`` admits: ``int | None`` gives ``(int, NoneType)``."""
    return get_args(param.type) or (param.type,)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _coerce(param: Param, value: Any, from_flag: bool) -> Any:
    """``value`` as ``param.type``, in its range or choices unless a config field checks it.

    Flag text is parsed; a JSON value must already have the type, except that
    an integer is accepted where a float is declared.
    """
    kinds = _kinds(param)
    if value is None and type(None) in kinds:
        return None
    for kind in kinds:
        if kind is type(None):
            continue
        if not from_flag and not (type(value) is kind or (kind is float and type(value) is int)):
            continue
        try:
            coerced = kind(value)
        except (ValueError, OverflowError):
            continue
        problem = param.owner is None and refusal(param.key, coerced, param.type, param.range, param.choices)
        if problem:
            raise SpecError(problem)
        return coerced
    expected = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
    raise SpecError(f"{param.key} must be {expected}, got {value!r}")


def _merge_params(task: str, config_path: str | None, overrides: Mapping[str, Any]) -> dict:
    schema = TASK_PARAMS[task]
    merged = {key: param.default for key, param in schema.items()}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise InputError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise FormatError(f"{path}: invalid JSON config ({err})") from None
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        declared = doc.pop("task", task)
        if declared != task:
            raise SpecError(f"config is for task {declared!r}, not {task!r}")
        unknown = sorted(set(doc) - set(merged))
        if unknown:
            raise SpecError(f"unknown config keys for {task}: {unknown}")
        merged.update({key: _coerce(schema[key], value, False) for key, value in doc.items()})
    merged.update(
        {key: _coerce(schema[key], text, True) for key, text in overrides.items() if text is not None}
    )
    missing = [_flag(key) for key, value in merged.items() if value is MISSING]
    if missing:
        raise InputError(f"{task} needs {' and '.join(missing)}")
    return merged


# ---------------------------------------------------------------------------
# Click surface


def _emit_error(task: str, err: Exception) -> NoReturn:
    module = "cli"
    trace = err.__traceback__
    while trace is not None:
        name = trace.tb_frame.f_globals.get("__name__", "")
        # a refused field names the module of its dataclass, not the checker's
        checker = trace.tb_frame.f_code is check_fields.__code__
        if name.startswith("tadkit.") and name != "tadkit.cli" and not checker:
            module = name.split(".", 1)[1]
        trace = trace.tb_next
    payload = {
        "error": type(err).__name__,
        "task": task,
        "module": module,
        "message": str(err),
    }
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    raise SystemExit(2)


def _execute(task: str, config: str | None, **flags: str | None) -> None:
    try:
        params = _merge_params(task, config, flags)
        experiment = ExperimentConfig(
            task=task, seed=params.pop("seed"), out=params.pop("out"), params=params
        )
        with np.errstate(all="ignore"):  # an overflow surfaces as an InputError, not a warning
            report = run_experiment(experiment)
        jsonl = write_report(report, experiment.out)
    except (TadError, OSError) as err:
        _emit_error(task, err)
    click.echo(f"{task}: {len(report.records)} records -> {jsonl}")
    for record in report.records:
        if record.get("record") == "method":
            click.echo(
                f"  {record['method']:>11s}  accuracy {record['accuracy']:.3f}  "
                f"mean runtime {record['mean_runtime_s'] * 1e3:.3f} ms"
            )


def _option(param: Param) -> click.Option:
    # a flag cannot say null, so only the other kinds are listed
    metavar = "|".join(kind.__name__ for kind in _kinds(param) if kind is not type(None)).upper()
    default = "required" if param.default is MISSING else f"default: {param.default}"
    allowed = "; ".join(filter(None, [describe(param.type, param.range, param.choices), default]))
    return click.Option([_flag(param.key)], metavar=metavar, help=f"{param.help} [{allowed}]")


class _TaskCommand(click.Command):
    """A task whose unparsable flags give the JSON error line, not click's usage text."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as err:
            _emit_error(self.name, err)


@click.group()
@click.version_option(version=__version__, prog_name="tad")
def main() -> None:
    """Streaming anomaly detection toolkit."""


for _task in TASKS:
    main.add_command(
        _TaskCommand(
            _task,
            callback=partial(_execute, _task),
            params=[
                click.Option(["--config"], type=click.Path(), help="JSON config; flags override it."),
                *(_option(param) for param in TASK_PARAMS[_task].values()),
            ],
            help=_TASK_FUNCS[_task].__doc__,
        )
    )


if __name__ == "__main__":
    main()
