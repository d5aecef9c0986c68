"""Acceptance-gate margins, recorded as benchmark metadata.

Runs two gates of ``tests/test_acceptance.py`` by node id, unchanged, and
writes their margins to ``.perfbench_runs/gates.json``; every later
``perfbench/run.py`` result copies that file into its metadata:

- C2: the autoperiod/peaks and autoperiod/acf mean-runtime ratios, whose
  gate is >= 50 (read from the test's own period-benchmark fixture);
- C4: the seconds the prefix-consistency sweep takes, whose gate is < 120.

These are metadata, not compared metrics.  The two gates take about two
minutes, more than one benchmark run may, so they run here, on demand::

    python3 perfbench/gates.py
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
C2 = "tests/test_acceptance.py::test_c2_method_ranking_and_runtime_ratio"
C4 = "tests/test_acceptance.py::test_c4_streaming_equals_prefix_refit_for_every_pairing"


class Capture:
    """pytest plugin: call-phase durations, outcomes and the C2 ratios."""

    def __init__(self) -> None:
        self.duration: dict[str, float] = {}
        self.outcome: dict[str, str] = {}
        self.ratios: dict[str, float] = {}

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        yield
        bench = item.funcargs.get("benchmark_1000")
        if bench is not None:
            runtime = {r.method: r.mean_runtime_s for r in bench[0].results}
            self.ratios = {
                "autoperiod/peaks": runtime["autoperiod"] / runtime["peaks"],
                "autoperiod/acf": runtime["autoperiod"] / runtime["acf"],
            }

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            self.duration[report.nodeid] = report.duration
            self.outcome[report.nodeid] = report.outcome


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import git_commit

    capture = Capture()
    code = pytest.main([C2, C4, "-q", "-p", "no:cacheprovider"], plugins=[capture])
    c4_seconds = capture.duration.get(C4)
    gates = {
        "measured_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(),
        "pytest_exit": int(code),
        "c2": {
            "outcome": capture.outcome.get(C2),
            "bound": 50.0,
            **{name: {"ratio": r, "margin": r / 50.0} for name, r in capture.ratios.items()},
        },
        "c4": {
            "outcome": capture.outcome.get(C4),
            "bound_s": 120.0,
            "seconds": c4_seconds,
            "margin": 120.0 / c4_seconds if c4_seconds else None,
        },
    }
    out = ROOT / ".perfbench_runs" / "gates.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(gates, indent=2, sort_keys=True) + "\n")
    print(json.dumps(gates, sort_keys=True))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
