"""Check that the tests still kill each mutant of a catalogue of contract breaks.

Run from the repository root::

    python3 tools/mutants.py HEAD

The commit is exported with ``git archive`` into a temporary directory, so
the repository and its ``.git`` are never touched.  Each entry of
``CATALOGUE`` names the contract it breaks, one exact source substitution
and the test files that guard the contract.  The mutants are applied one
at a time: the substitution is made, the mutant's test files run under
pytest, and the source is restored.  A mutant is killed when a test fails,
and survives when every test passes.  The exit status is 0 when every
mutant is killed, and 1 when one survives, when its pytest run ends any
other way, or when its text to replace is not found exactly once, so that
a refactor of the mutated code breaks the catalogue loudly.

A surviving mutant is a finding: add a test that kills it, or record why
it is equivalent.  Never drop a mutant because it survives.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from bench_record import export

RUN_TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    contract: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in ``path``
    new: str
    tests: tuple[str, ...]


CATALOGUE = (
    Mutant("hil-sees-the-next-point", "prefix: the HIL policy decides at t from x_1..x_t only",
           "src/tadkit/evaluation.py",
           "decision = decide(values[: t + 1], log)", "decision = decide(values[: t + 2], log)",
           ("tests/test_evaluation.py",)),
    Mutant("hil-records-every-positive", "censoring: feedback arrives only for flagged points",
           "src/tadkit/evaluation.py",
           "        if decision == 1:\n            record(t, truth[t])",
           "        if decision == 1 or truth[t] == 1:\n            record(t, truth[t])",
           ("tests/test_evaluation.py",)),
    Mutant("report-skips-one-scored-point", "warmup: every point past the warmup is scored",
           "src/tadkit/evaluation.py",
           "scored_pred, scored_lab = pred[warmup:], lab[warmup:]",
           "scored_pred, scored_lab = pred[warmup + 1 :], lab[warmup + 1 :]",
           ("tests/test_evaluation.py",)),
    Mutant("k-sigma-decides-on-sample-std", "threshold in force: k_sigma decides against its threshold",
           "src/tadkit/thresholds.py",
           "decision = 1 if n >= 2 and score > mean + self._k * sqrt(self._m2 / n) else 0",
           "decision = 1 if n >= 2 and score > mean + self._k * sqrt(self._m2 / (n - 1)) else 0",
           ("tests/test_thresholds.py",)),
    Mutant("k-sigma-decides-from-three", "threshold in force: k_sigma decides once its threshold is finite",
           "src/tadkit/thresholds.py",
           "decision = 1 if n >= 2 and score > mean", "decision = 1 if n >= 3 and score > mean",
           ("tests/test_thresholds.py",)),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("commit", help="commit whose tests are checked")
    return parser.parse_args(argv)


def run_mutant(mutant: Mutant, copy: Path) -> str:
    """``killed``, ``survived`` or why the mutant could not be judged; ``copy`` is left as it was."""
    path = copy / mutant.path
    source = path.read_text()
    if (count := source.count(mutant.old)) != 1:
        return f"not applied: its text to replace occurs {count} times in {mutant.path}"
    path.write_text(source.replace(mutant.old, mutant.new))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"not judged: its tests ran past {RUN_TIMEOUT_S} s"
    finally:
        path.write_text(source)
    # pytest exits 1 when a test failed and 0 when all passed; anything else is no verdict
    return {0: "survived", 1: "killed"}.get(done.returncode, f"not judged: pytest exited {done.returncode}")


def main(argv=None) -> int:
    args = parse_args(argv)
    killed = 0
    with tempfile.TemporaryDirectory(prefix="tadkit-mutants-") as tmp:
        copy = export(args.commit, Path(tmp) / "copy")
        for mutant in CATALOGUE:
            start = time.perf_counter()
            verdict = run_mutant(mutant, copy)
            killed += verdict == "killed"
            print(f"{mutant.name}: {verdict} ({mutant.contract}; "
                  f"{', '.join(mutant.tests)}, {time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{killed} of {len(CATALOGUE)} mutants killed")
    return 0 if killed == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
