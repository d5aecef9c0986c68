import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import tadkit

_MODULES = (
    "core", "datagen", "resample", "periodicity", "detectors", "thresholds", "evaluation",
    "conditional", "cohort",
)

# the names the package exported before it derived them from its modules
_EARLIER_NAMES = [
    "__version__", "AcfProfile", "align", "AlignmentError", "AlwaysFlagPolicy",
    "apply_batch", "autocorrelation", "BenchmarkResult", "CohortMinerConfig",
    "ConditionalConfig", "ConditionalScorer", "CovariateSet", "DegenerateScaleError",
    "detect_period_acf", "detect_period_autoperiod", "detect_period_fft",
    "detect_period_peaks", "detection_delay", "DetectorConfig",
    "DetectorThresholdPolicy", "EvalReport", "evaluate_batch", "evaluate_streaming",
    "EventStream", "FeedbackLog", "FormatError", "generate_periodic",
    "inject_point_anomalies", "InjectionConfig", "InputError", "is_missing",
    "JointConfig", "JointScorer", "LabeledSeries", "LabelSequence", "LossSpec",
    "make_detector", "MethodResult", "mine_rules", "mine_rules_over_time", "MISSING",
    "NeverFlagPolicy", "oracle_fixed_threshold", "OrderingError", "PeriodEstimate",
    "PeriodicGeneratorConfig", "PopulationDataset", "ProtocolError", "resample",
    "ResampleSpec", "Rule", "RuleInterval", "run_batch", "run_conditional", "run_hil",
    "run_joint", "run_period_benchmark", "run_population", "run_streaming",
    "SchemaError", "ScoreSequence", "series_rng", "slice_prefix", "SpecError",
    "StreamingDetector", "suggest_rate", "TadError", "Thresholder", "ThresholdSpec",
    "TimeSeries",
]


def test_package_names_are_the_modules_names_in_order():
    expected = ["__version__"]
    for name in _MODULES:
        expected += importlib.import_module(f"tadkit.{name}").__all__
    assert tadkit.__all__ == expected
    assert len(set(tadkit.__all__)) == len(tadkit.__all__)


def test_every_package_name_resolves():
    namespace = {}
    exec("from tadkit import *", namespace)
    assert [name for name in tadkit.__all__ if name not in namespace] == []
    assert tadkit.resample is importlib.import_module("tadkit.resample").resample
    assert callable(tadkit.resample)


def test_no_earlier_name_is_lost():
    assert len(_EARLIER_NAMES) == 70
    assert set(_EARLIER_NAMES) <= set(tadkit.__all__)


def _unused_imports(path):
    """The names a module's top-level imports bind that nothing in the module reads."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_top_level_import_is_used():
    package = Path(tadkit.__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert unused == {}


def test_importing_the_cli_loads_no_process_pool():
    # bench-period --threads N>1 imports the pool where it starts one
    package_root = str(Path(tadkit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    code = "import sys, tadkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
