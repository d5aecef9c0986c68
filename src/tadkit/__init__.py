"""Streaming time-series anomaly detection toolkit.

The package splits into small layers: :mod:`tadkit.core` holds the value
types everything else shares; :mod:`tadkit.datagen`, :mod:`tadkit.resample`
and :mod:`tadkit.periodicity` prepare and characterize data;
:mod:`tadkit.detectors` + :mod:`tadkit.thresholds` turn readings into alert
decisions; :mod:`tadkit.evaluation` measures those decisions under batch,
streaming, and interactive protocols; :mod:`tadkit.conditional` and
:mod:`tadkit.cohort` cover covariate-aware scoring and population-level
diagnosis.  The ``tad`` command line lives in :mod:`tadkit.cli`.
"""

__version__ = "0.1.0"

from . import cohort, conditional, core, datagen, detectors, evaluation, periodicity, resample, thresholds

__all__ = [
    "__version__",
    *core.__all__,
    *datagen.__all__,
    *resample.__all__,
    *periodicity.__all__,
    *detectors.__all__,
    *thresholds.__all__,
    *evaluation.__all__,
    *conditional.__all__,
    *cohort.__all__,
]

# The star imports come last: ``from .resample import *`` rebinds
# ``tadkit.resample`` from the module to the function.
from .core import *  # noqa: E402,F403
from .datagen import *  # noqa: E402,F403
from .resample import *  # noqa: E402,F403
from .periodicity import *  # noqa: E402,F403
from .detectors import *  # noqa: E402,F403
from .thresholds import *  # noqa: E402,F403
from .evaluation import *  # noqa: E402,F403
from .conditional import *  # noqa: E402,F403
from .cohort import *  # noqa: E402,F403
