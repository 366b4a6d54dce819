"""risplan: planning and analysis toolkit for reconfigurable intelligent surfaces.

Three planning questions, one package:

* frequency: which band does a unit-cell design actually influence
  (:mod:`risplan.unitcell`, fed by Touchstone files via :mod:`risplan.touchstone`);
* space: where in a scene does a surface help or hurt, under link-budget,
  spectral-efficiency, localization and secrecy metrics
  (:mod:`risplan.influence` and the metric modules);
* time: what an uncoordinated surface switching in another operator's band
  does to a victim link (:mod:`risplan.coexistence`).

Hot numeric loops live in :mod:`risplan.kernels`, one vectorized numpy
implementation each.
"""

from .errors import ConfigError, RunError, SceneError, TouchstoneError, CoincidentNodeError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "RunError",
    "SceneError",
    "TouchstoneError",
    "CoincidentNodeError",
    "__version__",
]
