"""Gaze-map processing toolkit.

Data model and numerics for probability maps over image grids, the
standard saliency metric suite, gaze / caption / alignment training
objectives with analytic gradients, KL-peak frame-pair curation,
structured-caption handling with text metrics, and deterministic file
formats behind the ``gazekit`` command-line tool.
"""

from __future__ import annotations

from . import (
    alignment, captions, curation, errors, gradcheck, grids,
    manifests, mapio, objectives, radar, saliency, textmetrics,
)
from .alignment import *  # noqa: F403
from .captions import *  # noqa: F403
from .curation import *  # noqa: F403
from .errors import *  # noqa: F403
from .gradcheck import *  # noqa: F403
from .grids import *  # noqa: F403
from .manifests import *  # noqa: F403
from .mapio import *  # noqa: F403
from .objectives import *  # noqa: F403
from .radar import *  # noqa: F403
from .saliency import *  # noqa: F403
from .textmetrics import *  # noqa: F403

__version__ = "0.1.0"

# Each name is listed once, in its module's __all__; the package
# re-exports them all.
_MODULES = (
    errors, grids, saliency, objectives, alignment, curation,
    captions, textmetrics, mapio, manifests, radar, gradcheck,
)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
