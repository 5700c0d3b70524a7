"""Unified JOD-scale psychometric scaling toolchain.

Merges pairwise-comparison and rating datasets onto one interpretable
quality scale, with the surrounding machinery: display models and the
perceptually uniform luminance encoding, metric-to-JOD mapping and
validation statistics, experiment-design pair selection, and a synthetic
observer for end-to-end verification.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DesignError,
    DisconnectedGraphError,
    IntegrityError,
    JodscaleError,
    ParseError,
    UndefinedCorrelationError,
)
from .model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    RatingTable,
    load_collection,
    save_collection,
)
from .scaling import (
    SIGMA_JOD,
    LinkParams,
    PosteriorProblem,
    UnifiedScale,
    bootstrap_ci,
    connected_components,
    preference_probability,
    scale,
)

__all__ = [
    "__version__",
    "ComparisonGraph",
    "ConditionId",
    "ConvergenceError",
    "DatasetCollection",
    "DegenerateDataError",
    "DesignError",
    "DisconnectedGraphError",
    "IntegrityError",
    "JodscaleError",
    "LinkParams",
    "ParseError",
    "PosteriorProblem",
    "RatingTable",
    "SIGMA_JOD",
    "UndefinedCorrelationError",
    "UnifiedScale",
    "bootstrap_ci",
    "connected_components",
    "load_collection",
    "preference_probability",
    "save_collection",
    "scale",
]
