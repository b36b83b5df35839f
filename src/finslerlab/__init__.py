"""finslerlab: numerical Finsler chart geometry and identity verification."""

__version__ = "0.1.0"

from .charts import (
    ChartMap,
    chart_catalog,
    chart_checks,
    cubic_map,
    pushforward_metric,
)
from .checks import check_point, run_verification
from .connections import ConnectionTriple, connection_triple
from .errors import (
    ChartExitError,
    ConfigError,
    DegenerateMetricError,
    FinslerLabError,
    SingularEvaluationError,
)
from .jets import TangentPoint, fd_oracle
from .metrics import FinslerMetric, Poly, load_metric, sample_points
from .spray import GeodesicResult, Workspace, integrate_geodesic, workspace_at

__all__ = [
    "__version__",
    # errors
    "FinslerLabError",
    "ConfigError",
    "SingularEvaluationError",
    "DegenerateMetricError",
    "ChartExitError",
    # jets
    "TangentPoint",
    "fd_oracle",
    # metrics
    "FinslerMetric",
    "Poly",
    "load_metric",
    "sample_points",
    # spray
    "GeodesicResult",
    "Workspace",
    "workspace_at",
    "integrate_geodesic",
    # charts
    "ChartMap",
    "cubic_map",
    "chart_catalog",
    "pushforward_metric",
    "chart_checks",
    # connections
    "ConnectionTriple",
    "connection_triple",
    # verification
    "run_verification",
    "check_point",
]
