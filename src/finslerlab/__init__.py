"""finslerlab: numerical Finsler chart geometry and identity verification.

The per-point constructors whose names coincide with their home submodules
(spray.spray, sasaki.sasaki, liouville.liouville) are not re-exported here;
import them from their modules.
"""

__version__ = "0.1.0"

from .charts import (
    ChartMap,
    chart_catalog,
    chart_checks,
    cubic_map,
    frame_change_determinant,
    identity_map,
    induced_tangent_map,
    linear_map,
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
from .liouville import BarFrame, FramePack, LiouvilleData, bar_frame, frame_pack
from .metrics import FinslerMetric, Poly, load_metric, sample_points
from .sasaki import SasakiMetric, kahler_form
from .spray import (
    FundamentalTensor,
    GeodesicResult,
    HorizontalFrame,
    SprayData,
    Workspace,
    fundamental_tensor,
    horizontal_frame,
    integrate_geodesic,
    nonlinear_curvature,
)

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
    "FundamentalTensor",
    "fundamental_tensor",
    "SprayData",
    "HorizontalFrame",
    "GeodesicResult",
    "Workspace",
    "horizontal_frame",
    "nonlinear_curvature",
    "integrate_geodesic",
    # liouville frames
    "LiouvilleData",
    "BarFrame",
    "FramePack",
    "bar_frame",
    "frame_pack",
    # sasaki
    "SasakiMetric",
    "kahler_form",
    # charts
    "ChartMap",
    "identity_map",
    "linear_map",
    "cubic_map",
    "chart_catalog",
    "induced_tangent_map",
    "pushforward_metric",
    "chart_checks",
    "frame_change_determinant",
    # connections
    "ConnectionTriple",
    "connection_triple",
    # verification
    "run_verification",
    "check_point",
]
