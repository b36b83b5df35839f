"""finslerlab: numerical Finsler chart geometry and identity verification.

The per-point constructors whose names coincide with their home submodules
(spray.spray, sasaki.sasaki, liouville.liouville) are not re-exported here;
import them from their modules.
"""

__version__ = "0.1.0"

from .charts import (
    ChartMap,
    chart_catalog,
    check_barframe_rule,
    check_tk_rule,
    cubic_map,
    frame_change_determinant,
    identity_map,
    induced_tangent_map,
    linear_map,
    pushforward_metric,
)
from .checks import run_verification
from .connections import (
    ConnectionTable,
    VaismanTable,
    VranceanuTable,
    check_composite_basic,
    check_vaisman_basic,
    composite_connection,
    curvature_on_line,
    splitting_compatibility,
    vaisman,
    vranceanu,
)
from .errors import (
    ChartExitError,
    ConfigError,
    DegenerateMetricError,
    FinslerLabError,
    SingularEvaluationError,
)
from .jets import Jet3, ScalarField, TangentPoint, eval_jet3, fd_oracle
from .liouville import (
    BarFrame,
    FramePack,
    LiouvilleData,
    bar_frame,
    bar_frame_brackets,
    frame_pack,
    frobenius_checks,
    liouville_coefficient_identities,
)
from .metrics import FinslerMetric, Poly, load_metric, sample_points
from .sasaki import SasakiMetric, compatibility_checks, kahler_form
from .spray import (
    EulerReport,
    FundamentalTensor,
    GeodesicResult,
    HorizontalFrame,
    SprayData,
    Workspace,
    euler_identities,
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
    "Jet3",
    "ScalarField",
    "TangentPoint",
    "eval_jet3",
    "fd_oracle",
    # metrics
    "FinslerMetric",
    "Poly",
    "load_metric",
    "sample_points",
    # spray
    "FundamentalTensor",
    "EulerReport",
    "fundamental_tensor",
    "euler_identities",
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
    "liouville_coefficient_identities",
    "bar_frame_brackets",
    "frame_pack",
    "frobenius_checks",
    # sasaki
    "SasakiMetric",
    "kahler_form",
    "compatibility_checks",
    # charts
    "ChartMap",
    "identity_map",
    "linear_map",
    "cubic_map",
    "chart_catalog",
    "induced_tangent_map",
    "pushforward_metric",
    "check_tk_rule",
    "check_barframe_rule",
    "frame_change_determinant",
    # connections
    "VranceanuTable",
    "VaismanTable",
    "ConnectionTable",
    "vranceanu",
    "vaisman",
    "composite_connection",
    "check_vaisman_basic",
    "check_composite_basic",
    "splitting_compatibility",
    "curvature_on_line",
    # verification
    "run_verification",
]
