"""Rate regions and outer bounds for the half-duplex cooperative MAC."""

from .core import (
    ChannelGains,
    DfAllocation,
    LinearRegion,
    PdfAllocation,
    PowerBudget,
    RatePolygon,
    TimeSlots,
    ValidationError,
    c_gauss,
    polygon_from_constraints,
    power_feasible,
    power_used,
)
from .gaussian import (
    NoiseCorrelation,
    baseline_region,
    degraded_outer_region,
    df_region,
    gaussian_outer_region,
    pdf_joint_region,
    pdf_partial_user_region,
    pdf_separate_region,
)
from .optimize import (
    SCHEMES,
    FrontierResult,
    OptResult,
    SearchConfig,
    frontier,
    optimize_scheme,
    region_contains,
    sample_allocation,
    scheme_region,
    swap_allocation,
    upper_hull,
    weighted_best_vertex,
)
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_hash, serialize_scenario
from .verify import (
    Verdict,
    df_to_pdf_allocation,
    pdf_to_df_allocation,
    replay_witness,
    verify_achievable_in_outer,
    verify_claims,
    verify_degraded_capacity,
    verify_full_vs_partial_user_decoding,
    verify_joint_dominates_separate,
    verify_pdf_df_equivalence,
)

__version__ = "0.1.0"
