"""HARQ transport-block scheduling over non-terrestrial IoT links.

Subframe-level timelines, link math and throughput models for LTE-M and
NB-IoT uplinks/downlinks carried over LEO satellites, covering both the
legacy fixed-delay scheduling and variable per-TB delay scheduling.
"""
from .bler import (
    BlerTable,
    bler_at,
    default_table,
    load_bler_table,
    select_repetitions,
    spectral_efficiency,
)
from .errors import (
    ConfigError,
    CurveNotFoundError,
    InfeasibleLinkError,
    InvalidInputError,
    MinDelayViolationError,
)
from .geometry import OrbitGeometry, Payload, round_trip_time, slant_range
from .harq import (
    CycleParams,
    Direction,
    GrantMode,
    dd2a_bundled,
    dd2a_variable,
    delay_plan,
    fixed_positions,
    harq_for_tbphc,
    required_harq_count,
    ug2d_variable,
)
from .linkbudget import LinkBudgetParams, fspl_db, snr_db
from .metrics import (
    ProcessorProfile,
    SchedulingMode,
    cycle_length_closed_form,
    delay_power,
    suf_closed_form,
    suf_generic,
    throughput,
)
from .scenario import (
    CalibrationResult,
    ScenarioConfig,
    ScenarioResult,
    calibrate,
    config_from_mapping,
    load_config,
    results_to_csv,
    run_scenario,
    sweep,
)
from .scheduler import (
    Activity,
    Conflict,
    ConflictReport,
    GoodputResult,
    Perspective,
    SlotUse,
    SubframeTimeline,
    bs_view,
    build_legacy_cycle,
    build_proposed_cycle,
    export_timeline,
    monte_carlo_goodput,
    validate,
)

__version__ = "0.1.0"
