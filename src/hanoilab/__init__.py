"""Multi-peg Tower of Hanoi: exact recurrences, move traces, certification."""

from .errors import (
    DiscLimitError,
    DomainError,
    HanoiError,
    IllegalMove,
    ResourceBudgetError,
    StateBudgetExceeded,
)
from .moves import (
    Configuration,
    GrayReport,
    Move,
    MoveTrace,
    SubtowerReport,
    disc_move_counts,
    generate_frame_stewart,
    generate_three_peg,
    gray_trace,
    moment_trace,
    peg_label,
    trace_length,
    trace_to_csv,
    validate_sequence,
    verify_subtower_independence,
    verify_trace,
)
from .oracle import (
    CertificationSweep,
    GraphMetrics,
    OracleReport,
    bfs_distance,
    certify_range,
    geodesic_uniqueness,
    graph_metrics,
    neighbors,
    pack,
    perfect_state,
    unpack,
)
from .recurrences import (
    DeltaValue,
    GrowthFit,
    GrowthRow,
    HanoiSolver,
    PlateauRun,
    RatioValue,
    SensitivityProfile,
    SolveResult,
    balanced_fs,
    delta_k,
    fs_split,
    growth_exponent_diagnostic,
    growth_table,
    plateau_scan,
    ratio_rho,
    render_ratio,
    sensitivity_profile,
    t3_closed,
    t3_from_recurrence,
    tp_optimal,
)
from .tables import (
    ComparisonEntry,
    ComparisonReport,
    REFERENCE,
    ReferenceSet,
    Table1Row,
    emit_table,
    verify_against_references,
)

__version__ = "0.1.0"
