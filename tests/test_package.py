import importlib

import pytest

import hanoilab

# The public names of the package, by the module that defines each.
PUBLIC = {
    "errors": [
        "DiscLimitError",
        "DomainError",
        "HanoiError",
        "IllegalMove",
        "ResourceBudgetError",
        "StateBudgetExceeded",
    ],
    "moves": [
        "Configuration",
        "GrayReport",
        "Move",
        "MoveTrace",
        "SubtowerReport",
        "disc_move_counts",
        "generate_frame_stewart",
        "generate_three_peg",
        "gray_trace",
        "moment_trace",
        "peg_label",
        "trace_length",
        "trace_to_csv",
        "validate_sequence",
        "verify_subtower_independence",
        "verify_trace",
    ],
    "oracle": [
        "CertificationSweep",
        "GraphMetrics",
        "OracleReport",
        "bfs_distance",
        "certify_range",
        "geodesic_uniqueness",
        "graph_metrics",
        "neighbors",
        "pack",
        "perfect_state",
        "tower_distance",
        "unpack",
    ],
    "recurrences": [
        "DeltaValue",
        "GrowthFit",
        "GrowthRow",
        "HanoiSolver",
        "PlateauRun",
        "RatioValue",
        "SensitivityProfile",
        "SolveResult",
        "balanced_fs",
        "delta_k",
        "fs_split",
        "growth_exponent_diagnostic",
        "growth_table",
        "plateau_scan",
        "ratio_rho",
        "render_ratio",
        "sensitivity_profile",
        "t3_closed",
        "t3_from_recurrence",
        "tp_optimal",
    ],
    "tables": [
        "ComparisonEntry",
        "ComparisonReport",
        "REFERENCE",
        "ReferenceSet",
        "Table1Row",
        "emit_table",
        "verify_against_references",
    ],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_sixty_one_public_names():
    assert len(NAMES) == len(set(NAMES)) == 61
    assert sorted(hanoilab.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_each_name_is_its_module_attribute(module, name):
    home = importlib.import_module(f"hanoilab.{module}")
    assert getattr(hanoilab, name) is getattr(home, name)
    assert name in dir(hanoilab)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from hanoilab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_submodules_are_attributes(module):
    assert getattr(hanoilab, module) is importlib.import_module(f"hanoilab.{module}")


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hanoilab.no_such_name
    with pytest.raises(ImportError):
        from hanoilab import no_such_name  # noqa: F401
