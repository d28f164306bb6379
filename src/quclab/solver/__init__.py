"""Dirichlet energy minimization with the regularization cascade."""

from .mesh import BoxMesh
from .problem import (
    ProblemSpec,
    RegularizationSchedule,
    load_problem_config,
    make_boundary,
    make_source,
    radial_power_solution,
)
from .minimize import (
    DiscreteSolution,
    StageRecord,
    assemble_energy,
    minimize,
)
from .reports import (
    RegularityReport,
    disk_cell_weights,
    euler_lagrange_residual,
    sobolev_report,
    w1p_error,
)

__all__ = [
    "BoxMesh",
    "DiscreteSolution",
    "ProblemSpec",
    "RegularityReport",
    "RegularizationSchedule",
    "StageRecord",
    "assemble_energy",
    "disk_cell_weights",
    "euler_lagrange_residual",
    "load_problem_config",
    "make_boundary",
    "make_source",
    "minimize",
    "radial_power_solution",
    "sobolev_report",
    "w1p_error",
]
