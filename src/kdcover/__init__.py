"""Kinetic disk covering: peak-area-minimal sensing radii over time.

Objects move along known linear trajectories over [0, 1]; fixed stations
adjust their sensing radii so every object stays covered.  `solve_minmax`
computes a radius schedule minimizing the peak total disk area together
with a certified optimality gap.
"""

from .certificate import check_feasible
from .envelope import (
    SolutionTimeline,
    TimelineSegment,
    argmax_timeline,
    merge_lower_envelope,
    timeline_cost,
)
from .geometry import MovingInstance, Point2, QuadraticPoly, Trajectory
from .instances import GenParams, read_instance, write_instance
from .kinetic import ImprovementFlags, extend
from .minmax import KineticResult, SolverConfig, fixed_nn_baseline, solve_minmax
from .static_cover import (
    BranchBoundBackend,
    Candidates,
    SolverBackend,
    StaticSolution,
    enumerate_candidates,
    nn_heuristic,
    solve_exact,
)

__version__ = "0.1.0"

__all__ = [
    "MovingInstance",
    "Point2",
    "Trajectory",
    "QuadraticPoly",
    "GenParams",
    "read_instance",
    "write_instance",
    "Candidates",
    "StaticSolution",
    "SolverBackend",
    "BranchBoundBackend",
    "enumerate_candidates",
    "nn_heuristic",
    "solve_exact",
    "ImprovementFlags",
    "extend",
    "check_feasible",
    "TimelineSegment",
    "SolutionTimeline",
    "timeline_cost",
    "argmax_timeline",
    "merge_lower_envelope",
    "SolverConfig",
    "KineticResult",
    "solve_minmax",
    "fixed_nn_baseline",
]
