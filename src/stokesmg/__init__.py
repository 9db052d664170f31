"""Coupled geometric multigrid for the generalized Stokes problem.

Taylor-Hood discretization on a criss-cross unit-square hierarchy, two
diagonal-preconditioned smoothers (normal-equation and symmetric Uzawa),
W/V/two-grid cycles, and a benchmark runner for iteration-count and
convergence-rate tables.
"""

from .mesh import build_coarse_mesh, build_hierarchy, refine
from .assembly import (ProblemParams, TaylorHoodSpace, build_system,
                       build_systems)
from .multigrid import CycleConfig, Hierarchy, Multigrid, SolveReport
from .smoother import SmootherConfig

__all__ = [
    "build_coarse_mesh",
    "build_hierarchy",
    "refine",
    "ProblemParams",
    "TaylorHoodSpace",
    "build_system",
    "build_systems",
    "CycleConfig",
    "Hierarchy",
    "Multigrid",
    "SolveReport",
    "SmootherConfig",
]
