"""Sparse weighted graph learning from smooth signals via majorization-minimization."""

from .graph_model import (
    ProblemInstance,
    degrees,
    edge_index,
    objective,
    objective_gradient,
    pairwise_distances,
)
from .mm_solver import SolveResult, SolverConfig, compute_c, mm_update, newton_solve, solve
from .data_gen import GroundTruthGraph, SignalModel, assemble, gen_er, gen_sbm, gen_signals, laplacian_pinv

__all__ = [
    "GroundTruthGraph",
    "ProblemInstance",
    "SignalModel",
    "SolveResult",
    "SolverConfig",
    "assemble",
    "compute_c",
    "degrees",
    "edge_index",
    "gen_er",
    "gen_sbm",
    "gen_signals",
    "laplacian_pinv",
    "mm_update",
    "newton_solve",
    "objective",
    "objective_gradient",
    "pairwise_distances",
    "solve",
]
