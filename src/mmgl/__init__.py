"""Sparse weighted graph learning from smooth signals via majorization-minimization."""

from .graph_model import ProblemInstance, degrees, edge_index, objective, pairwise_distances
from .mm_solver import SolveResult, SolverConfig, newton_solve, solve
from .data_gen import GroundTruthGraph, SignalModel, assemble, gen_er, gen_sbm, gen_signals

__all__ = [
    "GroundTruthGraph",
    "ProblemInstance",
    "SignalModel",
    "SolveResult",
    "SolverConfig",
    "assemble",
    "degrees",
    "edge_index",
    "gen_er",
    "gen_sbm",
    "gen_signals",
    "newton_solve",
    "objective",
    "pairwise_distances",
    "solve",
]
