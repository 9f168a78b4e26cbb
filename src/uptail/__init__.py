"""Exact and Monte Carlo machinery for upper-tail localisation experiments
at desk scale: rate formulas, variational solvers, core audits, embedding
bounds, factorial moments, and seeded sampling."""

__version__ = "0.1.0"

from .aps import ApModel, IntegerSet, count_aps, extremal_ap_count
from .graphs import Graph, InducedSubgraphModel, SubgraphModel, parse_graph6, to_graph6
from .variational import MinimiserSet, Witness, min_planting_cost, poisson_rate

__all__ = [
    "ApModel",
    "Graph",
    "IntegerSet",
    "InducedSubgraphModel",
    "MinimiserSet",
    "SubgraphModel",
    "Witness",
    "count_aps",
    "extremal_ap_count",
    "min_planting_cost",
    "parse_graph6",
    "poisson_rate",
    "to_graph6",
]
