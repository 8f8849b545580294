"""Efficiency analysis of follow-based information networks.

Measures how efficiently an ego user's followee set delivers unique
memes (link, in-flow, and delay efficiency), computes approximately
optimal alternative followee sets via greedy set covers, and contrasts
the structure of original vs. optimized ego-networks.
"""
__version__ = "0.1.0"

from .cover import (
    CoverSpec,
    delay_optimal_cover,
    greedy_min_cover,
    greedy_weighted_cover,
    joint_cover,
)
from .efficiency import (
    cross_efficiencies,
    delay_efficiency,
    efficiency_ratio,
    evaluate_ego,
    inflow_efficiency,
    joint_efficiencies,
    link_efficiency,
)
from .egonet import (
    EgoNetwork,
    build_ego_network,
    lcc_overlap_correlation,
    local_clustering_coefficient,
    overlap,
)
from .ingest import IngestConfig, ego_context, extract_memes, load_corpus
from .model import Corpus, CoverResult, EgoContext

__all__ = [
    "Corpus",
    "CoverResult",
    "CoverSpec",
    "EgoContext",
    "EgoNetwork",
    "IngestConfig",
    "build_ego_network",
    "cross_efficiencies",
    "delay_efficiency",
    "delay_optimal_cover",
    "efficiency_ratio",
    "ego_context",
    "evaluate_ego",
    "extract_memes",
    "greedy_min_cover",
    "greedy_weighted_cover",
    "inflow_efficiency",
    "joint_cover",
    "joint_efficiencies",
    "lcc_overlap_correlation",
    "link_efficiency",
    "load_corpus",
    "local_clustering_coefficient",
    "overlap",
]

