"""Periodic-invariant crystal graphs, edge-wise attention message passing,
and an executable invariance-audit harness."""

from .crystal import (
    Crystal,
    E3Transform,
    apply_e3,
    cart_to_frac,
    crystal_from_frac,
    frac_to_cart,
    shift_boundary,
    supercell,
    wrap_fractional,
)
from .graphs import (
    CrystalGraph,
    EdgeTable,
    add_self_connecting_edges,
    build_radius_graph,
    build_t_fully_connected,
    lattice_gram_from_six,
    self_connecting_distances,
)
from .audit import (
    AuditReport,
    audit_e3_invariance,
    audit_knn_determinism,
    audit_periodic_invariance,
    graph_signature,
    knn_distance_only_builder,
    line_graph_size,
    ocgraph_builder,
)
from .featurize import GraphEmbedding, rbf_expand
from .model import Matformer, MatformerLayer, ModelConfig, attention_gate
from .training import TrainConfig, adam_step, ewt, mae, one_cycle_lr, train

__all__ = [
    "AuditReport",
    "Crystal",
    "CrystalGraph",
    "E3Transform",
    "EdgeTable",
    "GraphEmbedding",
    "Matformer",
    "MatformerLayer",
    "ModelConfig",
    "TrainConfig",
    "adam_step",
    "add_self_connecting_edges",
    "apply_e3",
    "attention_gate",
    "audit_e3_invariance",
    "audit_knn_determinism",
    "audit_periodic_invariance",
    "build_radius_graph",
    "build_t_fully_connected",
    "cart_to_frac",
    "crystal_from_frac",
    "ewt",
    "frac_to_cart",
    "graph_signature",
    "knn_distance_only_builder",
    "lattice_gram_from_six",
    "line_graph_size",
    "mae",
    "ocgraph_builder",
    "one_cycle_lr",
    "self_connecting_distances",
    "shift_boundary",
    "supercell",
    "train",
    "wrap_fractional",
]
