"""Numeric node and edge features for crystal graphs.

Each atom reads the row of a learned (119, d) table at its atomic number,
the same values as a one-hot vector over atomic number times that table;
edge distances expand onto a grid of Gaussian radial basis kernels
followed by a nonlinear layer and a linear layer.  Because edge features
depend on the distance alone, every invariance of the graph construction
carries over to the featurized graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor
from .graphs import CrystalGraph

ATOM_DIM = 119  # rows of the atom table, one per atomic number, row 0 unused


def rbf_expand(d, n_kernels: int = 128, lo: float = 0.0, hi: float = 8.0) -> np.ndarray:
    """Expand distances onto Gaussian kernels with centers from lo to hi.

    Kernel width equals the center spacing (about 50% overlap between
    adjacent kernels).  Distances beyond ``hi`` yield small tail values.
    """
    if n_kernels < 2:
        raise ValueError("need at least two kernels")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    centers = np.linspace(lo, hi, n_kernels)
    width = (hi - lo) / (n_kernels - 1)
    return np.exp(-((d[..., None] - centers) ** 2) / width**2)


@dataclass
class PreparedGraph:
    """Constant per-graph inputs: atomic numbers, RBF rows, edge index arrays.

    ``graph_ids`` maps each node to its graph so disjoint-union batches can
    be pooled per graph.
    """

    atomic_numbers: np.ndarray        # (n,)
    edge_rbf: np.ndarray              # (E, n_kernels)
    src: np.ndarray                   # (E,)
    dst: np.ndarray                   # (E,)
    graph_ids: np.ndarray             # (n,)
    n_graphs: int

    @property
    def n_nodes(self) -> int:
        return self.atomic_numbers.size

    @property
    def n_edges(self) -> int:
        return self.src.size


def prepare_graph(graph: CrystalGraph, n_kernels: int = 128, lo: float = 0.0, hi: float = 8.0) -> PreparedGraph:
    edges = graph.edges
    return PreparedGraph(
        atomic_numbers=graph.node_atomic_numbers,
        edge_rbf=rbf_expand(edges.distance, n_kernels=n_kernels, lo=lo, hi=hi),
        src=edges.src,
        dst=edges.dst,
        graph_ids=np.zeros(graph.n_nodes, dtype=int),
        n_graphs=1,
    )


def batch_prepared(graphs: list[PreparedGraph]) -> PreparedGraph:
    """Disjoint union of prepared graphs with per-node graph ids."""
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    node_offset = 0
    graph_offset = 0
    z, rbf, src, dst, gids = [], [], [], [], []
    for g in graphs:
        z.append(g.atomic_numbers)
        rbf.append(g.edge_rbf)
        src.append(g.src + node_offset)
        dst.append(g.dst + node_offset)
        gids.append(g.graph_ids + graph_offset)
        node_offset += g.n_nodes
        graph_offset += g.n_graphs
    return PreparedGraph(
        atomic_numbers=np.concatenate(z),
        edge_rbf=np.concatenate(rbf, axis=0),
        src=np.concatenate(src),
        dst=np.concatenate(dst),
        graph_ids=np.concatenate(gids),
        n_graphs=graph_offset,
    )


class GraphEmbedding:
    """Learned maps from atomic numbers and RBF rows to model width."""

    def __init__(self, d_model: int, n_kernels: int = 128, lo: float = 0.0, hi: float = 8.0,
                 activation: str = "silu", rng: np.random.Generator | engine.ParameterInit | None = None):
        init = engine.ParameterInit(rng or np.random.default_rng(0))
        self.d_model = d_model
        self.n_kernels = n_kernels
        self.lo = lo
        self.hi = hi
        self.activation = activation
        self.node_w = init.weight((ATOM_DIM, d_model), ATOM_DIM)
        self.node_b = init.zeros(d_model)
        self.edge_w1 = init.weight((n_kernels, d_model), n_kernels)
        self.edge_b1 = init.zeros(d_model)
        self.edge_w2 = init.weight((d_model, d_model), d_model)
        self.edge_b2 = init.zeros(d_model)

    def parameters(self, prefix: str = "embed") -> dict[str, Tensor]:
        return {
            f"{prefix}.node.w": self.node_w,
            f"{prefix}.node.b": self.node_b,
            f"{prefix}.edge.w1": self.edge_w1,
            f"{prefix}.edge.b1": self.edge_b1,
            f"{prefix}.edge.w2": self.edge_w2,
            f"{prefix}.edge.b2": self.edge_b2,
        }

    def node_input(self, prepared: PreparedGraph) -> Tensor:
        # bit for bit one_hot(z) @ node_w + node_b: each row's sum has one nonzero term
        return engine.add(engine.gather_rows(self.node_w, prepared.atomic_numbers), self.node_b)

    def edge_input(self, prepared: PreparedGraph) -> Tensor:
        act = engine.ACTIVATIONS[self.activation]
        h = act(engine.linear(Tensor(prepared.edge_rbf), self.edge_w1, self.edge_b1))
        return engine.linear(h, self.edge_w2, self.edge_b2)
