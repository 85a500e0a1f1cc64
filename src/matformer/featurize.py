"""Numeric node and edge features for crystal graphs.

Each atom reads the row of a learned (119, d) table at its atomic number,
the same values as a one-hot vector over atomic number times that table;
edge distances expand onto the embedding's own grid of Gaussian radial
basis kernels, followed by a nonlinear layer and a linear layer.  Because
edge features depend on the distance alone, every invariance of the graph
construction carries over to the featurized graph.
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
    """Constant per-graph inputs: atomic numbers, edge distances, edge index arrays.

    ``graph_ids`` maps each node to its graph so disjoint-union batches can
    be pooled per graph.  ``GraphEmbedding.edge_input`` expands the distances.
    """

    atomic_numbers: np.ndarray        # (n,)
    distance: np.ndarray              # (E,)
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


def prepare_graph(graph: CrystalGraph) -> PreparedGraph:
    edges = graph.edges
    return PreparedGraph(
        atomic_numbers=graph.node_atomic_numbers,
        distance=edges.distance,
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
    z, dist, src, dst, gids = [], [], [], [], []
    for g in graphs:
        z.append(g.atomic_numbers)
        dist.append(g.distance)
        src.append(g.src + node_offset)
        dst.append(g.dst + node_offset)
        gids.append(g.graph_ids + graph_offset)
        node_offset += g.n_nodes
        graph_offset += g.n_graphs
    return PreparedGraph(
        atomic_numbers=np.concatenate(z),
        distance=np.concatenate(dist),
        src=np.concatenate(src),
        dst=np.concatenate(dst),
        graph_ids=np.concatenate(gids),
        n_graphs=graph_offset,
    )


class GraphEmbedding:
    """Learned maps from atomic numbers and edge distances to model width;
    the RBF grid (``n_kernels`` centers from ``lo`` to ``hi``) is its own."""

    def __init__(self, d_model: int, n_kernels: int = 128, lo: float = 0.0, hi: float = 8.0,
                 activation: str = "silu", rng: np.random.Generator | engine.ParameterInit | None = None):
        init = engine.ParameterInit(rng or np.random.default_rng(0))
        self.n_kernels = n_kernels
        self.lo = lo
        self.hi = hi
        self.activation = activation
        self.params: dict[str, Tensor] = {
            "node.w": init.weight((ATOM_DIM, d_model), ATOM_DIM), "node.b": init.zeros(d_model),
            "edge.w1": init.weight((n_kernels, d_model), n_kernels), "edge.b1": init.zeros(d_model),
            "edge.w2": init.weight((d_model, d_model), d_model), "edge.b2": init.zeros(d_model),
        }

    def parameters(self, prefix: str = "embed") -> dict[str, Tensor]:
        return {f"{prefix}.{name}": tensor for name, tensor in self.params.items()}

    def node_input(self, prepared: PreparedGraph) -> Tensor:
        # bit for bit one_hot(z) @ node.w + node.b: each row's sum has one nonzero term
        p = self.params
        return engine.add(engine.gather_rows(p["node.w"], prepared.atomic_numbers), p["node.b"])

    def edge_input(self, prepared: PreparedGraph) -> Tensor:
        act = engine.ACTIVATIONS[self.activation]
        p = self.params
        rbf = rbf_expand(prepared.distance, n_kernels=self.n_kernels, lo=self.lo, hi=self.hi)
        h = act(engine.linear(Tensor(rbf), p["edge.w1"], p["edge.b1"]))
        return engine.linear(h, p["edge.w2"], p["edge.b2"])
