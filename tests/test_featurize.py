import numpy as np
import pytest

from matformer.crystal import crystal_from_frac, shift_boundary
from matformer.featurize import (
    GraphEmbedding,
    batch_prepared,
    embed_atom,
    one_hot_atoms,
    prepare_graph,
    rbf_expand,
)
from matformer.graphs import build_radius_graph
from matformer.synthetic import random_crystal


def cubic(a=1.0, fracs=((0, 0, 0),), zs=None):
    fracs = np.atleast_2d(fracs)
    zs = zs if zs is not None else [1] * len(fracs)
    return crystal_from_frac(zs, fracs, a * np.eye(3))


def embed(graph, emb):
    """Node and edge inputs of a graph under the embedding's weights."""
    prepared = prepare_graph(graph, n_kernels=emb.n_kernels, lo=emb.lo, hi=emb.hi)
    return emb.node_input(prepared).values, emb.edge_input(prepared).values


class TestRbfExpand:
    def test_zero_hits_first_center(self):
        v = rbf_expand(np.array([0.0]))
        assert v[0, 0] == pytest.approx(1.0)

    def test_upper_end_hits_last_center(self):
        v = rbf_expand(np.array([8.0]))
        assert v[0, -1] == pytest.approx(1.0)

    def test_argmax_tracks_distance(self):
        v = rbf_expand(np.array([4.0]))[0]
        centers = np.linspace(0.0, 8.0, 128)
        assert abs(centers[np.argmax(v)] - 4.0) <= 8.0 / 127

    def test_adjacent_kernel_ratio(self):
        # at an exact center, the neighboring kernel reads exp(-1)
        centers = np.linspace(0.0, 8.0, 128)
        v = rbf_expand(np.array([centers[60]]))[0]
        assert v[60] == pytest.approx(1.0)
        assert v[61] == pytest.approx(np.exp(-1.0))
        assert v[59] == pytest.approx(np.exp(-1.0))

    def test_values_in_unit_interval(self):
        v = rbf_expand(np.linspace(0, 12, 50))
        assert v.max() <= 1.0
        assert v.min() >= 0.0  # far tails underflow to exact zero in f64
        within_range = rbf_expand(np.linspace(0, 8, 50))
        assert within_range.max(axis=1).min() >= np.exp(-0.25)  # nearest kernel

    def test_tail_beyond_range_is_small(self):
        v = rbf_expand(np.array([12.0]))
        assert v.max() < 1e-10

    def test_slope_bounded_by_inverse_width(self):
        # steepest kernel slope is sqrt(2/e)/width < 1/width: unit-Lipschitz
        # per kernel spacing
        width = 8.0 / 127
        d = np.linspace(0.0, 8.0, 4001)
        v = rbf_expand(d)
        slopes = np.abs(np.diff(v, axis=0)) / np.diff(d)[0]
        assert slopes.max() * width <= 1.0

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            rbf_expand(np.array([-0.1]))


class TestEmbedAtom:
    def test_hydrogen(self):
        v = embed_atom(1)
        assert v[1] == 1.0 and v.sum() == 1.0 and v.size == 119

    def test_oganesson(self):
        v = embed_atom(118)
        assert v[118] == 1.0 and v.sum() == 1.0

    def test_orthogonality(self):
        assert np.dot(embed_atom(5), embed_atom(6)) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            embed_atom(0)
        with pytest.raises(ValueError):
            embed_atom(119)

    def test_one_hot_matrix(self):
        m = one_hot_atoms(np.array([1, 6, 6]))
        assert m.shape == (3, 119)
        assert np.array_equal(m[1], m[2])


class TestFeaturizeGraph:
    def test_zero_weights_give_zero_features(self):
        graph = build_radius_graph(cubic())
        emb = GraphEmbedding(d_model=8, n_kernels=8)
        for t in emb.parameters().values():
            t.values = np.zeros_like(t.values)
        node_input, edge_input = embed(graph, emb)
        assert not node_input.any()
        assert not edge_input.any()

    def test_equal_distances_share_features(self):
        graph = build_radius_graph(cubic())
        emb = GraphEmbedding(d_model=8, n_kernels=8, rng=np.random.default_rng(1))
        _, edge_input = embed(graph, emb)
        d = np.array([e.distance for e in graph.edges])
        first_shell = edge_input[np.isclose(d, 1.0)]
        assert np.allclose(first_shell, first_shell[0])

    def test_shift_preserves_feature_multiset(self):
        rng = np.random.default_rng(2)
        crystal = random_crystal(rng, n_atoms=2)
        emb = GraphEmbedding(d_model=4, n_kernels=8, rng=np.random.default_rng(3))
        a = embed(build_radius_graph(crystal), emb)[1]
        moved = shift_boundary(crystal, rng.uniform(-2, 2, 3))
        b = embed(build_radius_graph(moved), emb)[1]
        order = lambda m: m[np.lexsort(m.T)]
        assert np.allclose(order(a), order(b), atol=1e-9)

    def test_deterministic(self):
        graph = build_radius_graph(cubic())
        emb = GraphEmbedding(d_model=8, n_kernels=8, rng=np.random.default_rng(4))
        a = embed(graph, emb)[1]
        b = embed(graph, emb)[1]
        assert np.array_equal(a, b)

    def test_no_non_finite_values(self):
        rng = np.random.default_rng(5)
        crystal = random_crystal(rng, n_atoms=3)
        emb = GraphEmbedding(d_model=16, n_kernels=16, rng=rng)
        node_input, edge_input = embed(build_radius_graph(crystal), emb)
        assert np.isfinite(node_input).all()
        assert np.isfinite(edge_input).all()


class TestBatching:
    def test_disjoint_union_offsets(self):
        g1 = prepare_graph(build_radius_graph(cubic()), n_kernels=8)
        g2 = prepare_graph(build_radius_graph(cubic(a=1.2)), n_kernels=8)
        batch = batch_prepared([g1, g2])
        assert batch.n_graphs == 2
        assert batch.n_nodes == 2
        assert set(batch.graph_ids) == {0, 1}
        assert batch.src[g1.n_edges :].min() >= 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_prepared([])
