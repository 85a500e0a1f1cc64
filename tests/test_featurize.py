import numpy as np
import pytest

from matformer import engine
from matformer.crystal import crystal_from_frac, shift_boundary
from matformer.featurize import GraphEmbedding, batch_prepared, prepare_graph, rbf_expand
from matformer.graphs import add_self_connecting_edges, build_radius_graph, build_t_fully_connected
from matformer.synthetic import random_corpus, random_crystal

from oracles import one_hot_atoms


def cubic(a=1.0, fracs=((0, 0, 0),), zs=None):
    fracs = np.atleast_2d(fracs)
    zs = zs if zs is not None else [1] * len(fracs)
    return crystal_from_frac(zs, fracs, a * np.eye(3))


def embed(graph, emb):
    """Node and edge inputs of a graph under the embedding's weights."""
    prepared = prepare_graph(graph)
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


def corpus_graphs():
    """Radius, self-edge and t-fully-connected graphs of a few small crystals."""
    out = []
    for crystal in random_corpus(4, seed=11, n_atoms_max=3):
        radius = build_radius_graph(crystal)
        out += [radius, add_self_connecting_edges(radius, crystal), build_t_fully_connected(crystal, t=2)]
    return out


class TestEdgeGrid:
    """The embedding owns the RBF grid; prepared graphs carry bare distances."""

    def test_any_grid_embeds_any_prepared_graph(self):
        emb = GraphEmbedding(d_model=8, n_kernels=8)
        for graph in corpus_graphs():
            edge_input = emb.edge_input(prepare_graph(graph)).values
            assert edge_input.shape == (len(graph.edges), 8)
            assert np.isfinite(edge_input).all()

    def test_expanding_a_batch_stacks_the_per_graph_rows(self):
        emb = GraphEmbedding(d_model=8, n_kernels=8, rng=np.random.default_rng(12))
        prepared = [prepare_graph(g) for g in corpus_graphs()]
        rows = [emb.edge_input(p).values for p in prepared]
        assert np.array_equal(emb.edge_input(batch_prepared(prepared)).values, np.concatenate(rows))


class TestBatching:
    def test_disjoint_union_offsets(self):
        g1 = prepare_graph(build_radius_graph(cubic()))
        g2 = prepare_graph(build_radius_graph(cubic(a=1.2)))
        batch = batch_prepared([g1, g2])
        assert batch.n_graphs == 2
        assert batch.n_nodes == 2
        assert set(batch.graph_ids) == {0, 1}
        assert batch.src[g1.n_edges :].min() >= 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_prepared([])


class TestAtomLookup:
    """The row lookup against the one-hot product it replaces."""

    def batch(self):
        species = (([8, 1, 1], [[0, 0, 0], [0.3, 0, 0], [0, 0.6, 0]]), ([26, 8], [[0, 0, 0], [0.5, 0.5, 0.5]]))
        graphs = [build_radius_graph(crystal_from_frac(zs, fracs, 3.0 * np.eye(3))) for zs, fracs in species]
        return batch_prepared([prepare_graph(g) for g in graphs])

    def test_rows_equal_one_hot_product(self):
        batch = self.batch()
        emb = GraphEmbedding(d_model=8, n_kernels=8, rng=np.random.default_rng(6))
        w, b = emb.params["node.w"], emb.params["node.b"]
        b.values = np.random.default_rng(7).standard_normal(8)
        got = emb.node_input(batch).values
        assert np.array_equal(got, one_hot_atoms(batch.atomic_numbers) @ w.values + b.values)
        # one distinct row per species, shared by repeated species
        assert np.array_equal(got[1], got[2]) and np.array_equal(got[0], got[4])
        assert len({row.tobytes() for row in got}) == 3

    def test_table_gradient_equals_one_hot_transpose(self):
        batch = self.batch()
        emb = GraphEmbedding(d_model=8, n_kernels=8, rng=np.random.default_rng(8))
        g = np.random.default_rng(9).standard_normal((batch.n_nodes, 8))
        engine.tensor_sum(engine.mul(emb.node_input(batch), g)).backward()
        want = one_hot_atoms(batch.atomic_numbers).T @ g
        assert np.allclose(emb.params["node.w"].grad, want, rtol=0, atol=1e-12)
        assert np.allclose(emb.params["node.b"].grad, g.sum(axis=0), rtol=0, atol=1e-12)
