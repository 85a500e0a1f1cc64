import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matformer import graphs, io
from matformer.audit import audit_e3_invariance, audit_periodic_invariance, knn_distance_only_builder, make_builder
from matformer.crystal import crystal_from_frac, shift_boundary, supercell
from matformer.graphs import (
    CrystalGraph,
    EdgeTable,
    NEIGHBOR,
    SELF_CONNECTING,
    add_self_connecting_edges,
    build_radius_graph,
    build_t_fully_connected,
    grow_candidates,
    image_box,
    interplanar_spacings,
    lattice_gram_from_six,
    neighbor_candidates,
    self_connecting_distances,
)
from matformer.model import Matformer, ModelConfig
from matformer.synthetic import lattice_from_parameters, random_corpus, random_crystal
from oracles import (
    brute_adaptive_radius,
    brute_image_distances,
    brute_radius_edges,
    cross_product_spacings,
    dense_grid_candidates,
    loose_image_bound,
)

HEX_LATTICE = np.array([[1.0, 0.0, 0.0], [-0.5, np.sqrt(3) / 2, 0.0], [0.0, 0.0, 2.0]])


def cubic(a=1.0, fracs=((0, 0, 0),), zs=None):
    fracs = np.atleast_2d(fracs)
    zs = zs if zs is not None else [1] * len(fracs)
    return crystal_from_frac(zs, fracs, a * np.eye(3))


def incoming_distances(graph, node):
    return sorted(e.distance for e in graph.edges if e.dst == node)


class TestImageBound:
    def test_cubic_sqrt2(self):
        assert image_box(np.eye(3), np.sqrt(2)) == (1, 1, 1)

    def test_cubic_half(self):
        # an atom half a cell away has an image at exactly r = 0.5 one cell out
        assert image_box(np.eye(3), 0.5) == (1, 1, 1)
        assert image_box(np.eye(3), 0.49) == (0, 0, 0)

    def test_hexagonal_third_axis(self):
        k = image_box(HEX_LATTICE, 2.0)
        assert k[2] == 1

    def test_rejects_non_positive_radius(self):
        for r in (0.0, np.nan, np.inf):  # nan and inf would overflow the integer box
            with pytest.raises(ValueError, match=f"radius must be positive and finite, got {r}"):
                image_box(np.eye(3), r)

    def test_completeness_vs_exhaustive_scan(self):
        # every image within r found by a wide scan lies in the box around
        # the recentred offset: |k_i + floor(f_j - f_i + 0.5)_i| <= K_i
        # (atoms close to half a cell apart put images near the box's edge)
        c = crystal_from_frac([1, 6, 8], [[0.05, 0.1, 0.9], [0.6, 0.4, 0.3], [0.53, 0.58, 0.42]], HEX_LATTICE)
        frac = c.frac_coords
        for i, j in itertools.product(range(3), repeat=2):
            base = np.floor(frac[j] - frac[i] + 0.5)
            found = brute_image_distances(c, i, j, 6)
            for r in np.linspace(0.3, 2.9, 27):
                box = image_box(c.lattice, r)
                for d, k in found:
                    if d <= r:
                        assert all(abs(k[ax] + base[ax]) <= box[ax] for ax in range(3))

    def test_spacings_cubic(self):
        assert np.allclose(interplanar_spacings(2.0 * np.eye(3)), [2.0, 2.0, 2.0])

    def test_a_search_inverts_its_lattice_once(self, monkeypatch):
        crystal = crystal_from_frac([1, 6], [[0.0, 0.0, 0.0], [0.4, 0.3, 0.6]], HEX_LATTICE)
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
        neighbor_candidates(crystal, 2.0)
        assert len(calls) == 1


@st.composite
def triclinic_cases(draw):
    """A 1-3 atom cell with mixed 2-8 A lengths and angles often near 60 or
    120 deg, described from a random corner (unwrapped positions), and a
    radius of up to 2.5 interplanar spacings."""
    angle = st.one_of(st.floats(60.0, 62.0), st.floats(118.0, 120.0), st.floats(60.0, 120.0))
    lengths = [draw(st.floats(2.0, 8.0)) for _ in range(3)]
    angles = [draw(angle) for _ in range(3)]
    try:
        lattice = lattice_from_parameters(*lengths, *angles)
    except ValueError:
        assume(False)
    assume(abs(np.linalg.det(lattice)) >= 0.1 * np.prod(lengths))
    n = draw(st.integers(1, 3))
    frac = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3 * n, max_size=3 * n)))
    crystal = crystal_from_frac([1] * n, frac.reshape(n, 3), lattice)
    corner = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(3)]) @ lattice
    r = draw(st.floats(0.3, 2.5)) * interplanar_spacings(lattice).min()
    return shift_boundary(crystal, corner), r


@given(triclinic_cases())
@settings(max_examples=60, deadline=None)
def test_spacings_match_cross_product_formula(case):
    lattice = case[0].lattice
    want = cross_product_spacings(lattice)
    assert np.allclose(interplanar_spacings(lattice), want, rtol=1e-12, atol=0)


class TestNeighborCandidates:
    @given(triclinic_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, case):
        crystal, r = case
        dst, src, image, dist = neighbor_candidates(crystal, r)
        got = {(a, b, tuple(k)): d for a, b, k, d in zip(dst.tolist(), src.tolist(), image.tolist(), dist)}
        kmax = max(loose_image_bound(crystal.lattice, r)) + 2
        want = {
            (i, j, k): d
            for i, j in itertools.product(range(crystal.n_atoms), repeat=2)
            for d, k in brute_image_distances(crystal, i, j, kmax)
            if d <= r
        }
        # inclusion of a distance within rounding of r may differ either way
        clear = lambda found: {key for key, d in found.items() if abs(d - r) > 1e-9}
        assert clear(got) == clear(want)
        assert all(abs(got[key] - want[key]) < 1e-9 for key in got.keys() & want.keys())

    @given(triclinic_cases())
    @settings(max_examples=40, deadline=None)
    def test_distances_do_not_depend_on_box_or_subset(self, case):
        # the search at r is, bit for bit and in order, the subset within r
        # of a search over the larger box of a wider radius
        crystal, r = case
        full = neighbor_candidates(crystal, r)
        wide = neighbor_candidates(crystal, 1.7 * r)
        inside = wide[3] <= r
        for a, b in zip(full, wide):
            assert np.array_equal(a, b[inside])

    @staticmethod
    def big_cell():
        base = crystal_from_frac([6, 8, 8], [[0, 0, 0], [0.3, 0.3, 0.3], [0.6, 0.7, 0.2]], 2.5 * np.eye(3))
        return supercell(base, (7, 7, 7))

    def test_large_cell_raises_before_allocating(self):
        # a 654 MiB image grid of 27 offsets: under the limit itself, but about
        # 1.3 GiB at peak (2 + 1/27 times the grid), and 1.8 GiB by the estimate
        big = self.big_cell()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"1029 atoms at r=20.000 .* MiB for its image grid"):
                neighbor_candidates(big, 20.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_large_box_raises_before_building_its_offsets(self):
        # 101**3 offsets for 16 atom pairs: the offset grid alone is 24 MiB
        c = cubic(fracs=[[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"4 atoms at r=50.000 would need 1053 MiB"):
                neighbor_candidates(c, 50.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_large_cell_radius_graph_fits(self):
        # the 12-neighbor radius needs only the zero offset of a 17.5 A cell
        big = self.big_cell()
        tracemalloc.start()
        try:
            graph = build_radius_graph(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert graph.n_nodes == 1029
        assert min(np.bincount(graph.edges.dst, minlength=1029)) >= 12


def assert_same_candidates(got, want):
    """Equal candidate arrays: the same values, dtypes and order."""
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


class TestDenseGridOracle:
    """The search returns the dense-grid reference's arrays bit for bit: its
    flat matmul and summed squares give the stacked product's and the
    norm's bits."""

    @given(triclinic_cases())
    @settings(max_examples=60, deadline=None)
    def test_triclinic_cells(self, case):
        assert_same_candidates(neighbor_candidates(*case), dense_grid_candidates(*case))

    @pytest.mark.parametrize("r", [0.4, 1.0, 2.5, 6.0])
    def test_one_atom_cell(self, r):
        c = crystal_from_frac([1], [[0.2, 0.7, 0.4]], HEX_LATTICE)
        assert_same_candidates(neighbor_candidates(c, r), dense_grid_candidates(c, r))

    @pytest.mark.parametrize("n_atoms", [1, 2, 4, 8, 16])
    def test_one_offset_supercells(self, n_atoms):
        # 2x2x2 supercells of 8 to 128 atoms, unwrapped, at a radius under
        # half the smallest spacing: the (n, n, 1, 3) grid of one offset
        rng = np.random.default_rng(n_atoms)
        c = supercell(random_crystal(rng, n_atoms=n_atoms), (2, 2, 2))
        c = shift_boundary(c, rng.uniform(-2.0, 2.0, 3) @ c.lattice)
        r = 0.49 * interplanar_spacings(c.lattice).min()
        assert image_box(c.lattice, r) == (0, 0, 0)
        assert_same_candidates(neighbor_candidates(c, r), dense_grid_candidates(c, r))

    def test_sheared_basis(self):
        # the 4-atom cell in the basis sheared by M = [[1,10,0],[0,1,10],[0,0,1]],
        # at its 12-neighbor radius: a long thin box of offsets
        base = random_crystal(np.random.default_rng(0), n_atoms=4)
        shear = np.array([[1.0, 10.0, 0.0], [0.0, 1.0, 10.0], [0.0, 0.0, 1.0]])
        c = dataclasses.replace(base, lattice=shear @ base.lattice)
        r, _ = grow_candidates(c, 12)
        assert max(image_box(c.lattice, r)) > 10
        assert_same_candidates(neighbor_candidates(c, r), dense_grid_candidates(c, r))


class TestAdaptiveRadius:
    def test_cubic_single_atom(self):
        assert build_radius_graph(cubic()).meta.node_radii[0] == pytest.approx(np.sqrt(2))

    def test_supercell_nodes_agree(self):
        s = supercell(cubic(), (2, 2, 2))
        assert build_radius_graph(s).meta.node_radii == pytest.approx([np.sqrt(2)] * s.n_atoms)

    def test_rock_salt_fragment(self):
        c = crystal_from_frac([11, 17], [[0, 0, 0], [0.5, 0.5, 0.5]], 2.8 * np.eye(3))
        radii = build_radius_graph(c).meta.node_radii
        for i in range(2):
            assert radii[i] == pytest.approx(brute_adaptive_radius(c, i, 12, 4))

    def test_configurable_rank(self):
        assert build_radius_graph(cubic(), neighbor_rank=6).meta.node_radii[0] == pytest.approx(1.0)
        assert build_radius_graph(cubic(), neighbor_rank=19).meta.node_radii[0] == pytest.approx(np.sqrt(3))

    def test_rank_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="neighbor_rank must be >= 1"):
            build_radius_graph(cubic(), neighbor_rank=0)


class TestRadiusGraph:
    def test_cubic_shell_structure(self):
        g = build_radius_graph(cubic())
        dists = incoming_distances(g, 0)
        assert len(dists) == 18
        assert np.allclose(dists, [1.0] * 6 + [np.sqrt(2)] * 12)

    def test_minimum_degree(self):
        rng = np.random.default_rng(13)
        c = random_crystal(rng, n_atoms=4)
        g = build_radius_graph(c)
        for node in range(c.n_atoms):
            assert len([e for e in g.edges if e.dst == node]) >= 12

    def test_edge_distance_consistency(self):
        rng = np.random.default_rng(14)
        c = random_crystal(rng, n_atoms=3)
        moved = shift_boundary(c, rng.uniform(-2, 2, 3))
        g = build_radius_graph(moved)
        for e in tuple(g.edges)[::7]:
            vec = (
                moved.positions[e.src]
                + np.asarray(e.image.k, float) @ moved.lattice
                - moved.positions[e.dst]
            )
            assert abs(np.linalg.norm(vec) - e.distance) < 1e-12

    def test_shift_keeps_per_node_distances(self):
        rng = np.random.default_rng(15)
        c = random_crystal(rng, n_atoms=3)
        moved = shift_boundary(c, rng.uniform(-4, 4, 3))
        ga, gb = build_radius_graph(c), build_radius_graph(moved)
        for node in range(c.n_atoms):
            assert np.allclose(incoming_distances(ga, node), incoming_distances(gb, node), atol=1e-9)

    def test_supercell_keeps_per_node_distances(self):
        rng = np.random.default_rng(16)
        c = random_crystal(rng, n_atoms=2)
        g = build_radius_graph(c)
        s = supercell(c, (2, 1, 1))
        gs = build_radius_graph(s)
        for node in range(s.n_atoms):
            assert np.allclose(
                incoming_distances(g, node % 2), incoming_distances(gs, node), atol=1e-9
            )

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            c = random_crystal(rng, n_atoms=int(rng.integers(1, 4)))
            g = build_radius_graph(c)
            for node in range(c.n_atoms):
                r = g.meta.node_radii[node]
                kmax = max(loose_image_bound(c.lattice, r)) + 2
                got = {
                    (e.src, e.image.k, round(e.distance, 9))
                    for e in g.edges
                    if e.dst == node
                }
                assert got == brute_radius_edges(c, node, r, kmax)


class TestTFullyConnected:
    def test_single_atom_t3(self):
        g = build_t_fully_connected(cubic(), t=3)
        assert np.allclose(sorted(e.distance for e in g.edges), [1.0, 1.0, 1.0])

    def test_two_atoms_t1(self):
        c = cubic(a=3.0, fracs=[[0, 0, 0], [0.5, 0.5, 0.5]], zs=[11, 17])
        g = build_t_fully_connected(c, t=1)
        cross = [e for e in g.edges if e.src != e.dst]
        assert len(cross) == 2
        assert all(e.distance == pytest.approx(3.0 * np.sqrt(3) / 2) for e in cross)

    def test_edge_count(self):
        rng = np.random.default_rng(18)
        c = random_crystal(rng, n_atoms=3)
        g = build_t_fully_connected(c, t=2)
        assert len(g.edges) == 2 * 3 * 3

    def test_shift_invariant_distance_multiset(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            c = random_crystal(rng, n_atoms=int(rng.integers(1, 4)))
            moved = shift_boundary(c, rng.uniform(-3, 3, 3))
            a = sorted(e.distance for e in build_t_fully_connected(c, t=3).edges)
            b = sorted(e.distance for e in build_t_fully_connected(moved, t=3).edges)
            assert np.allclose(a, b, atol=1e-9)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            build_t_fully_connected(cubic(), t=0)


class TestSelfConnectingEdges:
    def test_cubic_all_deduplicated(self):
        c = cubic()
        g = build_radius_graph(c)
        g2 = add_self_connecting_edges(g, c)
        assert len(g2.edges) == len(g.edges)
        assert g2.meta.self_edges

    def test_wide_cell_adds_all_six(self):
        # body-centered pair: eight cross images at 5*sqrt(3) < 10 keep the
        # rank-8 radius below every lattice distance
        c = cubic(a=10.0, fracs=[[0, 0, 0], [0.5, 0.5, 0.5]], zs=[6, 8])
        g = build_radius_graph(c, neighbor_rank=8)
        assert max(g.meta.node_radii) < 10.0
        g2 = add_self_connecting_edges(g, c)
        added = [e for e in g2.edges if e.kind == SELF_CONNECTING]
        assert len(added) == 12  # six per node
        per_node = sorted(e.distance for e in added if e.dst == 0)
        assert np.allclose(per_node, [10.0] * 3 + [10.0 * np.sqrt(2)] * 3)

    def test_hexagonal_short_diagonal(self):
        dists = dict(self_connecting_distances(HEX_LATTICE))
        assert dists[(1, 1, 0)] == pytest.approx(1.0)

    def test_requires_node_radii(self):
        from matformer.audit import ocgraph_builder

        c = cubic()
        with pytest.raises(ValueError, match="radius"):
            add_self_connecting_edges(ocgraph_builder(c, 1.1), c)


class TestLatticeGram:
    def test_cubic_identity(self):
        g = lattice_gram_from_six([1, 1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2)])
        assert np.allclose(g, np.eye(3))

    def test_hexagonal_angle(self):
        g = lattice_gram_from_six([1, 1, 2, 1, np.sqrt(5), np.sqrt(5)])
        assert g[0, 1] == pytest.approx(-0.5)
        angle = np.degrees(np.arccos(g[0, 1] / np.sqrt(g[0, 0] * g[1, 1])))
        assert angle == pytest.approx(120.0)

    def test_recovers_gram_for_random_lattices(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            lattice = rng.uniform(-3, 3, (3, 3))
            if abs(np.linalg.det(lattice)) < 0.2:
                continue
            six = [d for _, d in self_connecting_distances(lattice)]
            g = lattice_gram_from_six(six)
            expect = lattice @ lattice.T
            assert np.abs(g - expect).max() < 1e-9
            assert np.allclose(np.linalg.eigvalsh(g), np.linalg.eigvalsh(expect), atol=1e-9)

    def test_rejects_inconsistent_input(self):
        with pytest.raises(ValueError, match="PSD|inconsistent"):
            lattice_gram_from_six([1.0, 1.0, 1.0, 10.0, 10.0, 10.0])
        with pytest.raises(ValueError):
            lattice_gram_from_six([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])


class TestGraphStructure:
    def test_every_node_has_an_edge(self):
        rng = np.random.default_rng(21)
        c = random_crystal(rng, n_atoms=5)
        for g in (build_radius_graph(c), build_t_fully_connected(c, t=1)):
            covered = {e.dst for e in g.edges}
            assert covered == set(range(c.n_atoms))

    def test_multigraph_repeats_pairs(self):
        g = build_radius_graph(cubic())
        images = {e.image.k for e in g.edges}
        assert len(images) == len(g.edges) == 18

    def test_edges_positive_distance(self):
        rng = np.random.default_rng(22)
        c = random_crystal(rng, n_atoms=2)
        g = build_radius_graph(c)
        assert min(e.distance for e in g.edges) > 0

    def test_kind_marking(self):
        c = cubic(a=10.0, fracs=[[0, 0, 0], [0.5, 0.5, 0.5]], zs=[6, 8])
        g = add_self_connecting_edges(build_radius_graph(c, neighbor_rank=8), c)
        kinds = {e.kind for e in g.edges}
        assert kinds == {NEIGHBOR, SELF_CONNECTING}

    def test_far_unwrapped_edges_keep_their_search_distances(self):
        # unwrapped positions far from the cell give offsets spanning a wide box
        rng = np.random.default_rng(23)
        c = random_crystal(rng, n_atoms=4)
        shifts = [[-3000.0, 0.0, 40.0], [0.0, 2000.0, 0.0], [0.0, 0.0, 0.0], [7.0, -7.0, 7.0]]
        far = crystal_from_frac(c.atomic_numbers, c.frac_coords + shifts, c.lattice)
        for g in (add_self_connecting_edges(build_radius_graph(far), far), build_t_fully_connected(far, t=2)):
            dst, src, image, dist = neighbor_candidates(far, max(e.distance for e in g.edges) + 1e-6)
            want = dict(zip(zip(dst.tolist(), src.tolist(), map(tuple, image.tolist())), dist.tolist()))
            assert all(want[e.dst, e.src, e.image.k] == e.distance for e in g.edges if e.kind == NEIGHBOR)


class TestEdgeTable:
    def test_audits_and_prepare_build_no_edge_row(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("an Edge row was built")

        monkeypatch.setattr(graphs, "Edge", no_rows)
        crystals = random_corpus(3, seed=61, n_atoms_max=4)
        assert audit_periodic_invariance(make_builder("radius"), crystals, 4, seed=1).violations == 0
        # tfc graphs are defined relative to the minimal cell: boundary shifts only
        assert audit_periodic_invariance(make_builder("tfc"), crystals, 4, seed=1, alphas=((1, 1, 1),)).violations == 0
        assert audit_e3_invariance(make_builder("radius", self_edges=True), crystals, 2, seed=1).violations == 0
        model = Matformer(ModelConfig(n_layers=1, n_heads=1, d_model=4, rbf_kernels=4, readout_hidden=4))
        assert model.prepare(crystals[0]).n_edges > 0
        # the graph writers read the columns too
        graph = add_self_connecting_edges(build_radius_graph(crystals[0]), crystals[0])
        assert io.graph_to_json(graph).count('"kind"') == io.graph_to_text(graph).count("\nedge ") == len(graph.edges)
        with pytest.raises(AssertionError, match="an Edge row was built"):
            next(iter(build_radius_graph(crystals[0]).edges))

    def test_rows_convert_to_the_builders_columns_bit_for_bit(self):
        rng = np.random.default_rng(62)
        c = random_crystal(rng, n_atoms=4)
        built = (add_self_connecting_edges(build_radius_graph(c), c), add_self_connecting_edges(build_t_fully_connected(c), c),
                 knn_distance_only_builder(c, k=5, perturbation_seed=3))
        for g in built:
            rows = tuple(g.edges)
            assert len(rows) == len(g.edges) and isinstance(rows[0], graphs.Edge)
            for back in (CrystalGraph(g.node_atomic_numbers, rows, g.meta), dataclasses.replace(g, edges=list(rows))):
                assert isinstance(back.edges, EdgeTable)
                for got, want in zip(back.edges.columns, g.edges.columns):
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_columns_are_read_only_and_shapes_are_checked(self):
        g = build_radius_graph(cubic())
        with pytest.raises(ValueError, match="read-only"):
            g.edges.distance[0] = 0.0
        with pytest.raises(ValueError, match="edge columns need shapes"):
            EdgeTable([0], [0], [[1, 0]], [1.0], [0])
        assert len(EdgeTable([], [], np.zeros((0, 3)), [], [])) == 0
