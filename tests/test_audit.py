import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matformer.audit import (
    AuditReport,
    rounded_distances,
    audit_e3_invariance,
    audit_knn_determinism,
    audit_periodic_invariance,
    graph_signature,
    knn_distance_only_builder,
    line_graph_size,
    make_builder,
    ocgraph_builder,
    quotient_discrepancy,
    shift_sensitive_crystal,
    signature_discrepancy,
    tie_crystal,
)
from matformer.crystal import Crystal, crystal_from_frac, shift_boundary, supercell
from matformer.graphs import (
    CrystalGraph,
    Edge,
    EdgeTable,
    GraphMeta,
    LatticeImage,
    add_self_connecting_edges,
    build_radius_graph,
    build_t_fully_connected,
    interplanar_spacings,
)
from matformer.synthetic import random_corpus
from oracles import (
    explicit_line_graph_size,
    loop_graph_signature,
    loop_knn_distance_only,
    loop_ocgraph,
    loop_quotient_discrepancy,
    loop_self_edges,
    loop_signature_discrepancy,
    ring_multigraph,
)
from test_graphs import triclinic_cases


def signature_bytes(sig):
    return b"".join(a.tobytes() for a in sig)


def cubic(a=1.0, fracs=((0, 0, 0),), zs=None):
    fracs = np.atleast_2d(fracs)
    zs = zs if zs is not None else [1] * len(fracs)
    return crystal_from_frac(zs, fracs, a * np.eye(3))


class TestSignatures:
    def test_index_relabeling_is_invisible(self):
        c = cubic(a=2.5, fracs=[[0, 0, 0], [0.5, 0.5, 0.5]], zs=[11, 17])
        swapped = crystal_from_frac([17, 11], [[0.5, 0.5, 0.5], [0, 0, 0]], 2.5 * np.eye(3))
        a = graph_signature(build_radius_graph(c))
        b = graph_signature(build_radius_graph(swapped))
        assert signature_discrepancy(a, b) == 0.0

    def test_detects_species_difference(self):
        a = graph_signature(build_radius_graph(cubic(zs=[1])))
        b = graph_signature(build_radius_graph(cubic(zs=[2])))
        assert signature_discrepancy(a, b) == np.inf

    def test_distances_straddling_a_rounding_boundary_agree(self):
        # 2.0000000005 +/- 1e-15 round to 2.000000001 and 2.0: one rounding
        # step apart, though the distances differ by 2e-15
        def one_edge(d):
            edge = Edge(src=0, dst=0, distance=d, image=LatticeImage((1, 0, 0)))
            return CrystalGraph(np.array([1]), (edge,), GraphMeta(method="test"))

        hi, lo = one_edge(2.0000000005 + 1e-15), one_edge(2.0000000005 - 1e-15)
        (hi_edge,), (lo_edge,) = hi.edges, lo.edges
        assert round(hi_edge.distance, 9) != round(lo_edge.distance, 9)
        disc = signature_discrepancy(graph_signature(hi), graph_signature(lo))
        assert disc < 1e-14
        assert quotient_discrepancy(hi, lo, 1) < 1e-14

    def test_detects_scale_difference(self):
        a = graph_signature(build_radius_graph(cubic(a=1.0)))
        b = graph_signature(build_radius_graph(cubic(a=1.5)))
        # outermost shell moves from sqrt(2) to 1.5*sqrt(2)
        assert signature_discrepancy(a, b) == pytest.approx(0.5 * np.sqrt(2))


# exact ties, distances that straddle a 9-decimal rounding boundary, and
# three different distances that share the rounded key 2.000000001
SIGNATURE_DISTANCES = (1.0, 2.0000000005 - 1e-15, 2.0000000005, 2.0000000005 + 1e-15, 2.000000001)
SPECIES = (1, 2)


def column_graph(z, dst, src, kind, dist):
    edges = EdgeTable(dst, src, np.zeros((len(dst), 3), dtype=int), dist, kind)
    return CrystalGraph(np.array(z), edges, GraphMeta(method="test"))


@st.composite
def signature_graphs(draw, max_nodes=4):
    n = draw(st.integers(1, max_nodes))
    z = draw(st.lists(st.sampled_from(SPECIES), min_size=n, max_size=n))
    m = draw(st.integers(0, 14))

    def column(values):
        return draw(st.lists(values, min_size=m, max_size=m))

    nodes = st.integers(0, n - 1)
    return column_graph(z, column(nodes), column(nodes), column(st.integers(0, 1)),
                        column(st.sampled_from(SIGNATURE_DISTANCES)))


def mutated(draw, graph, relabel):
    """``graph`` with its nodes relabelled and its edges shuffled (when
    ``relabel``), then one or two edits: a distance redrawn, a species, a
    kind, a source or a destination changed, an edge dropped or a node
    added."""
    z = graph.node_atomic_numbers.tolist()
    e = graph.edges
    cols = [e.dst.tolist(), e.src.tolist(), e.kind.tolist(), e.distance.tolist()]
    if relabel:
        perm = draw(st.permutations(range(len(z))))
        z = [z[perm.index(i)] for i in range(len(z))]
        cols[0], cols[1] = [perm[i] for i in cols[0]], [perm[i] for i in cols[1]]
        order = draw(st.permutations(range(len(e))))
        cols = [[c[i] for i in order] for c in cols]
    for edit in draw(st.lists(st.sampled_from(("distance", "species", "kind", "source", "target", "drop", "node")),
                              min_size=1, max_size=2)):
        m = len(cols[0])
        if edit == "species":
            z[draw(st.integers(0, len(z) - 1))] = draw(st.sampled_from(SPECIES))
        elif edit == "node":
            z.append(draw(st.sampled_from(SPECIES)))
        elif m == 0:
            continue
        elif edit == "drop":
            i = draw(st.integers(0, m - 1))
            cols = [c[:i] + c[i + 1:] for c in cols]
        else:
            col, values = {"distance": (3, st.sampled_from(SIGNATURE_DISTANCES)), "kind": (2, st.integers(0, 1)),
                           "source": (1, st.integers(0, len(z) - 1)), "target": (0, st.integers(0, len(z) - 1))}[edit]
            cols[col][draw(st.integers(0, m - 1))] = draw(values)
    return column_graph(z, *cols)


class TestArraySignaturesMatchLoopOracle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_signature_discrepancy(self, data):
        a = data.draw(signature_graphs())
        b = mutated(data.draw, a, relabel=True) if data.draw(st.integers(0, 3)) else data.draw(signature_graphs())
        want = loop_signature_discrepancy(loop_graph_signature(a), loop_graph_signature(b))
        assert signature_discrepancy(graph_signature(a), graph_signature(b)) == want

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_quotient_discrepancy(self, data):
        base = data.draw(signature_graphs(max_nodes=3))
        n, e = base.n_nodes, base.edges
        reps = data.draw(st.integers(1, 3))
        # replica b of a node receives its edges from any replica of their sources
        shift = np.array(data.draw(st.lists(st.integers(0, reps - 1), min_size=reps * len(e), max_size=reps * len(e))),
                         dtype=int)
        blocks = np.repeat(np.arange(reps), len(e)) * n
        scaled = column_graph(np.tile(base.node_atomic_numbers, reps), np.tile(e.dst, reps) + blocks,
                              np.tile(e.src, reps) + shift * n, np.tile(e.kind, reps), np.tile(e.distance, reps))
        other = mutated(data.draw, scaled, relabel=data.draw(st.booleans()))
        n_base = data.draw(st.sampled_from((n, n, n + 1)))
        assert quotient_discrepancy(base, other, n_base) == loop_quotient_discrepancy(base, other, n_base)


@given(st.integers(0, 10**11), st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_rounded_key_is_the_builtin_round_near_halfway(whole, ulps):
    d = (whole + 0.5) / 1e9
    for _ in range(abs(ulps)):
        d = np.nextafter(d, np.inf if ulps > 0 else 0.0)
    d = np.array([d, d + 1e-15, d - 1e-15, 2.0000000005 + 1e-15 * ulps])
    assert rounded_distances(d).tobytes() == np.array([round(x, 9) for x in d.tolist()]).tobytes()


def test_rounded_key_is_the_builtin_round_on_a_batch():
    rng = np.random.default_rng(7)
    halfway = (rng.integers(0, 2 * 10**10, 50_000) + 0.5) / 1e9
    d = np.concatenate([halfway, np.nextafter(halfway, 0.0), np.nextafter(halfway, np.inf), rng.uniform(0, 30, 50_000),
                        [0.0, 2.0**-10, 1e7, 1e13]])
    assert rounded_distances(d).tobytes() == np.array([round(x, 9) for x in d.tolist()]).tobytes()


class TestAuditReport:
    def test_violations_bounded_by_trials(self):
        with pytest.raises(ValueError):
            AuditReport("x", trials=1, violations=2, worst_discrepancy=0.0, witness={})

    def test_witness_iff_violations(self):
        with pytest.raises(ValueError):
            AuditReport("x", trials=1, violations=1, worst_discrepancy=1.0, witness=None)
        with pytest.raises(ValueError):
            AuditReport("x", trials=1, violations=0, worst_discrepancy=0.0, witness={})
        AuditReport("x", trials=1, violations=0, worst_discrepancy=0.0)


class TestInvariantBuilders:
    def test_radius_periodic_with_supercells(self):
        crystals = random_corpus(6, seed=101)
        report = audit_periodic_invariance(make_builder("radius"), crystals, 8, seed=5, name="radius")
        assert report.violations == 0
        assert report.worst_discrepancy <= 1e-9

    def test_tfc_periodic_under_shifts(self):
        crystals = random_corpus(6, seed=102)
        report = audit_periodic_invariance(
            make_builder("tfc"), crystals, 8, seed=5, alphas=((1, 1, 1),), name="tfc"
        )
        assert report.violations == 0

    def test_radius_with_self_edges_under_shifts(self):
        crystals = random_corpus(4, seed=103)
        report = audit_periodic_invariance(
            make_builder("radius", self_edges=True),
            crystals,
            6,
            seed=5,
            alphas=((1, 1, 1),),
            name="radius+self",
        )
        assert report.violations == 0

    def test_e3_invariance(self):
        crystals = random_corpus(5, seed=104)
        for name in ("radius", "tfc"):
            report = audit_e3_invariance(make_builder(name, self_edges=True), crystals, 6, seed=6, name=name)
            assert report.violations == 0
        identity = audit_e3_invariance(make_builder("radius"), crystals, 0, seed=0)
        assert identity.trials == 0

    def test_reflection_counts_as_invariant(self):
        # chiral 4-atom cell: distances are reflection-invariant by Definition 1
        c = crystal_from_frac(
            [6, 1, 8, 16],
            [[0, 0, 0], [0.31, 0.07, 0.11], [0.12, 0.41, 0.23], [0.4, 0.17, 0.52]],
            3.0 * np.eye(3),
        )
        from matformer.crystal import E3Transform, apply_e3

        mirrored = apply_e3(c, E3Transform(np.diag([1.0, 1.0, -1.0]), np.zeros(3)))
        a = graph_signature(build_radius_graph(c))
        b = graph_signature(build_radius_graph(mirrored))
        assert signature_discrepancy(a, b) <= 1e-9


class TestSupercellDepartures:
    """Constructions outside the minimal-cell scope, pinned as documented behavior."""

    def test_tfc_supercell_departure_is_structural(self):
        c = cubic()
        base = build_t_fully_connected(c, t=1)
        bigger = build_t_fully_connected(supercell(c, (2, 1, 1)), t=1)
        # t smallest per ordered pair: every replica pair contributes its own
        # t edges, so per-node degree grows with the cell description
        assert quotient_discrepancy(base, bigger, 1) == np.inf

    def test_self_edges_supercell_departure(self):
        c = cubic()
        builder = make_builder("radius", self_edges=True)
        base, bigger = builder(c), builder(supercell(c, (2, 2, 2)))
        assert quotient_discrepancy(base, bigger, 1) == np.inf


class TestOcgraph:
    def test_single_atom_counts(self):
        g = ocgraph_builder(cubic(), r=1.1)
        assert g.n_nodes == 7
        assert len(g.edges) == 42  # complete directed graph; 21 unordered pairs
        pairs = {frozenset((e.src, e.dst)) for e in g.edges}
        assert len(pairs) == 21

    def test_tiny_radius_keeps_cell_atoms(self):
        c = cubic(a=2.0, fracs=[[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]], zs=[6, 8])
        g = ocgraph_builder(c, r=1e-6)
        assert g.n_nodes == 2
        assert len(g.edges) == 2

    def test_node_count_changes_under_shift(self):
        c = shift_sensitive_crystal()
        base = ocgraph_builder(c, r=0.5)
        moved = ocgraph_builder(shift_boundary(c, np.array([1.0, 0.0, 0.0])), r=0.5)
        assert base.n_nodes != moved.n_nodes

    def test_audit_flags_with_witness(self):
        report = audit_periodic_invariance(
            make_builder("ocgraph", radius=0.5), [shift_sensitive_crystal()], 10, seed=3, name="ocgraph"
        )
        assert report.violations >= 1
        assert report.witness is not None
        assert report.witness["transform"]["type"] == "periodic"
        assert "lattice" in report.witness["crystal"]


class TestKnn:
    def test_unambiguous_cut_is_deterministic(self):
        c = cubic()
        sigs = {
            signature_bytes(graph_signature(knn_distance_only_builder(c, k=6, perturbation_seed=s))) for s in range(5)
        }
        assert len(sigs) == 1
        report = audit_knn_determinism(c, k=6, seeds=tuple(range(6)))
        assert report.violations == 0

    def test_tie_selection_depends_on_enumeration(self):
        c = tie_crystal()
        report = audit_knn_determinism(c, k=1, seeds=tuple(range(8)))
        assert report.violations >= 1
        assert report.witness["transform"]["type"] == "enumeration_seed"

    def test_species_multiset_flips_at_tie(self):
        c = tie_crystal()
        picks = set()
        for s in range(8):
            g = knn_distance_only_builder(c, k=1, perturbation_seed=s)
            (center_edge,) = [e for e in g.edges if e.dst == 1]
            picks.add(int(g.node_atomic_numbers[center_edge.src]))
        assert picks == {3, 9}

    def test_periodic_audit_flags_tie_crystal(self):
        report = audit_periodic_invariance(
            make_builder("knn", k=1, perturbation_seed=0),
            [tie_crystal()],
            12,
            seed=2,
            alphas=((1, 1, 1),),
            name="knn",
        )
        assert report.violations >= 1

    def test_unwrapped_description_finds_the_same_neighbors(self):
        # O stored four cells away from its wrapped position at 0.6 A
        lattice = 3.0 * np.eye(3)
        wrapped = Crystal(np.array([6, 8]), np.array([[0.3, 0, 0], [0.6, 0, 0]]), lattice)
        unwrapped = Crystal(np.array([6, 8]), np.array([[0.3, 0, 0], [12.6, 0, 0]]), lattice)

        def per_node(c):
            g = knn_distance_only_builder(c, k=4)
            return [sorted(e.distance for e in g.edges if e.dst == i) for i in range(c.n_atoms)]

        want = per_node(wrapped)
        assert np.allclose(want[0], [0.3, 2.7, 3.0, 3.0])
        assert np.allclose(per_node(unwrapped), want, rtol=0, atol=1e-9)

    def test_full_tie_groups_match_tfc(self):
        # single-atom cell, k covering the complete first shell: selection
        # equals the t smallest self-pair distances
        c = cubic()
        knn = knn_distance_only_builder(c, k=6, perturbation_seed=1)
        tfc = build_t_fully_connected(c, t=6)
        assert np.allclose(
            sorted(e.distance for e in knn.edges), sorted(e.distance for e in tfc.edges)
        )


def assert_same_graph(got, want):
    assert tuple(got.edges) == tuple(want.edges)
    assert np.array_equal(got.node_atomic_numbers, want.node_atomic_numbers)
    assert got.meta == want.meta
    if want.meta.node_radii is not None:  # the same bits, not only equal values
        assert np.array(got.meta.node_radii).tobytes() == np.array(want.meta.node_radii).tobytes()


@st.composite
def control_cases(draw):
    """A triclinic or adversarial cell, an ocgraph radius of up to 1.2
    interplanar spacings, a kNN k and a perturbation seed."""
    crystal = draw(st.one_of(
        triclinic_cases().map(lambda case: case[0]), st.just(tie_crystal()), st.just(shift_sensitive_crystal())))
    radius = draw(st.floats(0.1, 1.2)) * interplanar_spacings(crystal.lattice).min()
    return crystal, radius, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


@given(control_cases())
@settings(max_examples=40, deadline=None)
def test_negative_controls_match_loop_oracles(case):
    crystal, radius, k, seed = case
    assert_same_graph(ocgraph_builder(crystal, radius), loop_ocgraph(crystal, radius))
    knn = knn_distance_only_builder(crystal, k, perturbation_seed=seed)
    assert_same_graph(knn, loop_knn_distance_only(crystal, k, perturbation_seed=seed))
    # kNN edges come in distance order, so adding self edges must re-sort them all
    assert_same_graph(add_self_connecting_edges(knn, crystal), loop_self_edges(knn, crystal))


class TestLineGraphSize:
    def test_reference_values(self):
        assert line_graph_size(1) == (6, 66)
        assert line_graph_size(10) == (60, 660)

    def test_matches_explicit_construction(self):
        for n in range(2, 9):
            edges = ring_multigraph(n, degree=12)
            assert explicit_line_graph_size(edges) == line_graph_size(n, degree=12)

    def test_other_degrees(self):
        for n in (2, 4):
            for degree in (4, 6, 8):
                edges = ring_multigraph(n, degree=degree)
                assert explicit_line_graph_size(edges) == line_graph_size(n, degree=degree)

    def test_validation(self):
        with pytest.raises(ValueError):
            line_graph_size(0)
        with pytest.raises(ValueError):
            line_graph_size(3, degree=5)
        with pytest.raises(ValueError):
            ring_multigraph(1)
