"""Executable invariance checks for crystal graph constructions.

Fuzzes a graph builder with boundary shifts, supercell scalings, and rigid
transformations, comparing canonical graph signatures.  Includes two
deliberately broken constructions as negative controls: one that treats
every atom image as a separate node (sensitive to boundary shifts) and one
that picks k nearest neighbors by distance alone (non-deterministic under
ties).  Also provides the line-graph size analysis used to quantify the
cost of angle-based featurization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .crystal import Crystal, E3Transform, apply_e3, random_orthogonal, shift_boundary, supercell
from .graphs import (
    KIND_ORDER,
    NEIGHBOR,
    CrystalGraph,
    EdgeTable,
    GraphMeta,
    add_self_connecting_edges,
    build_radius_graph,
    build_t_fully_connected,
    grow_candidates,
    image_box,
    image_offsets,
    neighbor_candidates,
)
from .io import crystal_to_dict

DEFAULT_ALPHAS = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2))

GraphBuilder = Callable[[Crystal], CrystalGraph]


# --- canonical signatures -----------------------------------------------------


def rounded_distances(distance: np.ndarray) -> np.ndarray:
    """Each distance rounded to 9 decimals, bit for bit as the builtin
    ``round(d, 9)``, which rounds the exact decimal value (``np.round``
    lands on the other side of many near-halfway distances).

    ``d * 1e9`` is within half an ulp of the exact product, so its nearest
    integer is the builtin's unless it lies within a few ulps of a halfway
    point; those distances go through ``round`` itself.  An integer below
    2**53 divided by 1e9 is the double nearest its decimal value, which is
    what ``round`` returns.
    """
    scaled = distance * 1e9
    whole = np.rint(scaled)
    out = whole / 1e9
    near_half = np.abs(np.abs(scaled - whole) - 0.5) <= 4 * np.spacing(np.abs(scaled))
    out[near_half] = [round(d, 9) for d in distance[near_half].tolist()]
    return out


def node_signatures(graph: CrystalGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node sorted multisets of (rounded distance, kind, source species,
    distance) entries, as ``(counts, entries)``: each node's entry count and
    the (E, 4) entries grouped by node in index order.

    Entries sort by the distance rounded to 9 decimals, so that equal
    distances computed with different rounding errors line up; comparisons
    use the exact distance, so two values that straddle a rounding boundary
    differ by their true difference, not by a whole rounding step.
    """
    e = graph.edges
    species = graph.node_atomic_numbers[e.src]
    key = rounded_distances(e.distance)
    order = np.lexsort((e.distance, species, e.kind, key, e.dst))
    entries = np.column_stack((key, e.kind, species, e.distance))[order]
    return np.bincount(e.dst, minlength=graph.n_nodes), entries


def graph_signature(graph: CrystalGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permutation- and index-free signature ``(species, counts, entries)``
    of nodes sorted by (species, node signature) the way tuples compare:
    entry by entry, a signature that is a prefix of another first."""
    counts, entries = node_signatures(graph)
    z = graph.node_atomic_numbers
    # one row per node, padded with -inf, which sorts below every entry value
    rows = np.full((z.size, counts.max(initial=0), entries.shape[1]), -np.inf)
    slot = np.arange(len(entries)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows[np.repeat(np.arange(z.size), counts), slot] = entries
    order = np.lexsort(np.vstack((rows.reshape(z.size, -1).T[::-1], z)))
    filled = np.arange(rows.shape[1]) < counts[order, None]
    return z[order], counts[order], rows[order][filled]


def signature_discrepancy(sig_a: tuple, sig_b: tuple) -> float:
    """Max distance discrepancy between matching entries of two signatures,
    or inf on any structural mismatch (node count, species, entry count,
    kind or source species)."""
    (za, ca, ea), (zb, cb, eb) = sig_a, sig_b
    if not (np.array_equal(za, zb) and np.array_equal(ca, cb) and np.array_equal(ea[:, 1:3], eb[:, 1:3])):
        return np.inf
    return float(np.abs(ea[:, 3] - eb[:, 3]).max(initial=0.0))


def quotient_discrepancy(base_graph: CrystalGraph, super_graph: CrystalGraph, n_base: int) -> float:
    """Compare supercell node signatures against their originating atoms.

    Supercell construction lays replicas out in blocks, so node ``s``
    originates from base atom ``s % n_base``.  Structural mismatches
    (node counts, species, edge counts) yield inf.
    """
    if super_graph.n_nodes % n_base != 0 or base_graph.n_nodes != n_base:
        return np.inf
    reps = super_graph.n_nodes // n_base
    counts, entries = node_signatures(base_graph)
    base = np.tile(base_graph.node_atomic_numbers, reps), np.tile(counts, reps), np.tile(entries, (reps, 1))
    return signature_discrepancy(base, (super_graph.node_atomic_numbers, *node_signatures(super_graph)))


# --- audit harness ------------------------------------------------------------


@dataclass
class AuditReport:
    construction_name: str
    trials: int
    violations: int
    worst_discrepancy: float
    witness: dict | None = None

    def __post_init__(self):
        if self.violations > self.trials:
            raise ValueError("violations cannot exceed trials")
        if (self.witness is not None) != (self.violations > 0):
            raise ValueError("witness must be present iff violations occurred")


def _tally(name: str, outcomes, tol: float) -> AuditReport:
    """Report on ``(crystal, transform, discrepancy)`` trial outcomes.

    A trial violates when its discrepancy exceeds ``tol``.  Discrepancies
    are clamped to the largest float, so the report is strict JSON even
    after a structural mismatch (an infinite discrepancy), and the first
    violating trial is the witness.
    """
    trials = violations = 0
    worst = 0.0
    witness = None
    for crystal, transform, disc in outcomes:
        trials += 1
        disc = float(min(disc, np.finfo(float).max))
        worst = max(worst, disc)
        if disc > tol:
            violations += 1
            if witness is None:
                witness = {"crystal": crystal_to_dict(crystal), "transform": transform, "discrepancy": disc}
    return AuditReport(name, trials, violations, float(worst), witness)


def audit_periodic_invariance(
    builder: GraphBuilder,
    crystals: list[Crystal],
    trials_per_crystal: int,
    seed: int,
    alphas: tuple = DEFAULT_ALPHAS,
    tol: float = 1e-9,
    name: str = "builder",
) -> AuditReport:
    """Compare builder output across random boundary shifts and supercells.

    Each trial redescribes the crystal as ``shift_boundary(supercell(c, a), p)``
    with a random corner ``p`` and an ``a`` cycled from ``alphas``, then
    compares canonical signatures (quotienting supercell nodes by their
    originating atom when ``a != (1, 1, 1)``).
    """
    rng = np.random.default_rng(seed)

    def outcomes():
        for crystal in crystals:
            base_graph = builder(crystal)
            base_sig = graph_signature(base_graph)
            for t in range(trials_per_crystal):
                alpha = tuple(alphas[t % len(alphas)])
                scaled = supercell(crystal, alpha)
                corner = rng.uniform(-1.0, 2.0, 3) @ scaled.lattice
                other = builder(shift_boundary(scaled, corner))
                if alpha == (1, 1, 1):
                    disc = signature_discrepancy(base_sig, graph_signature(other))
                else:
                    disc = quotient_discrepancy(base_graph, other, crystal.n_atoms)
                yield crystal, {"type": "periodic", "corner": corner.tolist(), "alpha": list(alpha)}, disc

    return _tally(name, outcomes(), tol)


def audit_e3_invariance(
    builder: GraphBuilder,
    crystals: list[Crystal],
    trials_per_crystal: int,
    seed: int,
    tol: float = 1e-9,
    name: str = "builder",
) -> AuditReport:
    """Compare builder output across random rotations/reflections and translations."""
    rng = np.random.default_rng(seed)

    def outcomes():
        for crystal in crystals:
            base_sig = graph_signature(builder(crystal))
            for _ in range(trials_per_crystal):
                q = random_orthogonal(rng)
                b = rng.uniform(-5.0, 5.0, 3)
                moved = apply_e3(crystal, E3Transform(q, b))
                disc = signature_discrepancy(base_sig, graph_signature(builder(moved)))
                yield crystal, {"type": "e3", "rotation": q.tolist(), "translation": b.tolist()}, disc

    return _tally(name, outcomes(), tol)


def audit_knn_determinism(crystal: Crystal, k: int, seeds: tuple[int, ...] = (0, 1, 2, 3)) -> AuditReport:
    """Flag enumeration-order sensitivity of distance-only kNN selection."""
    reference = graph_signature(knn_distance_only_builder(crystal, k, perturbation_seed=seeds[0]))

    def outcomes():
        for s in seeds[1:]:
            other = graph_signature(knn_distance_only_builder(crystal, k, perturbation_seed=s))
            disc = signature_discrepancy(reference, other)
            yield crystal, {"type": "enumeration_seed", "seed": int(s)}, disc

    return _tally("knn_distance_only", outcomes(), 0.0)


# --- broken constructions (negative controls) ---------------------------------


def _norms(vecs: np.ndarray) -> np.ndarray:
    """Row lengths with the 1-D ``np.linalg.norm``'s bits: its ``sqrt(v @ v)``
    (a batched ``norm(axis=-1)`` sums the squares another way)."""
    return np.sqrt((vecs[:, None, :] @ vecs[:, :, None])[:, 0, 0])


def ocgraph_builder(crystal: Crystal, r: float) -> CrystalGraph:
    """Fully connected graph over every atom image within ``r`` of the cell.

    Treats each image as a separate node, so the node set depends on where
    the cell boundaries sit: deliberately not periodic invariant.  Edges
    are emitted in both directions (a complete directed graph).
    """
    _, atom, image, _ = neighbor_candidates(crystal, r)
    in_cell = np.column_stack([np.arange(crystal.n_atoms), np.zeros((crystal.n_atoms, 3), dtype=int)])
    # image nodes as (atom, offset) rows, sorted
    nodes = np.unique(np.concatenate([in_cell, np.column_stack([atom, image])]), axis=0)
    positions = crystal.positions[nodes[:, 0]] + nodes[:, 1:].astype(float) @ crystal.lattice
    dst, src = np.nonzero(~np.eye(len(nodes), dtype=bool))
    edges = EdgeTable(dst, src, np.zeros((dst.size, 3), dtype=int), _norms(positions[src] - positions[dst]),
                      np.full_like(dst, KIND_ORDER[NEIGHBOR]))
    meta = GraphMeta(method="ocgraph", radius=float(r))
    return CrystalGraph(node_atomic_numbers=crystal.atomic_numbers[nodes[:, 0]], edges=edges, meta=meta)


def knn_distance_only_builder(crystal: Crystal, k: int, perturbation_seed: int = 0) -> CrystalGraph:
    """k nearest image neighbors with ties broken by enumeration order.

    Candidates are enumerated in a seed-shuffled order and stably sorted by
    distance alone, so equal distances resolve to whichever candidate the
    enumeration happened to produce first.  This mirrors the pitfall of
    selecting neighbors purely by sorted distance.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = crystal.n_atoms
    frac = crystal.frac_coords
    rng = np.random.default_rng(perturbation_seed)
    r, _ = grow_candidates(crystal, k)
    box = image_offsets(image_box(crystal.lattice, r))
    j = np.repeat(np.arange(n), len(box))
    columns = []
    node_radii = np.zeros(n)
    for i in range(n):
        # naive raw-index scan, the order a straightforward implementation
        # enumerates images in (atom j, then k1, k2, k3 around the images of
        # j nearest i): where a physical image lands in this scan depends on
        # the cell description, which is the whole pitfall
        kvec = (np.floor(frac[i] - frac + 0.5).astype(int)[:, None, :] + box).reshape(-1, 3)
        d = _norms((frac[j] + kvec - frac[i]) @ crystal.lattice)
        cand = np.flatnonzero((d <= r) & ~((j == i) & (d < 1e-12)))
        shuffled = cand[rng.permutation(cand.size)]
        picked = shuffled[np.argsort(d[shuffled], kind="stable")[:k]]  # stable: ties keep shuffled order
        node_radii[i] = d[picked[-1]]
        columns.append((np.full(picked.size, i), j[picked], kvec[picked], d[picked]))
    dst, src, image, dist = (np.concatenate(c) for c in zip(*columns))
    meta = GraphMeta(method="knn", neighbor_rank=k, node_radii=tuple(map(float, node_radii)))
    return CrystalGraph(
        node_atomic_numbers=crystal.atomic_numbers,
        edges=EdgeTable(dst, src, image, dist, np.full_like(dst, KIND_ORDER[NEIGHBOR])),
        meta=meta,
    )


# --- adversarial corpus -------------------------------------------------------


def shift_sensitive_crystal() -> Crystal:
    """Two atoms straddling a boundary; image-node counts change under shifts."""
    lattice = 2.0 * np.eye(3)
    frac = np.array([[0.1, 0.0, 0.0], [0.9, 0.0, 0.0]])
    return Crystal(
        atomic_numbers=np.array([6, 8]),
        positions=frac @ lattice,
        lattice=lattice,
    )


def tie_crystal() -> Crystal:
    """Two species at exactly equal distance from a center atom.

    Coordinates are dyadic so the tie is exact in floating point.
    """
    lattice = 4.0 * np.eye(3)
    frac = np.array([[0.25, 0.0, 0.0], [0.5, 0.0, 0.0], [0.75, 0.0, 0.0]])
    return Crystal(
        atomic_numbers=np.array([3, 6, 9]),
        positions=frac @ lattice,
        lattice=lattice,
    )


# --- line-graph size analysis -------------------------------------------------


def line_graph_size(n_nodes: int, degree: int = 12) -> tuple[int, int]:
    """Node and edge counts of the line graph of a degree-regular multigraph.

    Assumes an undirected multigraph with even regular degree and no self
    edges: the original has degree*n/2 edges, each adjacent to 2*(degree-1)
    others, giving nodes*(degree-1) line-graph edges.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if degree < 2 or degree % 2 != 0:
        raise ValueError("degree must be even and >= 2")
    nodes = degree * n_nodes // 2
    edges = nodes * (degree - 1)
    return nodes, edges


# --- named builders -----------------------------------------------------------


def make_builder(name: str, *, neighbor_rank: int = 12, t: int = 3, self_edges: bool = False,
                 radius: float = 1.0, k: int = 12, perturbation_seed: int = 0) -> GraphBuilder:
    """Named graph builders for the CLI and the audit harness."""
    if name in ("radius", "tfc"):
        def build(c: Crystal) -> CrystalGraph:
            g = build_radius_graph(c, neighbor_rank=neighbor_rank) if name == "radius" else build_t_fully_connected(c, t=t)
            return add_self_connecting_edges(g, c) if self_edges else g
        return build
    if name == "ocgraph":
        return lambda c: ocgraph_builder(c, r=radius)
    if name == "knn":
        return lambda c: knn_distance_only_builder(c, k=k, perturbation_seed=perturbation_seed)
    raise ValueError(f"unknown builder {name!r}")
