"""Periodic-invariant crystal graph construction.

Node ``i`` of a crystal graph stands for atom ``i`` together with all of its
periodic images.  Edges carry the Euclidean distance between a source image
and the destination atom plus the integer lattice offset identifying that
image, so several edges may connect the same node pair.

Two invariant constructions are provided: an adaptive-radius multi-edge
graph (per-node cutoff at the 12th-smallest image distance by default) and a
t-fully-connected graph keeping the t smallest image distances per ordered
node pair.  Six self-connecting edges per node encode the lattice shape.
Every construction selects from one candidate search,
``neighbor_candidates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal

import numpy as np

from .crystal import Crystal, LatticeImage

NEIGHBOR = "neighbor"
SELF_CONNECTING = "self_connecting"

# Distance comparisons (radius inclusion, self-edge dedup, multiset equality)
# share this tolerance so tie-laden cells behave identically across
# equivalent cell descriptions.
DIST_TOL = 1e-9

# Images of the same atom whose distances encode the lattice shape.
SELF_EDGE_IMAGES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))

KINDS = (NEIGHBOR, SELF_CONNECTING)  # in canonical order; a kind column holds indices into it
KIND_ORDER = {kind: code for code, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class Edge:
    """Directed edge from the image ``src + image`` to atom ``dst``: one row
    of an ``EdgeTable``, which builds rows only when iterated."""

    src: int
    dst: int
    distance: float
    image: LatticeImage
    kind: str = NEIGHBOR


@dataclass(frozen=True)
class GraphMeta:
    method: str
    neighbor_rank: int | None = None
    t: int | None = None
    radius: float | None = None
    node_radii: tuple[float, ...] | None = None
    self_edges: bool = False


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """A graph's edges as read-only columns: ``dst``, ``src`` (E,), integer
    lattice offsets ``image`` (E, 3), ``distance`` (E,) and ``kind`` (E,),
    an index into ``KINDS``.  The table takes its arrays over (they become
    read-only).  ``len()`` counts the edges, and iterating yields ``Edge``
    rows, built on demand."""

    dst: np.ndarray
    src: np.ndarray
    image: np.ndarray
    distance: np.ndarray
    kind: np.ndarray

    def __post_init__(self):
        for name, dtype in (("dst", int), ("src", int), ("image", int), ("distance", float), ("kind", int)):
            col = np.asarray(getattr(self, name), dtype=dtype)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        n = self.dst.shape
        if len(n) != 1 or self.image.shape != (*n, 3) or any(c.shape != n for c in (self.src, self.distance, self.kind)):
            raise ValueError(f"edge columns need shapes (E,), (E,), (E, 3), (E,), (E,), got "
                             f"{[c.shape for c in self.columns]}")

    @classmethod
    def from_rows(cls, edges) -> "EdgeTable":
        """Columns of a sequence of ``Edge`` rows, in their given order."""
        rows = [(e.dst, e.src, *e.image.k, KIND_ORDER[e.kind]) for e in edges]
        ints = np.array(rows, dtype=int).reshape(-1, 6)
        dist = np.array([e.distance for e in edges], dtype=float)
        return cls(ints[:, 0], ints[:, 1], ints[:, 2:5], dist, ints[:, 5])

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """``(dst, src, image, distance, kind)``, as ``canonical_order`` takes them."""
        return self.dst, self.src, self.image, self.distance, self.kind

    def __len__(self) -> int:
        return self.dst.size

    def __iter__(self):
        # positional arguments in field order: cheaper per edge than keywords
        return map(Edge, self.src.tolist(), self.dst.tolist(), self.distance.tolist(),
                   map(LatticeImage, self.image.tolist()), map(KINDS.__getitem__, self.kind.tolist()))


@dataclass(frozen=True)
class CrystalGraph:
    """Nodes by atomic number, and edges stored as an ``EdgeTable``; a
    sequence of ``Edge`` rows is converted to one."""

    node_atomic_numbers: np.ndarray
    edges: EdgeTable
    meta: GraphMeta

    def __post_init__(self):
        if not isinstance(self.edges, EdgeTable):
            object.__setattr__(self, "edges", EdgeTable.from_rows(self.edges))

    @property
    def n_nodes(self) -> int:
        return self.node_atomic_numbers.size


def canonical_order(dst, src, image, distance, kind) -> np.ndarray:
    """Permutation putting edge columns in canonical edge order: by dst,
    src, kind, distance, then image offset lexicographically."""
    return np.lexsort((image[:, 2], image[:, 1], image[:, 0], distance, kind, src, dst))


def interplanar_spacings(lattice: np.ndarray) -> np.ndarray:
    """Spacing of lattice planes normal to each reciprocal direction.

    The columns of the inverse lattice are the reciprocal vectors (without
    the 2 pi), and the planes normal to one are its inverse length apart.
    """
    return _spacings(np.linalg.inv(np.asarray(lattice, dtype=float)))


def _spacings(inverse: np.ndarray) -> np.ndarray:
    """``interplanar_spacings`` of the lattice whose inverse is ``inverse``."""
    return 1.0 / np.linalg.norm(inverse, axis=0)


def image_box(lattice: np.ndarray, r: float) -> tuple[int, int, int]:
    """Image offsets ``K_i`` to scan each way, around a fractional difference
    recentred into [-0.5, 0.5], to find every image within ``r``.

    A displacement with fractional components ``f`` is at least
    ``|f_i| * spacing_i`` long (its projection on the normal of the planes
    spanned by the other two axes), so an image within ``r`` has
    ``|k_i| <= r / spacing_i + 0.5``, and ``K_i = floor(r / spacing_i + 0.5)``
    (plus 1e-9, so rounding in the spacings cannot drop an image at exactly
    ``r``).
    """
    return _box(interplanar_spacings(lattice), r)


def _box(spacings: np.ndarray, r: float) -> tuple[int, int, int]:
    """``image_box`` of the lattice with interplanar ``spacings``."""
    if not 0 < r < math.inf:  # true of nan too, which fails every comparison
        raise ValueError(f"radius must be positive and finite, got {r}")
    # Python ints and floats, which do not overflow or warn: a huge radius reaches the
    # search's memory budget, and a quotient past the float range is taken in Decimal
    r = float(r)
    return tuple(math.floor(q) if (q := r / s + 0.5 + 1e-9) < math.inf else int(Decimal(r) / Decimal(s))
                 for s in spacings.tolist())


def image_offsets(box: tuple[int, int, int]) -> np.ndarray:
    """Every integer offset ``k`` with ``|k_i| <= box_i``, as (P, 3) rows in C
    order: the last axis varies fastest."""
    return np.subtract(np.indices([2 * b + 1 for b in box]).reshape(3, -1).T, box, order="C")


# Budget for the peak memory of one ``neighbor_candidates`` call.
MAX_GRID_BYTES = 1 << 30


def neighbor_candidates(crystal: Crystal, r: float):
    """Every atom image within ``r`` of an atom.

    Returns flat arrays ``(dst, src, image, distance)`` in (dst, src, grid)
    order, where ``image`` (E, 3) is the integer lattice offset of the
    source image.  The zero self pair (an atom with itself at zero offset)
    is left out.

    Works for arbitrary (unwrapped) fractional coordinates: a per-pair
    integer base offset recentres each fractional difference into
    [-0.5, 0.5), and the scan covers ``image_box(lattice, r)`` around it.
    Raises ``ValueError`` before allocating when the estimated peak exceeds
    ``MAX_GRID_BYTES``.  The peak is at the one matmul, where the float64
    image grid (n, n, P, 3), its product with the lattice and the (n, n, 3)
    base offsets are alive: 48 P + 24 bytes per atom pair, measured with
    ``tracemalloc``.  The estimate, 67 P + 24 bytes per pair, is above that
    for every box, the one-offset box (72 bytes at peak) included.
    """
    n = crystal.n_atoms
    # one inverse serves the box and the fractional coordinates, the same
    # bits as ``image_box(lattice, r)`` and ``crystal.frac_coords``
    inverse = np.linalg.inv(crystal.lattice)
    bound = _box(_spacings(inverse), r)
    # eight float64s and three bool masks per (dst, src, offset) triple, and
    # three float64 base offsets per (dst, src) pair
    peak_bytes = n * n * (math.prod(2 * k + 1 for k in bound) * (8 * 8 + 3) + 3 * 8)
    if peak_bytes > MAX_GRID_BYTES:
        # the nearest MiB in integers, which hold any radius's estimate: n * n
        # times an odd number is never a tie at half a MiB
        raise ValueError(
            f"neighbor search over {n} atoms at r={_short(r, '.3f')} would need "
            f"{_short((peak_bytes + 2**19) >> 20, 'd')} MiB for its image grid "
            f"(limit {MAX_GRID_BYTES / 2**20:.0f} MiB)"
        )
    offs = image_offsets(bound)
    frac = crystal.positions @ inverse
    diff = frac[None, :, :] - frac[:, None, :]  # f_src - f_dst
    base = diff + 0.5
    np.floor(base, out=base)
    diff -= base
    # each buffer goes once used: the peak is the grid, its product and base
    grid = diff[:, :, None, :] + offs
    del diff
    # one flat BLAS product: the same bits as the stacked (n, n, P, 3) @ lattice
    vecs = grid.reshape(-1, 3) @ crystal.lattice
    del grid
    # squares summed as ((x0 + x1) + x2): the bits of np.linalg.norm(axis=-1)
    np.square(vecs, out=vecs)
    dist = vecs[:, 0] + vecs[:, 1]
    dist += vecs[:, 2]
    del vecs
    np.sqrt(dist, out=dist)
    dist = dist.reshape(n, n, -1)
    keep = dist <= r
    diag = np.arange(n)
    keep[diag, diag] &= ~(dist[diag, diag] < 1e-12)
    dst, src, p = np.nonzero(keep)
    image = (offs[p] - base[dst, src]).astype(int)
    return dst, src, image, dist[dst, src, p]


def _short(value, spec: str) -> str:
    """``format(value, spec)``, or four significant digits from 10**12 on:
    ``Decimal`` formats an int of any size, whose float would overflow."""
    return format(value, spec) if value < 10**12 else format(Decimal(value), ".3e")


def grow_candidates(crystal: Crystal, need: int, per_pair: bool = False):
    """``(r, neighbor_candidates(crystal, r))`` at the first radius where each
    destination atom (each ordered atom pair when ``per_pair``) has at least
    ``need`` candidates, growing 1.5x from a uniform-density guess."""
    n = crystal.n_atoms
    r = 1.3 * (3.0 * max(need, 1) * crystal.volume / (4.0 * math.pi * (1 if per_pair else n))) ** (1.0 / 3.0)
    while True:
        cand = neighbor_candidates(crystal, r)
        keys, size = (cand[0] * n + cand[1], n * n) if per_pair else (cand[0], n)
        if np.bincount(keys, minlength=size).min() >= need:
            return r, cand
        r *= 1.5


def _rank_in_group(keys: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal (sorted) keys."""
    return np.arange(keys.size) - np.searchsorted(keys, keys)


def _rank_distances(dst: np.ndarray, dist: np.ndarray, rank: int) -> np.ndarray:
    """Rank-th smallest candidate distance of each destination, in dst order."""
    order = np.lexsort((dist, dst))
    return dist[order][_rank_in_group(dst[order]) == rank - 1]


def build_radius_graph(crystal: Crystal, neighbor_rank: int = 12) -> CrystalGraph:
    """Multi-edge graph with per-node adaptive radius.

    Node ``i``'s radius, recorded in ``meta.node_radii``, is its
    ``neighbor_rank``-th smallest image distance (with multiplicity): a
    function of the node's distance multiset, hence unchanged by boundary
    shifts, supercell scaling and E(3) maps.  The node receives one edge per
    image of every node within that radius, inclusive of the boundary (with
    the shared distance tolerance), so the image defining the radius is
    itself an edge and every node has >= neighbor_rank edges.
    """
    if neighbor_rank < 1:
        raise ValueError("neighbor_rank must be >= 1")
    r, cand = grow_candidates(crystal, neighbor_rank)
    radii = _rank_distances(cand[0], cand[3], neighbor_rank)
    if radii.max() + DIST_TOL > r:
        # edge selection extends DIST_TOL past the largest radius; re-enumerate
        # so the box provably covers it
        cand = neighbor_candidates(crystal, radii.max() + 1e-6)
    keep = cand[3] <= radii[cand[0]] + DIST_TOL
    cols = [c[keep] for c in cand] + [np.full(keep.sum(), KIND_ORDER[NEIGHBOR])]
    order = canonical_order(*cols)
    meta = GraphMeta(method="radius", neighbor_rank=neighbor_rank, node_radii=tuple(map(float, radii)))
    return CrystalGraph(
        node_atomic_numbers=crystal.atomic_numbers,
        edges=EdgeTable(*(c[order] for c in cols)),
        meta=meta,
    )


def build_t_fully_connected(crystal: Crystal, t: int = 3) -> CrystalGraph:
    """Graph with exactly ``t`` edges per ordered node pair (self pairs too).

    Each pair keeps its ``t`` smallest image distances; equal distances are
    broken lexicographically by image index, so the edge *features* are
    tie-independent.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = crystal.n_atoms
    _, (dst, src, image, dist) = grow_candidates(crystal, t, per_pair=True)
    kind = np.full_like(dst, KIND_ORDER[NEIGHBOR])
    order = canonical_order(dst, src, image, dist, kind)
    # each pair's first t in canonical order, still in canonical order
    keep = order[_rank_in_group(dst[order] * n + src[order]) < t]
    dst, src, image, dist, kind = dst[keep], src[keep], image[keep], dist[keep], kind[keep]
    # kept distances ascend within each pair, so a self pair's last is its largest
    node_radii = dist[(dst == src) & (np.arange(dist.size) % t == t - 1)]
    meta = GraphMeta(method="t_fully_connected", t=t, node_radii=tuple(map(float, node_radii)))
    return CrystalGraph(
        node_atomic_numbers=crystal.atomic_numbers,
        edges=EdgeTable(dst, src, image, dist, kind),
        meta=meta,
    )


def self_connecting_distances(lattice: np.ndarray) -> list[tuple[tuple[int, int, int], float]]:
    """The six lattice-shape distances with their image indices."""
    lattice = np.asarray(lattice, dtype=float)
    out = []
    for k in SELF_EDGE_IMAGES:
        vec = np.asarray(k, dtype=float) @ lattice
        out.append((k, float(np.linalg.norm(vec))))
    return out


def add_self_connecting_edges(graph: CrystalGraph, crystal: Crystal) -> CrystalGraph:
    """Add the six lattice-shape self edges per node, deduplicated, and put
    every edge in canonical order.

    A candidate already represented by the neighbor construction (distance
    within the node's construction radius) is skipped.  Deduplication uses
    the node-specific radius recorded at construction time.
    """
    if graph.meta.node_radii is None:
        raise ValueError(f"graph method {graph.meta.method!r} has no per-node radius for dedup")
    if graph.n_nodes != crystal.n_atoms:
        raise ValueError("graph was not built from this crystal")
    six = np.array([d for _, d in self_connecting_distances(crystal.lattice)])
    node, which = np.nonzero(six > np.array(graph.meta.node_radii)[:, None] + DIST_TOL)
    added = (node, node, np.array(SELF_EDGE_IMAGES)[which], six[which], np.full_like(node, KIND_ORDER[SELF_CONNECTING]))
    cols = [np.concatenate(pair) for pair in zip(graph.edges.columns, added)]
    order = canonical_order(*cols)
    return CrystalGraph(
        node_atomic_numbers=graph.node_atomic_numbers,
        edges=EdgeTable(*(c[order] for c in cols)),
        meta=replace(graph.meta, self_edges=True),
    )


def lattice_gram_from_six(d: np.ndarray) -> np.ndarray:
    """Recover the lattice Gram matrix from the six self-edge distances.

    Input order: (|l1|, |l2|, |l3|, |l1+l2|, |l1+l3|, |l2+l3|).  Uses
    l_a . l_b = (|l_a + l_b|^2 - |l_a|^2 - |l_b|^2) / 2.  Raises if the
    result is not positive semi-definite (inconsistent distances).
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (6,) or np.any(d <= 0):
        raise ValueError("expected six positive distances")
    sq = d**2
    g = np.empty((3, 3))
    g[0, 0], g[1, 1], g[2, 2] = sq[0], sq[1], sq[2]
    g[0, 1] = g[1, 0] = (sq[3] - sq[0] - sq[1]) / 2.0
    g[0, 2] = g[2, 0] = (sq[4] - sq[0] - sq[2]) / 2.0
    g[1, 2] = g[2, 1] = (sq[5] - sq[1] - sq[2]) / 2.0
    eigvals = np.linalg.eigvalsh(g)
    if eigvals.min() < -1e-9 * max(1.0, eigvals.max()):
        raise ValueError("distances are inconsistent: recovered Gram matrix is not PSD")
    return g
