"""Independent brute-force oracles for the geometry, embedding and engine tests.

These deliberately avoid the library's enumeration machinery: plain triple
loops over a fixed image box, working on raw Cartesian positions, and the
slow textbook forms of formulas the library computes another way.  The
dense image grid the neighbor search once built, with a stacked product
and ``np.linalg.norm``, holds the search to its arrays bit for bit.  The loop
references at the end build whole graphs one edge at a time, as the
negative controls and the self-edge merge once did, and must agree with the
array builders edge for edge and bit for bit; the audit's signatures follow
as sorted tuples of Python floats, compared entry by entry, and must give
the array signatures' discrepancies bit for bit.  The attention head's
composed chain of gathers, concatenations and products is the reference
for the engine's two pair ops, and with the scale, layer norm and sigmoid
between them for its sigmoid-norm message op, also bit for bit.  Batch
norm's own inline statistics and backward, as the library once wrote them,
hold the normalization kernel it shares with layer norm to the same bits.
Central finite differences check every gradient, an explicit line-graph
construction checks the closed-form size, and a plain CSV writer feeds the
targets reader.
"""

import csv
import dataclasses
import io as stdio
import itertools
import math

import numpy as np

from matformer import engine
from matformer.crystal import LatticeImage
from matformer.graphs import (
    DIST_TOL,
    KIND_ORDER,
    NEIGHBOR,
    SELF_CONNECTING,
    CrystalGraph,
    Edge,
    GraphMeta,
    grow_candidates,
    image_box,
    neighbor_candidates,
    self_connecting_distances,
)
from matformer.model import attention_gate


def brute_image_distances(crystal, i, j, kmax):
    """All (distance, (k1,k2,k3)) for images of atom j around atom i, |k| <= kmax."""
    out = []
    for k1, k2, k3 in itertools.product(range(-kmax, kmax + 1), repeat=3):
        offset = k1 * crystal.lattice[0] + k2 * crystal.lattice[1] + k3 * crystal.lattice[2]
        d = float(np.linalg.norm(crystal.positions[j] + offset - crystal.positions[i]))
        if i == j and d < 1e-12:
            continue
        out.append((d, (k1, k2, k3)))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def brute_node_distances(crystal, i, kmax):
    """Sorted distances from node i to every image of every node."""
    dists = []
    for j in range(crystal.n_atoms):
        dists.extend(d for d, _ in brute_image_distances(crystal, i, j, kmax))
    return sorted(dists)


def brute_adaptive_radius(crystal, i, rank, kmax):
    return brute_node_distances(crystal, i, kmax)[rank - 1]


def brute_radius_edges(crystal, i, radius, kmax):
    """Edge set {(src, k, round(d, 9))} into node i within radius (inclusive + 1e-9)."""
    edges = set()
    for j in range(crystal.n_atoms):
        for d, k in brute_image_distances(crystal, i, j, kmax):
            if d <= radius + 1e-9:
                edges.add((j, k, round(d, 9)))
    return edges


def distance_multiset(crystal, radius, kmax):
    """Sorted multiset of all pairwise image distances <= radius."""
    dists = []
    for i in range(crystal.n_atoms):
        for j in range(crystal.n_atoms):
            dists.extend(d for d, _ in brute_image_distances(crystal, i, j, kmax) if d <= radius)
    return sorted(dists)


def cross_product_spacings(lattice):
    """Interplanar spacings as cell volume over the area of each face."""
    lattice = np.asarray(lattice, dtype=float)
    vol = abs(np.linalg.det(lattice))
    faces = [np.cross(lattice[1], lattice[2]), np.cross(lattice[2], lattice[0]), np.cross(lattice[0], lattice[1])]
    return np.array([vol / np.linalg.norm(f) for f in faces])


def loose_image_bound(lattice, r):
    """Per-axis bound ceil(r / spacing_i): an image within r of an atom whose
    fractional difference from it lies in (-1, 1) has |k_i| <= bound_i + 1."""
    return tuple(int(np.ceil(r / d)) for d in cross_product_spacings(lattice))


def dense_grid_candidates(crystal, r):
    """``graphs.neighbor_candidates`` as the library first wrote it: a stacked
    (n, n, P, 3) product with the lattice, ``np.linalg.norm`` over its last
    axis and an (n, n, P) mask for the zero self pair.  The search must
    return these arrays bit for bit and in this order."""
    n = crystal.n_atoms
    bound = image_box(crystal.lattice, r)
    offs = np.stack(np.meshgrid(*(np.arange(-k, k + 1) for k in bound), indexing="ij"), axis=-1).reshape(-1, 3)
    frac = crystal.frac_coords
    diff = frac[None, :, :] - frac[:, None, :]  # f_src - f_dst
    base = np.floor(diff + 0.5)
    recentred = diff - base
    vecs = (recentred[:, :, None, :] + offs[None, None, :, :]) @ crystal.lattice
    dist = np.linalg.norm(vecs, axis=-1)
    zero_self = np.eye(n, dtype=bool)[:, :, None] & (dist < 1e-12)
    dst, src, p = np.nonzero((dist <= r) & ~zero_self)
    image = (offs[p] - base[dst, src]).astype(int)
    return dst, src, image, dist[dst, src, p]


def one_hot_atoms(atomic_numbers, dim=119):
    """(n, dim) rows with a single 1 at each atomic number."""
    z = np.asarray(atomic_numbers, dtype=int)
    out = np.zeros((z.size, dim))
    out[np.arange(z.size), z] = 1.0
    return out


def layer_norm_grads(a, gain, g, eps=1e-5):
    """Input and gain gradients of ``engine.layer_norm`` for an upstream
    gradient ``g``, as leaves receive them: the forward statistics as
    ``np.var`` forms them, the out-of-place input formula
    (gh - mean(gh) - xhat * mean(gh * xhat)) * inv, a broadcast gain's
    gradient summed over the rows it was repeated over, and each copied as
    0.0 + grad, the way a leaf took its first gradient."""
    mean = a.mean(axis=-1, keepdims=True)
    xhat = a - mean
    var = np.square(xhat).sum(axis=-1, keepdims=True) / a.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xhat * inv
    gh = g * gain
    term = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
    d_gain = g * xhat
    if gain.shape != d_gain.shape:
        d_gain = d_gain.sum(axis=0, keepdims=gain.ndim == 2)
    return term * inv + 0.0, d_gain + 0.0


def batch_norm_reference(x, gamma, beta, running_mean, running_var, g, training, momentum=0.1, eps=1e-5):
    """``engine.batch_norm`` as its own inline formulas once computed it, for
    an upstream gradient ``g``: the output, the gradients of ``x``, ``gamma``
    and ``beta`` as leaves receive them (copied as 0.0 + grad), and the
    updated running mean and variance (unchanged in eval mode)."""
    if training:
        n = x.shape[0]
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean) * inv
        running_mean = (1.0 - momentum) * running_mean + momentum * mean
        running_var = (1.0 - momentum) * running_var + momentum * var * n / (n - 1)
    else:
        inv = 1.0 / np.sqrt(running_var + eps)
        xhat = (x - running_mean) * inv
    gh = g * gamma
    if training:
        gh = gh - gh.mean(axis=0) - xhat * (gh * xhat).mean(axis=0)
    grads = {"x": gh * inv + 0.0, "gamma": (g * xhat).sum(axis=0) + 0.0, "beta": g.sum(axis=0) + 0.0}
    return xhat * gamma + beta, grads, running_mean, running_var


# --- numeric and counting references -------------------------------------------


@engine.no_grad()  # the forwards record no tape
def finite_difference_gradients(build, params, h=1e-5):
    """Central-difference gradient of ``build()`` (scalar) per parameter."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.values)
        for idx in np.ndindex(p.values.shape):
            orig = p.values[idx]
            p.values[idx] = orig + h
            hi = float(build().values)
            p.values[idx] = orig - h
            lo = float(build().values)
            p.values[idx] = orig
            g[idx] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    return float((np.abs(analytic - numeric) / (np.abs(numeric) + floor)).max())


def ring_multigraph(n_nodes, degree=12):
    """Degree-regular multigraph without self edges: parallel ring edges."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes for a self-edge-free multigraph")
    if degree % 2 != 0:
        raise ValueError("degree must be even")
    edges = []
    for u in range(n_nodes):
        v = (u + 1) % n_nodes
        edges.extend([(u, v)] * (degree // 2))
    return edges


def explicit_line_graph_size(edges):
    """Count line-graph nodes/edges of ``audit.line_graph_size`` by direct
    construction.

    Every unordered pair of distinct original edges contributes one
    line-graph edge per shared endpoint (parallel edges share two).
    """
    incident = {}
    for idx, (u, v) in enumerate(edges):
        if u == v:
            raise ValueError("self edges are not supported")
        incident.setdefault(u, []).append(idx)
        incident.setdefault(v, []).append(idx)
    line_edges = 0
    for ids in incident.values():
        line_edges += len(ids) * (len(ids) - 1) // 2
    return len(edges), line_edges


def write_targets_csv(rows):
    """A targets CSV, 'id,target', that ``io.parse_targets_csv`` reads."""
    out = stdio.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "target"])
    for rid, target in rows:
        writer.writerow([rid, repr(float(target))])
    return out.getvalue()


# --- loop references for the negative controls and the self-edge merge ---------


def loop_ocgraph(crystal, r):
    """``audit.ocgraph_builder`` as a per-edge loop: image nodes sorted by
    (atom, image), and one 1-D norm per ordered node pair."""
    _, src, image, _ = neighbor_candidates(crystal, r)
    in_cell = {(j, (0, 0, 0)) for j in range(crystal.n_atoms)}
    nodes = sorted(in_cell.union(zip(src.tolist(), map(tuple, image.tolist()))))
    positions = np.array([crystal.positions[j] + np.asarray(k, float) @ crystal.lattice for j, k in nodes])
    z = np.array([crystal.atomic_numbers[j] for j, _ in nodes])
    edges = []
    m = len(nodes)
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            d = float(np.linalg.norm(positions[b] - positions[a]))
            edges.append(Edge(src=b, dst=a, distance=d, image=LatticeImage((0, 0, 0)), kind=NEIGHBOR))
    return CrystalGraph(node_atomic_numbers=z, edges=tuple(edges), meta=GraphMeta(method="ocgraph", radius=float(r)))


def loop_knn_distance_only(crystal, k, perturbation_seed=0):
    """``audit.knn_distance_only_builder`` as three nested image loops in raw
    index order, one 1-D norm per image, and a stable sort of Python tuples."""
    n = crystal.n_atoms
    frac = crystal.frac_coords
    rng = np.random.default_rng(perturbation_seed)
    r, _ = grow_candidates(crystal, k)
    bound = loose_image_bound(crystal.lattice, r)
    edges = []
    node_radii = np.zeros(n)
    for i in range(n):
        cand = []
        for j in range(n):
            centre = np.floor(frac[i] - frac[j] + 0.5).astype(int)
            for k1 in range(centre[0] - bound[0] - 1, centre[0] + bound[0] + 2):
                for k2 in range(centre[1] - bound[1] - 1, centre[1] + bound[1] + 2):
                    for k3 in range(centre[2] - bound[2] - 1, centre[2] + bound[2] + 2):
                        vec = (frac[j] + (k1, k2, k3) - frac[i]) @ crystal.lattice
                        d = float(np.linalg.norm(vec))
                        if d <= r and not (i == j and d < 1e-12):
                            cand.append((j, (k1, k2, k3), d))
        order = rng.permutation(len(cand))
        shuffled = [cand[o] for o in order]
        shuffled.sort(key=lambda c: c[2])
        picked = shuffled[:k]
        node_radii[i] = picked[-1][2]
        for j, kvec, d in picked:
            edges.append(Edge(src=j, dst=i, distance=d, image=LatticeImage(kvec), kind=NEIGHBOR))
    meta = GraphMeta(method="knn", neighbor_rank=k, node_radii=tuple(map(float, node_radii)))
    return CrystalGraph(node_atomic_numbers=crystal.atomic_numbers, edges=tuple(edges), meta=meta)


def loop_self_edges(graph, crystal):
    """``graphs.add_self_connecting_edges`` as a per-node loop over the six
    candidates, merged by a Python sort on (dst, src, kind, distance, image)."""
    kind_order = {NEIGHBOR: 0, SELF_CONNECTING: 1}
    new_edges = list(graph.edges)
    for i in range(graph.n_nodes):
        for k, d in self_connecting_distances(crystal.lattice):
            if d <= graph.meta.node_radii[i] + DIST_TOL:
                continue
            new_edges.append(Edge(src=i, dst=i, distance=d, image=LatticeImage(k), kind=SELF_CONNECTING))
    new_edges.sort(key=lambda e: (e.dst, e.src, kind_order[e.kind], e.distance, e.image.k))
    return dataclasses.replace(graph, edges=tuple(new_edges), meta=dataclasses.replace(graph.meta, self_edges=True))


# --- loop references for the audit's signatures ---------------------------------


def loop_node_signatures(graph):
    """Per-node sorted tuples of (round(d, 9), kind, source species, d), one
    Edge row at a time."""
    incoming = [[] for _ in range(graph.n_nodes)]
    z = graph.node_atomic_numbers
    for e in graph.edges:
        incoming[e.dst].append((round(e.distance, 9), KIND_ORDER[e.kind], int(z[e.src]), e.distance))
    return [tuple(sorted(sig)) for sig in incoming]


def loop_graph_signature(graph):
    """Nodes as (species, signature) tuples, sorted."""
    sigs = loop_node_signatures(graph)
    z = graph.node_atomic_numbers
    return tuple(sorted((int(z[i]), sigs[i]) for i in range(graph.n_nodes)))


def loop_max_node_discrepancy(pairs):
    """Max distance discrepancy over ``((z_a, sig_a), (z_b, sig_b))`` node
    pairs, or inf on any structural mismatch (species, edge count, kind or
    source species)."""
    worst = 0.0
    for (za, na), (zb, nb) in pairs:
        if za != zb or len(na) != len(nb):
            return np.inf
        for (_, ka, sa, da), (_, kb, sb, db) in zip(na, nb):
            if ka != kb or sa != sb:
                return np.inf
            worst = max(worst, abs(da - db))
    return worst


def loop_signature_discrepancy(sig_a, sig_b):
    if len(sig_a) != len(sig_b):
        return np.inf
    return loop_max_node_discrepancy(zip(sig_a, sig_b))


def loop_quotient_discrepancy(base_graph, super_graph, n_base):
    """Supercell node ``s`` against base atom ``s % n_base``, node by node."""
    if super_graph.n_nodes % n_base != 0 or base_graph.n_nodes != n_base:
        return np.inf
    base = list(zip(base_graph.node_atomic_numbers.tolist(), loop_node_signatures(base_graph)))
    nodes = zip(super_graph.node_atomic_numbers.tolist(), loop_node_signatures(super_graph))
    return loop_max_node_discrepancy((base[s % n_base], node) for s, node in enumerate(nodes))


# --- the attention head as a chain of single ops ---------------------------------


def composed_pair_product(q, k, e, src, dst):
    """``engine.pair_product``: three row gathers, a concatenation and an
    (E, 1, d) x (E, 3, d) broadcast product, each on the tape."""
    n_edges, d = e.shape
    q_dst = engine.gather_rows(q, dst)
    k_pair = engine.concat([engine.gather_rows(k, dst), engine.gather_rows(k, src), e])
    qk = engine.mul(engine.reshape(q_dst, (n_edges, 1, d)), engine.reshape(k_pair, (n_edges, 3, d)))
    return engine.reshape(qk, (n_edges, 3 * d))


def composed_gated_pair_matmul(gate, v, e, src, dst, w):
    """``engine.gated_pair_matmul``: two row gathers, a concatenation, the
    gate product and the matmul, each on the tape."""
    v_pair = engine.concat([engine.gather_rows(v, dst), engine.gather_rows(v, src), e])
    return engine.matmul(engine.mul(gate, v_pair), w)


def composed_sigmoid_norm_message(q, k, v, e, gain, bias, w, src, dst):
    """``engine.sigmoid_norm_message``: the composed pair product, scale,
    layer norm, sigmoid and composed gated matmul, each on the tape."""
    alpha = engine.scale(composed_pair_product(q, k, e, src, dst), 1.0 / math.sqrt(3 * e.shape[1]))
    gate = engine.sigmoid(engine.layer_norm(alpha, gain, bias))
    return composed_gated_pair_matmul(gate, v, e, src, dst, w)


def composed_aggregate_messages(layer, node_feats, edge_feats, src, dst):
    """``MatformerLayer.aggregate_messages`` with the composed pair chains."""
    n_nodes = node_feats.shape[0]
    d_k = 3 * layer.config.d_model
    p = layer.params
    head_outputs = []
    for idx in range(layer.config.n_heads):
        head = f"head{idx}."
        q = engine.linear(node_feats, p[head + "q_w"], p[head + "q_b"])
        k = engine.linear(node_feats, p[head + "k_w"], p[head + "k_b"])
        v = engine.linear(node_feats, p[head + "v_w"], p[head + "v_b"])
        e = engine.linear(edge_feats, p[head + "e_w"], p[head + "e_b"])
        if layer.config.attention_variant == "sigmoid_norm":
            message = composed_sigmoid_norm_message(q, k, v, e, p["alpha_ln.gain"], p["alpha_ln.bias"],
                                                    p[head + "upd_w"], src, dst)
        else:
            alpha = engine.scale(composed_pair_product(q, k, e, src, dst), 1.0 / math.sqrt(d_k))
            gate = attention_gate(alpha, dst, n_nodes, layer.config.attention_variant)
            message = composed_gated_pair_matmul(gate, v, e, src, dst, p[head + "upd_w"])
        message = engine.add(message, p[head + "upd_b"])
        message = engine.layer_norm(engine.linear(message, p[head + "msg_w"], p[head + "msg_b"]),
                                    p["msg_ln.gain"], p["msg_ln.bias"])
        head_outputs.append(engine.scatter_sum(message, dst, n_nodes))
    return engine.linear(engine.concat(head_outputs, axis=1), p["merge.w"], p["merge.b"])
