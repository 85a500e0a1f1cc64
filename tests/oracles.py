"""Independent brute-force oracles for the geometry and embedding tests.

These deliberately avoid the library's enumeration machinery: plain triple
loops over a fixed image box, working on raw Cartesian positions, and the
slow textbook forms of formulas the library computes another way.
"""

import itertools

import numpy as np


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


def one_hot_atoms(atomic_numbers, dim=119):
    """(n, dim) rows with a single 1 at each atomic number."""
    z = np.asarray(atomic_numbers, dtype=int)
    out = np.zeros((z.size, dim))
    out[np.arange(z.size), z] = 1.0
    return out
