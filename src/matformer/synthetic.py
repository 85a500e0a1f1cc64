"""Synthetic crystal corpus with analytic regression targets.

Random triclinic cells (lengths 2-8 A, angles 60-120 deg) with a handful of
atoms at safely separated positions.  Targets are closed-form functions of
the cell description that are exactly invariant under boundary shifts and
rigid transformations, so ground truth carries no labeling noise.
"""

from __future__ import annotations

import math

import numpy as np

from .crystal import Crystal, crystal_from_frac
from .graphs import neighbor_candidates


def lattice_from_parameters(a: float, b: float, c: float,
                            alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Lattice rows from lengths (A) and angles (degrees)."""
    al, be, ga = (math.radians(x) for x in (alpha, beta, gamma))
    ca, cb, cg = math.cos(al), math.cos(be), math.cos(ga)
    sg = math.sin(ga)
    v_sq = 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg
    if v_sq <= 0:
        raise ValueError("angles do not define a valid cell")
    v = math.sqrt(v_sq)
    return np.array(
        [
            [a, 0.0, 0.0],
            [b * cg, b * sg, 0.0],
            [c * cb, c * (ca - cb * cg) / sg, c * v / sg],
        ]
    )


def random_lattice(rng: np.random.Generator, lengths: tuple[float, float] = (2.0, 8.0)) -> np.ndarray:
    """Random triclinic lattice; degenerate angle combinations, and cells
    under a tenth of the volume a*b*c, are resampled."""
    while True:
        a, b, c = rng.uniform(*lengths, 3)
        al, be, ga = rng.uniform(60.0, 120.0, 3)
        try:
            lattice = lattice_from_parameters(a, b, c, al, be, ga)
        except ValueError:
            continue
        vol = abs(np.linalg.det(lattice))
        if vol >= 0.1 * a * b * c:
            return lattice


def min_image_distance(crystal: Crystal) -> float:
    """Smallest distance between any two atom images (excluding self-zero)."""
    # every atom has its own images at the lattice vectors, so this radius
    # holds at least one candidate and the smallest distance overall
    r = float(np.linalg.norm(crystal.lattice, axis=1).max())
    return float(neighbor_candidates(crystal, r)[3].min())


def random_crystal(rng: np.random.Generator,
                   n_atoms: int | None = None,
                   lengths: tuple[float, float] = (2.0, 8.0)) -> Crystal:
    """Random valid crystal of species H, Li, C, O, Si and Fe with atom
    images at least 0.7 A apart."""
    while True:
        lattice = random_lattice(rng, lengths=lengths)
        n = n_atoms if n_atoms is not None else int(rng.integers(1, 7))
        for _ in range(20):
            frac = rng.random((n, 3))
            crystal = crystal_from_frac(rng.choice((1, 3, 6, 8, 14, 26), n), frac, lattice)
            if min_image_distance(crystal) >= 0.7:
                return crystal


def mean_lattice_length(crystal: Crystal) -> float:
    return float(np.linalg.norm(crystal.lattice, axis=1).mean())


def density(crystal: Crystal) -> float:
    return crystal.n_atoms / crystal.volume


TARGET_FUNCTIONS = {
    "mean_lattice_length": mean_lattice_length,
    "density": density,
}


def random_corpus(n_crystals: int, seed: int, n_atoms_max: int = 6) -> list[Crystal]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_crystals):
        n = int(rng.integers(1, n_atoms_max + 1))
        out.append(random_crystal(rng, n_atoms=n))
    return out
