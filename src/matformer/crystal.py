"""Periodic crystal data model and the cell transformations it supports.

A crystal is a unit cell described by atomic numbers, Cartesian atom
positions, and a 3x3 lattice matrix whose rows are the repeat vectors.
Positions are stored as given (they may describe a cell anchored away from
the origin); fractional views are computed on demand.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Components this close to 1.0 snap to 0.0 so [0, 1) stays well defined
# under floating point.
WRAP_SNAP = 1e-9

ORTHOGONALITY_TOL = 1e-12


def frac_to_cart(frac: np.ndarray, lattice: np.ndarray) -> np.ndarray:
    """Map fractional coordinates (rows) to Cartesian: ``cart = frac @ L``."""
    return np.asarray(frac, dtype=float) @ np.asarray(lattice, dtype=float)


def cart_to_frac(cart: np.ndarray, lattice: np.ndarray) -> np.ndarray:
    """Inverse of :func:`frac_to_cart`; requires a non-singular lattice."""
    return np.asarray(cart, dtype=float) @ np.linalg.inv(np.asarray(lattice, dtype=float))


def wrap_fractional(frac: np.ndarray) -> np.ndarray:
    """Wrap fractional coordinates into [0, 1) componentwise.

    Output is congruent to the input mod 1.  Values within ``WRAP_SNAP`` of
    1.0 (e.g. ``1 - 1e-16`` produced by wrapping a tiny negative number)
    snap down to 0.0.
    """
    f = np.asarray(frac, dtype=float)
    wrapped = f - np.floor(f)
    wrapped = np.where(1.0 - wrapped < WRAP_SNAP, 0.0, wrapped)
    return wrapped


@dataclass(frozen=True)
class LatticeImage:
    """Integer 3-tuple identifying a periodic copy of an atom."""

    k: tuple[int, int, int]

    def __post_init__(self):
        try:
            k = tuple(operator.index(v) for v in self.k)
        except TypeError:
            k = ()
        if len(k) != 3:
            raise ValueError(f"lattice image must be 3 integers, got {self.k!r}")
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class E3Transform:
    """Rigid transformation: orthogonal ``rotation`` (det +-1) plus ``translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.array(self.rotation, dtype=float)
        b = np.array(self.translation, dtype=float)
        if q.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {q.shape}")
        if b.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {b.shape}")
        err = np.abs(q.T @ q - np.eye(3)).max()
        if err > ORTHOGONALITY_TOL:
            raise ValueError(f"rotation is not orthogonal (|Q^T Q - I| = {err:.3e})")
        q.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", b)


@dataclass(frozen=True)
class Crystal:
    """Unit cell: atomic numbers, Cartesian positions (angstrom), lattice rows."""

    atomic_numbers: np.ndarray
    positions: np.ndarray
    lattice: np.ndarray

    def __post_init__(self):
        z = np.array(self.atomic_numbers, dtype=int)
        p = np.array(self.positions, dtype=float)
        lat = np.array(self.lattice, dtype=float)
        if z.ndim != 1 or z.size < 1:
            raise ValueError("need at least one atom")
        if np.any(z < 1) or np.any(z > 118):
            raise ValueError("atomic numbers must lie in [1, 118]")
        if p.shape != (z.size, 3):
            raise ValueError(f"positions must be ({z.size}, 3), got {p.shape}")
        if lat.shape != (3, 3):
            raise ValueError(f"lattice must be 3x3, got {lat.shape}")
        if not np.isfinite(p).all() or not np.isfinite(lat).all():
            raise ValueError("positions and lattice must be finite")
        if abs(np.linalg.det(lat)) < 1e-12:
            raise ValueError("lattice vectors must be linearly independent")
        for arr in (z, p, lat):
            arr.setflags(write=False)
        object.__setattr__(self, "atomic_numbers", z)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "lattice", lat)

    @property
    def n_atoms(self) -> int:
        return self.atomic_numbers.size

    @property
    def frac_coords(self) -> np.ndarray:
        """Fractional coordinates of the stored positions (not wrapped)."""
        return cart_to_frac(self.positions, self.lattice)

    @property
    def volume(self) -> float:
        return float(abs(np.linalg.det(self.lattice)))


def crystal_from_frac(atomic_numbers, frac_coords, lattice) -> Crystal:
    """Build a crystal from fractional coordinates (wrapped into the cell)."""
    lattice = np.asarray(lattice, dtype=float)
    frac = wrap_fractional(np.asarray(frac_coords, dtype=float))
    return Crystal(
        atomic_numbers=np.asarray(atomic_numbers, dtype=int),
        positions=frac_to_cart(frac, lattice),
        lattice=lattice,
    )


def shift_boundary(crystal: Crystal, corner: np.ndarray) -> Crystal:
    """Redescribe the same infinite crystal in the cell anchored at ``corner``.

    Each atom is replaced by its unique periodic image inside the
    parallelepiped spanned by the lattice vectors at the Cartesian corner
    point.  The lattice and the atom ordering are unchanged; every position
    moves by an integer combination of lattice vectors.  Boundary atoms
    follow the half-open [0, 1) convention.
    """
    corner = np.asarray(corner, dtype=float)
    if corner.shape != (3,):
        raise ValueError("corner must be a 3-vector")
    frac_corner = cart_to_frac(corner, crystal.lattice)
    rel = crystal.frac_coords - frac_corner
    rel_wrapped = wrap_fractional(rel)
    new_frac = frac_corner + rel_wrapped
    return Crystal(
        atomic_numbers=crystal.atomic_numbers,
        positions=frac_to_cart(new_frac, crystal.lattice),
        lattice=crystal.lattice,
    )


def supercell(crystal: Crystal, alpha: tuple[int, int, int]) -> Crystal:
    """Scale the cell by positive integer factors per lattice direction.

    Replicas are laid out in blocks: for each cell offset (j1, j2, j3) in
    lexicographic order, the base atoms appear in their original order, so
    the originating atom of supercell index ``s`` is ``s % n_atoms``.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != 3 or any(a < 1 for a in alpha):
        raise ValueError(f"alpha must be three positive integers, got {alpha}")
    if alpha == (1, 1, 1):
        return crystal
    offsets = np.array(
        [(j1, j2, j3) for j1 in range(alpha[0]) for j2 in range(alpha[1]) for j3 in range(alpha[2])],
        dtype=float,
    )
    shifts = offsets @ crystal.lattice  # (n_cells, 3)
    n_cells = shifts.shape[0]
    n = crystal.n_atoms
    positions = (shifts[:, None, :] + crystal.positions[None, :, :]).reshape(n_cells * n, 3)
    new_lattice = crystal.lattice * np.asarray(alpha, dtype=float)[:, None]
    return Crystal(
        atomic_numbers=np.tile(crystal.atomic_numbers, n_cells),
        positions=positions,
        lattice=new_lattice,
    )


def apply_e3(crystal: Crystal, transform: E3Transform) -> Crystal:
    """Rotate/reflect positions and lattice together, then translate positions."""
    q = transform.rotation
    b = transform.translation
    return Crystal(
        atomic_numbers=crystal.atomic_numbers,
        positions=crystal.positions @ q.T + b,
        lattice=crystal.lattice @ q.T,
    )


def random_orthogonal(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR of a Gaussian matrix; a reflection half the time."""
    g = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if rng.random() < 0.5:
        q = q @ np.diag([1.0, 1.0, -1.0])
    return q
