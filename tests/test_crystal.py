import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matformer.crystal import (
    Crystal,
    E3Transform,
    LatticeImage,
    apply_e3,
    cart_to_frac,
    crystal_from_frac,
    frac_to_cart,
    random_orthogonal,
    shift_boundary,
    supercell,
    wrap_fractional,
)
from oracles import brute_node_distances, distance_multiset

HEX_LATTICE = np.array([[1.0, 0.0, 0.0], [-0.5, np.sqrt(3) / 2, 0.0], [0.0, 0.0, 2.0]])


def cubic_crystal(a=1.0, fracs=((0, 0, 0),), zs=None):
    fracs = np.atleast_2d(fracs)
    zs = zs if zs is not None else [1] * len(fracs)
    return crystal_from_frac(zs, fracs, a * np.eye(3))


def random_valid_crystal(rng, n_atoms=2):
    from matformer.synthetic import random_crystal

    return random_crystal(rng, n_atoms=n_atoms)


class TestCoordinates:
    def test_identity_lattice(self):
        assert np.allclose(frac_to_cart([0.5, 0.5, 0.5], np.eye(3)), [0.5, 0.5, 0.5])

    def test_hexagonal_first_axis(self):
        assert np.allclose(frac_to_cart([1.0, 0.0, 0.0], HEX_LATTICE), [1.0, 0.0, 0.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lattice = rng.uniform(-2, 2, (3, 3))
            if abs(np.linalg.det(lattice)) < 0.1:
                continue
            x = rng.uniform(-3, 3, 3)
            assert np.allclose(cart_to_frac(frac_to_cart(x, lattice), lattice), x, atol=1e-12)


class TestWrapFractional:
    def test_examples(self):
        assert np.allclose(wrap_fractional([1.2, -0.3, 0.5]), [0.2, 0.7, 0.5])
        assert np.allclose(wrap_fractional([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_epsilon_snap(self):
        out = wrap_fractional([-1e-16, 0.999999, 2.0])
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.999999)
        assert out[2] == 0.0

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=200)
    def test_mod_one_equivalence(self, x):
        w = float(wrap_fractional(np.array([x]))[0])
        assert 0.0 <= w < 1.0
        # congruent mod 1 up to the snap tolerance, scaled for float spacing
        delta = (x - w) - round(x - w)
        assert abs(delta) < 1e-9 + 1e-9 * abs(x)


class TestCrystalValidation:
    def test_requires_atoms(self):
        with pytest.raises(ValueError):
            Crystal(np.array([], dtype=int), np.zeros((0, 3)), np.eye(3))

    def test_rejects_singular_lattice(self):
        lattice = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        with pytest.raises(ValueError, match="independent"):
            Crystal(np.array([1]), np.zeros((1, 3)), lattice)

    def test_rejects_bad_atomic_numbers(self):
        with pytest.raises(ValueError):
            Crystal(np.array([0]), np.zeros((1, 3)), np.eye(3))
        with pytest.raises(ValueError):
            Crystal(np.array([119]), np.zeros((1, 3)), np.eye(3))

    def test_wrapped_frac_in_unit_box(self):
        c = cubic_crystal(fracs=[[0.25, 0.5, 0.75]])
        moved = shift_boundary(c, np.array([0.6, 0.6, 0.6]))
        w = wrap_fractional(moved.frac_coords)
        assert np.all(w >= 0.0) and np.all(w < 1.0)


class TestLatticeImage:
    def test_accepts_three_integers(self):
        assert LatticeImage([1, np.int64(-2), 0]).k == (1, -2, 0)

    @pytest.mark.parametrize("k", [(1, 0), (1, 0, 0, 0), (1.0, 0, 0), ("1", 0, 0), 3])
    def test_rejects_anything_else(self, k):
        with pytest.raises(ValueError, match="3 integers"):
            LatticeImage(k)


class TestE3Transform:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            E3Transform(np.eye(3) * 1.001, np.zeros(3))

    def test_accepts_reflection(self):
        t = E3Transform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        assert np.linalg.det(t.rotation) == pytest.approx(-1.0)


class TestShiftBoundary:
    def test_relative_coordinate(self):
        c = cubic_crystal(fracs=[[0.9, 0.0, 0.0]])
        moved = shift_boundary(c, np.array([0.2, 0.0, 0.0]))
        rel = moved.frac_coords[0] - np.array([0.2, 0.0, 0.0])
        assert np.allclose(rel, [0.7, 0.0, 0.0])
        # the atom at 0.9 is already inside the shifted box: position unchanged
        assert np.allclose(moved.positions, c.positions)

    def test_zero_corner_is_identity(self):
        c = cubic_crystal(fracs=[[0.3, 0.6, 0.1]])
        moved = shift_boundary(c, np.zeros(3))
        assert np.allclose(moved.positions, c.positions)

    def test_atom_multiset_preserved(self):
        rng = np.random.default_rng(3)
        c = random_valid_crystal(rng, n_atoms=3)
        moved = shift_boundary(c, rng.uniform(-5, 5, 3))
        key = lambda cr: sorted(
            (int(z), tuple(np.round(f, 8)))
            for z, f in zip(cr.atomic_numbers, wrap_fractional(cr.frac_coords))
        )
        assert key(moved) == key(c)

    def test_distance_multiset_preserved(self):
        rng = np.random.default_rng(4)
        c = cubic_crystal(a=2.0, fracs=[[0.1, 0.2, 0.3], [0.7, 0.8, 0.6]], zs=[6, 8])
        moved = shift_boundary(c, rng.uniform(-2, 2, 3))
        assert np.allclose(distance_multiset(c, 4.0, 3), distance_multiset(moved, 4.0, 3))


class TestSupercell:
    def test_identity_alpha(self):
        c = cubic_crystal()
        assert supercell(c, (1, 1, 1)) is c

    def test_doubling_one_axis(self):
        c = cubic_crystal()
        s = supercell(c, (2, 1, 1))
        assert s.n_atoms == 2
        assert np.allclose(s.lattice[0], [2.0, 0.0, 0.0])
        assert np.allclose(s.lattice[1:], c.lattice[1:])

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            supercell(cubic_crystal(), (0, 1, 1))

    def test_replica_neighborhoods_match(self):
        c = cubic_crystal(a=2.2, fracs=[[0, 0, 0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.6]], zs=[3, 8, 14])
        s = supercell(c, (2, 2, 2))
        assert s.n_atoms == 24
        for node in (0, 7, 13, 23):
            origin = node % 3
            base = [d for d in brute_node_distances(c, origin, 4) if d <= 5.0]
            got = [d for d in brute_node_distances(s, node, 3) if d <= 5.0]
            assert np.allclose(base, got, atol=1e-10)


class TestApplyE3:
    def test_translation_preserves_distances(self):
        c = cubic_crystal(fracs=[[0.1, 0.2, 0.3]])
        moved = apply_e3(c, E3Transform(np.eye(3), np.array([1.0, 2.0, 3.0])))
        assert np.allclose(distance_multiset(c, 2.0, 2), distance_multiset(moved, 2.0, 2))

    def test_quarter_turn(self):
        q = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        c = cubic_crystal(fracs=[[0.2, 0.0, 0.0]])
        moved = apply_e3(c, E3Transform(q, np.zeros(3)))
        assert np.allclose(distance_multiset(c, 2.0, 2), distance_multiset(moved, 2.0, 2))

    def test_random_rigid_maps(self):
        rng = np.random.default_rng(5)
        c = random_valid_crystal(rng, n_atoms=2)
        for _ in range(5):
            t = E3Transform(random_orthogonal(rng), rng.uniform(-4, 4, 3))
            moved = apply_e3(c, t)
            assert np.allclose(
                distance_multiset(c, 6.0, 3), distance_multiset(moved, 6.0, 3), atol=1e-10
            )
            assert abs(abs(np.linalg.det(moved.lattice)) - abs(np.linalg.det(c.lattice))) < 1e-9
            gram_before = c.lattice @ c.lattice.T
            gram_after = moved.lattice @ moved.lattice.T
            assert np.abs(gram_before - gram_after).max() < 1e-10
