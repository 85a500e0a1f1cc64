import json
import os
import tracemalloc

import numpy as np
import pytest

from matformer import io
from matformer.crystal import frac_to_cart
from matformer.graphs import add_self_connecting_edges, build_radius_graph
from matformer.synthetic import random_corpus

MINIMAL_POSCAR = """hydrogen cube
1.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
H
1
Direct
0.0 0.0 0.0
"""

TWO_SPECIES_POSCAR = """rock salt fragment
2.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
Na Cl
1 1
Direct
0.0 0.0 0.0
0.5 0.5 0.5
"""


class TestParsePoscar:
    def test_minimal_cube(self):
        c = io.parse_poscar(MINIMAL_POSCAR)
        assert c.n_atoms == 1
        assert c.atomic_numbers[0] == 1
        assert np.allclose(c.lattice, np.eye(3))

    def test_scale_factor_scales_lattice_and_direct_positions(self):
        c = io.parse_poscar(TWO_SPECIES_POSCAR)
        assert np.allclose(c.lattice, 2.0 * np.eye(3))
        expected = frac_to_cart(np.array([[0, 0, 0], [0.5, 0.5, 0.5]]), c.lattice)
        assert np.allclose(c.positions, expected)
        assert list(c.atomic_numbers) == [11, 17]

    def test_cartesian_mode(self):
        lines = MINIMAL_POSCAR.splitlines()
        lines[7] = "Cartesian"
        lines[8] = "0.25 0.25 0.25"
        c = io.parse_poscar("\n".join(lines))
        assert np.allclose(c.positions[0], [0.25, 0.25, 0.25])

    def test_cartesian_mode_applies_scale(self):
        lines = TWO_SPECIES_POSCAR.splitlines()
        lines[7] = "Cartesian"
        lines[8] = "0.1 0.2 0.3"
        lines[9] = "1.0 1.0 1.0"
        c = io.parse_poscar("\n".join(lines))
        assert np.allclose(c.positions[0], [0.2, 0.4, 0.6])

    def test_negative_scale_rejected(self):
        bad = MINIMAL_POSCAR.replace("1.0\n1.0 0.0", "-1.0\n1.0 0.0")
        with pytest.raises(io.ParseError, match="line 2"):
            io.parse_poscar(bad)

    def test_selective_dynamics_rejected(self):
        lines = MINIMAL_POSCAR.splitlines()
        lines.insert(7, "Selective dynamics")
        with pytest.raises(io.ParseError, match="line 8"):
            io.parse_poscar("\n".join(lines))

    def test_unknown_element(self):
        with pytest.raises(io.ParseError, match="line 6"):
            io.parse_poscar(MINIMAL_POSCAR.replace("\nH\n", "\nXx\n"))

    def test_malformed_counts(self):
        with pytest.raises(io.ParseError, match="line 7"):
            io.parse_poscar(MINIMAL_POSCAR.replace("\n1\nDirect", "\none\nDirect"))

    def test_count_species_mismatch(self):
        with pytest.raises(io.ParseError, match="line 7"):
            io.parse_poscar(MINIMAL_POSCAR.replace("\n1\nDirect", "\n1 2\nDirect"))

    def test_missing_mode_keyword(self):
        with pytest.raises(io.ParseError, match="line 8"):
            io.parse_poscar(MINIMAL_POSCAR.replace("Direct", "w 0 0"))

    def test_non_numeric_coordinates(self):
        with pytest.raises(io.ParseError, match="line 9"):
            io.parse_poscar(MINIMAL_POSCAR.replace("0.0 0.0 0.0", "a b c"))

    def test_truncated_file(self):
        with pytest.raises(io.ParseError):
            io.parse_poscar("comment\n1.0\n1 0 0\n")

    def test_positions_wrapped(self):
        text = MINIMAL_POSCAR.replace("0.0 0.0 0.0", "1.25 -0.25 0.5")
        c = io.parse_poscar(text)
        assert np.allclose(c.wrapped_frac_coords[0], [0.25, 0.75, 0.5])


class TestCrystalJson:
    def test_round_trip_exact(self):
        for crystal in random_corpus(20, seed=30):
            text = io.write_crystal_json(crystal)
            back = io.parse_crystal_json(text)
            assert np.array_equal(back.positions, crystal.positions)
            assert np.array_equal(back.lattice, crystal.lattice)
            assert np.array_equal(back.atomic_numbers, crystal.atomic_numbers)

    def test_rejects_empty_atom_list(self):
        with pytest.raises(ValueError):
            io.parse_crystal_json(json.dumps({"atomic_numbers": [], "positions": [], "lattice": np.eye(3).tolist()}))

    def test_rejects_singular_lattice(self):
        payload = {
            "atomic_numbers": [1],
            "positions": [[0, 0, 0]],
            "lattice": [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
        }
        with pytest.raises(ValueError, match="independent"):
            io.parse_crystal_json(json.dumps(payload))

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing"):
            io.parse_crystal_json(json.dumps({"positions": []}))

    def test_rejects_malformed_json(self):
        with pytest.raises(ValueError, match="invalid"):
            io.parse_crystal_json("{not json")


class TestGraphSerialization:
    def _graph(self):
        c = io.parse_poscar(MINIMAL_POSCAR)
        return add_self_connecting_edges(build_radius_graph(c), c), c

    def test_json_round_trip(self):
        graph, _ = self._graph()
        back = io.graph_from_dict(json.loads(io.graph_to_json(graph)))
        assert back.n_nodes == graph.n_nodes
        assert len(back.edges) == len(graph.edges)
        for a, b in zip(graph.edges, back.edges):
            assert (a.src, a.dst, a.image.k, a.kind) == (b.src, b.dst, b.image.k, b.kind)
            assert a.distance == b.distance
        assert back.meta.method == "radius"
        assert back.meta.node_radii == graph.meta.node_radii

    def test_rejects_image_of_two_components(self):
        data = json.loads(io.graph_to_json(self._graph()[0]))
        data["edges"][3]["image"] = [1, 0]
        with pytest.raises(ValueError, match=r"edge 3: lattice image must be 3 integers"):
            io.graph_from_dict(data)

    def test_rejects_unknown_edge_kind(self):
        data = json.loads(io.graph_to_json(self._graph()[0]))
        data["edges"][5]["kind"] = "bogus"
        with pytest.raises(ValueError, match=r"edge 5: unknown kind 'bogus'"):
            io.graph_from_dict(data)

    @pytest.mark.parametrize("distance", [float("nan"), float("inf"), -1.5])
    def test_rejects_non_finite_or_negative_distance(self, distance):
        data = json.loads(io.graph_to_json(self._graph()[0]))
        data["edges"][4]["distance"] = distance
        with pytest.raises(ValueError, match=r"edge 4: distance .* is not a finite non-negative number"):
            io.graph_from_dict(data)

    def test_rejects_edge_to_missing_node(self):
        data = json.loads(io.graph_to_json(self._graph()[0]))
        data["edges"][2]["dst"] = len(data["nodes"])
        with pytest.raises(ValueError, match=r"edge 2: node index out of range"):
            io.graph_from_dict(data)

    def test_rejects_node_without_atomic_number(self):
        data = json.loads(io.graph_to_json(self._graph()[0]))
        del data["nodes"][0]["atomic_number"]
        with pytest.raises(ValueError, match="atomic_number"):
            io.graph_from_dict(data)

    def test_rejects_atomic_number_out_of_range(self):
        for z in (0, -1, 119):
            data = json.loads(io.graph_to_json(self._graph()[0]))
            data["nodes"].append({"atomic_number": z})
            with pytest.raises(ValueError, match=rf"node 1: atomic number {z} outside \[1, 118\]"):
                io.graph_from_dict(data)

    def test_rejects_missing_meta(self):
        data = json.loads(io.graph_to_json(self._graph()[0]))
        del data["meta"]["method"]
        with pytest.raises(ValueError, match="meta missing field 'method'"):
            io.graph_from_dict(data)
        del data["meta"]
        with pytest.raises(ValueError, match="missing field 'meta'"):
            io.graph_from_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("edges"), "graph JSON missing field 'edges'"),
        (lambda d: d.pop("nodes"), "graph JSON missing field 'nodes'"),
        (lambda d: d["meta"].pop("method"), "graph JSON meta missing field 'method'"),
        (lambda d: d["nodes"][0].update(atomic_number="C"), "graph JSON nodes need an integer 'atomic_number' each"),
        (lambda d: d["nodes"][0].update(atomic_number=0), "graph JSON node 0: atomic number 0 outside [1, 118]"),
        (lambda d: d["edges"][2].pop("src"), "graph JSON edge 2: missing field 'src'"),
        (lambda d: d["edges"][2].pop("image"), "graph JSON edge 2: missing field 'image'"),
        (lambda d: d["edges"][2].update(src="x"), "graph JSON edge 2: invalid literal for int() with base 10: 'x'"),
        (lambda d: d["edges"][2].update(kind="bogus"), "graph JSON edge 2: unknown kind 'bogus'"),
        (lambda d: d["edges"][2].update(src=-1), "graph JSON edge 2: node index out of range for 1 nodes"),
        (lambda d: d["edges"][2].update(distance=-1.5),
         "graph JSON edge 2: distance -1.5 is not a finite non-negative number"),
        (lambda d: d["edges"][2].update(image=[1, 0]), "graph JSON edge 2: lattice image must be 3 integers, got [1, 0]"),
        (lambda d: d["edges"][2].update(image=[1, 0, 0.5]),
         "graph JSON edge 2: lattice image must be 3 integers, got [1, 0, 0.5]"),
    ])
    def test_every_rejection_message(self, edit, message):
        data = json.loads(io.graph_to_json(self._graph()[0]))
        edit(data)
        with pytest.raises(ValueError) as err:
            io.graph_from_dict(data)
        assert str(err.value) == message

    def test_text_format_shape(self):
        graph, _ = self._graph()
        text = io.graph_to_text(graph)
        lines = text.strip().splitlines()
        assert lines[0].startswith("graph method=radius")
        assert len([l for l in lines if l.startswith("node ")]) == graph.n_nodes
        assert len([l for l in lines if l.startswith("edge ")]) == len(graph.edges)


class TestCsvTables:
    def test_targets_round_trip(self):
        rows = [("a", 1.25), ("b", -0.5)]
        parsed = io.parse_targets_csv(io.write_targets_csv(rows))
        assert parsed == {"a": 1.25, "b": -0.5}

    def test_duplicate_id_rejected(self):
        text = "id,target\nx,1.0\nx,2.0\n"
        with pytest.raises(io.ParseError, match="duplicate"):
            io.parse_targets_csv(text)

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            io.parse_targets_csv("a,1.0\n")

    def test_predictions_have_abs_err(self):
        text = io.write_predictions_csv([("a", 1.5, 1.0)])
        line = text.strip().splitlines()[1].split(",")
        assert float(line[3]) == 0.5

    def test_training_log_columns(self):
        row = {"epoch": 0, "lr": 1e-3, "train_loss": 0.5, "val_mae": 0.4, "ewt_0.01": 0.1, "ewt_0.02": 0.2}
        text = io.write_training_log_csv([row])
        assert text.splitlines()[0] == "epoch,lr,train_loss,val_mae,ewt_0.01,ewt_0.02"


class TestRunConfig:
    def test_parse_with_comments(self):
        text = "# run settings\ntrain.lr_max = 0.001\nmodel.d_model=64\n\n"
        assert io.parse_run_config(text) == {"train.lr_max": "0.001", "model.d_model": "64"}

    def test_rejects_bare_lines(self):
        with pytest.raises(io.ParseError, match="key=value"):
            io.parse_run_config("lr 0.001\n")

    def test_rejects_duplicate_keys(self):
        text = "train.epochs=2\n# again\ntrain.epochs = 3\n"
        with pytest.raises(io.ParseError, match=r"line 3: duplicate key 'train.epochs', first set on line 1"):
            io.parse_run_config(text)


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        io.atomic_write(str(path), "payload")
        assert path.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_overwrites(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        io.atomic_write(str(path), "new")
        assert path.read_text() == "new"

    def test_text_longer_than_a_slice_keeps_every_byte(self, tmp_path):
        path = tmp_path / "out.txt"
        text = "αβγ,€\n" * 300_000  # 1.8 M characters, multibyte in UTF-8
        io.atomic_write(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_large_text_is_encoded_a_slice_at_a_time(self, tmp_path):
        path = tmp_path / "out.txt"
        text = "0123456789abcde\n" * (1 << 21)  # 32 MiB
        tracemalloc.start()
        try:
            io.atomic_write(str(path), text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == text.encode("utf-8")
        assert peak < 8 * 2**20, f"writing 32 MiB of text peaked at {peak / 2**20:.1f} MiB"


class TestDatasetRecord:
    def test_rejects_non_finite_target(self):
        c = io.parse_poscar(MINIMAL_POSCAR)
        with pytest.raises(ValueError, match="non-finite"):
            io.DatasetRecord(id="x", crystal=c, target=float("nan"))
