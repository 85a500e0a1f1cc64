import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matformer import io
from matformer.crystal import Crystal, frac_to_cart, wrap_fractional
from matformer.graphs import KINDS, add_self_connecting_edges, build_radius_graph, build_t_fully_connected
from matformer.synthetic import random_corpus
from oracles import write_targets_csv

# any value json.loads can return, nested
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

# any text, and text drawn mostly from the characters the targets CSV and
# the run config give a meaning to, with and without the CSV header
FORMAT_TEXT = st.text(alphabet='id,target="=#\r\n\x00 .e-+19nax', max_size=60)
ANY_TEXT = st.text() | FORMAT_TEXT | FORMAT_TEXT.map(lambda body: "id,target\n" + body)

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


@st.composite
def _edited_poscars(draw):
    """The rock-salt POSCAR with some lines replaced by text over the
    characters its fields use or by a few of its tokens, then perhaps cut
    or extended."""
    lines = TWO_SPECIES_POSCAR.splitlines()
    tokens = ["0", "1", "2", "-1", "0.5", "1e308", "nan", "inf", "H", "Na", "Cl", "Direct", "Cartesian", "S"]
    field = (st.text(alphabet="0123456789 .-+eEinfaNHCl\tDdCcKkSs", max_size=24)
             | st.lists(st.sampled_from(tokens), max_size=4).map(" ".join))
    for idx in draw(st.sets(st.integers(0, len(lines) - 1), max_size=3)):
        lines[idx] = draw(field)
    kept = draw(st.just(len(lines)) | st.integers(0, len(lines)))
    return "\n".join(lines[:kept] + draw(st.lists(field, max_size=3)))


POSCAR_TEXT = st.text() | _edited_poscars()


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
        assert np.allclose(wrap_fractional(c.frac_coords)[0], [0.25, 0.75, 0.5])

    def test_non_finite_field_is_rejected_naming_its_line(self):
        for idx, line in ((1, "nan"), (3, "0.0 inf 0.0"), (8, "0.0 0.0 -inf")):
            lines = MINIMAL_POSCAR.splitlines()
            lines[idx] = line
            with pytest.raises(io.ParseError, match=rf"^line {idx + 1}: non-finite field"):
                io.parse_poscar("\n".join(lines))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_once_scaled_is_rejected_naming_its_line(self):
        lines = TWO_SPECIES_POSCAR.splitlines()  # scale 2.0
        lines[2] = "1e308 0.0 0.0"
        with pytest.raises(io.ParseError, match=r"^line 3: 1e308 0\.0 0\.0 times the scale factor 2\.0 overflows"):
            io.parse_poscar("\n".join(lines))
        lines = TWO_SPECIES_POSCAR.splitlines()
        lines[7:10] = ["Cartesian", "0.0 0.0 0.0", "0.5 1e308 0.5"]
        with pytest.raises(io.ParseError, match=r"^line 10: .* overflows"):
            io.parse_poscar("\n".join(lines))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cell_out_of_float_range_is_rejected_naming_the_lattice(self):
        huge = MINIMAL_POSCAR.replace("1.0 0.0 0.0\n0.0 1.0 0.0\n0.0 0.0 1.0", "1e200 0 0\n0 1e200 0\n0 0 1e200")
        with pytest.raises(io.ParseError, match=r"^line 3: the lattice on lines 3-5 leaves the float range"):
            io.parse_poscar(huge)

    @settings(max_examples=400, deadline=None)
    @given(POSCAR_TEXT)
    @example(TWO_SPECIES_POSCAR.replace("1.0 0.0 0.0", "1e308 0.0 0.0"))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_any_text_gives_a_crystal_or_value_error(self, text):
        try:
            crystal = io.parse_poscar(text)
        except ValueError:
            return
        assert isinstance(crystal, Crystal)


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

    @pytest.mark.parametrize("text", ["3", "null", "[]", '"crystal"'])
    def test_rejects_non_object(self, text):
        with pytest.raises(ValueError, match="^crystal JSON must be an object, got "):
            io.parse_crystal_json(text)

    def test_rejects_field_that_will_not_convert(self):
        data = io.crystal_to_dict(random_corpus(1, seed=32)[0])
        for key, value in (("atomic_numbers", {"Na": 1}), ("positions", [[0, 0], [1]]), ("lattice", "cubic")):
            with pytest.raises(ValueError, match=f"^crystal JSON field '{key}': "):
                io.crystal_from_dict({**data, key: value})

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([None, "atomic_numbers", "positions", "lattice"]), JSON_VALUES)
    def test_any_json_value_gives_a_crystal_or_value_error(self, key, value):
        data = io.crystal_to_dict(random_corpus(1, seed=33, n_atoms_max=2)[0])
        try:
            assert isinstance(io.crystal_from_dict(value if key is None else {**data, key: value}), Crystal)
        except ValueError:
            pass


class TestGraphSerialization:
    def _graph(self):
        c = io.parse_poscar(MINIMAL_POSCAR)
        return add_self_connecting_edges(build_radius_graph(c), c)

    def test_json_holds_the_edge_columns_bit_for_bit(self):
        c = random_corpus(1, seed=31, n_atoms_max=3)[0]
        for graph in (self._graph(), build_t_fully_connected(c, t=2), add_self_connecting_edges(build_radius_graph(c), c)):
            data = json.loads(io.graph_to_json(graph))
            e = graph.edges
            assert [n["atomic_number"] for n in data["nodes"]] == graph.node_atomic_numbers.tolist()
            got = [(d["src"], d["dst"], d["image"], d["kind"], d["distance"].hex()) for d in data["edges"]]
            assert got == list(zip(e.src.tolist(), e.dst.tolist(), e.image.tolist(), [KINDS[k] for k in e.kind.tolist()],
                                   [x.hex() for x in e.distance.tolist()]))
            assert data["meta"] == json.loads(json.dumps(vars(graph.meta)))  # node_radii as a list

    def test_text_format_shape(self):
        graph = self._graph()
        text = io.graph_to_text(graph)
        lines = text.strip().splitlines()
        assert lines[0].startswith("graph method=radius")
        assert len([l for l in lines if l.startswith("node ")]) == graph.n_nodes
        assert len([l for l in lines if l.startswith("edge ")]) == len(graph.edges)


class TestCsvTables:
    def test_targets_round_trip(self):
        rows = [("a", 1.25), ("b", -0.5)]
        parsed = io.parse_targets_csv(write_targets_csv(rows))
        assert parsed == {"a": 1.25, "b": -0.5}

    def test_duplicate_id_rejected(self):
        text = "id,target\nx,1.0\nx,2.0\n"
        with pytest.raises(io.ParseError, match="duplicate"):
            io.parse_targets_csv(text)

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            io.parse_targets_csv("a,1.0\n")

    def test_line_numbers_count_lines_not_rows(self):
        with pytest.raises(io.ParseError, match=r"^line 4: non-numeric target 'x'$"):
            io.parse_targets_csv('id,target\n"a\nb",1\nc,x\n')

    def test_overlong_field_names_its_line(self):
        with pytest.raises(io.ParseError, match=r"^line 3: field larger than field limit"):
            io.parse_targets_csv("id,target\na,1.0\nb," + "1" * 131073 + "\n")

    @settings(max_examples=300, deadline=None)
    @given(ANY_TEXT)
    def test_any_text_gives_targets_or_value_error(self, text):
        try:
            targets = io.parse_targets_csv(text)
        except ValueError:
            return
        assert all(isinstance(k, str) and isinstance(v, float) for k, v in targets.items())

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

    @settings(max_examples=300, deadline=None)
    @given(ANY_TEXT)
    def test_any_text_gives_a_mapping_or_value_error(self, text):
        try:
            mapping = io.parse_run_config(text)
        except ValueError:
            return
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items())


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
