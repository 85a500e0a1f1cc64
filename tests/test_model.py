import base64
import dataclasses
import hashlib
import json
import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matformer import engine
from matformer.crystal import (E3Transform, apply_e3, crystal_from_frac, random_orthogonal, shift_boundary, supercell,
                               wrap_fractional)
from matformer.engine import Tensor, backward
from matformer.featurize import batch_prepared
from matformer.model import ATTENTION_VARIANTS, Matformer, MatformerLayer, ModelConfig, attention_gate
from matformer.synthetic import random_corpus, random_crystal
from oracles import composed_aggregate_messages, finite_difference_gradients, max_relative_error
from test_golden import CASES as GOLDEN_CASES
from test_golden import CONFIG as GOLDEN_CONFIG
from test_io import JSON_VALUES

SMALL = ModelConfig(n_layers=2, n_heads=2, d_model=8, rbf_kernels=8, readout_hidden=8)
COMPACT = ModelConfig(n_layers=2, n_heads=2, d_model=16, rbf_kernels=16)


def cubic(a=1.0, fracs=((0, 0, 0),), zs=None):
    fracs = np.atleast_2d(fracs)
    zs = zs if zs is not None else [1] * len(fracs)
    return crystal_from_frac(zs, fracs, a * np.eye(3))


def zero_all(model):
    for p in model.parameters().values():
        p.values = np.zeros_like(p.values)


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.n_layers, cfg.n_heads, cfg.d_model) == (5, 4, 128)
        assert cfg.attention_variant == "sigmoid_norm"

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(n_layers=0)
        with pytest.raises(ValueError):
            ModelConfig(d_model=1)
        with pytest.raises(ValueError):
            ModelConfig(attention_variant="softmax")

    @pytest.mark.parametrize("field, value", [("neighbor_rank", 0), ("readout_hidden", 0), ("rbf_kernels", 1),
                                              ("rbf_hi", 0.0), ("rbf_hi", -1.0)])
    def test_degenerate_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})


class TestZeroParameters:
    def test_prediction_is_zero(self):
        model = Matformer(SMALL, seed=0)
        zero_all(model)
        crystal = cubic()
        assert model.predict(crystal) == 0.0

    def test_layer_output_is_zero(self):
        model = Matformer(SMALL, seed=0)
        zero_all(model)
        prepared = model.prepare(cubic())
        node = model.embedding.node_input(prepared)
        edge = model.embedding.edge_input(prepared)
        out = model.layers[0].forward(node, edge, prepared.src, prepared.dst, training=False)
        assert np.array_equal(out.values, np.zeros_like(out.values))


class TestHandTrace:
    """Single node, single self-edge, d_model=2, one head, eval-mode BN."""

    EXPECTED = np.array([[-0.04801987484668071, 0.37318930839644155]])

    def test_layer_matches_straight_line_trace(self):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_model=2, rbf_kernels=4, readout_hidden=2)
        layer = MatformerLayer(cfg, np.random.default_rng(0))
        head = {key.removeprefix("head0."): t for key, t in layer.params.items() if key.startswith("head0.")}
        head["q_w"].values = np.array([[0.5, -0.3], [0.2, 0.4]])
        head["q_b"].values = np.array([0.1, -0.1])
        head["k_w"].values = np.array([[-0.2, 0.6], [0.3, 0.1]])
        head["k_b"].values = np.array([0.05, 0.2])
        head["v_w"].values = np.array([[0.4, 0.2], [-0.1, 0.3]])
        head["v_b"].values = np.array([0.0, 0.1])
        head["e_w"].values = np.array([[0.3, -0.2], [0.1, 0.5]])
        head["e_b"].values = np.array([-0.05, 0.15])
        head["upd_w"].values = np.array(
            [[0.2, -0.1], [0.3, 0.4], [-0.2, 0.1], [0.5, -0.3], [0.1, 0.2], [-0.4, 0.3]]
        )
        head["upd_b"].values = np.array([0.02, -0.03])
        head["msg_w"].values = np.array([[0.6, -0.2], [0.1, 0.7]])
        head["msg_b"].values = np.array([0.0, 0.05])
        layer.params["alpha_ln.gain"].values = np.array([1.0, 0.9, 1.1, 0.8, 1.2, 1.0])
        layer.params["alpha_ln.bias"].values = np.array([0.0, 0.1, -0.1, 0.05, 0.0, -0.05])
        layer.params["msg_ln.gain"].values = np.array([1.05, 0.95])
        layer.params["msg_ln.bias"].values = np.array([0.02, -0.02])
        layer.params["merge.w"].values = np.array([[0.8, 0.1], [-0.2, 0.9]])
        layer.params["merge.b"].values = np.array([0.01, 0.02])
        layer.params["fea.w"].values = np.array([[0.7, 0.2], [0.1, 0.6]])
        layer.params["fea.b"].values = np.array([0.03, -0.01])
        layer.params["bn.gamma"].values = np.array([1.1, 0.9])
        layer.params["bn.beta"].values = np.array([0.05, -0.05])
        layer.bn_state.running_mean = np.array([0.01, -0.02])
        layer.bn_state.running_var = np.array([1.1, 0.9])

        f = Tensor(np.array([[0.3, -0.2]]))
        e = Tensor(np.array([[0.5, 0.1]]))
        out = layer.forward(f, e, np.array([0]), np.array([0]), training=False)

        # independent straight-line recomputation
        fn, en = f.values, e.values
        q = fn @ head["q_w"].values + head["q_b"].values
        k = fn @ head["k_w"].values + head["k_b"].values
        v = fn @ head["v_w"].values + head["v_b"].values
        ep = en @ head["e_w"].values + head["e_b"].values

        def ln(x, gain, bias):
            mu = x.mean(-1, keepdims=True)
            var = x.var(-1, keepdims=True)
            return (x - mu) / np.sqrt(var + 1e-5) * gain + bias

        sig = lambda x: 1.0 / (1.0 + np.exp(-x))
        alpha = np.concatenate([q, q, q], 1) * np.concatenate([k, k, ep], 1) / np.sqrt(6.0)
        gate = sig(ln(alpha, layer.params["alpha_ln.gain"].values, layer.params["alpha_ln.bias"].values))
        gated = gate * np.concatenate([v, v, ep], 1)
        m = gated @ head["upd_w"].values + head["upd_b"].values
        m = ln(m @ head["msg_w"].values + head["msg_b"].values,
               layer.params["msg_ln.gain"].values, layer.params["msg_ln.bias"].values)
        merged = m @ layer.params["merge.w"].values + layer.params["merge.b"].values
        bn = (merged - layer.bn_state.running_mean) / np.sqrt(layer.bn_state.running_var + 1e-5)
        bn = bn * layer.params["bn.gamma"].values + layer.params["bn.beta"].values
        expected = fn @ layer.params["fea.w"].values + layer.params["fea.b"].values + bn * sig(bn)

        assert np.allclose(out.values, expected, atol=1e-12)
        assert np.allclose(out.values, self.EXPECTED, atol=1e-9)


class TestAttentionGates:
    def test_softmax_scalar_singleton(self):
        alpha = Tensor(np.array([[0.7, -0.3, 0.2]]))
        gate = attention_gate(alpha, np.array([0]), 1, "softmax_scalar")
        assert gate.values == pytest.approx(1.0)

    def test_softmax_scalar_equal_pair(self):
        alpha = Tensor(np.array([[0.4, 0.4, 0.4], [0.4, 0.4, 0.4]]))
        gate = attention_gate(alpha, np.array([0, 0]), 1, "softmax_scalar")
        assert np.allclose(gate.values, 0.5)

    def test_sigmoid_norm_of_zero(self):
        # zero coefficients normalize to zero, so every gate is sigmoid(0) = 0.5
        src, dst = np.array([1, 0, 1]), np.array([0, 0, 1])
        v = np.random.default_rng(0).standard_normal((2, 2))
        zeros = Tensor(np.zeros((2, 2)))
        message = engine.sigmoid_norm_message(zeros, zeros, Tensor(v), Tensor(np.zeros((3, 2))), Tensor(np.ones(6)),
                                              Tensor(np.zeros(6)), Tensor(np.eye(6)), src, dst)
        pair = np.concatenate([v[dst], v[src], np.zeros((3, 2))], axis=1)
        assert np.array_equal(message.values, 0.5 * pair)

    def test_softmax_vector_normalizes(self):
        alpha = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        gate = attention_gate(alpha, np.array([0, 0, 1, 1]), 2, "softmax_vector")
        assert np.allclose(gate.values[:2].sum(axis=0), 1.0)
        assert np.allclose(gate.values[2:].sum(axis=0), 1.0)

    def test_sigmoid_norm_requires_params(self):
        # layer-norm gain and bias of width 3d = 6
        zeros = Tensor(np.zeros((2, 2)))
        for gain, bias in ((None, np.zeros(6)), (np.ones(6), None), (np.ones(9), np.zeros(9))):
            with pytest.raises(ValueError, match=r"gain and bias of shape \(6,\)"):
                engine.sigmoid_norm_message(zeros, zeros, zeros, zeros, gain, bias, Tensor(np.eye(6)),
                                            np.array([0, 1]), np.array([1, 0]))

    def test_the_gate_alone_has_only_softmax_variants(self):
        with pytest.raises(ValueError, match="no 'sigmoid_norm' variant"):
            attention_gate(Tensor(np.zeros((2, 6))), np.array([0, 0]), 1, "sigmoid_norm")


class TestDegreeSensitivity:
    def _setup(self, variant):
        cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, rbf_kernels=8,
                          readout_hidden=8, attention_variant=variant)
        model = Matformer(cfg, seed=5)
        prepared = model.prepare(cubic())
        return model, prepared

    def test_duplicate_edges_double_the_aggregate(self):
        model, prepared = self._setup("sigmoid_norm")
        layer = model.layers[0]
        layer.params["merge.b"].values = np.zeros_like(layer.params["merge.b"].values)  # keep the map linear
        node = model.embedding.node_input(prepared)
        edge = model.embedding.edge_input(prepared)
        single = layer.aggregate_messages(node, edge, prepared.src, prepared.dst)
        dup_edge = engine.concat([edge, edge], axis=0)
        src2 = np.concatenate([prepared.src, prepared.src])
        dst2 = np.concatenate([prepared.dst, prepared.dst])
        doubled = layer.aggregate_messages(node, dup_edge, src2, dst2)
        assert np.allclose(doubled.values, 2.0 * single.values, atol=1e-12)

    def test_default_variant_sees_degree(self):
        model, prepared = self._setup("sigmoid_norm")
        base = model.forward(prepared).values[0, 0]
        dup = batch_prepared([prepared])
        dup.distance = np.concatenate([prepared.distance, prepared.distance])
        dup.src = np.concatenate([prepared.src, prepared.src])
        dup.dst = np.concatenate([prepared.dst, prepared.dst])
        doubled = model.forward(dup).values[0, 0]
        assert abs(doubled - base) > 1e-3

    @staticmethod
    def _gated_attention_aggregate(layer, node_vals, edge_vals, src, dst, n_nodes, variant):
        """Per-head attention output sum_j gate o (v_i|v_j|e'), plain numpy."""
        head = {key.removeprefix("head0."): t for key, t in layer.params.items() if key.startswith("head0.")}
        q = node_vals @ head["q_w"].values + head["q_b"].values
        k = node_vals @ head["k_w"].values + head["k_b"].values
        v = node_vals @ head["v_w"].values + head["v_b"].values
        e = edge_vals @ head["e_w"].values + head["e_b"].values
        d_k = 3 * layer.config.d_model
        alpha = np.concatenate([q[dst]] * 3, 1) * np.concatenate([k[dst], k[src], e], 1) / np.sqrt(d_k)
        if variant == "softmax_vector":
            mx = np.full((n_nodes, alpha.shape[1]), -np.inf)
            np.maximum.at(mx, dst, alpha)
            z = np.exp(alpha - mx[dst])
            denom = np.zeros_like(mx)
            np.add.at(denom, dst, z)
            gate = z / denom[dst]
        else:
            mu = alpha.mean(-1, keepdims=True)
            var = alpha.var(-1, keepdims=True)
            ln = (alpha - mu) / np.sqrt(var + 1e-5)
            ln = ln * layer.params["alpha_ln.gain"].values + layer.params["alpha_ln.bias"].values
            gate = 1.0 / (1.0 + np.exp(-ln))
        gated = gate * np.concatenate([v[dst], v[src], e], 1)
        out = np.zeros((n_nodes, gated.shape[1]))
        np.add.at(out, dst, gated)
        return out

    def test_softmax_vector_attention_ignores_duplication(self):
        # the renormalizing gate splits weight across duplicates, so the
        # attention output (the quantity the softmax-omission argument is
        # about) is exactly multiplicity-blind
        model, prepared = self._setup("softmax_vector")
        layer = model.layers[0]
        node = model.embedding.node_input(prepared).values
        edge = model.embedding.edge_input(prepared).values
        base = self._gated_attention_aggregate(
            layer, node, edge, prepared.src, prepared.dst, 1, "softmax_vector"
        )
        dup = self._gated_attention_aggregate(
            layer,
            node,
            np.concatenate([edge, edge]),
            np.concatenate([prepared.src, prepared.src]),
            np.concatenate([prepared.dst, prepared.dst]),
            1,
            "softmax_vector",
        )
        assert np.abs(dup - base).max() < 1e-12

    def test_sigmoid_attention_doubles_under_duplication(self):
        model, prepared = self._setup("sigmoid_norm")
        layer = model.layers[0]
        node = model.embedding.node_input(prepared).values
        edge = model.embedding.edge_input(prepared).values
        base = self._gated_attention_aggregate(
            layer, node, edge, prepared.src, prepared.dst, 1, "sigmoid_norm"
        )
        dup = self._gated_attention_aggregate(
            layer,
            node,
            np.concatenate([edge, edge]),
            np.concatenate([prepared.src, prepared.src]),
            np.concatenate([prepared.dst, prepared.dst]),
            1,
            "sigmoid_norm",
        )
        assert np.abs(dup - 2.0 * base).max() < 1e-12


class TestModelInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        crystal = random_crystal(rng, n_atoms=4)
        model = Matformer(SMALL, seed=1)
        base = model.predict(crystal)
        perm = rng.permutation(4)
        permuted = crystal_from_frac(
            crystal.atomic_numbers[perm],
            wrap_fractional(crystal.frac_coords)[perm],
            crystal.lattice,
        )
        assert abs(model.predict(permuted) - base) < 1e-9

    def test_shift_and_e3_invariance(self):
        rng = np.random.default_rng(8)
        crystal = random_crystal(rng, n_atoms=3)
        model = Matformer(SMALL, seed=2)
        base = model.predict(crystal)
        shifted = shift_boundary(crystal, rng.uniform(-3, 3, 3))
        assert abs(model.predict(shifted) - base) < 1e-6
        moved = apply_e3(crystal, E3Transform(random_orthogonal(rng), rng.uniform(-2, 2, 3)))
        assert abs(model.predict(moved) - base) < 1e-6

    def test_supercell_invariance_without_self_edges(self):
        rng = np.random.default_rng(9)
        crystal = random_crystal(rng, n_atoms=2)
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, rbf_kernels=8,
                          readout_hidden=8, use_self_edges=False)
        model = Matformer(cfg, seed=3)
        base = model.predict(crystal)
        assert abs(model.predict(supercell(crystal, (2, 2, 2))) - base) < 1e-5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_atom_order_moves_predictions_by_at_most_1e_12(self, seed):
        rng = np.random.default_rng(seed)
        crystal = random_crystal(rng, n_atoms=int(rng.integers(2, 9)))
        perm = rng.permutation(crystal.n_atoms)
        permuted = crystal_from_frac(crystal.atomic_numbers[perm], crystal.frac_coords[perm], crystal.lattice)
        model = Matformer(COMPACT, seed=seed % 7)
        assert abs(model.predict(permuted) - model.predict(crystal)) <= 1e-12

    @pytest.mark.parametrize("variant", ATTENTION_VARIANTS)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_batched_predictions_match_single_ones_within_1e_12(self, variant, seed, size):
        # not bit for bit: a batch's matmuls and batch-norm rows are larger
        rng = np.random.default_rng(seed)
        crystals = [random_crystal(rng, n_atoms=int(rng.integers(1, 6))) for _ in range(size)]
        model = Matformer(dataclasses.replace(COMPACT, attention_variant=variant), seed=seed % 7)
        with engine.no_grad():
            batched = model.forward(batch_prepared([model.prepare(c) for c in crystals])).values[:, 0]
        alone = np.array([model.predict(c) for c in crystals])
        assert np.abs(batched - alone).max() <= 1e-12

    def test_default_size_invariance_spot_check(self):
        rng = np.random.default_rng(10)
        crystal = random_crystal(rng, n_atoms=2)
        model = Matformer(ModelConfig(n_layers=2), seed=4)  # default widths, fewer layers
        base = model.predict(crystal)
        shifted = shift_boundary(crystal, rng.uniform(-2, 2, 3))
        assert abs(model.predict(shifted) - base) < 1e-6


def chain(a, b):
    """One atom per cell of the lattice diag(a, b, b): a chain along x."""
    return crystal_from_frac([6], [[0.0, 0.0, 0.0]], np.diag([a, b, b]))


class TestSelfEdgeBlindSpot:
    """A known gap: a self edge longer than ``rbf_hi`` (8 A) expands to
    about e^-88 on every kernel, so the model cannot see it."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_self_edges_beyond_rbf_hi_are_invisible(self, seed):
        model = Matformer(COMPACT, seed=seed)
        # every self edge the radius graph does not already cover is 13 A or longer
        assert model.predict(chain(2.0, 13.0)) == model.predict(chain(2.0, 15.0))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_self_edges_within_rbf_hi_are_seen(self, seed):
        model = Matformer(COMPACT, seed=seed)
        assert model.predict(chain(1.0, 6.5)) != model.predict(chain(1.0, 7.5))


class TestErrors:
    def test_isolated_node_rejected(self):
        model = Matformer(SMALL, seed=0)
        prepared = model.prepare(cubic(a=1.0, fracs=[[0, 0, 0], [0.5, 0.5, 0.5]], zs=[1, 3]))
        prepared.dst = np.where(prepared.dst == 1, 0, prepared.dst)  # orphan node 1
        with pytest.raises(ValueError, match="isolated"):
            model.forward(prepared)


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(11)
        crystal = random_crystal(rng, n_atoms=2)
        model = Matformer(SMALL, seed=6)
        # move BN stats off their init to make the round trip meaningful
        prepared = model.prepare(crystal)
        model.forward(prepared, training=True)
        base = model.predict(crystal)
        clone = Matformer.from_checkpoint(model.to_checkpoint())
        assert clone.predict(crystal) == base

    def test_loading_draws_no_initialisation(self, monkeypatch):
        data = Matformer(SMALL, seed=6).to_checkpoint()

        def no_generator(*args):
            raise AssertionError("from_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        clone = Matformer.from_checkpoint(data)
        assert clone.to_checkpoint()["params"] == data["params"]

    @pytest.mark.parametrize("change", [-1, 1])
    def test_wrong_bn_state_count_rejected(self, change):
        data = Matformer(SMALL, seed=6).to_checkpoint()
        states = data["bn_states"]
        data["bn_states"] = states[:change] if change < 0 else states + states[:change]
        with pytest.raises(ValueError, match="batch-norm states"):
            Matformer.from_checkpoint(data)

    def test_unknown_config_keys_rejected(self):
        data = Matformer(SMALL, seed=6).to_checkpoint()
        data["config"].update(n_layer=3, dropout=0.1)
        with pytest.raises(ValueError, match=r"unknown keys: \['dropout', 'n_layer'\]"):
            Matformer.from_checkpoint(data)


CHECKPOINT_V1 = os.path.join(os.path.dirname(__file__), "checkpoint_v1.json")


def v1_crystal():
    lattice = np.array([[3.1, 0.2, 0.0], [0.1, 2.9, 0.3], [0.0, 0.4, 3.3]])
    return crystal_from_frac([3, 8], [[0.0, 0.0, 0.0], [0.45, 0.52, 0.48]], lattice)


class TestCheckpointFormat:
    def test_version_1_file_predicts_as_when_written(self):
        # written by the decimal-list (version 1) code after one training-mode
        # forward on v1_crystal(); the prediction is the one recorded then
        with open(CHECKPOINT_V1, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert "format_version" not in data and "values" in data["params"]["readout.w1"]
        model = Matformer.from_checkpoint(data)
        assert model.predict(v1_crystal()) == float.fromhex("-0x1.88108dd728bd4p-1")

    def test_version_2_stores_little_endian_f8_bytes(self):
        model = Matformer(SMALL, seed=6)
        data = model.to_checkpoint()
        assert data["format_version"] == 2
        entry = data["params"]["readout.w1"]
        assert entry["shape"] == [8, 8]
        assert base64.b64decode(entry["data"]) == model.readout["w1"].values.astype("<f8").tobytes()

    def test_fresh_checkpoint_bytes_are_pinned(self):
        # one digest over the parameter names, their order and the draws that
        # initialise them, as the file writes them
        text = json.dumps(Matformer(SMALL, seed=3).to_checkpoint())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f6bc00b2ec0f64e164d45e852cd1a3b01d4df1114d6e65d98ecf85f1dfc65f19")

    def test_moved_batch_norm_statistics_survive_exactly(self):
        model = Matformer(SMALL, seed=6)
        model.forward(model.prepare(v1_crystal()), training=True)
        fresh = engine.BatchNormState.create(SMALL.d_model)
        for layer in model.layers:
            assert not np.array_equal(layer.bn_state.running_mean, fresh.running_mean)
            assert not np.array_equal(layer.bn_state.running_var, fresh.running_var)
        clone = Matformer.from_checkpoint(json.loads(json.dumps(model.to_checkpoint())))
        for a, b in zip(model.layers, clone.layers):
            assert np.array_equal(a.bn_state.running_mean, b.bn_state.running_mean)
            assert np.array_equal(a.bn_state.running_var, b.bn_state.running_var)
            assert (a.bn_state.momentum, a.bn_state.num_batches) == (b.bn_state.momentum, b.bn_state.num_batches)

    @pytest.mark.parametrize("version", [3, 0, "2", None], ids=["3", "0", "string-2", "null"])
    def test_unknown_version_rejected(self, version):
        data = Matformer(SMALL, seed=6).to_checkpoint()
        data["format_version"] = version
        with pytest.raises(ValueError, match=rf"unsupported checkpoint format_version {version!r}"):
            Matformer.from_checkpoint(data)

    def test_empty_object_names_missing_field(self):
        with pytest.raises(ValueError, match=r"missing field\(s\) \['config', 'params', 'bn_states'\]"):
            Matformer.from_checkpoint({})

    def test_config_only_names_missing_fields(self):
        with pytest.raises(ValueError, match=r"missing field\(s\) \['params', 'bn_states'\]"):
            Matformer.from_checkpoint({"config": {}})

    def test_short_data_names_the_parameter(self):
        data = Matformer(SMALL, seed=6).to_checkpoint()
        entry = data["params"]["layer1.merge.b"]
        entry["data"] = base64.b64encode(base64.b64decode(entry["data"])[:-8]).decode("ascii")
        with pytest.raises(ValueError, match=r"layer1\.merge\.b: 56 bytes of data for shape \[8\], which needs 64"):
            Matformer.from_checkpoint(data)

    def test_short_batch_norm_data_names_the_state(self):
        data = Matformer(SMALL, seed=6).to_checkpoint()
        data["bn_states"][1]["running_var"]["shape"] = [9]
        with pytest.raises(ValueError, match=r"bn_states\[1\]\.running_var: 64 bytes .* needs 72"):
            Matformer.from_checkpoint(data)

    def test_non_base64_data_rejected(self):
        data = Matformer(SMALL, seed=6).to_checkpoint()
        data["params"]["readout.b2"]["data"] = "not base64!"
        with pytest.raises(ValueError, match=r"readout\.b2: data is not base64"):
            Matformer.from_checkpoint(data)

    @pytest.mark.parametrize("section, key, value, message", [
        ("config", "n_layers", "2", "config.n_layers: expected int, got str"),
        ("config", "n_layers", None, "config.n_layers: expected int, got NoneType"),
        ("config", "d_model", True, "config.d_model: expected int, got bool"),
        ("config", "d_model", 4.0, "config.d_model: expected int, got float"),
        ("config", "rbf_hi", "8", "config.rbf_hi: expected float, got str"),
        ("config", "activation", 1, "config.activation: expected str, got int"),
        ("config", "use_self_edges", 1, "config.use_self_edges: expected bool, got int"),
        ("bn", "momentum", [0.1], "bn_states[0].momentum: expected float, got list"),
        ("bn", "num_batches", "1", "bn_states[0].num_batches: expected int, got str"),
        ("bn", "running_mean", [{}, 0.0, 0.0, 0.0], "bn_states[0].running_mean: float() argument"),
        ("param", "shape", [True], "readout.b2: shape [True] is not a list of sizes"),
    ])
    def test_wrong_typed_entry_is_named(self, section, key, value, message):
        with open(CHECKPOINT_V1, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        {"config": data["config"], "bn": data["bn_states"][0], "param": data["params"]["readout.b2"]}[section][key] = value
        with pytest.raises(ValueError, match=f"^checkpoint entry {re.escape(message)}"):
            Matformer.from_checkpoint(data)

    def test_an_int_where_a_float_is_read_loads(self):
        text = json.dumps(Matformer(SMALL, seed=6).to_checkpoint()).replace('"rbf_hi": 8.0', '"rbf_hi": 8')
        assert '"rbf_hi": 8,' in text and Matformer.from_checkpoint(json.loads(text)).config.rbf_hi == 8


COMPACT_CHECKPOINT = ModelConfig(n_layers=1, n_heads=1, d_model=4, rbf_kernels=4, readout_hidden=4)


def encoded(values):
    """A version 2 ``{shape, data}`` array entry."""
    values = np.asarray(values, dtype=float)
    return {"shape": list(values.shape), "data": base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")}


class TestBatchNormShapes:
    """A running statistic loads only as the (d_model,) array the model builds."""

    @pytest.mark.parametrize("key", ["running_mean", "running_var"])
    @pytest.mark.parametrize("value", [
        encoded(np.full(3, 0.5)), encoded(np.array(0.5)), encoded(np.full((1, 4), 0.5)),
        [0.5, 0.5, 0.5], [[0.5, 0.5, 0.5, 0.5]],
    ], ids=["length-3", "0-d", "row", "v1-length-3", "v1-row"])
    def test_wrong_shape_is_named(self, key, value):
        data = Matformer(COMPACT_CHECKPOINT, seed=3).to_checkpoint()
        data["bn_states"][0][key] = value
        message = rf"^checkpoint entry bn_states\[0\]\.{key}: shape \[.*\] where the model has \[4\]$"
        with pytest.raises(ValueError, match=message):
            Matformer.from_checkpoint(data)

    @pytest.mark.parametrize("key, message", [
        ("n_heads", "checkpoint has 32 parameters for 1000000000000 attention heads"),
        ("d_model", "checkpoint entry bn_states[0].running_mean: shape [4] where the model has [1000000000000]"),
        ("rbf_kernels", "checkpoint entry embed.edge.w1: shape [4, 4] where the model has [1000000000000, 4]"),
        ("readout_hidden", "checkpoint entry readout.w1: shape [4, 4] where the model has [4, 1000000000000]"),
    ])
    def test_a_declared_size_is_checked_before_it_is_allocated(self, key, message):
        data = Matformer(COMPACT_CHECKPOINT, seed=3).to_checkpoint()
        data["config"][key] = 10**12
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Matformer.from_checkpoint(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_an_int_beyond_the_float_range_is_named(self):
        data = Matformer(COMPACT_CHECKPOINT, seed=3).to_checkpoint()
        data["bn_states"][0]["momentum"] = 10**400
        with pytest.raises(ValueError, match=r"^checkpoint entry bn_states\[0\]\.momentum: int too large"):
            Matformer.from_checkpoint(data)


def _checkpoint_paths(data):
    """Key paths to every field of a checkpoint the fuzz below replaces."""
    paths = [(), ("config", "dropout")]
    paths += [(key,) for key in data]
    paths += [("config", key) for key in data["config"]]
    paths += [("params", name) for name in data["params"]]
    paths += [("params", "readout.w1", key) for key in ("shape", "data")]
    paths += [("bn_states", 0)] + [("bn_states", 0, key) for key in data["bn_states"][0]]
    paths += [("bn_states", 0, "running_var", key) for key in ("shape", "data")]
    return paths + [("target_scale", key) for key in data["target_scale"]]


FUZZ_CHECKPOINT = {**Matformer(COMPACT_CHECKPOINT, seed=3).to_checkpoint(), "target_scale": {"mean": 1.5, "std": 2.0}}
# recursive JSON values, array entries with any small shape and base64 of any
# few bytes, and bare lists of floats
ARRAY_ENTRIES = st.fixed_dictionaries(
    {"shape": st.lists(st.integers(-1, 5), max_size=3)},
    optional={"data": st.binary(max_size=48).map(lambda raw: base64.b64encode(raw).decode("ascii")) | JSON_VALUES,
              "values": JSON_VALUES | st.lists(st.floats(), max_size=6)},
)
CHECKPOINT_VALUES = JSON_VALUES | ARRAY_ENTRIES | st.lists(st.floats(), max_size=6)


class TestCheckpointFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(_checkpoint_paths(FUZZ_CHECKPOINT)), CHECKPOINT_VALUES)
    def test_any_json_value_gives_a_model_of_built_shapes_or_value_error(self, path, value):
        data = json.loads(json.dumps(FUZZ_CHECKPOINT))
        if path:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            data = value
        try:
            model = Matformer.from_checkpoint(data)
        except ValueError:
            return
        built = Matformer(model.config)
        for (name, p), q in zip(model.parameters().items(), built.parameters().values()):
            assert p.shape == q.shape and p.values.flags.writeable, name
        for layer in model.layers:
            assert layer.bn_state.running_mean.shape == layer.bn_state.running_var.shape == (model.config.d_model,)


class TestInference:
    """predict runs without a tape and keeps every bit of the taped forward."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES) + ["paper_config"])
    def test_predict_equals_the_taped_forward(self, name):
        if name == "paper_config":
            model, crystal = Matformer(ModelConfig(), seed=5), random_corpus(1, seed=7, n_atoms_max=4)[0]
        else:
            variant, _, _, seed, atoms = GOLDEN_CASES[name]
            model = Matformer(ModelConfig(attention_variant=variant, **GOLDEN_CONFIG), seed=66)
            crystal = random_corpus(1, seed=seed, n_atoms_max=atoms)[0]
        taped = model.forward(model.prepare(crystal), training=False)
        assert taped._entry is not None
        assert np.array_equal(model.predict(crystal), taped.values[0, 0])

    def test_paper_config_supercell_peak_memory(self):
        # 96 atoms, 1728 edges; the taped forward peaks at about 330 MiB
        crystal = supercell(random_crystal(np.random.default_rng(3), n_atoms=3), (4, 4, 2))
        model = Matformer(ModelConfig(), seed=0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            model.predict(crystal)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, f"predict peaked at {peak / 2**20:.1f} MiB in {seconds:.2f} s"


class TestCheckedForward:
    """forward checks its output once; on failure a checked re-run names the op."""

    def golden_model(self):
        model = Matformer(ModelConfig(**GOLDEN_CONFIG), seed=66)
        return model, random_corpus(1, seed=67, n_atoms_max=2)[0]

    def test_a_finite_forward_runs_no_per_op_check(self, monkeypatch):
        checked = []
        real = engine._finite
        monkeypatch.setattr(engine, "_finite", lambda values, op: checked.append(op) or real(values, op))
        model, crystal = self.golden_model()
        model.forward(model.prepare(crystal), training=True)
        model.predict(crystal)
        assert checked == []
        engine.silu(Tensor(np.ones(3)))  # outside forward, every op still checks
        assert checked == ["silu"]

    @pytest.mark.parametrize("weight, op", [("readout.w2", "matmul"), ("layer0.msg_ln.gain", "layer_norm")])
    def test_non_finite_prediction_names_the_first_op(self, weight, op):
        model, crystal = self.golden_model()
        model.parameters()[weight].values[0] = np.nan
        with pytest.raises(FloatingPointError, match=f"non-finite values produced by {op}$"):
            model.predict(crystal)


@st.composite
def _layer_cases(draw):
    """A compact layer's config and seed, and a graph with repeated (src, dst)
    pairs, nodes with no out-edges and single edges."""
    d, heads = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    n_nodes, n_edges = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    node = st.integers(0, n_nodes - 1)
    src = np.array(draw(st.lists(node, min_size=n_edges, max_size=n_edges)), dtype=int)
    dst = np.array(draw(st.lists(node, min_size=n_edges, max_size=n_edges)), dtype=int)
    return d, heads, src, dst, n_nodes, draw(st.integers(0, 2**32 - 1))


class TestPairOpsInTheLayer:
    """``aggregate_messages`` with the pair ops against the composed chain of
    gathers, concatenations and products (``tests/oracles.py``), bit for bit."""

    @staticmethod
    def run(layer, aggregate, node_values, edge_values, g, src, dst):
        params = layer.parameters("layer")
        for p in params.values():
            p.zero_grad()
        node, edge = Tensor(node_values, requires_grad=True), Tensor(edge_values, requires_grad=True)
        out = aggregate(layer, node, edge, src, dst)
        backward(engine.tensor_sum(engine.mul(out, Tensor(g))))
        # the batch norm and the residual map are not in aggregate_messages
        grads = {name: p.grad for name, p in params.items() if p.grad is not None}
        return out.values, dict(grads, node=node.grad, edge=edge.grad)

    @pytest.mark.parametrize("variant", ATTENTION_VARIANTS)
    @given(_layer_cases())
    @settings(max_examples=40, deadline=None)
    def test_values_and_every_gradient(self, variant, case):
        d, heads, src, dst, n_nodes, seed = case
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(n_layers=1, n_heads=heads, d_model=d, attention_variant=variant)
        layer = MatformerLayer(cfg, rng)
        inputs = (rng.standard_normal((n_nodes, d)), rng.standard_normal((len(dst), d)),
                  rng.standard_normal((n_nodes, d)), src, dst)
        out, grads = self.run(layer, MatformerLayer.aggregate_messages, *inputs)
        want_out, want_grads = self.run(layer, composed_aggregate_messages, *inputs)
        assert out.tobytes() == want_out.tobytes()
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert grads[name].tobytes() == want.tobytes(), name


class TestGradients:
    def test_paper_config_leaf_gradients_share_no_memory(self):
        model = Matformer(ModelConfig(), seed=5)
        prepared = batch_prepared([model.prepare(c) for c in random_corpus(2, seed=7, n_atoms_max=3)])
        backward(engine.tensor_sum(model.forward(prepared, training=True)))
        grads = [(name, p.grad) for name, p in model.parameters().items()]
        assert all(g is not None for _, g in grads)
        for i, (name, g) in enumerate(grads):
            for other, h in grads[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)

    def test_paper_config_training_step_peaks_under_45_mib(self):
        # a batch of the benchmark's training crystals: 8 cells of 1-6 atoms, 399 edges;
        # 80 MiB if the tape holds each head's (E, 3d) layer-norm xhat and gate,
        # 147 MiB if it holds its (E, 3d) pair copies too
        rng = np.random.default_rng(1)
        model = Matformer(ModelConfig(), seed=1)
        prepared = batch_prepared([model.prepare(random_crystal(rng, n_atoms=1 + i % 6)) for i in range(8)])
        tracemalloc.start()
        try:
            pred = model.forward(prepared, training=True)
            diff = engine.sub(pred, Tensor(np.full((8, 1), 0.3)))
            backward(engine.mean(engine.mul(diff, diff)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20, f"a training step peaked at {peak / 2**20:.1f} MiB"

    def test_small_model_passes_finite_differences(self):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_model=4, rbf_kernels=4, readout_hidden=4)
        model = Matformer(cfg, seed=12)
        prepared = model.prepare(cubic())
        target = 0.7

        def build():
            out = model.forward(prepared, training=False)
            diff = engine.sub(out, Tensor(np.array([[target]])))
            return engine.mean(engine.mul(diff, diff))

        loss = build()
        model.zero_grad()
        backward(loss)
        params = model.parameters()
        numeric = finite_difference_gradients(build, params, h=1e-5)
        for name, p in params.items():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
            err = max_relative_error(analytic, numeric[name])
            assert err < 1e-4, f"{name}: rel err {err:.2e}"
