import copy
import dataclasses
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matformer import engine, training
from matformer.crystal import crystal_from_frac
from matformer.engine import Tensor
from matformer.featurize import batch_prepared
from matformer.io import DatasetRecord
from matformer.model import Matformer, ModelConfig
from matformer.synthetic import TARGET_FUNCTIONS, mean_lattice_length, random_corpus, random_crystal
from matformer.training import (
    AdamState,
    TrainConfig,
    _epoch_batches,
    TrainingDivergedError,
    adam_step,
    evaluate,
    ewt,
    mae,
    one_cycle_lr,
    train,
)

TINY_MODEL = ModelConfig(n_layers=1, n_heads=1, d_model=4, rbf_kernels=4, readout_hidden=4)


def make_records(n, seed=0):
    crystals = random_corpus(n, seed=seed, n_atoms_max=3)
    return [
        DatasetRecord(id=f"c{i}", crystal=c, target=mean_lattice_length(c))
        for i, c in enumerate(crystals)
    ]


class TestAdam:
    def test_first_step_magnitude(self):
        w = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState.create({"w": w})
        adam_step({"w": w}, state, lr=1e-3, weight_decay=0.0, grads={"w": np.array([1.0])})
        assert w.values[0] == pytest.approx(-1e-3 * 1.0 / (1.0 + 1e-8), rel=1e-9)

    def test_zero_gradient_no_decay_is_identity(self):
        w = Tensor(np.array([0.7]), requires_grad=True)
        state = AdamState.create({"w": w})
        adam_step({"w": w}, state, lr=1e-3, weight_decay=0.0, grads={"w": np.array([0.0])})
        assert w.values[0] == 0.7

    def test_decay_only_shrinks(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        state = AdamState.create({"w": w})
        adam_step({"w": w}, state, lr=0.1, weight_decay=0.5, grads={"w": np.array([0.0])})
        assert w.values[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))

    def test_multi_step_decay_product(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.create({"w": w})
        lrs = [0.1, 0.05, 0.2]
        wd = 0.3
        for lr in lrs:
            adam_step({"w": w}, state, lr=lr, weight_decay=wd, grads={"w": np.array([0.0])})
        expected = np.prod([1.0 - lr * wd for lr in lrs])
        assert w.values[0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_finite_gradients(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.create({"w": w})
        with pytest.raises(ValueError, match="non-finite"):
            adam_step({"w": w}, state, lr=1e-3, grads={"w": np.array([np.nan])})
        assert w.values[0] == 1.0  # step rejected wholesale

    @pytest.mark.parametrize("g", [1e155, -1e155, np.inf])
    def test_rejects_a_gradient_whose_square_would_overflow(self, g):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = AdamState.create({"w": w})
        with pytest.raises(ValueError, match=r"parameter 'w', or one whose square would overflow"):
            adam_step({"w": w}, state, lr=1e-3, grads={"w": np.array([0.5, g])})
        assert w.values.tolist() == [1.0, 2.0] and state.step == 0

    def test_accepts_a_gradient_just_below_the_limit(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.create({"w": w})
        with np.errstate(all="raise"):
            adam_step({"w": w}, state, lr=1e-3, grads={"w": np.array([1e153])})
        assert np.isfinite(state.v["w"]).all() and w.values[0] == pytest.approx(1.0 - 1e-3)


class TestOneCycle:
    def test_endpoints_and_peak(self):
        total, lr_max = 1000, 1e-3
        assert one_cycle_lr(0, total, lr_max) == pytest.approx(lr_max / 25)
        assert one_cycle_lr(300, total, lr_max) == pytest.approx(lr_max)
        assert one_cycle_lr(total, total, lr_max) == pytest.approx(lr_max / 1e4)

    def test_monotone_phases(self):
        total = 200
        lrs = [one_cycle_lr(s, total, 1e-3) for s in range(total + 1)]
        peak = int(0.3 * total)
        assert all(a <= b + 1e-15 for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
        assert all(a >= b - 1e-15 for a, b in zip(lrs[peak:-1], lrs[peak + 1 :]))

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ValueError):
            one_cycle_lr(11, 10, 1e-3)


class TestMetrics:
    def test_perfect_predictions(self):
        x = np.array([1.0, 2.0, 3.0])
        assert mae(x, x) == 0.0
        assert ewt(x, x, 0.02) == 1.0

    def test_ewt_fixture(self):
        preds = np.array([0.005, 0.03, 0.015])
        targets = np.zeros(3)
        assert ewt(preds, targets, 0.02) == 2 / 3

    def test_threshold_is_strict(self):
        assert ewt(np.array([0.02]), np.array([0.0]), 0.02) == 0.0

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            mae(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            ewt(np.array([1.0]), np.array([1.0, 2.0]), 0.02)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=20),
        st.floats(0.001, 1.0),
        st.floats(0.001, 1.0),
    )
    @settings(max_examples=100)
    def test_ewt_monotone_in_threshold(self, errors, t1, t2):
        preds = np.array(errors)
        targets = np.zeros_like(preds)
        lo, hi = sorted((t1, t2))
        assert ewt(preds, targets, lo) <= ewt(preds, targets, hi)


class TestTrainLoop:
    def test_zero_lr_keeps_parameters(self):
        records = make_records(4, seed=1)
        model = Matformer(TINY_MODEL, seed=0)
        before = {k: p.values.copy() for k, p in model.parameters().items()}
        # full-dataset batches: batch statistics identical every epoch
        config = TrainConfig(lr_max=0.0, epochs=2, batch_size=4, weight_decay=0.0, seed=0)
        result = train(model, records, records, config)
        for k, p in model.parameters().items():
            assert np.array_equal(before[k], p.values)
        losses = [row["train_loss"] for row in result.log]
        assert losses[0] == pytest.approx(losses[-1])

    def test_same_seed_identical_logs(self):
        records = make_records(6, seed=2)
        config = TrainConfig(lr_max=1e-3, epochs=3, batch_size=3, seed=7)
        logs = []
        for _ in range(2):
            model = Matformer(TINY_MODEL, seed=7)
            logs.append(train(model, records, records, config).log)
        assert logs[0] == logs[1]

    def test_divergence_aborts_with_diagnostic(self):
        records = make_records(4, seed=3)
        model = Matformer(TINY_MODEL, seed=0)
        model.readout_w2.values[:] = np.nan
        config = TrainConfig(lr_max=1e-3, epochs=1, batch_size=2, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch 0 .*produced by matmul"):
            train(model, records, records, config)

    def test_rejected_gradient_names_the_epoch_step_and_parameter(self, monkeypatch):
        def poisoned_backward(root):
            backward(root)
            if len(counted) == 2:  # the first step of the second epoch: two batches of 2 per epoch
                model.readout_b2.grad[0] = np.nan
            counted.append(root)

        counted, backward = [], engine.backward
        monkeypatch.setattr(engine, "backward", poisoned_backward)
        model = Matformer(TINY_MODEL, seed=0)
        config = TrainConfig(lr_max=1e-3, epochs=2, batch_size=2, seed=0)
        with pytest.raises(TrainingDivergedError,
                           match=r"^epoch 1 step 2: non-finite gradient for parameter 'readout\.b2'"):
            train(model, make_records(4, seed=3), make_records(2, seed=4), config)

    def test_non_finite_validation_forward_names_the_epoch(self):
        # a val-only species whose embedding row overflows: the training forward never reads it
        cubes = [crystal_from_frac([z], [[0, 0, 0]], a * np.eye(3)) for z, a in ((1, 1.0), (1, 1.3), (8, 1.1))]
        records = [DatasetRecord(id=f"c{i}", crystal=c, target=float(i)) for i, c in enumerate(cubes)]
        model = Matformer(TINY_MODEL, seed=0)
        model.embedding.node_w.values[8] = 1e308
        config = TrainConfig(lr_max=1e-3, epochs=1, batch_size=2, seed=0)
        with pytest.warns(RuntimeWarning), pytest.raises(
                TrainingDivergedError, match="^non-finite validation forward at epoch 0: non-finite values produced by"):
            train(model, records[:2], records[2:], config)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, scale", [
        (lambda i: (i + 1) * 1e200, "mean (2.5e+200) or standard deviation (inf)"),  # the squares overflow
        (lambda i: 1e308, "mean (inf) or standard deviation (inf)"),  # the sum overflows
    ])
    def test_targets_of_no_finite_scale_are_rejected_before_the_first_step(self, monkeypatch, target, scale):
        def refuse(*args, **kwargs):
            raise AssertionError("train ran a forward")

        monkeypatch.setattr(Matformer, "forward", refuse)
        records = [dataclasses.replace(r, target=target(i)) for i, r in enumerate(make_records(4, seed=3))]
        with pytest.raises(ValueError) as err:
            train(Matformer(TINY_MODEL, seed=0), records, records, TrainConfig(epochs=1, batch_size=2))
        assert str(err.value) == f"the training targets' {scale} is not finite: rescale the targets"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_validation_mae_names_the_epoch(self):
        # a finite scale, but a validation target the predictions cannot reach within the float range
        record = make_records(1, seed=3)[0]
        train_records = [dataclasses.replace(record, target=8e307)] * 2  # mean 8e307, std 0
        val_records = [dataclasses.replace(record, target=-1.5e308)]
        with pytest.raises(TrainingDivergedError, match=r"^non-finite validation MAE \(inf\) at epoch 0$"):
            train(Matformer(TINY_MODEL, seed=0), train_records, val_records, TrainConfig(epochs=1, batch_size=2))

    def test_best_checkpoint_tracks_val(self):
        records = make_records(6, seed=4)
        model = Matformer(TINY_MODEL, seed=1)
        config = TrainConfig(lr_max=5e-3, epochs=4, batch_size=3, seed=1)
        result = train(model, records, records, config)
        assert result.best_val_mae == min(row["val_mae"] for row in result.log)
        assert "target_scale" in result.best_checkpoint

    def test_evaluate_equals_the_taped_batch_forward(self):
        model = Matformer(ModelConfig(n_layers=2, n_heads=2, d_model=8, rbf_kernels=8, readout_hidden=8), seed=3)
        prepared = [model.prepare(r.crystal) for r in make_records(5, seed=6)]
        taped = model.forward(batch_prepared(prepared), training=False)
        assert taped._entry is not None
        assert np.array_equal(evaluate(model, prepared), taped.values[:, 0])

    def test_each_step_frees_its_gradients_before_the_next_backward(self, monkeypatch):
        records = make_records(4, seed=8)  # one batch of 4: every step sees the same crystals
        model = Matformer(TINY_MODEL, seed=4)
        applied = []  # weakrefs to the gradients of each step's update, in step order
        backward = engine.backward

        def keeping_adam_step(params, state, lr, grads, **kwargs):
            applied.append([weakref.ref(g) for g in grads.values()])
            adam_step(params, state, lr, grads, **kwargs)

        def checking_backward(root):
            assert [step for step, refs in enumerate(applied) if any(r() is not None for r in refs)] == []
            backward(root)

        monkeypatch.setattr(training, "adam_step", keeping_adam_step)
        monkeypatch.setattr(engine, "backward", checking_backward)
        train(model, records, records, TrainConfig(epochs=3, batch_size=4, seed=0))
        assert len(applied) == 3
        assert [k for k, p in model.parameters().items() if p.grad is not None] == []

    def test_log_columns(self):
        records = make_records(4, seed=5)
        model = Matformer(TINY_MODEL, seed=2)
        result = train(model, records, records, TrainConfig(epochs=1, batch_size=2, seed=0))
        assert set(result.log[0]) == {"epoch", "lr", "train_loss", "val_mae", "ewt_0.01", "ewt_0.02"}


class TestSmallBatches:
    """Batch norm in training mode needs two atoms per minibatch."""

    @staticmethod
    def one_atom_records(n, seed=0):
        rng = np.random.default_rng(seed)
        crystals = [random_crystal(rng, n_atoms=1) for _ in range(n)]
        return [DatasetRecord(id=f"c{i}", crystal=c, target=mean_lattice_length(c))
                for i, c in enumerate(crystals)]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_trailing_one_atom_batch_joins_the_previous(self, seed):
        records = self.one_atom_records(9)
        config = TrainConfig(epochs=2, batch_size=8, seed=seed)
        logs = [train(Matformer(TINY_MODEL, seed=0), records, records[:3], config).log for _ in range(2)]
        assert len(logs[0]) == 2
        assert all(np.isfinite(row["train_loss"]) for row in logs[0])
        assert logs[0] == logs[1]

    def test_epoch_batches_fold_only_a_one_atom_remnant(self):
        order = np.arange(9)
        one_atom = np.ones(9, dtype=int)
        assert [len(b) for b in _epoch_batches(order, one_atom, 8)] == [9]
        two_atoms = one_atom.copy()
        two_atoms[8] = 2
        assert [len(b) for b in _epoch_batches(order, two_atoms, 8)] == [8, 1]
        assert [len(b) for b in _epoch_batches(order, one_atom, 3)] == [3, 3, 3]
        assert [len(b) for b in _epoch_batches(order[:1], two_atoms[8:], 8)] == [1]

    def test_fewer_than_two_atoms_rejected_up_front(self):
        records = self.one_atom_records(1)
        with pytest.raises(ValueError, match="1 atom"):
            train(Matformer(TINY_MODEL, seed=0), records, records, TrainConfig(epochs=1, batch_size=8))

    def test_batch_size_one_with_one_atom_crystal_rejected_up_front(self):
        records = self.one_atom_records(3)
        with pytest.raises(ValueError, match="batch_size=1"):
            train(Matformer(TINY_MODEL, seed=0), records, records, TrainConfig(epochs=1, batch_size=1))


    def test_empty_validation_set_rejected_up_front(self):
        model = Matformer(TINY_MODEL, seed=0)
        before = {k: p.values.copy() for k, p in model.parameters().items()}
        with pytest.raises(ValueError, match="validation set is empty"):
            train(model, make_records(4), [], TrainConfig(epochs=1, batch_size=4))
        assert all(np.array_equal(p.values, before[k]) for k, p in model.parameters().items())


class TestBestCheckpoint:
    def test_one_epoch_best_is_the_trained_model(self):
        records = make_records(4, seed=6)
        model = Matformer(TINY_MODEL, seed=3)
        result = train(model, records, records, TrainConfig(epochs=1, batch_size=2, seed=0))
        best = dict(result.best_checkpoint)
        assert best.pop("target_scale")
        assert best == model.to_checkpoint() == result.best_model.to_checkpoint()

    def test_one_model_copy_per_improving_epoch(self, monkeypatch):
        copies = []
        counting = types.SimpleNamespace(deepcopy=lambda x: copies.append(x) or copy.deepcopy(x))
        monkeypatch.setattr(training, "copy", counting)
        model = Matformer(TINY_MODEL, seed=1)
        records = make_records(6, seed=4)
        result = train(model, records, records, TrainConfig(lr_max=5e-2, epochs=6, batch_size=3, seed=1))
        maes = [row["val_mae"] for row in result.log]
        improving = [i for i, v in enumerate(maes) if v < min(maes[:i], default=np.inf)]
        assert improving[0] == 0 and len(copies) == len(improving) and all(c is model for c in copies)

    def test_checkpoint_holds_best_epoch_and_model_holds_last(self):
        records = make_records(6, seed=4)
        model = Matformer(TINY_MODEL, seed=1)
        result = train(model, records, records, TrainConfig(lr_max=5e-2, epochs=6, batch_size=3, seed=1))
        maes = [row["val_mae"] for row in result.log]
        assert maes.index(min(maes)) < len(maes) - 1, "the fixture needs a best epoch before the last"
        graphs = [model.prepare(r.crystal) for r in records]
        targets = np.array([r.target for r in records])
        scale = result.best_checkpoint["target_scale"]

        def val_mae(m):
            return mae(evaluate(m, graphs) * scale["std"] + scale["mean"], targets)

        assert val_mae(Matformer.from_checkpoint(result.best_checkpoint)) == result.best_val_mae
        assert val_mae(result.best_model) == result.best_val_mae
        assert val_mae(model) == maes[-1]


class TestTargets:
    def test_registry(self):
        assert "mean_lattice_length" in TARGET_FUNCTIONS
        assert "density" in TARGET_FUNCTIONS

    def test_targets_are_invariant(self):
        from matformer.crystal import E3Transform, apply_e3, random_orthogonal, shift_boundary

        rng = np.random.default_rng(6)
        crystals = random_corpus(3, seed=6)
        for fn in TARGET_FUNCTIONS.values():
            for c in crystals:
                base = fn(c)
                assert fn(shift_boundary(c, rng.uniform(-2, 2, 3))) == pytest.approx(base, abs=1e-10)
                moved = apply_e3(c, E3Transform(random_orthogonal(rng), rng.uniform(-2, 2, 3)))
                assert fn(moved) == pytest.approx(base, abs=1e-10)
