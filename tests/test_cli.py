import csv
import json
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from matformer import cli, io
from matformer.cli import main
from matformer.crystal import Crystal, supercell
from matformer.model import Matformer, ModelConfig
from matformer.synthetic import mean_lattice_length, random_corpus, random_crystal
from oracles import write_targets_csv

CUBE_POSCAR = """hydrogen cube
1.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
H
1
Direct
0.0 0.0 0.0
"""


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.poscar"
    path.write_text(CUBE_POSCAR)
    return str(path)


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for i, crystal in enumerate(random_corpus(3, seed=50, n_atoms_max=3)):
        (d / f"c{i}.json").write_text(io.write_crystal_json(crystal))
    return str(d)


class TestBuildGraph:
    def test_radius_graph_json(self, cube_file, tmp_path, capsys):
        out = tmp_path / "graph.json"
        assert main(["build-graph", cube_file, "--method", "radius", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        neighbor = [e for e in data["edges"] if e["kind"] == "neighbor"]
        assert len(neighbor) == 18

    def test_text_format_to_stdout(self, cube_file, capsys):
        assert main(["build-graph", cube_file, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph method=radius")

    def test_tfc_with_self_edges(self, cube_file, tmp_path):
        out = tmp_path / "graph.json"
        assert main(["build-graph", cube_file, "--method", "tfc", "--t", "2", "--self-edges", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["meta"]["self_edges"] is True

    def test_builder_error_exits_with_its_message(self, cube_file):
        with pytest.raises(SystemExit, match=r"^cannot build a tfc graph of cube: t must be >= 1$"):
            main(["build-graph", cube_file, "--method", "tfc", "--t", "0"])


class TestAudit:
    def test_invariant_builder_exits_zero(self, corpus_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["audit", corpus_dir, "--builder", "radius", "--trials", "4", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["violations"] == 0
        assert report["witness"] is None

    def test_ocgraph_exits_one_with_witness(self, tmp_path):
        from matformer.audit import shift_sensitive_crystal

        d = tmp_path / "adversarial"
        d.mkdir()
        (d / "shifty.json").write_text(io.write_crystal_json(shift_sensitive_crystal()))
        out = tmp_path / "report.json"
        code = main(
            ["audit", str(d), "--builder", "ocgraph", "--radius", "0.5",
             "--trials", "8", "--seed", "3", "--no-supercell", "--out", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["violations"] >= 1
        assert report["witness"]["transform"]["type"] == "periodic"

    def test_structural_mismatch_report_is_strict_json(self, tmp_path):
        from matformer.audit import shift_sensitive_crystal

        d = tmp_path / "adversarial"
        d.mkdir()
        (d / "shifty.json").write_text(io.write_crystal_json(shift_sensitive_crystal()))
        out = tmp_path / "r.json"
        code = main(
            ["audit", str(d), "--builder", "ocgraph", "--radius", "0.5",
             "--trials", "4", "--no-supercell", "--out", str(out)]
        )
        assert code == 1

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["witness"]["discrepancy"] == report["worst_discrepancy"] == np.finfo(float).max

    def test_builder_error_exits_with_its_message(self, cube_file):
        with pytest.raises(SystemExit, match=r"^cannot audit the radius builder: neighbor_rank must be >= 1$"):
            main(["audit", cube_file, "--rank", "0", "--trials", "1"])

    def test_could_not_run_exits_two_not_one(self, cube_file, capsys):
        # status 1 means "violations found"
        with pytest.raises(SystemExit) as err:
            main(["audit", cube_file, "--builder", "tfc", "--t", "0"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "cannot audit the tfc builder: t must be >= 1\n"

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for path in (bad, tmp_path / "missing.json"):
            with pytest.raises(SystemExit, match=rf"^cannot read {re.escape(str(path))}: ") as err:
                main(["audit", str(path)])
            assert err.value.code == 2
            assert capsys.readouterr().err.startswith(f"cannot read {path}: ")

    def test_e3_mode(self, corpus_dir):
        assert main(["audit", corpus_dir, "--builder", "tfc", "--mode", "e3", "--trials", "3"]) == 0


class TestAnalyze:
    def test_line_graph_size(self, capsys):
        assert main(["analyze", "line-graph-size", "--n", "10"]) == 0
        assert capsys.readouterr().out.strip() == "nodes=60 edges=660"

    def test_custom_degree(self, capsys):
        assert main(["analyze", "line-graph-size", "--n", "4", "--degree", "6"]) == 0
        assert capsys.readouterr().out.strip() == "nodes=12 edges=60"


class TestFeaturize:
    def test_writes_features(self, cube_file, tmp_path):
        out = tmp_path / "feats.json"
        assert main(["featurize", cube_file, "--d-model", "8", "--kernels", "8", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["node_input"][0]) == 8
        assert len(data["edge_input"]) == 18

    def test_builder_error_exits_with_its_message(self, cube_file):
        with pytest.raises(SystemExit, match=r"^cannot featurize cube: t must be >= 1$"):
            main(["featurize", cube_file, "--method", "tfc", "--t", "0"])
        with pytest.raises(SystemExit, match=r"^--kernels must be >= 2, got 1$"):
            main(["featurize", cube_file, "--kernels", "1"])


class TestTrainPredict:
    def test_synthetic_round_trip(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.n_layers=1\nmodel.n_heads=1\nmodel.d_model=4\nmodel.rbf_kernels=4\n"
            "model.readout_hidden=4\ntrain.epochs=2\ntrain.batch_size=4\ntrain.lr_max=1e-3\n"
        )
        code = main(
            ["train", "--synthetic", "8", "--config", str(cfg), "--out-dir", str(run_dir),
             "--val-fraction", "0.25", "--test-fraction", "0.25"]
        )
        assert code == 0
        assert (run_dir / "log.csv").exists()
        assert (run_dir / "checkpoint.json").exists()
        assert (run_dir / "predictions.csv").exists()
        log_lines = (run_dir / "log.csv").read_text().strip().splitlines()
        assert len(log_lines) == 3  # header + 2 epochs

        # predict from the saved checkpoint
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        crystal = random_corpus(1, seed=60, n_atoms_max=2)[0]
        (data_dir / "x.json").write_text(io.write_crystal_json(crystal))
        out_csv = tmp_path / "preds.csv"
        code = main(
            ["predict", "--checkpoint", str(run_dir / "checkpoint.json"),
             "--data", str(data_dir), "--out", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "id,prediction,target,abs_err"
        assert len(lines) == 2

    def test_test_split_is_predicted_from_the_best_model_not_its_checkpoint(self, tmp_path, monkeypatch):
        # at this size a batched forward of the 18 test crystals differs from
        # one crystal per forward in the last place of some rows
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.n_layers=2\nmodel.n_heads=2\nmodel.d_model=16\nmodel.rbf_kernels=16\n"
                       "model.readout_hidden=16\ntrain.epochs=1\ntrain.batch_size=8\n")

        def refuse(data):
            raise AssertionError("train decoded the checkpoint it had just encoded")

        monkeypatch.setattr(Matformer, "from_checkpoint", refuse)
        run_dir = tmp_path / "run"
        assert main(["train", "--synthetic", "60", "--config", str(cfg), "--out-dir", str(run_dir),
                     "--test-fraction", "0.3"]) == 0
        monkeypatch.undo()
        # the rows `matformer predict` writes from the checkpoint, bit for bit
        data = tmp_path / "data"
        data.mkdir()
        crystals = random_corpus(60, seed=0)  # train's --synthetic crystals, ids syn-0000 ...
        for i, crystal in enumerate(crystals):
            (data / f"syn-{i:04d}.json").write_text(io.write_crystal_json(crystal))
        targets = tmp_path / "targets.csv"
        targets.write_text(write_targets_csv([(f"syn-{i:04d}", mean_lattice_length(c)) for i, c in enumerate(crystals)]))
        out = tmp_path / "predict.csv"
        assert main(["predict", "--checkpoint", str(run_dir / "checkpoint.json"), "--data", str(data),
                     "--targets", str(targets), "--out", str(out)]) == 0
        predicted = {row["id"]: row for row in csv.DictReader(out.read_text().splitlines())}
        rows = list(csv.DictReader((run_dir / "predictions.csv").read_text().splitlines()))
        assert len(rows) == 18
        assert rows == [predicted[row["id"]] for row in rows]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_training_exits_two_with_one_line(self, tmp_path, capsys):
        # at lr_max 1e12 a gradient grows past sqrt(float max) in the second epoch,
        # where its square would overflow Adam's second moment; the overflowing
        # exp on the way there, the sigmoid's or the one in softplus's backward,
        # warns no more
        for activation in ("silu", "softplus"):
            cfg = tmp_path / f"{activation}.cfg"
            cfg.write_text("model.n_layers=1\nmodel.n_heads=1\nmodel.d_model=4\nmodel.rbf_kernels=4\n"
                           f"model.readout_hidden=4\nmodel.activation={activation}\ntrain.epochs=2\n"
                           "train.batch_size=4\ntrain.lr_max=1e12\n")
            run_dir = tmp_path / activation
            with pytest.raises(SystemExit) as err:
                main(["train", "--synthetic", "12", "--config", str(cfg), "--out-dir", str(run_dir)])
            assert err.value.code == 2
            assert re.fullmatch(r"cannot train: epoch 1 step 3: non-finite gradient for parameter 'embed\.node\.w', "
                                r"or one whose square would overflow Adam's second moment \(max \|g\| = .*\); "
                                r"step rejected\n", capsys.readouterr().err)
            assert not run_dir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_targets_past_the_float_range_exit_two_with_one_line(self, tmp_path, capsys):
        # their squares overflow the standard deviation, which would scale every prediction to inf
        data = tmp_path / "data"
        data.mkdir()
        for i, crystal in enumerate(random_corpus(12, seed=0)):
            (data / f"c{i:02d}.json").write_text(io.write_crystal_json(crystal))
        targets = tmp_path / "big.csv"
        targets.write_text(write_targets_csv([(f"c{i:02d}", (i + 1) * 1e200) for i in range(12)]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.n_layers=1\nmodel.n_heads=1\nmodel.d_model=4\nmodel.rbf_kernels=4\n"
                       "model.readout_hidden=4\ntrain.epochs=2\ntrain.batch_size=4\n")
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data), "--targets", str(targets), "--config", str(cfg),
                  "--out-dir", str(tmp_path / "run")])
        assert err.value.code == 2
        assert re.fullmatch(r"cannot train: the training targets' mean \(.*\) or standard deviation \(inf\) "
                            r"is not finite: rescale the targets\n", capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_data_train_rejects_exits_two_with_one_line(self, tmp_path, capsys):
        # random_corpus(12, seed=0) holds one-atom crystals, too few atoms for a batch of one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.n_layers=1\nmodel.n_heads=1\nmodel.d_model=4\nmodel.rbf_kernels=4\n"
                       "model.readout_hidden=4\ntrain.epochs=1\ntrain.batch_size=1\n")
        with pytest.raises(SystemExit) as err:
            main(["train", "--synthetic", "12", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert err.value.code == 2
        assert capsys.readouterr().err == ("cannot train: batch_size=1 with a one-atom crystal: "
                                           "batch norm needs at least 2 atoms per minibatch\n")
        assert not (tmp_path / "run").exists()

    def test_predict_warns_when_target_scale_is_missing(self, corpus_dir, tmp_path, capsys):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_model=4, rbf_kernels=4, readout_hidden=4)
        checkpoint = Matformer(cfg, seed=3).to_checkpoint()
        bare, scaled = tmp_path / "bare.json", tmp_path / "scaled.json"
        bare.write_text(json.dumps(checkpoint))
        scaled.write_text(json.dumps({**checkpoint, "target_scale": {"mean": 0.0, "std": 1.0}}))

        assert main(["predict", "--checkpoint", str(bare), "--data", corpus_dir]) == 0
        warned = capsys.readouterr()
        assert "no target_scale" in warned.err
        assert main(["predict", "--checkpoint", str(scaled), "--data", corpus_dir]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert warned.out == quiet.out and len(quiet.out.strip().splitlines()) == 4


class TestPredictCheckpoint:
    def write_checkpoint(self, tmp_path, text):
        path = tmp_path / "checkpoint.json"
        path.write_text(text)
        return str(path)

    def test_truncated_checkpoint_exits_naming_the_path(self, corpus_dir, tmp_path):
        text = json.dumps(Matformer(ModelConfig(n_layers=1, d_model=4, rbf_kernels=4), seed=3).to_checkpoint())
        path = self.write_checkpoint(tmp_path, text[: len(text) // 2])
        with pytest.raises(SystemExit, match=f"cannot load checkpoint {re.escape(path)}: Unterminated string"):
            main(["predict", "--checkpoint", path, "--data", corpus_dir])

    def test_invalid_checkpoint_exits_naming_the_path(self, corpus_dir, tmp_path):
        path = self.write_checkpoint(tmp_path, json.dumps({"format_version": 7}))
        with pytest.raises(SystemExit, match=f"cannot load checkpoint {re.escape(path)}: .*format_version 7"):
            main(["predict", "--checkpoint", path, "--data", corpus_dir])

    def test_non_finite_prediction_exits_naming_the_crystal_and_op(self, corpus_dir, tmp_path):
        model = Matformer(ModelConfig(n_layers=1, n_heads=1, d_model=4, rbf_kernels=4, readout_hidden=4), seed=3)
        model.readout["w2"].values[0, 0] = np.nan
        path = self.write_checkpoint(tmp_path, json.dumps(model.to_checkpoint()))
        with pytest.raises(SystemExit, match=r"^cannot predict c0: non-finite values produced by matmul$"):
            main(["predict", "--checkpoint", path, "--data", corpus_dir])

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["config"].update(n_layers="2"), "config.n_layers: expected int, got str"),
        (lambda d: d.update(target_scale=3), "target_scale: expected object, got int"),
        (lambda d: d.update(target_scale={"mean": "0", "std": 1.0}), "target_scale.mean: expected float, got str"),
        (lambda d: d.update(config=3), "checkpoint 'config' and 'params' must be objects and 'bn_states' a list"),
        (lambda d: d["bn_states"].__setitem__(0, 3),
         "bn_states[0]: missing ['running_mean', 'running_var', 'momentum', 'num_batches']"),
    ])
    def test_wrong_typed_checkpoint_field_exits_naming_it(self, corpus_dir, tmp_path, edit, message):
        with open(os.path.join(os.path.dirname(__file__), "checkpoint_v1.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        edit(data)
        path = self.write_checkpoint(tmp_path, json.dumps(data))
        with pytest.raises(SystemExit) as err:
            main(["predict", "--checkpoint", path, "--data", corpus_dir])
        # a top-level entry of the wrong type is named by the whole message, any other by its path
        entry = message if message.startswith("checkpoint ") else f"checkpoint entry {message}"
        assert str(err.value) == f"cannot load checkpoint {path}: {entry}"

    def test_version_1_checkpoint_predicts(self, corpus_dir, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "checkpoint_v1.json")
        assert main(["predict", "--checkpoint", fixture, "--data", corpus_dir]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 3 and all(np.isfinite(float(row.split(",")[1])) for row in rows)


class TestPredictBatchNormShape:
    @pytest.mark.parametrize("value, message", [
        ({"shape": [3], "data": "AAAAAAAA4D8AAAAAAADgPwAAAAAAAOA/"}, "shape [3] where the model has [4]"),
        ({"shape": [], "data": "AAAAAAAA4D8="}, "shape [] where the model has [4]"),
        ({"shape": [1, 4], "data": "AAAAAAAA4D8AAAAAAADgPwAAAAAAAOA/AAAAAAAA4D8="},
         "shape [1, 4] where the model has [4]"),
        ([0.5, 0.5, 0.5], "shape [3] where the model has [4]"),
        # the byte count is checked against the stored shape first
        ({"shape": [9], "data": "AAAAAAAA4D8AAAAAAADgPwAAAAAAAOA/AAAAAAAA4D8="},
         "32 bytes of data for shape [9], which needs 72"),
    ], ids=["length-3", "0-d", "row", "v1-length-3", "short-data"])
    def test_wrong_statistic_shape_exits_two_with_one_line(self, corpus_dir, tmp_path, capsys, value, message):
        data = Matformer(ModelConfig(n_layers=1, n_heads=1, d_model=4, rbf_kernels=4, readout_hidden=4),
                         seed=3).to_checkpoint()
        data["bn_states"][0]["running_mean"] = value
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as err:
            main(["predict", "--checkpoint", str(path), "--data", corpus_dir])
        stderr = capsys.readouterr().err
        assert err.value.code == 2
        assert stderr == f"cannot load checkpoint {path}: checkpoint entry bn_states[0].running_mean: {message}\n"


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # nothing left to reap either
        os.waitpid(-1, os.WNOHANG)


class TestParallelPredict:
    """``predict`` spreads whole crystals over one worker per CPU in the
    affinity mask, the parent included; here the mask is made three CPUs
    wide, more than some machines have, so that two children are forked."""

    SCALE = {"mean": 1.25, "std": 0.5}

    @pytest.fixture
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    @staticmethod
    def corpus():
        # one-atom cells, and a 2x2x1 supercell as the largest crystal
        rng = np.random.default_rng(7)
        cells = [random_crystal(rng, n_atoms=1 + i % 3) for i in range(7)]
        return cells + [supercell(cells[2], (2, 2, 1))]

    def write(self, tmp_path, crystals, model):
        data = tmp_path / "data"
        data.mkdir()
        for i, crystal in enumerate(crystals):
            (data / f"c{i}.json").write_text(io.write_crystal_json(crystal))
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps({**model.to_checkpoint(), "target_scale": self.SCALE}))
        return str(checkpoint), str(data)

    @staticmethod
    def model():
        return Matformer(ModelConfig(n_layers=2, n_heads=2, d_model=8, rbf_kernels=8, readout_hidden=8), seed=3)

    def test_rows_equal_in_process_predict_bit_for_bit(self, tmp_path, monkeypatch):
        crystals, model = self.corpus(), self.model()
        checkpoint, data = self.write(tmp_path, crystals, model)
        expected = [model.predict(c) * self.SCALE["std"] + self.SCALE["mean"] for c in crystals]
        pids = tmp_path / "pids"
        share = cli._predict_share

        def recording(*args):  # forked children inherit the patch and append their pid too
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return share(*args)

        monkeypatch.setattr(cli, "_predict_share", recording)
        texts = {}
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            pids.write_text("")
            out = tmp_path / f"{len(cpus)}.csv"
            assert main(["predict", "--checkpoint", checkpoint, "--data", data, "--out", str(out)]) == 0
            assert_no_child_left()
            workers = set(pids.read_text().split())
            assert len(workers) == len(cpus) and str(os.getpid()) in workers
            texts[len(cpus)] = out.read_text()
            rows = list(csv.DictReader(texts[len(cpus)].splitlines()))
            assert [row["id"] for row in rows] == [f"c{i}" for i in range(len(crystals))]
            assert [float(row["prediction"]) for row in rows] == expected
        assert texts[1] == texts[3]

    def test_first_failure_in_input_order_is_reported(self, tmp_path, three_cpus):
        # copper only in c4 and c7, whose row of the atom table is NaN; the
        # parent predicts c7 (the largest crystal), a child c4
        crystals = self.corpus()
        for i in (4, 7):
            crystals[i] = Crystal(np.where(np.arange(crystals[i].n_atoms) == 0, 29, crystals[i].atomic_numbers),
                                  crystals[i].positions, crystals[i].lattice)
        shares = cli._balanced_shares([c.n_atoms for c in crystals], 3)
        assert 7 in shares[0] and 4 not in shares[0]
        model = self.model()
        model.embedding.params["node.w"].values[29] = np.nan
        checkpoint, data = self.write(tmp_path, crystals, model)
        with pytest.raises(SystemExit) as err:
            main(["predict", "--checkpoint", checkpoint, "--data", data])
        assert err.value.code == 2
        assert re.fullmatch(r"cannot predict c4: non-finite values produced by \w+", str(err.value))
        assert_no_child_left()

    def test_an_error_in_the_parent_leaves_no_child(self, tmp_path, monkeypatch, three_cpus):
        parent, share = os.getpid(), cli._predict_share

        def failing(*args):  # the parent fails at once while its children are still busy
            if os.getpid() == parent:
                raise RuntimeError("parent failed")
            time.sleep(60)
            return share(*args)

        monkeypatch.setattr(cli, "_predict_share", failing)
        checkpoint, data = self.write(tmp_path, self.corpus(), self.model())
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="parent failed"):
            main(["predict", "--checkpoint", checkpoint, "--data", data])
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    def test_a_child_that_dies_before_sending_is_an_error(self, tmp_path, monkeypatch, three_cpus):
        monkeypatch.setattr(cli, "_send_share", lambda conn, *args: os._exit(3))
        checkpoint, data = self.write(tmp_path, self.corpus(), self.model())
        with pytest.raises(RuntimeError, match=r"^prediction worker \d+ exited with status 3 before sending"):
            main(["predict", "--checkpoint", checkpoint, "--data", data])
        assert_no_child_left()

    @pytest.mark.parametrize("child", [False, True], ids=["parent", "child"])
    def test_a_cell_the_search_refuses_exits_two_with_one_line(self, tmp_path, capsys, three_cpus, child):
        # the search's guard refuses both supercells before it allocates; the
        # 4000-atom one goes to the parent's share, the 3600-atom one to a child's
        base = random_crystal(np.random.default_rng(0), n_atoms=4)
        crystals = self.corpus() + [supercell(base, (10, 10, 10))]
        if child:
            crystals.insert(2, supercell(base, (9, 10, 10)))
        refused = 2 if child else 8
        assert (refused in cli._balanced_shares([c.n_atoms for c in crystals], 3)[0]) != child
        checkpoint, data = self.write(tmp_path, crystals, self.model())
        with pytest.raises(SystemExit) as err:
            main(["predict", "--checkpoint", checkpoint, "--data", data])
        assert err.value.code == 2
        assert re.fullmatch(rf"cannot predict c{refused}: neighbor search over {crystals[refused].n_atoms} atoms "
                            r"at r=\S+ would need \d+ MiB for its image grid \(limit 1024 MiB\)", str(err.value))
        assert capsys.readouterr().err == f"{err.value}\n"
        assert_no_child_left()

    def test_shares_balance_atoms_and_keep_input_order(self):
        sizes = [1, 2, 3, 1, 2, 3, 1, 12, 5, 4]
        shares = cli._balanced_shares(sizes, 3)
        assert sorted(i for share in shares for i in share) == list(range(len(sizes)))
        assert all(share == sorted(share) for share in shares)
        assert sorted(sum(sizes[i] for i in share) for share in shares) == [11, 11, 12]

    def test_duplicate_id_exits_two_naming_both_files(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        crystal = random_corpus(1, seed=60)[0]
        (data / "x.json").write_text(io.write_crystal_json(crystal))
        (data / "x.poscar").write_text(CUBE_POSCAR)
        targets = tmp_path / "targets.csv"
        targets.write_text(write_targets_csv([("x", 1.0)]))
        fixture = os.path.join(os.path.dirname(__file__), "checkpoint_v1.json")
        with pytest.raises(SystemExit) as err:
            main(["predict", "--checkpoint", fixture, "--data", str(data), "--targets", str(targets)])
        assert err.value.code == 2
        assert str(err.value) == f"crystal files {data / 'x.json'} and {data / 'x.poscar'} both have id 'x'"


class TestRunConfig:
    TINY = ("model.n_layers=1\nmodel.n_heads=1\nmodel.d_model=4\nmodel.rbf_kernels=4\n"
            "model.readout_hidden=4\ntrain.epochs=1\ntrain.batch_size=4\n")

    def train_with(self, tmp_path, extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.TINY + extra)
        return main(["train", "--synthetic", "4", "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
                     "--val-fraction", "0", "--test-fraction", "0"])

    def test_misspelled_key_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match=r"unknown run-config keys: \['model\.d_modle'\]"):
            self.train_with(tmp_path, "model.d_modle=16\n")
        assert not (tmp_path / "run").exists()

    def test_removed_key_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match=r"unknown run-config keys: \['train\.grad_clip'\]"):
            self.train_with(tmp_path, "train.grad_clip=1.0\n")

    def test_bad_bool_value_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match=r"model\.use_self_edges.*'maybe'"):
            self.train_with(tmp_path, "model.use_self_edges=maybe\n")

    def test_empty_validation_split_exits_before_training(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.TINY)
        with pytest.raises(SystemExit, match=r"--val-fraction 0\.1 leaves no validation crystal among 8"):
            main(["train", "--synthetic", "8", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("val, test, message", [
        ("-0.25", "0.1", "--val-fraction must be a fraction in [0, 1), got -0.25"),
        ("0.5", "-0.5", "--test-fraction must be a fraction in [0, 1), got -0.5"),
        ("nan", "0.1", "--val-fraction must be a fraction in [0, 1), got nan"),
        ("1", "0", "--val-fraction must be a fraction in [0, 1), got 1.0"),
        ("0.5", "0.5", "--val-fraction 0.5 and --test-fraction 0.5 sum to 1 or more: no crystal is left to train on"),
    ], ids=["negative-val", "negative-test", "nan-val", "val-of-one", "sum-of-one"])
    def test_split_fraction_out_of_range_exits_two_with_one_line(self, tmp_path, capsys, val, test, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.TINY)
        with pytest.raises(SystemExit) as err:
            main(["train", "--synthetic", "20", "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
                  "--val-fraction", val, "--test-fraction", test])
        assert err.value.code == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "run").exists()

    def test_split_fractions_are_checked_before_the_dataset_is_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(tmp_path / "missing"), "--targets", str(tmp_path / "missing.csv"),
                  "--val-fraction", "-0.25"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "--val-fraction must be a fraction in [0, 1), got -0.25\n"

    def test_zero_test_fraction_trains(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.TINY)
        assert main(["train", "--synthetic", "4", "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
                     "--val-fraction", "0.5", "--test-fraction", "0"]) == 0
        assert (tmp_path / "run" / "checkpoint.json").exists()
        assert not (tmp_path / "run" / "predictions.csv").exists()

    def test_negative_seed_is_an_invalid_run_config(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            self.train_with(tmp_path, "train.seed=-1\n")
        assert err.value.code == 2
        assert capsys.readouterr().err == "invalid run config: seed must be >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    def test_self_edges_can_be_turned_off(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.TINY + "model.use_self_edges=false\n")
        assert main(["train", "--synthetic", "4", "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
                     "--val-fraction", "0.5", "--test-fraction", "0"]) == 0
        with open(tmp_path / "run" / "checkpoint.json", "r", encoding="utf-8") as fh:
            assert json.load(fh)["config"]["use_self_edges"] is False

    def test_rejected_config_value_exits(self, tmp_path):
        self.TINY = self.TINY.replace("model.readout_hidden=4", "model.readout_hidden=0")
        with pytest.raises(SystemExit, match="invalid run config: .*readout_hidden"):
            self.train_with(tmp_path, "")
        assert not (tmp_path / "run").exists()


class TestCouldNotRun:
    @pytest.mark.parametrize("argv, message", [
        (["audit", "{n}"], "cannot read {n}: crystal JSON must be an object, got int"),
        (["build-graph", "{n}"], "cannot read {n}: crystal JSON must be an object, got int"),
        (["audit", "{cube}", "--trials", "0"], "--trials must be >= 1, got 0: an audit of no trial shows nothing"),
        (["audit", "{cube}", "--trials", "-1"], "--trials must be >= 1, got -1: an audit of no trial shows nothing"),
        (["analyze", "line-graph-size", "--n", "0"], "cannot analyze line-graph-size: need at least one node"),
        (["analyze", "line-graph-size", "--n", "4", "--degree", "3"],
         "cannot analyze line-graph-size: degree must be even and >= 2"),
        (["audit", "{cube}", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["featurize", "{cube}", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["featurize", "{cube}", "--d-model", "-1"], "--d-model must be >= 1, got -1"),
        (["featurize", "{cube}", "--kernels", "-1"], "--kernels must be >= 2, got -1"),
        (["train", "--synthetic", "4", "--data-seed", "-1", "--out-dir", "{run}"], "--data-seed must be >= 0, got -1"),
        (["audit", "{cube}", "--builder", "ocgraph", "--radius", "nan"],
         "cannot audit the ocgraph builder: radius must be positive and finite, got nan"),
        (["audit", "{cube}", "--builder", "ocgraph", "--radius", "inf"],
         "cannot audit the ocgraph builder: radius must be positive and finite, got inf"),
        (["build-graph", "{empty}"], "no crystal files found"),
        (["train", "--data", "{data}", "--targets", "{targets}", "--out-dir", "{run}"], "no target for crystal 'a'"),
        # a construction flag given to a construction that does not read it
        (["audit", "{cube}", "--builder", "radius", "--radius", "nan", "--trials", "2"],
         "--radius is not read by the radius construction, only by ocgraph"),
        (["audit", "{cube}", "--builder", "knn", "--radius", "nan"],
         "--radius is not read by the knn construction, only by ocgraph"),
        (["audit", "{cube}", "--builder", "ocgraph", "--k", "0"], "--k is not read by the ocgraph construction, only by knn"),
        (["audit", "{cube}", "--builder", "knn", "--self-edges"],
         "--self-edges is not read by the knn construction, only by radius and tfc"),
        (["audit", "{cube}", "--builder", "tfc", "--rank", "4"], "--rank is not read by the tfc construction, only by radius"),
        (["build-graph", "{cube}", "--t", "2"], "--t is not read by the radius construction, only by tfc"),
        (["build-graph", "{cube}", "--method", "tfc", "--rank", "12"],
         "--rank is not read by the tfc construction, only by radius"),
        (["featurize", "{cube}", "--method", "tfc", "--rank", "4"],
         "--rank is not read by the tfc construction, only by radius"),
        # the budget line stays short at a radius whose estimate has about 900 digits
        (["audit", "{cube}", "--builder", "ocgraph", "--radius", "1e300"],
         "cannot audit the ocgraph builder: neighbor search over 1 atoms at r=1.000e+300 would need "
         "5.112e+896 MiB for its image grid (limit 1024 MiB)"),
        # two atoms at one point, and one atom on another's periodic image
        (["build-graph", "{same}"], "cannot read {same}: atoms 0 and 1 are closer than 1e-09 angstrom "
         "(periodic images included): a crystal needs distinct sites"),
        (["audit", "{image}"], "cannot read {image}: atoms 0 and 1 are closer than 1e-09 angstrom "
         "(periodic images included): a crystal needs distinct sites"),
    ])
    def test_exits_two_with_one_line(self, tmp_path, cube_file, capsys, argv, message):
        paths = {"n": tmp_path / "n.json", "cube": cube_file, "run": tmp_path / "run", "empty": tmp_path / "empty",
                 "data": tmp_path / "data", "targets": tmp_path / "t.csv", "same": tmp_path / "same.json",
                 "image": tmp_path / "image.poscar"}
        paths["n"].write_text("3")
        paths["same"].write_text(json.dumps({"atomic_numbers": [1, 1], "positions": [[0.5, 0.5, 0.5]] * 2,
                                             "lattice": np.eye(3).tolist()}))
        paths["image"].write_text(CUBE_POSCAR.replace("H\n1\nDirect", "H\n2\nCartesian") + "1.0 0.0 0.0\n")
        paths["empty"].mkdir()
        paths["data"].mkdir()
        (paths["data"] / "a.poscar").write_text(CUBE_POSCAR)
        paths["targets"].write_text("id,target\nb,1.0\n")
        with pytest.raises(SystemExit) as err:
            main([arg.format(**paths) for arg in argv])
        assert err.value.code == 2
        assert capsys.readouterr().err == message.format(**paths) + "\n"
        assert not paths["run"].exists()

    @pytest.mark.parametrize("command", ["build-graph", "featurize"])
    def test_out_takes_one_crystal(self, tmp_path, corpus_dir, cube_file, capsys, command):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as err:
            main([command, corpus_dir, "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr() == ("", f"--out takes one crystal, got 3 in {corpus_dir}\n")
        assert not out.exists()
        # one crystal: --out holds what the command prints without it
        assert main([command, cube_file, "--out", str(out)]) == 0 and main([command, cube_file]) == 0
        printed = capsys.readouterr().out.split("\n", 1)[1]  # after the "wrote" line
        assert printed == out.read_text() + ("\n" if command == "featurize" else "")

    V1 = os.path.join(os.path.dirname(__file__), "checkpoint_v1.json")
    NO_FILE = "[Errno 2] No such file or directory: '{missing}'"

    @pytest.mark.parametrize("argv", [["build-graph", "{big}"], ["audit", "{big}"], ["featurize", "{big}"],
                                      ["predict", "--checkpoint", V1, "--data", "{big}"]])
    def test_cell_out_of_float_range_exits_two(self, tmp_path, capsys, argv):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"atomic_numbers": [1], "positions": [[0, 0, 0]],
                                   "lattice": (1e200 * np.eye(3)).tolist()}))
        with pytest.raises(SystemExit) as err:
            main([arg.format(big=big) for arg in argv])
        assert err.value.code == 2
        assert capsys.readouterr().err == (f"cannot read {big}: lattice leaves the float range: "
                                           "the cell volume (its determinant) is not finite\n")

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "{corpus}", "--targets", "{missing}"], "cannot read {missing}: " + NO_FILE),
        (["train", "--data", "{corpus}", "--targets", "{nan}"],
         "cannot train on {nan}: record 'c0' has a non-finite target"),
        (["train", "--data", "{corpus}", "--targets", "{x}"], "cannot read {x}: line 2: non-numeric target 'x'"),
        (["train", "--synthetic", "4", "--config", "{missing}"], "cannot read {missing}: " + NO_FILE),
        (["train", "--synthetic", "4", "--config", "{nonsense}"],
         "cannot read {nonsense}: line 1: expected key=value, got 'nonsense'"),
        (["predict", "--checkpoint", "{missing}", "--data", "{corpus}"], "cannot load checkpoint {missing}: " + NO_FILE),
        (["predict", "--checkpoint", "{corpus}", "--data", "{corpus}"],
         "cannot load checkpoint {corpus}: [Errno 21] Is a directory: '{corpus}'"),
        (["predict", "--checkpoint", V1, "--data", "{corpus}", "--targets", "{missing}"],
         "cannot read {missing}: " + NO_FILE),
        (["predict", "--checkpoint", V1, "--data", "{corpus}", "--targets", "{x}"],
         "cannot read {x}: line 2: non-numeric target 'x'"),
    ])
    def test_unusable_train_or_predict_file_exits_two(self, tmp_path, corpus_dir, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # where train's default --out-dir would be made
        paths = {"corpus": corpus_dir, "missing": str(tmp_path / "missing"), "nan": tmp_path / "nan.csv",
                 "x": tmp_path / "x.csv", "nonsense": tmp_path / "nonsense.cfg"}
        paths["nan"].write_text("id,target\nc0,nan\nc1,1\nc2,2\n")
        paths["x"].write_text("id,target\nc0,x\n")
        paths["nonsense"].write_text("nonsense\n")
        with pytest.raises(SystemExit) as err:
            main([arg.format(**paths) for arg in argv])
        stderr = capsys.readouterr().err
        assert err.value.code == 2
        assert stderr == message.format(**paths) + "\n" and "Traceback" not in stderr
        assert not (tmp_path / "run").exists()


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "line-graph-size"])
        assert err.value.code == 2

    def test_audit_takes_no_method(self, cube_file, capsys):
        # audit builds the construction --builder names
        with pytest.raises(SystemExit) as err:
            main(["audit", cube_file, "--method", "tfc"])
        assert err.value.code == 2
        assert "unrecognized arguments: --method tfc" in capsys.readouterr().err

    def test_train_without_data_errors(self):
        with pytest.raises(SystemExit):
            main(["train"])
