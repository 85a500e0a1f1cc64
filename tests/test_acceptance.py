"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavyweight corpora are module-scoped fixtures so the whole
suite stays within a few minutes on one core.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from matformer.audit import (
    audit_e3_invariance,
    audit_knn_determinism,
    audit_periodic_invariance,
    knn_distance_only_builder,
    line_graph_size,
    make_builder,
    ocgraph_builder,
    quotient_discrepancy,
    shift_sensitive_crystal,
    tie_crystal,
)
from matformer.crystal import crystal_from_frac, shift_boundary, supercell
from matformer.engine import backward
from matformer.featurize import batch_prepared
from matformer.graphs import build_radius_graph, build_t_fully_connected, lattice_gram_from_six, self_connecting_distances
from matformer.io import DatasetRecord
from matformer.model import Matformer, ModelConfig
from matformer.synthetic import density, mean_lattice_length, min_image_distance, random_corpus, random_lattice
from matformer.training import TrainConfig, evaluate, ewt, mae, train
from matformer import engine
from oracles import explicit_line_graph_size, finite_difference_gradients, ring_multigraph

TOL_SIGNATURE = 1e-9


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(100, seed=1234, n_atoms_max=6)


@pytest.fixture(scope="module")
def compact_model():
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=32, rbf_kernels=16, readout_hidden=32)
    return Matformer(cfg, seed=99)


def test_criterion_01_periodic_invariance_theorem(corpus):
    start = time.perf_counter()
    radius_report = audit_periodic_invariance(
        make_builder("radius"), corpus, trials_per_crystal=20, seed=11,
        alphas=((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)), tol=TOL_SIGNATURE, name="radius",
    )
    tfc_report = audit_periodic_invariance(
        make_builder("tfc"), corpus, trials_per_crystal=20, seed=12,
        alphas=((1, 1, 1),), tol=TOL_SIGNATURE, name="tfc",
    )
    elapsed = time.perf_counter() - start
    # outside the minimal-cell scope of the invariance proof, the per-pair
    # t-smallest selection is structurally supercell-sensitive; pinned here
    # as a documented negative result
    cube = build_t_fully_connected(corpus[0], t=3)
    departure = quotient_discrepancy(
        cube, build_t_fully_connected(supercell(corpus[0], (2, 1, 1)), t=3), corpus[0].n_atoms
    )
    print(f"[criterion  1] NOTE: tfc under a (2,1,1) supercell departs as expected "
          f"(quotient discrepancy {departure})")
    ok = (
        radius_report.violations == 0
        and tfc_report.violations == 0
        and radius_report.trials == 2000
        and tfc_report.trials == 2000
        and elapsed < 120.0
        and departure == np.inf
    )
    _report(
        1,
        ok,
        f"radius 0/{radius_report.trials} violations across shifts+supercells, "
        f"tfc 0/{tfc_report.trials} across shifts (minimal-cell scope), {elapsed:.1f}s < 120s",
    )


def test_criterion_02_e3_invariance(corpus, compact_model):
    radius_report = audit_e3_invariance(
        make_builder("radius", self_edges=True), corpus, trials_per_crystal=20, seed=21,
        tol=TOL_SIGNATURE, name="radius+self",
    )
    tfc_report = audit_e3_invariance(
        make_builder("tfc"), corpus, trials_per_crystal=20, seed=22, tol=TOL_SIGNATURE, name="tfc",
    )

    from matformer.crystal import E3Transform, apply_e3, random_orthogonal

    rng = np.random.default_rng(23)
    worst_delta = 0.0
    for crystal in corpus:
        base = compact_model.predict(crystal)
        for _ in range(20):
            t = E3Transform(random_orthogonal(rng), rng.uniform(-5, 5, 3))
            delta = abs(compact_model.predict(apply_e3(crystal, t)) - base)
            worst_delta = max(worst_delta, delta)
    ok = (
        radius_report.violations == 0
        and tfc_report.violations == 0
        and worst_delta < 1e-6
    )
    _report(
        2,
        ok,
        f"graph signatures 0/{radius_report.trials + tfc_report.trials} violations, "
        f"model delta max {worst_delta:.2e} < 1e-6",
    )


def test_criterion_03_negative_controls():
    oc_report = audit_periodic_invariance(
        make_builder("ocgraph", radius=0.5),
        [shift_sensitive_crystal()],
        trials_per_crystal=10,
        seed=31,
        alphas=((1, 1, 1),),
        name="ocgraph",
    )
    witness_ok = (
        oc_report.witness is not None
        and json.loads(json.dumps(oc_report.witness))["transform"]["type"] == "periodic"
    )

    knn_report = audit_knn_determinism(tie_crystal(), k=1, seeds=tuple(range(8)))
    picks = set()
    for s in range(8):
        g = knn_distance_only_builder(tie_crystal(), k=1, perturbation_seed=s)
        (edge,) = [e for e in g.edges if e.dst == 1]
        picks.add(int(g.node_atomic_numbers[edge.src]))
    knn_shift_report = audit_periodic_invariance(
        make_builder("knn", k=1, perturbation_seed=0), [tie_crystal()],
        trials_per_crystal=12, seed=2, alphas=((1, 1, 1),), name="knn",
    )
    ok = (
        oc_report.violations >= 1
        and witness_ok
        and knn_report.violations >= 1
        and picks == {3, 9}
        and knn_shift_report.violations >= 1
    )
    _report(
        3,
        ok,
        f"ocgraph {oc_report.violations}/10 violations with serialized witness; "
        f"knn tie picks both species {sorted(picks)} and is flagged "
        f"({knn_report.violations} seed flips, {knn_shift_report.violations} shift flips)",
    )


def _oracle_radius_edges(crystal, rank=12):
    """Independent neighbor search: fixed raw-k box, no recentering."""
    lattice = crystal.lattice
    vol = abs(np.linalg.det(lattice))
    spacings = np.array(
        [
            vol / np.linalg.norm(np.cross(lattice[1], lattice[2])),
            vol / np.linalg.norm(np.cross(lattice[2], lattice[0])),
            vol / np.linalg.norm(np.cross(lattice[0], lattice[1])),
        ]
    )
    n = crystal.n_atoms
    per_node = []
    for i in range(n):
        # generous first pass to find the rank-th distance
        dists = []
        wide = [np.arange(-6, 7)] * 3
        grid = np.stack(np.meshgrid(*wide, indexing="ij"), -1).reshape(-1, 3)
        offsets = grid @ lattice
        for j in range(n):
            d = np.linalg.norm(crystal.positions[j] + offsets - crystal.positions[i], axis=1)
            if i == j:
                d = d[d > 1e-12]
            dists.extend(d)
        r_i = float(np.sort(dists)[rank - 1])
        bound = np.ceil(r_i / spacings).astype(int) + 2
        axes = [np.arange(-b, b + 1) for b in bound]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        offsets = grid @ lattice
        edges = set()
        for j in range(n):
            d = np.linalg.norm(crystal.positions[j] + offsets - crystal.positions[i], axis=1)
            keep = d <= r_i + 1e-9
            if i == j:
                keep &= d > 1e-12
            for kvec, dist in zip(grid[keep], d[keep]):
                edges.add((j, i, tuple(int(v) for v in kvec), round(float(dist), 9)))
        per_node.append(edges)
    return per_node


def test_criterion_04_neighbor_search_oracle():
    cells = random_corpus(200, seed=4321, n_atoms_max=6)
    mismatches = 0
    for crystal in cells:
        graph = build_radius_graph(crystal)
        got = [set() for _ in range(crystal.n_atoms)]
        for e in graph.edges:
            got[e.dst].add((e.src, e.dst, e.image.k, round(e.distance, 9)))
        expected = _oracle_radius_edges(crystal)
        for node in range(crystal.n_atoms):
            if got[node] != expected[node]:
                mismatches += 1
    _report(4, mismatches == 0, f"200 random cells, edge-for-edge agreement, {mismatches} discrepancies")


def test_criterion_05_self_edge_sufficiency():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        lattice = random_lattice(rng)
        six = [d for _, d in self_connecting_distances(lattice)]
        gram = lattice_gram_from_six(six)
        worst = max(worst, float(np.abs(gram - lattice @ lattice.T).max()))
    _report(5, worst < 1e-9, f"Gram recovery on 100 random lattices, max entry error {worst:.2e} < 1e-9")


def test_criterion_06_gradient_correctness():
    start = time.perf_counter()
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, rbf_kernels=8, readout_hidden=8)
    model = Matformer(cfg, seed=66)
    crystal = random_corpus(1, seed=67, n_atoms_max=2)[0]
    prepared = model.prepare(crystal)
    target = 0.3

    def build():
        out = model.forward(prepared, training=False)
        diff = engine.sub(out, engine.Tensor(np.array([[target]])))
        return engine.mean(engine.mul(diff, diff))

    loss = build()
    model.zero_grad()
    backward(loss)
    params = model.parameters()
    numeric = finite_difference_gradients(build, params, h=1e-5)
    worst_name, worst_err = None, 0.0
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        fd = numeric[name]
        # scale-aware floor: elements far below the tensor's gradient scale
        # are certified by absolute agreement (central differences cannot
        # resolve them relative to 1e-8 in f64 at this loss scale)
        floor = 1e-8 + 1e-6 * np.abs(fd).max()
        err = float((np.abs(analytic - fd) / (np.abs(fd) + floor)).max())
        if err > worst_err:
            worst_name, worst_err = name, err
    elapsed = time.perf_counter() - start
    n_params = sum(p.values.size for p in params.values())
    ok = worst_err < 1e-4 and elapsed < 60.0
    _report(
        6,
        ok,
        f"{n_params} parameters checked, worst rel err {worst_err:.2e} ({worst_name}), "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_07_supercell_model_invariance():
    cfg = ModelConfig(
        n_layers=2, n_heads=2, d_model=32, rbf_kernels=16, readout_hidden=32, use_self_edges=False
    )
    model = Matformer(cfg, seed=77)
    crystals = random_corpus(20, seed=78, n_atoms_max=6)
    worst = 0.0
    for crystal in crystals:
        base = model.predict(crystal)
        doubled = model.predict(supercell(crystal, (2, 2, 2)))
        worst = max(worst, abs(base - doubled))
    _report(7, worst < 1e-5, f"20 crystals vs (2,2,2) supercells, max |delta| {worst:.2e} < 1e-5")


def test_criterion_08_overfit_sanity():
    crystals = random_corpus(32, seed=11, n_atoms_max=4)
    records = [
        DatasetRecord(id=f"c{i}", crystal=c, target=mean_lattice_length(c))
        for i, c in enumerate(crystals)
    ]
    std = float(np.array([r.target for r in records]).std())
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=32, rbf_kernels=32, readout_hidden=32)
    tc = TrainConfig(lr_max=1e-2, epochs=125, batch_size=8, seed=0)  # 4 steps/epoch -> 500 steps

    logs = []
    best = math.inf
    for _ in range(2):
        model = Matformer(cfg, seed=0)
        result = train(model, records, records, tc)
        logs.append(result.log)
        best = min(best, result.best_val_mae)
    steps = tc.epochs * math.ceil(len(records) / tc.batch_size)
    ok = best < 0.05 * std and logs[0] == logs[1] and steps == 500
    _report(
        8,
        ok,
        f"train MAE {best:.4f} < {0.05 * std:.4f} (5% of target std) within {steps} steps; "
        f"two seeded runs identical: {logs[0] == logs[1]}",
    )


def test_criterion_09_line_graph_sizes():
    formula_ok = line_graph_size(1) == (6, 66) and line_graph_size(10) == (60, 660)
    construction_ok = all(
        explicit_line_graph_size(ring_multigraph(n, 12)) == line_graph_size(n, 12)
        for n in range(2, 9)
    )
    _report(
        9,
        formula_ok and construction_ok,
        "6n nodes / 66n edges for n in {1,10}; explicit 12-regular construction matches exactly for n in [2,8]",
    )


def test_criterion_10_metrics():
    preds = np.array([0.005, 0.03, 0.015])
    targets = np.zeros(3)
    fixture_ok = ewt(preds, targets, 0.02) == 2 / 3
    x = np.array([1.0, -2.0, 0.5])
    mae_ok = mae(x, x) == 0.0
    _report(10, fixture_ok and mae_ok, "ewt fixture = 2/3 exactly; mae(x, x) = 0")


def test_criterion_11_non_reproducibility_statement():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read().lower()
    ok = "0.021" in text and "not reproduc" in text and "property-based" in text
    _report(
        11,
        ok,
        "README states that published desk-scale-infeasible benchmark numbers are not "
        "reproduced and that property-based acceptance substitutes for them",
    )


def test_criterion_12_degree_sensitivity():
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, rbf_kernels=8, readout_hidden=8)
    model = Matformer(cfg, seed=5)
    from matformer.crystal import crystal_from_frac

    crystal = crystal_from_frac([1], [[0, 0, 0]], np.eye(3))
    prepared = model.prepare(crystal)
    base = model.forward(prepared).values[0, 0]
    dup = batch_prepared([prepared])
    dup.distance = np.concatenate([prepared.distance, prepared.distance])
    dup.src = np.concatenate([prepared.src, prepared.src])
    dup.dst = np.concatenate([prepared.dst, prepared.dst])
    default_delta = abs(model.forward(dup).values[0, 0] - base)

    # renormalizing gate: the attention aggregate is exactly multiplicity-blind
    from test_model import TestDegreeSensitivity

    helper = TestDegreeSensitivity._gated_attention_aggregate
    softmax_model = Matformer(
        ModelConfig(n_layers=1, n_heads=2, d_model=8, rbf_kernels=8, readout_hidden=8,
                    attention_variant="softmax_vector"),
        seed=5,
    )
    node = softmax_model.embedding.node_input(prepared).values
    edge = softmax_model.embedding.edge_input(prepared).values
    layer = softmax_model.layers[0]
    agg = helper(layer, node, edge, prepared.src, prepared.dst, 1, "softmax_vector")
    agg_dup = helper(
        layer, node, np.concatenate([edge, edge]),
        np.concatenate([prepared.src, prepared.src]),
        np.concatenate([prepared.dst, prepared.dst]), 1, "softmax_vector",
    )
    softmax_delta = float(np.abs(agg_dup - agg).max())
    ok = default_delta > 1e-3 and softmax_delta < 1e-12
    _report(
        12,
        ok,
        f"edge duplication moves the default output by {default_delta:.2e} (> 1e-3) while the "
        f"softmax-vector attention aggregate shifts by {softmax_delta:.2e} (< 1e-12)",
    )


def _chain(b):
    """One atom per cell of the lattice diag(1, b, b): a chain along x whose
    radius graph, images along x alone for b from 6.2 to 7.8 A, does not
    depend on b."""
    return crystal_from_frac([6], [[0.0, 0.0, 0.0]], np.diag([1.0, b, b]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_criterion_13_repeating_pattern_encoding():
    start = time.perf_counter()
    # every b below rbf_hi (8 A), beyond which a self edge is invisible (TestSelfEdgeBlindSpot)
    spacings = np.linspace(6.2, 7.8, 16)
    records = [DatasetRecord(id=f"b{i}", crystal=_chain(b), target=float(b)) for i, b in enumerate(spacings)]
    floor = float(np.abs(spacings - np.median(spacings)).mean())  # the best constant prediction's MAE
    std = float(spacings.std())
    pair_ok, blind_ok, fit_ok = True, True, True
    worst_blind, worst_fit, gap = math.inf, 0.0, math.inf
    for seed in (1, 2, 3):
        for self_edges in (False, True):
            cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, rbf_kernels=16, readout_hidden=16,
                              use_self_edges=self_edges)
            model = Matformer(cfg, seed=seed)
            a, b = model.predict(_chain(6.5)), model.predict(_chain(7.5))
            if self_edges:
                pair_ok &= a != b
                gap = min(gap, abs(a - b))
            else:
                pair_ok &= a == b
            result = train(model, records, records, TrainConfig(lr_max=3e-3, epochs=60, batch_size=8, seed=seed))
            best, scale = result.best_model, result.best_checkpoint["target_scale"]
            preds = evaluate(best, [best.prepare(r.crystal) for r in records]) * scale["std"] + scale["mean"]
            if self_edges:
                fit_ok &= result.best_val_mae < 0.05 * std
                worst_fit = max(worst_fit, result.best_val_mae)
            else:
                blind_ok &= len(set(preds.tolist())) == 1 and result.best_val_mae >= floor
                worst_blind = min(worst_blind, result.best_val_mae)
    elapsed = time.perf_counter() - start
    _report(
        13,
        pair_ok and blind_ok and fit_ok and elapsed < 10.0,
        f"chains diag(1, b, b), b = 6.5 vs 7.5 A: equal bits without self edges, |delta| >= {gap:.2e} with; "
        f"fit on 16 chains, seeds 1-3: without self edges one constant prediction, MAE >= {worst_blind:.4f} "
        f">= floor {floor:.4f} A; with self edges MAE <= {worst_fit:.4f} A = {worst_fit / std:.1%} of the "
        f"target std (< 5%), {elapsed:.1f}s < 10s",
    )


class _OCGraphMatformer(Matformer):
    """The non-invariant control: a model on ``ocgraph`` graphs, whose nodes are
    the atom images near the cell, so they depend on where its boundaries sit.
    The radius reaches every atom's nearest image, so no node is isolated."""

    def build_graph(self, crystal):
        return ocgraph_builder(crystal, max(3.0, 1.1 * min_image_distance(crystal)))


def test_criterion_14_importance_of_periodic_invariance():
    start = time.perf_counter()
    records = [DatasetRecord(id=f"c{i}", crystal=c, target=density(c))
               for i, c in enumerate(random_corpus(40, seed=7, n_atoms_max=4))]
    train_records, val_records = records[:32], records[32:]
    cells = [r.crystal for r in train_records]
    rng = np.random.default_rng(99)
    shifted = [shift_boundary(c, rng.uniform(-1, 2, 3) @ c.lattice) for c in cells]
    targets = np.array([r.target for r in train_records])
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, rbf_kernels=16, readout_hidden=16, use_self_edges=False)
    worst_delta, worst_gap, rises, control_deltas = 0.0, 0.0, [], []
    for seed in (1, 2, 3):
        for model in (Matformer(cfg, seed=seed), _OCGraphMatformer(cfg, seed=seed)):
            result = train(model, train_records, val_records, TrainConfig(lr_max=3e-3, epochs=60, batch_size=8, seed=seed))
            best, scale = result.best_model, result.best_checkpoint["target_scale"]
            base, moved = (evaluate(best, [best.prepare(c) for c in group]) * scale["std"] + scale["mean"]
                           for group in (cells, shifted))
            delta = float(np.abs(moved - base).max())
            if isinstance(model, _OCGraphMatformer):
                rises.append(mae(moved, targets) / mae(base, targets) - 1.0)
                control_deltas.append(delta)
            else:
                worst_delta = max(worst_delta, delta)
                worst_gap = max(worst_gap, abs(mae(moved, targets) - mae(base, targets)))
    elapsed = time.perf_counter() - start
    _report(
        14,
        worst_delta <= 1e-9 and worst_gap <= 1e-9 and min(rises) >= 0.10 and elapsed < 20.0,
        f"fit on 32 cells (density), seeds 1-3, scored on boundary-shifted copies: the invariant model moves "
        f"by |delta| <= {worst_delta:.1e} (<= 1e-9), its MAE by {worst_gap:.1e} (<= 1e-9); the ocgraph "
        f"control's MAE rises by {', '.join(f'{r:+.1%}' for r in rises)} (each >= +10%), |delta| up to "
        f"{max(control_deltas):.1e}; {elapsed:.1f}s < 20s",
    )
