"""Command-line surface: graph construction, invariance audits, featurization,
training, prediction, and the line-graph size analysis.

``train --config`` reads a flat key=value run config whose keys are
``model.<ModelConfig field>`` or ``train.<TrainConfig field>``; any other
key is rejected."""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import threading
from dataclasses import asdict, fields

import numpy as np

from . import audit as audit_mod
from . import engine, io, synthetic, training
from .featurize import GraphEmbedding, prepare_graph
from .model import Matformer, ModelConfig


class CannotRun(SystemExit):
    """A command that could not run: its one-line message goes to stderr
    (printed by ``main``) and the exit status is 2, as for argparse's usage
    errors, so that status 1 keeps meaning "violations found" in ``audit``."""

    def __init__(self, message: str):
        super().__init__(message)
        self.code = 2


def _load_crystals(paths: list[str]) -> list[tuple[str, "object"]]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(
                p
                for p in glob.glob(os.path.join(path, "*"))
                if p.endswith(".json") or "POSCAR" in os.path.basename(p) or p.endswith(".poscar")
            ))
        else:
            files.append(path)
    if not files:
        raise CannotRun("no crystal files found")
    ids: dict[str, str] = {}
    for path in files:  # an id keys a prediction row and its target
        name = os.path.splitext(os.path.basename(path))[0]
        if name in ids:
            raise CannotRun(f"crystal files {ids[name]} and {path} both have id {name!r}")
        ids[name] = path
    out = []
    for name, path in ids.items():
        try:
            out.append((name, io.read_crystal(path)))
        except (OSError, ValueError) as err:
            raise CannotRun(f"cannot read {path}: {err}") from None
    return out


def _parse_file(path: str, parse):
    """``parse`` of the text of ``path``; a file that cannot be read or
    parsed is a ``CannotRun`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as err:  # ValueError includes ParseError and UnicodeDecodeError
        raise CannotRun(f"cannot read {path}: {err}") from None


def cmd_build_graph(args) -> int:
    crystals = _load_crystals([args.input])
    build = audit_mod.make_builder(args.method, neighbor_rank=args.rank, t=args.t, self_edges=args.self_edges)
    for name, crystal in crystals:
        try:
            graph = build(crystal)
        except ValueError as err:
            raise CannotRun(f"cannot build a {args.method} graph of {name}: {err}") from None
        text = io.graph_to_text(graph) if args.format == "text" else io.graph_to_json(graph)
        if args.out:
            io.atomic_write(args.out, text)
            print(f"{name}: wrote {len(graph.edges)} edges to {args.out}")
        else:
            print(text, end="")
    return 0


def cmd_audit(args) -> int:
    if args.trials < 1:
        raise CannotRun(f"--trials must be >= 1, got {args.trials}: an audit of no trial shows nothing")
    crystals = [c for _, c in _load_crystals(args.inputs)]
    builder = audit_mod.make_builder(
        args.builder,
        neighbor_rank=args.rank,
        t=args.t,
        self_edges=args.self_edges,
        radius=args.radius,
        k=args.k,
        perturbation_seed=args.seed,
    )
    alphas = ((1, 1, 1),) if args.no_supercell else audit_mod.DEFAULT_ALPHAS
    try:
        if args.mode == "periodic":
            report = audit_mod.audit_periodic_invariance(
                builder, crystals, args.trials, args.seed, alphas=alphas, name=args.builder
            )
        else:
            report = audit_mod.audit_e3_invariance(
                builder, crystals, args.trials, args.seed, name=args.builder
            )
    except ValueError as err:
        raise CannotRun(f"cannot audit the {args.builder} builder: {err}") from None
    payload = json.dumps(asdict(report), indent=1, allow_nan=False)
    if args.out:
        io.atomic_write(args.out, payload)
    print(
        f"{args.builder}: {report.violations} violation(s) in {report.trials} trials, "
        f"worst discrepancy {report.worst_discrepancy:.3e}"
    )
    if report.witness is not None:
        print("witness transform:", json.dumps(report.witness["transform"]))
    return 1 if report.violations > 0 else 0


def cmd_featurize(args) -> int:
    crystals = _load_crystals([args.input])
    rng = np.random.default_rng(args.seed)
    embedding = GraphEmbedding(args.d_model, n_kernels=args.kernels, rng=rng)
    build = audit_mod.make_builder(args.method, neighbor_rank=args.rank, t=args.t, self_edges=args.self_edges)
    for name, crystal in crystals:
        try:  # the embedding's RBF grid rejects its kernel count when it expands the distances
            prepared = prepare_graph(build(crystal))
            with engine.no_grad():
                node_input, edge_input = embedding.node_input(prepared), embedding.edge_input(prepared)
        except ValueError as err:
            raise CannotRun(f"cannot featurize {name}: {err}") from None
        payload = json.dumps(
            {
                "id": name,
                "node_input": node_input.values.tolist(),
                "edge_input": edge_input.values.tolist(),
                "src": prepared.src.tolist(),
                "dst": prepared.dst.tolist(),
            }
        )
        if args.out:
            io.atomic_write(args.out, payload)
            print(f"{name}: features written to {args.out}")
        else:
            print(payload)
    return 0


def _parse_bool(raw: str) -> bool:
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    if raw.lower() not in words:
        raise ValueError(f"expected one of {sorted(words)}, got {raw!r}")
    return words[raw.lower()]


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def _run_configs(mapping: dict[str, str]) -> tuple[ModelConfig, training.TrainConfig]:
    """The model and training configs a run config sets; other fields keep their defaults."""
    sections = {"model": ModelConfig, "train": training.TrainConfig}
    known = {f"{prefix}.{f.name}": f.type for prefix, cls in sections.items() for f in fields(cls)}
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise CannotRun(f"unknown run-config keys: {unknown}; accepted keys: {sorted(known)}")
    kwargs = {prefix: {} for prefix in sections}
    for key, raw in mapping.items():
        prefix, name = key.split(".", 1)
        try:
            kwargs[prefix][name] = _PARSERS[known[key]](raw)
        except ValueError as err:
            raise CannotRun(f"run-config key {key}: {err}") from err
    try:
        return ModelConfig(**kwargs["model"]), training.TrainConfig(**kwargs["train"])
    except ValueError as err:
        raise CannotRun(f"invalid run config: {err}") from err


def _load_dataset(args) -> list[io.DatasetRecord]:
    if args.synthetic:
        target_fn = synthetic.TARGET_FUNCTIONS[args.target]
        crystals = synthetic.random_corpus(args.synthetic, seed=args.data_seed)
        return [
            io.DatasetRecord(id=f"syn-{i:04d}", crystal=c, target=target_fn(c))
            for i, c in enumerate(crystals)
        ]
    if not args.data or not args.targets:
        raise CannotRun("provide --synthetic N or both --data and --targets")
    targets = _parse_file(args.targets, io.parse_targets_csv)
    records = []
    for name, crystal in _load_crystals([args.data]):
        if name not in targets:
            raise CannotRun(f"no target for crystal {name!r}")
        try:
            records.append(io.DatasetRecord(id=name, crystal=crystal, target=targets[name]))
        except ValueError as err:
            raise CannotRun(f"cannot train on {args.targets}: {err}") from None
    return records


def _split(records, val_fraction, test_fraction, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_val = int(len(records) * val_fraction)
    n_test = int(len(records) * test_fraction)
    val_ids = order[:n_val]
    test_ids = order[n_val : n_val + n_test]
    train_ids = order[n_val + n_test :]
    pick = lambda ids: [records[i] for i in ids]
    return pick(train_ids), pick(val_ids), pick(test_ids)


def _predict_share(model: Matformer, scale: dict, crystals) -> list[tuple[float, Exception | None]]:
    """``(prediction, error)`` for each crystal in order, in target units,
    ending with the first crystal whose forward raises. The error is
    returned, not raised, so that a forked worker can send it to the parent."""
    pairs = []
    for crystal in crystals:
        try:
            pairs.append((model.predict(crystal) * scale["std"] + scale["mean"], None))
        except Exception as err:
            pairs.append((math.nan, err))
            break
    return pairs


def _send_share(conn, model: Matformer, scale: dict, crystals) -> None:
    """A forked worker's body: one share's pairs, sent to the parent."""
    with conn:
        conn.send(_predict_share(model, scale, crystals))


def _worker_count(n_crystals: int) -> int:
    """One worker per CPU this process may run on, at most one per crystal;
    one where the platform has no affinity mask or this process may not
    fork: a fork copies no other thread, which may hold a lock the child
    needs, and a daemonic ``multiprocessing`` worker may not have children."""
    try:
        workers = min(len(os.sched_getaffinity(0)), n_crystals)
    except AttributeError:
        return 1
    if workers < 2:
        return 1
    import multiprocessing  # here, so that a command that forks nothing does not pay for the import

    can_fork = ("fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
                and not multiprocessing.current_process().daemon)
    return workers if can_fork else 1


def _balanced_shares(sizes: list[int], n: int) -> list[list[int]]:
    """The indices of ``sizes`` in ``n`` shares of about equal total size,
    largest first into the lightest share so far, each share in input order."""
    shares: list[list[int]] = [[] for _ in range(n)]
    totals = [0] * n
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        k = totals.index(min(totals))
        shares[k].append(i)
        totals[k] += sizes[i]
    return [sorted(share) for share in shares]


def _predict_shares(model: Matformer, scale: dict, shares: list[list]) -> list[list]:
    """``_predict_share`` of each share of crystals: the first in this process,
    each other in a child forked here, which inherits the model and sends
    back only its pairs. No child outlives the call."""
    if len(shares) == 1:
        return [_predict_share(model, scale, shares[0])]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for share in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_share, args=(send, model, scale, share))
            child.start()
            send.close()  # so that a child that dies before sending is an EOFError here
            children.append((child, recv))
        out = [_predict_share(model, scale, shares[0])]
        for child, recv in children:
            try:
                out.append(recv.recv())
            except EOFError:
                child.join()
                raise RuntimeError(f"prediction worker {child.pid} exited with status {child.exitcode} "
                                   "before sending its predictions") from None
        return out
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            child.close()
            recv.close()


def _predict_rows(model: Matformer, scale: dict, items) -> list[tuple[str, float, float]]:
    """``(id, prediction, target)`` for each ``(id, crystal, target)``, in target
    units, one crystal per forward: ``train``'s test split and ``predict`` on
    the checkpoint it wrote give the same bits (a batched forward may differ
    in the last place).

    The crystals are split into shares of about equal atom count, one per
    worker (``_worker_count``); each worker runs the same forward, so the
    bits do not depend on the worker count. The first failing crystal in
    input order is the one reported.
    """
    shares = _balanced_shares([crystal.n_atoms for _, crystal, _ in items], _worker_count(len(items)))
    crystal_shares = [[items[i][1] for i in share] for share in shares]
    pairs = {}
    for share, share_pairs in zip(shares, _predict_shares(model, scale, crystal_shares)):
        pairs.update(zip(share, share_pairs))  # by position, never by id
    rows = []
    for i, (name, _, target) in enumerate(items):
        pred, err = pairs[i]  # a share stops at its first failure, so any index missing follows one
        if isinstance(err, FloatingPointError):
            raise CannotRun(f"cannot predict {name}: {err}") from None
        if err is not None:
            raise err
        rows.append((name, pred, target))
    return rows


def cmd_train(args) -> int:
    for flag, value in (("--val-fraction", args.val_fraction), ("--test-fraction", args.test_fraction)):
        if not 0 <= value < 1:  # true of nan too, which fails every comparison
            raise CannotRun(f"{flag} must be a fraction in [0, 1), got {value}")
    if args.val_fraction + args.test_fraction >= 1:
        raise CannotRun(f"--val-fraction {args.val_fraction} and --test-fraction {args.test_fraction} "
                        "sum to 1 or more: no crystal is left to train on")
    mapping = _parse_file(args.config, io.parse_run_config) if args.config else {}
    model_config, train_config = _run_configs(mapping)

    records = _load_dataset(args)
    train_recs, val_recs, test_recs = _split(records, args.val_fraction, args.test_fraction, train_config.seed)
    if not val_recs:
        raise CannotRun(
            f"--val-fraction {args.val_fraction} leaves no validation crystal among {len(records)}; "
            "best-checkpoint selection needs at least one: raise --val-fraction or add crystals"
        )
    model = Matformer(model_config, seed=train_config.seed)
    try:
        result = training.train(model, train_recs, val_recs, train_config)
    except (ValueError, training.TrainingDivergedError) as err:  # data train rejects, or divergence
        raise CannotRun(f"cannot train: {err}") from None

    os.makedirs(args.out_dir, exist_ok=True)
    io.atomic_write(os.path.join(args.out_dir, "log.csv"), io.write_training_log_csv(result.log))
    io.atomic_write(
        os.path.join(args.out_dir, "checkpoint.json"), json.dumps(result.best_checkpoint)
    )
    if test_recs:
        rows = _predict_rows(result.best_model, result.best_checkpoint["target_scale"],
                             [(r.id, r.crystal, r.target) for r in test_recs])
        io.atomic_write(os.path.join(args.out_dir, "predictions.csv"), io.write_predictions_csv(rows))
    print(f"best validation MAE: {result.best_val_mae:.6f} (artifacts in {args.out_dir})")
    return 0


def cmd_predict(args) -> int:
    try:
        with open(args.checkpoint, "r", encoding="utf-8") as fh:
            checkpoint = json.load(fh)
        model = Matformer.from_checkpoint(checkpoint)  # checks target_scale too
    except (OSError, ValueError) as err:  # ValueError includes JSONDecodeError and UnicodeDecodeError
        raise CannotRun(f"cannot load checkpoint {args.checkpoint}: {err}") from None
    scale = checkpoint.get("target_scale")
    del checkpoint  # megabytes of base64 text the model no longer needs
    if scale is None:
        print("warning: checkpoint has no target_scale; predictions are in normalized units "
              "(mean 0, std 1)", file=sys.stderr)
        scale = {"mean": 0.0, "std": 1.0}
    targets = _parse_file(args.targets, io.parse_targets_csv) if args.targets else {}
    rows = _predict_rows(model, scale, [(name, crystal, targets.get(name, math.nan))
                                        for name, crystal in _load_crystals([args.data])])
    text = io.write_predictions_csv(rows)
    if args.out:
        io.atomic_write(args.out, text)
        print(f"wrote {len(rows)} predictions to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_analyze(args) -> int:
    try:  # args.what is "line-graph-size", the one choice argparse accepts
        nodes, edges = audit_mod.line_graph_size(args.n, degree=args.degree)
    except ValueError as err:
        raise CannotRun(f"cannot analyze line-graph-size: {err}") from None
    print(f"nodes={nodes} edges={edges}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matformer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_options(p):
        p.add_argument("--rank", type=int, default=12, help="neighbor rank for the radius method")
        p.add_argument("--t", type=int, default=3, help="edges per pair for the tfc method")
        p.add_argument("--self-edges", action="store_true", help="add the six lattice self edges")

    p = sub.add_parser("build-graph", help="construct a crystal graph")
    p.add_argument("input")
    p.add_argument("--method", choices=("radius", "tfc"), default="radius")
    add_graph_options(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("audit", help="fuzz a construction for invariance violations")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--builder", choices=("radius", "tfc", "ocgraph", "knn"), default="radius")
    add_graph_options(p)  # and no --method: --builder names the construction
    p.add_argument("--mode", choices=("periodic", "e3"), default="periodic")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float, default=1.0, help="radius for the ocgraph builder")
    p.add_argument("--k", type=int, default=12, help="neighbor count for the knn builder")
    p.add_argument("--no-supercell", action="store_true", help="audit boundary shifts only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("featurize", help="embed a crystal graph with seeded weights")
    p.add_argument("input")
    p.add_argument("--method", choices=("radius", "tfc"), default="radius")
    add_graph_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-model", type=int, default=128)
    p.add_argument("--kernels", type=int, default=128)
    p.add_argument("--out")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train on a dataset or a synthetic corpus")
    p.add_argument("--data", help="directory of crystal files")
    p.add_argument("--targets", help="CSV mapping crystal id to target")
    p.add_argument("--synthetic", type=int, default=0, help="generate N synthetic crystals instead")
    p.add_argument("--target", choices=sorted(synthetic.TARGET_FUNCTIONS), default="mean_lattice_length")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--config", help="flat key=value run config")
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--out-dir", default="run")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict with a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--targets")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("analyze", help="derived size analyses")
    p.add_argument("what", choices=("line-graph-size",))
    p.add_argument("--n", type=int, required=True, help="atoms per cell")
    p.add_argument("--degree", type=int, default=12)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CannotRun as err:
        print(err, file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
