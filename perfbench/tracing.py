"""Span tracing of matformer's layers from outside the package.

``Tracer.install`` rebinds each probed function, in every loaded matformer
module that holds it (including names imported by value, such as
``audit.build_radius_graph`` or ``training.batch_prepared``, and dict
entries such as ``engine.ACTIVATIONS``), to a wrapper that records a span:
name, start, end, parent span, the round it belongs to, and an optional
note taken from the call's positional arguments and result.  Spans stay in memory;
``dump`` writes them out once the run ends.  ``uninstall`` restores every
original binding.

``per_layer_metrics`` turns the spans of the traced rounds into the
per-layer metrics named in ``BENCHMARK.json``: self time unless the metric
is marked inclusive, reported per round (every round does identical work).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

AUDIT, TRAIN, PREDICT = "audit", "train", "predict"
MODEL = frozenset({TRAIN, PREDICT})


def _edges(args, result):
    return (args[0].n_atoms, len(result.edges))


def _self_edges(args, result):
    return (args[1].n_atoms, len(result.edges) - len(args[0].edges))


def _report(args, result):
    return (result.trials, result.violations)


def _nbytes(args, result):
    return result.values.nbytes


@dataclass(frozen=True)
class Probe:
    """One traced function: where it lives, its span name, and which
    workloads must enter it (a probe that is never entered means a missed
    alias or a changed call path, and fails the run)."""

    module: str
    attr: str                      # "func" or "Class.method"
    span: str
    workloads: frozenset = frozenset()
    note: Callable | None = None


def _op(name: str, workloads=MODEL) -> Probe:
    return Probe("matformer.engine", name, f"engine.{name}", frozenset(workloads), _nbytes)


ENGINE_OPS = {
    "matmul": ("matmul",),
    "gather_rows": ("gather_rows",),
    "scatter_sum": ("scatter_sum",),
    "concat": ("concat",),
    "layer_norm": ("layer_norm",),
    "batch_norm": ("batch_norm",),
    "elementwise": ("add", "sub", "mul", "scale", "sigmoid", "silu", "softplus", "exp",
                    "mean", "tensor_sum", "reshape", "softmax", "segment_softmax"),
}

# Workloads that must call each op: the paper configuration never calls the
# softmax gate variants or the other activations, and only the training
# loss calls sub and mean.
_OP_WORKLOADS = {
    **dict.fromkeys(("softplus", "exp", "tensor_sum", "reshape", "softmax", "segment_softmax"), ()),
    **dict.fromkeys(("sub", "mean"), (TRAIN,)),
}

PROBES = (
    Probe("matformer.crystal", "supercell", "crystal.supercell", frozenset({AUDIT})),
    Probe("matformer.crystal", "shift_boundary", "crystal.shift_boundary", frozenset({AUDIT})),
    Probe("matformer.crystal", "apply_e3", "crystal.apply_e3", frozenset({AUDIT})),
    Probe("matformer.graphs", "build_radius_graph", "graphs.radius",
          frozenset({AUDIT, TRAIN, PREDICT}), _edges),
    Probe("matformer.graphs", "build_t_fully_connected", "graphs.tfc", frozenset({AUDIT}), _edges),
    Probe("matformer.graphs", "add_self_connecting_edges", "graphs.self_edges",
          frozenset({AUDIT, TRAIN, PREDICT}), _self_edges),
    Probe("matformer.audit", "audit_periodic_invariance", "audit.periodic", frozenset({AUDIT}), _report),
    Probe("matformer.audit", "audit_e3_invariance", "audit.e3", frozenset({AUDIT}), _report),
    Probe("matformer.audit", "graph_signature", "audit.graph_signature", frozenset({AUDIT})),
    Probe("matformer.audit", "node_signatures", "audit.node_signatures", frozenset({AUDIT})),
    Probe("matformer.audit", "signature_discrepancy", "audit.signature_discrepancy", frozenset({AUDIT})),
    Probe("matformer.audit", "quotient_discrepancy", "audit.quotient_discrepancy", frozenset({AUDIT})),
    Probe("matformer.featurize", "prepare_graph", "featurize.prepare", MODEL),
    Probe("matformer.featurize", "batch_prepared", "featurize.batch", frozenset({TRAIN})),
    Probe("matformer.featurize", "GraphEmbedding.node_input", "model.embed", MODEL),
    Probe("matformer.featurize", "GraphEmbedding.edge_input", "model.embed", MODEL),
    *(_op(name, _OP_WORKLOADS.get(name, MODEL)) for names in ENGINE_OPS.values() for name in names),
    Probe("matformer.engine", "backward", "engine.backward", frozenset({TRAIN})),
    Probe("matformer.model", "MatformerLayer.forward", "model.layer", MODEL),
    Probe("matformer.model", "Matformer.forward", "model.forward", MODEL),
    Probe("matformer.model", "Matformer.prepare", "model.prepare", MODEL),
    Probe("matformer.model", "Matformer.to_checkpoint", "training.to_checkpoint", frozenset({TRAIN})),
    Probe("matformer.model", "Matformer.from_checkpoint", "io.from_checkpoint", frozenset({PREDICT})),
    Probe("matformer.training", "train", "training.train", frozenset({TRAIN})),
    Probe("matformer.training", "adam_step", "training.adam_step", frozenset({TRAIN})),
    Probe("matformer.training", "evaluate", "training.evaluate", frozenset({TRAIN})),
    Probe("matformer.io", "read_crystal", "io.read_crystal", frozenset({PREDICT})),
    Probe("matformer.io", "write_predictions_csv", "io.write_predictions_csv", frozenset({PREDICT})),
    Probe("matformer.io", "atomic_write", "io.atomic_write", frozenset({PREDICT})),
    Probe("matformer.cli", "cmd_predict", "cli.predict", frozenset({PREDICT})),
)


class Tracer:
    """In-memory span recorder; a span is [name, start_ns, end_ns, parent, round, note]."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str, note):
        nid = self._name_id(span)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.round, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def _set(self, owner, key, value) -> None:
        old = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        if isinstance(owner, dict):
            owner[key] = value
            self._restore.append(lambda: owner.__setitem__(key, old))
        else:
            setattr(owner, key, value)
            self._restore.append(lambda: setattr(owner, key, old))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "matformer" or n.startswith("matformer."))]
        for probe in self.probes:
            module = sys.modules[probe.module]
            if "." in probe.attr:
                cls_name, method = probe.attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(self._wrap(raw.__func__, probe.span, probe.note)))
                else:
                    self._set(cls, method, self._wrap(raw, probe.span, probe.note))
                continue
            original = getattr(module, probe.attr)
            traced = self._wrap(original, probe.span, probe.note)
            # every alias, so calls through names imported by value are traced too
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._set(value, dkey, traced)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def missed_probes(self, workload: str) -> list[str]:
        """Probes the workload must enter but never did."""
        entered = {self.names[s[0]] for s in self.spans}
        return sorted({p.span for p in self.probes if workload in p.workloads and p.span not in entered})

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "round", "note"],
                       "names": self.names, "spans": self.spans}, fh)


# metric -> span names whose self time it sums
SELF_MS = {
    "crystal.transform_ms": ("crystal.supercell", "crystal.shift_boundary", "crystal.apply_e3"),
    "graphs.radius_ms": ("graphs.radius",),
    "graphs.tfc_ms": ("graphs.tfc",),
    "graphs.self_edges_ms": ("graphs.self_edges",),
    "audit.signature_ms": ("audit.graph_signature", "audit.node_signatures",
                           "audit.signature_discrepancy", "audit.quotient_discrepancy"),
    "featurize.prepare_ms": ("featurize.prepare",),
    "featurize.batch_ms": ("featurize.batch",),
    "engine.forward_ms": tuple(f"engine.{n}" for names in ENGINE_OPS.values() for n in names),
    **{f"engine.op.{group}_ms": tuple(f"engine.{n}" for n in names) for group, names in ENGINE_OPS.items()},
    "model.readout_ms": ("model.forward",),
    "training.adam_ms": ("training.adam_step",),
    "training.checkpoint_ms": ("training.to_checkpoint",),
    "io.read_ms": ("io.read_crystal",),
    "io.checkpoint_load_ms": ("io.from_checkpoint",),
    "io.write_ms": ("io.write_predictions_csv", "io.atomic_write"),
    "cli.predict_self_ms": ("cli.predict",),
}

# metric -> span names whose inclusive time it sums
INCLUSIVE_MS = {
    "engine.backward_ms": ("engine.backward",),
    "model.embed_ms": ("model.embed",),
    "training.evaluate_ms": ("training.evaluate",),
}

N_LAYERS = 5
RADIUS_BUCKETS = (("atoms-1-8", 1, 8), ("atoms-9-64", 9, 64), ("atoms-65-up", 65, None))

PER_LAYER_UNITS = {
    **{m: "ms" for m in (*SELF_MS, *INCLUSIVE_MS, "training.prepare_ms")},
    **{f"model.layer{k}_ms": "ms" for k in range(N_LAYERS)},
    **{f"graphs.radius_call_ms.{label}": "ms" for label, _, _ in RADIUS_BUCKETS},
    **{m: "count" for m in ("graphs.calls", "graphs.edges", "audit.trials", "audit.violations",
                            "engine.forward_ops", "training.steps")},
    "engine.forward_bytes": "bytes",
    "trace.untraced_crystals_per_s": "1/s",
    "trace.crystals_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round self/inclusive times (ms), counts and computed bytes."""
    names, spans = tracer.names, tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_ns: dict[str, int] = defaultdict(int)
    incl_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        name = names[s[0]]
        self_ns[name] += dur[i] - child[i]
        incl_ns[name] += dur[i]
        calls[name] += 1

    def in_train(i: int) -> bool:
        while i >= 0:
            if names[spans[i][0]] == "training.train":
                return True
            i = spans[i][3]
        return False

    per = 1.0 / max(rounds, 1)
    ms = 1e-6 * per
    out = {m: ms * sum(self_ns[n] for n in span_names) for m, span_names in SELF_MS.items()}
    out.update({m: ms * sum(incl_ns[n] for n in span_names) for m, span_names in INCLUSIVE_MS.items()})

    # layer k is the k-th layer call inside one model.forward span
    layer_ns = [0] * N_LAYERS
    seen: dict[int, int] = defaultdict(int)
    prepare_in_train = 0
    radius_calls: dict[str, list[float]] = defaultdict(list)
    edges = trials = violations = forward_bytes = 0
    for i, s in enumerate(spans):
        name = names[s[0]]
        if name == "model.layer":
            k = seen[s[3]]
            seen[s[3]] += 1
            if k < N_LAYERS:
                layer_ns[k] += dur[i]
        elif name == "model.prepare" and in_train(i):
            prepare_in_train += dur[i]
        elif name in ("graphs.radius", "graphs.tfc", "graphs.self_edges"):
            atoms, n_edges = s[5]
            edges += n_edges
            if name == "graphs.radius":
                for label, lo, hi in RADIUS_BUCKETS:
                    if atoms >= lo and (hi is None or atoms <= hi):
                        radius_calls[label].append(dur[i] * 1e-6)
        elif name in ("audit.periodic", "audit.e3"):
            trials += s[5][0]
            violations += s[5][1]
        elif name.startswith("engine.") and name != "engine.backward":
            forward_bytes += s[5]
    for k in range(N_LAYERS):
        out[f"model.layer{k}_ms"] = ms * layer_ns[k]
    out["training.prepare_ms"] = ms * prepare_in_train
    for label, _, _ in RADIUS_BUCKETS:
        samples = radius_calls[label]
        out[f"graphs.radius_call_ms.{label}"] = statistics.median(samples) if samples else 0.0
    out["graphs.calls"] = per * (calls["graphs.radius"] + calls["graphs.tfc"] + calls["graphs.self_edges"])
    out["graphs.edges"] = per * edges
    out["audit.trials"] = per * trials
    out["audit.violations"] = per * violations
    out["engine.forward_ops"] = per * sum(calls[n] for n in SELF_MS["engine.forward_ms"])
    out["engine.forward_bytes"] = per * forward_bytes
    out["training.steps"] = per * calls["training.adam_step"]
    return out
