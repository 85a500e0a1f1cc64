"""Edge-wise attention message passing for periodic crystal graphs.

Each layer computes, per attention head and per edge j -> i:

  q_ij = (q_i | q_i | q_i),  k_ij = (k_i | k_j | e_ij'),
  alpha_ij = q_ij o k_ij / sqrt(dim(k_ij)),

gates the concatenated value message (v_i | v_j | e_ij') with
sigmoid(LNorm(alpha_ij)) in that 3*d space, projects it to model width,
and sum-aggregates layer-normalized per-head messages over each node's
incoming edges.  Head outputs are concatenated and merged by one linear
map; the node update is a linear residual plus an activated batch-norm of
the aggregate.  The default gate deliberately omits softmax so the
aggregate scales with node degree; softmax variants are provided for
comparison.
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import engine, graphs
from .crystal import Crystal
from .engine import BatchNormState, Tensor
from .featurize import GraphEmbedding, PreparedGraph, prepare_graph

ATTENTION_VARIANTS = ("sigmoid_norm", "softmax_scalar", "softmax_vector")


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 5
    n_heads: int = 4
    d_model: int = 128
    attention_variant: str = "sigmoid_norm"
    activation: str = "silu"
    rbf_kernels: int = 128
    rbf_lo: float = 0.0
    rbf_hi: float = 8.0
    readout_hidden: int = 128
    neighbor_rank: int = 12
    use_self_edges: bool = True

    def __post_init__(self):
        if self.n_layers < 1 or self.n_heads < 1:
            raise ValueError("need at least one layer and one head")
        if self.d_model < 2:
            raise ValueError("d_model must be >= 2 (layer norm needs a real axis)")
        if self.attention_variant not in ATTENTION_VARIANTS:
            raise ValueError(f"unknown attention variant {self.attention_variant!r}")
        if self.activation not in engine.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.neighbor_rank < 1 or self.readout_hidden < 1:
            raise ValueError("neighbor_rank and readout_hidden must be >= 1")
        if self.rbf_kernels < 2 or not self.rbf_hi > self.rbf_lo:
            raise ValueError("need rbf_kernels >= 2 and rbf_hi > rbf_lo")


def attention_gate(alpha: Tensor, dst, n_nodes: int, variant: str) -> Tensor:
    """Gate applied to the value message, per edge, for the softmax variants.

    softmax_vector: componentwise softmax over each destination's edges.
    softmax_scalar: softmax over mean coefficients, broadcast to all
    components.  The paper's sigmoid_norm gate is part of
    ``engine.sigmoid_norm_message``, which computes the whole message.
    """
    if variant == "softmax_vector":
        return engine.segment_softmax(alpha, dst, n_nodes)
    if variant == "softmax_scalar":
        scalar = engine.mean(alpha, axis=1)
        gate = engine.segment_softmax(scalar, dst, n_nodes)
        return engine.reshape(gate, (alpha.shape[0], 1))
    raise ValueError(f"attention_gate has no {variant!r} variant")


class MatformerLayer:
    """Parameters and forward pass of one message-passing layer.

    ``params`` holds each parameter once, under its checkpoint name within
    the layer, in the order the initializer draws them.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | engine.ParameterInit):
        d = config.d_model
        h = config.n_heads
        self.config = config
        init = engine.ParameterInit(rng)
        weight, zeros, ones = init.weight, init.zeros, init.ones
        self.params: dict[str, Tensor] = {}
        for idx in range(h):
            for name, fan_in in (("q", d), ("k", d), ("v", d), ("e", d), ("upd", 3 * d), ("msg", d)):
                self.params[f"head{idx}.{name}_w"] = weight((fan_in, d), fan_in)
                self.params[f"head{idx}.{name}_b"] = zeros(d)
        self.params.update({
            "alpha_ln.gain": ones(3 * d), "alpha_ln.bias": zeros(3 * d),
            "msg_ln.gain": ones(d), "msg_ln.bias": zeros(d),
            "merge.w": weight((h * d, d), h * d), "merge.b": zeros(d),
            "fea.w": weight((d, d), d), "fea.b": zeros(d),
            "bn.gamma": ones(d), "bn.beta": zeros(d),
        })
        self.bn_state = BatchNormState.create(d)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": tensor for name, tensor in self.params.items()}

    def aggregate_messages(self, node_feats: Tensor, edge_feats: Tensor, src, dst) -> Tensor:
        """Merged per-node message m_i, before batch norm and the residual."""
        n_nodes = node_feats.shape[0]
        d_k = 3 * self.config.d_model
        variant = self.config.attention_variant
        p = self.params

        head_outputs = []
        for idx in range(self.config.n_heads):
            head = f"head{idx}."
            q = engine.linear(node_feats, p[head + "q_w"], p[head + "q_b"])
            k = engine.linear(node_feats, p[head + "k_w"], p[head + "k_b"])
            v = engine.linear(node_feats, p[head + "v_w"], p[head + "v_b"])
            e = engine.linear(edge_feats, p[head + "e_w"], p[head + "e_b"])
            if variant == "sigmoid_norm":
                message = engine.sigmoid_norm_message(q, k, v, e, p["alpha_ln.gain"], p["alpha_ln.bias"],
                                                      p[head + "upd_w"], src, dst)
            else:
                alpha = engine.scale(engine.pair_product(q, k, e, src, dst), 1.0 / math.sqrt(d_k))
                gate = attention_gate(alpha, dst, n_nodes, variant)
                message = engine.gated_pair_matmul(gate, v, e, src, dst, p[head + "upd_w"])
            message = engine.add(message, p[head + "upd_b"])
            message = engine.layer_norm(
                engine.linear(message, p[head + "msg_w"], p[head + "msg_b"]),
                p["msg_ln.gain"], p["msg_ln.bias"],
            )
            head_outputs.append(engine.scatter_sum(message, dst, n_nodes))

        return engine.linear(engine.concat(head_outputs, axis=1), p["merge.w"], p["merge.b"])

    def forward(self, node_feats: Tensor, edge_feats: Tensor, src, dst, training: bool = False) -> Tensor:
        act = engine.ACTIVATIONS[self.config.activation]
        p = self.params
        merged = self.aggregate_messages(node_feats, edge_feats, src, dst)
        normed = engine.batch_norm(merged, p["bn.gamma"], p["bn.beta"], self.bn_state, training)
        return engine.add(engine.linear(node_feats, p["fea.w"], p["fea.b"]), act(normed))


class Matformer:
    """Full model: embeddings, stacked layers, mean pooling, readout MLP."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self._build(config or ModelConfig(), engine.ParameterInit(np.random.default_rng(seed)))

    def _build(self, config: ModelConfig, init: engine.ParameterInit) -> None:
        self.config = c = config
        # None, or the {"mean", "std"} of the targets train standardized: a prediction p is p * std + mean
        self.target_scale: dict[str, float] | None = None
        self.embedding = GraphEmbedding(
            c.d_model, n_kernels=c.rbf_kernels, lo=c.rbf_lo, hi=c.rbf_hi,
            activation=c.activation, rng=init,
        )
        self.layers = [MatformerLayer(c, init) for _ in range(c.n_layers)]
        self.readout: dict[str, Tensor] = {
            "w1": init.weight((c.d_model, c.readout_hidden), c.d_model), "b1": init.zeros(c.readout_hidden),
            "w2": init.weight((c.readout_hidden, 1), c.readout_hidden), "b2": init.zeros(1),
        }

    def parameters(self) -> dict[str, Tensor]:
        """Every parameter under its checkpoint name, in draw order."""
        params = self.embedding.parameters("embed")
        for idx, layer in enumerate(self.layers):
            params.update(layer.parameters(f"layer{idx}"))
        params.update({f"readout.{name}": tensor for name, tensor in self.readout.items()})
        return params

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def build_graph(self, crystal: Crystal) -> graphs.CrystalGraph:
        g = graphs.build_radius_graph(crystal, neighbor_rank=self.config.neighbor_rank)
        if self.config.use_self_edges:
            g = graphs.add_self_connecting_edges(g, crystal)
        return g

    def prepare(self, crystal: Crystal) -> PreparedGraph:
        return prepare_graph(self.build_graph(crystal))

    def forward(self, prepared: PreparedGraph, training: bool = False) -> Tensor:
        """Predictions for each graph in the (possibly batched) input.

        The ops skip their per-op finite checks and the output is checked
        once.  If it is not finite, the forward runs again with every op
        checked, which raises the ``FloatingPointError`` naming the first op
        whose output is not finite.  In training mode that re-run, which
        happens only on failure, updates the batch-norm running statistics a
        second time.
        """
        counts = np.bincount(prepared.dst, minlength=prepared.n_nodes)
        if counts.min() == 0:
            raise ValueError("isolated node: aggregation over an empty neighborhood is undefined")
        with engine.unchecked():
            out = self._forward(prepared, training)
        if not np.isfinite(out.values).all():
            self._forward(prepared, training)  # raises, naming the op
            raise FloatingPointError("non-finite values produced by Matformer.forward")
        return out

    def _forward(self, prepared: PreparedGraph, training: bool) -> Tensor:
        node = self.embedding.node_input(prepared)
        edge = self.embedding.edge_input(prepared)
        for layer in self.layers:
            node = layer.forward(node, edge, prepared.src, prepared.dst, training)
        pooled = engine.segment_mean(node, prepared.graph_ids, prepared.n_graphs)
        act = engine.ACTIVATIONS[self.config.activation]
        r = self.readout
        hidden = act(engine.linear(pooled, r["w1"], r["b1"]))
        return engine.linear(hidden, r["w2"], r["b2"])

    def predict(self, crystal: Crystal) -> float:
        """Eval-mode prediction for one crystal, without a tape, in normalized units (see ``target_scale``)."""
        with engine.no_grad():
            return float(self.forward(self.prepare(crystal), training=False).values[0, 0])

    def to_checkpoint(self) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "params": {name: _encode(t.values) for name, t in self.parameters().items()},
            "bn_states": [
                {"running_mean": _encode(s.running_mean), "running_var": _encode(s.running_var),
                 "momentum": s.momentum, "num_batches": s.num_batches}
                for s in (layer.bn_state for layer in self.layers)
            ],
            **({} if self.target_scale is None else {"target_scale": dict(self.target_scale)}),
        }

    @classmethod
    def from_checkpoint(cls, data: dict) -> "Matformer":
        """Rebuild a model from ``to_checkpoint``'s dict, or from a version 1
        one (no ``format_version``; arrays as decimal ``values`` lists).

        Every field is checked, and ``target_scale`` too if it is there (the
        model keeps it): a value of the wrong JSON type or an array that is
        not the shape the model built raises ValueError naming the entry.
        """
        if not isinstance(data, dict):
            raise ValueError(f"checkpoint must be a JSON object, got {type(data).__name__}")
        version = data.get("format_version", 1)
        if isinstance(version, bool) or version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint format_version {version!r}; "
                             f"this version reads 1 and {CHECKPOINT_VERSION}")
        missing = [key for key in ("config", "params", "bn_states") if key not in data]
        if missing:
            raise ValueError(f"checkpoint is missing field(s) {missing}")
        if not (isinstance(data["config"], dict) and isinstance(data["params"], dict)
                and isinstance(data["bn_states"], list)):
            raise ValueError("checkpoint 'config' and 'params' must be objects and 'bn_states' a list")
        scale = data.get("target_scale")
        if scale is not None:
            _checked(scale, "object", "target_scale")
            scale = {key: _checked(scale.get(key), "float", f"target_scale.{key}") for key in ("mean", "std")}
        unknown = sorted(set(data["config"]) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise ValueError(f"checkpoint config has unknown keys: {unknown}")
        config = ModelConfig(**{f.name: _checked(data["config"][f.name], f.type, f"config.{f.name}")
                                for f in fields(ModelConfig) if f.name in data["config"]})
        if len(data["bn_states"]) != config.n_layers:
            raise ValueError(f"checkpoint has {len(data['bn_states'])} batch-norm states "
                             f"for {config.n_layers} layers")
        if config.n_layers * config.n_heads > len(data["params"]):  # each head has parameters of its own
            raise ValueError(f"checkpoint has {len(data['params'])} parameters for "
                             f"{config.n_layers * config.n_heads} attention heads")
        # no declared size is allocated before stored values check it: the (d_model,)
        # statistics load first, and the parameters are built undrawn and unallocated
        states = [_batch_norm_state(state, config.d_model, f"bn_states[{idx}]")
                  for idx, state in enumerate(data["bn_states"])]
        model = cls.__new__(cls)
        model._build(config, engine.ParameterInit(None))
        params = model.parameters()
        missing, extra = set(params) - set(data["params"]), set(data["params"]) - set(params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, entry in data["params"].items():
            params[name].values = _decode(entry, params[name].shape, name)
        for layer, state in zip(model.layers, states):
            layer.bn_state = state
        model.target_scale = scale
        return model


# --- checkpoint format ----------------------------------------------------------

# version 1 had no format_version field and stored arrays as decimal lists
CHECKPOINT_VERSION = 2
_BN_KEYS = ("running_mean", "running_var", "momentum", "num_batches")
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "object": (dict,)}


def _encode(values: np.ndarray) -> dict:
    """{shape, base64 of the row-major little-endian f8 bytes}; every bit
    survives JSON, and writing or parsing it is far cheaper than decimals."""
    data = base64.b64encode(values.astype("<f8", copy=False).tobytes()).decode("ascii")
    return {"shape": list(values.shape), "data": data}


def _checked(value, kind: str, name: str):
    """``value`` if it is a JSON ``kind`` (a key of ``_JSON_TYPES``; a bool
    is no number, and a "float" comes back as a float), else ValueError
    naming the checkpoint entry."""
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"checkpoint entry {name}: expected {kind}, got {type(value).__name__}")
    try:
        return float(value) if kind == "float" else value
    except OverflowError as err:  # an int beyond the float range
        raise ValueError(f"checkpoint entry {name}: {err}") from None


def _batch_norm_state(state, d_model: int, name: str) -> BatchNormState:
    missing = [key for key in _BN_KEYS if key not in state] if isinstance(state, dict) else list(_BN_KEYS)
    if missing:
        raise ValueError(f"checkpoint entry {name}: missing {missing}")
    mean, var = (_decode(state[key], (d_model,), f"{name}.{key}", bare_list=True) for key in _BN_KEYS[:2])
    return BatchNormState(mean, var, _checked(state["momentum"], "float", f"{name}.momentum"),
                          _checked(state["num_batches"], "int", f"{name}.num_batches"))


def _decode(entry, shape: tuple[int, ...], name: str, bare_list: bool = False) -> np.ndarray:
    """Inverse of ``_encode`` for an array the model built with ``shape``, or of
    version 1's row-major decimal ``{shape, values}`` (bare lists, for the
    ``bare_list`` statistics).  Raises ValueError naming ``name``."""
    try:
        if bare_list and isinstance(entry, list):
            values = np.asarray(entry, dtype=float)
        elif not isinstance(entry, dict) or "shape" not in entry or not {"data", "values"} & set(entry):
            raise ValueError("need 'shape' and 'data'")
        elif not isinstance(entry["shape"], list) or not all(type(n) is int and n >= 0 for n in entry["shape"]):
            raise ValueError(f"shape {entry['shape']!r} is not a list of sizes")  # a bool is no size
        elif "values" in entry:
            values = np.asarray(entry["values"], dtype=float).reshape(entry["shape"])
        else:
            try:
                raw = base64.b64decode(entry["data"], validate=True)
            except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
                raise ValueError(f"data is not base64 ({err})") from None
            needs = 8 * math.prod(entry["shape"])
            if len(raw) != needs:
                raise ValueError(f"{len(raw)} bytes of data for shape {entry['shape']}, which needs {needs}")
            values = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).astype(float)
        if values.shape != shape:
            raise ValueError(f"shape {list(values.shape)} where the model has {list(shape)}")
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"checkpoint entry {name}: {err}") from None
    return values
