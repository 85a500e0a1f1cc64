"""Minimal dense f64 array engine with reverse-mode gradients.

Just enough operator coverage for edge-wise attention message passing:
linear maps, concatenation, Hadamard products, the sigmoid/SiLU family,
layer/batch normalization, plain and segment softmax, and index
gather/scatter for neighborhood aggregation.  Every differentiable op is
validated against central finite differences in the test suite.

Two pair ops form an attention head's per-edge features: ``pair_product``
(the query-key coefficients) and ``gated_pair_matmul`` (the gated value
message and its projection).  Each builds the (E, 3d) edge rows
``[x_dst | x_src | e]`` from (n, d) node rows, and its backward rebuilds
them instead of the tape keeping them, with the bits of the gathers,
concatenations and products they replace.  ``sigmoid_norm_message`` is
the whole head under the paper's gate: it runs ``pair_product``,
``scale``, ``layer_norm``, ``sigmoid`` and ``gated_pair_matmul`` under
``no_grad()``, keeps only their inputs, and its backward recomputes the
coefficients, the layer norm's statistics and the gate in place before
applying those ops' backward formulas through the helpers they share, so
no (E, 3d) array stays on the tape.

Inside ``with no_grad():`` ops record no tape, so the arrays a backward
would read are freed as each op returns; outputs are still checked for
non-finite values.  Prediction, validation and featurization run in it.

Every op checks its output for non-finite values, except inside
``with unchecked():``, where the caller checks what it returns instead
(``Matformer.forward`` checks its output once and, on failure, runs again
checked so the error names the op).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

_RECORDING = contextvars.ContextVar("matformer_engine_recording", default=True)
_CHECKING = contextvars.ContextVar("matformer_engine_checking", default=True)
_NORM_EPS = 1e-5  # added to the variance by layer_norm and batch_norm


@contextlib.contextmanager
def _scope(var: contextvars.ContextVar, value):
    """``var`` holds ``value`` per thread and task until the ``with`` ends,
    also on an exception."""
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def no_grad():
    """Scope in which ops record no tape and their outputs need no gradient."""
    return _scope(_RECORDING, False)


def unchecked():
    """Scope in which ops skip the finite check of their outputs."""
    return _scope(_CHECKING, False)


def _finite(values: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite values produced by {op}")
    return values


def _accumulate(entry, g: np.ndarray) -> None:
    """Add ``g`` into the gradient slot of a tape entry (a leaf or an op output's).
    The first ``g`` is copied, so a slot never aliases an array its closure or
    caller holds; later ones are added in place."""
    if entry.grad is None:
        # a fresh copy of 0.0 + g: the same bits as summing into zeros
        entry.grad = np.add(g, 0.0, out=np.empty(entry.shape))
    else:
        entry.grad += g


class Tensor:
    """Dense f64 array: a leaf, or the output of an op.

    An op output that needs gradients points to its tape entry, which never
    holds the output's values.  A leaf is its own tape entry: it has no
    parents and gradients accumulate into its ``grad``.
    """

    __slots__ = ("values", "grad", "requires_grad", "_entry")
    parents = ()
    backward_fn = None

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=float)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._entry: _TapeEntry | None = None

    @property
    def shape(self):
        return self.values.shape

    accumulate = _accumulate

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


class _TapeEntry:
    """What backward needs of one op output: a gradient slot, the output's
    shape, the parents' entries (None for an input without gradient) and the
    backward closure.  The closure captured, at forward time, exactly the
    arrays its formula reads (``sigmoid_norm_message``'s, the inputs it
    recomputes from), so an output no formula reads is freed as soon as the
    forward code drops its Tensor."""

    __slots__ = ("grad", "shape", "parents", "backward_fn")

    def __init__(self, shape, parents, backward_fn):
        self.grad = None
        self.shape = shape
        self.parents = parents
        self.backward_fn = backward_fn

    accumulate = _accumulate


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _grad_entry(t: Tensor):
    """The tape entry gradients of ``t`` go to, or None if it needs none."""
    if t._entry is not None:
        return t._entry
    return t if t.requires_grad else None


def _node(values, parents, backward_fn, op: str) -> Tensor:
    """An op's output; ``parents`` are its inputs' tape entries, or None."""
    out = Tensor(values)
    if _CHECKING.get():
        _finite(out.values, op)
    if not _RECORDING.get():
        return out
    for p in parents:
        if p is not None:
            out.requires_grad = True
            out._entry = _TapeEntry(out.values.shape, parents, backward_fn)
            break
    return out


_FREED_TAPE = ("backward through a graph that was already backpropagated: its tape is freed; "
               "run the forward pass again")


def _released(g):
    """Backward closure of an entry whose tape ``backward`` has freed."""
    raise RuntimeError(_FREED_TAPE)


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` of every reachable leaf.

    The tape is consumed as it goes: once an entry has passed its gradient
    on, its ``grad``, backward closure and parent links are dropped, and
    with the closure the forward arrays it held, so buffers are freed as
    early as they are dead.  Only leaf tensors keep gradients, and a graph
    supports one backward.
    """
    if root.values.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.values.shape}")
    if root._entry is None and not root.requires_grad:
        raise RuntimeError("backward from a root that records no tape: it was computed "
                           "under no_grad() or from constants alone")
    top = root._entry if root._entry is not None else root
    if top.backward_fn is _released:
        raise RuntimeError(_FREED_TAPE)
    topo: list = []
    seen: set[int] = set()
    stack: list = [(top, False)]
    while stack:
        entry, processed = stack.pop()
        if processed:
            topo.append(entry)
            continue
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        stack.append((entry, True))
        for p in entry.parents:
            if p is not None:
                stack.append((p, False))
    top.accumulate(np.ones(top.shape))
    while topo:
        entry = topo.pop()
        if entry.backward_fn is None:
            continue
        if entry.grad is not None:
            entry.backward_fn(entry.grad)
        entry.grad = None
        entry.backward_fn = _released
        entry.parents = ()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ea, eb = _grad_entry(a), _grad_entry(b)

    def bw(g):
        if ea is not None:
            ea.accumulate(_unbroadcast(g, ea.shape))
        if eb is not None:
            eb.accumulate(_unbroadcast(g, eb.shape))

    return _node(a.values + b.values, (ea, eb), bw, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ea, eb = _grad_entry(a), _grad_entry(b)

    def bw(g):
        if ea is not None:
            ea.accumulate(_unbroadcast(g, ea.shape))
        if eb is not None:
            eb.accumulate(_unbroadcast(-g, eb.shape))

    return _node(a.values - b.values, (ea, eb), bw, "sub")


def mul(a, b) -> Tensor:
    """Hadamard product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    ea, eb = _grad_entry(a), _grad_entry(b)
    av, bv = a.values, b.values

    def bw(g):
        if ea is not None:
            ea.accumulate(_unbroadcast(g * bv, ea.shape))
        if eb is not None:
            eb.accumulate(_unbroadcast(g * av, eb.shape))

    return _node(av * bv, (ea, eb), bw, "mul")


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)
    c = float(c)

    def bw(g):
        ea.accumulate(g * c)

    return _node(a.values * c, (ea,), bw, "scale")


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ea, eb = _grad_entry(a), _grad_entry(b)
    av, bv = a.values, b.values

    def bw(g):
        if ea is not None:
            ea.accumulate(g @ bv.T)
        if eb is not None:
            eb.accumulate(av.T @ g)

    return _node(av @ bv, (ea, eb), bw, "matmul")


def concat(parts, axis: int = -1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    entries = tuple(_grad_entry(p) for p in parts)
    splits = np.cumsum([p.values.shape[axis] for p in parts])[:-1]

    def bw(g):
        for e, piece in zip(entries, np.split(g, splits, axis=axis)):
            if e is not None:
                e.accumulate(piece)

    return _node(np.concatenate([p.values for p in parts], axis=axis), entries, bw, "concat")


def _sigmoid_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), computed in one buffer: ``out`` (which may be
    ``x``) or a new one.  An ``exp`` that overflows gives inf and so 0, its
    limit, without a warning."""
    s = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _sigmoid_grad(g: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The gradient g * s * (1 - s) of ``s = sigmoid(x)``, formed in ``out``
    (which may be ``g``) or a new buffer."""
    out = np.multiply(g, s, out=out)
    out *= 1.0 - s
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)
    s = _sigmoid_values(a.values)

    def bw(g):
        ea.accumulate(_sigmoid_grad(g, s))

    return _node(s, (ea,), bw, "sigmoid")


def silu(a) -> Tensor:
    """x * sigmoid(x); smooth, with silu(0) = 0."""
    a = _as_tensor(a)
    ea = _grad_entry(a)
    x = a.values
    s = _sigmoid_values(x)

    def bw(g):
        ea.accumulate(g * (s + x * s * (1.0 - s)))

    return _node(x * s, (ea,), bw, "silu")


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)
    x = a.values

    def bw(g):
        with np.errstate(over="ignore"):  # exp(-x) = inf gives g / inf = 0, its limit
            denom = 1.0 + np.exp(-x)
        ea.accumulate(g / denom)

    return _node(np.logaddexp(0.0, x), (ea,), bw, "softplus")


def exp(a) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)
    out = np.exp(a.values)

    def bw(g):
        ea.accumulate(g * out)

    return _node(out, (ea,), bw, "exp")


ACTIVATIONS = {"silu": silu, "softplus": softplus, "sigmoid": sigmoid}


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        ea.accumulate(s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _node(s, (ea,), bw, "softmax")


def _segment_sum_np(x: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum the rows of ``x`` into ``num_segments`` rows given by ``segments``.

    Bit for bit what ``np.add.at`` gives on zeros: each segment's rows are
    added one at a time in input order.  A stable sort groups the rows, the
    j-th row of every segment goes to slot j of a zero-padded
    (max_degree, num_segments, ...) buffer, and the slots are added in
    order, a whole slot per step.  (A ``sum`` over the degree axis would
    switch to pairwise summation along a contiguous axis, and
    ``np.add.reduceat`` rounds differently.)
    """
    if len(segments) == 0:
        return np.zeros((num_segments,) + x.shape[1:])
    order = np.argsort(segments, kind="stable")
    grouped = segments[order]
    counts = np.bincount(grouped, minlength=num_segments)
    rank = np.arange(len(grouped)) - (np.cumsum(counts) - counts)[grouped]
    slots = np.zeros((counts.max(), num_segments) + x.shape[1:])
    slots[rank, grouped] = x[order]
    out = slots[0] + 0.0
    for slot in slots[1:]:
        out += slot
    return out


def segment_softmax(a, segments, num_segments: int) -> Tensor:
    """Softmax over rows sharing a segment id, columnwise."""
    a = _as_tensor(a)
    ea = _grad_entry(a)
    segments = np.asarray(segments, dtype=int)
    seg_max = np.full((num_segments,) + a.values.shape[1:], -np.inf)
    np.maximum.at(seg_max, segments, a.values)
    e = np.exp(a.values - seg_max[segments])
    denom = _segment_sum_np(e, segments, num_segments)
    s = e / denom[segments]

    def bw(g):
        inner = _segment_sum_np(g * s, segments, num_segments)
        ea.accumulate(s * (g - inner[segments]))

    return _node(s, (ea,), bw, "segment_softmax")


def _normalize(x: np.ndarray, out: np.ndarray | None = None, axis: int = -1):
    """``xhat``, ``inv``, ``mean`` and ``var`` over ``axis``, each statistic
    keeping it: ``x`` centered, times ``inv = 1 / sqrt(var + eps)``, with the
    statistics and centered values exactly as ``np.var`` forms them.
    ``xhat`` is formed in ``out`` (which may be ``x``) or a new buffer."""
    n = x.shape[axis]
    if n < 2:
        raise ValueError("normalizing over a length-1 axis is undefined")
    mean = x.mean(axis=axis, keepdims=True)
    xhat = np.subtract(x, mean, out=out)
    var = np.square(xhat).sum(axis=axis, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat *= inv
    return xhat, inv, mean, var


def _layer_norm_backward(g, xhat, inv, gain, eg, eb, want_input: bool, out: np.ndarray | None = None,
                         axis: int = -1):
    """Pass a norm's gain and bias gradients to ``eg`` and ``eb``.  With
    ``want_input``, return its input gradient over ``axis``, (gh - mean(gh) -
    xhat * mean(gh * xhat)) * inv, gh = g * gain, formed in ``out`` (which
    may be ``g``) or a new buffer, plus one temporary."""
    if eg is not None:
        eg.accumulate(_unbroadcast(g * xhat, eg.shape))
    if eb is not None:
        eb.accumulate(_unbroadcast(g, eb.shape))
    if not want_input:
        return None
    gh = np.multiply(g, gain, out=out)
    tmp = np.multiply(gh, xhat)
    mean_gh_xhat = tmp.mean(axis=axis, keepdims=True)
    gh -= gh.mean(axis=axis, keepdims=True)
    gh -= np.multiply(xhat, mean_gh_xhat, out=tmp)
    gh *= inv
    return gh


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize over the last axis, then apply elementwise affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    ea, eg, eb = _grad_entry(a), _grad_entry(gain), _grad_entry(bias)
    xhat, inv, _, _ = _normalize(a.values)
    gv = gain.values

    def bw(g):
        g_in = _layer_norm_backward(g, xhat, inv, gv, eg, eb, ea is not None)
        if ea is not None:
            ea.accumulate(g_in)

    out = xhat * gv
    out += bias.values
    return _node(out, (ea, eg, eb), bw, "layer_norm")


@dataclass
class BatchNormState:
    """Running statistics for one batch_norm site."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    num_batches: int = 0

    @classmethod
    def create(cls, dim: int) -> "BatchNormState":
        return cls(np.zeros(dim), np.ones(dim))


def batch_norm(a, gamma, beta, state: BatchNormState, training: bool) -> Tensor:
    """Column-wise batch normalization over axis 0.

    Training mode normalizes with batch statistics and updates the running
    statistics in ``state``; eval mode normalizes with the stored running
    statistics, making the output a pure function of the input.  The batch
    statistics and their backward are layer norm's, taken over the rows.
    """
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    ea, eg, eb = _grad_entry(a), _grad_entry(gamma), _grad_entry(beta)
    x = a.values
    if x.ndim != 2:
        raise ValueError(f"batch_norm expects a 2D input, got shape {x.shape}")
    if training:
        n = x.shape[0]
        if n < 2:
            raise ValueError("batch_norm training mode needs at least 2 rows")
        xhat, inv, mean, var = _normalize(x, axis=0)
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mean[0]
        state.running_var = (1.0 - m) * state.running_var + m * var[0] * n / (n - 1)
        state.num_batches += 1
    else:
        inv = 1.0 / np.sqrt(state.running_var + _NORM_EPS)
        xhat = (x - state.running_mean) * inv
    gv = gamma.values

    def bw(g):
        g_in = _layer_norm_backward(g, xhat, inv, gv, eg, eb, ea is not None and training, axis=0)
        if ea is not None:
            ea.accumulate(g_in if training else g * gv * inv)

    return _node(xhat * gv + beta.values, (ea, eg, eb), bw, "batch_norm")


def mean(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)
    count = a.values.size if axis is None else a.values.shape[axis]

    def bw(g):
        if axis is None:
            ea.accumulate(np.full(ea.shape, float(g) / count))
        else:
            ea.accumulate(np.broadcast_to(np.expand_dims(g, axis), ea.shape) / count)

    return _node(a.values.mean(axis=axis), (ea,), bw, "mean")


def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)

    def bw(g):
        if axis is None:
            ea.accumulate(np.full(ea.shape, float(g)))
        else:
            ea.accumulate(np.broadcast_to(np.expand_dims(g, axis), ea.shape).copy())

    return _node(a.values.sum(axis=axis), (ea,), bw, "sum")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    ea = _grad_entry(a)

    def bw(g):
        ea.accumulate(g.reshape(ea.shape))

    return _node(a.values.reshape(shape), (ea,), bw, "reshape")


def gather_rows(a, index) -> Tensor:
    """Select rows by index; gradient scatter-adds back."""
    a = _as_tensor(a)
    ea = _grad_entry(a)
    index = np.asarray(index, dtype=int)

    def bw(g):
        ea.accumulate(_segment_sum_np(g, index, ea.shape[0]))

    return _node(a.values[index], (ea,), bw, "gather_rows")


def scatter_sum(a, index, num_rows: int) -> Tensor:
    """Sum rows of ``a`` into ``num_rows`` buckets given by ``index``.

    Accumulation follows the order of the input rows, which graph
    construction canonicalizes, so results are reproducible.
    """
    a = _as_tensor(a)
    ea = _grad_entry(a)
    index = np.asarray(index, dtype=int)

    def bw(g):
        ea.accumulate(g[index])

    return _node(_segment_sum_np(a.values, index, num_rows), (ea,), bw, "scatter_sum")


def _pair_rows(x: np.ndarray, e: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The (E, 3d) edge rows ``[x_dst | x_src | e]`` of (n, d) node rows ``x``."""
    return np.concatenate((np.take(x, dst, axis=0), np.take(x, src, axis=0), e), axis=1)


def _pair_rows_backward(ex, ee, g_pair: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """Pass the (E, 3, d) gradient of ``_pair_rows(x, e, src, dst)`` to the
    entries of ``x`` (a segment sum per side) and ``e``."""
    if ex is not None:
        ex.accumulate(_segment_sum_np(g_pair[:, 0], dst, ex.shape[0]))
        ex.accumulate(_segment_sum_np(g_pair[:, 1], src, ex.shape[0]))
    if ee is not None:
        ee.accumulate(g_pair[:, 2])


def _pair_product_values(qv, kv, ev, src, dst) -> np.ndarray:
    """``pair_product``'s (E, 3d) output, in one new buffer."""
    n_edges, d = ev.shape
    out = _pair_rows(kv, ev, src, dst)
    out3 = out.reshape(n_edges, 3, d)
    out3 *= np.take(qv, dst, axis=0)[:, None, :]
    return out


def _pair_product_backward(eq, ek, ee, g, qv, kv, ev, src, dst) -> None:
    """Pass ``pair_product``'s gradients for an upstream (E, 3d) ``g`` to the
    entries of ``q``, ``k`` and ``e`` (any may be None)."""
    n_edges, d = ev.shape
    g3 = g.reshape(n_edges, 3, d)
    if eq is not None:
        prod = g3 * _pair_rows(kv, ev, src, dst).reshape(n_edges, 3, d)
        eq.accumulate(_segment_sum_np(prod.sum(axis=1), dst, qv.shape[0]))
    _pair_rows_backward(ek, ee, g3 * np.take(qv, dst, axis=0)[:, None, :], src, dst)


def pair_product(q, k, e, src, dst) -> Tensor:
    """Per edge ``src -> dst``, ``(q_dst | q_dst | q_dst) o (k_dst | k_src | e)``, (E, 3d).

    The closure holds the (n, d) ``q`` and ``k``, the (E, d) ``e`` and the
    indices, and backward rebuilds the (E, 3d) pair from them.
    """
    q, k, e = _as_tensor(q), _as_tensor(k), _as_tensor(e)
    eq, ek, ee = _grad_entry(q), _grad_entry(k), _grad_entry(e)
    qv, kv, ev = q.values, k.values, e.values
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)

    def bw(g):
        _pair_product_backward(eq, ek, ee, g, qv, kv, ev, src, dst)

    return _node(_pair_product_values(qv, kv, ev, src, dst), (eq, ek, ee), bw, "pair_product")


def _gated_pair_backward(g, gate, vv, e_v, wv, src, dst, ev, ee, ew, want_gate: bool):
    """Pass ``gated_pair_matmul``'s gradients for an upstream ``g`` to the
    entries of ``v``, ``e`` and ``w`` (any may be None), rebuilding the pair
    and the gated pair; with ``want_gate``, return the gate's gradient,
    (E, 3d) before any reduction to the gate's shape."""
    pair = _pair_rows(vv, e_v, src, dst)
    g_prod = g @ wv.T
    g_gate = g_prod * pair if want_gate else None
    g_prod *= gate
    _pair_rows_backward(ev, ee, g_prod.reshape(len(dst), 3, -1), src, dst)
    if ew is not None:
        pair *= gate
        ew.accumulate(pair.T @ g)
    return g_gate


def gated_pair_matmul(gate, v, e, src, dst, w) -> Tensor:
    """Per edge ``src -> dst``, ``(gate o (v_dst | v_src | e)) @ w``, (E, d_out).

    ``gate`` is (E, 3d), or (E, 1) to scale whole rows.  The closure holds
    ``gate`` (which the op that made it holds too), the (n, d) ``v``, the
    (E, d) ``e``, ``w`` and the indices, and backward rebuilds the pair and
    the gated pair from them.
    """
    gate, v, e, w = _as_tensor(gate), _as_tensor(v), _as_tensor(e), _as_tensor(w)
    eg, ev, ee, ew = _grad_entry(gate), _grad_entry(v), _grad_entry(e), _grad_entry(w)
    gv, vv, e_v, wv = gate.values, v.values, e.values, w.values
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)

    def bw(g):
        g_gate = _gated_pair_backward(g, gv, vv, e_v, wv, src, dst, ev, ee, ew, eg is not None)
        if eg is not None:
            eg.accumulate(_unbroadcast(g_gate, eg.shape))

    prod = _pair_rows(vv, e_v, src, dst)
    prod *= gv
    return _node(prod @ wv, (eg, ev, ee, ew), bw, "gated_pair_matmul")


def sigmoid_norm_message(q, k, v, e, gain, bias, w, src, dst) -> Tensor:
    """An attention head's value message under the sigmoid-norm gate, (E, d_out):
    ``gated_pair_matmul(sigmoid(layer_norm(scale(pair_product(q, k, e, src,
    dst), 1/sqrt(3d)), gain, bias)), v, e, src, dst, w)``.

    The forward runs exactly those ops under ``no_grad()``, so every value is
    theirs.  The closure holds only the inputs and the indices: backward
    recomputes alpha, the layer norm's ``xhat`` and ``inv`` and the gate, in
    place, and applies the five ops' backward formulas through the helpers
    they use, so the tape keeps no (E, 3d) array and every gradient has the
    chain's bits.
    """
    q, k, v, e, gain, bias, w = (_as_tensor(t) for t in (q, k, v, e, gain, bias, w))
    eq, ek, ev, ee, eg, eb, ew = entries = tuple(_grad_entry(t) for t in (q, k, v, e, gain, bias, w))
    qv, kv, vv, e_v, gv, bv, wv = (t.values for t in (q, k, v, e, gain, bias, w))
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)
    width = 3 * e_v.shape[1]
    if gv.shape != (width,) or bv.shape != (width,):
        raise ValueError(f"sigmoid_norm_message needs a layer-norm gain and bias of shape ({width},), "
                         f"got {gv.shape} and {bv.shape}")
    c = 1.0 / math.sqrt(width)
    with no_grad():
        gate = sigmoid(layer_norm(scale(pair_product(q, k, e, src, dst), c), gain, bias))
        out = gated_pair_matmul(gate, v, e, src, dst, w)
    want_alpha = eq is not None or ek is not None or ee is not None
    want_gate = want_alpha or eg is not None or eb is not None

    def bw(g):
        alpha = _pair_product_values(qv, kv, e_v, src, dst)
        alpha *= c
        xhat, inv, _, _ = _normalize(alpha, out=alpha)
        s = np.multiply(xhat, gv)
        s += bv
        s = _sigmoid_values(s, out=s)
        g_gate = _gated_pair_backward(g, s, vv, e_v, wv, src, dst, ev, ee, ew, want_gate)
        if not want_gate:
            return
        g_norm = _sigmoid_grad(g_gate, s, out=g_gate)
        del s
        g_alpha = _layer_norm_backward(g_norm, xhat, inv, gv, eg, eb, want_alpha, out=g_norm)
        if want_alpha:
            g_alpha *= c
            _pair_product_backward(eq, ek, ee, g_alpha, qv, kv, e_v, src, dst)

    return _node(out.values, entries, bw, "sigmoid_norm_message")


def segment_mean(a, index, num_rows: int) -> Tensor:
    """Mean of rows per bucket; buckets must be non-empty."""
    index = np.asarray(index, dtype=int)
    counts = np.bincount(index, minlength=num_rows).astype(float)
    if np.any(counts == 0):
        raise ValueError("segment_mean requires every bucket to be non-empty")
    total = scatter_sum(a, index, num_rows)
    return mul(total, 1.0 / counts[:, None])


def linear(x, weight, bias) -> Tensor:
    return add(matmul(x, weight), bias)


class ParameterInit:
    """Makes the model's parameter leaves: weights are standard normals from
    ``rng`` (or another ParameterInit's) over sqrt(fan_in).  With ``rng``
    None nothing is drawn or allocated: each leaf holds a read-only
    zero-stride view of its initial value, whatever its shape, for a
    checkpoint load to replace."""

    def __init__(self, rng: np.random.Generator | ParameterInit | None):
        self.rng = rng.rng if isinstance(rng, ParameterInit) else rng

    def weight(self, shape, fan_in: int) -> Tensor:
        if self.rng is None:
            return self.zeros(shape)
        return Tensor(self.rng.standard_normal(shape) / math.sqrt(fan_in), requires_grad=True)

    def zeros(self, shape) -> Tensor:
        return self._filled(shape, 0.0)

    def ones(self, shape) -> Tensor:
        return self._filled(shape, 1.0)

    def _filled(self, shape, value: float) -> Tensor:
        values = np.broadcast_to(value, shape) if self.rng is None else np.full(shape, value)
        return Tensor(values, requires_grad=True)
