"""Numeric core: a fixed-layout MLP over flat parameter vectors.

Every operation here is a pure function of its inputs, apart from the ``out``
buffers that ``loss_grad`` and ``adam_step`` write into when given them.
Precision model:

* Training computes in float32. ``loss_grad`` runs forward and backward in
  float32 (only the loss over the logits and the backward step through the
  output layer are taken in float64), so its gradient sits on the float32
  grid by construction; ``adam_step`` does its moment arithmetic in float32
  and rounds the new parameters to the float32 grid. ``init_params`` draws on
  that grid too, which is also the on-disk and ledger precision.
* Float32 is carried only inside ``engine.train_batches``: it rounds the start
  once, steps on float32 buffers (``ParameterVector.float32`` vectors, passed
  to ``loss_grad`` and ``adam_step`` with ``out``) and widens once at the end.
  Everywhere outside it, ``ParameterVector`` holds its values in a float64
  container. That is what ``combine`` needs: it keeps the exact float64
  difference instead of re-rounding, so subtracting a recorded increment and
  adding it back restores the original bits; with float32 re-rounding that
  inverse does not exist. ``forward`` and ``evaluate`` read the container in
  float64.
* A retraining start that ``combine`` amended off the grid is rounded to it
  once, where ``train_batches`` starts; a float64 call to ``loss_grad`` or
  ``adam_step`` rounds it the same way, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_int
from .errors import EmptyInput, InvalidArgument, NumericError, ShapeMismatch

F32 = np.float32
F64 = np.float64

# Adam's moment decays and denominator guard. Python floats: a numpy float64
# scalar would promote adam_step's float32 arithmetic to float64 (NEP 50).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class ModelLayout:
    """Widths of the classifier: input features, hidden layers, classes."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (128, 128)
    output_dim: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_dim", as_int(self.input_dim, "input_dim", 1))
        hidden = tuple(as_int(d, f"hidden_dims[{k}]", 1) for k, d in enumerate(self.hidden_dims))
        object.__setattr__(self, "hidden_dims", hidden)
        object.__setattr__(self, "output_dim", as_int(self.output_dim, "output_dim", 1))
        # Derived once, outside the dataclass fields: (fan_in, fan_out, weight
        # offset, bias offset) per layer, and the total length.
        offsets, off = [], 0
        for fan_in, fan_out in self.layer_shapes():
            offsets.append((fan_in, fan_out, off, off + fan_in * fan_out))
            off += fan_in * fan_out + fan_out
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "param_count", off)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    def layer_shapes(self) -> list[tuple[int, int]]:
        d = self.dims
        return [(d[i], d[i + 1]) for i in range(len(d) - 1)]


@dataclass
class ParameterVector:
    """Flat storage of every weight and bias, in layer order (W then b).

    The constructor normalizes dtype/contiguity but does not copy. Vectors
    held by a checkpoint or served by the engine are read-only and shared;
    :meth:`copy` gives a writable one. Values produced by training
    sit on the float32 grid; ``combine`` results may carry exact sub-grid
    differences, which is why a store persists the served params as float64
    while its checkpoints and ledger rows are float32 from training.
    """

    values: np.ndarray
    layout: ModelLayout

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=F64).ravel()
        if v.size != self.layout.param_count:
            raise ShapeMismatch(
                f"expected {self.layout.param_count} parameters for layout "
                f"{self.layout.dims}, got {v.size}"
            )
        self.values = v

    @classmethod
    def float32(cls, values: np.ndarray, layout: ModelLayout) -> "ParameterVector":
        """A vector around a float32 buffer of the layout's length, used as
        it is, without the widening copy: the working form of the parameters
        and gradient inside ``engine.train_batches``, which widens before
        anything leaves it."""
        vec = cls.__new__(cls)
        vec.values, vec.layout = values, layout
        return vec

    def __len__(self) -> int:
        return int(self.values.size)

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.layout)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def bits_equal(self, other: "ParameterVector") -> bool:
        return self.layout == other.layout and np.array_equal(
            self.values.view(np.uint64), other.values.view(np.uint64)
        )


@dataclass
class OptimizerState:
    """Adam first/second moments (float32, like the stored form) plus the
    shared step counter, a Python or numpy int >= 0 kept as a Python int."""

    m: np.ndarray
    v: np.ndarray
    step_count: int

    def __post_init__(self) -> None:
        self.m = np.ascontiguousarray(self.m, dtype=F32).ravel()
        self.v = np.ascontiguousarray(self.v, dtype=F32).ravel()
        if self.m.size != self.v.size:
            raise ShapeMismatch("m and v must have equal length")
        steps = self.step_count
        if type(steps) is not int or steps < 0:
            self.step_count = as_int(steps, "step_count", 0)

    @classmethod
    def fresh(cls, layout: ModelLayout) -> "OptimizerState":
        n = layout.param_count
        return cls(np.zeros(n, dtype=F32), np.zeros(n, dtype=F32), 0)


@dataclass
class Batch:
    """One training mini-batch."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=F32)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.features.shape[0] != self.labels.size:
            raise ShapeMismatch("features and labels must have equal row counts")

    def __len__(self) -> int:
        return int(self.labels.size)


def _out_buffer(out, layout: ModelLayout) -> np.ndarray:
    """``out`` itself, checked to be a float32 array of the layout's length."""
    if not isinstance(out, np.ndarray) or out.dtype != F32 or out.shape != (layout.param_count,):
        raise ShapeMismatch(f"out must be a float32 array of shape ({layout.param_count},)")
    return out


def _layer_views(flat: np.ndarray, layout: ModelLayout) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into (W, b) array views per layer."""
    return [
        (flat[w_off:b_off].reshape(fan_in, fan_out), flat[b_off : b_off + fan_out])
        for fan_in, fan_out, w_off, b_off in layout._offsets
    ]


def init_params(layout: ModelLayout, seed: int) -> ParameterVector:
    """Scaled-uniform weight init, biases zero; deterministic in (layout, seed).

    Weights for a layer are drawn uniformly from
    [-sqrt(6 / (fan_in + fan_out)), +sqrt(6 / (fan_in + fan_out))].
    """
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    flat = np.zeros(layout.param_count, dtype=F64)
    for w, _b in _layer_views(flat, layout):
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-limit, limit, size=w.shape).astype(F32)
    return ParameterVector(flat, layout)


def _check_features(layout: ModelLayout, features: np.ndarray, dtype=F64) -> np.ndarray:
    feats = np.asarray(features, dtype=dtype)
    if feats.ndim != 2 or feats.shape[1] != layout.input_dim:
        raise ShapeMismatch(
            f"expected feature matrix with {layout.input_dim} columns, got shape {feats.shape}"
        )
    return feats


def forward(params: ParameterVector, features: np.ndarray) -> np.ndarray:
    """Class probabilities: ReLU hidden layers, softmax output. Rows sum to 1."""
    act = _check_features(params.layout, features)
    layers = _layer_views(params.values, params.layout)
    for w, b in layers[:-1]:
        act = act @ w
        act += b
        np.maximum(act, 0.0, out=act)
    w, b = layers[-1]
    logits = act @ w + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def loss_grad(
    params: ParameterVector, batch: Batch, out: np.ndarray | None = None
) -> tuple[float, ParameterVector]:
    """Mean softmax cross-entropy and its gradient via backpropagation.

    Forward and backward run in float32 on the weights cast once (not at all
    when ``params`` already holds float32), except the backward step through
    the thin output layer, which runs in float64; each layer's gradient is
    written straight into its slice of one float32 vector, so the gradient
    sits on the float32 grid. The loss goes through log-sum-exp over the
    logits in float64 with no probability clipping, so a run that collapses
    to zero probability surfaces as an infinite loss rather than being masked.

    Without ``out`` the gradient comes back widened into a new float64
    vector. With ``out`` (a float32 array of the layout's length, else
    ShapeMismatch) it is written into ``out`` and comes back as a
    ``ParameterVector.float32`` around it.
    """
    if len(batch) == 0:
        raise EmptyInput("loss_grad requires a non-empty batch")
    layout = params.layout
    grad = np.empty(layout.param_count, dtype=F32) if out is None else _out_buffer(out, layout)
    feats = _check_features(layout, batch.features, F32)
    labels = batch.labels
    if labels.min() < 0 or labels.max() >= layout.output_dim:
        raise InvalidArgument("labels must be class indices within the layout's output_dim")

    layers = _layer_views(params.values.astype(F32, copy=False), layout)
    acts = [feats]
    for w, b in layers[:-1]:
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    w, b = layers[-1]
    logits = (acts[-1] @ w + b).astype(F64)

    rows = np.arange(len(batch))
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    loss = float((lse - logits[rows, labels]).sum() / len(batch))  # np.mean's bits, less overhead

    delta = np.exp(logits - lse[:, None])
    delta[rows, labels] -= 1.0
    delta /= len(batch)

    # The per-row softmax-minus-one-hot terms cancel across rows of different
    # labels, and float32 rounding of each term can swamp a small sum. So the
    # delta stays float64 through the output layer, whose matmuls are only
    # classes wide, and the last hidden layer's bias gradient is summed from
    # it; the hidden x hidden matmuls run in float32.
    grad_views = _layer_views(grad, layout)
    gw, gb = grad_views[-1]
    gw[:] = acts[-1].T.astype(F64) @ delta
    gb[:] = delta.sum(axis=0)
    for k in range(len(layers) - 1, 0, -1):
        # acts[k] is the ReLU output, positive exactly where its input was
        delta = delta @ layers[k][0].T
        delta *= acts[k] > 0.0
        gw, gb = grad_views[k - 1]
        if delta.dtype == F64:
            gb[:] = delta.sum(axis=0)
            delta = delta.astype(F32)
        else:
            np.sum(delta, axis=0, out=gb)
        np.matmul(acts[k - 1].T, delta, out=gw)
    if out is None:
        return loss, ParameterVector(grad, layout)
    return loss, ParameterVector.float32(grad, layout)


def adam_step(
    params: ParameterVector,
    state: OptimizerState,
    grad: ParameterVector,
    learning_rate: float,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ParameterVector, OptimizerState]:
    """One bias-corrected Adam update at ``learning_rate``, with BETA1, BETA2
    and EPSILON; the rate is taken as a Python float (see BETA1).

    The moment and step arithmetic runs in float32 and the new parameters are
    quantized back to the float32 grid, so a checkpoint written to disk resumes
    bit-identically to an uninterrupted run.

    Without ``out`` the inputs are left untouched: the result is a new
    float64 vector and a state with new moments. With ``out``, a pair of
    float32 arrays of the layout's length (else ShapeMismatch) sharing no
    memory with ``params`` or ``grad``, the new parameters are written into
    ``out[0]`` and come back as a ``ParameterVector.float32`` around it,
    ``out[1]`` is scratch, and the moments are updated in place in
    ``state.m`` and ``state.v``, which the returned state shares.
    """
    layout = params.layout
    if layout != grad.layout or state.m.size != params.values.size:
        raise ShapeMismatch("params, state and grad must share one layout")
    if out is None:
        new, buf = np.empty(layout.param_count, dtype=F32), np.empty(layout.param_count, dtype=F32)
        m, v = state.m.copy(), state.v.copy()
    elif len(out) != 2:
        raise ShapeMismatch(f"out must be a pair of buffers, got {len(out)}")
    else:
        new, buf = (_out_buffer(x, layout) for x in out)
        m, v = state.m, state.v
    g = grad.values.astype(F32, copy=False)
    if not np.isfinite(g).all():
        raise NumericError("gradient contains non-finite elements")
    t = state.step_count + 1
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, then
    # step = lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), in float32 and
    # in that order; the denominator goes into ``new`` until the step is done.
    np.multiply(g, 1.0 - BETA1, out=buf)
    m *= BETA1
    m += buf
    np.multiply(g, g, out=buf)
    buf *= 1.0 - BETA2
    v *= BETA2
    v += buf
    np.divide(v, 1.0 - BETA2**t, out=new)
    np.sqrt(new, out=new)
    new += EPSILON
    np.divide(m, 1.0 - BETA1**t, out=buf)
    buf /= new
    buf *= float(learning_rate)
    np.subtract(params.values.astype(F32, copy=False), buf, out=new)
    stepped = ParameterVector(new, layout) if out is None else ParameterVector.float32(new, layout)
    return stepped, OptimizerState(m, v, t)


EVAL_BLOCK_ROWS = 4096


def evaluate(params: ParameterVector, dataset) -> float:
    """Fraction of samples whose argmax probability matches the label.

    Ties resolve toward the lower class index. ``dataset`` is anything with
    ``features`` and ``labels`` attributes. The rows go through ``forward`` in
    rows // EVAL_BLOCK_ROWS near-equal blocks (one block below that), each
    under 2 * EVAL_BLOCK_ROWS rows, which bounds the float64 activations held
    at once. No block is shorter than EVAL_BLOCK_ROWS: a short tail block was
    seen to move probabilities by an ulp against one whole-set call, blocks
    of that size did not.
    """
    feats = np.asarray(dataset.features)
    labels = np.asarray(dataset.labels).ravel()
    rows = feats.shape[0]
    if rows == 0:
        raise EmptyInput("evaluate requires a non-empty dataset")
    blocks = max(1, rows // EVAL_BLOCK_ROWS)
    hits = sum(
        int((forward(params, f).argmax(axis=1) == y).sum())
        for f, y in zip(np.array_split(feats, blocks), np.array_split(labels, blocks))
    )
    return hits / rows


def combine(
    a: ParameterVector, b: ParameterVector, sign: str, out: ParameterVector | None = None
) -> ParameterVector:
    """Elementwise a + b or a - b, kept exact in the float64 container.

    For float32-grid operands whose elementwise exponents stay within 2**28 of
    each other (always true for trained parameters against their recorded
    increments) the result is the exact real difference or sum, which is what
    makes subtract-then-add an exact inverse. The sign of a zero operand is
    the one exception: IEEE addition maps -0.0 + 0.0 to +0.0, and training
    never produces -0.0 coordinates.

    The result is a new vector, or, with ``out`` given (a writable vector of
    the same layout, which may be ``a`` or ``b`` itself), written into
    ``out``, which is returned.
    """
    layout = a.layout
    for other in (b, out):  # identity first: the layouts are usually one object
        if other is not None and other.layout is not layout and other.layout != layout:
            raise ShapeMismatch("combine requires vectors with identical layouts")
    if sign == "-":
        op = np.subtract
    elif sign == "+":
        op = np.add
    else:
        raise InvalidArgument(f"sign must be '+' or '-', got {sign!r}")
    if out is None:
        return ParameterVector(op(a.values, b.values), layout)
    op(a.values, b.values, out=out.values)
    return out
