"""Numeric core: a fixed-layout MLP over flat parameter vectors.

Every operation here is a pure function of its inputs. Precision model:

* Training computes in float32. ``loss_grad`` runs forward and backward in
  float32 on weights cast once per call (only the loss over the logits is
  taken in float64), so its gradient sits on the float32 grid by
  construction; ``adam_step`` does its moment arithmetic in float32 and
  rounds the new parameters to the float32 grid. ``init_params`` draws on
  that grid too, which is also the on-disk and ledger precision.
* ``ParameterVector`` holds its values in a float64 container. That is what
  ``combine`` needs: it keeps the exact float64 difference instead of
  re-rounding, so subtracting a recorded increment and adding it back restores
  the original bits; with float32 re-rounding that inverse does not exist.
  ``forward`` and ``evaluate`` read the container in float64.
* A retraining start that ``combine`` amended off the grid is rounded to it
  by the first training step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidArgument, NumericError, ShapeMismatch

F32 = np.float32
F64 = np.float64


@dataclass(frozen=True)
class ModelLayout:
    """Widths of the classifier: input features, hidden layers, classes."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (128, 128)
    output_dim: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        object.__setattr__(self, "output_dim", int(self.output_dim))
        if min(self.dims) <= 0:
            raise InvalidArgument(f"all layout dimensions must be positive, got {self.dims}")
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
    differences until they are quantized at the serialization boundary.
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


def _to_grid(values: np.ndarray) -> np.ndarray:
    """Quantize to the float32 grid, returned as float64."""
    return values.astype(F32).astype(F64)


@dataclass(frozen=True)
class AdamHyper:
    """Adam's hyperparameters, held as Python floats: a numpy float64 scalar
    would promote ``adam_step``'s float32 arithmetic to float64 (NEP 50)."""

    learning_rate: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("learning_rate", "beta1", "beta2", "epsilon"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass
class OptimizerState:
    """Adam first/second moments (float32, like the stored form) plus the
    shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step_count: int
    hyper: AdamHyper

    def __post_init__(self) -> None:
        self.m = np.ascontiguousarray(self.m, dtype=F32).ravel()
        self.v = np.ascontiguousarray(self.v, dtype=F32).ravel()
        if self.m.size != self.v.size:
            raise ShapeMismatch("m and v must have equal length")
        if self.step_count < 0:
            raise InvalidArgument("step_count must be non-negative")

    @classmethod
    def fresh(cls, layout: ModelLayout, hyper: AdamHyper | None = None) -> "OptimizerState":
        n = layout.param_count
        return cls(np.zeros(n, dtype=F32), np.zeros(n, dtype=F32), 0, hyper or AdamHyper())


@dataclass
class Batch:
    """One training mini-batch with its dataset-global sample ids."""

    features: np.ndarray
    labels: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=F32)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64).ravel()
        if not (self.features.shape[0] == self.labels.size == self.sample_ids.size):
            raise ShapeMismatch("features, labels and sample_ids must have equal row counts")

    def __len__(self) -> int:
        return int(self.labels.size)


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
    rng = np.random.default_rng(seed)
    flat = np.zeros(layout.param_count, dtype=F64)
    for w, _b in _layer_views(flat, layout):
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = _to_grid(rng.uniform(-limit, limit, size=w.shape)).reshape(fan_in, fan_out)
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


def loss_grad(params: ParameterVector, batch: Batch) -> tuple[float, ParameterVector]:
    """Mean softmax cross-entropy and its gradient via backpropagation.

    Forward and backward run in float32 on the weights cast once, and each
    layer's gradient is written straight into its slice of one float32
    vector, so the gradient sits on the float32 grid. The loss goes through
    log-sum-exp over the logits in float64 with no probability clipping, so a
    run that collapses to zero probability surfaces as an infinite loss
    rather than being masked.
    """
    if len(batch) == 0:
        raise EmptyInput("loss_grad requires a non-empty batch")
    layout = params.layout
    feats = _check_features(layout, batch.features, F32)
    labels = batch.labels
    if labels.min() < 0 or labels.max() >= layout.output_dim:
        raise InvalidArgument("labels must be class indices within the layout's output_dim")

    layers = _layer_views(params.values.astype(F32), layout)
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
    loss = float(np.mean(lse - logits[rows, labels]))

    delta = np.exp(logits - lse[:, None])
    delta[rows, labels] -= 1.0
    delta = (delta / len(batch)).astype(F32)

    grad = np.empty(layout.param_count, dtype=F32)
    grad_views = _layer_views(grad, layout)
    for k in range(len(layers) - 1, -1, -1):
        gw, gb = grad_views[k]
        np.matmul(acts[k].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if k > 0:
            # acts[k] is the ReLU output, positive exactly where its input was
            delta = delta @ layers[k][0].T
            delta *= acts[k] > 0.0
    return loss, ParameterVector(grad, layout)


def adam_step(
    params: ParameterVector, state: OptimizerState, grad: ParameterVector
) -> tuple[ParameterVector, OptimizerState]:
    """One bias-corrected Adam update; returns fresh params and state.

    The moment and step arithmetic runs in float32 and the new parameters are
    quantized back to the float32 grid, so a checkpoint written to disk resumes
    bit-identically to an uninterrupted run.
    """
    if params.layout != grad.layout or state.m.size != params.values.size:
        raise ShapeMismatch("params, state and grad must share one layout")
    g = grad.values.astype(F32)
    if not np.isfinite(g).all():
        raise NumericError("gradient contains non-finite elements")
    h = state.hyper
    t = state.step_count + 1
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, then
    # step = lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), in float32 and
    # in that order, on two scratch buffers; g is this call's own copy.
    buf = g * (1.0 - h.beta1)
    m = state.m * h.beta1
    m += buf
    np.multiply(g, g, out=g)
    g *= 1.0 - h.beta2
    v = state.v * h.beta2
    v += g
    np.divide(m, 1.0 - h.beta1**t, out=buf)
    np.divide(v, 1.0 - h.beta2**t, out=g)
    np.sqrt(g, out=g)
    g += h.epsilon
    buf /= g
    buf *= h.learning_rate
    new_values = params.values.astype(F32)
    new_values -= buf
    return ParameterVector(new_values, params.layout), OptimizerState(m, v, t, h)


def evaluate(params: ParameterVector, dataset) -> float:
    """Fraction of samples whose argmax probability matches the label.

    Ties resolve toward the lower class index. ``dataset`` is anything with
    ``features`` and ``labels`` attributes.
    """
    feats = np.asarray(dataset.features)
    labels = np.asarray(dataset.labels).ravel()
    if feats.shape[0] == 0:
        raise EmptyInput("evaluate requires a non-empty dataset")
    preds = forward(params, feats).argmax(axis=1)
    return float((preds == labels).mean())


def combine(a: ParameterVector, b: ParameterVector, sign: str) -> ParameterVector:
    """Elementwise a + b or a - b, kept exact in the float64 container.

    For float32-grid operands whose elementwise exponents stay within 2**28 of
    each other (always true for trained parameters against their recorded
    increments) the result is the exact real difference or sum, which is what
    makes subtract-then-add an exact inverse. The sign of a zero operand is
    the one exception: IEEE addition maps -0.0 + 0.0 to +0.0, and training
    never produces -0.0 coordinates.
    """
    if a.layout != b.layout:
        raise ShapeMismatch("combine requires vectors with identical layouts")
    if sign in ("-", "−"):
        return ParameterVector(a.values - b.values, a.layout)
    if sign == "+":
        return ParameterVector(a.values + b.values, a.layout)
    raise InvalidArgument(f"sign must be '+' or '-', got {sign!r}")
