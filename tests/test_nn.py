import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mubench import (
    Batch,
    ModelLayout,
    OptimizerState,
    ParameterVector,
    adam_step,
    combine,
    evaluate,
    forward,
    init_params,
    loss_grad,
)
from mubench.errors import (
    EmptyInput,
    InvalidArgument,
    NumericError,
    ShapeMismatch,
)

from mubench.nn import EVAL_BLOCK_ROWS

from conftest import balanced_batch

F32 = np.float32
LR = 0.005
PAPER_LAYOUT = ModelLayout(111)  # 111 features, two hidden layers of 128, 2 classes


# ---------------------------------------------------------------- layout/init
def test_param_count_paper_layout():
    # 111*128+128 + 128*128+128 + 128*2+2
    assert PAPER_LAYOUT.param_count == 31_106


def test_init_vector_length_matches_layout():
    p = init_params(PAPER_LAYOUT, seed=0)
    assert len(p) == 31_106


def test_init_deterministic():
    a = init_params(PAPER_LAYOUT, seed=12)
    b = init_params(PAPER_LAYOUT, seed=12)
    assert a.bits_equal(b)


def test_init_seed_changes_values():
    a = init_params(PAPER_LAYOUT, seed=1)
    b = init_params(PAPER_LAYOUT, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_init_biases_zero(small_layout):
    p = init_params(small_layout, seed=3)
    w_size = small_layout.input_dim * small_layout.hidden_dims[0]
    bias = p.values[w_size : w_size + small_layout.hidden_dims[0]]
    assert np.all(bias == 0.0)


@pytest.mark.parametrize("dims", [(0, (8,), 2), (4, (0,), 2), (4, (8,), -1)])
def test_invalid_layout_rejected(dims):
    with pytest.raises(InvalidArgument):
        ModelLayout(dims[0], dims[1], dims[2])


# ------------------------------------------------------------------- forward
def test_forward_zero_params_is_uniform(small_layout):
    zero = ParameterVector(np.zeros(small_layout.param_count), small_layout)
    probs = forward(zero, np.random.default_rng(0).standard_normal((9, 6)))
    assert np.allclose(probs, 0.5, atol=0)


def test_forward_rows_sum_to_one(small_layout):
    p = init_params(small_layout, seed=5)
    x = np.random.default_rng(1).standard_normal((50, 6)) * 3.0
    sums = forward(p, x).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-6)


def test_forward_matches_naive_per_neuron_evaluation(small_layout):
    """Independent oracle: per-neuron python loops, no matrix ops."""
    p = init_params(small_layout, seed=7)
    x = np.random.default_rng(2).standard_normal(6)

    off = 0
    act = [float(v) for v in x]
    for fan_in, fan_out in small_layout.layer_shapes():
        w = p.values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = p.values[off : off + fan_out]
        off += fan_out
        out = []
        for j in range(fan_out):
            z = float(b[j])
            for i in range(fan_in):
                z += act[i] * float(w[i, j])
            out.append(z)
        last = off == small_layout.param_count
        act = out if last else [max(z, 0.0) for z in out]
    exps = [math.exp(z - max(act)) for z in act]
    expected = np.array([e / sum(exps) for e in exps])

    got = forward(p, x[None, :])[0]
    assert np.abs(got - expected).max() <= 1e-6


def test_forward_dim_mismatch(small_layout):
    p = init_params(small_layout, seed=0)
    with pytest.raises(ShapeMismatch):
        forward(p, np.zeros((3, 5)))


# ------------------------------------------------------------------ loss/grad
def test_loss_zero_params_is_ln2(small_layout):
    zero = ParameterVector(np.zeros(small_layout.param_count), small_layout)
    loss, _ = loss_grad(zero, balanced_batch(small_layout, 8, seed=0))
    assert abs(loss - math.log(2.0)) <= 1e-6


def test_loss_grad_empty_batch(small_layout):
    p = init_params(small_layout, seed=0)
    empty = Batch(np.zeros((0, 6), dtype=F32), np.zeros(0, dtype=int))
    with pytest.raises(EmptyInput):
        loss_grad(p, empty)


def test_loss_grad_duplication_invariant(small_layout):
    p = init_params(small_layout, seed=9)
    batch = balanced_batch(small_layout, 4, seed=3)
    doubled = Batch(
        np.vstack([batch.features, batch.features]),
        np.concatenate([batch.labels, batch.labels]),
    )
    loss1, g1 = loss_grad(p, batch)
    loss2, g2 = loss_grad(p, doubled)
    assert abs(loss1 - loss2) <= 1e-12
    np.testing.assert_allclose(g1.values, g2.values, rtol=3e-7, atol=1e-12)


def _naive_loss(flat64: np.ndarray, layout: ModelLayout, feats, labels) -> float:
    """Separate float64 loss used by the finite-difference oracle."""
    off = 0
    act = np.asarray(feats, dtype=np.float64)
    n_layers = len(layout.layer_shapes())
    for k, (fan_in, fan_out) in enumerate(layout.layer_shapes()):
        w = flat64[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = flat64[off : off + fan_out]
        off += fan_out
        z = act @ w + b
        act = z if k == n_layers - 1 else np.maximum(z, 0.0)
    mx = act.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(act - mx).sum(axis=1))
    return float(np.mean(lse - act[np.arange(len(labels)), labels]))


def central_difference_grad(params, layout, feats, labels, coords, h):
    base = params.values.astype(np.float64)
    out = {}
    for c in coords:
        up, dn = base.copy(), base.copy()
        up[c] += h
        dn[c] -= h
        out[c] = (_naive_loss(up, layout, feats, labels) - _naive_loss(dn, layout, feats, labels)) / (2 * h)
    return out


def test_backprop_matches_central_differences(small_layout):
    """20 random coordinates with non-negligible gradient, h = 1e-3."""
    p = init_params(small_layout, seed=11)
    batch = balanced_batch(small_layout, 5, seed=7)
    _, grad = loss_grad(p, batch)

    rng = np.random.default_rng(13)
    candidates = [c for c in rng.permutation(small_layout.param_count) if abs(grad.values[c]) >= 1e-2]
    coords = candidates[:20]
    assert len(coords) == 20
    fd = central_difference_grad(p, small_layout, batch.features, batch.labels, coords, h=1e-3)
    for c in coords:
        a, b = float(grad.values[c]), fd[c]
        assert abs(a - b) / max(abs(a), abs(b)) <= 1e-4


def _reference_loss_grad(values: np.ndarray, layout: ModelLayout, feats, labels):
    """Float64 backpropagation written out separately from loss_grad; also
    returns the smallest |pre-activation|, the distance to a ReLU kink."""
    layers, off = [], 0
    for fan_in, fan_out in layout.layer_shapes():
        w = values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        layers.append((w, values[off : off + fan_out]))
        off += fan_out
    acts, pres = [np.asarray(feats, dtype=np.float64)], []
    for w, b in layers[:-1]:
        pres.append(acts[-1] @ w + b)
        acts.append(np.maximum(pres[-1], 0.0))
    logits = acts[-1] @ layers[-1][0] + layers[-1][1]
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(log_probs[rows, labels].mean())
    delta = np.exp(log_probs)
    delta[rows, labels] -= 1.0
    delta /= len(labels)
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        grads = [(acts[k].T @ delta).ravel(), delta.sum(axis=0)] + grads
        if k > 0:
            delta = (delta @ layers[k][0].T) * (pres[k - 1] > 0.0)
    kink = min((float(np.abs(z).min()) for z in pres), default=np.inf)
    return loss, np.concatenate(grads), kink


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 32),
    hidden=st.lists(st.integers(1, 64), min_size=1, max_size=2),
    output_dim=st.integers(2, 3),
    rows=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
@example(input_dim=24, hidden=[64, 64], output_dim=2, rows=1, seed=0)
# two rows of different labels whose gradients nearly cancel: in the output
# bias, and in the last hidden layer's bias
@example(input_dim=19, hidden=[1], output_dim=2, rows=2, seed=3)
@example(input_dim=13, hidden=[1, 7], output_dim=2, rows=2, seed=2)
def test_loss_grad_matches_float64_backprop(input_dim, hidden, output_dim, rows, seed):
    """The float32 gradient stays within 1e-5 of the largest float64 gradient
    coordinate, over random layouts and batch sizes down to one row. Draws
    with a pre-activation within 1e-6 of a ReLU kink are skipped: there the
    two precisions may legitimately take different sides of the kink."""
    layout = ModelLayout(input_dim, tuple(hidden), output_dim)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.1, 0.1, layout.param_count)  # nonzero biases
    params = ParameterVector((init_params(layout, seed).values + jitter).astype(F32), layout)
    feats = rng.standard_normal((rows, input_dim)).astype(F32)
    labels = rng.integers(0, output_dim, rows)
    ref_loss, ref_grad, kink = _reference_loss_grad(params.values, layout, feats, labels)
    assume(kink > 1e-6)
    loss, grad = loss_grad(params, Batch(feats, labels))
    assert np.abs(grad.values - ref_grad).max() <= 1e-5 * np.abs(ref_grad).max()
    assert abs(loss - ref_loss) <= 1e-5 * max(1.0, ref_loss)


def _on_f32_grid(values: np.ndarray) -> bool:
    return np.array_equal(values, values.astype(F32).astype(np.float64))


def test_training_step_stays_on_float32_grid(small_layout):
    """Gradients, params and moments sit on the float32 grid after every
    step, also when the starting params are off it (as a combine result is)."""
    params = init_params(small_layout, seed=6)
    params.values[:] += 1e-12  # off the grid
    assert not _on_f32_grid(params.values)
    state = OptimizerState.fresh(small_layout)
    for step in range(5):
        _, grad = loss_grad(params, balanced_batch(small_layout, 9, seed=step))
        assert _on_f32_grid(grad.values)
        params, state = adam_step(params, state, grad, LR)
        assert _on_f32_grid(params.values)
        assert state.m.dtype == F32 and state.v.dtype == F32


# ----------------------------------------------------------------------- adam
def test_adam_zero_grad_is_fixed_point(small_layout):
    p = init_params(small_layout, seed=1)
    state = OptimizerState.fresh(small_layout)
    zero_grad = ParameterVector(np.zeros(small_layout.param_count), small_layout)
    p2, s2 = adam_step(p, state, zero_grad, LR)
    assert p2.bits_equal(p)
    assert s2.step_count == 1


def test_adam_first_step_magnitude(small_layout):
    lr = 0.005
    zero = ParameterVector(np.zeros(small_layout.param_count), small_layout)
    state = OptimizerState.fresh(small_layout)
    g = np.where(np.arange(small_layout.param_count) % 2 == 0, 2.0, -3.0)
    p2, _ = adam_step(zero, state, ParameterVector(g, small_layout), lr)
    displacement = p2.values
    assert np.abs(displacement - (-lr * np.sign(g))).max() <= 1e-6 * lr


def test_adam_two_steps_match_hand_unrolled(small_layout):
    """Hand-unrolled float64 Adam recurrence for a constant gradient."""
    lr, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    p0 = init_params(small_layout, seed=2)
    g = np.full(small_layout.param_count, 0.37)
    state = OptimizerState.fresh(small_layout)
    gv = ParameterVector(g, small_layout)
    p1, s1 = adam_step(p0, state, gv, lr)
    p2, s2 = adam_step(p1, s1, gv, lr)

    x = p0.values.astype(np.float64)
    m = v = 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 0.37
        v = b2 * v + (1 - b2) * 0.37**2
        x = x - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    assert np.abs(p2.values - x).max() <= 1e-7
    assert s2.step_count == 2


def _reference_adam(values, m, v, step_count, g, lr):
    """The Adam step written as plain float32 expressions, in the order adam_step keeps."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    g = g.astype(F32)
    t = step_count + 1
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
    step = lr * (m_hat / (np.sqrt(v_hat) + eps))
    return (values.astype(F32) - step).astype(np.float64), m, v


@pytest.mark.parametrize("seed", range(6))
def test_adam_step_bit_equal_to_reference(small_layout, seed):
    rng = np.random.default_rng(seed)
    n = small_layout.param_count
    scale = 10.0 ** rng.uniform(-6, 1)
    lr = float(10 ** rng.uniform(-4, -1))
    m0 = (rng.standard_normal(n) * scale).astype(F32)
    v0 = (rng.standard_normal(n) * scale).astype(F32) ** 2
    g = rng.standard_normal(n) * scale
    g[::5] = 0.0
    params = ParameterVector(rng.standard_normal(n).astype(F32), small_layout)
    state = OptimizerState(m0, v0, int(rng.integers(0, 1000)))
    got, got_state = adam_step(params, state, ParameterVector(g, small_layout), lr)
    want, want_m, want_v = _reference_adam(params.values, m0, v0, state.step_count, g, lr)
    assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got_state.m.view(np.uint32), want_m.view(np.uint32))
    assert np.array_equal(got_state.v.view(np.uint32), want_v.view(np.uint32))
    assert np.array_equal(state.m, m0) and np.array_equal(state.v, v0)  # inputs untouched
    assert got_state.step_count == state.step_count + 1


def test_adam_numpy_learning_rate_matches_python_float(small_layout):
    """A numpy float64 learning rate must not promote the float32 step."""
    params = init_params(small_layout, seed=4)
    _, grad = loss_grad(params, balanced_batch(small_layout, 8, seed=2))
    runs = []
    for lr in (LR, np.float64(LR)):
        p, s = params, OptimizerState.fresh(small_layout)
        for _ in range(3):
            p, s = adam_step(p, s, grad, lr)
        runs.append((p, s))
    (p1, s1), (p2, s2) = runs
    assert p1.bits_equal(p2)
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)
    assert _on_f32_grid(p2.values)


def test_adam_rejects_nonfinite_grad(small_layout):
    p = init_params(small_layout, seed=1)
    state = OptimizerState.fresh(small_layout)
    g = np.zeros(small_layout.param_count)
    g[3] = np.nan
    with pytest.raises(NumericError):
        adam_step(p, state, ParameterVector(g, small_layout), LR)


def test_adam_length_mismatch(small_layout):
    other = ModelLayout(3, (4,), 2)
    p = init_params(small_layout, seed=1)
    with pytest.raises(ShapeMismatch):
        adam_step(p, OptimizerState.fresh(small_layout), init_params(other, 1), LR)


def _wrong_buffers(layout):
    n = layout.param_count
    return [np.empty(n, dtype=np.float64), np.empty(n + 1, dtype=F32), np.empty((1, n), dtype=F32)]


def test_loss_grad_checks_its_out_buffer(small_layout):
    params, batch = init_params(small_layout, seed=1), balanced_batch(small_layout, 8, seed=0)
    for out in _wrong_buffers(small_layout):
        with pytest.raises(ShapeMismatch):
            loss_grad(params, batch, out)


def test_adam_step_checks_its_out_buffers(small_layout):
    n = small_layout.param_count
    params, state = init_params(small_layout, seed=1), OptimizerState.fresh(small_layout)
    _, grad = loss_grad(params, balanced_batch(small_layout, 8, seed=0))
    for bad in _wrong_buffers(small_layout):
        for out in ((bad, np.empty(n, dtype=F32)), (np.empty(n, dtype=F32), bad)):
            with pytest.raises(ShapeMismatch):
                adam_step(params, state, grad, LR, out)
    with pytest.raises(ShapeMismatch):
        adam_step(params, state, grad, LR, (np.empty(n, dtype=F32),) * 3)


def test_out_calls_write_the_bits_of_allocating_calls(small_layout):
    """With ``out``, the gradient, new params and in-place moments are the
    float32 forms of what the allocating calls return."""
    n = small_layout.param_count
    params = init_params(small_layout, seed=3)
    batch = balanced_batch(small_layout, 9, seed=1)
    state = OptimizerState(np.full(n, 0.1, F32), np.full(n, 0.01, F32), 7)
    loss, grad = loss_grad(params, batch)
    out_loss, out_grad = loss_grad(params, batch, np.empty(n, dtype=F32))
    assert out_loss == loss and out_grad.values.dtype == F32
    assert np.array_equal(out_grad.values.astype(np.float64), grad.values)
    want, want_state = adam_step(params, state, grad, LR)
    work = OptimizerState(state.m.copy(), state.v.copy(), state.step_count)
    got, got_state = adam_step(params, work, out_grad, LR, (np.empty(n, F32), np.empty(n, F32)))
    assert got.values.dtype == F32
    assert np.array_equal(got.values.astype(np.float64), want.values)
    assert np.shares_memory(got_state.m, work.m) and np.shares_memory(got_state.v, work.v)
    assert np.array_equal(work.m, want_state.m) and np.array_equal(work.v, want_state.v)
    assert got_state.step_count == want_state.step_count


# ------------------------------------------------------------------- evaluate
class _Eval:
    def __init__(self, features, labels):
        self.features = features
        self.labels = labels


def test_evaluate_zero_params_ties_to_class_zero(small_layout):
    zero = ParameterVector(np.zeros(small_layout.param_count), small_layout)
    feats = np.random.default_rng(0).standard_normal((40, 6))
    labels = np.arange(40) % 2
    assert evaluate(zero, _Eval(feats, labels)) == 0.5


def test_evaluate_self_consistency(small_layout):
    p = init_params(small_layout, seed=8)
    feats = np.random.default_rng(5).standard_normal((64, 6))
    labels = forward(p, feats).argmax(axis=1)
    assert evaluate(p, _Eval(feats, labels)) == 1.0


def test_evaluate_in_blocks_equals_one_whole_forward(small_layout):
    """A set of three blocks and a remainder, with labels near the decision
    boundary: the blocked accuracy is the whole-set argmax's."""
    p = init_params(small_layout, seed=2)
    rows = 3 * EVAL_BLOCK_ROWS + 1234
    feats = np.random.default_rng(6).standard_normal((rows, 6)).astype(F32)
    whole = forward(p, feats)
    labels = (whole[:, 1] > np.median(whole[:, 1])).astype(np.int64)
    assert evaluate(p, _Eval(feats, labels)) == float((whole.argmax(axis=1) == labels).mean())


def test_evaluate_empty(small_layout):
    p = init_params(small_layout, seed=8)
    with pytest.raises(EmptyInput):
        evaluate(p, _Eval(np.zeros((0, 6)), np.zeros(0, dtype=int)))


def test_trained_model_separates_linear_data():
    """>= 0.95 on linearly separable synthetic data, n = 2000."""
    from mubench.mia import fit_dense

    rng = np.random.default_rng(42)
    w = rng.standard_normal(10)
    feats = rng.standard_normal((2000, 10)).astype(F32)
    labels = (feats @ w > 0).astype(np.int64)
    layout = ModelLayout(10, (32, 32), 2)
    params = fit_dense(feats, labels, layout, epochs=10, batch_size=128,
                       learning_rate=0.005, seed=3)
    assert evaluate(params, _Eval(feats, labels)) >= 0.95


# -------------------------------------------------------------------- combine
def test_combine_self_subtraction_is_zero(small_layout):
    p = init_params(small_layout, seed=4)
    z = combine(p, p, "-")
    assert np.all(z.values == 0.0)


def test_combine_subtract_add_roundtrip_full_size():
    base = init_params(PAPER_LAYOUT, seed=1)
    delta = init_params(PAPER_LAYOUT, seed=2)
    diff = combine(base, delta, "-")
    assert len(diff) == 31_106
    assert combine(diff, delta, "+").bits_equal(base)


def test_combine_into_an_operand(small_layout):
    """With ``out`` the result lands in the given vector, bit-equal to a new
    one, and the operands not named stay as they were."""
    base, delta = init_params(small_layout, seed=5), init_params(small_layout, seed=6)
    want = combine(base, delta, "-")
    into = delta.copy()
    assert combine(base, into, "-", out=into) is into
    assert into.bits_equal(want)
    assert combine(into, delta, "+", out=into).bits_equal(base)
    with pytest.raises(ShapeMismatch):
        combine(base, delta, "-", out=init_params(ModelLayout(3, (4,), 2), 0))


def test_combine_shape_mismatch(small_layout):
    with pytest.raises(ShapeMismatch):
        combine(init_params(small_layout, 0), init_params(ModelLayout(3, (4,), 2), 0), "-")


def test_combine_bad_sign(small_layout):
    p = init_params(small_layout, seed=0)
    for sign in ("*", "\u2212"):  # U+2212 MINUS SIGN is not "-"
        with pytest.raises(InvalidArgument):
            combine(p, p, sign)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_combine_roundtrip_property(data):
    """Exact inverse over float32-grid values within combine's stated domain:
    elementwise exponents within 2**28 of each other. Values below 1e-3 are
    snapped to exact zero (zero is exact; a subnormal against a unit-scale
    value is not, and training cannot produce that pairing). -0.0 normalizes
    to +0.0 since IEEE addition cannot preserve the sign of zero.
    """
    layout = ModelLayout(2, (2,), 2)
    n = layout.param_count
    draw = lambda lo, hi: np.asarray(
        data.draw(
            st.lists(
                st.floats(lo, hi, allow_nan=False, width=32).map(
                    lambda v: 0.0 if abs(v) < 1e-3 else v
                ),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=F32,
    )
    base = ParameterVector(draw(-1e3, 1e3), layout)
    delta = ParameterVector(draw(-1e3, 1e3), layout)
    assert combine(combine(base, delta, "-"), delta, "+").bits_equal(base)
    assert combine(combine(base, delta, "+"), delta, "-").bits_equal(base)
