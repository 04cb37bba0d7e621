"""Autodiff engine tests: finite-difference oracles and graph mechanics."""

import contextlib
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulmkit import tensor as T


def finite_diff(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = f()
        x[i] = orig - eps
        lo = f()
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


def precision(float32):
    """F32_MIN_HIDDEN patched so that an op that records a gradient runs in
    float32 (0) or in float64 (``np.inf``) at any width."""
    return mock.patch.object(T, "F32_MIN_HIDDEN", 0 if float32 else np.inf)


def check_grad(build, *params, tol=1e-6, value=None):
    """build() -> scalar loss Tensor over the given param Tensors; the
    central differences are taken of ``value()``, by default of build()'s
    loss itself."""
    loss = build()
    T.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p, g in zip(params, analytic):
        fd = finite_diff(value or (lambda: build().data), p.data)
        assert rel_err(g, fd) < tol, f"grad mismatch for {p.name or p.shape}"


# -- test-local ops on T._make: reducers, the oracle's structural ops, and
# the generic ops the model composed its dropout sites and head from -------


def total(x):
    """Sum of every entry: the scalar loss the gradient checks reduce to."""

    def bwd(g):
        if x.requires_grad:
            x.accumulate(np.broadcast_to(g, x.shape))

    return T._make(x.data.sum(), (x,), bwd)


def take(x, key):
    """x.data[key] for a basic-slicing key."""

    def bwd(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[key] = g
            x.accumulate(full)

    return T._make(x.data[key], (x,), bwd)


def concat(tensors, axis):
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate(np.take(g, np.arange(lo, hi), axis=axis))

    return T._make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    """a + b with numpy broadcasting."""

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return T._make(a.data + b.data, (a, b), bwd)


def mul(a, b):
    """a * b with numpy broadcasting."""

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return T._make(a.data * b.data, (a, b), bwd)


def matmul(a, b):
    """a @ b for two matrices."""

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return T._make(a.data @ b.data, (a, b), bwd)


def relu(x):
    """max(x, 0) elementwise."""

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * (x.data > 0))

    return T._make(np.maximum(x.data, 0.0), (x,), bwd)


def pool(x, lengths):
    """ULMFiT's concat pool of (batch, steps, features) x by a loop over each
    sequence's valid steps: the last one, the max, and the mean as the sum
    of the steps times 1/n, the way the fused head sums it. Backward adds
    the three parts' gradients to x's in that order."""
    f = x.shape[2]
    valid = [x.data[b, :n] for b, n in enumerate(lengths)]
    out = np.stack([np.concatenate([v[-1], v.max(axis=0), (v * (1.0 / len(v))).sum(axis=0)])
                    for v in valid])

    def bwd(g):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            for b, v in enumerate(valid):
                dx[b, len(v) - 1] += g[b, :f]
                dx[b, v.argmax(axis=0), np.arange(f)] += g[b, f : 2 * f]
                dx[b, : len(v)] += g[b, 2 * f :] * (1.0 / len(v))
            x.accumulate(dx)

    return T._make(out, (x,), bwd)


def identity_head(feats):
    """W1, b1, W2 and b2 of a head on ``feats`` features whose logits are
    its pool: relu(p) - relu(-p) = p, each product by 0 or +-1 and so exact."""
    eye = np.eye(3 * feats)
    return (T.Tensor(np.hstack([eye, -eye])), T.Tensor(np.zeros(6 * feats)),
            T.Tensor(np.vstack([eye, -eye])), T.Tensor(np.zeros(3 * feats)))


def test_add_mul_matmul_grads():
    rng = np.random.default_rng(0)
    a = T.param(rng.normal(size=(3, 4)), "a")
    b = T.param(rng.normal(size=(4, 2)), "b")
    c = T.param(rng.normal(size=(3, 2)), "c")

    def build():
        a.zero_grad(), b.zero_grad(), c.zero_grad()
        return total(mul(add(matmul(a, b), c), c))

    check_grad(build, a, b, c)


def test_broadcast_add_grad():
    rng = np.random.default_rng(1)
    x = T.param(rng.normal(size=(5, 3)), "x")
    bias = T.param(rng.normal(size=(3,)), "bias")

    def build():
        x.zero_grad(), bias.zero_grad()
        return total(mul(add(x, bias), add(x, bias)))

    check_grad(build, x, bias)


# -- the per-timestep LSTM graph: the oracle for the fused T.lstm ----------


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * s * (1.0 - s))

    return T._make(s, (x,), bwd)


def tanh(x):
    t = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * (1.0 - t * t))

    return T._make(t, (x,), bwd)


def lstm_per_step(x, h0, c0, w_ih, w_hh, b):
    """The LSTM layer built from one small graph node per gate op and step,
    as the model ran it before the fused op; returns outputs, h and c."""
    bsz, steps, _ = x.shape
    hs = w_hh.shape[0]
    h, c = T.Tensor(h0), T.Tensor(c0)
    outs = []
    for t in range(steps):
        z = add(add(matmul(take(x, np.s_[:, t, :]), w_ih), matmul(h, w_hh)), b)
        i = sigmoid(take(z, np.s_[:, 0 * hs : 1 * hs]))
        f = sigmoid(take(z, np.s_[:, 1 * hs : 2 * hs]))
        g = tanh(take(z, np.s_[:, 2 * hs : 3 * hs]))
        o = sigmoid(take(z, np.s_[:, 3 * hs : 4 * hs]))
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
        outs.append(take(h, np.s_[:, None, :]))
    return concat(outs, axis=1), h.data, c.data


@pytest.mark.parametrize("op", [sigmoid, tanh, relu])
def test_elementwise_grads(op):
    rng = np.random.default_rng(2)
    # keep relu inputs away from the kink at 0
    x = T.param(rng.normal(size=(4, 5)) + np.sign(rng.normal(size=(4, 5))) * 0.2, "x")

    def build():
        x.zero_grad()
        return total(mul(op(x), op(x)))

    check_grad(build, x)


def lstm_inputs(bsz, steps, n_in, hs, seed):
    """x, h0, c0, W_ih, W_hh and b for one layer; the carried state is
    non-zero."""
    rng = np.random.default_rng(seed)
    return (T.param(rng.normal(size=(bsz, steps, n_in)), "x"),
            0.5 * rng.normal(size=(bsz, hs)), 0.5 * rng.normal(size=(bsz, hs)),
            T.param(rng.uniform(-0.5, 0.5, size=(n_in, 4 * hs)), "W_ih"),
            T.param(rng.uniform(-0.5, 0.5, size=(hs, 4 * hs)), "W_hh"),
            T.param(0.1 * rng.normal(size=4 * hs), "b"))


@pytest.mark.parametrize("bsz,steps", [(3, 6), (2, 1), (1, 5)])
def test_lstm_forward_matches_per_step_graph(bsz, steps):
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(bsz, steps, 5, 7, seed=10 * bsz + steps)
    out, h, c = T.lstm(x, h0, c0, w_ih, w_hh, b)
    want = lstm_per_step(x, h0, c0, w_ih, w_hh, b)
    for got, ref in zip((out.data, h, c), (want[0].data, want[1], want[2])):
        if bsz >= 2:  # the per-step arithmetic in the same order
            assert np.array_equal(got, ref)
        else:  # BLAS takes its matrix-vector path for a one-row product
            assert rel_err(got, ref) <= 1e-15
    assert out.shape == (bsz, steps, 7)
    assert not np.shares_memory(h, out.data) and not np.shares_memory(c, out.data)


@pytest.mark.parametrize("bsz,steps", [(3, 6), (2, 1), (1, 5)])
def test_lstm_grads_match_per_step_graph(bsz, steps):
    x, h0, c0, w_ih, W_hh, b = lstm_inputs(bsz, steps, 5, 7, seed=10 * bsz + steps)
    mask = T.Tensor(T.Rng(0).keep_mask(W_hh.shape, 0.3))  # DropConnect on W_hh
    weights = T.Tensor(np.random.default_rng(1).normal(size=(bsz, steps, 7)))
    grads = []
    for layer in (T.lstm, lstm_per_step):
        for p in (x, w_ih, W_hh, b):
            p.zero_grad()
        out, _, _ = layer(x, h0, c0, w_ih, mul(W_hh, mask), b)
        T.backward(total(mul(out, weights)))
        grads.append([p.grad for p in (x, w_ih, W_hh, b)])
    for name, got, want in zip(("x", "W_ih", "W_hh", "b"), *grads):
        assert rel_err(got, want) <= 1e-12, name


def lstm_masks(x, w_hh, seed):
    """A variational keep mask for x and a weight drop for W_hh, at
    AWD-LSTM's input and weight rates."""
    rng = T.Rng(seed)
    return rng.keep_mask((x.shape[0], 1, x.shape[2]), 0.25), rng.keep_mask(w_hh.shape, 0.2)


@pytest.mark.parametrize("float32", [False, True], ids=["float64", "float32"])
@pytest.mark.parametrize("which", ["x", "w", "both"])
def test_lstm_masks_match_mul_then_lstm(which, float32):
    # a tiny-preset layer; the generic composition first multiplies each
    # masked input by its mask in its own graph node
    inputs = lstm_inputs(8, 12, 64, 128, seed=7)
    x, h0, c0, w_ih, w_hh, b = inputs
    x_mask, w_mask = lstm_masks(x, w_hh, 3)
    x_mask = x_mask if which != "w" else None
    w_mask = w_mask if which != "x" else None
    weights = T.Tensor(np.random.default_rng(1).normal(size=(8, 12, 128)))
    results = []
    for fused in (True, False):
        for p in (x, w_ih, w_hh, b):
            p.zero_grad()
        with precision(float32):
            if fused:
                out, h, c = T.lstm(x, h0, c0, w_ih, w_hh, b, x_mask, w_mask)
            else:
                xm = x if x_mask is None else mul(x, T.Tensor(x_mask))
                wm = w_hh if w_mask is None else mul(w_hh, T.Tensor(w_mask))
                out, h, c = T.lstm(xm, h0, c0, w_ih, wm, b)
        T.backward(total(mul(out, weights)))
        results.append([out.data, h, c, x.grad, w_ih.grad, w_hh.grad, b.grad])
    for name, got, want in zip(("out", "h", "c", "dx", "dW_ih", "dW_hh", "db"), *results):
        assert np.array_equal(got, want), name
    assert not np.array_equal(results[0][0], lstm_results(inputs, float32)[0])  # a mask applied


@pytest.mark.parametrize("frozen", [("x",), ("W_ih",), ("W_hh",), ("b",),
                                    ("x", "W_ih", "W_hh", "b")])
def test_lstm_frozen_inputs_get_no_gradient(frozen):
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(2, 4, 3, 5, seed=3)
    inputs = {"x": x, "W_ih": w_ih, "W_hh": w_hh, "b": b}
    for name in frozen:
        inputs[name].requires_grad = False
    out, _, _ = T.lstm(x, h0, c0, w_ih, w_hh, b)
    assert out.requires_grad == (len(frozen) < 4)
    T.backward(total(mul(out, out)))
    for name, t in inputs.items():
        assert (t.grad is None) == (name in frozen), name


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_lstm_finite_differences(bsz, steps, n_in, hs, masked, seed):
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(bsz, steps, n_in, hs, seed)
    weights = T.Tensor(np.random.default_rng(seed).normal(size=(bsz, steps, hs)))
    masks = lstm_masks(x, w_hh, seed) if masked else (None, None)

    def build():
        for p in (x, w_ih, w_hh, b):
            p.zero_grad()
        out, _, _ = T.lstm(x, h0, c0, w_ih, w_hh, b, *masks)
        return total(mul(out, weights))

    check_grad(build, x, w_ih, w_hh, b)


def test_lstm_shape_errors():
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(2, 3, 4, 5, seed=0)
    with pytest.raises(T.ShapeError, match="lstm"):
        T.lstm(x, h0[:1], c0, w_ih, w_hh, b)
    with pytest.raises(T.ShapeError, match="lstm"):
        T.lstm(x, h0, c0, w_hh, w_hh, b)
    with pytest.raises(T.ShapeError, match="lstm"):
        T.lstm(T.Tensor(np.zeros((2, 0, 4))), h0, c0, w_ih, w_hh, b)
    with pytest.raises(T.ShapeError, match="x_mask"):
        T.lstm(x, h0, c0, w_ih, w_hh, b, x_mask=np.ones((2, 3, 4)))
    with pytest.raises(T.ShapeError, match="w_mask"):
        T.lstm(x, h0, c0, w_ih, w_hh, b, w_mask=np.ones((5, 5)))


@pytest.mark.parametrize("bsz,steps", [(3, 6), (2, 1), (1, 5), (4, 2)])
def test_lstm_under_no_grad_matches_the_tracked_op(bsz, steps):
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(bsz, steps, 5, 7, seed=bsz + 10 * steps)
    tracked = T.lstm(x, h0, c0, w_ih, w_hh, b)
    with T.no_grad():
        scored = T.lstm(x, h0, c0, w_ih, w_hh, b)
    assert tracked[0].requires_grad and not scored[0].requires_grad
    for got, want in zip((scored[0].data, *scored[1:]), (tracked[0].data, *tracked[1:])):
        assert np.array_equal(got, want)


def test_lstm_under_no_grad_keeps_no_per_step_state():
    bsz, steps, hs = 8, 200, 32
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(bsz, steps, 16, hs, seed=4)
    stepwise = bsz * steps * 4 * hs * 8  # bytes of the input projection, or of all the gates
    bound = stepwise + bsz * steps * hs * 8 + stepwise // 4  # projection, outputs, slack

    def peak():
        tracemalloc.start()
        try:
            T.lstm(x, h0, c0, w_ih, w_hh, b)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracked = peak()
    with T.no_grad():
        untracked = peak()
    assert untracked < bound < tracked


def lstm_results(inputs, float32):
    """out, h, c and the gradients of x, W_ih, W_hh and b of one tracked
    lstm call at ``precision(float32)``, under a fixed upstream gradient."""
    x, h0, c0, w_ih, w_hh, b = inputs
    for p in (x, w_ih, w_hh, b):
        p.zero_grad()
    with precision(float32):
        out, h, c = T.lstm(x, h0, c0, w_ih, w_hh, b)
    T.backward(total(mul(out, T.Tensor(np.random.default_rng(1).normal(size=out.shape)))))
    return [out.data, h, c, x.grad, w_ih.grad, w_hh.grad, b.grad]


@pytest.mark.parametrize("n_in,hs", [(64, 128), (128, 128), (128, 64)])
def test_lstm_float32_path_stays_near_the_float64_op(n_in, hs):
    # the three layers of an lm-pretrain-10k step at B16 S70
    inputs = lstm_inputs(16, 70, n_in, hs, seed=n_in + hs)
    mixed, exact = lstm_results(inputs, True), lstm_results(inputs, False)
    for name, got, want in zip(("out", "h", "c", "dx", "dW_ih", "dW_hh", "db"), mixed, exact):
        assert got.dtype == np.float64, name
        assert not np.array_equal(got, want), name  # the float32 path ran
        assert rel_err(got, want) <= 1e-5, name


def test_lstm_float32_sigmoid_saturates_without_a_warning():
    # a -100 output-gate pre-activation for unit 0: exp(100) overflows
    # float32 (a warning fails the test), and the gate is exactly 0
    inputs = lstm_inputs(3, 4, 5, 6, seed=2)
    _, _, _, w_ih, w_hh, b = inputs
    w_ih.data[:, 18] = w_hh.data[:, 18] = 0.0
    b.data[18] = -100.0
    out, h, _, *grads = lstm_results(inputs, True)
    assert not np.array_equal(out, lstm_results(inputs, False)[0])  # the float32 path ran
    assert (out[:, :, 0] == 0.0).all() and (h[:, 0] == 0.0).all()
    assert all(np.isfinite(g).all() for g in grads)


def test_lstm_float32_decision_is_ignored_under_no_grad():
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(16, 20, 64, 128, seed=5)
    with precision(False):
        want = T.lstm(x, h0, c0, w_ih, w_hh, b)
    with precision(True), T.no_grad():
        got = T.lstm(x, h0, c0, w_ih, w_hh, b)
    for a, e in zip((got[0].data, *got[1:]), (want[0].data, *want[1:])):
        assert np.array_equal(a, e)


def lstm_call(inputs, mode):
    """lstm_results for a tracked float64 or float32 call; out, h and c of
    a call under no_grad."""
    if mode != "no_grad":
        return lstm_results(inputs, mode == "float32")
    with T.no_grad():
        out, h, c = T.lstm(*inputs)
    return [out.data, h, c]


# (batch, steps) at a bound of 8 rows: one row under it, at it, one over it
# (chunks of 2 steps and a remainder of 1), several chunks and a remainder, a
# chunk of one step per batch wider than the bound, and a one-row batch one
# step longer than a chunk, whose last row joins the chunk before
@pytest.mark.parametrize("bsz,steps", [(1, 7), (2, 4), (3, 3), (2, 11), (9, 3), (1, 9)])
@pytest.mark.parametrize("mode", ["float64", "float32", "no_grad"])
def test_lstm_projection_chunks_are_bit_identical_to_one_product(bsz, steps, mode):
    inputs = lstm_inputs(bsz, steps, 64, 16, seed=bsz + 10 * steps)
    with mock.patch.object(T, "LSTM_PROJ_ROWS", 8):
        chunked = lstm_call(inputs, mode)
    with mock.patch.object(T, "LSTM_PROJ_ROWS", sys.maxsize):  # one product
        whole = lstm_call(inputs, mode)
    for name, got, want in zip(("out", "h", "c", "dx", "dW_ih", "dW_hh", "db"), chunked, whole):
        assert np.array_equal(got, want), name


def test_lstm_under_no_grad_holds_two_chunks_of_the_input_projection():
    # an infer-10k scoring batch, whose whole-window projection is 16.3 MB
    bsz, steps, n_in, hs = 64, 62, 64, 128
    x, h0, c0, w_ih, w_hh, b = lstm_inputs(bsz, steps, n_in, hs, seed=6)
    chunk = T.LSTM_PROJ_ROWS * 4 * hs * 8
    with T.no_grad():
        tracemalloc.start()
        try:
            T.lstm(x, h0, c0, w_ih, w_hh, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < bsz * steps * hs * 8 + 2 * chunk + (2 << 20)


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(5)
    logits = T.param(rng.normal(size=(4, 3)), "logits")
    targets = np.array([0, 2, 1, 2])
    loss = T.cross_entropy(logits, targets)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    manual = -logp[np.arange(4), targets].mean()
    assert abs(loss.item() - manual) < 1e-12

    def build():
        logits.zero_grad()
        return T.cross_entropy(logits, targets)

    check_grad(build, logits)


def test_cross_entropy_errors():
    logits = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        T.cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(T.ShapeError):
        T.cross_entropy(logits, np.array([0]))
    with pytest.raises(T.ShapeError):
        T.cross_entropy(T.Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))


def softmax(z):
    """Row-wise softmax of a (n, classes) array."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def decoder_ce_reference(h, w, b, targets):
    """Mean cross-entropy of a numpy log-softmax over h @ w.T + b."""
    z = h.reshape(-1, w.shape[1]) @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(z)), targets.reshape(-1)].mean()


def decoder_ce(h, w, b, targets, float32=False):
    """The tied decoder's cross-entropy alone: ``lm_loss`` with no output
    mask and no penalty, at ``precision(float32)``."""
    with precision(float32):
        return T.lm_loss(h, None, w, b, targets)[0]


def decoder_ce_inputs(rows, feats, classes, seed):
    """(1, rows, feats) h, weight and bias parameters and targets that
    include class 0 and the last class."""
    rng = np.random.default_rng(seed)
    h = T.param(rng.normal(size=(1, rows, feats)), "h")
    w = T.param(rng.normal(size=(classes, feats)), "w")
    b = T.param(rng.normal(size=classes), "b")
    targets = rng.integers(0, classes, size=rows)
    targets[0], targets[-1] = 0, classes - 1
    return h, w, b, targets.reshape(1, rows)


def split_decoder(workers, split_min=0, dw_block=T._DW_BLOCK):
    """Patch lm_loss to split a chunk of at least ``split_min``
    logits over ``workers`` threads, in weight-gradient blocks of
    ``dw_block`` classes."""
    return mock.patch.multiple(T, decoder_workers=lambda: workers,
                               DECODER_SPLIT_MIN=split_min, _DW_BLOCK=dw_block)


# rows below, equal to and above a chunk of 3, and k·chunk + 1; serial, and
# split over more threads than the two-row slices a chunk of 3 allows
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 6, 7])
@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
@example(feats=1, classes=2, seed=202332)  # h = 5.7e-05 at one row
@settings(max_examples=8, deadline=None)
def test_tied_decoder_ce_finite_differences(rows, feats, classes, seed):
    h, w, b, targets = decoder_ce_inputs(rows, feats, classes, seed)

    def build():
        for p in (h, w, b):
            p.zero_grad()
        return decoder_ce(h, w, b, targets)

    def exact():
        # the reference loss in extended precision: where h is tiny, the
        # weight moves the loss so little over a step that float64 round-off
        # in the loss is about 1e-6 of the change
        return decoder_ce_reference(*(p.data.astype(np.longdouble) for p in (h, w, b)), targets)

    for workers in (1, 3):
        with mock.patch.object(T, "DECODER_CHUNK", 3), split_decoder(workers, dw_block=2):
            assert abs(build().item() - decoder_ce_reference(h.data, w.data, b.data, targets)) < 1e-12
            check_grad(build, h, w, b, value=exact)


def test_tied_decoder_ce_matches_log_softmax_reference():
    h, w, b, targets = decoder_ce_inputs(1000, 16, 300, 5)
    loss = decoder_ce(h, w, b, targets)
    want = decoder_ce_reference(h.data, w.data, b.data, targets)
    assert abs(loss.item() - want) <= 1e-12 * abs(want)
    T.backward(loss)
    # the logits gradient (softmax - one-hot) / n through the tied weights
    z = h.data.reshape(-1, 16) @ w.data.T + b.data
    dz = softmax(z)
    dz[np.arange(1000), targets.reshape(-1)] -= 1.0
    dz /= 1000
    for got, want in ((h.grad.reshape(-1, 16), dz @ w.data), (w.grad, dz.T @ h.data.reshape(-1, 16)),
                      (b.grad, dz.sum(axis=0))):
        assert rel_err(got, want) < 1e-12


def test_tied_decoder_ce_under_no_grad_is_a_leaf_with_no_gradient_work():
    h, w, b, targets = decoder_ce_inputs(8, 64, 5000, 1)
    tracked = decoder_ce(h, w, b, targets)
    tracemalloc.start()
    try:
        with T.no_grad():
            loss = decoder_ce(h, w, b, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss.item() == tracked.item()
    assert not loss.requires_grad and loss._parents == () and loss._backward is None
    assert peak < w.data.nbytes  # no weight-sized gradient was formed
    assert tracked.requires_grad and T._tracked(h)  # the switch is off again


def decoder_ce_results(h, w, b, targets, float32=False):
    """Loss and gradients of the decoder's cross-entropy, tracked and
    under no_grad, both at ``precision(float32)``."""
    for p in (h, w, b):
        p.zero_grad()
    loss = decoder_ce(h, w, b, targets, float32)
    T.backward(loss)
    with T.no_grad():
        untracked = decoder_ce(h, w, b, targets, float32).data
    return loss.data, h.grad, w.grad, b.grad, untracked


@pytest.mark.parametrize("dw_block", [T._DW_BLOCK, 5], ids=["one-block", "blocks-of-5"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tied_decoder_ce_is_bit_identical_at_any_worker_count(workers, dw_block):
    # 2 chunks of 7 rows and a last of 2, fewer than the workers; 23 classes,
    # so a third of them is 7 and blocks of 5 leave one of 2, never of 1
    h, w, b, targets = decoder_ce_inputs(16, 6, 23, 3)
    interval = sys.getswitchinterval()
    with mock.patch.object(T, "DECODER_CHUNK", 7):
        serial = decoder_ce_results(h, w, b, targets)
        sys.setswitchinterval(1e-6)  # threads trade the interpreter often
        try:
            with split_decoder(workers, dw_block=dw_block):
                split = decoder_ce_results(h, w, b, targets)
        finally:
            sys.setswitchinterval(interval)
    for want, got in zip(serial, split):
        assert np.array_equal(want, got)


def test_tied_decoder_ce_split_holds_one_chunk_of_logits():
    # an lm-pretrain-10k step: one chunk of logits is shared by the workers,
    # and the weight gradient is formed block by block
    rng = np.random.default_rng(0)
    h = T.param(rng.normal(size=(16, 70, 64)))
    w = T.param(rng.normal(size=(10_008, 64)) * 0.1)
    b = T.param(np.zeros(10_008))
    targets = rng.integers(0, 10_008, size=(16, 70))
    chunk = T.DECODER_BYTES  # 128 float64 rows
    with split_decoder(2, split_min=T.DECODER_SPLIT_MIN), T.single_blas_thread():
        tracemalloc.start()
        try:
            decoder_ce(h, w, b, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < chunk + h.data.nbytes + w.data.nbytes + b.data.nbytes + (2 << 20)


def decoder_chunks(h, w, b, targets, float32=False):
    """The rows of each chunk one lm_loss call forms its logits in
    (its row-phase splits), and the call's loss."""
    rows = []
    real = T._split

    def spy(task, n, parts):
        if task.func.__name__ == "row_phase":
            rows.append(n)
        real(task, n, parts)

    with mock.patch.object(T, "_split", spy):
        loss = decoder_ce(h, w, b, targets, float32)
    return rows, loss


@pytest.mark.parametrize("bsz, steps", [(16, 70), (64, 62), (1, 40)])
def test_tied_decoder_ce_byte_bound_keeps_float64_scores_bit_identical(bsz, steps):
    # at 10,008 classes a float64 call forms 128 rows at a time, half the
    # rows of the float32 training path, with the bits of 256-row chunks
    rng = np.random.default_rng(bsz)
    h = T.param(rng.normal(size=(bsz, steps, 64)))
    w = T.param(rng.normal(size=(10_008, 64)) * 0.1)
    b = T.param(rng.normal(size=10_008) * 0.1)
    targets = rng.integers(0, 10_008, size=(bsz, steps))
    with T.no_grad():
        rows, bounded = decoder_chunks(h, w, b, targets)
        with mock.patch.object(T, "DECODER_BYTES", T.DECODER_CHUNK * 10_008 * 8):
            rows_256, whole = decoder_chunks(h, w, b, targets)
    n = bsz * steps
    assert rows == [min(128, n - lo) for lo in range(0, n, 128)]
    assert rows_256 == [min(256, n - lo) for lo in range(0, n, 256)]
    assert bounded.data.tobytes() == whole.data.tobytes()
    tracked_rows, _ = decoder_chunks(h, w, b, targets, float32=True)
    assert tracked_rows == rows_256  # float32 logits: 256 rows in the same bytes


def pretrain_decoder_inputs(rows, classes, seed=0):
    """h, weight and bias parameters and targets of an lm-pretrain-10k-like
    decoder call: 64 features, a small tied weight."""
    rng = np.random.default_rng(seed)
    return (T.param(rng.normal(size=(1, rows, 64))),
            T.param(rng.normal(size=(classes, 64)) * 0.1),
            T.param(rng.normal(size=classes) * 0.1), rng.integers(0, classes, size=(1, rows)))


def test_tied_decoder_ce_float32_path_stays_near_the_float64_op():
    # an lm-pretrain-10k step: the tracked op forms its products in float32
    h, w, b, targets = pretrain_decoder_inputs(16 * 70, 10_008)
    mixed = decoder_ce_results(h, w, b, targets, float32=True)
    exact = decoder_ce_results(h, w, b, targets)
    assert mixed[0] != exact[0]  # the float32 path ran
    assert abs(mixed[0] - exact[0]) <= 1e-6 * abs(exact[0])
    for name, got, want in zip(("dh", "dW", "db"), mixed[1:4], exact[1:4]):
        assert got.dtype == np.float64, name
        assert rel_err(got, want) <= 1e-5, name
    assert mixed[4] == exact[4]  # scoring under no_grad is float64 either way


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tied_decoder_ce_float32_path_is_bit_identical_at_any_worker_count(workers):
    # as the float64 test above, on the float32 path; and one chunk of
    # 70 rows x 10,008 classes at the module's chunk size
    interval = sys.getswitchinterval()
    for inputs, chunk in ((decoder_ce_inputs(16, 6, 23, 3), 7),
                          (pretrain_decoder_inputs(70, 10_008), T.DECODER_CHUNK)):
        with mock.patch.object(T, "DECODER_CHUNK", chunk):
            serial = decoder_ce_results(*inputs, float32=True)
            sys.setswitchinterval(1e-6)  # threads trade the interpreter often
            try:
                with split_decoder(workers, dw_block=5):
                    split = decoder_ce_results(*inputs, float32=True)
            finally:
                sys.setswitchinterval(interval)
        for want, got in zip(serial, split):
            assert np.array_equal(want, got)


def test_tied_decoder_ce_float32_decision_is_ignored_under_no_grad():
    h, w, b, targets = pretrain_decoder_inputs(300, 4097, seed=1)
    tracked = decoder_ce(h, w, b, targets, float32=True)
    with T.no_grad():
        scored = decoder_ce(h, w, b, targets, float32=True)
    want = decoder_ce_reference(h.data, w.data, b.data, targets)
    assert abs(scored.item() - want) <= 1e-12 * abs(want)
    assert tracked.item() != scored.item()  # the tracked call ran in float32


# -- the precision rule at each op ---------------------------------------------


def rule_call(op, width, mode):
    """The outputs of one call of ``op``, "lstm" or "lm_loss", whose width,
    the hidden size or the decoder's features, is ``width``: tracked, under
    no_grad, or with every input frozen."""
    if op == "lstm":
        x, h0, c0, *weights = lstm_inputs(2, 3, 8, width, seed=width)
        inputs, call = (x, *weights), lambda: T.lstm(x, h0, c0, *weights)
    else:
        h, w, b, targets = decoder_ce_inputs(6, width, 50, seed=width)
        inputs, call = (h, w, b), lambda: T.lm_loss(h, None, w, b, targets)
    for t in inputs:
        t.requires_grad = mode != "frozen"
    with T.no_grad() if mode == "no_grad" else contextlib.nullcontext():
        return [a.data if isinstance(a, T.Tensor) else a for a in call()]


@pytest.mark.parametrize("mode", ["tracked", "no_grad", "frozen"])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("op", ["lstm", "lm_loss"])
def test_an_op_runs_in_float32_exactly_when_it_records_a_gradient_at_the_threshold(
        op, offset, mode):
    width = T.F32_MIN_HIDDEN + offset
    with precision(True):
        mixed = rule_call(op, width, "tracked")
    with precision(False):
        exact = rule_call(op, width, "tracked")
    assert not all(np.array_equal(a, b) for a, b in zip(mixed, exact))
    float32 = mode == "tracked" and width >= T.F32_MIN_HIDDEN
    for got, want in zip(rule_call(op, width, mode), mixed if float32 else exact):
        assert np.array_equal(got, want)


def test_single_blas_thread_pins_and_restores():
    before = T.blas_threads()
    if before is None:
        pytest.skip("numpy's OpenBLAS thread calls are not reachable here")
    with T.single_blas_thread():
        assert T.blas_threads() == 1
    assert T.blas_threads() == before


def test_tied_decoder_ce_errors():
    h, w, b, targets = decoder_ce_inputs(4, 3, 5, 1)
    with pytest.raises(IndexError, match="lm_loss"):
        decoder_ce(h, w, b, np.array([[0, 1, 2, 5]]))
    with pytest.raises(T.ShapeError, match="lm_loss"):
        decoder_ce(h, w, b, np.array([0, 1]))
    with pytest.raises(T.ShapeError, match="lm_loss"):
        decoder_ce(h, T.param(np.zeros((5, 4))), b, targets)
    with pytest.raises(T.ShapeError, match="lm_loss"):
        decoder_ce(h, w, T.param(np.zeros(4)), targets)


def test_embedding_lookup_grad_accumulates_repeats():
    w = T.param(np.random.default_rng(6).normal(size=(5, 3)), "emb")
    ids = np.array([[1, 1, 4], [0, 1, 4]])

    def build():
        w.zero_grad()
        return total(mul(T.embedding_lookup(w, ids), T.embedding_lookup(w, ids)))

    check_grad(build, w)
    with pytest.raises(IndexError):
        T.embedding_lookup(w, np.array([5]))


def test_structural_op_grads():
    # the test-local slicing and concatenation the per-step LSTM oracle is
    # built from
    x = T.param(np.random.default_rng(7).normal(size=(2, 3, 4)), "x")

    def build():
        x.zero_grad()
        parts = concat([take(x, np.s_[:, 2:, None, :]), take(x, np.s_[:, :2, None, :])], axis=1)
        return total(mul(parts, take(x, np.s_[:, :, None, ::-1])))

    check_grad(build, x)


def test_pooling_ops_brute_force():
    # the head's concat pool, read through a head whose logits are the pool,
    # against a loop over each sequence's valid steps
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.normal(size=(3, 5, 2)))
    lengths = [5, 2, 4]
    pooled = T.classifier_head([x], np.array(lengths), *identity_head(2)).data
    f = 2
    assert pooled.shape == (3, 3 * f)
    for b, n in enumerate(lengths):
        valid = x.data[b, :n]
        assert np.array_equal(pooled[b, :f], valid[-1])
        assert np.array_equal(pooled[b, f : 2 * f], valid.max(axis=0))
        assert np.allclose(pooled[b, 2 * f :], valid.mean(axis=0), atol=1e-12)


@pytest.mark.parametrize("cuts", [[1], [3], [2, 5], [1, 2, 3, 4, 5, 6]])
def test_concat_pool_in_time_chunks_is_bit_identical_to_one_chunk(cuts):
    # small integers, so that the max ties and the step it keeps shows
    rng = np.random.default_rng(8)
    x = rng.integers(-2, 3, size=(4, 7, 3)).astype(float)
    lengths = np.array([7, 3, 1, 5])
    whole, chunked = T.ConcatPool(lengths, 3), T.ConcatPool(lengths, 3)
    whole.add(x)
    for part in np.split(x, cuts, axis=1):
        chunked.add(part)
    for name in ("last", "max", "argmax", "total"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name
    # the first step of a tie, and numpy's own sum over the steps
    valid = np.arange(7)[None, :] < lengths[:, None]
    assert np.array_equal(whole.argmax, np.where(valid[:, :, None], x, -np.inf).argmax(axis=1))
    assert np.array_equal(whole.total, (x * (valid / lengths[:, None])[:, :, None]).sum(axis=1))
    # the head over the same chunks, under no_grad only
    head = identity_head(3)
    parts = [T.Tensor(p) for p in np.split(x, cuts, axis=1)]
    with T.no_grad():
        logits = T.classifier_head(iter(parts), lengths, *head).data
    assert np.array_equal(logits, T.classifier_head([T.Tensor(x)], lengths, *head).data)
    with pytest.raises(ValueError, match="only under no_grad"):
        T.classifier_head(parts, lengths, *head)


@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_concat_pool_finite_differences(bsz, steps, feats, masked, seed):
    # masked: the head pools x times a keep mask, as the classifier's output
    # dropout, at rate 0.5; a head whose logits are the pool
    rng = np.random.default_rng(seed)
    x = T.param(rng.normal(size=(bsz, steps, feats)), "x")
    lengths = rng.integers(1, steps + 1, size=bsz)
    weights = T.Tensor(rng.normal(size=(bsz, 3 * feats)))
    mask = T.Rng(seed).keep_mask((bsz, 1, feats), 0.5) if masked else None

    def build():
        x.zero_grad()
        return total(mul(T.classifier_head([x], lengths, *identity_head(feats), out_mask=mask),
                         weights))

    check_grad(build, x)


def test_concat_pool_mask_matches_mul_then_pool():
    # a tiny-preset classifier batch, 64 features, with padding: the generic
    # composition multiplied the encoder's output by its mask in its own
    # node before the head pooled it
    rng = np.random.default_rng(12)
    x = T.param(rng.normal(size=(6, 9, 64)), "x")
    lengths = np.array([9, 1, 4, 7, 9, 2])
    mask = T.Rng(5).keep_mask((6, 1, 64), 0.1)
    _, _, *head, _ = head_inputs(6, 64, 50, seed=2)
    labels = np.array([0, 1, 1, 0, 1, 0])
    results = []
    for fused in (True, False):
        for p in (x, *head):
            p.zero_grad()
        logits = (T.classifier_head([x], lengths, *head, out_mask=mask) if fused
                  else T.classifier_head([mul(x, T.Tensor(mask))], lengths, *head))
        T.backward(T.cross_entropy(logits, labels))
        results.append([logits.data, x.grad] + [p.grad for p in head])
    for name, got, want in zip(("logits", "x", "W1", "b1", "W2", "b2"), *results):
        assert np.array_equal(got, want), name
    # a mask applied
    assert not np.array_equal(results[0][0], T.classifier_head([x], lengths, *head).data)


def head_inputs(rows, feats, hidden, seed):
    """Encoder outputs x of (rows, 3 steps, feats) with lengths 1, 2 and 3 in
    turn, the W1, b1, W2 and b2 parameters of a two-class head on them, and
    a keep mask at the head's rate."""
    rng = np.random.default_rng(seed)
    return (T.param(rng.normal(size=(rows, 3 * feats)).reshape(rows, 3, feats), "x"),
            1 + np.arange(rows) % 3,
            T.param(rng.normal(size=(3 * feats, hidden)) / np.sqrt(3 * feats), "W1"),
            T.param(0.1 * rng.normal(size=hidden), "b1"),
            T.param(rng.normal(size=(hidden, 2)) / np.sqrt(hidden), "W2"),
            T.param(0.1 * rng.normal(size=2), "b2"),
            T.Rng(seed).keep_mask((rows, hidden), 0.1))


def generic_head(pooled, w1, b1, w2, b2, mask):
    """The head as the model composed it from generic ops."""
    hid = relu(add(matmul(pooled, w1), b1))
    if mask is not None:
        hid = mul(hid, T.Tensor(mask))
    return add(matmul(hid, w2), b2)


@pytest.mark.parametrize("frozen", [(), ("x",), ("W1", "b1", "W2", "b2")])
@pytest.mark.parametrize("masked", [False, True])
def test_classifier_head_matches_the_generic_chain(masked, frozen):
    # a tiny-preset classifier batch: 64 texts of 64 features, and 50 hidden
    # units; the head is float64 whatever the step's precision. The chain
    # pools by a loop and composes the rest from generic ops
    x, lengths, *weights, mask = head_inputs(64, 64, 50, seed=4)
    params = [x, *weights]
    mask = mask if masked else None
    for p in params:
        p.requires_grad = p.name not in frozen
    labels = np.random.default_rng(0).integers(0, 2, size=64)
    results = []
    for fused in (True, False):
        for p in params:
            p.zero_grad()
        logits = (T.classifier_head([x], lengths, *weights, mask=mask) if fused
                  else generic_head(pool(x, lengths), *weights, mask))
        T.backward(T.cross_entropy(logits, labels))
        results.append([logits.data] + [p.grad for p in params])
    for name, got, want in zip(("logits", "x", "W1", "b1", "W2", "b2"), *results):
        assert (got is None) == (want is None) == (name in frozen), name
        assert got is None or np.array_equal(got, want), name


@pytest.mark.parametrize("frozen", [(), ("W1", "b1", "W2", "b2"), ("x",)])
@pytest.mark.parametrize("masked", [False, True])
def test_classifier_head_finite_differences(masked, frozen):
    x, lengths, *weights, mask = head_inputs(5, 2, 7, seed=11)
    params = [x, *weights]
    mask = mask if masked else None
    for p in params:
        p.requires_grad = p.name not in frozen
    labels = np.array([0, 1, 1, 0, 1])

    def build():
        for p in params:
            p.zero_grad()
        return T.cross_entropy(T.classifier_head([x], lengths, *weights, mask=mask), labels)

    check_grad(build, *(p for p in params if p.requires_grad))
    assert all(p.grad is None for p in params if not p.requires_grad)


def test_classifier_head_shape_errors():
    x, lengths, w1, b1, w2, b2, mask = head_inputs(3, 4, 5, seed=0)
    with pytest.raises(T.ShapeError, match="classifier_head"):
        T.classifier_head([x], lengths, w2, b1, w2, b2)
    with pytest.raises(T.ShapeError, match="classifier_head"):
        T.classifier_head([x], lengths, w1, b2, w2, b2)
    with pytest.raises(T.ShapeError, match="classifier_head"):  # pooled, not the outputs
        T.classifier_head([T.Tensor(np.zeros((3, 12)))], lengths, w1, b1, w2, b2)
    with pytest.raises(T.ShapeError, match="mask"):
        T.classifier_head([x], lengths, w1, b1, w2, b2, mask=mask[:2])


def penalties(raw, dropped, alpha, beta):
    """AR plus TAR as a node of their own, as the model formed them before
    ``lm_loss`` took the decoder; the model then added the cross-entropy
    with ``add``."""
    diff = raw.data[:, 1:] - raw.data[:, :-1]
    ar_scale = alpha * (1.0 / dropped.data.size)
    tar_scale = beta * (1.0 / diff.size) if diff.size else 0.0

    def bwd(g):
        if dropped.requires_grad and ar_scale:
            dropped.accumulate(2.0 * g * ar_scale * dropped.data)
        if raw.requires_grad and tar_scale:
            d = 2.0 * g * tar_scale * diff
            draw = np.zeros_like(raw.data)
            draw[:, 1:] += d
            draw[:, :-1] -= d
            raw.accumulate(draw)

    out = ar_scale * (dropped.data * dropped.data).sum() + tar_scale * (diff * diff).sum()
    return T._make(out, (raw, dropped), bwd)


def lm_output_inputs():
    """A tiny-width LM's final output, its output mask, a tied embedding and
    decoder bias over 50 classes, and targets."""
    rng = np.random.default_rng(8)
    return (T.param(rng.normal(size=(8, 20, 64)), "raw"), T.Rng(2).keep_mask((8, 1, 64), 0.1),
            T.param(0.1 * rng.normal(size=(50, 64)), "embedding"),
            T.param(0.1 * rng.normal(size=50), "bias"), rng.integers(0, 50, size=(8, 20)))


def chain_results(mask, alpha, beta, float32):
    """Loss, cross-entropy and the raw, embedding and bias gradients of one
    backward at ``precision(float32)`` through ``lm_loss``, and through the
    three nodes it replaced:
    the output mask as a ``mul`` node (none without a mask), the decoder
    (``lm_loss`` with no mask and no penalty), and the penalties added to
    it. The two walks sum raw's gradient in the same order."""
    raw, _, emb, bias, targets = lm_output_inputs()
    results = []
    for fused in (True, False):
        for p in (raw, emb, bias):
            p.zero_grad()
        with precision(float32):
            if fused:
                loss, ce = T.lm_loss(raw, mask, emb, bias, targets, alpha, beta)
            else:
                dropped = raw if mask is None else mul(raw, T.Tensor(mask))
                ce_node, ce = T.lm_loss(dropped, None, emb, bias, targets)
                loss = add(penalties(raw, dropped, alpha, beta), ce_node)
        T.backward(loss)
        results.append([loss.data, ce, raw.grad, emb.grad, bias.grad])
    return results


@pytest.mark.parametrize("float32", [False, True], ids=["float64", "float32"])
def test_masked_matches_mul(float32):
    # the LM's final output at tiny width: the decoder and AR read the
    # dropped value and TAR the raw one, so raw's gradient sums
    # TAR + (AR + decoder) * mask, as it did through the generic mul
    _, mask, *_ = lm_output_inputs()
    fused, chain = chain_results(mask, 2.0, 1.0, float32)
    for name, got, want in zip(("loss", "ce", "raw", "embedding", "bias"), fused, chain):
        assert np.array_equal(got, want), name
    unmasked = chain_results(None, 2.0, 1.0, float32)[0]
    assert fused[1] != unmasked[1]  # the decoder read the dropped output


@pytest.mark.parametrize("alpha, beta", [(2.0, 1.0), (0.0, 0.0)])
@pytest.mark.parametrize("float32", [False, True], ids=["float64", "float32"])
def test_ar_tar_matches_penalties_then_add(float32, alpha, beta):
    # the LM's training loss: (AR + TAR) + ce in one node, against the
    # penalties' own node and a generic add, with the same walk order
    _, mask, *_ = lm_output_inputs()
    fused, chain = chain_results(mask, alpha, beta, float32)
    for name, got, want in zip(("loss", "ce", "raw", "embedding", "bias"), fused, chain):
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (2.0, 0.0), (0.0, 1.0), (2.0, 1.0)],
                         ids=["no-penalty", "AR", "TAR", "AR-TAR"])
@pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "mask"])
@pytest.mark.parametrize("float32", [False, True], ids=["float64", "float32"])
def test_lm_loss_matches_the_three_node_chain(float32, masked, alpha, beta):
    # bit for bit: raw's gradient is TAR + (AR + decoder) * mask with a
    # mask, and (AR + TAR) + decoder without one; a penalty at rate 0 adds
    # nothing, not even a zero
    _, mask, *_ = lm_output_inputs()
    fused, chain = chain_results(mask if masked else None, alpha, beta, float32)
    for name, got, want in zip(("loss", "ce", "raw", "embedding", "bias"), fused, chain):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    if not (alpha or beta):
        assert fused[0] == fused[1]  # the loss is the cross-entropy alone


def test_pooling_length_validation():
    x = T.Tensor(np.zeros((2, 4, 3)))
    _, _, *head, _ = head_inputs(2, 3, 5, seed=0)
    with pytest.raises(ValueError, match=r"classifier_head: lengths must be in \[1, 4\]"):
        T.classifier_head([x], np.array([0, 4]), *head)
    with pytest.raises(ValueError, match="classifier_head"):
        T.classifier_head([x], np.array([1, 5]), *head)
    with pytest.raises(T.ShapeError, match="classifier_head"):
        T.classifier_head([x], np.array([1, 1, 1]), *head)
    with pytest.raises(T.ShapeError, match="classifier_head"):
        T.classifier_head([T.Tensor(np.zeros((2, 4)))], np.array([1, 1]), *head)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.sampled_from([0.0, 0.5, 2.0]),
       st.sampled_from([0.0, 1.0, 3.0]), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ar_tar_finite_differences(bsz, steps, feats, alpha, beta, masked, seed):
    # masked: an output mask at rate 0.5, which the decoder and AR read and
    # TAR does not; without it all three read raw itself
    rng = np.random.default_rng(seed)
    raw = T.param(rng.normal(size=(bsz, steps, feats)), "raw")
    w = T.param(rng.normal(size=(3, feats)), "w")
    b = T.param(rng.normal(size=3), "b")
    targets = rng.integers(0, 3, size=(bsz, steps))
    mask = T.Rng(seed).keep_mask((bsz, 1, feats), 0.5) if masked else None
    dropped = raw.data if mask is None else raw.data * mask
    want = alpha * np.mean(dropped ** 2)
    if steps > 1:
        want += beta * np.mean(np.diff(raw.data, axis=1) ** 2)
    want += decoder_ce_reference(dropped, w.data, b.data, targets)
    got = T.lm_loss(raw, mask, w, b, targets, alpha, beta)[0].item()
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def build():
        for p in (raw, w, b):
            p.zero_grad()
        return T.lm_loss(raw, mask, w, b, targets, alpha, beta)[0]

    check_grad(build, raw, w, b)


def test_backward_requires_scalar():
    x = T.param(np.ones((2, 2)), "x")
    with pytest.raises(ValueError):
        T.backward(add(x, x))


def test_backward_accumulates_until_zeroed():
    x = T.param(np.array([3.0]), "x")
    T.backward(total(mul(x, x)))
    first = x.grad.copy()
    T.backward(total(mul(x, x)))
    assert np.allclose(x.grad, 2 * first)
    x.zero_grad()
    assert x.grad is None


def test_backward_releases_the_graph_it_walks():
    x = T.param(np.array([3.0, -1.0]), "x")
    y = mul(x, x)
    loss = total(add(y, y))
    T.backward(loss)
    assert np.array_equal(x.grad, 4 * x.data)
    for node in (loss, y):
        assert node._parents == () and node.grad is None
    assert x._backward is None and x._parents == ()  # a leaf keeps its state


def test_a_released_graph_refuses_a_second_walk():
    x = T.param(np.array([3.0]), "x")
    y = mul(x, x)
    loss = total(y)
    T.backward(loss)
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="released"):
        T.backward(loss)
    # a fresh root over a released node: the walk would stop at y
    with pytest.raises(RuntimeError, match="released"):
        T.backward(total(add(y, y)))
    assert np.array_equal(x.grad, first) and loss.grad is None
    T.backward(total(mul(x, x)))  # a fresh graph accumulates as before
    assert np.array_equal(x.grad, 2 * first)


def test_diamond_graph_grad():
    # y = x*x used twice: d/dx (x^2 + x^2) = 4x
    x = T.param(np.array([2.0]), "x")
    y = mul(x, x)
    T.backward(total(add(y, y)))
    assert np.allclose(x.grad, [8.0])


def test_no_grad_tracking_when_not_required():
    a = T.Tensor(np.ones((2, 2)))
    b = T.Tensor(np.ones((2, 2)))
    out = add(matmul(a, b), a)
    assert not out.requires_grad
    assert out._backward is None


def test_shape_errors_report_op():
    raw, w, b = T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((5, 4))), T.Tensor(np.zeros(5))
    targets = np.zeros((2, 3), dtype=int)
    with pytest.raises(T.ShapeError, match="lm_loss"):  # the rows, not the outputs
        T.lm_loss(T.Tensor(np.zeros((6, 4))), None, w, b, targets.reshape(-1))
    with pytest.raises(T.ShapeError, match="lm_loss: .* out_mask"):  # not locked across time
        T.lm_loss(raw, np.ones((2, 3, 4)), w, b, targets)
    _, _, *head, _ = head_inputs(2, 4, 5, seed=0)
    with pytest.raises(T.ShapeError, match="classifier_head: .* out_mask"):  # not locked across time
        T.classifier_head([raw], np.array([3, 1]), *head, out_mask=np.ones((2, 3, 4)))


@pytest.mark.parametrize("g", [np.ones(3), np.ones((1, 3)), np.ones(()), np.ones((2, 3, 1))])
def test_accumulate_refuses_a_gradient_of_another_shape(g):
    # every op hands back a gradient of its operand's shape; a broadcastable
    # one is refused, first or added, and leaves the gradient as it was
    x = T.param(np.zeros((2, 3)), "x")
    with pytest.raises(T.ShapeError, match=r"accumulate: gradient of shape .* for \(2, 3\)"):
        x.accumulate(g)
    assert x.grad is None
    x.accumulate(np.full((2, 3), 2.0, dtype=np.float32))
    assert x.grad.dtype == np.float64 and (x.grad == 2.0).all()
    with pytest.raises(T.ShapeError, match="accumulate"):
        x.accumulate(g)
    assert (x.grad == 2.0).all()


def test_rng_determinism_and_children():
    a, b = T.Rng(42), T.Rng(42)
    assert np.array_equal(a.uniform((4, 4)), b.uniform((4, 4)))
    assert np.array_equal(a.permutation(10), b.permutation(10))
    c1 = T.Rng(42).child("dropout").uniform((8,))
    c2 = T.Rng(42).child("dropout").uniform((8,))
    d = T.Rng(42).child("init").uniform((8,))
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, d)


def test_rng_keep_mask_scaling():
    mask = T.Rng(0).keep_mask((100_000,), 0.25)
    vals = set(np.unique(mask).tolist())
    assert vals <= {0.0, 1.0 / 0.75}
    assert abs(mask.mean() - 1.0) < 0.01  # expectation preserved
    assert np.array_equal(T.Rng(1).keep_mask((50,), 0.0), np.ones(50))
