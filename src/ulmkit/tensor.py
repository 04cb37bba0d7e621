"""Minimal dense tensors with reverse-mode automatic differentiation.

Single CPU backend on top of numpy arrays. Each op records its parents and
a local backward closure; ``backward()`` walks the implicit DAG once in
reverse topological order and releases each node as it passes it, so a
graph can be walked only once. Gradients accumulate into the leaves
(explicit ``zero_grad``). Every random draw in the package, corpus
splits included, comes from an ``Rng``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_DEFAULT_DTYPE = np.float64
# Rows of logits the tied decoder forms at a time, at most. Measured serially
# at 10,008 classes and 64 features in float64, 256 was the fastest of 64 to
# 1,120 rows. Split over two threads it was again among the fastest, within
# the host's run-to-run noise.
DECODER_CHUNK = 256
# Bytes of the decoder's logits buffer, at most: DECODER_CHUNK float32 rows
# at the 10,008 classes of the 10k vocabulary, about 10 MB. A float64 call
# there (validation and every no_grad score) forms 128 rows at a time, with
# the same bits per row; a float64 buffer of 256 rows was 20 MB.
DECODER_BYTES = DECODER_CHUNK * 10_008 * 4
# A chunk with fewer logits than this stays on the calling thread. At 64
# features and 1 BLAS thread on 2 cores, a 256-row chunk took as long split
# in two as serial at 256 classes (65,536 logits, 1.2 ms), 1.3-1.5x as long
# at 64 classes and below, and 1.4-1.9x less from 512 classes up.
DECODER_SPLIT_MIN = 1 << 16
# An op that records a gradient runs in float32 (``_precision``) when the
# width it reads is at least this: an LSTM layer's hidden size, or the
# decoder's features, which are the last layer's hidden size. It then forms
# its products in float32 (Micikevicius et al. 2018).
# The float64/float32 time ratio of a tracked ``lstm`` forward plus backward
# at S39 (medians of 7, two runs, 1 BLAS thread on 2 cores) was 0.97-1.00 at
# B2 H6, 0.97-1.08 at B4 H16-32, 1.33-1.54 at B8 H64 and 1.47-1.96 at B8
# H128; at B8 H32 it spread from 0.85 to 1.55. The decoder at B16 S70
# V10,008 E64 took 74-77 ms with its gradients against 129-148 ms in
# float64. So every layer and the decoder of the tiny and full presets train
# in float32, and the small models of the finite-difference tests stay
# float64, as does every untracked call.
F32_MIN_HIDDEN = 64
# Rows (batch x steps) of the LSTM input projection that ``lstm`` forms at a
# time. 512 is the smallest power of two that leaves the fixture training
# windows (B8, S <= 44) and ``predict`` (B1) one product; at B64 it is 8
# steps. Peak RSS of one infer-10k run (B64 scoring, S up to 62) read 65.4,
# 69.2 and 75.9 MB at 256, 512 and 1,024 rows, against 86.0 MB for whole
# windows. At 512 rows the op ran at 0.97-1.09x the whole-window speed for
# B64 S17-62 under no_grad and 0.97-1.02x for a tracked float32 B16 S70
# (interleaved medians, 1 BLAS thread on 2 cores), within the host's noise.
LSTM_PROJ_ROWS = 512
# Classes per block of the weight gradient, which bounds its temporary.
_DW_BLOCK = 1024
_grad_enabled = True
# The tied decoder's threads, kept for the process: started per call, the op
# at B16 S70 V10,008 took a 57.5 ms median against 55.7 ms with this pool,
# slower in 6 of 6 alternating process pairs (2 cores, 1 BLAS thread).
_pool: ThreadPoolExecutor | None = None


class ShapeError(ValueError):
    """Shape-incompatible operands, reported with op name and shapes."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=None):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g) -> None:
        """Add g, of this tensor's own shape, to grad; nothing is broadcast."""
        if np.shape(g) != self.data.shape:
            raise ShapeError(f"accumulate: gradient of shape {np.shape(g)} for {self.data.shape}")
        if self.grad is None:
            self.grad = np.array(g, dtype=_DEFAULT_DTYPE)
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"


def param(data, name=None) -> Tensor:
    """A trainable leaf."""
    return Tensor(data, requires_grad=True, name=name)


@contextlib.contextmanager
def no_grad():
    """Within this block no op records a graph node: every result is a leaf
    with no parents, and fused ops skip their gradient work. Values are
    unchanged, except that an op wide enough for float32 when tracked
    (``_precision``) is float64 here."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """False within a ``no_grad`` block."""
    return _grad_enabled


def _tracked(*ts: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in ts)


def _precision(track: bool, width: int):
    """The one precision rule: float32 for an op that records a gradient
    (``track``) and reads a ``width`` of at least F32_MIN_HIDDEN, float64
    otherwise."""
    return np.float32 if track and width >= F32_MIN_HIDDEN else np.float64


def _make(data, parents, backward) -> Tensor:
    if not _tracked(*parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=tuple(parents), backward=backward)


def time_chunks(steps: int, bsz: int):
    """(start, end) of each run of steps, in order, over which ``lstm`` forms
    one input projection of a (bsz, steps) window: LSTM_PROJ_ROWS // bsz
    steps, and at least two rows, with a one-row remainder joined to the
    chunk before it. numpy hands a one-row product to gemv, whose sums are
    not those of gemm; so each row of every chunk's product gets the sums of
    the whole-window product."""
    per = max(LSTM_PROJ_ROWS // bsz, -(-2 // bsz))
    start = 0
    while start < steps:
        end = start + per if (steps - start - per) * bsz >= 2 else steps
        yield start, end
        start = end


def lstm(x: Tensor, h0: np.ndarray, c0: np.ndarray, w_ih: Tensor, w_hh: Tensor, b: Tensor,
         x_mask: np.ndarray | None = None,
         w_mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One LSTM layer over (batch, steps, input) as a single graph node.

    Dropout (AWD-LSTM): the layer reads ``x * x_mask``, a (batch, 1, input)
    mask locked across time, and ``w_hh * w_mask``, each formed in float64
    before any cast; backward scales the float64 x and ``w_hh`` gradients by
    the same masks.

    Gates are packed [input, forget, cell, output] along the 4·hidden axis.
    The input projection is formed one ``time_chunks`` chunk, at most
    LSTM_PROJ_ROWS rows (batch × steps), at a time, just before the
    recurrence reaches it, and is one matmul for a window no larger than
    that; every row gets the sums of the whole-window product. The
    recurrence runs in numpy and, when the op records a gradient, keeps each
    step's gates and cell for the hand-written BPTT backward; otherwise it
    keeps only the current step's gates and the last two cells, with the
    same arithmetic.
    ``h0``/``c0`` are plain arrays (the carried state is never
    differentiated). Returns the outputs (batch, steps, hidden) and fresh
    copies of the final hidden and cell state.

    Precision (``_precision``): when the op records a gradient and its
    hidden size is at least F32_MIN_HIDDEN, it casts x, the weights, the
    bias and the state to float32 once and runs the projection, the
    recurrence, the BPTT loop and the gradient products in float32
    (Micikevicius et al. 2018); the outputs, the state and the gradients it
    hands back are float64, and the bias gradient is summed in float64.
    Otherwise, and so always under ``no_grad`` and for a layer whose inputs
    and weights are all frozen, it is float64 throughout.
    """
    if x.data.ndim != 3 or x.shape[1] < 1 or w_ih.data.ndim != 2 or w_hh.data.ndim != 2:
        raise ShapeError(f"lstm: expected (batch, steps >= 1, input) x and 2-d weights, got "
                         f"{x.shape}, {w_ih.shape}, {w_hh.shape}")
    bsz, steps, n_in = x.shape
    hs = w_hh.shape[0]
    if (w_ih.shape != (n_in, 4 * hs) or w_hh.shape != (hs, 4 * hs) or b.shape != (4 * hs,)
            or np.shape(h0) != (bsz, hs) or np.shape(c0) != (bsz, hs)
            or x_mask is not None and np.shape(x_mask) != (bsz, 1, n_in)
            or w_mask is not None and np.shape(w_mask) != w_hh.shape):
        raise ShapeError(f"lstm: incompatible shapes x {x.shape}, h0 {np.shape(h0)}, "
                         f"c0 {np.shape(c0)}, w_ih {w_ih.shape}, w_hh {w_hh.shape}, b {b.shape}, "
                         f"x_mask {np.shape(x_mask)}, w_mask {np.shape(w_mask)}")
    track = _tracked(x, w_ih, w_hh, b)
    dt = _precision(track, hs)
    # float32 exp(-z) overflows to inf once z < -88.7, and the sigmoid's
    # 1 / (1 + inf) = 0 is then right: that overflow is not reported
    quiet = (functools.partial(np.errstate, over="ignore") if dt is np.float32
             else contextlib.nullcontext)
    xd = x.data if x_mask is None else x.data * x_mask
    whd = w_hh.data if w_mask is None else w_hh.data * w_mask
    x2d, wi, wh, bd, h0 = (a.astype(dt, copy=False) for a in
                           (xd.reshape(bsz * steps, n_in), w_ih.data, whd, b.data, h0))
    x3 = x2d.reshape(bsz, steps, n_in)
    kept = steps if track else 1  # steps whose state is kept
    gates = np.empty((kept, bsz, 4 * hs), dt)  # activated: sigmoid i, f, o; tanh g
    cells = np.empty((kept + 1, bsz, hs), dt)  # tracked: cells[0] = c0, cells[t + 1] = c_t
    tanh_c = np.empty((kept, bsz, hs), dt)
    out = np.empty((bsz, steps, hs), dt)
    cells[0] = c0
    h = h0
    for start, end in time_chunks(steps, bsz):
        proj = (x3[:, start:end].reshape(-1, n_in) @ wi).reshape(bsz, end - start, 4 * hs)
        for t in range(start, end):
            s, c_prev, c_t = t % kept, cells[t % (kept + 1)], cells[(t + 1) % (kept + 1)]
            z = proj[:, t - start] + h @ wh + bd
            with quiet():
                e = np.exp(-z)
            np.divide(1.0, 1.0 + e, out=gates[s])
            i, f, gc, o = (gates[s, :, k * hs : (k + 1) * hs] for k in range(4))
            np.tanh(z[:, 2 * hs : 3 * hs], out=gc)
            np.add(f * c_prev, i * gc, out=c_t)
            np.tanh(c_t, out=tanh_c[s])
            h = out[:, t] = o * tanh_c[s]

    def bwd(g):
        g = g.astype(dt, copy=False)
        dz = np.empty((bsz, steps, 4 * hs), dt)
        dh = np.zeros((bsz, hs), dt)
        dc = np.zeros((bsz, hs), dt)
        for t in reversed(range(steps)):
            i, f, gc, o = (gates[t, :, k * hs : (k + 1) * hs] for k in range(4))
            dh = dh + g[:, t]
            dc = dc + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
            d = dz[:, t]
            d[:, :hs] = dc * gc * i * (1.0 - i)
            d[:, hs : 2 * hs] = dc * cells[t] * f * (1.0 - f)
            d[:, 2 * hs : 3 * hs] = dc * i * (1.0 - gc * gc)
            d[:, 3 * hs :] = dh * tanh_c[t] * o * (1.0 - o)
            dc = dc * f
            if t:
                dh = d @ wh.T
        dz2d = dz.reshape(bsz * steps, 4 * hs)
        # accumulate stores each float32 product as float64; a float64 mask
        # promotes it to float64 before it scales it
        if x.requires_grad:
            dx = (dz2d @ wi.T).reshape(x.shape)
            x.accumulate(dx if x_mask is None else dx * x_mask)
        if w_ih.requires_grad:
            w_ih.accumulate(x2d.T @ dz2d)
        if w_hh.requires_grad:
            h_prev = np.concatenate([h0[:, None, :], out[:, :-1]], axis=1)
            dw = h_prev.reshape(bsz * steps, hs).T @ dz2d
            w_hh.accumulate(dw if w_mask is None else dw * w_mask)
        if b.requires_grad:
            b.accumulate(dz2d.sum(axis=0, dtype=np.float64))

    return (_make(out.astype(np.float64, copy=False), (x, w_ih, w_hh, b), bwd),
            np.array(out[:, -1], np.float64), np.array(c_t, np.float64))


def embedding_lookup(weight: Tensor, ids: np.ndarray, row_scale: np.ndarray | None = None) -> Tensor:
    """The rows of weight that ids name. A (vocab, 1) ``row_scale``
    multiplies each gathered row by its own entry (embedding dropout); only
    the gathered rows are scaled, in both passes."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise IndexError(
            f"embedding_lookup: id out of range for vocabulary of {weight.shape[0]}"
        )
    out_data = weight.data[ids]
    scale = None if row_scale is None else row_scale[ids]
    if scale is not None:
        out_data *= scale

    def bwd(g):
        if weight.requires_grad:
            if weight.grad is None:
                weight.grad = np.zeros_like(weight.data)
            np.add.at(weight.grad, ids, g if scale is None else g * scale)

    return _make(out_data, (weight,), bwd)


class ConcatPool:
    """ULMFiT's concat pool of (batch, steps, features) outputs over each
    sequence's valid steps, the steps past its length being padding, taken
    in consecutive time chunks by ``add``. It keeps three running values:
    the output at the last valid step; the max, with the step it came from
    (the first such step on a tie), for backward; and the mean, as the sum
    of each step's output times 1 / length, added one step at a time in
    order from zero, as numpy sums over the step axis. So any chunking gives
    the bits of one whole-window pool."""

    def __init__(self, lengths: np.ndarray, features: int):
        b = len(lengths)
        self.lengths = lengths
        self.steps = 0
        self.last = np.zeros((b, features))
        self.max = np.full((b, features), -np.inf)
        self.argmax = np.zeros((b, features), dtype=np.intp)
        self.total = np.zeros((b, features))

    def add(self, x: np.ndarray) -> None:
        """Pool the next chunk of (batch, k, features) outputs."""
        t0, lengths = self.steps, self.lengths
        self.steps += x.shape[1]
        valid = np.arange(t0, self.steps)[None, :] < lengths[:, None]
        ends = np.flatnonzero((lengths > t0) & (lengths <= self.steps))
        self.last[ends] = x[ends, lengths[ends] - 1 - t0]
        # the running max first, so that a tie keeps the earlier step
        cand = np.concatenate([self.max[:, None], np.where(valid[:, :, None], x, -np.inf)],
                              axis=1)
        best = cand.argmax(axis=1)
        self.max = np.take_along_axis(cand, best[:, None], axis=1)[:, 0]
        self.argmax = np.where(best > 0, best - 1 + t0, self.argmax)
        terms = x * (valid / np.maximum(lengths, 1)[:, None])[:, :, None]  # 1 / length or 0
        for t in range(x.shape[1]):  # a length below 1 is refused by ``pooled``
            self.total += terms[:, t]

    def pooled(self) -> np.ndarray:
        """The (batch, 3·features) pool of every step added: last, max, mean."""
        if (self.lengths < 1).any() or (self.lengths > self.steps).any():
            raise ValueError(f"classifier_head: lengths must be in [1, {self.steps}]")
        return np.concatenate([self.last, self.max, self.total], axis=1)


def classifier_head(chunks, lengths, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                    out_mask: np.ndarray | None = None, mask: np.ndarray | None = None) -> Tensor:
    """ULMFiT's classifier head on (batch, steps, features) encoder outputs
    as one graph node. ``chunks`` is an iterable of Tensors over consecutive
    time chunks of the window, each pooled as it comes, so that only one
    chunk need be alive at a time; a call that records a gradient passes
    one, the whole window. The logits are bit-identical however the window
    is cut.

    It pools the outputs times their (batch, 1, features) keep ``out_mask``
    (the output dropout; the outputs themselves where None) with a
    ``ConcatPool`` over each sequence's valid steps, the steps past its
    length being padding: the output at the last one, the max and the mean,
    concatenated to (batch, 3·features). Then relu(pooled @ w1 + b1), times
    the dropout keep ``mask`` where given, @ w2 + b2. It is float64
    throughout."""
    lengths = np.asarray(lengths)
    hidden = w2.shape[0]
    pool = None
    for x in chunks:  # x ends as the last chunk: for a tracked call, the only one
        if (x.data.ndim != 3 or lengths.shape != x.shape[:1]
                or w1.shape != (3 * x.shape[2], hidden) or b1.shape != (hidden,)
                or b2.shape != w2.shape[1:]
                or out_mask is not None and np.shape(out_mask) != (x.shape[0], 1, x.shape[2])
                or mask is not None and np.shape(mask) != (x.shape[0], hidden)):
            raise ShapeError(f"classifier_head: incompatible shapes x {x.shape}, lengths "
                             f"{lengths.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, "
                             f"b2 {b2.shape}, out_mask {np.shape(out_mask)}, "
                             f"mask {np.shape(mask)}")
        if pool is None:
            pool = ConcatPool(lengths, x.shape[2])
        elif _grad_enabled:
            raise ValueError("classifier_head: more than one chunk only under no_grad")
        pool.add(x.data if out_mask is None else x.data * out_mask)
    if pool is None:
        raise ShapeError("classifier_head: no outputs to pool")
    pooled = pool.pooled()
    pre = pooled @ w1.data + b1.data
    h = np.maximum(pre, 0.0)
    h = h if mask is None else h * mask
    out_data = h @ w2.data + b2.data

    def bwd(g):
        if w2.requires_grad:
            w2.accumulate(h.T @ g)
        if b2.requires_grad:
            b2.accumulate(g.sum(axis=0))
        d = g @ w2.data.T
        d = (d if mask is None else d * mask) * (pre > 0)
        if x.requires_grad:
            b, s, f = x.shape
            rows = np.arange(b)
            w = (np.arange(s)[None, :] < lengths[:, None]) / lengths[:, None]  # mean weights
            dp = d @ w1.data.T
            dx = np.zeros_like(x.data)
            dx[rows, lengths - 1] += dp[:, :f]
            dx[rows[:, None], pool.argmax, np.arange(f)] += dp[:, f : 2 * f]
            dx += dp[:, None, 2 * f :] * w[:, :, None]
            x.accumulate(dx if out_mask is None else dx * out_mask)
        if w1.requires_grad:
            w1.accumulate(pooled.T @ d)
        if b1.requires_grad:
            b1.accumulate(d.sum(axis=0))

    return _make(out_data, (x, w1, b1, w2, b2), bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of (n,) targets under softmax(logits),
    for (n, classes) logits."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.shape != logits.shape[:1]:
        raise ShapeError(f"cross_entropy: targets of shape {targets.shape} for logits {logits.shape}")
    n, c = logits.shape
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError(f"cross_entropy: target out of range for {c} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    out_data = -logp[np.arange(n), targets].mean()

    def bwd(g):
        if logits.requires_grad:
            p = np.exp(logp)
            p[np.arange(n), targets] -= 1.0
            logits.accumulate(g * p / n)

    return _make(out_data, (logits,), bwd)


@functools.cache
def _openblas():
    """The get and set thread-count calls of numpy's bundled OpenBLAS, or
    None where that library or its calls cannot be found."""
    numpy_dir = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS runs a product on, or None if unknown."""
    calls = _openblas()
    return None if calls is None else calls[0]()


@contextlib.contextmanager
def single_blas_thread():
    """Within this block numpy's OpenBLAS runs every product on the calling
    thread, so that its results do not depend on the host's thread setting;
    the previous setting is restored after. A no-op where the thread count
    cannot be set."""
    calls = _openblas()
    if calls is None:
        yield
        return
    previous = calls[0]()
    calls[1](1)
    try:
        yield
    finally:
        calls[1](previous)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def decoder_workers() -> int:
    """Threads the tied decoder splits a chunk over: the CPUs this process
    may use, shared among the threads each BLAS product runs on. 1 (serial)
    where the BLAS thread count cannot be read."""
    threads = blas_threads()
    return 1 if threads is None else max(1, _cpus() // threads)


def _reset_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_reset_pool)


def _split(task, n: int, parts: int) -> None:
    """Cut range(n) into at most ``parts`` slices, run task(start, stop) for
    each, the first on the calling thread and the others on the pool, and
    return once all are done. Every slice holds at least 2 (one slice when
    n < 4): numpy hands a one-row product to gemv, whose sums are not those
    of gemm."""
    global _pool
    parts = max(1, min(parts, n // 2))
    cuts = [n * k // parts for k in range(parts + 1)]
    if parts > 1 and _pool is None:
        _pool = ThreadPoolExecutor(thread_name_prefix="ulmkit-decoder")
    futures = [_pool.submit(task, cuts[k], cuts[k + 1]) for k in range(1, parts)]
    try:
        task(cuts[0], cuts[1])
    finally:
        for f in futures:
            f.result()


def lm_loss(raw: Tensor, out_mask: np.ndarray | None, weight: Tensor, bias: Tensor, targets,
            alpha: float = 0.0, beta: float = 0.0) -> tuple[Tensor, float]:
    """The LM's training loss from its last layer's (batch, steps, features)
    outputs ``raw`` as one graph node, and its cross-entropy as a float.

    The tied decoder reads dropped = raw times the (batch, 1, features) keep
    ``out_mask`` (raw itself where None): the cross-entropy is the mean
    negative log-likelihood of (batch, steps) targets under
    softmax(dropped @ weight.T + bias). The loss is AR,
    alpha·mean(dropped²), plus TAR, beta·mean((raw[:, t] - raw[:, t - 1])²),
    then plus the cross-entropy (Merity et al. 2017); a single step has no
    TAR term, and at alpha = beta = 0 no penalty is formed. Backward sums
    raw's gradient as separate mask, decoder and penalty nodes would, so
    that the op is bit-identical to that composition: TAR + (AR + decoder)
    times the mask with a mask, and (AR + TAR) + decoder without one.

    The decoder never holds more than DECODER_CHUNK rows of logits, nor
    more than DECODER_BYTES of them, in one buffer reused for every chunk.
    When a parent needs a gradient, the forward pass forms each chunk's
    share of it (the fused linear cross-entropy of Liger Kernel and Cut
    Cross-Entropy), and backward only scales by the upstream gradient.

    A chunk of at least DECODER_SPLIT_MIN logits is split over
    ``decoder_workers()`` threads in two phases. In the row phase each
    thread forms the logits, softmax, loss terms, logits gradient and input
    gradient of a slice of the chunk's rows; in the column phase, run only
    for a weight or bias gradient, each thread adds the chunk's share to a
    slice of the classes. Every output element gets the same arithmetic at
    any thread count, so results are bit-identical to the serial op.

    Precision (``_precision``): when the call records a gradient and its
    features are at least F32_MIN_HIDDEN, it casts the decoder's input, the
    weight and the bias to float32 once and forms the logits, softmax,
    logits gradient and the products for the input and weight gradients in
    float32 (Micikevicius et al. 2018). The softmax
    denominators, the loss, the penalties and the sums of the weight and
    bias gradients over chunks are float64, as are the gradients handed to
    the graph. Every other call, and so every score taken under
    ``no_grad``, is float64 throughout."""
    targets = np.asarray(targets)
    if (raw.data.ndim != 3 or weight.data.ndim != 2 or raw.shape[2] != weight.shape[1]
            or bias.shape != weight.shape[:1] or targets.shape != raw.shape[:2]
            or out_mask is not None and np.shape(out_mask) != (raw.shape[0], 1, raw.shape[2])):
        raise ShapeError(f"lm_loss: incompatible shapes raw {raw.shape}, out_mask "
                         f"{np.shape(out_mask)}, weight {weight.shape}, bias {bias.shape}, "
                         f"targets {targets.shape}")
    c, e = weight.shape
    targets = targets.reshape(-1)
    n = len(targets)
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError(f"lm_loss: target out of range for {c} classes")
    dropped = raw.data if out_mask is None else raw.data * out_mask
    # the penalties come before the logits buffer, so that their temporaries
    # do not add to the step's peak memory
    penalty = None
    ar_scale = tar_scale = 0.0
    if alpha or beta:
        diff = raw.data[:, 1:] - raw.data[:, :-1]
        ar_scale = alpha * (1.0 / dropped.size)
        tar_scale = beta * (1.0 / diff.size) if diff.size else 0.0
        penalty = ar_scale * (dropped * dropped).sum() + tar_scale * (diff * diff).sum()
        del diff  # backward forms it again rather than hold it between the passes
    track = _tracked(raw, weight, bias)
    h2d, w, bvec = (a.astype(_precision(track, e), copy=False)
                    for a in (dropped.reshape(n, e), weight.data, bias.data))
    dh = np.empty((n, e)) if track and raw.requires_grad else None
    dw = np.zeros((c, e)) if track and weight.requires_grad else None
    db = np.zeros(c) if track and bias.requires_grad else None
    picked = np.empty(n)  # log-probability of each target
    chunk = max(1, min(DECODER_CHUNK, DECODER_BYTES // (c * w.itemsize)))
    logits = np.empty((min(n, chunk), c), dtype=w.dtype)
    parts = decoder_workers() if logits.size >= DECODER_SPLIT_MIN else 1

    def row_phase(lo, r0, r1):
        hc, tc, z = h2d[lo + r0 : lo + r1], targets[lo + r0 : lo + r1], logits[r0:r1]
        rows = np.arange(r1 - r0)
        np.matmul(hc, w.T, out=z)
        z += bvec
        z -= z.max(axis=1, keepdims=True)
        zt = z[rows, tc]
        s = np.exp(z, out=z).sum(axis=1, keepdims=True, dtype=np.float64)
        picked[lo + r0 : lo + r1] = zt - np.log(s[:, 0])
        if track:
            # (softmax - one-hot) / n
            dz = np.divide(z, (s * n).astype(z.dtype, copy=False), out=z)
            dz[rows, tc] -= 1.0 / n
            if dh is not None:
                np.matmul(dz, w, out=dh[lo + r0 : lo + r1])

    def column_phase(hc, dz, c0, c1):
        a = c0
        while a < c1:
            b = c1 if c1 - a < _DW_BLOCK + 2 else a + _DW_BLOCK  # no one-class block (gemv)
            if dw is not None:
                dw[a:b] += dz[:, a:b].T @ hc
            if db is not None:
                db[a:b] += dz[:, a:b].sum(axis=0)
            a = b

    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        _split(functools.partial(row_phase, lo), m, parts)
        if dw is not None or db is not None:
            _split(functools.partial(column_phase, h2d[lo : lo + m], logits[:m]), c, parts)
    ce = -picked.mean()

    def bwd(g):
        if dw is not None:
            weight.accumulate(g * dw)
        if db is not None:
            bias.accumulate(g * db)
        if dh is None:
            return
        d = g * dh.reshape(raw.shape)
        ar = 2.0 * g * ar_scale * dropped if ar_scale else None
        tar = None
        if tar_scale:
            d_tar = 2.0 * g * tar_scale * (raw.data[:, 1:] - raw.data[:, :-1])
            tar = np.zeros_like(raw.data)
            tar[:, 1:] += d_tar
            tar[:, :-1] -= d_tar
        terms = ((ar, tar, d) if out_mask is None
                 else (tar, (d if ar is None else ar + d) * out_mask))
        for term in terms:
            if term is not None:
                raw.accumulate(term)

    return _make(ce if penalty is None else penalty + ce, (raw, weight, bias), bwd), float(ce)


def topo_order(root: Tensor) -> list[Tensor]:
    """Iterative depth-first topological ordering of the graph under root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def _released(g) -> None:
    """The backward of a node that an earlier ``backward`` walked."""
    raise RuntimeError("backward: the graph was released by an earlier backward; "
                       "build it again to backpropagate through it")


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from loss.

    Gradients accumulate into the leaves' existing grads until zeroed, so
    calls on fresh graphs add up. The walk releases each non-leaf node once
    its backward has run: it drops the node's backward closure, with the
    arrays the op saved for it, its parents and its gradient, so that a
    step's saved arrays are freed as the walk passes them and every node's
    data once nothing else holds the node. A second call through a released
    graph raises RuntimeError before any gradient changes.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = topo_order(loss)
    if any(node._backward is _released for node in order):
        _released(None)
    loss.accumulate(np.ones_like(loss.data))
    while order:  # reverse topological order; popping drops the list's hold
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward, node._parents, node.grad = _released, (), None


class Rng:
    """Deterministic PCG64 stream: same seed and call sequence, same values.
    The seed is taken modulo 2^64; one in [0, 2^64) gives the stream of
    ``np.random.default_rng(seed)``. Draws are returned without a copy."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: str) -> "Rng":
        """Independent stream derived from this seed and a string tag."""
        mixed = (self.seed * 0x9E3779B97F4A7C15 + zlib.crc32(tag.encode())) & 0xFFFFFFFFFFFFFFFF
        return Rng(mixed)

    def uniform(self, shape, low=0.0, high=1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def keep_mask(self, shape, p_drop: float) -> np.ndarray:
        """Bernoulli keep mask scaled by 1/(1-p_drop); expectation-preserving."""
        return (self._gen.random(size=shape) >= p_drop) / (1.0 - p_drop)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)
