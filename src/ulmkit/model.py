"""AWD-LSTM language model and the derived pooled-head text classifier.

Regularization sites follow the AWD-LSTM recipe: DropConnect on the
hidden-to-hidden matrices only (one mask per batch), variational dropout on
layer inputs/outputs (one mask per sequence, locked across time), and
row-wise embedding dropout. The model draws each mask, and the op that reads
the dropped value applies it (``embedding_lookup``, ``lstm``, ``lm_loss``,
``classifier_head``). Train mode is the one switch: in eval mode every
site's rate is 0, so no site draws a mask, and the LM's loss has no AR or
TAR penalty. The decoder weight is the embedding matrix itself (tying), so
a single storage receives both gradients.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Rng, Tensor

PRESETS = {
    "full": dict(emb_dim=400, hid_dim=1152, n_layers=3),
    "tiny": dict(emb_dim=64, hid_dim=128, n_layers=3),
}
# The classifier head's hidden width, and its classes: labels are 0 or 1.
HEAD_HIDDEN = 50
N_CLASSES = 2

# Base dropout probability of each site; a training phase scales them all by
# its one dropout multiplier.
DROPOUT_RATES = {"p_emb": 0.02, "p_input": 0.25, "p_hidden": 0.15, "p_weight": 0.2,
                 "p_output": 0.1, "p_head": 0.1}


def draw_mask(p: float, shape, rng: Rng) -> np.ndarray | None:
    """A keep mask of ``shape`` at rate p (``Rng.keep_mask``) for the op that
    reads the dropped value to apply; at p = 0, None, with nothing drawn."""
    return rng.keep_mask(shape, p) if p > 0.0 else None


def embedding_dropout(emb: Tensor, ids: np.ndarray, p: float, rng: Rng) -> Tensor:
    """Look ids up in the embedding with whole vocabulary rows dropped for
    one batch: one (vocab, 1) keep mask is drawn, and only the rows that ids
    gather are scaled by it."""
    return T.embedding_lookup(emb, ids, draw_mask(p, (emb.shape[0], 1), rng))


def layer_sizes(emb_dim: int, hid_dim: int, n_layers: int):
    """(input size, hidden size) of each LSTM layer, bottom first: the first
    reads the embedding, and the last outputs ``emb_dim`` for the tied
    decoder."""
    for i in range(n_layers):
        yield emb_dim if i == 0 else hid_dim, emb_dim if i == n_layers - 1 else hid_dim


def param_shapes(kind: str, vocab_size: int, emb_dim: int, hid_dim: int, n_layers: int):
    """(name, shape) of each parameter of an ``"lm"`` or a ``"classifier"``
    of these dims, in ``named_parameters()`` order, without building either.
    It is lazy, so a caller may stop early whatever ``n_layers`` says."""
    yield "embedding", (vocab_size, emb_dim)
    for i, (n_in, n_hid) in enumerate(layer_sizes(emb_dim, hid_dim, n_layers)):
        yield f"lstm{i}.W_ih", (n_in, 4 * n_hid)
        yield f"lstm{i}.W_hh", (n_hid, 4 * n_hid)
        yield f"lstm{i}.b", (4 * n_hid,)
    if kind == "lm":
        yield "decoder_bias", (vocab_size,)
    else:
        yield from (("head.W1", (3 * emb_dim, HEAD_HIDDEN)), ("head.b1", (HEAD_HIDDEN,)),
                    ("head.W2", (HEAD_HIDDEN, N_CLASSES)), ("head.b2", (N_CLASSES,)))


def init_uniform(rng: Rng | None, shape, bound: float) -> np.ndarray:
    """Weights drawn from U(-bound, bound), or, where ``rng`` is None, an
    array allocated and left unset for ``load_state_dict`` to fill."""
    return np.empty(shape) if rng is None else rng.uniform(shape, -bound, bound)


class LstmLayer:
    """One LSTM layer; gates packed [input, forget, cell, output]. With no
    ``rng`` its weights are left unset (see ``init_uniform``)."""

    def __init__(self, input_size: int, hidden_size: int, rng: Rng | None, name: str):
        self.hidden_size = hidden_size
        bound = 1.0 / math.sqrt(hidden_size)
        self.W_ih = T.param(init_uniform(rng, (input_size, 4 * hidden_size), bound), f"{name}.W_ih")
        self.W_hh = T.param(init_uniform(rng, (hidden_size, 4 * hidden_size), bound), f"{name}.W_hh")
        b = np.zeros(4 * hidden_size)
        b[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias
        self.b = T.param(b, f"{name}.b")

    def parameters(self) -> list[Tensor]:
        return [self.W_ih, self.W_hh, self.b]

    def forward(self, x: Tensor, state, float32: bool = False, x_mask: np.ndarray | None = None,
                w_mask: np.ndarray | None = None):
        """Run the layer over (batch, steps, input) from the ``(h, c)``
        arrays in ``state``; returns the outputs and the new state as fresh
        arrays.

        ``float32`` is the step's precision decision, and ``x_mask`` and
        ``w_mask`` are the input's variational mask and the weight drop on
        ``W_hh``, fixed for the whole sequence; ``T.lstm`` applies all three.
        """
        out, h, c = T.lstm(x, *state, self.W_ih, self.W_hh, self.b, float32, x_mask, w_mask)
        return out, (h, c)


class Module:
    """What the language model and the classifier share: the training flag,
    state dicts over ``named_parameters()`` and freezing by
    ``layer_groups()``, both of which each subclass defines (groups ordered
    bottom to top)."""

    training = True

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy each array of ``state`` into its parameter's own array, in place,
        so every holder of ``p.data`` sees the new values."""
        for name, p in self.named_parameters():
            if name not in state:
                raise KeyError(f"checkpoint missing parameter {name}")
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {name}: checkpoint shape {state[name].shape} != model shape {p.data.shape}"
                )
            p.data[...] = state[name]

    def freeze_to(self, group_index: int) -> None:
        """Freeze groups below group_index; freeze_to(0) unfreezes everything."""
        groups = self.layer_groups()
        if not 0 <= group_index < len(groups):
            raise IndexError(f"group index {group_index} out of range for {len(groups)} groups")
        for gi, group in enumerate(groups):
            for p in group:
                p.requires_grad = gi >= group_index
                if not p.requires_grad:
                    p.grad = None

    def trainable_groups(self) -> list[list[Tensor]]:
        return [g for g in self.layer_groups() if g[0].requires_grad]


class AwdLstmLM(Module):
    """Embedding + stacked LSTM + tied decoder with per-site dropout.

    The final LSTM layer outputs ``emb_dim`` so the decoder can share the
    embedding matrix. Layer groups (for gradual unfreezing) are one group
    per LSTM layer plus the embedding/decoder group on top.

    ``draw=False`` allocates every weight and draws none, for a model that
    ``load_state_dict`` fills at once: a checkpoint's, or a re-homed LM. It
    refuses a missing name, so no weight is left unset.
    """

    def __init__(self, vocab_size: int, emb_dim: int, hid_dim: int, n_layers: int,
                 dropout_multiplier: float = 1.0, seed: int = 0, draw: bool = True):
        self.vocab_size = vocab_size
        self.emb_dim = emb_dim
        self.hid_dim = hid_dim
        self.n_layers = n_layers
        init = Rng(seed).child("init") if draw else None
        self.embedding = T.param(init_uniform(init, (vocab_size, emb_dim), 0.1), "embedding")
        self.layers = [LstmLayer(n_in, n_hid, init, f"lstm{i}")
                       for i, (n_in, n_hid) in enumerate(layer_sizes(emb_dim, hid_dim, n_layers))]
        self.decoder_bias = T.param(np.zeros(vocab_size), "decoder_bias")
        self.reset_dropout(dropout_multiplier, seed)

    def reset_dropout(self, multiplier: float, seed: int) -> None:
        """Start a phase's dropout: every site's rate is its DROPOUT_RATES
        entry times ``multiplier``, and the masks are drawn from ``seed``."""
        self.dropout_multiplier = multiplier
        self.drop_rng = Rng(seed).child("dropout")

    def rate(self, site: str) -> float:
        """A site's dropout rate in training; 0 in eval mode."""
        return DROPOUT_RATES[site] * self.dropout_multiplier if self.training else 0.0

    # -- parameters -------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params = [self.embedding, *(p for layer in self.layers for p in layer.parameters()),
                  self.decoder_bias]
        return [(p.name, p) for p in params]

    def layer_groups(self) -> list[list[Tensor]]:
        groups = [layer.parameters() for layer in self.layers]
        groups.append([self.embedding, self.decoder_bias])
        return groups

    def init_state(self, batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        state = []
        for layer in self.layers:
            z = np.zeros((batch, layer.hidden_size))
            state.append((z.copy(), z.copy()))
        return state

    # -- forward ----------------------------------------------------------

    def encode(self, ids: np.ndarray, state=None, float32: bool = False):
        """Run embedding + LSTM stack; returns (raw final outputs, their
        dropout keep mask for the reading op to apply, None in eval mode,
        detached new state). ``float32`` is the step's precision decision."""
        b, _ = np.shape(ids)
        if state is None:
            state = self.init_state(b)
        rng = self.drop_rng
        x = embedding_dropout(self.embedding, ids, self.rate("p_emb"), rng)
        new_state = []
        for i, layer in enumerate(self.layers):
            x_mask = draw_mask(self.rate("p_hidden" if i else "p_input"), (b, 1, x.shape[2]), rng)
            w_mask = draw_mask(self.rate("p_weight"), layer.W_hh.shape, rng)
            x, layer_state = layer.forward(x, state[i], float32, x_mask, w_mask)
            new_state.append(layer_state)
        return x, draw_mask(self.rate("p_output"), (b, 1, self.emb_dim), rng), new_state

    def forward(self, ids: np.ndarray, state=None, targets=None, alpha=0.0, beta=0.0):
        """With (batch, steps) ``targets``, (loss, cross-entropy as a float,
        carried state), the loss one ``T.lm_loss`` node, with the AR and TAR
        penalties at ``alpha`` and ``beta`` in training mode only. Without,
        (logits, carried state, raw final-layer outputs, dropped outputs):
        the next-token logits (batch, steps, vocab) and the outputs times
        their dropout mask are plain Tensors outside the graph.

        Precision: with targets, the step takes ``T.float32_step``'s
        decision over the model's hidden width and mode, and passes it to
        every LSTM layer and to the decoder."""
        float32 = targets is not None and T.float32_step(self.hid_dim, self.training)
        raw, mask, new_state = self.encode(ids, state, float32)
        if targets is not None:
            if not self.training:
                alpha = beta = 0.0
            loss, ce = T.lm_loss(raw, mask, self.embedding, self.decoder_bias, targets, alpha,
                                 beta, float32)
            return loss, ce, new_state
        dropped = raw if mask is None else Tensor(raw.data * mask)
        b, s, e = dropped.shape
        logits = dropped.data.reshape(b * s, e) @ self.embedding.data.T + self.decoder_bias.data
        return Tensor(logits.reshape(b, s, self.vocab_size)), new_state, raw, dropped


class TextClassifier(Module):
    """LM encoder + concat-pool head with layer groups for unfreezing.

    Groups, bottom to top: [embedding + first LSTM layer], each remaining
    LSTM layer, then the head. ``freeze_to(i)`` freezes all groups below i.
    ``draw=False`` leaves the head's weights unset, as ``AwdLstmLM``'s.
    """

    def __init__(self, encoder: AwdLstmLM, seed: int = 0, draw: bool = True):
        self.encoder = encoder
        rng = Rng(seed).child("head-init") if draw else None
        in_w = 3 * encoder.emb_dim
        self.W1 = T.param(init_uniform(rng, (in_w, HEAD_HIDDEN), 1 / math.sqrt(in_w)), "head.W1")
        self.b1 = T.param(np.zeros(HEAD_HIDDEN), "head.b1")
        self.W2 = T.param(init_uniform(rng, (HEAD_HIDDEN, N_CLASSES), 1 / math.sqrt(HEAD_HIDDEN)), "head.W2")
        self.b2 = T.param(np.zeros(N_CLASSES), "head.b2")
        self._drop_rng = Rng(seed).child("head-dropout")

    def head_parameters(self) -> list[Tensor]:
        return [self.W1, self.b1, self.W2, self.b2]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [(n, p) for n, p in self.encoder.named_parameters() if n != "decoder_bias"]
        out += [(p.name, p) for p in self.head_parameters()]
        return out

    def layer_groups(self) -> list[list[Tensor]]:
        enc = self.encoder
        groups = [[enc.embedding] + enc.layers[0].parameters()]
        groups += [layer.parameters() for layer in enc.layers[1:]]
        groups.append(self.head_parameters())
        return groups

    def forward(self, ids: np.ndarray, lengths) -> Tensor:
        """Logits (batch, 2) of (batch, steps) ids padded past ``lengths``.
        The head pools the encoder's output with its output mask applied.
        The step takes ``T.float32_step``'s decision over the encoder's width
        and mode, and passes it to every LSTM layer; the head stays float64."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[0] == 0 or ids.shape[1] == 0:
            raise ValueError(f"classifier: expected non-empty (batch, steps) ids, got {ids.shape}")
        self.encoder.training = self.training  # every rate, the head's too, follows it
        float32 = T.float32_step(self.encoder.hid_dim, self.training)
        raw, out_mask, _ = self.encoder.encode(ids, float32=float32)
        mask = draw_mask(self.encoder.rate("p_head"), (len(ids), HEAD_HIDDEN), self._drop_rng)
        return T.classifier_head(raw, lengths, self.W1, self.b1, self.W2, self.b2, out_mask, mask)


def build_lm(vocab_size: int, preset: str = "tiny", dropout_multiplier: float = 1.0,
             seed: int = 0) -> AwdLstmLM:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
    return AwdLstmLM(vocab_size, **PRESETS[preset], dropout_multiplier=dropout_multiplier,
                     seed=seed)
