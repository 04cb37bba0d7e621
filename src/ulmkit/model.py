"""AWD-LSTM language model and the derived pooled-head text classifier.

Regularization sites follow the AWD-LSTM recipe: DropConnect on the
hidden-to-hidden matrices only (one mask per batch), variational dropout on
layer inputs/outputs (one mask per sequence, locked across time), and
row-wise embedding dropout. The decoder weight is the embedding matrix
itself (tying), so a single storage receives both gradients.
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


def variational_dropout(x: Tensor, p: float, rng: Rng, training: bool = True) -> Tensor:
    """Locked dropout: one (batch, feature) mask reused at every timestep."""
    if not training or p <= 0.0:
        return x
    b, _, f = x.shape
    mask = rng.keep_mask((b, 1, f), p)
    return T.mul(x, Tensor(mask))


def embedding_dropout(emb: Tensor, ids: np.ndarray, p: float, rng: Rng,
                      training: bool = True) -> Tensor:
    """Look ids up in the embedding with whole vocabulary rows dropped for
    one batch: one (vocab, 1) keep mask is drawn, and only the rows that ids
    gather are scaled by it."""
    if not training or p <= 0.0:
        return T.embedding_lookup(emb, ids)
    return T.embedding_lookup(emb, ids, rng.keep_mask((emb.shape[0], 1), p))


class LstmLayer:
    """One LSTM layer; gates packed [input, forget, cell, output]."""

    def __init__(self, input_size: int, hidden_size: int, rng: Rng, name: str):
        self.hidden_size = hidden_size
        bound = 1.0 / math.sqrt(hidden_size)
        self.W_ih = T.param(rng.uniform((input_size, 4 * hidden_size), -bound, bound), f"{name}.W_ih")
        self.W_hh = T.param(rng.uniform((hidden_size, 4 * hidden_size), -bound, bound), f"{name}.W_hh")
        b = np.zeros(4 * hidden_size)
        b[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias
        self.b = T.param(b, f"{name}.b")

    def parameters(self) -> list[Tensor]:
        return [self.W_ih, self.W_hh, self.b]

    def forward(self, x: Tensor, state, w_hh: Tensor):
        """Run the layer over (batch, steps, input) from the ``(h, c)``
        arrays in ``state``; returns the outputs and the new state as fresh
        arrays.

        ``w_hh`` is passed explicitly so a weight-dropped matrix (fixed for
        the whole sequence) can stand in for ``self.W_hh``.
        """
        out, h, c = T.lstm(x, *state, self.W_ih, w_hh, self.b)
        return out, (h, c)


def apply_weight_drop(layer: LstmLayer, p: float, rng: Rng, training: bool = True) -> Tensor:
    """DropConnect on the hidden->hidden matrix, one mask per batch.

    Survivors are scaled by 1/(1-p); eval mode is the identity.
    """
    if not training or p == 0.0:
        return layer.W_hh
    mask = rng.keep_mask(layer.W_hh.shape, p)
    return T.mul(layer.W_hh, Tensor(mask))


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
        for name, p in self.named_parameters():
            if name not in state:
                raise KeyError(f"checkpoint missing parameter {name}")
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {name}: checkpoint shape {state[name].shape} != model shape {p.data.shape}"
                )
            p.data = state[name].astype(p.data.dtype)  # astype copies

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
    """

    def __init__(self, vocab_size: int, emb_dim: int, hid_dim: int, n_layers: int,
                 dropout_multiplier: float = 1.0, seed: int = 0):
        self.vocab_size = vocab_size
        self.emb_dim = emb_dim
        self.hid_dim = hid_dim
        self.n_layers = n_layers
        init = Rng(seed).child("init")
        self.embedding = T.param(init.uniform((vocab_size, emb_dim), -0.1, 0.1), "embedding")
        self.layers = []
        for i in range(n_layers):
            in_size = emb_dim if i == 0 else hid_dim
            out_size = emb_dim if i == n_layers - 1 else hid_dim
            self.layers.append(LstmLayer(in_size, out_size, init, f"lstm{i}"))
        self.decoder_bias = T.param(np.zeros(vocab_size), "decoder_bias")
        self.reset_dropout(dropout_multiplier, seed)

    def reset_dropout(self, multiplier: float, seed: int) -> None:
        """Start a phase's dropout: every site's rate is its DROPOUT_RATES
        entry times ``multiplier``, and the masks are drawn from ``seed``."""
        self.dropout_multiplier = multiplier
        self.drop_rng = Rng(seed).child("dropout")

    def rate(self, site: str) -> float:
        return DROPOUT_RATES[site] * self.dropout_multiplier

    # -- parameters -------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding)]
        for layer in self.layers:
            for p in layer.parameters():
                out.append((p.name, p))
        out.append(("decoder_bias", self.decoder_bias))
        return out

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

    def encode(self, ids: np.ndarray, state=None):
        """Run embedding + LSTM stack; returns (raw final outputs, dropped
        final outputs, detached new state)."""
        b, _ = np.shape(ids)
        if state is None:
            state = self.init_state(b)
        rng = self.drop_rng
        x = embedding_dropout(self.embedding, ids, self.rate("p_emb"), rng, self.training)
        x = variational_dropout(x, self.rate("p_input"), rng, self.training)
        new_state = []
        raw = x
        for i, layer in enumerate(self.layers):
            w_hh = apply_weight_drop(layer, self.rate("p_weight"), rng, self.training)
            raw, layer_state = layer.forward(x, state[i], w_hh)
            new_state.append(layer_state)
            x = raw
            if i < self.n_layers - 1:
                x = variational_dropout(x, self.rate("p_hidden"), rng, self.training)
        dropped = variational_dropout(raw, self.rate("p_output"), rng, self.training)
        return raw, dropped, new_state

    def forward(self, ids: np.ndarray, state=None, targets=None):
        """With (batch, steps) ``targets``, the mean next-token cross-entropy
        through the tied decoder as one graph node; without, next-token
        logits (batch, steps, vocab) as a plain Tensor outside the graph.
        Either comes with the carried state and the raw/dropped final-layer
        activations (for AR/TAR terms)."""
        raw, dropped, new_state = self.encode(ids, state)
        if targets is not None:
            out = T.tied_decoder_ce(dropped, self.embedding, self.decoder_bias, targets)
        else:
            b, s, e = dropped.shape
            logits = dropped.data.reshape(b * s, e) @ self.embedding.data.T + self.decoder_bias.data
            out = Tensor(logits.reshape(b, s, self.vocab_size))
        return out, new_state, raw, dropped


class TextClassifier(Module):
    """LM encoder + concat-pool head with layer groups for unfreezing.

    Groups, bottom to top: [embedding + first LSTM layer], each remaining
    LSTM layer, then the head. ``freeze_to(i)`` freezes all groups below i.
    """

    def __init__(self, encoder: AwdLstmLM, seed: int = 0):
        self.encoder = encoder
        rng = Rng(seed).child("head-init")
        in_w = 3 * encoder.emb_dim
        self.W1 = T.param(rng.uniform((in_w, HEAD_HIDDEN), -1 / math.sqrt(in_w), 1 / math.sqrt(in_w)), "head.W1")
        self.b1 = T.param(np.zeros(HEAD_HIDDEN), "head.b1")
        self.W2 = T.param(rng.uniform((HEAD_HIDDEN, N_CLASSES), -1 / math.sqrt(HEAD_HIDDEN), 1 / math.sqrt(HEAD_HIDDEN)), "head.W2")
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
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[0] == 0 or ids.shape[1] == 0:
            raise ValueError(f"classifier: expected non-empty (batch, steps) ids, got {ids.shape}")
        self.encoder.training = self.training
        raw, dropped, _ = self.encoder.encode(ids)
        pooled = T.concat_pool(dropped, lengths)
        hid = T.relu(T.add(T.matmul(pooled, self.W1), self.b1))
        if self.training:
            p = self.encoder.rate("p_head")
            if p > 0:
                hid = T.mul(hid, Tensor(self._drop_rng.keep_mask(hid.shape, p)))
        return T.add(T.matmul(hid, self.W2), self.b2)


def build_lm(vocab_size: int, preset: str = "tiny", dropout_multiplier: float = 1.0,
             seed: int = 0) -> AwdLstmLM:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
    return AwdLstmLM(vocab_size, **PRESETS[preset], dropout_multiplier=dropout_multiplier,
                     seed=seed)
