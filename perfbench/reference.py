"""Independent numpy reference for ulmkit checkpoints.

Reads a checkpoint by its documented layout (magic ``ULMKCKPT``, a
``<IQ`` format version and header length, a UTF-8 JSON header, the raw
little-endian arrays in manifest order, and a trailing CRC32 of everything
before it) and runs the eval-mode forward pass with plain numpy: packed
``[i, f, g, o]`` LSTM gates, the tied decoder for the language model, and
concat-pool (last valid step, max, mean) with the ReLU head for the
classifier. Nothing here imports ulmkit, so the benchmark's output checks
do not rest on the code they check.
"""

from __future__ import annotations

import functools
import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

MAGIC = b"ULMKCKPT"
UNK_ID = 0


@dataclass
class RefCheckpoint:
    dims: dict
    vocab: list[str]
    arrays: dict[str, np.ndarray]

    @property
    def n_layers(self) -> int:
        return int(self.dims["n_layers"])

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.vocab)}

    def ids(self, tokens: list[str]) -> list[int]:
        return [self._index.get(t, UNK_ID) for t in tokens]


def read_checkpoint(path) -> RefCheckpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ValueError(f"{path}: CRC32 mismatch")
    _version, header_len = struct.unpack_from("<IQ", body, len(MAGIC))
    off = len(MAGIC) + struct.calcsize("<IQ")
    header = json.loads(body[off : off + header_len].decode("utf-8"))
    off += header_len
    arrays = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"], dtype=np.int64))
        if count * dtype.itemsize != entry["nbytes"]:
            raise ValueError(f"{path}: {entry['name']} nbytes disagrees with shape")
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=off)
        arrays[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float64)
        off += entry["nbytes"]
    if off != len(body):
        raise ValueError(f"{path}: {len(body) - off} bytes after the arrays")
    return RefCheckpoint(header["dims"], header["vocab"], arrays)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def encode(ck: RefCheckpoint, ids: np.ndarray) -> np.ndarray:
    """Final LSTM layer outputs (batch, steps, emb) from zero state."""
    a = ck.arrays
    x = a["embedding"][ids]
    b, s, _ = x.shape
    for layer in range(ck.n_layers):
        w_ih, w_hh, bias = (a[f"lstm{layer}.{n}"] for n in ("W_ih", "W_hh", "b"))
        hid = w_hh.shape[0]
        proj = (x.reshape(b * s, -1) @ w_ih).reshape(b, s, 4 * hid)
        h = np.zeros((b, hid))
        c = np.zeros((b, hid))
        out = np.empty((b, s, hid))
        for t in range(s):
            z = proj[:, t] + h @ w_hh + bias
            i, f = _sigmoid(z[:, :hid]), _sigmoid(z[:, hid : 2 * hid])
            g, o = np.tanh(z[:, 2 * hid : 3 * hid]), _sigmoid(z[:, 3 * hid :])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[:, t] = h
        x = out
    return x


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]


def decode(ck: RefCheckpoint, hidden: np.ndarray) -> np.ndarray:
    """Tied decoder: next-token logits for final-layer outputs."""
    return hidden @ ck.arrays["embedding"].T + ck.arrays["decoder_bias"]


def lm_mean_loss(ck: RefCheckpoint, ribbon: np.ndarray, chunk: int = 256) -> float:
    """Mean next-token cross-entropy over a (batch, n) token ribbon, with the
    state carried from each step to the next, as in a windowed eval pass.
    Logits are formed ``chunk`` rows at a time to bound memory."""
    out = encode(ck, ribbon[:, :-1]).reshape(-1, ck.arrays["embedding"].shape[1])
    targets = ribbon[:, 1:].reshape(-1)
    total = 0.0
    for lo in range(0, len(targets), chunk):
        logits = decode(ck, out[lo : lo + chunk])
        total += float(example_losses(logits, targets[lo : lo + chunk]).sum())
    return total / len(targets)


def classifier_logits(ck: RefCheckpoint, sequences: list[list[int]]) -> np.ndarray:
    """(n, classes) logits, one row per id sequence, in input order.

    Sequences of equal length run as one batch, so no padding is involved."""
    a = ck.arrays
    out = np.empty((len(sequences), a["head.W2"].shape[1]))
    by_len: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_len.setdefault(len(seq), []).append(i)
    for rows in by_len.values():
        hidden = encode(ck, np.array([sequences[i] for i in rows]))
        pooled = np.concatenate([hidden[:, -1], hidden.max(axis=1), hidden.mean(axis=1)], axis=1)
        head = np.maximum(pooled @ a["head.W1"] + a["head.b1"], 0.0)
        out[rows] = head @ a["head.W2"] + a["head.b2"]
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def example_losses(logits: np.ndarray, labels) -> np.ndarray:
    labels = np.asarray(labels)
    return _logsumexp(logits) - logits[np.arange(len(labels)), labels]
