"""Single-file binary checkpoints.

Layout: magic, format version, a JSON header (kind, preset, vocabulary,
config snapshot, phase provenance, array manifest), the raw little-endian
parameter arrays, and a trailing CRC32 of everything before it. Loading is
strict: bad magic, truncation, checksum mismatch, a manifest entry whose
byte count disagrees with its shape, a vocabulary whose size disagrees with
the dims, or shape drift all fail with a named error and no partial model.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .model import HEAD_HIDDEN, N_CLASSES, AwdLstmLM, DropoutConfig, TextClassifier
from .textpipe import Vocabulary

MAGIC = b"ULMKCKPT"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    kind: str  # "lm" | "classifier"
    preset: str
    dims: dict
    vocab: Vocabulary
    params: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)
    provenance: list[str] = field(default_factory=list)

    def build_model(self):
        """Reconstruct the model this checkpoint describes."""
        d = self.dims
        dropouts = DropoutConfig(multiplier=d.get("dropout_multiplier", 1.0))
        lm = AwdLstmLM(d["vocab_size"], d["emb_dim"], d["hid_dim"], d["n_layers"],
                       dropouts=dropouts, preset=self.preset)
        if self.kind == "lm":
            lm.load_state_dict(self.params)
            return lm.eval()
        clf = TextClassifier(lm)
        clf.load_state_dict(self.params)
        return clf.eval()


def _model_dims(model) -> tuple[str, dict, dict[str, np.ndarray]]:
    if isinstance(model, TextClassifier):
        enc = model.encoder
        dims = dict(vocab_size=enc.vocab_size, emb_dim=enc.emb_dim, hid_dim=enc.hid_dim,
                    n_layers=enc.n_layers, n_classes=N_CLASSES, head_hidden=HEAD_HIDDEN,
                    dropout_multiplier=enc.dropouts.multiplier)
        return "classifier", dims, model.state_dict()
    if isinstance(model, AwdLstmLM):
        dims = dict(vocab_size=model.vocab_size, emb_dim=model.emb_dim,
                    hid_dim=model.hid_dim, n_layers=model.n_layers,
                    dropout_multiplier=model.dropouts.multiplier)
        return "lm", dims, model.state_dict()
    raise TypeError(f"cannot checkpoint {type(model).__name__}")


def save_checkpoint(path, model, vocab: Vocabulary, config: dict | None = None,
                    provenance: list[str] | None = None) -> None:
    kind, dims, params = _model_dims(model)
    preset = model.encoder.preset if isinstance(model, TextClassifier) else model.preset
    manifest = []
    payload = bytearray()
    for name, arr in params.items():
        arr = np.ascontiguousarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        manifest.append({"name": name, "shape": list(arr.shape),
                         "dtype": le.dtype.str, "nbytes": le.nbytes})
        payload += le.tobytes()
    header = json.dumps({
        "kind": kind, "preset": preset, "dims": dims,
        "vocab": vocab.id_to_token, "config": config or {},
        "provenance": provenance or [], "arrays": manifest,
    }).encode("utf-8")
    body = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + bytes(payload)
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 12 + 4:
        raise CheckpointError(f"{path}: truncated before header (only {len(blob)} bytes)")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic at offset 0, not a ulmkit checkpoint")
    body = memoryview(blob)[:-4]  # everything before the trailing CRC32, not copied
    (crc,) = struct.unpack_from("<I", blob, len(body))
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: checksum mismatch at offset {len(body)}")
    version, header_len = struct.unpack_from("<IQ", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    off = len(MAGIC) + 12
    if off + header_len > len(body):
        raise CheckpointError(f"{path}: truncated header section at offset {off}")
    try:
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header section: {exc}") from exc
    off += header_len
    # Each array is a read-only view of the file's bytes; load_state_dict
    # copies it into a model.
    params: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        n = entry["nbytes"]
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"], dtype=int))
        if n != count * dtype.itemsize:
            raise CheckpointError(
                f"{path}: array {entry['name']!r} declares {n} bytes, but shape "
                f"{entry['shape']} of {dtype} takes {count * dtype.itemsize}"
            )
        if off + n > len(body):
            raise CheckpointError(
                f"{path}: truncated array section {entry['name']!r} at offset {off}"
            )
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=off)
        params[entry["name"]] = arr.reshape(entry["shape"])
        off += n
    if off != len(body):
        raise CheckpointError(f"{path}: {len(body) - off} trailing bytes after arrays")
    if len(header["vocab"]) != header["dims"]["vocab_size"]:
        raise CheckpointError(f"{path}: vocabulary of {len(header['vocab'])} tokens, but "
                              f"dims give vocab_size {header['dims']['vocab_size']}")
    return Checkpoint(kind=header["kind"], preset=header["preset"], dims=header["dims"],
                      vocab=Vocabulary(header["vocab"]), params=params,
                      config=header.get("config", {}), provenance=header.get("provenance", []))
