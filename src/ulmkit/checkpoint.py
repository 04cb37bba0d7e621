"""Single-file binary checkpoints.

Layout: magic, format version, a JSON header (kind, preset, vocabulary,
config snapshot, phase provenance, array manifest), the raw little-endian
parameter arrays, and a trailing CRC32 of everything before it. Loading is
strict: bad magic, truncation, checksum mismatch, a header without the keys,
JSON types or array dtype that saving writes, a manifest entry whose byte
count disagrees with its shape, a vocabulary whose size disagrees with the
dims, array names other than the model's, or shape drift all fail with a
named error and no partial model.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .model import HEAD_HIDDEN, N_CLASSES, PRESETS, AwdLstmLM, TextClassifier
from .textpipe import Vocabulary

MAGIC = b"ULMKCKPT"
FORMAT_VERSION = 1
# The header's keys with their JSON types, the keys of each array entry, the
# dims a model is built from, and the array dtypes that save_checkpoint writes.
HEADER_TYPES = {"kind": str, "preset": str, "dims": dict, "vocab": list, "config": dict,
                "provenance": list, "arrays": list}
ENTRY_TYPES = {"name": str, "shape": list, "dtype": str, "nbytes": int}
MODEL_DIMS = ("vocab_size", "emb_dim", "hid_dim", "n_layers")
DTYPES = ("<f8",)


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
        lm = AwdLstmLM(d["vocab_size"], d["emb_dim"], d["hid_dim"], d["n_layers"])
        model = lm if self.kind == "lm" else TextClassifier(lm)
        names = {name for name, _ in model.named_parameters()}
        if names != self.params.keys():
            raise CheckpointError(
                f"arrays {sorted(self.params.keys() - names)} are not the model's, and "
                f"{sorted(names - self.params.keys())} are missing")
        model.load_state_dict(self.params)
        return model.eval()


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a file whose content replaces ``path`` only once it is whole.

    It is written beside ``path`` under a temporary name and then moved over
    it with ``os.replace``; on an error it is removed and ``path`` is left as
    it was. Checkpoints, metrics logs and degradation reports go through it."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _model_dims(model) -> tuple[str, dict, dict[str, np.ndarray]]:
    if isinstance(model, TextClassifier):
        enc = model.encoder
        dims = dict(vocab_size=enc.vocab_size, emb_dim=enc.emb_dim, hid_dim=enc.hid_dim,
                    n_layers=enc.n_layers, n_classes=N_CLASSES, head_hidden=HEAD_HIDDEN)
        return "classifier", dims, model.state_dict()
    if isinstance(model, AwdLstmLM):
        dims = dict(vocab_size=model.vocab_size, emb_dim=model.emb_dim,
                    hid_dim=model.hid_dim, n_layers=model.n_layers)
        return "lm", dims, model.state_dict()
    raise TypeError(f"cannot checkpoint {type(model).__name__}")


def save_checkpoint(path, model, vocab: Vocabulary, config: dict | None = None,
                    provenance: list[str] | None = None) -> None:
    kind, dims, params = _model_dims(model)
    preset = next((name for name, sizes in PRESETS.items()
                   if all(dims[k] == v for k, v in sizes.items())), "custom")
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
    with atomic_open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def _check_header(path, header) -> None:
    """Raise CheckpointError unless the header holds what save_checkpoint
    writes: every key with its JSON type, the model dims as positive
    integers, and array entries of a known dtype with a non-negative shape."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise CheckpointError(f"{path}: malformed header: {what}")

    # JSON decodes to exactly these types, so ``type(...) is`` also keeps
    # booleans out of the integers
    need(type(header) is dict, f"expected an object, got {type(header).__name__}")
    for key, typ in HEADER_TYPES.items():
        need(type(header.get(key)) is typ, f"{key!r} must be a JSON {typ.__name__}")
    need(header["kind"] in ("lm", "classifier"), f"unknown kind {header['kind']!r}")
    for key in MODEL_DIMS:
        value = header["dims"].get(key)
        need(type(value) is int and value > 0, f"dims.{key} must be a positive integer")
    need(all(type(t) is str for t in header["vocab"]), "vocabulary entries must be strings")
    for entry in header["arrays"]:
        need(type(entry) is dict and all(type(entry.get(k)) is t for k, t in ENTRY_TYPES.items()),
             f"array entry {entry!r} needs a name, shape, dtype and nbytes")
        need(entry["dtype"] in DTYPES,
             f"array {entry['name']!r} has dtype {entry['dtype']!r}, expected one of {DTYPES}")
        need(all(type(n) is int and n >= 0 for n in entry["shape"]),
             f"array {entry['name']!r} has shape {entry['shape']}")


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
    _check_header(path, header)
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
        if entry["name"] in params:
            raise CheckpointError(f"{path}: array {entry['name']!r} appears twice")
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
                      config=header["config"], provenance=header["provenance"])
