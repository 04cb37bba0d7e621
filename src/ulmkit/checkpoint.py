"""Single-file binary checkpoints.

Layout: magic, format version, a JSON header (kind, model dims, vocabulary,
config snapshot, phase provenance, array manifest), the raw little-endian
parameter arrays, and a trailing CRC32 of everything before it. Loading is
strict: bad magic, truncation, checksum mismatch, a header without the keys,
JSON types or array dtype that saving writes, a shape with an entry below 1,
a manifest entry whose byte count disagrees with its shape, a vocabulary
that repeats a token, does not start with the reserved tokens in order or
whose size disagrees with the dims, and array names or shapes other than
those the dims give all fail with a CheckpointError that names the file,
before any model is built. Header keys beyond these, which files written by
earlier versions carry, are ignored.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .model import AwdLstmLM, TextClassifier, param_shapes
from .textpipe import SPECIALS, Vocabulary

MAGIC = b"ULMKCKPT"
FORMAT_VERSION = 1
# The header's keys with their JSON types, the keys of each array entry, the
# dims a model is built from, and the array dtypes that save_checkpoint writes.
HEADER_TYPES = {"kind": str, "dims": dict, "vocab": list, "config": dict, "provenance": list,
                "arrays": list}
ENTRY_TYPES = {"name": str, "shape": list, "dtype": str, "nbytes": int}
MODEL_DIMS = ("vocab_size", "emb_dim", "hid_dim", "n_layers")
DTYPES = ("<f8",)


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    kind: str  # "lm" | "classifier"
    dims: dict
    vocab: Vocabulary
    params: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)
    provenance: list[str] = field(default_factory=list)

    def build_model(self):
        """Reconstruct the model this checkpoint describes, drawing no
        weights; ``load_checkpoint`` has checked that its arrays are the ones
        its dims give."""
        lm = AwdLstmLM(*(self.dims[key] for key in MODEL_DIMS), draw=False)
        model = lm if self.kind == "lm" else TextClassifier(lm, draw=False)
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


def _model_dims(model) -> tuple[str, dict]:
    """The kind and the dims of the LM (a classifier's encoder)."""
    if isinstance(model, TextClassifier):
        kind, lm = "classifier", model.encoder
    elif isinstance(model, AwdLstmLM):
        kind, lm = "lm", model
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    return kind, {key: getattr(lm, key) for key in MODEL_DIMS}


def save_checkpoint(path, model, vocab: Vocabulary, config: dict | None = None,
                    provenance: list[str] | None = None) -> None:
    """Write ``model`` to ``path`` through ``atomic_open``: the header, then each
    parameter's own array (copied only if not contiguous ``<f8``), CRC32 updated as it goes."""
    kind, dims = _model_dims(model)
    arrays = {name: np.ascontiguousarray(p.data, DTYPES[0]) for name, p in model.named_parameters()}
    header = json.dumps({
        "kind": kind, "dims": dims,
        "vocab": vocab.id_to_token, "config": config or {},
        "provenance": provenance or [],
        "arrays": [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str,
                    "nbytes": arr.nbytes} for name, arr in arrays.items()],
    }).encode("utf-8")
    crc = 0
    with atomic_open(path, "wb") as f:
        for piece in (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header,
                      *arrays.values()):
            f.write(piece)
            crc = zlib.crc32(piece, crc)
        f.write(struct.pack("<I", crc))


def _check_header(path, header) -> None:
    """Raise CheckpointError unless the header holds what save_checkpoint
    writes: every key with its JSON type, the model dims as positive
    integers, a vocabulary of distinct strings that starts with the reserved
    tokens, and array entries of a known dtype whose shape entries are
    positive integers."""

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
    vocab = header["vocab"]
    need(all(type(t) is str for t in vocab), "vocabulary entries must be strings")
    need(vocab[: len(SPECIALS)] == list(SPECIALS),
         f"the vocabulary must start with the reserved tokens {list(SPECIALS)}")
    need(len(set(vocab)) == len(vocab), "the vocabulary repeats a token")
    for entry in header["arrays"]:
        need(type(entry) is dict and all(type(entry.get(k)) is t for k, t in ENTRY_TYPES.items()),
             f"array entry {entry!r} needs a name, shape, dtype and nbytes")
        need(entry["dtype"] in DTYPES,
             f"array {entry['name']!r} has dtype {entry['dtype']!r}, expected one of {DTYPES}")
        need(all(type(n) is int and n >= 1 for n in entry["shape"]),
             f"array {entry['name']!r} has shape {entry['shape']}")


def _check_arrays_match_dims(path, kind: str, dims: dict, params: dict) -> None:
    """Raise CheckpointError unless ``params`` holds exactly the arrays, by
    name and shape, of the ``kind`` of model that ``dims`` give; a shape
    that disagrees is named first, in ``named_parameters()`` order. At most
    one more expected array than the file holds is drawn from
    ``param_shapes``, so a huge ``n_layers`` costs nothing."""
    dims = {key: dims[key] for key in MODEL_DIMS}
    expected = dict(itertools.islice(param_shapes(kind, **dims), len(params) + 1))
    for name, shape in expected.items():
        if name in params and params[name].shape != shape:
            raise CheckpointError(f"{path}: array {name!r} has shape {list(params[name].shape)}, "
                                  f"but {kind} dims {dims} give {list(shape)}")
    if expected.keys() != params.keys():
        raise CheckpointError(
            f"{path}: arrays {sorted(params.keys() - expected.keys())} are not the model's, "
            f"and {sorted(expected.keys() - params.keys())} are missing, for {kind} dims {dims}")


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise CheckpointError(f"{path}: unreadable header section: {exc}") from exc
    _check_header(path, header)
    off += header_len
    # Each array is a read-only view of the file's bytes; load_state_dict
    # copies it into a model's own arrays.
    params: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        n = entry["nbytes"]
        dtype = np.dtype(entry["dtype"])
        count = math.prod(entry["shape"])  # a Python int: never wraps
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
    _check_arrays_match_dims(path, header["kind"], header["dims"], params)
    return Checkpoint(kind=header["kind"], dims=header["dims"],
                      vocab=Vocabulary(header["vocab"]), params=params,
                      config=header["config"], provenance=header["provenance"])
