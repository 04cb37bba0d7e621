"""Checkpoint format and command-line behavior tests."""

import argparse
import copy
import csv
import dataclasses
import gc
import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak, vocab_of
from ulmkit import checkpoint as ck
from ulmkit import cli, evalbench, train
from ulmkit.cli import COMMANDS, OPTIONS, Resolver, build_parser, main, read_config_file
from ulmkit.model import AwdLstmLM, TextClassifier, build_lm
from ulmkit.tensor import Rng
from ulmkit.textpipe import SPECIALS, Vocabulary


def small_vocab(extra=("aso", "pusa", "ibon", "isda", "daga")):
    return Vocabulary(list(SPECIALS) + list(extra))


# -- checkpoint format --------------------------------------------------------


def test_lm_checkpoint_roundtrip_bit_exact(tmp_path):
    vocab = small_vocab()
    lm = build_lm(len(vocab.id_to_token), "tiny", dropout_multiplier=0.5, seed=3)
    path = tmp_path / "lm.ckpt"
    ck.save_checkpoint(path, lm, vocab, config={"seed": 3}, provenance=["pretrain"])
    loaded = ck.load_checkpoint(path)
    assert loaded.kind == "lm"
    assert loaded.vocab.id_to_token == vocab.id_to_token
    assert loaded.config == {"seed": 3} and loaded.provenance == ["pretrain"]
    model = loaded.build_model()
    for name, arr in lm.state_dict().items():
        assert np.array_equal(model.state_dict()[name], arr), name
    ids = np.random.default_rng(0).integers(0, len(vocab.id_to_token), size=(2, 5))
    a, _, _, _ = lm.eval().forward(ids)
    b, _, _, _ = model.forward(ids)
    assert np.array_equal(a.data, b.data)


def test_classifier_checkpoint_roundtrip(tmp_path):
    vocab = small_vocab()
    clf = TextClassifier(build_lm(len(vocab.id_to_token), "tiny", seed=1), seed=1)
    path = tmp_path / "clf.ckpt"
    ck.save_checkpoint(path, clf, vocab)
    loaded = ck.load_checkpoint(path)
    assert loaded.kind == "classifier"
    model = loaded.build_model()
    ids = np.array([[2, 7, 8, 9]])
    assert np.array_equal(clf.eval().forward(ids, np.array([4])).data,
                          model.forward(ids, np.array([4])).data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 40)
    with pytest.raises(ck.CheckpointError, match="magic"):
        ck.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    vocab = small_vocab()
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    path = tmp_path / "lm.ckpt"
    ck.save_checkpoint(path, lm, vocab)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(cut)
    tiny = tmp_path / "tiny.ckpt"
    tiny.write_bytes(blob[:10])
    with pytest.raises(ck.CheckpointError, match="truncated"):
        ck.load_checkpoint(tiny)


def test_checkpoint_rejects_bit_flip(tmp_path):
    vocab = small_vocab()
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    path = tmp_path / "lm.ckpt"
    ck.save_checkpoint(path, lm, vocab)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ck.CheckpointError, match="checksum"):
        ck.load_checkpoint(bad)


def test_checkpoint_rejects_unknown_version(tmp_path):
    vocab = small_vocab()
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    path = tmp_path / "lm.ckpt"
    ck.save_checkpoint(path, lm, vocab)
    blob = bytearray(path.read_bytes())[:-4]
    struct.pack_into("<I", blob, len(ck.MAGIC), 99)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    bad = tmp_path / "v99.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ck.CheckpointError, match="version 99"):
        ck.load_checkpoint(bad)


def read_header(path):
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(ck.MAGIC) + 4)
    off = len(ck.MAGIC) + 12
    return json.loads(blob[off : off + header_len])


def rewrite_header(src, dst, edit, replacement=None):
    """Copy checkpoint src to dst with edit() applied to its JSON header (or
    with the header replaced by ``replacement``, JSON or raw bytes), and a
    length field and trailing CRC32 that match, so only the header's own
    consistency can reject it."""
    blob = src.read_bytes()[:-4]
    off = len(ck.MAGIC) + 12
    version, header_len = struct.unpack_from("<IQ", blob, len(ck.MAGIC))
    header = json.loads(blob[off : off + header_len])
    edit(header)
    raw = (replacement if isinstance(replacement, bytes)
           else json.dumps(header if replacement is None else replacement).encode("utf-8"))
    body = ck.MAGIC + struct.pack("<IQ", version, len(raw)) + raw + blob[off + header_len :]
    dst.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_checkpoint_rejects_manifest_nbytes_that_disagree_with_shape(tmp_path):
    vocab = small_vocab()
    path = tmp_path / "lm.ckpt"
    ck.save_checkpoint(path, build_lm(len(vocab.id_to_token), "tiny", seed=0), vocab)

    def shift(header):  # the total still matches the payload
        header["arrays"][0]["nbytes"] += 8
        header["arrays"][1]["nbytes"] -= 8

    bad = tmp_path / "bad.ckpt"
    rewrite_header(path, bad, shift)
    with pytest.raises(ck.CheckpointError, match="declares"):
        ck.load_checkpoint(bad)


def test_checkpoint_rejects_vocabulary_longer_than_dims(tmp_path):
    vocab = small_vocab()
    path = tmp_path / "clf.ckpt"
    ck.save_checkpoint(path, TextClassifier(build_lm(len(vocab.id_to_token), "tiny", seed=0)),
                       vocab)
    bad = tmp_path / "bad.ckpt"
    rewrite_header(path, bad, lambda header: header["vocab"].append("extra"))
    with pytest.raises(ck.CheckpointError, match="vocab_size"):
        ck.load_checkpoint(bad)


def saved_lm(tmp_path):
    vocab = small_vocab()
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    path = tmp_path / "lm.ckpt"
    ck.save_checkpoint(path, lm, vocab)
    return lm, path


def set_dtype(header):
    header["arrays"][0]["dtype"] = "bogus"


def swap_pad(header):
    """Swap the reserved PAD token with a corpus token: PAD_ID reads that token."""
    vocab = header["vocab"]
    vocab[1], vocab[9] = vocab[9], vocab[1]


@pytest.mark.parametrize("edit, match", [
    (lambda header: header.pop("kind"), "'kind' must be a JSON str"),
    (lambda header: header.__setitem__("vocab", {"aso": 0}), "'vocab' must be a JSON list"),
    (lambda header: header.__setitem__("kind", "tagger"), "unknown kind"),
    (lambda header: header["dims"].pop("emb_dim"), "dims.emb_dim"),
    (lambda header: header["dims"].__setitem__("n_layers", 2.0), "dims.n_layers"),
    (lambda header: header["vocab"].__setitem__(0, 7), "vocabulary entries"),
    (swap_pad, "start with the reserved tokens"),
    (lambda header: header["vocab"].__setitem__(8, "aso"), "repeats a token"),
    (lambda header: header["arrays"][0].pop("nbytes"), "name, shape, dtype and nbytes"),
    (lambda header: header["arrays"][0].__setitem__("nbytes", True), "needs a name"),
    (lambda header: header["arrays"].__setitem__(0, []), "name, shape, dtype and nbytes"),
    (set_dtype, "dtype 'bogus'"),
    (lambda header: header["arrays"][0].__setitem__("dtype", "<i8"), "dtype '<i8'"),
    (lambda header: header["arrays"][1].__setitem__("shape", [-1]), "shape"),
    (lambda header: header["arrays"][1].__setitem__("name", "embedding"), "appears twice"),
    # each shape entry must be at least 1, and the element count never wraps
    (lambda header: header["arrays"][-1].update(shape=[0], nbytes=0), r"has shape \[0\]"),
    (lambda header: header["arrays"][1].__setitem__("shape", [0, 2**70]),
     r"has shape \[0, 1180591620717411303424\]"),
    (lambda header: header["arrays"][1].update(shape=[2**62, 4], nbytes=0),
     "declares 0 bytes, but shape"),
])
def test_checkpoint_rejects_malformed_headers(tmp_path, edit, match):
    _, path = saved_lm(tmp_path)
    bad = tmp_path / "bad.ckpt"
    rewrite_header(path, bad, edit)
    with pytest.raises(ck.CheckpointError, match=match):
        ck.load_checkpoint(bad)


def test_checkpoint_rejects_a_header_nested_too_deep_to_decode(tmp_path):
    _, path = saved_lm(tmp_path)
    bad = tmp_path / "deep.ckpt"
    rewrite_header(path, bad, lambda header: None, replacement=b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(ck.CheckpointError, match="unreadable header section"):
        ck.load_checkpoint(bad)


# -- fuzzed headers -------------------------------------------------------------

# copied per draw: an edit may write into a value that an earlier one placed
JSON_VALUES = st.sampled_from([None, True, 0, 7, -1, 1.5, "x", "<f8", [], [3], {}, {"a": 1}]
                              ).map(copy.deepcopy)
SHAPES = st.one_of(
    st.lists(st.one_of(st.integers(-2, 3), st.sampled_from([2**62, 2**63, 2**64 + 1, 2**70])),
             max_size=3),
    st.sampled_from([[2**62, 4], [0, 2**70], [2**32, 2**32]]))


def _entry(header, index):
    """The array entry at ``index`` (modulo their number), or None."""
    arrays = header.get("arrays")
    if type(arrays) is list and arrays and type(arrays[index % len(arrays)]) is dict:
        return arrays[index % len(arrays)]
    return None


# values of each entry key's own JSON type; nbytes edits shift it by 8s instead
ENTRY_VALUES = {"shape": SHAPES, "dtype": st.sampled_from(["<f4", "<i8", ">f8", "bogus"]),
                "name": st.sampled_from(["unknown", "head.W1", "decoder_bias", "embedding"])}


@st.composite
def header_edits(draw):
    """One edit of a checkpoint header, as a function that applies it in
    place; an edit whose target an earlier edit removed does nothing."""
    what = draw(st.sampled_from(["drop", "retype", "extra", "dims", "entry", "nbytes",
                                 "entry-key"]))
    value = draw(JSON_VALUES)
    if what in ("drop", "retype"):
        key = draw(st.sampled_from(list(ck.HEADER_TYPES)))
        return lambda h: h.pop(key, None) if what == "drop" else h.__setitem__(key, value)
    if what == "extra":  # ignored by design
        return lambda h: h.__setitem__("extra", value)
    if what == "dims":
        key, delta = draw(st.sampled_from(ck.MODEL_DIMS)), draw(st.integers(-2, 2))

        def edit(h):
            if type(h.get("dims")) is dict and type(h["dims"].get(key)) is int:
                h["dims"][key] += delta
        return edit
    index = draw(st.integers(0, 10))
    if what == "entry":  # the entry itself becomes another JSON value
        def edit(h):
            if _entry(h, index) is not None:
                h["arrays"][index % len(h["arrays"])] = value
    elif what == "nbytes":
        delta = 8 * draw(st.integers(-3, 3))

        def edit(h):
            entry = _entry(h, index)
            if entry is not None and type(entry.get("nbytes")) is int:
                entry["nbytes"] += delta
    else:  # drop a key, or set it to a value of its own type or of any
        key = draw(st.sampled_from([*ck.ENTRY_TYPES, "extra"]))
        drop = draw(st.booleans())
        if draw(st.booleans()):
            value = draw(ENTRY_VALUES.get(key, JSON_VALUES))

        def edit(h):
            entry = _entry(h, index)
            if entry is not None:
                entry.pop(key, None) if drop else entry.__setitem__(key, value)
    return edit


@pytest.fixture(scope="module")
def small_checkpoints(tmp_path_factory):
    """A small LM's checkpoint and a classifier's over it, by kind."""
    root = tmp_path_factory.mktemp("fuzz")
    vocab = small_vocab()
    lm = AwdLstmLM(len(vocab.id_to_token), emb_dim=4, hid_dim=6, n_layers=2, seed=0)
    paths = {"lm": root / "lm.ckpt", "classifier": root / "clf.ckpt"}
    ck.save_checkpoint(paths["lm"], lm, vocab)
    ck.save_checkpoint(paths["classifier"], TextClassifier(lm), vocab)
    return paths


@given(kind=st.sampled_from(["lm", "classifier"]),
       edits=st.lists(header_edits(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_a_fuzzed_header_loads_or_raises_checkpoint_error(small_checkpoints, kind, edits):
    src = small_checkpoints[kind]
    fuzzed = src.parent / "fuzzed.ckpt"
    rewrite_header(src, fuzzed, lambda header: [edit(header) for edit in edits])
    try:
        ck.load_checkpoint(fuzzed).build_model()
    except ck.CheckpointError:
        pass


@pytest.mark.parametrize("kind, dims, first", [
    ("classifier", {"hid_dim": 10**6}, "array 'lstm0.W_ih' has shape [64, 512]"),
    ("classifier", {"hid_dim": 20000, "n_layers": 2}, "array 'lstm0.W_ih' has shape"),
    ("lm", {"n_layers": 10**6}, "array 'lstm2.W_ih' has shape [128, 256]"),
    ("lm", {"emb_dim": 5}, "array 'embedding' has shape [12, 64]"),
], ids=["hid_dim-1e6", "hid_dim-20000", "n_layers-1e6", "emb_dim-5"])
def test_checkpoint_refuses_dims_that_disagree_with_its_arrays_before_building(
        tmp_path, monkeypatch, kind, dims, first):
    vocab = small_vocab()
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    path = tmp_path / "model.ckpt"
    ck.save_checkpoint(path, lm if kind == "lm" else TextClassifier(lm), vocab)
    bad = tmp_path / "bad.ckpt"
    rewrite_header(path, bad, lambda header: header["dims"].update(dims))
    # a model of these dims would take gigabytes, or millions of layers
    for name in ("AwdLstmLM", "TextClassifier"):
        monkeypatch.setattr(ck, name, lambda *args, **kw: pytest.fail("a model was built"))
    with pytest.raises(ck.CheckpointError) as refused:
        ck.load_checkpoint(bad).build_model()
    message = str(refused.value)
    assert message.startswith(f"{bad}: ") and first in message
    assert all(f"'{key}': {value}" in message for key, value in dims.items())


def test_checkpoint_rejects_a_header_that_is_not_an_object(tmp_path):
    _, path = saved_lm(tmp_path)
    bad = tmp_path / "list.ckpt"
    rewrite_header(path, bad, lambda header: None, replacement=[])
    with pytest.raises(ck.CheckpointError, match="expected an object, got list"):
        ck.load_checkpoint(bad)


def test_checkpoint_build_rejects_array_names_other_than_the_models(tmp_path):
    _, path = saved_lm(tmp_path)
    renamed = tmp_path / "renamed.ckpt"
    rewrite_header(path, renamed, lambda h: h["arrays"][-1].__setitem__("name", "decoder.b"))
    with pytest.raises(ck.CheckpointError, match=r"\['decoder.b'\] are not the model's"):
        ck.load_checkpoint(renamed).build_model()
    # an LM's arrays are not a classifier's
    relabeled = tmp_path / "relabeled.ckpt"
    rewrite_header(path, relabeled, lambda h: h.__setitem__("kind", "classifier"))
    with pytest.raises(ck.CheckpointError, match="head.W1"):
        ck.load_checkpoint(relabeled).build_model()


@pytest.mark.parametrize("kind, keys", [
    ("lm", {"dims.dropout_multiplier": 0.7}),
    ("lm", {"preset": "tiny"}),
    ("classifier", {"preset": "tiny", "dims.n_classes": 3, "dims.head_hidden": 7}),
], ids=["dropout_multiplier", "preset", "classifier_head_sizes"])
def test_checkpoint_with_keys_of_earlier_versions_still_loads(tmp_path, kind, keys):
    # files written by earlier versions carry these keys; each is ignored,
    # even where its value disagrees with the model
    vocab = small_vocab()
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    model = lm if kind == "lm" else TextClassifier(lm, seed=0)
    path = tmp_path / "new.ckpt"
    ck.save_checkpoint(path, model, vocab)

    def add_keys(header):
        for key, value in keys.items():
            *section, name = key.split(".")
            (header[section[0]] if section else header)[name] = value

    old = tmp_path / "old.ckpt"
    rewrite_header(path, old, add_keys)
    built = ck.load_checkpoint(old).build_model()
    state = built.state_dict()
    for name, arr in model.state_dict().items():
        assert np.array_equal(state[name], arr), name
    assert (built if kind == "lm" else built.encoder).dropout_multiplier == 1.0


def test_checkpoint_header_holds_no_derived_or_unread_keys(tmp_path):
    vocab = small_vocab()
    v = len(vocab.id_to_token)
    models = {"tiny": build_lm(v, "tiny", seed=0),
              "custom": AwdLstmLM(v, emb_dim=64, hid_dim=128, n_layers=2)}
    models["clf"] = TextClassifier(models["tiny"])
    for name, model in models.items():
        ck.save_checkpoint(tmp_path / name, model, vocab)
        header = read_header(tmp_path / name)
        assert list(header) == list(ck.HEADER_TYPES), name
        assert list(header["dims"]) == list(ck.MODEL_DIMS), name
    assert read_header(tmp_path / "custom")["dims"]["n_layers"] == 2


def test_failed_writes_leave_the_earlier_file_and_no_temporary(tmp_path, monkeypatch):
    _, path = saved_lm(tmp_path)
    before = path.read_bytes()
    log = tmp_path / "lm.ckpt.log"
    metrics = [train.EpochMetrics("pretrain", 1, 1, 1.0, None, None, 0.1)]
    train.write_metrics_log(log, metrics, {"seed": 0})
    log_before = log.read_text()

    class Broken:  # the log's second line fails after the first is written
        def as_line(self):
            raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        train.write_metrics_log(log, metrics + [Broken()], {"seed": 1})

    def crc_fails(data, crc=0):  # once the first piece is written
        raise OSError("no space left on device")

    # built before the patch: Rng.child hashes its tag with zlib.crc32
    replacement = build_lm(len(small_vocab().id_to_token), "tiny", seed=1)
    monkeypatch.setattr(ck.zlib, "crc32", crc_fails)
    with pytest.raises(OSError, match="no space"):
        ck.save_checkpoint(path, replacement, small_vocab())
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert log.read_text() == log_before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lm.ckpt", "lm.ckpt.log"]


def test_loaded_arrays_are_views_and_built_model_owns_its_parameters(tmp_path):
    vocab = small_vocab()
    clf = TextClassifier(build_lm(len(vocab.id_to_token), "tiny", seed=1), seed=1)
    path = tmp_path / "clf.ckpt"
    ck.save_checkpoint(path, clf, vocab)
    loaded = ck.load_checkpoint(path)
    # the loader keeps each array as a read-only view of the file's bytes ...
    assert all(arr.base is not None and not arr.flags.writeable
               for arr in loaded.params.values())
    # ... and building a model copies it into writable parameters of its own
    model = loaded.build_model()
    for name, p in model.named_parameters():
        assert p.data.flags.writeable, name
        assert not np.shares_memory(p.data, loaded.params[name]), name


def test_checkpoint_bytes_are_the_header_then_each_array_then_the_crc(tmp_path):
    vocab = small_vocab()
    clf = TextClassifier(build_lm(len(vocab.id_to_token), "tiny", seed=1), seed=1)
    path = tmp_path / "clf.ckpt"
    ck.save_checkpoint(path, clf, vocab, config={"seed": 1}, provenance=["pretrain"])
    state = clf.state_dict()
    manifest = [{"name": name, "shape": list(arr.shape), "dtype": "<f8", "nbytes": arr.nbytes}
                for name, arr in state.items()]
    header = json.dumps({
        "kind": "classifier",
        "dims": {"vocab_size": len(vocab.id_to_token), "emb_dim": 64, "hid_dim": 128,
                 "n_layers": 3},
        "vocab": vocab.id_to_token, "config": {"seed": 1}, "provenance": ["pretrain"],
        "arrays": manifest}).encode("utf-8")
    body = (ck.MAGIC + struct.pack("<IQ", ck.FORMAT_VERSION, len(header)) + header
            + b"".join(arr.tobytes() for arr in state.values()))
    assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))


def test_save_checkpoint_writes_the_models_arrays_without_copying_them(tmp_path):
    clf = TextClassifier(build_lm(10_008, "tiny", seed=1), seed=1)
    vocab = vocab_of(10_008)
    # the weights take 7.4 MB
    assert traced_peak(lambda: ck.save_checkpoint(tmp_path / "clf.ckpt", clf, vocab)) < 2e6


def test_load_and_build_hold_the_file_and_one_model(tmp_path):
    clf = TextClassifier(build_lm(10_008, "tiny", seed=1), seed=1)
    path = tmp_path / "clf.ckpt"
    ck.save_checkpoint(path, clf, vocab_of(10_008))
    model_bytes = sum(p.data.nbytes for _, p in clf.named_parameters())
    peak = traced_peak(lambda: ck.load_checkpoint(path).build_model())
    assert peak < path.stat().st_size + model_bytes * 1.25


def test_build_model_draws_no_weight_and_scores_as_the_saved_model(tmp_path, monkeypatch):
    clf = TextClassifier(build_lm(300, "tiny", seed=1), seed=1).eval()
    path = tmp_path / "clf.ckpt"
    ck.save_checkpoint(path, clf, vocab_of(300))
    monkeypatch.setattr(Rng, "uniform", lambda *a, **k: pytest.fail("a weight was drawn"))
    built = ck.load_checkpoint(path).build_model()
    ids = np.random.default_rng(0).integers(0, 300, size=(4, 9))
    lengths = np.array([9, 3, 7, 1])
    assert np.array_equal(built.forward(ids, lengths).data, clf.forward(ids, lengths).data)


def test_a_save_that_fails_between_arrays_leaves_the_earlier_file(tmp_path, monkeypatch):
    _, path = saved_lm(tmp_path)
    before = path.read_bytes()
    other = build_lm(len(small_vocab().id_to_token), "tiny", seed=1)
    crc32, pieces = ck.zlib.crc32, []

    def fails_at_the_third_piece(data, value=0):  # after the header and one array
        pieces.append(data)
        if len(pieces) == 3:
            raise OSError("no space left on device")
        return crc32(data, value)

    monkeypatch.setattr(ck.zlib, "crc32", fails_at_the_third_piece)
    with pytest.raises(OSError, match="no space"):
        ck.save_checkpoint(path, other, small_vocab())
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["lm.ckpt"]


# -- CLI ----------------------------------------------------------------------


def write_corpus(path, n=40):
    lines = [
        "ang bata ay kumain ng kanin at isda kahapon",
        "ang guro ay nagluto ng gulay at saging kanina",
        "si Ana ay bumili ng tinapay at kape sa umaga",
        "ang aso ay naghanap ng tubig sa bahay",
    ]
    path.write_text("\n".join(lines[i % 4] for i in range(n)) + "\n", encoding="utf-8")


def write_labeled(path, n=24):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["text", "label"])
        for i in range(n):
            if i % 2 == 0:
                w.writerow([f"mabait at masaya ang bata {i}", 0])
            else:
                w.writerow([f"bastos at salot ang kapitbahay {i}", 1])


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """One pretrained LM and classifier checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    labeled = root / "labeled.csv"
    write_corpus(corpus)
    write_labeled(labeled)
    lm_ckpt = root / "lm.ckpt"
    rc = main(["pretrain", "--corpus", str(corpus), "--out", str(lm_ckpt),
               "--epochs", "1", "--batch-size", "2", "--bptt", "10",
               "--dropout-multiplier", "0.1", "--seed", "0"])
    assert rc == 0
    clf_ckpt = root / "clf.ckpt"
    rc = main(["finetune-clf", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
               "--out", str(clf_ckpt), "--epochs", "1", "--batch-size", "8",
               "--dropout-multiplier", "0.1", "--seed", "0"])
    assert rc == 0
    return root, corpus, labeled, lm_ckpt, clf_ckpt


def test_cli_pretrain_checkpoint_does_not_depend_on_the_blas_thread_setting(
        corpus_path, tmp_path):
    # each run in its own process, so that OpenBLAS reads the setting at start
    src = pathlib.Path(ck.__file__).resolve().parent.parent
    ckpts = []
    for threads in ("1", "2"):
        out = tmp_path / f"lm-{threads}.ckpt"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ulmkit.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "pretrain", "--corpus", str(corpus_path),
             "--out", str(out), "--epochs", "2", "--batch-size", "16", "--bptt", "70",
             "--seed", "0"], env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        ckpts.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]


def test_cli_checkpoints_do_not_depend_on_the_hash_seed(corpus_path, labeled_path, tmp_path):
    # a checkpoint records the resolved options in the order they are read;
    # each run in its own process, which fixes its string-hash seed at start,
    # and directory, so that the paths it records are the same
    src = pathlib.Path(ck.__file__).resolve().parent.parent
    ckpts = []
    for hash_seed in ("1", "2"):
        run = tmp_path / hash_seed
        run.mkdir()
        (run / "pretrain.cfg").write_text(
            f"corpus={corpus_path}\nseed=0\nepochs=1\nbatch_size=8\nbptt_len=35\n"
            f"dropout_multiplier=0.5\nweight_decay=0.01\nlr=0.01\npreset=tiny\n"
            "out=lm.ckpt\n", encoding="utf-8")
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        for argv in (["pretrain", "--config", "pretrain.cfg"],
                     ["finetune-lm", "--checkpoint", "lm.ckpt", "--data", str(labeled_path),
                      "--out", "ft.ckpt", "--epochs", "1", "--batch-size", "8", "--bptt", "35",
                      "--seed", "3"]):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from ulmkit.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv],
                cwd=run, env=env, capture_output=True, text=True, check=False)
            assert proc.returncode == 0, proc.stderr
        ckpts.append([(run / name).read_bytes() for name in ("lm.ckpt", "ft.ckpt")])
    assert ckpts[0] == ckpts[1]


# A classifier fine-tune and a 2-repeat degrade from the LM checkpoint and
# labeled CSV in argv, run twice in one process: the first in directory a,
# the second in b, each from inside it, so that the paths they record agree.
REPRODUCE = """
import os, sys
from ulmkit.cli import main
lm, labeled = sys.argv[1:]
for run in ("a", "b"):
    os.mkdir(run)
    os.chdir(run)
    for argv in (["finetune-clf", "--checkpoint", lm, "--data", labeled, "--out", "clf.ckpt",
                  "--seed", "5", "--epochs", "1", "--batch-size", "8"],
                 ["degrade", "--checkpoint", lm, "--data", labeled, "--out", "degradation.csv",
                  "--fractions", "1.0,0.5", "--repeats", "2", "--batch-size", "8",
                  "--lm-epochs", "1", "--clf-epochs", "1", "--seed", "0"]):
        if main(argv):
            sys.exit(f"{argv[0]} failed")
    os.chdir(os.pardir)
"""


def test_seeded_tiny_fine_tunes_reproduce_in_one_process_and_across_hash_seeds(
        corpus_path, labeled_path, tmp_path):
    # the tiny preset's training steps run in float32
    lm = tmp_path / "lm.ckpt"
    assert main(["pretrain", "--corpus", str(corpus_path), "--out", str(lm), "--epochs", "1",
                 "--batch-size", "8", "--bptt", "35", "--seed", "0"]) == 0
    src = pathlib.Path(ck.__file__).resolve().parent.parent
    outputs = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", REPRODUCE, str(lm), str(labeled_path)],
                              cwd=cwd, env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs += [[(cwd / run / name).read_bytes() for name in ("clf.ckpt", "degradation.csv")]
                    for run in ("a", "b")]
    assert all(out == outputs[0] for out in outputs[1:])


def test_cli_pretrain_writes_artifacts(cli_artifacts):
    root, _, _, lm_ckpt, _ = cli_artifacts
    assert lm_ckpt.exists()
    log_lines = (root / "lm.ckpt.log").read_text().splitlines()
    assert any(line.startswith("# seed=0") for line in log_lines)
    assert train.METRICS_HEADER in log_lines
    loaded = ck.load_checkpoint(lm_ckpt)
    assert loaded.config.get("seed") == 0
    assert loaded.provenance == ["pretrain"]


def test_cli_finetune_lm(cli_artifacts, tmp_path):
    _, corpus, _, lm_ckpt, _ = cli_artifacts
    out = tmp_path / "ft.ckpt"
    rc = main(["finetune-lm", "--checkpoint", str(lm_ckpt), "--data", str(corpus),
               "--out", str(out), "--epochs", "1", "--batch-size", "2", "--bptt", "10",
               "--lr", "4e-4", "--stage1-lr", "4e-3", "--seed", "0"])
    assert rc == 0
    assert ck.load_checkpoint(out).provenance == ["pretrain", "finetune-lm"]


def test_cli_eval_output_format(cli_artifacts, capsys):
    _, _, labeled, _, clf_ckpt = cli_artifacts
    rc = main(["eval", "--checkpoint", str(clf_ckpt), "--data", str(labeled)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("accuracy=") and ", loss=" in out and out.endswith("n=24")


def test_cli_predict_output_format(cli_artifacts, capsys):
    _, _, _, _, clf_ckpt = cli_artifacts
    rc = main(["predict", "--checkpoint", str(clf_ckpt), "--text", "salot ang kapitbahay"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("label=") and "probability=" in out
    label = int(out.split()[0].split("=")[1])
    assert label in (0, 1)


def test_cli_top_losses(cli_artifacts, capsys):
    _, _, labeled, _, clf_ckpt = cli_artifacts
    rc = main(["top-losses", "--checkpoint", str(clf_ckpt), "--data", str(labeled),
               "-k", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("loss=") for line in lines)


def test_cli_top_losses_on_a_dataset_with_no_rows_exits_1_naming_the_corpus(
        cli_artifacts, tmp_path, capsys):
    _, _, _, _, clf_ckpt = cli_artifacts
    empty = tmp_path / "empty.csv"
    empty.write_text("text,label\n", encoding="utf-8")
    rc = main(["top-losses", "--checkpoint", str(clf_ckpt), "--data", str(empty), "-k", "3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: top_losses: empty corpus\n"


@pytest.mark.parametrize("command", ["pretrain", "finetune-lm"])
def test_cli_lm_training_on_empty_input_exits_1_corpus_too_small(
        cli_artifacts, tmp_path, capsys, command):
    _, _, _, lm_ckpt, _ = cli_artifacts
    if command == "pretrain":
        data = tmp_path / "empty.txt"
        data.write_text("", encoding="utf-8")
        inputs = ["--corpus", str(data)]
    else:
        data = tmp_path / "empty.csv"
        data.write_text("text,label\n", encoding="utf-8")
        inputs = ["--checkpoint", str(lm_ckpt), "--data", str(data)]
    out = tmp_path / "out.ckpt"
    rc = main([command, *inputs, "--out", str(out), "--epochs", "1", "--batch-size", "4"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: corpus too small: 0 tokens cannot fill batch_size 4\n")
    assert not out.exists()


def test_cli_negative_seed_is_taken_modulo_2_to_the_64(cli_artifacts, tmp_path):
    _, corpus, labeled, _, _ = cli_artifacts
    states = []
    for seed in ("-1", str(2**64 - 1)):
        lm = tmp_path / f"lm{seed}.ckpt"
        assert main(["pretrain", "--corpus", str(corpus), "--out", str(lm), "--epochs", "1",
                     "--batch-size", "2", "--bptt", "10", "--seed", seed]) == 0
        clf = tmp_path / f"clf{seed}.ckpt"
        assert main(["finetune-clf", "--checkpoint", str(lm), "--data", str(labeled),
                     "--out", str(clf), "--epochs", "1", "--batch-size", "8",
                     "--seed", seed]) == 0
        states.append(ck.load_checkpoint(clf).build_model().state_dict())
    assert states[0].keys() == states[1].keys()
    assert all(np.array_equal(states[0][k], states[1][k]) for k in states[0])


def test_cli_predict_scores_a_long_text_like_top_losses(tmp_path, capsys):
    vocab = small_vocab()
    clf = TextClassifier(build_lm(len(vocab.id_to_token), "tiny", seed=1), seed=1)
    clf.encoder.embedding.data *= 10.0  # wider weights: outputs depend on the input
    clf.W2.data *= 20.0
    path = tmp_path / "clf.ckpt"
    ck.save_checkpoint(path, clf, vocab)
    # 601 tokens with xxbos; the last 200, past train.MAX_LEN, differ from the rest
    text = " ".join(["aso", "pusa"] * 200 + ["ibon", "isda"] * 100)
    data = tmp_path / "long.csv"
    with open(data, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([["text", "label"], [text, 0], ["daga", 1]])
    assert main(["top-losses", "--checkpoint", str(path), "--data", str(data), "-k", "2"]) == 0
    ranked = [line for line in capsys.readouterr().out.splitlines() if "aso" in line]
    assert main(["predict", "--checkpoint", str(path), "--text", text]) == 0
    label, probability = capsys.readouterr().out.split()
    assert f"predicted={label.split('=')[1]} p={probability.split('=')[1]}" in ranked[0]


def test_cli_degrade_report(cli_artifacts, tmp_path, capsys):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    out = tmp_path / "report.csv"
    rc = main(["degrade", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
               "--out", str(out), "--fractions", "1.0,0.5,0.25", "--repeats", "1",
               "--lm-epochs", "1", "--lm-lr", "4e-4", "--stage1-lr", "4e-3",
               "--clf-epochs", "1", "--batch-size", "4", "--seed", "0"])
    assert rc == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# test_checksum=") for l in comments)
    assert any(l.startswith("# seed=0") for l in comments)
    assert rows[0] == "fraction,n_train,repeats,mean_accuracy,mean_loss,degradation_pct"
    assert len(rows) == 4  # header + one row per fraction
    assert rows[1].startswith("1.0,") and rows[1].endswith(",0.0000")


def test_cli_degrade_reports_nan_degradation_when_the_full_data_scores_zero(
        cli_artifacts, tmp_path, monkeypatch, capsys):
    # a full-data mean accuracy of 0 leaves no drop to measure, as when every
    # run predicts the one label a test set lacks: the report is still
    # written, with each degradation NaN
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    real, results = evalbench.evaluate, []

    def evaluate(clf, corpus, batch_size):
        results.append(real(clf, corpus, batch_size))
        return dataclasses.replace(results[-1], accuracy=0.0) if len(results) == 1 else results[-1]

    monkeypatch.setattr(evalbench, "evaluate", evaluate)
    out = tmp_path / "report.csv"
    rc = main(["degrade", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
               "--out", str(out), "--fractions", "1.0,0.5", "--repeats", "1",
               "--lm-epochs", "1", "--clf-epochs", "1", "--batch-size", "4", "--seed", "0"])
    assert rc == 0 and len(results) == 2
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert [(r[0], r[3], r[5]) for r in rows] == [
        ("1.0", "0.000000", "nan"), ("0.5", f"{results[1].accuracy:.6f}", "nan")]
    assert capsys.readouterr().out.count(" nan\n") == 2


def test_cli_degrade_report_independent_of_out_path(cli_artifacts, tmp_path):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    reports = [tmp_path / "a.csv", tmp_path / "sub-b.csv"]
    for out in reports:
        rc = main(["degrade", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
                   "--out", str(out), "--fractions", "1.0,0.5,0.25", "--repeats", "1",
                   "--lm-epochs", "1", "--lm-lr", "4e-4", "--stage1-lr", "4e-3",
                   "--clf-epochs", "1", "--batch-size", "4", "--seed", "0"])
        assert rc == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert "None" not in reports[0].read_text()


def test_cli_missing_path_exits_2(capsys):
    rc = main(["eval", "--checkpoint", "/nonexistent/model.ckpt", "--data", "x.csv"])
    assert rc == 2
    assert "/nonexistent/model.ckpt" in capsys.readouterr().err


def test_cli_corrupt_checkpoint_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"ULMKCKPT" + b"\0" * 64)
    rc = main(["eval", "--checkpoint", str(bad), "--data", "x.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit, replacement", [(lambda header: None, []), (set_dtype, None)])
def test_cli_malformed_checkpoint_header_exits_1(tmp_path, capsys, edit, replacement):
    _, path = saved_lm(tmp_path)
    bad = tmp_path / "bad.ckpt"
    rewrite_header(path, bad, edit, replacement)
    data = tmp_path / "data.csv"
    write_labeled(data)
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed header" in err


@pytest.mark.parametrize("edit", [
    lambda header: header["arrays"][1].__setitem__("shape", [0, 2**70]),
    lambda header: header["arrays"][1].update(shape=[2**62, 4], nbytes=0),
    lambda header: header["dims"].__setitem__("emb_dim", 5),
], ids=["zero-and-2**70", "2**62-by-4", "emb_dim-5"])
def test_cli_predict_refuses_a_crafted_header_with_an_error_line(cli_artifacts, tmp_path,
                                                                 capsys, edit):
    bad = tmp_path / "bad.ckpt"
    rewrite_header(cli_artifacts[4], bad, edit)
    assert main(["predict", "--checkpoint", str(bad), "--text", "isang aso"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ") and captured.out == ""


@pytest.mark.parametrize("argv, option", [
    (["pretrain", "--dropout-multiplier", "4"], "dropout_multiplier"),
    (["finetune-lm", "--stage1-lr", "-1"], "stage1_lr"),
    (["finetune-clf", "--weight-decay", "-5"], "weight_decay"),
    (["degrade", "--lm-lr", "-1"], "lm_lr"),
    (["degrade", "--lm-epochs", "0"], "lm_epochs"),
])
def test_cli_out_of_range_phase_settings_exit_1(cli_artifacts, tmp_path, capsys, argv, option):
    # ``option`` is the config key; the error names the flag that supplied
    # the value, also where it sets a field of another name (lm_lr sets lr)
    _, corpus, labeled, lm_ckpt, _ = cli_artifacts
    epochs = ["--epochs", "1"]
    inputs = {"pretrain": ["--corpus", str(corpus), *epochs],
              "finetune-lm": ["--checkpoint", str(lm_ckpt), "--data", str(corpus), *epochs],
              "finetune-clf": ["--checkpoint", str(lm_ckpt), "--data", str(labeled), *epochs],
              "degrade": ["--checkpoint", str(lm_ckpt), "--data", str(labeled)]}[argv[0]]
    out = tmp_path / "out.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + inputs + ["--out", str(out), "--batch-size", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {OPTIONS[option].flag} ") and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["pretrain", "--valid-fraction", "0"], "--valid-fraction 0.0"),
    (["pretrain", "--valid-fraction", "nan"], "--valid-fraction nan"),
    (["pretrain", "--max-vocab", "5"], "--max-vocab 5"),
    (["degrade", "--repeats", "0"], "--repeats 0"),
    (["top-losses", "-k", "0"], "-k 0"),
    (["degrade", "--lm-epochs", "0"], "--lm-epochs 0"),
    (["pretrain", "--lr", "-1"], "--lr -1.0"),
], ids=["valid-fraction", "valid-fraction-nan", "max-vocab", "repeats", "k", "lm-epochs", "lr"])
def test_cli_values_refused_by_the_called_function_name_their_flag(
        cli_artifacts, tmp_path, capsys, argv, flag):
    _, corpus, labeled, lm_ckpt, clf_ckpt = cli_artifacts
    out = ["--out", str(tmp_path / "out")]
    inputs = {"pretrain": ["--corpus", str(corpus), "--epochs", "1", *out],
              "degrade": ["--checkpoint", str(lm_ckpt), "--data", str(labeled), *out],
              "top-losses": ["--checkpoint", str(clf_ckpt), "--data", str(labeled)]}[argv[0]]
    rc = main(argv + inputs)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ") and "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, owner, entry", [
    ("finetune-lm", train, "finetune_lm"),
    ("finetune-clf", train, "finetune_classifier"),
    ("degrade", evalbench, "finetune_lm"),
])
def test_cli_drops_the_loaded_checkpoint_before_training(
        cli_artifacts, tmp_path, monkeypatch, command, owner, entry):
    # a checkpoint's arrays are views of the whole file's bytes
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    loaded, alive_at_entry = [], []
    load, enter = cli.load_checkpoint, getattr(owner, entry)

    def load_checkpoint(path):
        ckpt = load(path)
        loaded.append(weakref.ref(ckpt))
        return ckpt

    def entered(*args, **kwargs):
        gc.collect()
        alive_at_entry.append(loaded[0]() is not None)
        return enter(*args, **kwargs)

    monkeypatch.setattr(cli, "load_checkpoint", load_checkpoint)
    monkeypatch.setattr(owner, entry, entered)
    rc = main([command, "--checkpoint", str(lm_ckpt), "--data", str(labeled),
               "--out", str(tmp_path / "out"), "--batch-size", "4",
               *(["--fractions", "1.0", "--repeats", "1", "--lm-epochs", "1", "--clf-epochs",
                  "1"] if command == "degrade" else ["--epochs", "1"])])
    assert rc == 0
    assert alive_at_entry == [False]


def test_cli_non_finite_loss_exits_1_naming_phase_stage_and_step(cli_artifacts, tmp_path,
                                                                capsys):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    ckpt = ck.load_checkpoint(lm_ckpt)
    lm = ckpt.build_model()
    lm.layers[0].W_hh.data[0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    ck.save_checkpoint(bad, lm, ckpt.vocab)
    inputs = ["--checkpoint", str(bad), "--data", str(labeled), "--batch-size", "4"]
    for argv, message in [
            (["finetune-lm", "--epochs", "1"], "lm-finetune stage 1 step 1: loss is nan"),
            (["finetune-clf", "--epochs", "1"], "clf-finetune stage 1 step 1: loss is nan"),
            (["degrade", "--fractions", "1.0", "--repeats", "1"],
             "run failed at fraction=1.0 repeat=0: lm-finetune stage 1 step 1: loss is nan")]:
        assert main(argv + inputs + ["--out", str(tmp_path / "out")]) == 1
        # degrade also prints its partial report
        assert capsys.readouterr().err.startswith(f"error: {message}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["nan.ckpt"]


def test_cli_kind_mismatch_exits_2(cli_artifacts, capsys):
    _, _, labeled, lm_ckpt, clf_ckpt = cli_artifacts
    rc = main(["eval", "--checkpoint", str(lm_ckpt), "--data", str(labeled)])
    assert rc == 2
    assert "expected a classifier" in capsys.readouterr().err
    rc = main(["finetune-lm", "--checkpoint", str(clf_ckpt), "--data", str(labeled)])
    assert rc == 2


@pytest.mark.parametrize("fractions, code, message", [
    ("1.0,0", 1, "--fractions 1.0,0: fraction must be in (0, 1], got 0.0"),
    ("nan,1.0", 1, "--fractions nan,1.0: fraction must be in (0, 1], got nan"),
    ("1.0,0.01", 1, "--fractions 1.0,0.01: fraction must keep at least 2 of 19 examples, "
                    "got 0.01"),
    ("1.0,x", 2, "--fractions takes comma-separated numbers, got '1.0,x'"),
])
def test_cli_degrade_checks_every_fraction_before_the_first_run(
        cli_artifacts, tmp_path, capsys, monkeypatch, fractions, code, message):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    runs = []
    monkeypatch.setattr(evalbench, "finetune_lm", lambda *args: runs.append(args))
    rc = main(["degrade", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
               "--out", str(tmp_path / "report.csv"), "--fractions", fractions,
               "--repeats", "3"])
    assert rc == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert runs == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows, test_rows, message", [
    ([], None, "run_degradation_suite: empty training set"),
    (None, [], "run_degradation_suite: empty test set"),
    ([(f"mabait ang bata {i}", 0) for i in range(12)], None,
     "classifier training needs both labels present in the corpus"),
], ids=["empty-data", "empty-test", "one-label"])
def test_cli_degrade_refuses_data_it_cannot_run_on_before_the_first_run(
        cli_artifacts, tmp_path, capsys, monkeypatch, rows, test_rows, message):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    inputs = tmp_path / "inputs"
    inputs.mkdir()

    def csv_of(name, records):
        if records is None:
            return str(labeled)
        path = inputs / name
        with open(path, "w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows([["text", "label"], *records])
        return str(path)

    runs = []
    monkeypatch.setattr(evalbench, "finetune_lm", lambda *args: runs.append(args))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["degrade", "--checkpoint", str(lm_ckpt), "--data", csv_of("data.csv", rows),
            "--out", str(out / "report.csv"), "--repeats", "2"]
    if test_rows is not None:
        argv += ["--test", csv_of("test.csv", test_rows)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert runs == [] and list(out.iterdir()) == []


@pytest.mark.parametrize("argv, code, message", [
    (["degrade", "--lm-epochs", "0"], 1, "--lm-epochs 0: epochs must be >= 1, got 0"),
    (["degrade", "--fractions", "abc"], 2,
     "--fractions takes comma-separated numbers, got 'abc'"),
    (["degrade", "--repeats", "0"], 1, "--repeats 0: repeats must be >= 1, got 0"),
    (["degrade", "--fractions", "1.0,2"], 1,
     "--fractions 1.0,2: fraction must be in (0, 1], got 2.0"),
    (["finetune-lm", "--lr", "-1"], 1, "--lr -1.0: lr must be positive, got -1.0"),
    (["finetune-clf", "--epochs", "0"], 1, "--epochs 0: epochs must be >= 1, got 0"),
], ids=["degrade-lm-epochs", "degrade-fractions", "degrade-repeats", "degrade-fraction-range",
        "finetune-lm-lr", "finetune-clf-epochs"])
def test_cli_refuses_settings_before_loading_the_checkpoint(
        cli_artifacts, tmp_path, capsys, monkeypatch, argv, code, message):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    loads, reads = [], []
    load, read = cli.load_checkpoint, cli.load_labeled_csv
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or load(path))
    monkeypatch.setattr(cli, "load_labeled_csv", lambda path: reads.append(path) or read(path))
    rc = main(argv + ["--checkpoint", str(lm_ckpt), "--data", str(labeled),
                      "--out", str(tmp_path / "out")])
    assert rc == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert loads == [] and reads == [] and list(tmp_path.iterdir()) == []


def test_cli_finetune_clf_refuses_an_empty_validation_file(cli_artifacts, tmp_path, capsys,
                                                           monkeypatch):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    valid = tmp_path / "valid.csv"
    valid.write_text("text,label\n", encoding="utf-8")
    steps = []
    monkeypatch.setattr(train, "optimizer_step", lambda *args: steps.append(args))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["finetune-clf", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
               "--valid", str(valid), "--out", str(out / "clf.ckpt"), "--epochs", "1",
               "--batch-size", "8"])
    assert rc == 1
    assert capsys.readouterr().err == "error: finetune_classifier: empty validation set\n"
    assert steps == [] and list(out.iterdir()) == []


@pytest.mark.parametrize("command, tokens, batch", [("finetune-lm", 46, 40), ("pretrain", 31, 64)])
def test_cli_validation_split_too_small_for_the_batch_is_named(
        cli_artifacts, corpus_path, labeled_path, tmp_path, capsys, monkeypatch, command,
        tokens, batch):
    # on the fixtures: the 10% split of the labeled texts, and a 1% split of
    # the corpus; each training split fills its batch
    lm_ckpt = cli_artifacts[3]
    inputs = {"finetune-lm": ["--checkpoint", str(lm_ckpt), "--data", str(labeled_path)],
              "pretrain": ["--corpus", str(corpus_path), "--valid-fraction", "0.01"]}[command]
    steps = []
    monkeypatch.setattr(train, "optimizer_step", lambda *args: steps.append(args))
    rc = main([command, *inputs, "--batch-size", str(batch), "--epochs", "1",
               "--out", str(tmp_path / "out.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: validation split: corpus too small: {tokens} "
                                       f"tokens cannot fill batch_size {batch}\n")
    assert steps == [] and list(tmp_path.iterdir()) == []


def test_cli_preset_is_an_option_of_pretrain_only(cli_artifacts, tmp_path, capsys):
    # a loaded model's architecture is read off its checkpoint
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    inputs = ["--checkpoint", str(lm_ckpt), "--data", str(labeled)]
    for command in ("finetune-lm", "finetune-clf", "degrade"):
        assert main([command, *inputs, "--preset", "tiny"]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments: --preset tiny") == 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=tiny\n", encoding="utf-8")
    assert main(["finetune-lm", "--config", str(cfg), *inputs]) == 2
    assert "unknown key 'preset'" in capsys.readouterr().err


def test_cli_bad_subcommand_exits_2():
    assert main(["no-such-command"]) == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nseed=7\nepochs=3\n", encoding="utf-8")
    values = read_config_file(str(cfg), ("seed", "epochs"))
    assert values == {"seed": "7", "epochs": "3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line\n", encoding="utf-8")
    from ulmkit.cli import UsageError

    with pytest.raises(UsageError, match="key=value"):
        read_config_file(str(bad), ("seed", "epochs"))


def test_cli_config_file_seeds_flags(cli_artifacts, tmp_path, capsys):
    _, corpus, _, _, _ = cli_artifacts
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "lm2.ckpt"
    cfg.write_text(f"epochs=1\nbatch_size=2\nbptt_len=10\nseed=4\n"
                   f"dropout_multiplier=0.1\ncorpus={corpus}\nout={out}\n",
                   encoding="utf-8")
    rc = main(["pretrain", "--config", str(cfg)])
    assert rc == 0
    loaded = ck.load_checkpoint(out)
    assert loaded.config.get("seed") == 4
    # explicit flag beats config value
    out2 = tmp_path / "lm3.ckpt"
    rc = main(["pretrain", "--config", str(cfg), "--seed", "9", "--out", str(out2)])
    assert rc == 0
    assert ck.load_checkpoint(out2).config.get("seed") == 9


def test_cli_config_file_may_start_with_a_byte_order_mark(cli_artifacts, tmp_path):
    # read as the corpus and CSV loaders read their files
    _, corpus, _, _, _ = cli_artifacts
    cfg = tmp_path / "bom.cfg"
    out = tmp_path / "lm.ckpt"
    cfg.write_text(f"seed=3\nepochs=1\nbatch_size=2\nbptt_len=10\ncorpus={corpus}\n",
                   encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbfseed=3")
    assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
    assert ck.load_checkpoint(out).config.get("seed") == 3


@pytest.mark.parametrize("command, line, message", [
    ("pretrain", "epochs=abc", "epochs: invalid int value 'abc'"),
    ("pretrain", "preset=huge", "preset: 'huge' is not one of full, tiny"),
    ("degrade", "lm_epochs=abc", "lm_epochs: invalid int value 'abc'"),
])
def test_cli_config_file_value_of_the_wrong_type_exits_2_naming_file_and_key(
        cli_artifacts, tmp_path, capsys, monkeypatch, command, line, message):
    # checked as the config is read, before a checkpoint loads or any work starts
    _, corpus, labeled, lm_ckpt, _ = cli_artifacts
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: pytest.fail("checkpoint loaded"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    inputs = {"pretrain": ["--corpus", str(corpus)],
              "degrade": ["--checkpoint", str(lm_ckpt), "--data", str(labeled)]}[command]
    assert main([command, "--config", str(cfg), *inputs, "--out", str(out / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: {message}\n" and captured.out == ""
    assert list(out.iterdir()) == []


def test_cli_config_file_rejects_unknown_keys(cli_artifacts, tmp_path, capsys):
    _, _, labeled, _, clf_ckpt = cli_artifacts
    typo = tmp_path / "typo.cfg"
    typo.write_text("# eval settings\nepoch=50\nseeed=3\n", encoding="utf-8")
    rc = main(["eval", "--config", str(typo), "--checkpoint", str(clf_ckpt),
               "--data", str(labeled)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(typo) in err and "line 2" in err and "'epoch'" in err
    # a key another subcommand takes is still not an option of this one
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(f"checkpoint={clf_ckpt}\nseed=1\n", encoding="utf-8")
    rc = main(["predict", "--config", str(seeded), "--text", "salot ang kapitbahay"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(seeded) in err and "line 2" in err and "'seed'" in err


def declared_options() -> dict[str, set[str]]:
    """Each subcommand's options as parsed, by config key, less ``--config``."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions if a.dest not in ("help", "config")}
            for name, p in sub.choices.items()}


def test_cli_each_subcommand_declares_exactly_the_options_it_reads(
        cli_artifacts, tmp_path, monkeypatch):
    _, corpus, labeled, lm_ckpt, clf_ckpt = cli_artifacts
    read: dict[str, set[str]] = {}
    real_get = Resolver.get

    def spy(self, key, *args, **kwargs):
        read.setdefault(self.args.command, set()).add(key)
        return real_get(self, key, *args, **kwargs)

    monkeypatch.setattr(Resolver, "get", spy)
    runs = [
        ["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "lm.ckpt"),
         "--epochs", "1", "--batch-size", "2", "--bptt", "10", "--seed", "0"],
        ["finetune-lm", "--checkpoint", str(lm_ckpt), "--data", str(corpus),
         "--out", str(tmp_path / "ft.ckpt"), "--epochs", "1", "--batch-size", "2",
         "--bptt", "10"],
        ["finetune-clf", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
         "--out", str(tmp_path / "clf.ckpt"), "--epochs", "1", "--batch-size", "8"],
        ["eval", "--checkpoint", str(clf_ckpt), "--data", str(labeled)],
        ["predict", "--checkpoint", str(clf_ckpt), "--text", "salot ang kapitbahay"],
        ["degrade", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
         "--out", str(tmp_path / "report.csv"), "--fractions", "1.0", "--repeats", "1",
         "--lm-epochs", "1", "--clf-epochs", "1", "--batch-size", "4"],
        ["top-losses", "--checkpoint", str(clf_ckpt), "--data", str(labeled), "-k", "3"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    assert read == declared_options()


def test_cli_rejects_options_a_subcommand_does_not_read(cli_artifacts, tmp_path, capsys):
    _, _, labeled, lm_ckpt, clf_ckpt = cli_artifacts
    assert main(["predict", "--checkpoint", str(clf_ckpt), "--text", "salot ang kapitbahay",
                 "--epochs", "1"]) == 2
    assert main(["degrade", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
                 "--out", str(tmp_path / "report.csv"), "--fractions", "1.0",
                 "--repeats", "1", "--lm-epochs", "1", "--clf-epochs", "1",
                 "--batch-size", "4", "--dropout-multiplier", "0.1"]) == 2
    assert main(["finetune-clf", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
                 "--out", str(tmp_path / "clf.ckpt"), "--epochs", "1", "--batch-size", "8",
                 "--bptt", "5"]) == 2
    # a prefix of a flag the subcommand does read is not that flag
    assert main(["pretrain", "--corpus", "corpus.txt", "--valid", "0.2"]) == 2
    assert main(["degrade", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
                 "--clf", "3"]) == 2
    assert main(["finetune-lm", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
                 "--stage", "0.5"]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments") == 6


def test_readme_cli_table_matches_the_parser():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    rows = re.findall(r"^\| `([\w-]+)` \| `([^`]*)` \|$", readme, flags=re.M)
    assert sorted(name for name, _ in rows) == sorted(COMMANDS)
    for name, flags in rows:
        assert sorted(flags.split()) == sorted(OPTIONS[k].flag for k in COMMANDS[name][2]), name


@pytest.mark.parametrize("command", ["eval", "degrade"])
def test_cli_csv_field_past_the_csv_limit_exits_1(cli_artifacts, tmp_path, capsys, command):
    # the csv module refuses a field over 131,072 characters
    _, _, _, lm_ckpt, clf_ckpt = cli_artifacts
    data = tmp_path / "long.csv"
    data.write_text(f"text,label\nmaganda,1\n{'a' * 200_000},0\n", encoding="utf-8")
    argv = {"eval": ["eval", "--checkpoint", str(clf_ckpt)],
            "degrade": ["degrade", "--checkpoint", str(lm_ckpt),
                        "--out", str(tmp_path / "report.csv")]}[command]
    assert main(argv + ["--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line 3: ") and "field larger than field limit" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune-lm", "finetune-clf", "degrade"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_cli_unwritable_out_exits_2_before_any_work(cli_artifacts, tmp_path, capsys, monkeypatch,
                                                    command, where):
    _, corpus, labeled, lm_ckpt, _ = cli_artifacts
    for owner, name in ((train, "pretrain_lm"), (train, "finetune_lm"),
                        (train, "finetune_classifier"), (evalbench, "run_degradation_suite")):
        monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail("the work ran"))
    out = tmp_path / "nodir" / "out" if where == "missing-directory" else tmp_path
    inputs = {"pretrain": ["--corpus", str(corpus)],
              "finetune-lm": ["--checkpoint", str(lm_ckpt), "--data", str(labeled)],
              "finetune-clf": ["--checkpoint", str(lm_ckpt), "--data", str(labeled)],
              "degrade": ["--checkpoint", str(lm_ckpt), "--data", str(labeled)]}[command]
    assert main([command, *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}") and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []
