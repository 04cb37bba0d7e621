"""Checkpoint format and command-line behavior tests."""

import argparse
import csv
import json
import struct
import warnings
import zlib

import numpy as np
import pytest

from ulmkit import checkpoint as ck
from ulmkit import train
from ulmkit.cli import Resolver, build_parser, main, read_config_file
from ulmkit.model import AwdLstmLM, TextClassifier, build_lm
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
    assert loaded.kind == "lm" and loaded.preset == "tiny"
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


def rewrite_header(src, dst, edit, replacement=None):
    """Copy checkpoint src to dst with edit() applied to its JSON header (or
    with the header replaced by ``replacement``), and a length field and
    trailing CRC32 that match, so only the header's own consistency can
    reject it."""
    blob = src.read_bytes()[:-4]
    off = len(ck.MAGIC) + 12
    version, header_len = struct.unpack_from("<IQ", blob, len(ck.MAGIC))
    header = json.loads(blob[off : off + header_len])
    edit(header)
    raw = json.dumps(header if replacement is None else replacement).encode("utf-8")
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


@pytest.mark.parametrize("edit, match", [
    (lambda header: header.pop("kind"), "'kind' must be a JSON str"),
    (lambda header: header.__setitem__("vocab", {"aso": 0}), "'vocab' must be a JSON list"),
    (lambda header: header.__setitem__("kind", "tagger"), "unknown kind"),
    (lambda header: header["dims"].pop("emb_dim"), "dims.emb_dim"),
    (lambda header: header["dims"].__setitem__("n_layers", 2.0), "dims.n_layers"),
    (lambda header: header["vocab"].__setitem__(0, 7), "vocabulary entries"),
    (lambda header: header["arrays"][0].pop("nbytes"), "name, shape, dtype and nbytes"),
    (lambda header: header["arrays"][0].__setitem__("nbytes", True), "needs a name"),
    (lambda header: header["arrays"].__setitem__(0, []), "name, shape, dtype and nbytes"),
    (set_dtype, "dtype 'bogus'"),
    (lambda header: header["arrays"][0].__setitem__("dtype", "<i8"), "dtype '<i8'"),
    (lambda header: header["arrays"][1].__setitem__("shape", [-1]), "shape"),
    (lambda header: header["arrays"][1].__setitem__("name", "embedding"), "appears twice"),
])
def test_checkpoint_rejects_malformed_headers(tmp_path, edit, match):
    _, path = saved_lm(tmp_path)
    bad = tmp_path / "bad.ckpt"
    rewrite_header(path, bad, edit)
    with pytest.raises(ck.CheckpointError, match=match):
        ck.load_checkpoint(bad)


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


def test_checkpoint_with_a_dropout_multiplier_in_its_dims_still_loads(tmp_path):
    # files written before the multiplier left the dims carry it; it is ignored
    lm, path = saved_lm(tmp_path)
    old = tmp_path / "old.ckpt"
    rewrite_header(path, old, lambda h: h["dims"].__setitem__("dropout_multiplier", 0.7))
    model = ck.load_checkpoint(old).build_model()
    state = model.state_dict()
    for name, arr in lm.state_dict().items():
        assert np.array_equal(state[name], arr), name
    assert model.dropout_multiplier == 1.0


def test_checkpoint_preset_is_read_off_the_dims(tmp_path):
    vocab = small_vocab()
    v = len(vocab.id_to_token)
    models = {"tiny": build_lm(v, "tiny", seed=0),
              "custom": AwdLstmLM(v, emb_dim=64, hid_dim=128, n_layers=2)}
    models["clf"] = TextClassifier(models["tiny"])
    for name, model in models.items():
        ck.save_checkpoint(tmp_path / name, model, vocab)
    assert ck.load_checkpoint(tmp_path / "tiny").preset == "tiny"
    assert ck.load_checkpoint(tmp_path / "clf").preset == "tiny"
    custom = ck.load_checkpoint(tmp_path / "custom")
    assert custom.preset == "custom"
    assert "dropout_multiplier" not in custom.dims


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

    def crc_fails(data):  # after the body, before the checksum
        raise OSError("no space left on device")

    monkeypatch.setattr(ck.zlib, "crc32", crc_fails)
    with pytest.raises(OSError, match="no space"):
        ck.save_checkpoint(path, build_lm(len(small_vocab().id_to_token), "tiny", seed=1),
                           small_vocab())
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


@pytest.mark.parametrize("argv, option", [
    (["pretrain", "--dropout-multiplier", "4"], "dropout_multiplier"),
    (["finetune-lm", "--stage1-lr", "-1"], "stage1_lr"),
    (["finetune-clf", "--weight-decay", "-5"], "weight_decay"),
])
def test_cli_out_of_range_phase_settings_exit_1(cli_artifacts, tmp_path, capsys, argv, option):
    _, corpus, labeled, lm_ckpt, _ = cli_artifacts
    inputs = {"pretrain": ["--corpus", str(corpus)],
              "finetune-lm": ["--checkpoint", str(lm_ckpt), "--data", str(corpus)],
              "finetune-clf": ["--checkpoint", str(lm_ckpt), "--data", str(labeled)]}[argv[0]]
    out = tmp_path / "out.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + inputs + ["--out", str(out), "--epochs", "1", "--batch-size", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and option in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert list(tmp_path.iterdir()) == []


def test_cli_kind_mismatch_exits_2(cli_artifacts, capsys):
    _, _, labeled, lm_ckpt, clf_ckpt = cli_artifacts
    rc = main(["eval", "--checkpoint", str(lm_ckpt), "--data", str(labeled)])
    assert rc == 2
    assert "expected a classifier" in capsys.readouterr().err
    rc = main(["finetune-lm", "--checkpoint", str(clf_ckpt), "--data", str(labeled)])
    assert rc == 2


def test_cli_preset_mismatch_exits_1(cli_artifacts, capsys):
    _, _, labeled, lm_ckpt, _ = cli_artifacts
    rc = main(["finetune-clf", "--checkpoint", str(lm_ckpt), "--data", str(labeled),
               "--preset", "full"])
    assert rc == 1
    assert "preset" in capsys.readouterr().err


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
