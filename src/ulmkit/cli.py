"""Batch command-line front end.

Subcommands: pretrain, finetune-lm, finetune-clf, eval, predict, degrade,
top-losses. Exit codes: 0 success, 1 runtime contract failure, 2 usage
error. A flat key=value config file can preseed any flag; explicit flags
win. Every artifact written (checkpoint, report, metrics log) embeds the
resolved config and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import evalbench, train
from . import tensor as T
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .model import PRESETS
from .textpipe import (NumericalizedCorpus, Vocabulary, build_vocab, load_corpus_lines,
                       load_labeled_csv, numericalize, preprocess, split_corpus)


class UsageError(ValueError):
    """Bad invocation: wrong flags, missing files. Exits with code 2."""


def read_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {i}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _require_file(path: str, what: str) -> str:
    if path is None:
        raise UsageError(f"missing required {what} path")
    if not os.path.exists(path):
        raise UsageError(f"{what} path does not exist: {path}")
    return path


class Resolver:
    """Flag > config-file > default, with the resolved snapshot recorded.

    The snapshot holds every option that resolved to a value, except the
    output path, so that runs differing only in where they write record the
    same config."""

    def __init__(self, args):
        self.args = args
        self.file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
        self.snapshot: dict[str, object] = {}

    def get(self, key: str, default, cast=None):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif key in self.file_values:
            raw = self.file_values[key]
            kind = cast or (type(default) if default is not None else str)
            value = raw if kind is str else (kind(raw) if kind is not bool else raw == "true")
        else:
            value = default
        if value is not None and key != "out":
            self.snapshot[key] = value
        return value


def _numericalize_texts(texts, vocab: Vocabulary) -> list[list[int]]:
    return [numericalize(preprocess(t), vocab) for t in texts]


def _vocab_and_streams(res: Resolver, texts) -> tuple[Vocabulary, list[list[int]]]:
    """Tokenize texts, build the ``max_vocab``-capped vocabulary over them,
    and numericalize them with it."""
    token_lists = [preprocess(t) for t in texts]
    vocab = build_vocab((t for toks in token_lists for t in toks),
                        max_size=res.get("max_vocab", 60000, int))
    return vocab, [numericalize(toks, vocab) for toks in token_lists]


def _phase_overrides(res: Resolver, defaults) -> dict:
    out = {}
    for key, cast in (("epochs", int), ("lr", float), ("batch_size", int),
                      ("bptt_len", int), ("dropout_multiplier", float),
                      ("weight_decay", float), ("seed", int)):
        value = res.get(key, getattr(defaults, key), cast)
        out[key] = value
    return out


def cmd_pretrain(args) -> int:
    res = Resolver(args)
    corpus_path = _require_file(res.get("corpus", args.corpus), "corpus")
    preset = res.get("preset", "tiny")
    if preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}")
    cfg = replace(train.pretrain_defaults(), preset=preset,
                  **_phase_overrides(res, train.pretrain_defaults()))
    valid_frac = res.get("valid_fraction", 0.1, float)

    vocab, streams = _vocab_and_streams(res, load_corpus_lines(corpus_path))
    train_streams, valid_streams = split_corpus(streams, (1.0 - valid_frac, valid_frac), cfg.seed)
    model, metrics = train.pretrain_lm(
        NumericalizedCorpus(train_streams, None, "train"),
        NumericalizedCorpus(valid_streams, None, "valid") if valid_streams else None,
        len(vocab), cfg)
    out = res.get("out", args.out) or "lm.ckpt"
    save_checkpoint(out, model, vocab, config=res.snapshot, provenance=["pretrain"])
    train.write_metrics_log(out + ".log", metrics, res.snapshot)
    print(f"wrote {out} and {out}.log")
    return 0


def _load_lm(path: str, want_preset: str | None):
    ckpt = load_checkpoint(_require_file(path, "checkpoint"))
    if ckpt.kind != "lm":
        raise UsageError(f"{path} holds a {ckpt.kind} checkpoint, expected a language model")
    if want_preset and ckpt.preset != want_preset:
        raise CheckpointError(
            f"{path}: checkpoint preset {ckpt.preset!r} does not match requested {want_preset!r}")
    return ckpt


def _load_clf(path: str):
    ckpt = load_checkpoint(_require_file(path, "checkpoint"))
    if ckpt.kind != "classifier":
        raise UsageError(f"{path} holds a {ckpt.kind} checkpoint, expected a classifier")
    return ckpt.build_model(), ckpt.vocab


def _labeled_corpus(path: str, vocab: Vocabulary, tag: str):
    records = load_labeled_csv(_require_file(path, "dataset"))
    streams = _numericalize_texts([t for t, _ in records], vocab)
    return NumericalizedCorpus(streams, [l for _, l in records], tag), [t for t, _ in records]


def cmd_finetune_lm(args) -> int:
    res = Resolver(args)
    ckpt = _load_lm(res.get("checkpoint", args.checkpoint), res.get("preset", None))
    cfg = replace(train.lm_finetune_defaults(), preset=ckpt.preset,
                  stage1_lr=res.get("stage1_lr", 4e-2, float),
                  **_phase_overrides(res, train.lm_finetune_defaults()))
    data_path = _require_file(res.get("data", args.data), "dataset")
    if data_path.endswith(".csv"):
        texts = [t for t, _ in load_labeled_csv(data_path)]
    else:
        texts = load_corpus_lines(data_path)
    target_vocab, streams = _vocab_and_streams(res, texts)
    train_s, valid_s = split_corpus(streams, (0.9, 0.1), cfg.seed)
    model, metrics = train.finetune_lm(
        ckpt.build_model(), ckpt.vocab, target_vocab,
        NumericalizedCorpus(train_s, None, "train"),
        NumericalizedCorpus(valid_s, None, "valid") if valid_s else None, cfg)
    out = res.get("out", args.out) or "lm-finetuned.ckpt"
    save_checkpoint(out, model, target_vocab, config=res.snapshot,
                    provenance=ckpt.provenance + ["finetune-lm"])
    train.write_metrics_log(out + ".log", metrics, res.snapshot)
    print(f"wrote {out} and {out}.log")
    return 0


def cmd_finetune_clf(args) -> int:
    res = Resolver(args)
    ckpt = _load_lm(res.get("checkpoint", args.checkpoint), res.get("preset", None))
    cfg = replace(train.clf_finetune_defaults(), preset=ckpt.preset,
                  **_phase_overrides(res, train.clf_finetune_defaults()))
    corpus, _ = _labeled_corpus(res.get("data", args.data), ckpt.vocab, "train")
    valid = None
    valid_path = res.get("valid", getattr(args, "valid", None))
    if valid_path:
        valid, _ = _labeled_corpus(valid_path, ckpt.vocab, "valid")
    clf, metrics = train.finetune_classifier(ckpt.build_model(), corpus, valid, cfg)
    out = res.get("out", args.out) or "clf.ckpt"
    save_checkpoint(out, clf, ckpt.vocab, config=res.snapshot,
                    provenance=ckpt.provenance + ["finetune-clf"])
    train.write_metrics_log(out + ".log", metrics, res.snapshot)
    print(f"wrote {out} and {out}.log")
    return 0


def cmd_eval(args) -> int:
    res = Resolver(args)
    clf, vocab = _load_clf(res.get("checkpoint", args.checkpoint))
    corpus, _ = _labeled_corpus(res.get("data", args.data), vocab, "test")
    result = evalbench.evaluate(clf, corpus)
    print(f"accuracy={result.accuracy:.4f}, loss={result.mean_loss:.6f}, n={result.n}")
    return 0


def cmd_predict(args) -> int:
    res = Resolver(args)
    clf, vocab = _load_clf(res.get("checkpoint", args.checkpoint))
    text = res.get("text", args.text)
    if text is None:
        raise UsageError("missing --text")
    ids = np.array([numericalize(preprocess(text), vocab)])
    logits = clf.eval().forward(ids, np.array([ids.shape[1]]))
    probs = T.softmax(logits.data[0])
    label = int(probs.argmax())
    print(f"label={label} probability={probs[label]:.4f}")
    return 0


def cmd_degrade(args) -> int:
    res = Resolver(args)
    ckpt = _load_lm(res.get("checkpoint", args.checkpoint), res.get("preset", None))
    seed = res.get("seed", 0, int)
    fractions = [float(x) for x in res.get("fractions", "1.0,0.5,0.1").split(",")]
    repeats = res.get("repeats", 5, int)
    records = load_labeled_csv(_require_file(res.get("data", args.data), "dataset"))
    test_path = res.get("test", getattr(args, "test", None))
    if test_path:
        train_records = records
        test_records = load_labeled_csv(_require_file(test_path, "test dataset"))
    else:
        train_records, test_records = split_corpus(records, (0.8, 0.2), seed)

    target_vocab, train_streams = _vocab_and_streams(res, [t for t, _ in train_records])
    test_streams = _numericalize_texts([t for t, _ in test_records], target_vocab)

    lm_cfg = replace(train.lm_finetune_defaults(), preset=ckpt.preset, seed=seed,
                     epochs=res.get("lm_epochs", 2, int),
                     lr=res.get("lm_lr", 4e-3, float),
                     stage1_lr=res.get("stage1_lr", 4e-2, float),
                     batch_size=res.get("batch_size", 16, int))
    clf_cfg = replace(train.clf_finetune_defaults(), preset=ckpt.preset, seed=seed,
                      epochs=res.get("clf_epochs", 2, int),
                      batch_size=res.get("batch_size", 16, int))
    report = evalbench.run_degradation_suite(
        ckpt.build_model(), ckpt.vocab, target_vocab,
        NumericalizedCorpus(train_streams, [l for _, l in train_records], "train"), None,
        NumericalizedCorpus(test_streams, [l for _, l in test_records], "test"),
        lm_cfg, clf_cfg, fractions=fractions, repeats=repeats, base_seed=seed)
    out = res.get("out", args.out) or "degradation.csv"
    with open(out, "w", encoding="utf-8") as f:
        f.write(train.config_header(res.snapshot))
        f.write(f"# test_checksum={report.test_checksum}\n")
        f.write(report.to_csv())
    print(report.to_table(), end="")
    print(f"wrote {out}")
    return 0


def cmd_top_losses(args) -> int:
    res = Resolver(args)
    clf, vocab = _load_clf(res.get("checkpoint", args.checkpoint))
    corpus, texts = _labeled_corpus(res.get("data", args.data), vocab, "test")
    k = res.get("k", 10, int)
    for ex in evalbench.top_losses(clf, corpus, min(k, len(corpus.streams)), texts):
        print(f"loss={ex.loss:.4f} target={ex.target} predicted={ex.predicted} "
              f"p={ex.probability:.4f} text={ex.text!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ulmkit",
                                     description="AWD-LSTM transfer-learning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--out")
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--bptt", type=int, dest="bptt_len")
        p.add_argument("--dropout-multiplier", type=float, dest="dropout_multiplier")
        p.add_argument("--weight-decay", type=float, dest="weight_decay")
        p.add_argument("--max-vocab", type=int, dest="max_vocab")

    p = sub.add_parser("pretrain", help="pretrain a language model on plain text")
    common(p)
    p.add_argument("--corpus")
    p.add_argument("--valid-fraction", type=float, dest="valid_fraction")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune-lm", help="fine-tune a pretrained LM on target text")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--stage1-lr", type=float, dest="stage1_lr")
    p.set_defaults(func=cmd_finetune_lm)

    p = sub.add_parser("finetune-clf", help="fine-tune a classifier from an LM")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--valid")
    p.set_defaults(func=cmd_finetune_clf)

    p = sub.add_parser("eval", help="score a classifier on a labeled CSV")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one text")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--text")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("degrade", help="run the low-resource degradation suite")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--test")
    p.add_argument("--fractions")
    p.add_argument("--repeats", type=int)
    p.add_argument("--lm-epochs", type=int, dest="lm_epochs")
    p.add_argument("--lm-lr", type=float, dest="lm_lr")
    p.add_argument("--stage1-lr", type=float, dest="stage1_lr")
    p.add_argument("--clf-epochs", type=int, dest="clf_epochs")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("top-losses", help="rank examples by per-example loss")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("-k", type=int)
    p.set_defaults(func=cmd_top_losses)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
