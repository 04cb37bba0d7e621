"""Batch command-line front end.

Subcommands: pretrain, finetune-lm, finetune-clf, eval, predict, degrade,
top-losses. Exit codes: 0 success, 1 runtime contract failure, 2 usage
error. A flat key=value config file can preseed any option of that
subcommand; explicit flags win. Every artifact written (checkpoint, report,
metrics log) embeds the resolved config and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import NamedTuple

from . import evalbench, train
from .checkpoint import CheckpointError, atomic_open, load_checkpoint, save_checkpoint
from .model import PRESETS
from .textpipe import (NumericalizedCorpus, Vocabulary, build_vocab, load_corpus_lines,
                       load_labeled_csv, numericalize, preprocess, split_corpus)


class UsageError(ValueError):
    """Bad invocation: wrong flags, missing files. Exits with code 2."""


class Option(NamedTuple):
    """How an option is given: its flag and the type of its value."""

    flag: str
    type: type = str
    choices: tuple[str, ...] | None = None


# Every option a subcommand can take, by its config-file key. A subcommand
# reads exactly the keys listed for it in COMMANDS.
OPTIONS = {
    "seed": Option("--seed", int),
    "preset": Option("--preset", choices=tuple(sorted(PRESETS))),
    "out": Option("--out"),
    "epochs": Option("--epochs", int),
    "lr": Option("--lr", float),
    "batch_size": Option("--batch-size", int),
    "bptt_len": Option("--bptt", int),
    "dropout_multiplier": Option("--dropout-multiplier", float),
    "weight_decay": Option("--weight-decay", float),
    "max_vocab": Option("--max-vocab", int),
    "corpus": Option("--corpus"),
    "valid_fraction": Option("--valid-fraction", float),
    "checkpoint": Option("--checkpoint"),
    "data": Option("--data"),
    "stage1_lr": Option("--stage1-lr", float),
    "valid": Option("--valid"),
    "text": Option("--text"),
    "test": Option("--test"),
    "fractions": Option("--fractions"),
    "repeats": Option("--repeats", int),
    "lm_epochs": Option("--lm-epochs", int),
    "lm_lr": Option("--lm-lr", float),
    "clf_epochs": Option("--clf-epochs", int),
    "k": Option("-k", int),
}
# The PhaseConfig fields a training subcommand takes from its options.
PHASE_KEYS = ("epochs", "lr", "batch_size", "bptt_len", "dropout_multiplier",
              "weight_decay", "seed")


def read_config_file(path: str, keys) -> dict[str, str]:
    """The ``key=value`` lines of a config file; every key must be in ``keys``."""
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
            key = key.strip()
            if key not in keys:
                raise UsageError(f"{path}: line {i}: unknown key {key!r}; this subcommand "
                                 f"takes {', '.join(sorted(keys))}")
            values[key] = value.strip()
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
        self.keys = COMMANDS[args.command][2]
        self.file_values = read_config_file(args.config, self.keys) if args.config else {}
        self.snapshot: dict[str, object] = {}

    def get(self, key: str, default=None):
        flag = getattr(self.args, key)
        if flag is not None:
            value = flag
        elif key in self.file_values:
            value = OPTIONS[key].type(self.file_values[key])
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
                        max_size=res.get("max_vocab", 60000))
    return vocab, [numericalize(toks, vocab) for toks in token_lists]


def _phase_overrides(res: Resolver, defaults) -> dict:
    """The PhaseConfig fields this subcommand takes, resolved over ``defaults``."""
    return {key: res.get(key, getattr(defaults, key)) for key in PHASE_KEYS if key in res.keys}


def _write_outputs(res: Resolver, default_out: str, model, vocab: Vocabulary,
                   provenance: list[str], metrics) -> int:
    """Write a training subcommand's checkpoint and its metrics log."""
    out = res.get("out") or default_out
    save_checkpoint(out, model, vocab, config=res.snapshot, provenance=provenance)
    train.write_metrics_log(out + ".log", metrics, res.snapshot)
    print(f"wrote {out} and {out}.log")
    return 0


def cmd_pretrain(args) -> int:
    res = Resolver(args)
    corpus_path = _require_file(res.get("corpus"), "corpus")
    preset = res.get("preset", "tiny")
    if preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}")
    cfg = replace(train.pretrain_defaults(), preset=preset,
                  **_phase_overrides(res, train.pretrain_defaults()))
    valid_frac = res.get("valid_fraction", 0.1)

    vocab, streams = _vocab_and_streams(res, load_corpus_lines(corpus_path))
    train_streams, valid_streams = split_corpus(streams, (1.0 - valid_frac, valid_frac), cfg.seed)
    model, metrics = train.pretrain_lm(
        NumericalizedCorpus(train_streams),
        NumericalizedCorpus(valid_streams) if valid_streams else None,
        len(vocab), cfg)
    return _write_outputs(res, "lm.ckpt", model, vocab, ["pretrain"], metrics)


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


def _labeled_corpus(path: str, vocab: Vocabulary):
    records = load_labeled_csv(_require_file(path, "dataset"))
    streams = _numericalize_texts([t for t, _ in records], vocab)
    return NumericalizedCorpus(streams, [l for _, l in records]), [t for t, _ in records]


def cmd_finetune_lm(args) -> int:
    res = Resolver(args)
    ckpt = _load_lm(res.get("checkpoint"), res.get("preset"))
    cfg = replace(train.lm_finetune_defaults(), stage1_lr=res.get("stage1_lr", 4e-2),
                  **_phase_overrides(res, train.lm_finetune_defaults()))
    data_path = _require_file(res.get("data"), "dataset")
    if data_path.endswith(".csv"):
        texts = [t for t, _ in load_labeled_csv(data_path)]
    else:
        texts = load_corpus_lines(data_path)
    target_vocab, streams = _vocab_and_streams(res, texts)
    train_s, valid_s = split_corpus(streams, (0.9, 0.1), cfg.seed)
    model, metrics = train.finetune_lm(
        ckpt.build_model(), ckpt.vocab, target_vocab,
        NumericalizedCorpus(train_s),
        NumericalizedCorpus(valid_s) if valid_s else None, cfg)
    return _write_outputs(res, "lm-finetuned.ckpt", model, target_vocab,
                          ckpt.provenance + ["finetune-lm"], metrics)


def cmd_finetune_clf(args) -> int:
    res = Resolver(args)
    ckpt = _load_lm(res.get("checkpoint"), res.get("preset"))
    cfg = replace(train.clf_finetune_defaults(),
                  **_phase_overrides(res, train.clf_finetune_defaults()))
    corpus, _ = _labeled_corpus(res.get("data"), ckpt.vocab)
    valid = None
    valid_path = res.get("valid")
    if valid_path:
        valid, _ = _labeled_corpus(valid_path, ckpt.vocab)
    clf, metrics = train.finetune_classifier(ckpt.build_model(), corpus, valid, cfg)
    return _write_outputs(res, "clf.ckpt", clf, ckpt.vocab,
                          ckpt.provenance + ["finetune-clf"], metrics)


def cmd_eval(args) -> int:
    res = Resolver(args)
    clf, vocab = _load_clf(res.get("checkpoint"))
    corpus, _ = _labeled_corpus(res.get("data"), vocab)
    result = evalbench.evaluate(clf, corpus)
    print(f"accuracy={result.accuracy:.4f}, loss={result.mean_loss:.6f}, n={result.n}")
    return 0


def cmd_predict(args) -> int:
    res = Resolver(args)
    clf, vocab = _load_clf(res.get("checkpoint"))
    text = res.get("text")
    if text is None:
        raise UsageError("missing --text")
    corpus = NumericalizedCorpus(_numericalize_texts([text], vocab))
    [(label, _, probability)] = train.per_example_losses(clf, corpus)
    print(f"label={label} probability={probability:.4f}")
    return 0


def cmd_degrade(args) -> int:
    res = Resolver(args)
    ckpt = _load_lm(res.get("checkpoint"), res.get("preset"))
    seed = res.get("seed", 0)
    fractions = [float(x) for x in res.get("fractions", "1.0,0.5,0.1").split(",")]
    repeats = res.get("repeats", 5)
    records = load_labeled_csv(_require_file(res.get("data"), "dataset"))
    test_path = res.get("test")
    if test_path:
        train_records = records
        test_records = load_labeled_csv(_require_file(test_path, "test dataset"))
    else:
        train_records, test_records = split_corpus(records, (0.8, 0.2), seed)

    target_vocab, train_streams = _vocab_and_streams(res, [t for t, _ in train_records])
    test_streams = _numericalize_texts([t for t, _ in test_records], target_vocab)

    lm_cfg = replace(train.lm_finetune_defaults(), seed=seed,
                     epochs=res.get("lm_epochs", 2),
                     lr=res.get("lm_lr", 4e-3),
                     stage1_lr=res.get("stage1_lr", 4e-2),
                     batch_size=res.get("batch_size", 16))
    clf_cfg = replace(train.clf_finetune_defaults(), seed=seed,
                      epochs=res.get("clf_epochs", 2),
                      batch_size=res.get("batch_size", 16))
    report = evalbench.run_degradation_suite(
        ckpt.build_model(), ckpt.vocab, target_vocab,
        NumericalizedCorpus(train_streams, [l for _, l in train_records]),
        NumericalizedCorpus(test_streams, [l for _, l in test_records]),
        lm_cfg, clf_cfg, fractions=fractions, repeats=repeats, base_seed=seed)
    out = res.get("out") or "degradation.csv"
    with atomic_open(out, encoding="utf-8") as f:
        f.write(train.config_header(res.snapshot))
        f.write(f"# test_checksum={report.test_checksum}\n")
        f.write(report.to_csv())
    print(report.to_table(), end="")
    print(f"wrote {out}")
    return 0


def cmd_top_losses(args) -> int:
    res = Resolver(args)
    clf, vocab = _load_clf(res.get("checkpoint"))
    corpus, texts = _labeled_corpus(res.get("data"), vocab)
    k = res.get("k", 10)
    for ex in evalbench.top_losses(clf, corpus, min(k, len(corpus.streams)), texts):
        print(f"loss={ex.loss:.4f} target={ex.target} predicted={ex.predicted} "
              f"p={ex.probability:.4f} text={ex.text!r}")
    return 0


_TRAINING = ("seed", "preset", "out", "epochs", "lr", "batch_size", "bptt_len",
             "dropout_multiplier", "weight_decay")

# Subcommand: (handler, help, the keys of the options it reads).
COMMANDS = {
    "pretrain": (cmd_pretrain, "pretrain a language model on plain text",
                 (*_TRAINING, "max_vocab", "corpus", "valid_fraction")),
    "finetune-lm": (cmd_finetune_lm, "fine-tune a pretrained LM on target text",
                    (*_TRAINING, "max_vocab", "checkpoint", "data", "stage1_lr")),
    "finetune-clf": (cmd_finetune_clf, "fine-tune a classifier from an LM",
                     (*(k for k in _TRAINING if k != "bptt_len"), "checkpoint", "data",
                      "valid")),
    "eval": (cmd_eval, "score a classifier on a labeled CSV", ("checkpoint", "data")),
    "predict": (cmd_predict, "classify one text", ("checkpoint", "text")),
    "degrade": (cmd_degrade, "run the low-resource degradation suite",
                ("seed", "preset", "out", "batch_size", "max_vocab", "checkpoint", "data",
                 "test", "fractions", "repeats", "lm_epochs", "lm_lr", "stage1_lr",
                 "clf_epochs")),
    "top-losses": (cmd_top_losses, "rank examples by per-example loss",
                   ("checkpoint", "data", "k")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ulmkit",
                                     description="AWD-LSTM transfer-learning pipeline",
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value file of this subcommand's options")
        for key in keys:
            opt = OPTIONS[key]
            p.add_argument(opt.flag, dest=key, type=opt.type, choices=opt.choices)
        p.set_defaults(func=func)
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
