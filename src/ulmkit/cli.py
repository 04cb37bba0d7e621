"""Batch command-line front end.

Subcommands: pretrain, finetune-lm, finetune-clf, eval, predict, degrade,
top-losses. Exit codes: 0 success, 1 runtime contract failure, 2 usage
error. A flat key=value config file can preseed any option of that
subcommand; explicit flags win. Every artifact written (checkpoint, report,
metrics log) embeds the resolved config and seed. A command runs numpy's
BLAS on one thread, whatever the host's setting.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields, replace
from typing import NamedTuple

from . import evalbench, train
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .model import PRESETS
from .tensor import single_blas_thread
from .textpipe import (MAX_VOCAB, NumericalizedCorpus, SettingError, Vocabulary, build_vocab,
                       load_corpus_lines, load_labeled_csv, numericalize, preprocess,
                       split_corpus)


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
# The PhaseConfig fields that are options, in field order: a checkpoint's
# snapshot keeps the order options are read in, so this is never a set.
PHASE_KEYS = tuple(f.name for f in fields(train.PhaseConfig) if f.name in OPTIONS)


def read_config_file(path: str, keys) -> dict[str, str]:
    """The ``key=value`` lines of a config file; every key must be in ``keys``."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as f:
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

    Config-file values are typed and checked against their choices when it
    is built, as argparse does flags. The snapshot holds every option that
    resolved to a value, except the output path, so that runs differing
    only in where they write record the same config."""

    def __init__(self, args):
        self.args = args
        self.keys = COMMANDS[args.command][2]
        self.file_values = {}
        for key, text in (read_config_file(args.config, self.keys) if args.config else {}).items():
            opt = OPTIONS[key]
            try:
                self.file_values[key] = opt.type(text)
            except ValueError:
                raise UsageError(f"{args.config}: {key}: invalid {opt.type.__name__} value "
                                 f"{text!r}") from None
            if opt.choices and self.file_values[key] not in opt.choices:
                raise UsageError(f"{args.config}: {key}: {text!r} is not one of "
                                 f"{', '.join(opt.choices)}")
        self.snapshot: dict[str, object] = {}

    def get(self, key: str, default=None):
        value = getattr(self.args, key)
        if value is None:
            value = self.file_values.get(key, default)
        if value is not None and key != "out":
            self.snapshot[key] = value
        return value

    @contextlib.contextmanager
    def refusals(self, **keys: str):
        """Report a SettingError about a parameter in ``keys``, which maps it to
        the option key that supplied it, as ``{flag} {value}: {reason}``."""
        try:
            yield
        except SettingError as exc:
            if exc.field not in keys:
                raise
            key = keys[exc.field]
            raise ValueError(f"{OPTIONS[key].flag} {self.snapshot[key]}: {exc}") from None


def _numericalize_texts(texts, vocab: Vocabulary) -> list[list[int]]:
    return [numericalize(preprocess(t), vocab) for t in texts]


def _vocab_and_streams(res: Resolver, texts) -> tuple[Vocabulary, list[list[int]]]:
    """Tokenize texts, build the ``max_vocab``-capped vocabulary over them,
    and numericalize them with it."""
    token_lists = [preprocess(t) for t in texts]
    max_vocab = res.get("max_vocab", MAX_VOCAB)
    with res.refusals(max_size="max_vocab"):
        vocab = build_vocab((t for toks in token_lists for t in toks), max_size=max_vocab)
    return vocab, [numericalize(toks, vocab) for toks in token_lists]


def _phase_config(res: Resolver, defaults: train.PhaseConfig,
                  keys: dict | None = None) -> train.PhaseConfig:
    """``defaults`` with each field in ``keys`` resolved from the option key
    it maps to (by default, the PHASE_KEYS this subcommand takes). A refused
    value is reported by the flag of its option."""
    if keys is None:
        keys = {key: key for key in PHASE_KEYS if key in res.keys}
    values = {field: res.get(key, getattr(defaults, field)) for field, key in keys.items()}
    with res.refusals(**keys):
        return replace(defaults, **values)


def _out_path(res: Resolver, default: str) -> str:
    """The ``--out`` path, ``default`` if none is given, refused before any
    work is done when its directory does not exist or it is a directory."""
    out = res.get("out") or default
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"--out {out}: directory {folder} does not exist")
    if os.path.isdir(out):
        raise UsageError(f"--out {out} is a directory")
    return out


def _write_outputs(res: Resolver, out: str, model, vocab: Vocabulary,
                   provenance: list[str], metrics) -> int:
    """Write a training subcommand's checkpoint and its metrics log."""
    save_checkpoint(out, model, vocab, config=res.snapshot, provenance=provenance)
    train.write_metrics_log(out + ".log", metrics, res.snapshot)
    print(f"wrote {out} and {out}.log")
    return 0


def cmd_pretrain(res: Resolver) -> int:
    out = _out_path(res, "lm.ckpt")
    corpus_path = _require_file(res.get("corpus"), "corpus")
    cfg = _phase_config(res, train.pretrain_defaults())
    valid_frac = res.get("valid_fraction", 0.1)

    vocab, streams = _vocab_and_streams(res, load_corpus_lines(corpus_path))
    with res.refusals(held_out="valid_fraction"):
        train_streams, valid_streams = split_corpus(streams, valid_frac, cfg.seed)
    model, metrics = train.pretrain_lm(
        NumericalizedCorpus(train_streams),
        NumericalizedCorpus(valid_streams) if valid_streams else None,
        len(vocab), cfg)
    return _write_outputs(res, out, model, vocab, ["pretrain"], metrics)


def _load(path: str, kind: str):
    """The model built from the checkpoint at ``path``, which must hold a
    model of ``kind``, with its vocabulary and provenance. The checkpoint,
    whose arrays are views of the whole file, is not kept."""
    ckpt = load_checkpoint(_require_file(path, "checkpoint"))
    if ckpt.kind != kind:
        expected = {"lm": "a language model", "classifier": "a classifier"}[kind]
        raise UsageError(f"{path} holds a {ckpt.kind} checkpoint, expected {expected}")
    return ckpt.build_model(), ckpt.vocab, ckpt.provenance


def _labeled_corpus(path: str, vocab: Vocabulary):
    records = load_labeled_csv(_require_file(path, "dataset"))
    streams = _numericalize_texts([t for t, _ in records], vocab)
    return NumericalizedCorpus(streams, [l for _, l in records]), [t for t, _ in records]


def cmd_finetune_lm(res: Resolver) -> int:
    out = _out_path(res, "lm-finetuned.ckpt")
    checkpoint = res.get("checkpoint")
    cfg = _phase_config(res, train.lm_finetune_defaults())
    lm, vocab, provenance = _load(checkpoint, "lm")
    data_path = _require_file(res.get("data"), "dataset")
    if data_path.endswith(".csv"):
        texts = [t for t, _ in load_labeled_csv(data_path)]
    else:
        texts = load_corpus_lines(data_path)
    target_vocab, streams = _vocab_and_streams(res, texts)
    train_s, valid_s = split_corpus(streams, 0.1, cfg.seed)
    model, metrics = train.finetune_lm(
        lm, vocab, target_vocab, NumericalizedCorpus(train_s),
        NumericalizedCorpus(valid_s) if valid_s else None, cfg)
    return _write_outputs(res, out, model, target_vocab,
                          provenance + ["finetune-lm"], metrics)


def cmd_finetune_clf(res: Resolver) -> int:
    out = _out_path(res, "clf.ckpt")
    checkpoint = res.get("checkpoint")
    cfg = _phase_config(res, train.clf_finetune_defaults())
    lm, vocab, provenance = _load(checkpoint, "lm")
    corpus, _ = _labeled_corpus(res.get("data"), vocab)
    valid = None
    valid_path = res.get("valid")
    if valid_path:
        valid, _ = _labeled_corpus(valid_path, vocab)
    clf, metrics = train.finetune_classifier(lm, corpus, valid, cfg)
    return _write_outputs(res, out, clf, vocab, provenance + ["finetune-clf"], metrics)


def cmd_eval(res: Resolver) -> int:
    clf, vocab, _ = _load(res.get("checkpoint"), "classifier")
    corpus, _ = _labeled_corpus(res.get("data"), vocab)
    result = evalbench.evaluate(clf, corpus)
    print(f"accuracy={result.accuracy:.4f}, loss={result.mean_loss:.6f}, n={result.n}")
    return 0


def cmd_predict(res: Resolver) -> int:
    clf, vocab, _ = _load(res.get("checkpoint"), "classifier")
    text = res.get("text")
    if text is None:
        raise UsageError("missing --text")
    corpus = NumericalizedCorpus(_numericalize_texts([text], vocab))
    [(label, _, probability)] = train.per_example_losses(clf, corpus)
    print(f"label={label} probability={probability:.4f}")
    return 0


def cmd_degrade(res: Resolver) -> int:
    out = _out_path(res, "degradation.csv")
    checkpoint = res.get("checkpoint")
    seed = res.get("seed", 0)
    text = res.get("fractions", "1.0,0.5,0.1")
    try:
        fractions = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--fractions takes comma-separated numbers, got {text!r}") from None
    repeats = res.get("repeats", 5)
    lm_cfg = _phase_config(res, train.lm_finetune_defaults(epochs=2, batch_size=16),
                           {"epochs": "lm_epochs", "lr": "lm_lr", "stage1_lr": "stage1_lr",
                            "batch_size": "batch_size"})
    clf_cfg = _phase_config(res, train.clf_finetune_defaults(batch_size=16),
                            {"epochs": "clf_epochs", "batch_size": "batch_size"})
    with res.refusals(repeats="repeats", fraction="fractions"):
        evalbench.check_suite_settings(fractions, repeats)
    lm, vocab, _ = _load(checkpoint, "lm")
    records = load_labeled_csv(_require_file(res.get("data"), "dataset"))
    test_path = res.get("test")
    if test_path:
        train_records = records
        test_records = load_labeled_csv(_require_file(test_path, "test dataset"))
    else:
        train_records, test_records = split_corpus(records, 0.2, seed)

    target_vocab, train_streams = _vocab_and_streams(res, [t for t, _ in train_records])
    test_streams = _numericalize_texts([t for t, _ in test_records], target_vocab)
    with res.refusals(fraction="fractions"):
        report = evalbench.run_degradation_suite(
            lm, vocab, target_vocab,
            NumericalizedCorpus(train_streams, [l for _, l in train_records]),
            NumericalizedCorpus(test_streams, [l for _, l in test_records]),
            lm_cfg, clf_cfg, fractions=fractions, repeats=repeats, base_seed=seed)
    with atomic_open(out, encoding="utf-8") as f:
        f.write(train.config_header(res.snapshot))
        f.write(f"# test_checksum={report.test_checksum}\n")
        f.write(report.to_csv())
    print(report.to_table(), end="")
    print(f"wrote {out}")
    return 0


def cmd_top_losses(res: Resolver) -> int:
    clf, vocab, _ = _load(res.get("checkpoint"), "classifier")
    corpus, texts = _labeled_corpus(res.get("data"), vocab)
    k = res.get("k", 10)
    with res.refusals(k="k"):
        examples = evalbench.top_losses(clf, corpus, min(k, len(corpus.streams)), texts)
    for ex in examples:
        print(f"loss={ex.loss:.4f} target={ex.target} predicted={ex.predicted} "
              f"p={ex.probability:.4f} text={ex.text!r}")
    return 0


_TRAINING = ("seed", "out", "epochs", "lr", "batch_size", "bptt_len", "dropout_multiplier",
             "weight_decay")

# Subcommand: (handler, help, the keys of the options it reads).
COMMANDS = {
    "pretrain": (cmd_pretrain, "pretrain a language model on plain text",
                 (*_TRAINING, "preset", "max_vocab", "corpus", "valid_fraction")),
    "finetune-lm": (cmd_finetune_lm, "fine-tune a pretrained LM on target text",
                    (*_TRAINING, "max_vocab", "checkpoint", "data", "stage1_lr")),
    "finetune-clf": (cmd_finetune_clf, "fine-tune a classifier from an LM",
                     (*(k for k in _TRAINING if k != "bptt_len"), "checkpoint", "data",
                      "valid")),
    "eval": (cmd_eval, "score a classifier on a labeled CSV", ("checkpoint", "data")),
    "predict": (cmd_predict, "classify one text", ("checkpoint", "text")),
    "degrade": (cmd_degrade, "run the low-resource degradation suite",
                ("seed", "out", "batch_size", "max_vocab", "checkpoint", "data",
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
        # one BLAS thread: a seeded run gives the same bytes at any host
        # setting, and the tied decoder's threads have the cores
        with single_blas_thread():
            return args.func(Resolver(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
