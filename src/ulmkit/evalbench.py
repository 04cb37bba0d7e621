"""The training-data degradation protocol and top-losses analysis.

The degradation suite retrains the full transfer pipeline (LM fine-tune +
classifier fine-tune) on shrinking fractions of the training set, several
seeds per fraction, and reports the relative accuracy drop against the
full-data average. The test split is fixed and checksummed so every run
scores against identical data.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .model import TextClassifier
from .textpipe import NumericalizedCorpus, SettingError
from .train import (evaluate, finetune_classifier, finetune_lm, per_example_losses,
                    require_both_labels)

# Draws subsample_train makes before it gives up on a two-class subsample.
SUBSAMPLE_TRIES = 100


@dataclass
class LossRankedExample:
    text: str
    target: int
    predicted: int
    loss: float
    probability: float


@dataclass
class SplitRecord:
    fraction: float
    n_train: int
    repeats: int
    mean_accuracy: float
    mean_loss: float
    degradation_pct: float


@dataclass
class DegradationReport:
    rows: list[SplitRecord]
    test_checksum: str

    CSV_HEADER = "fraction,n_train,repeats,mean_accuracy,mean_loss,degradation_pct"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.fraction},{r.n_train},{r.repeats},"
                         f"{r.mean_accuracy:.6f},{r.mean_loss:.6f},{r.degradation_pct:.4f}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = f"{'fraction':>9} {'n_train':>8} {'repeats':>8} {'accuracy':>9} {'loss':>8} {'degr.%':>7}"
        lines = [header]
        for r in self.rows:
            lines.append(f"{r.fraction:>9.2f} {r.n_train:>8} {r.repeats:>8} "
                         f"{r.mean_accuracy:>9.4f} {r.mean_loss:>8.4f} {r.degradation_pct:>7.2f}")
        return "\n".join(lines) + "\n"


class DegradationSuiteError(RuntimeError):
    """A training run inside the suite failed; the message ends with the
    partial report as CSV."""

    def __init__(self, message: str, partial: DegradationReport):
        super().__init__(f"{message}\npartial report:\n{partial.to_csv()}")


def degradation_pct(metric_full: float, metric_reduced: float) -> float:
    """Relative performance drop, in percent, of reduced-data training."""
    if metric_full <= 0:
        raise ValueError(f"metric_full must be positive, got {metric_full}")
    return 100.0 * (metric_full - metric_reduced) / metric_full


def check_suite_settings(fractions, repeats: int) -> None:
    """Refuse a repeats count below 1 and a fraction outside (0, 1]: the
    checks of the suite's settings that need no data, so that a caller can
    make them before it loads any."""
    if repeats < 1:
        raise SettingError("repeats", "must be >= 1", repeats)
    for fraction in fractions:
        _check_fraction(fraction)


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:  # NaN fails the comparison, so it is refused too
        raise SettingError("fraction", "must be in (0, 1]", fraction)


def _subsample_size(n: int, fraction: float) -> int:
    """round(fraction * n), for a fraction in (0, 1] that leaves at least 2
    of the n examples."""
    _check_fraction(fraction)
    k = round(fraction * n)
    if k < 2:
        raise SettingError("fraction", f"must keep at least 2 of {n} examples", fraction)
    return k


def subsample_train(corpus: NumericalizedCorpus, fraction: float,
                    seed: int) -> NumericalizedCorpus:
    """Uniform subset without replacement of size round(fraction * n).

    When the corpus is labeled, resamples (with derived seeds) until both
    classes are present; a one-class subsample makes training ill-posed.
    """
    n = len(corpus.streams)
    k = _subsample_size(n, fraction)
    if k == n:
        return corpus
    for attempt in range(SUBSAMPLE_TRIES):
        idx = np.sort(T.Rng(seed).child(f"subsample-{attempt}").choice(n, k))
        labels = None
        if corpus.labels is not None:
            labels = [corpus.labels[i] for i in idx]
            if len(set(labels)) < 2:
                continue
        return NumericalizedCorpus([corpus.streams[i] for i in idx], labels)
    raise RuntimeError(f"could not draw a two-class subsample after {SUBSAMPLE_TRIES} tries")


def corpus_checksum(corpus: NumericalizedCorpus) -> str:
    h = hashlib.sha256()
    for i, stream in enumerate(corpus.streams):
        h.update(np.asarray(stream, dtype=np.int64).tobytes())
        if corpus.labels is not None:
            h.update(bytes([corpus.labels[i]]))
    return h.hexdigest()


def run_degradation_suite(pretrained, old_vocab, target_vocab,
                          train_corpus: NumericalizedCorpus,
                          test_corpus: NumericalizedCorpus,
                          lm_cfg, clf_cfg, *, fractions, repeats: int,
                          base_seed: int) -> DegradationReport:
    """Run the full fine-tuning pipeline per (fraction, repeat) and average.

    Every run starts from the same pretrained LM, fine-tunes the LM on the
    subsampled training text, fine-tunes a classifier on the same subsample,
    and scores on the shared test set. Repeat r of every fraction runs at
    seed ``base_seed + r``, which replaces the seed of both phase configs.
    Degradation is computed from mean accuracy against the largest
    fraction's mean accuracy, or is NaN in every row where that is 0. A run
    that changes the test set fails, and a failed run stops the suite.
    Before the first run it refuses an empty training or test set, a
    training set without both labels, the settings that
    ``check_suite_settings`` refuses, and every fraction that
    subsample_train would refuse.
    """
    for name, corpus in (("training", train_corpus), ("test", test_corpus)):
        if not corpus.streams:
            raise ValueError(f"run_degradation_suite: empty {name} set")
    require_both_labels(train_corpus)
    check_suite_settings(fractions, repeats)
    fractions = sorted(set(fractions), reverse=True)
    for fraction in fractions:
        _subsample_size(len(train_corpus.streams), fraction)
    checksum = corpus_checksum(test_corpus)
    report = DegradationReport(rows=[], test_checksum=checksum)
    for fraction in fractions:
        accs, losses, n_train = [], [], 0
        for rep in range(repeats):
            seed = base_seed + rep
            try:
                sub = subsample_train(train_corpus, fraction, seed)
                n_train = len(sub.streams)
                lm_text = NumericalizedCorpus(sub.streams)
                lm, _ = finetune_lm(pretrained, old_vocab, target_vocab, lm_text,
                                    None, replace(lm_cfg, seed=seed))
                clf, _ = finetune_classifier(lm, sub, None, replace(clf_cfg, seed=seed))
                result = evaluate(clf, test_corpus, clf_cfg.batch_size)
                if corpus_checksum(test_corpus) != checksum:
                    raise RuntimeError("test set mutated")
            except Exception as exc:  # noqa: BLE001 - abort with partial dump
                raise DegradationSuiteError(
                    f"run failed at fraction={fraction} repeat={rep}: {exc}", report
                ) from exc
            accs.append(result.accuracy)
            losses.append(result.mean_loss)
        report.rows.append(SplitRecord(
            fraction=fraction, n_train=n_train, repeats=repeats,
            mean_accuracy=float(np.mean(accs)), mean_loss=float(np.mean(losses)),
            degradation_pct=0.0,
        ))
    full = report.rows[0].mean_accuracy
    for row in report.rows:
        row.degradation_pct = degradation_pct(full, row.mean_accuracy) if full > 0 else math.nan
    return report


def top_losses(clf: TextClassifier, corpus: NumericalizedCorpus, k: int,
               texts: list[str] | None = None) -> list[LossRankedExample]:
    """The k examples the model gets most confidently wrong, loss-descending."""
    if not corpus.streams:
        raise ValueError("top_losses: empty corpus")
    if k <= 0:
        raise SettingError("k", "must be positive", k)
    if k > len(corpus.streams):
        raise ValueError(f"k={k} exceeds corpus size {len(corpus.streams)}")
    if corpus.labels is None:
        raise ValueError("top_losses: corpus has no labels")
    stats = per_example_losses(clf, corpus)
    ranked = sorted(range(len(stats)), key=lambda i: -stats[i][1])[:k]
    return [
        LossRankedExample(
            text=texts[i] if texts else "",
            target=corpus.labels[i],
            predicted=stats[i][0],
            loss=stats[i][1],
            probability=stats[i][2],
        )
        for i in ranked
    ]
