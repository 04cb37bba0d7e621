"""Optimizers, 1cycle schedule, discriminative learning rates, and the
three transfer-learning phases (pretrain, LM fine-tune, classifier
fine-tune), which share one stage loop.

All stochastic choices (shuffles, dropout masks, init) flow from explicit
seeds, so a (seed, data, config) triple reproduces its metric trajectory
exactly at a fixed BLAS thread count; another thread count may round the
matrix products differently.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import tensor as T
from .checkpoint import atomic_open
from .model import DROPOUT_RATES, AwdLstmLM, TextClassifier, build_lm
from .tensor import Rng, Tensor
from .textpipe import PAD_ID, NumericalizedCorpus, SettingError, Vocabulary

METRICS_HEADER = "phase,stage,epoch,train_loss,valid_loss,valid_accuracy,seconds"


# ---------------------------------------------------------------------------
# schedules


# The ULMFiT recipe's fixed settings (Howard & Ruder 2018): the 1cycle shape
# and momentum bounds, Adam's second-moment decay, the gradient-clip norm, the
# discriminative-rate ladder factor, and the per-stage rate decay of gradual
# unfreezing. MAX_LEN caps a classifier input's tokens.
PCT_START = 0.25
DIV_START = 25.0
DIV_FINAL = 1e5
MOM_HIGH = 0.8
MOM_LOW = 0.7
BETA2 = 0.99
ADAM_EPS = 1e-8
GRAD_CLIP = 0.25
LR_FACTOR = 2.6
STAGE_LR_DECAY = 2.0
MAX_LEN = 400


def _cos_interp(a: float, b: float, t: float) -> float:
    if t <= 0.0:
        return a
    if t >= 1.0:
        return b
    return a + (b - a) * (1.0 - math.cos(math.pi * t)) / 2.0


def one_cycle(step: float, lr_max: float, total_steps: int) -> tuple[float, float]:
    """(lr, momentum) at ``step`` of a ``total_steps``-step run: cosine warmup
    to lr_max over PCT_START of the run, cosine anneal to lr_max/DIV_FINAL
    after; momentum moves oppositely between MOM_HIGH and MOM_LOW."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    peak = PCT_START * total_steps
    if step <= peak:
        t = step / peak
        return _cos_interp(lr_max / DIV_START, lr_max, t), _cos_interp(MOM_HIGH, MOM_LOW, t)
    t = (step - peak) / (total_steps - peak)
    return _cos_interp(lr_max, lr_max / DIV_FINAL, t), _cos_interp(MOM_LOW, MOM_HIGH, t)


def discriminative_lrs(base_lr: float, n_groups: int) -> list[float]:
    """Geometric learning-rate ladder with ratio LR_FACTOR, lowest layer
    group first; the top group takes ``base_lr``."""
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    return [base_lr / LR_FACTOR ** (n_groups - 1 - i) for i in range(n_groups)]


# ---------------------------------------------------------------------------
# optimizers


def adam_step(params, state: dict, lr: float, momentum: float, weight_decay: float) -> None:
    """One decoupled-weight-decay Adam update; ``momentum`` is beta1.

    Each parameter's gradient is read unchecked, as ``clip_gradients`` has
    already refused any that is not finite. ``state`` maps each parameter
    object to its (m, v, step) and is owned by the caller; frozen parameters
    must not be passed in. The moments are updated in place and the step is
    formed in two scratch buffers shared by all parameters, in the order of
    lr * m_hat / (sqrt(v_hat) + eps).
    """
    params = list(params)
    size = max((p.data.size for p in params), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for p in params:
        g = p.grad
        entry = state.get(p)
        m, v, t = entry if entry is not None else (np.zeros_like(p.data), np.zeros_like(p.data), 0)
        t += 1
        a = scratch_a[: g.size].reshape(g.shape)
        b = scratch_b[: g.size].reshape(g.shape)
        m *= momentum
        m += np.multiply(g, 1.0 - momentum, out=a)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1.0 - momentum ** t, out=a)  # m_hat
        a *= lr
        np.divide(v, 1.0 - BETA2 ** t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        p.data -= a
        state[p] = (m, v, t)


def clip_gradients(params) -> float:
    """Scale every gradient so that their global norm is at most GRAD_CLIP,
    and return the norm before clipping. A norm that is not finite raises
    FloatingPointError before any gradient or parameter changes, naming the
    first parameter whose gradient holds NaN or inf. It is a step's only
    finiteness check: ``adam_step`` reads the gradients it passed unchecked."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        for p in params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                kind = "NaN" if np.isnan(p.grad).any() else "inf"
                raise FloatingPointError(f"{kind} gradient in parameter {p.name or '<unnamed>'}")
        raise FloatingPointError(f"gradient norm {norm} overflows; every gradient is finite")
    if norm > GRAD_CLIP:
        scale = GRAD_CLIP / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def optimizer_step(loss: Tensor, groups, lrs, momentum: float, state: dict,
                   weight_decay: float) -> None:
    """One training step after the forward pass: zero the gradients,
    backpropagate ``loss`` (which releases its graph), clip the global
    gradient norm to GRAD_CLIP, and take one Adam step per parameter group
    at that group's rate."""
    params = [p for g in groups for p in g]
    for p in params:
        p.zero_grad()
    T.backward(loss)
    clip_gradients(params)
    for g, lr in zip(groups, lrs):
        adam_step(g, state, lr, momentum, weight_decay)


# ---------------------------------------------------------------------------
# phase configuration and the stage loop


@dataclass
class PhaseConfig:
    """The hyperparameters one transfer-learning phase takes, each the value
    of a subcommand's option; the recipe's fixed settings are the module
    constants above, and the LM's AR and TAR coefficients are ``model``'s."""

    phase: str
    epochs: int
    lr: float
    batch_size: int
    bptt_len: int = 70
    dropout_multiplier: float = 0.5
    weight_decay: float = 0.0
    seed: int = 0
    preset: str = "tiny"
    # LM fine-tune only: last-group warm stage before training all layers
    stage1_lr: float = 4e-2
    stage1_epochs: ClassVar[int] = 1

    def __post_init__(self):
        # every site's rate, DROPOUT_RATES times the multiplier, stays below 1
        limit = 1.0 / max(DROPOUT_RATES.values())
        checks = [(name, "must be >= 1", getattr(self, name) >= 1)
                  for name in ("epochs", "batch_size", "bptt_len")]
        checks += [(name, "must be positive", getattr(self, name) > 0)
                   for name in ("lr", "stage1_lr")]
        checks += [("weight_decay", "must be >= 0", self.weight_decay >= 0),
                   ("dropout_multiplier", f"must be in [0, {limit:g})",
                    0 <= self.dropout_multiplier < limit)]
        # NaN fails every comparison, so it is refused too; inf passes them
        checks += [(name, "must be finite", math.isfinite(getattr(self, name)))
                   for name in ("lr", "stage1_lr", "weight_decay")]
        for name, rule, ok in checks:
            if not ok:
                raise SettingError(name, rule, getattr(self, name))


def pretrain_defaults(**overrides) -> PhaseConfig:
    cfg = PhaseConfig(phase="pretrain", epochs=20, lr=1e-2, batch_size=128)
    return replace(cfg, **overrides)


def lm_finetune_defaults(**overrides) -> PhaseConfig:
    # stage 1 (last group only) runs 1 epoch at 4e-2; stage 2 (all groups)
    # runs `epochs` at `lr`
    cfg = PhaseConfig(phase="lm-finetune", epochs=7, lr=4e-3, batch_size=128)
    return replace(cfg, **overrides)


def clf_finetune_defaults(**overrides) -> PhaseConfig:
    cfg = PhaseConfig(phase="clf-finetune", epochs=2, lr=5e-2, batch_size=64,
                      dropout_multiplier=0.3, weight_decay=0.1)
    return replace(cfg, **overrides)


@dataclass
class EpochMetrics:
    phase: str
    stage: int
    epoch: int
    train_loss: float
    valid_loss: float | None
    valid_accuracy: float | None
    seconds: float

    def as_line(self) -> str:
        vl = "" if self.valid_loss is None else f"{self.valid_loss:.6f}"
        va = "" if self.valid_accuracy is None else f"{self.valid_accuracy:.6f}"
        return (f"{self.phase},{self.stage},{self.epoch},{self.train_loss:.6f},"
                f"{vl},{va},{self.seconds:.3f}")


def _fit_stages(model, cfg: PhaseConfig, stages, steps_per_epoch: int, run_epoch, validate,
                groups_of) -> list[EpochMetrics]:
    """Train ``model`` through ``stages``, each a (``freeze_to`` index, epochs,
    peak rate) triple run under 1cycle with a fresh Adam state; returns one
    EpochMetrics per epoch. ``run_epoch(step)`` hands each of its
    ``steps_per_epoch`` batch losses to ``step`` and returns their mean;
    ``validate(last)`` runs once after every epoch and returns (loss,
    accuracy), either may be None; ``last`` is true after the final epoch of
    the final stage;
    ``groups_of()`` gives the trainable groups, lowest first. A non-finite
    loss (before backward) or gradient raises FloatingPointError naming the
    phase, stage and step."""
    metrics: list[EpochMetrics] = []
    for stage, (freeze, epochs, lr) in enumerate(stages, 1):
        model.freeze_to(freeze)
        groups = groups_of()
        adam_state: dict = {}
        done = 0

        def step(loss: Tensor) -> None:
            nonlocal done
            try:
                if not math.isfinite(loss.item()):
                    raise FloatingPointError(f"loss is {loss.item()}")
                lr_t, mom = one_cycle(done, lr, epochs * steps_per_epoch)
                optimizer_step(loss, groups, discriminative_lrs(lr_t, len(groups)), mom,
                               adam_state, cfg.weight_decay)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{cfg.phase} stage {stage} step {done + 1}: {exc}") from exc
            done += 1

        for epoch in range(1, epochs + 1):
            t0 = time.perf_counter()
            train_loss = run_epoch(step)
            valid_loss, valid_acc = validate(stage == len(stages) and epoch == epochs)
            metrics.append(EpochMetrics(cfg.phase, stage, epoch, train_loss, valid_loss,
                                        valid_acc, time.perf_counter() - t0))
    model.eval()
    return metrics


# ---------------------------------------------------------------------------
# language-model training


def batchify(streams: list[list[int]], batch_size: int) -> np.ndarray:
    """Concatenate streams into one token ribbon cut into batch_size rows."""
    flat = np.fromiter(itertools.chain.from_iterable(streams), dtype=np.int64)
    n = len(flat) // batch_size
    if n < 2:
        raise ValueError(f"corpus too small: {len(flat)} tokens cannot fill "
                         f"batch_size {batch_size}")
    return flat[: n * batch_size].reshape(batch_size, n)


def _lm_windows(data: np.ndarray, bptt: int):
    n = data.shape[1]
    for pos in range(0, n - 1, bptt):
        steps = min(bptt, n - 1 - pos)
        yield data[:, pos : pos + steps], data[:, pos + 1 : pos + 1 + steps]


def lm_windows_per_epoch(data: np.ndarray, bptt: int) -> int:
    return len(range(0, data.shape[1] - 1, bptt))


def lm_epoch(model: AwdLstmLM, data: np.ndarray, cfg: PhaseConfig, *, train: bool,
             step=None) -> tuple[float, int]:
    """One pass over the token ribbon; returns (mean token loss, windows run).
    In training each window's loss goes to ``step``, which takes the
    optimizer step. Without ``train`` it runs under ``no_grad``: the loss
    alone, no gradient work."""
    model.train() if train else model.eval()
    state = model.init_state(data.shape[0])
    total_ce, total_tokens, steps = 0.0, 0, 0
    with contextlib.nullcontext() if train else T.no_grad():
        for x, y in _lm_windows(data, cfg.bptt_len):
            loss, ce, state = model.forward(x, state, y)
            if train:
                step(loss)
            total_ce += ce * y.size
            total_tokens += y.size
            steps += 1
    return total_ce / total_tokens, steps


def _fit_lm(model: AwdLstmLM, train_corpus, valid_corpus, cfg: PhaseConfig, stages,
            on_valid=lambda loss, last: None) -> list[EpochMetrics]:
    """The stage loop over the corpora's token ribbons, with one optimizer
    group of the trainable parameters in ``named_parameters`` order;
    ``on_valid(loss, last)`` sees each validation loss, and whether it is
    the last epoch's."""
    train_data = batchify(train_corpus.streams, cfg.batch_size)
    try:
        valid_data = batchify(valid_corpus.streams, cfg.batch_size) if valid_corpus else None
    except ValueError as exc:
        raise ValueError(f"validation split: {exc}") from None

    def validate(last):
        if valid_data is None:
            return None, None
        loss, _ = lm_epoch(model, valid_data, cfg, train=False)
        on_valid(loss, last)
        return loss, None

    return _fit_stages(
        model, cfg, stages, lm_windows_per_epoch(train_data, cfg.bptt_len),
        lambda step: lm_epoch(model, train_data, cfg, train=True, step=step)[0], validate,
        lambda: [[p for _, p in model.named_parameters() if p.requires_grad]])


def pretrain_lm(train_corpus: NumericalizedCorpus, valid_corpus: NumericalizedCorpus | None,
                vocab_size: int, cfg: PhaseConfig) -> tuple[AwdLstmLM, list[EpochMetrics]]:
    """Train a language model from scratch with truncated BPTT under 1cycle.

    Returns the model restored to its best-validation-loss epoch (or the
    final epoch when no validation corpus is given) plus per-epoch metrics.
    """
    model = build_lm(vocab_size, preset=cfg.preset,
                     dropout_multiplier=cfg.dropout_multiplier, seed=cfg.seed)
    best = {"loss": math.inf, "state": None}

    def keep_best(loss, last):
        # the last epoch's weights are the model's own: no copy to take, and
        # none to restore when that epoch is the best
        if loss < best["loss"]:
            best.update(loss=loss, state=None if last else model.state_dict())

    metrics = _fit_lm(model, train_corpus, valid_corpus, cfg, [(0, cfg.epochs, cfg.lr)], keep_best)
    if best["state"] is not None:
        model.load_state_dict(best["state"])
    return model, metrics


def map_vocab(pretrained: AwdLstmLM, old_vocab: Vocabulary, new_vocab: Vocabulary) -> AwdLstmLM:
    """Re-home a pretrained LM onto a new vocabulary.

    Tokens present in both vocabularies keep their embedding rows and
    decoder bias entries; unseen tokens start at the mean pretrained
    embedding (and mean bias). The new model draws no weights, and every
    other array is copied once, straight from the pretrained model's own
    into the new model's.
    """
    new = AwdLstmLM(len(new_vocab), pretrained.emb_dim, pretrained.hid_dim, pretrained.n_layers,
                    draw=False)
    old_emb, old_bias = pretrained.embedding.data, pretrained.decoder_bias.data
    emb = np.tile(old_emb.mean(axis=0), (len(new_vocab), 1))
    bias = np.full(len(new_vocab), old_bias.mean())
    for new_id, token in enumerate(new_vocab.id_to_token):
        old_id = old_vocab.token_to_id.get(token)
        if old_id is not None:
            emb[new_id] = old_emb[old_id]
            bias[new_id] = old_bias[old_id]
    new.load_state_dict({**{name: p.data for name, p in pretrained.named_parameters()},
                         "embedding": emb, "decoder_bias": bias})
    return new


def finetune_lm(pretrained: AwdLstmLM, old_vocab: Vocabulary, new_vocab: Vocabulary,
                train_corpus: NumericalizedCorpus, valid_corpus: NumericalizedCorpus | None,
                cfg: PhaseConfig) -> tuple[AwdLstmLM, list[EpochMetrics]]:
    """Two-stage LM fine-tune on the target corpus: first the
    embedding/decoder group alone for one epoch at a high rate, then every
    group at a lower rate."""
    model = map_vocab(pretrained, old_vocab, new_vocab)
    model.reset_dropout(cfg.dropout_multiplier, cfg.seed)
    last = len(model.layer_groups()) - 1
    stages = [(last, cfg.stage1_epochs, cfg.stage1_lr), (0, cfg.epochs, cfg.lr)]
    return model, _fit_lm(model, train_corpus, valid_corpus, cfg, stages)


# ---------------------------------------------------------------------------
# classifier training


def make_clf_batches(corpus: NumericalizedCorpus, batch_size: int, order: np.ndarray):
    """Yield (ids, lengths, labels) per batch of ``batch_size`` examples,
    taken in ``order``, one batch at a time: each input is cut to its first
    MAX_LEN tokens and padded to the batch's longest."""
    for lo in range(0, len(order), batch_size):
        chunk = order[lo : lo + batch_size]
        seqs = [corpus.streams[i][:MAX_LEN] for i in chunk]
        lengths = np.array([max(len(s), 1) for s in seqs])
        ids = np.full((len(seqs), lengths.max()), PAD_ID, dtype=np.int64)
        for r, s in enumerate(seqs):
            ids[r, : len(s)] = s
        labels = np.array([corpus.labels[i] for i in chunk]) if corpus.labels is not None else None
        yield ids, lengths, labels


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float
    n: int


def per_example_losses(clf: TextClassifier, corpus: NumericalizedCorpus,
                       batch_size: int = 64) -> list[tuple[int, float, float]]:
    """(predicted label, loss, predicted probability) per example, in corpus
    order, in eval mode and under ``no_grad``, each input cut to its first
    MAX_LEN tokens. The loss is log-sum-exp of the logits minus the target
    logit, so it stays exact however far apart the logits are; an unlabeled
    corpus has NaN losses.

    Batches take the examples in stable order of length, so that each pads
    to little more than its own longest sequence."""
    clf.eval()
    order = np.argsort([len(s) for s in corpus.streams], kind="stable")
    pred = np.empty(len(order), dtype=np.int64)
    loss = np.empty(len(order))
    prob = np.empty(len(order))
    for lo, (ids, lengths, labels) in zip(range(0, len(order), batch_size),
                                          make_clf_batches(corpus, batch_size, order)):
        rows = order[lo : lo + batch_size]
        with T.no_grad():
            logits = clf.forward(ids, lengths).data
        z = logits - logits.max(axis=1, keepdims=True)
        total = np.exp(z).sum(axis=1)  # the predicted class's own term is exp(0) = 1
        pred[rows] = logits.argmax(axis=1)
        loss[rows] = np.nan if labels is None else np.log(total) - z[np.arange(len(rows)), labels]
        prob[rows] = 1.0 / total
    return list(zip(pred.tolist(), loss.tolist(), prob.tolist()))


def evaluate(clf: TextClassifier, corpus: NumericalizedCorpus,
             batch_size: int = 64) -> EvalResult:
    """Accuracy and mean cross-entropy on a labeled corpus, in eval mode."""
    if not corpus.streams:
        raise ValueError("evaluate: empty test set")
    if corpus.labels is None:
        raise ValueError("evaluate: corpus has no labels")
    stats = per_example_losses(clf, corpus, batch_size)
    correct = sum(pred == label for (pred, _, _), label in zip(stats, corpus.labels))
    return EvalResult(accuracy=correct / len(stats),
                      mean_loss=float(np.mean([loss for _, loss, _ in stats])), n=len(stats))


def require_both_labels(corpus: NumericalizedCorpus) -> None:
    if corpus.labels is None or len(set(corpus.labels)) < 2:
        raise ValueError("classifier training needs both labels present in the corpus")


def finetune_classifier(encoder: AwdLstmLM, train_corpus: NumericalizedCorpus,
                        valid_corpus: NumericalizedCorpus | None, cfg: PhaseConfig,
                        ) -> tuple[TextClassifier, list[EpochMetrics]]:
    """Gradual-unfreezing classifier fine-tune with discriminative rates.

    One stage per layer group: the head alone first, then one more group
    per stage, all groups in the last stage (which runs cfg.epochs epochs,
    the others one each). The stage base rate halves each stage and is
    spread across unfrozen groups by the geometric ladder; 1cycle runs
    within each stage. Dropout masks, the encoder's included, are drawn
    from cfg.seed.
    """
    require_both_labels(train_corpus)
    if valid_corpus is not None and not valid_corpus.streams:
        raise ValueError("finetune_classifier: empty validation set")
    clf = TextClassifier(encoder, seed=cfg.seed)
    encoder.reset_dropout(cfg.dropout_multiplier, cfg.seed)
    shuffle_rng = Rng(cfg.seed).child("clf-shuffle")
    n = len(train_corpus.streams)

    def run_epoch(step) -> float:
        clf.train()
        total_loss = 0.0
        for ids, lengths, labels in make_clf_batches(train_corpus, cfg.batch_size,
                                                     shuffle_rng.permutation(n)):
            loss = T.cross_entropy(clf.forward(ids, lengths), labels)
            step(loss)
            total_loss += loss.item() * len(labels)
        return total_loss / n

    def validate(last):
        if valid_corpus is None:
            return None, None
        result = evaluate(clf, valid_corpus, cfg.batch_size)
        return result.mean_loss, result.accuracy

    last = len(clf.layer_groups()) - 1
    stages = [(last - s, cfg.epochs if s == last else 1, cfg.lr / STAGE_LR_DECAY ** s)
              for s in range(last + 1)]
    return clf, _fit_stages(clf, cfg, stages, math.ceil(n / cfg.batch_size), run_epoch,
                            validate, clf.trainable_groups)


def config_header(snapshot: dict) -> str:
    """The resolved config as ``# key=value`` lines, sorted by key; it heads
    every metrics log and degradation report."""
    return "".join(f"# {key}={value}\n" for key, value in sorted(snapshot.items()))


def write_metrics_log(path, metrics: list[EpochMetrics], snapshot: dict) -> None:
    with atomic_open(path, encoding="utf-8") as f:
        f.write(config_header(snapshot))
        f.write(METRICS_HEADER + "\n")
        for m in metrics:
            f.write(m.as_line() + "\n")
