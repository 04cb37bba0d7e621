"""The three benchmark workloads.

Each workload has a set-up (timed, and repeated by the runner), a round (a
fixed list of ``ulmkit`` commands, run in-process through
``ulmkit.cli.main`` as a user runs them), a check of every round's outputs
against what the benchmark computes on its own, and its metrics.

- ``lm-pretrain-10k``: ``ulmkit pretrain`` on a generated ~10k-type corpus.
- ``degrade-fixture``: ``ulmkit degrade`` on ``fixtures/labeled.csv`` from a
  tiny LM pretrained on ``fixtures/corpus.txt`` during set-up.
- ``infer-10k``: ``ulmkit predict`` in a closed loop, then ``ulmkit eval`` and
  ``ulmkit top-losses``, on a classifier checkpoint over the generated
  vocabulary, made during set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen_inputs
import reference
from tracer import patch

from ulmkit import checkpoint, cli, evalbench, model, textpipe, train

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Command:
    argv: list[str]
    code: int
    seconds: float
    stdout: str
    stderr: str


def run_command(argv: list[str]) -> Command:
    """One ``ulmkit`` command, in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - an escaped error is a failed operation
            traceback.print_exc()
            code = -1
    return Command(argv, code, time.perf_counter() - start, out.getvalue(), err.getvalue())


# On a shared machine speed switches every few seconds between levels up to
# 1.5x apart. Whole commands and whole rounds are reported as the median
# over a run's rounds, which averages over those levels. For the training
# steps of ``pretrain``, 11 repeats of one operation a round, the fast end
# below was the steadier from run to run.


def fast_end(times: list[float]) -> float:
    """10th percentile of the times of one repeated operation (the minimum
    below ten samples)."""
    return statistics.quantiles(times, n=10)[0] if len(times) >= 10 else min(times)


def _sha(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class Round:
    commands: list[Command]
    seconds: float
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    KEEP_FREED_MEMORY = False  # see run.keep_freed_memory

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[Round] = []

    def setup(self, work_dir: str) -> None:
        raise NotImplementedError

    def captures(self) -> list[patch]:
        """Phase-level wrappers kept on in every round (two clock reads a call)."""
        return []

    def round(self) -> Round:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics every workload reports."""
        raise NotImplementedError

    def report(self) -> dict[str, tuple[float, str]]:
        """This workload's own end-to-end figures, named as in the README."""
        raise NotImplementedError

    def failed_commands(self) -> list[str]:
        return [f"{' '.join(c.argv[:1])} exited {c.code}: {c.stderr.strip()[-300:]}"
                for r in self.rounds for c in r.commands if c.code != 0]


# ---------------------------------------------------------------------------


class LmPretrain10k(Workload):
    """``ulmkit pretrain`` on ~14k tokens over 10,008 types (tiny preset)."""

    name = "lm-pretrain-10k"
    BATCH, BPTT, VALID = 16, 70, 0.1

    def setup(self, work_dir: str) -> None:
        self.dir = work_dir
        self.inputs = gen_inputs.write_inputs(self.seed, work_dir, labeled=False)
        streams = [gen_inputs.corpus_tokens(words) for words in self.inputs.lines]
        n_train, _ = checks.split_sizes(len(streams), 1.0 - self.VALID)
        order = checks.split_order(len(streams), self.seed)
        self.train_streams = [streams[i] for i in order[:n_train]]
        self.valid_streams = [streams[i] for i in order[n_train:]]
        self.n_train_tokens = sum(map(len, self.train_streams))
        self.words = {w for words in self.inputs.lines for w in words}

    def captures(self) -> list[patch]:
        # per round: (train?, ribbon size, mean loss, steps) per epoch, and the
        # seconds of each full-window training step; per epoch: step end clocks
        self.epochs: list[tuple[bool, int, float, int]] = []
        self.step_s: list[float] = []
        self.step_ends: list[float] = []

        def make_epoch(fn):
            def lm_epoch(model_, data, cfg, *, train, **kw):
                self.step_ends = [time.perf_counter()]
                loss, steps = fn(model_, data, cfg, train=train, **kw)
                self.epochs.append((train, data.size, loss, steps))
                # the last window of an epoch is shorter; leave it out
                self.step_s += list(np.diff(self.step_ends))[:-1]
                return loss, steps
            return lm_epoch

        def make_adam(fn):
            def adam_step(*args, **kw):
                fn(*args, **kw)
                self.step_ends.append(time.perf_counter())
            return adam_step
        return [patch(train, "lm_epoch", make_epoch), patch(train, "adam_step", make_adam)]

    def round(self) -> Round:
        out = os.path.join(self.dir, "lm.ckpt")
        self.epochs, self.step_s = [], []
        cmd = run_command(["pretrain", "--corpus", self.inputs.corpus_path, "--out", out,
                           "--preset", "tiny", "--epochs", "1",
                           "--batch-size", str(self.BATCH), "--bptt", str(self.BPTT),
                           "--valid-fraction", str(self.VALID), "--seed", str(self.seed)])
        extra = {"epochs": self.epochs, "steps": self.step_s}
        if cmd.code == 0:
            extra["sha"] = _sha(out)
            with open(out + ".log", encoding="utf-8") as f:
                extra["log"] = f.read()
        return Round([cmd], cmd.seconds, extra)

    def _train_tokens(self) -> int:
        rows, cols = checks.lm_ribbon_shape(self.n_train_tokens, self.BATCH)
        return rows * (cols - 1)

    def check(self) -> list[str]:
        first = self.rounds[0].extra
        if "sha" not in first:
            return []
        fails = []
        for i, r in enumerate(self.rounds[1:], 2):
            if r.extra.get("sha", first["sha"]) != first["sha"]:
                fails.append(f"round {i}: checkpoint differs from round 1 with the same seed")
        if len(first["epochs"]) != 2:
            return fails + [f"expected a training and a validation pass, got {first['epochs']}"]
        (tr, tr_size, _, tr_steps), (va, va_size, va_loss, _) = first["epochs"]
        if not tr or va:
            return fails + ["first pass was not training or second not validation"]
        fails += checks.check_lm_counts(self.n_train_tokens, self.BATCH, self.BPTT,
                                        tr_size, tr_steps)
        ck = reference.read_checkpoint(os.path.join(self.dir, "lm.ckpt"))
        expect_v = len(textpipe.SPECIALS) + len(self.words) + 1  # + "."
        if len(ck.vocab) != expect_v or not self.words <= set(ck.vocab):
            fails.append(f"vocabulary has {len(ck.vocab)} entries, expected {expect_v}")
        flat = np.array([i for s in self.valid_streams for i in ck.ids(s)])
        rows, cols = checks.lm_ribbon_shape(len(flat), self.BATCH)
        if va_size != rows * cols:
            fails.append(f"validation ribbon has {va_size} tokens, expected {rows * cols}")
        self.ref_valid_loss = reference.lm_mean_loss(ck, flat[: rows * cols].reshape(rows, cols))
        fails += checks.check_lm_valid_loss(va_loss, first["log"], self.ref_valid_loss,
                                            len(ck.vocab))
        return fails

    def metrics(self):
        steps = [s for r in self.rounds for s in r.extra["steps"]]
        return {"command_ms": (1e3 * statistics.median(r.seconds for r in self.rounds), "ms"),
                "tokens_per_s": (self.BATCH * self.BPTT / fast_end(steps), "tokens/s")}

    def report(self):
        out = {"lm_tokens_per_s": (statistics.median(self._train_tokens() / r.seconds
                                                     for r in self.rounds), "tokens/s")}
        if hasattr(self, "ref_valid_loss"):
            out["lm_valid_ppl"] = (math.exp(self.ref_valid_loss), "ppl")
        return out


# ---------------------------------------------------------------------------


class DegradeFixture(Workload):
    """``ulmkit degrade`` on the bundled fixtures: 3 fractions x 5 repeats.

    The suite's own seed is fixed: it picks the train/test split and the
    subsamples, and with them how many tokens each run trains on, so fixing
    it keeps the work the same from run to run. The benchmark seed seeds the
    language model pretrained during set-up, so the trained models and the
    checked outputs still change with it.
    """

    name = "degrade-fixture"
    FRACTIONS, REPEATS, BATCH, TRAIN_SPLIT = (1.0, 0.5, 0.1), 5, 8, 0.8
    EPOCHS = 1  # LM and classifier epochs: short rounds, so that a run holds several
    SUITE_SEED = 0

    def setup(self, work_dir: str) -> None:
        self.dir = work_dir
        self.lm_path = os.path.join(work_dir, "lm.ckpt")
        cmd = run_command(["pretrain", "--corpus", str(FIXTURES / "corpus.txt"),
                           "--out", self.lm_path, "--preset", "tiny", "--epochs", "2",
                           "--batch-size", "8", "--bptt", "35", "--seed", str(self.seed)])
        if cmd.code != 0:
            raise RuntimeError(f"set-up pretrain failed: {cmd.stderr.strip()}")
        with open(FIXTURES / "labeled.csv", encoding="utf-8", newline="") as f:
            self.labels = [int(row[1]) for row in list(csv.reader(f))[1:]]

    def captures(self) -> list[patch]:
        # per round: (tokens trained, seconds) per LM fine-tune, (examples
        # trained, seconds) per classifier fine-tune, and (classifier or None,
        # test corpus, EvalResult) per evaluate. Only the first round's first
        # repeat per fraction keeps its classifier, so that the captures add
        # little to the process's peak memory.
        self.lm_runs: list[tuple[int, float]] = []
        self.clf_runs: list[tuple[int, float]] = []
        self.evals: list[tuple[object, object, object]] = []

        def make_lm(fn):
            def finetune_lm(pretrained, old_vocab, new_vocab, corpus, valid, cfg):
                start = time.perf_counter()
                out = fn(pretrained, old_vocab, new_vocab, corpus, valid, cfg)
                seconds = time.perf_counter() - start
                n = sum(len(s) for s in corpus.streams if s) // cfg.batch_size
                epochs = cfg.stage1_epochs + cfg.epochs
                self.lm_runs.append((epochs * cfg.batch_size * (n - 1), seconds))
                return out
            return finetune_lm

        def make_clf(fn):
            def finetune_classifier(encoder, corpus, valid, cfg, **kw):
                start = time.perf_counter()
                clf, metrics = fn(encoder, corpus, valid, cfg, **kw)
                seconds = time.perf_counter() - start
                # one epoch per stage for all but the last of n_layers+1 stages
                epochs = encoder.n_layers + cfg.epochs
                self.clf_runs.append((epochs * len(corpus.streams), seconds))
                return clf, metrics
            return finetune_classifier

        def make_eval(fn):
            def evaluate(clf, corpus, *args, **kw):
                result = fn(clf, corpus, *args, **kw)
                keep = not self.rounds and len(self.evals) % self.REPEATS == 0
                self.evals.append((clf if keep else None, corpus, result))
                return result
            return evaluate

        return [patch(train, "finetune_lm", make_lm),
                patch(train, "finetune_classifier", make_clf),
                patch(evalbench, "evaluate", make_eval)]

    def round(self) -> Round:
        out = os.path.join(self.dir, "degradation.csv")
        self.lm_runs, self.clf_runs, self.evals = [], [], []
        cmd = run_command(["degrade", "--checkpoint", self.lm_path,
                           "--data", str(FIXTURES / "labeled.csv"), "--out", out,
                           "--fractions", ",".join(map(str, self.FRACTIONS)),
                           "--repeats", str(self.REPEATS), "--batch-size", str(self.BATCH),
                           "--lm-epochs", str(self.EPOCHS), "--clf-epochs", str(self.EPOCHS),
                           "--seed", str(self.SUITE_SEED)])
        extra = {"lm": self.lm_runs, "clf": self.clf_runs, "evals": self.evals}
        if cmd.code == 0:
            with open(out, encoding="utf-8") as f:
                extra["csv"] = f.read()
        return Round([cmd], cmd.seconds, extra)

    def check(self) -> list[str]:
        first = self.rounds[0].extra
        if "csv" not in first:
            return []
        fails = [f"round {i}: degradation CSV differs from round 1 with the same seed"
                 for i, r in enumerate(self.rounds[1:], 2)
                 if r.extra.get("csv", first["csv"]) != first["csv"]]
        n_train, n_test = checks.split_sizes(len(self.labels), self.TRAIN_SPLIT)
        fails += checks.check_degrade_csv(first["csv"], n_train, list(self.FRACTIONS),
                                          self.REPEATS)
        runs = len(self.FRACTIONS) * self.REPEATS
        if len(first["evals"]) != runs or len(first["clf"]) != runs:
            return fails + [f"expected {runs} fine-tune and evaluate runs, got "
                            f"{len(first['clf'])} and {len(first['evals'])}"]
        per_fraction = [first["evals"][i : i + self.REPEATS]
                        for i in range(0, runs, self.REPEATS)]
        fails += checks.check_degrade_means(
            first["csv"], [[(r.accuracy, r.mean_loss) for _, _, r in runs_]
                           for runs_ in per_fraction])
        order = checks.split_order(len(self.labels), self.SUITE_SEED)
        want_labels = [self.labels[i] for i in order[n_train:]]
        for frac, runs_ in zip(self.FRACTIONS, per_fraction):
            clf, corpus, result = runs_[0]
            if corpus.labels != want_labels:
                fails.append(f"fraction {frac}: test split labels differ from "
                             f"the benchmark's split of {n_test} rows")
                continue
            path = os.path.join(self.dir, f"rescore-{frac}.ckpt")
            checkpoint.save_checkpoint(path, clf, textpipe.Vocabulary(list(textpipe.SPECIALS)))
            ck = reference.read_checkpoint(path)
            logits = reference.classifier_logits(ck, corpus.streams)
            ref_acc = float(np.mean(logits.argmax(axis=1) == np.array(corpus.labels)))
            ref_loss = float(reference.example_losses(logits, corpus.labels).mean())
            fails += checks.check_rescore(f"fraction {frac} repeat 0",
                                          (result.accuracy, result.mean_loss),
                                          (ref_acc, ref_loss))
        return fails

    def _rate(self, key: str) -> float:
        """Work per second inside a fine-tune function: the work of a round's
        15 runs over their seconds, median over the rounds."""
        return statistics.median(sum(work for work, _ in r.extra[key])
                                 / sum(s for _, s in r.extra[key]) for r in self.rounds)

    def metrics(self):
        return {"command_ms": (1e3 * statistics.median(r.seconds for r in self.rounds), "ms"),
                "tokens_per_s": (self._rate("lm"), "tokens/s")}

    def report(self):
        return {"suite_s": (statistics.median(r.seconds for r in self.rounds), "s"),
                "lmft_tokens_per_s": (self._rate("lm"), "tokens/s"),
                "clf_examples_per_s": (self._rate("clf"), "examples/s")}


# ---------------------------------------------------------------------------


class Infer10k(Workload):
    """``predict`` x400 (closed loop, one client), ``eval`` x2, ``top-losses``.

    A round makes ten passes over the same 40 texts, with ``eval`` after the
    third and the eighth and ``top-losses`` after the fifth, so that the
    repeats of each operation spread over the whole round.
    """

    name = "infer-10k"
    KEEP_FREED_MEMORY = True
    TEXTS, PASSES, TOP_K = 40, 10, 20  # 400 predict calls a round
    SCORE_AFTER = {3: ("eval", "eval", []), 5: ("top", "top-losses", ["-k", str(TOP_K)]),
                   8: ("eval2", "eval", [])}  # pass: (key, command, extra arguments)

    def setup(self, work_dir: str) -> None:
        self.dir = work_dir
        self.inputs = gen_inputs.write_inputs(self.seed, work_dir)
        texts = textpipe.load_corpus_lines(self.inputs.corpus_path)
        vocab = textpipe.build_vocab(tok for t in texts for tok in textpipe.preprocess(t))
        clf = model.TextClassifier(model.build_lm(len(vocab), "tiny", seed=self.seed),
                                   seed=self.seed).eval()
        # Wider weights than the training init, so that outputs depend on the
        # input and the checks can tell one text's probability from another's.
        clf.encoder.embedding.data *= 10.0
        clf.W1.data *= 4.0
        clf.W2.data *= 20.0
        self.ckpt = os.path.join(work_dir, "clf.ckpt")
        checkpoint.save_checkpoint(self.ckpt, clf, vocab, config={"seed": self.seed},
                                   provenance=["benchmark set-up"])
        order = np.random.default_rng([self.seed, 3]).permutation(len(self.inputs.rows))
        self.predict_rows = [int(i) for i in order[: self.TEXTS]]

    def captures(self) -> list[patch]:
        self.batches: list[tuple[int, float]] | None = None  # (tokens, seconds) while scoring

        def make(fn):
            def forward(clf, ids, lengths):
                start = time.perf_counter()
                out = fn(clf, ids, lengths)
                if self.batches is not None:
                    self.batches.append((int(np.sum(lengths)), time.perf_counter() - start))
                return out
            return forward
        return [patch(model.TextClassifier, "forward", make)]

    def _score(self, command: str, extra: list[str]) -> tuple[Command, list]:
        self.batches = []
        cmd = run_command([command, "--checkpoint", self.ckpt,
                           "--data", self.inputs.csv_path] + extra)
        batches, self.batches = self.batches, None
        return cmd, batches

    def round(self) -> Round:
        passes, scored = [], {}
        for k in range(1, self.PASSES + 1):
            passes.append([run_command(["predict", "--checkpoint", self.ckpt, "--text",
                                        gen_inputs.render_text(self.inputs.rows[i][0])])
                           for i in self.predict_rows])
            if k in self.SCORE_AFTER:
                key, command, extra = self.SCORE_AFTER[k]
                scored[key] = self._score(command, extra)
        cmds = [c for p in passes for c in p] + [scored[key][0] for key, _, _ in
                                                 self.SCORE_AFTER.values()]
        return Round(cmds, sum(c.seconds for c in cmds), {"passes": passes, **scored})

    def check(self) -> list[str]:
        first = self.rounds[0].extra
        fails = [f"round {i}: output of {c.argv[0]} differs from round 1"
                 for i, r in enumerate(self.rounds[1:], 2)
                 for c, c1 in zip(r.commands, self.rounds[0].commands) if c.stdout != c1.stdout]
        if first["eval2"][0].stdout != first["eval"][0].stdout:
            fails.append("second eval output differs from the first")
        fails += [f"pass {k}: predict output differs from pass 1"
                  for k, p in enumerate(first["passes"][1:], 2)
                  for c, c1 in zip(p, first["passes"][0]) if c.stdout != c1.stdout]
        ck = reference.read_checkpoint(self.ckpt)
        rows = self.inputs.rows
        logits = reference.classifier_logits(
            ck, [ck.ids(gen_inputs.text_tokens(words)) for words, _ in rows])
        probs = reference.softmax(logits)
        labels = [label for _, label in rows]
        losses = reference.example_losses(logits, labels)
        for row, cmd in zip(self.predict_rows, first["passes"][0]):
            if cmd.code == 0:
                fails += checks.check_predict(cmd.stdout, probs[row])
        ev, top = first["eval"][0], first["top"][0]
        if ev.code == 0:
            acc = float(np.mean(probs.argmax(axis=1) == np.array(labels)))
            fails += checks.check_eval(ev.stdout, acc, float(losses.mean()), len(rows))
        if top.code == 0:
            row_of_text = {gen_inputs.render_text(words): i for i, (words, _) in enumerate(rows)}
            fails += checks.check_top_losses(top.stdout, self.TOP_K, row_of_text, losses,
                                             probs, labels)
        return fails

    def _predict_ms(self) -> list[float]:
        return [1e3 * c.seconds for r in self.rounds for p in r.extra["passes"] for c in p]

    def metrics(self):
        # eval and top-losses score the same batches
        runs = [r.extra[key][1] for r in self.rounds for key in ("eval", "top", "eval2")]
        tokens = sum(t for t, _ in runs[0])
        batch_s = [statistics.median(times) for times in zip(*[[s for _, s in run]
                                                                for run in runs])]
        eval_ms = [1e3 * r.extra[key][0].seconds
                   for r in self.rounds for key in ("eval", "eval2")]
        return {"command_ms": (statistics.median(eval_ms), "ms"),
                "tokens_per_s": (tokens / sum(batch_s), "tokens/s")}

    def report(self):
        n = len(self.inputs.rows)
        return {"predict_p50_ms": (statistics.median(self._predict_ms()), "ms"),
                "predict_p95_ms": (statistics.quantiles(self._predict_ms(), n=20)[-1], "ms"),
                "eval_examples_per_s": (statistics.median(
                    n / r.extra[key][0].seconds for r in self.rounds
                    for key in ("eval", "eval2")), "examples/s"),
                "top_losses_examples_per_s": (statistics.median(
                    n / r.extra["top"][0].seconds for r in self.rounds), "examples/s")}


WORKLOADS = {w.name: w for w in (LmPretrain10k, DegradeFixture, Infer10k)}
