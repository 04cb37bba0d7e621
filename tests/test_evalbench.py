"""Degradation protocol, evaluation, and loss-ranking tests."""

import contextlib
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulmkit import evalbench, train
from ulmkit import tensor as T
from ulmkit.model import build_lm
from ulmkit.textpipe import NumericalizedCorpus


def test_degradation_pct_reference_windows():
    assert 5.07 <= evalbench.degradation_pct(76.84, 72.83) <= 5.37
    assert 11.04 <= evalbench.degradation_pct(76.84, 68.24) <= 11.34


def test_degradation_pct_exact_cases():
    assert evalbench.degradation_pct(80.0, 76.0) == 5.0
    assert evalbench.degradation_pct(76.84, 76.84) == 0.0
    assert evalbench.degradation_pct(0.5, 0.5) == 0.0


def test_degradation_pct_sign_and_errors():
    assert evalbench.degradation_pct(50.0, 60.0) == -20.0  # improvement is negative
    with pytest.raises(ValueError):
        evalbench.degradation_pct(0.0, 10.0)
    with pytest.raises(ValueError):
        evalbench.degradation_pct(-1.0, 10.0)


@given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_degradation_pct_matches_formula(full, reduced):
    got = evalbench.degradation_pct(full, reduced)
    assert got == 100.0 * (full - reduced) / full


def labeled_corpus(n=40, seed=0):
    rng = np.random.default_rng(seed)
    streams, labels = [], []
    for i in range(n):
        label = i % 2
        tok = 7 if label == 0 else 8
        streams.append([2] + [tok] * 4 + rng.integers(9, 14, size=3).tolist())
        labels.append(label)
    return NumericalizedCorpus(streams, labels)


def test_subsample_determinism_and_size():
    corpus = labeled_corpus()
    a = evalbench.subsample_train(corpus, 0.5, seed=3)
    b = evalbench.subsample_train(corpus, 0.5, seed=3)
    assert a.streams == b.streams and a.labels == b.labels
    assert len(a.streams) == 20
    c = evalbench.subsample_train(corpus, 0.5, seed=4)
    assert c.streams != a.streams


def test_subsample_class_presence():
    corpus = labeled_corpus()
    for seed in range(20):
        sub = evalbench.subsample_train(corpus, 0.1, seed)
        assert set(sub.labels) == {0, 1}


def test_subsample_full_fraction_is_identity():
    corpus = labeled_corpus()
    assert evalbench.subsample_train(corpus, 1.0, seed=0) is corpus


def test_subsample_validation():
    corpus = labeled_corpus()
    with pytest.raises(ValueError):
        evalbench.subsample_train(corpus, 0.0, seed=0)
    with pytest.raises(ValueError):
        evalbench.subsample_train(corpus, 1.5, seed=0)
    with pytest.raises(ValueError):
        evalbench.subsample_train(NumericalizedCorpus([[2]] * 10, [0, 1] * 5), 0.1, seed=0)


def test_corpus_checksum_sensitivity():
    a = labeled_corpus()
    b = labeled_corpus()
    assert evalbench.corpus_checksum(a) == evalbench.corpus_checksum(b)
    b.labels = list(b.labels)
    b.labels[0] = 1 - b.labels[0]
    assert evalbench.corpus_checksum(a) != evalbench.corpus_checksum(b)


def test_evaluate_validation():
    clf = train.TextClassifier(build_lm(20, "tiny", seed=0), seed=0)
    with pytest.raises(ValueError, match="empty"):
        evalbench.evaluate(clf, NumericalizedCorpus([]))
    with pytest.raises(ValueError, match="labels"):
        evalbench.evaluate(clf, NumericalizedCorpus([[2, 7]]))


def test_evaluate_perfect_and_chance_bounds():
    corpus = labeled_corpus(n=10)
    clf = train.TextClassifier(build_lm(20, "tiny", dropout_multiplier=0.0, seed=0), seed=0)
    result = evalbench.evaluate(clf, corpus)
    assert result.n == 10
    assert 0.0 <= result.accuracy <= 1.0
    assert result.mean_loss > 0.0


def suite_inputs():
    corpus = labeled_corpus(n=40)
    test = labeled_corpus(n=12, seed=9)
    lm = build_lm(20, "tiny", dropout_multiplier=0.1, seed=0)
    from ulmkit.textpipe import Vocabulary

    vocab = Vocabulary([f"t{i}" for i in range(20)])
    lm_cfg = train.lm_finetune_defaults(epochs=1, batch_size=2, bptt_len=10,
                                        dropout_multiplier=0.1, lr=4e-4, stage1_lr=4e-3)
    clf_cfg = train.clf_finetune_defaults(epochs=1, batch_size=8, dropout_multiplier=0.1)
    return lm, vocab, corpus, test, lm_cfg, clf_cfg


def test_degradation_suite_structure_and_zero_full_split():
    lm, vocab, corpus, test, lm_cfg, clf_cfg = suite_inputs()
    report = evalbench.run_degradation_suite(lm, vocab, vocab, corpus, test,
                                             lm_cfg, clf_cfg, fractions=(1.0, 0.5),
                                             repeats=2, base_seed=0)
    assert len(report.rows) == 2
    assert report.rows[0].fraction == 1.0
    assert report.rows[0].degradation_pct == 0.0  # bit-exact by construction
    for row in report.rows:
        assert row.repeats == 2
    assert report.test_checksum == evalbench.corpus_checksum(test)
    csv = report.to_csv().splitlines()
    assert csv[0] == evalbench.DegradationReport.CSV_HEADER
    assert len(csv) == 3
    assert len(report.to_table().splitlines()) == 3


def test_degradation_suite_rerun_identical():
    lm, vocab, corpus, test, lm_cfg, clf_cfg = suite_inputs()
    r1 = evalbench.run_degradation_suite(lm, vocab, vocab, corpus, test,
                                         lm_cfg, clf_cfg, fractions=(1.0, 0.5),
                                         repeats=2, base_seed=7)
    r2 = evalbench.run_degradation_suite(lm, vocab, vocab, corpus, test,
                                         lm_cfg, clf_cfg, fractions=(1.0, 0.5),
                                         repeats=2, base_seed=7)
    assert r1.to_csv() == r2.to_csv()


def test_degradation_suite_failure_carries_partial_report(monkeypatch):
    lm, vocab, corpus, test, lm_cfg, clf_cfg = suite_inputs()
    real = evalbench.finetune_classifier

    def finetune_classifier(encoder, sub, valid, cfg):  # fails on the subsample only
        if len(sub.streams) < len(corpus.streams):
            raise FloatingPointError("NaN gradient in parameter head.W1")
        return real(encoder, sub, valid, cfg)

    monkeypatch.setattr(evalbench, "finetune_classifier", finetune_classifier)
    with pytest.raises(evalbench.DegradationSuiteError) as exc:
        evalbench.run_degradation_suite(lm, vocab, vocab, corpus, test,
                                        lm_cfg, clf_cfg, fractions=(1.0, 0.5),
                                        repeats=1, base_seed=0)
    message = str(exc.value)
    assert "fraction=0.5 repeat=0: NaN gradient" in message
    partial = message.split("partial report:\n", 1)[1].splitlines()
    assert partial[0] == evalbench.DegradationReport.CSV_HEADER
    assert [row.split(",")[0] for row in partial[1:]] == ["1.0"]


def mutated_test_set_error() -> str:
    """The cause of the error a one-run suite raises when its classifier
    fine-tune flips a label of the test set."""
    lm, vocab, corpus, test, lm_cfg, clf_cfg = suite_inputs()
    real = evalbench.finetune_classifier

    def finetune_classifier(encoder, sub, valid, cfg):
        test.labels[0] = 1 - test.labels[0]
        return real(encoder, sub, valid, cfg)

    with mock.patch.object(evalbench, "finetune_classifier", finetune_classifier):
        try:
            evalbench.run_degradation_suite(lm, vocab, vocab, corpus, test, lm_cfg, clf_cfg,
                                            fractions=(1.0,), repeats=1, base_seed=0)
        except evalbench.DegradationSuiteError as exc:
            return f"{type(exc.__cause__).__name__}: {exc.__cause__}"
    return "no error"


def test_degradation_suite_refuses_a_mutated_test_set():
    assert mutated_test_set_error() == "RuntimeError: test set mutated"


def test_degradation_suite_refuses_a_mutated_test_set_under_python_o():
    # -O strips assert statements; the guard must not be one
    tests = pathlib.Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(pathlib.Path(evalbench.__file__).resolve().parent.parent),
                      str(tests), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "import sys, test_evalbench as t; "
         "print(sys.flags.optimize, t.mutated_test_set_error())"],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 RuntimeError: test set mutated"


def test_top_losses_brute_force_ranking():
    corpus = labeled_corpus(n=10)
    clf = train.TextClassifier(build_lm(20, "tiny", dropout_multiplier=0.0, seed=1), seed=1)
    stats = evalbench.per_example_losses(clf, corpus)
    ranked = evalbench.top_losses(clf, corpus, k=4, texts=[f"ex{i}" for i in range(10)])
    losses = sorted((s[1] for s in stats), reverse=True)
    assert [r.loss for r in ranked] == losses[:4]
    for r in ranked:
        assert r.target in (0, 1) and 0.0 <= r.probability <= 1.0
        assert r.text.startswith("ex")


def test_top_losses_validation():
    corpus = labeled_corpus(n=4)
    clf = train.TextClassifier(build_lm(20, "tiny", seed=0), seed=0)
    with pytest.raises(ValueError):
        evalbench.top_losses(clf, corpus, k=0)
    with pytest.raises(ValueError):
        evalbench.top_losses(clf, corpus, k=5)
    with pytest.raises(ValueError):
        evalbench.top_losses(clf, NumericalizedCorpus([[2]]), k=1)


def test_scoring_exact_on_saturated_logits(monkeypatch):
    # head weights scaled so that every logit gap is in the thousands, far
    # past where exp underflows and a clamped -log(p) would read 690.7755;
    # the reference forward records a graph, and stays float64 as scoring is
    monkeypatch.setattr(T, "F32_MIN_HIDDEN", np.inf)
    corpus = labeled_corpus(n=10)
    clf = train.TextClassifier(build_lm(20, "tiny", dropout_multiplier=0.0, seed=1), seed=1)
    clf.W2.data *= 1e7
    (ids, lengths, labels), = train.make_clf_batches(corpus, 64, np.arange(10))
    logits = clf.eval().forward(ids, lengths).data
    expected = np.logaddexp.reduce(logits, axis=1) - logits[np.arange(10), labels]
    assert expected.max() > 745.0

    losses = [loss for _, loss, _ in evalbench.per_example_losses(clf, corpus)]
    np.testing.assert_allclose(losses, expected, rtol=0, atol=1e-9)
    assert np.mean(losses) == evalbench.evaluate(clf, corpus).mean_loss

    texts = [f"ex{i}" for i in range(10)]
    wrong = int((expected > 0).sum())
    ranked = evalbench.top_losses(clf, corpus, k=wrong, texts=texts)
    assert [r.text for r in ranked] == [texts[i] for i in np.argsort(-expected)[:wrong]]
    ranked_losses = [r.loss for r in ranked]
    assert all(a > b for a, b in zip(ranked_losses, ranked_losses[1:]))


def test_scoring_builds_no_cross_entropy_node(monkeypatch):
    calls = []
    real = T.cross_entropy
    monkeypatch.setattr(T, "cross_entropy", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    corpus = labeled_corpus(n=10)
    clf = train.TextClassifier(build_lm(20, "tiny", dropout_multiplier=0.0, seed=0), seed=0)
    evalbench.evaluate(clf, corpus)
    evalbench.top_losses(clf, corpus, k=3)
    assert calls == []


def test_scoring_records_no_graph_node(monkeypatch):
    corpus = labeled_corpus(n=10)
    clf = train.TextClassifier(build_lm(20, "tiny", seed=0), seed=0)
    tracked = []
    real = T._make
    monkeypatch.setattr(T, "_make", lambda data, parents, bwd: tracked.append(
        T._tracked(*parents)) or real(data, parents, bwd))
    stats = evalbench.per_example_losses(clf, corpus)
    assert tracked and not any(tracked)
    # the same numbers, bit for bit, as scoring with the graph recorded in
    # float64
    monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
    monkeypatch.setattr(T, "F32_MIN_HIDDEN", np.inf)
    tracked.clear()
    assert evalbench.per_example_losses(clf, corpus) == stats
    assert any(tracked)
