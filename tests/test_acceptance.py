"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
The slow criteria (overfit oracles, transfer benefit, degradation
protocol) train real models on bundled or synthetic data and stay within
their stated time budgets on a desktop CPU.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import VERDICTS
from ulmkit import checkpoint as ck
from ulmkit import evalbench, tensor as T, textpipe as tp, train
from ulmkit.model import AwdLstmLM, TextClassifier, build_lm
from ulmkit.textpipe import NumericalizedCorpus


def verdict(ok: bool, name: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{tag}] {name}{suffix}"
    VERDICTS.append(line)
    print(line)
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_gradient_correctness():
    t0 = time.perf_counter()
    model = AwdLstmLM(11, 4, 6, 2, dropout_multiplier=0.0, seed=0)
    model.train()
    rng = np.random.default_rng(0)
    x = rng.integers(0, 11, size=(2, 5))
    y = rng.integers(0, 11, size=(2, 5))
    cfg = train.pretrain_defaults(epochs=1, batch_size=2, ar_alpha=2.0, tar_beta=1.0)

    def loss_value():
        loss, _, _ = train.lm_loss_terms(model, x, y, model.init_state(2), cfg)
        return loss

    loss = loss_value()
    params = [p for _, p in model.named_parameters()]
    for p in params:
        p.zero_grad()
    T.backward(loss)

    worst = 0.0
    eps = 1e-6
    for _, p in model.named_parameters():
        analytic = p.grad.copy()
        fd = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = p.data[i]
            p.data[i] = orig + eps
            hi = loss_value().item()
            p.data[i] = orig - eps
            lo = loss_value().item()
            p.data[i] = orig
            fd[i] = (hi - lo) / (2 * eps)
            it.iternext()
        rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    verdict(worst < 1e-4 and elapsed < 60,
            "gradient correctness: full-model analytic vs central differences",
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. degradation arithmetic


def test_degradation_arithmetic():
    a = evalbench.degradation_pct(76.84, 72.83)
    b = evalbench.degradation_pct(76.84, 68.24)
    ok = (5.07 <= a <= 5.37) and (11.04 <= b <= 11.34)
    ok = ok and evalbench.degradation_pct(80.0, 76.0) == 5.0
    ok = ok and all(evalbench.degradation_pct(x, x) == 0.0 for x in (0.1, 50.0, 76.84))
    verdict(ok, "degradation arithmetic: reference windows and exact cases",
            f"{a:.4f}%, {b:.4f}%")


# ---------------------------------------------------------------------------
# 3. overfit oracles


def fixture_streams(corpus_path):
    texts = tp.load_corpus_lines(corpus_path)
    token_lists = [tp.preprocess(t) for t in texts]
    vocab = tp.build_vocab(t for toks in token_lists for t in toks)
    return [tp.numericalize(toks, vocab) for toks in token_lists], vocab


def test_lm_overfit_oracle(corpus_path):
    t0 = time.perf_counter()
    streams, vocab = fixture_streams(corpus_path)
    cfg = train.pretrain_defaults(epochs=30, batch_size=4, bptt_len=35, seed=1, lr=1e-2,
                                  dropout_multiplier=0.0, ar_alpha=0.0, tar_beta=0.0)
    _, metrics = train.pretrain_lm(NumericalizedCorpus(streams), None, len(vocab), cfg)
    ppl = math.exp(metrics[-1].train_loss)
    elapsed = time.perf_counter() - t0
    verdict(ppl < 1.5 and elapsed < 300,
            "overfit oracle: LM train perplexity < 1.5 on the bundled corpus",
            f"ppl {ppl:.3f} after {len(metrics)} epochs, {elapsed:.0f}s")


def test_classifier_overfit_oracle():
    t0 = time.perf_counter()
    words = ["masarap", "pangit", "maganda", "bobo"]
    nouns = ["bata", "guro", "aso", "pusa"]
    texts = [f"{w} talaga ang {n}" for w in words for n in nouns]
    labels = [1 if w in ("pangit", "bobo") else 0 for w in words for _ in nouns]
    token_lists = [tp.preprocess(t) for t in texts]
    vocab = tp.build_vocab(t for toks in token_lists for t in toks)
    corpus = NumericalizedCorpus([tp.numericalize(toks, vocab) for toks in token_lists],
                                 labels)
    enc = build_lm(len(vocab), "tiny", dropout_multiplier=0.0, seed=0)
    cfg = train.clf_finetune_defaults(seed=0, batch_size=4, dropout_multiplier=0.0,
                                      weight_decay=0.0)
    clf, _ = train.finetune_classifier(enc, corpus, None, cfg)
    acc = train.evaluate(clf, corpus).accuracy
    elapsed = time.perf_counter() - t0
    verdict(acc == 1.0 and elapsed < 120,
            "overfit oracle: classifier reaches 100% on 16 toy examples",
            f"accuracy {acc:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. transfer benefit on a synthetic two-dialect corpus


def two_dialect_data():
    """Dialect A for pretraining, dialect B for the labeled task.

    Twenty sentiment words in two families; in dialect A each sentence ends
    with three adjective tokens fully determined by the family, so a
    language model must carry family identity through its state. Dialect B
    uses different syntax, and the labels follow the families.
    """
    pos = [f"galak{i}" for i in range(10)]
    neg = [f"lungkot{i}" for i in range(10)]
    nouns = ["bata", "guro", "aso", "pusa", "tindera", "drayber"]
    rng = np.random.default_rng(7)

    def pre_line():
        is_pos = rng.random() < 0.5
        w = rng.choice(pos if is_pos else neg)
        m1 = "masaya" if is_pos else "malungkot"
        m2 = "maganda" if is_pos else "pangit"
        m3 = "mabuti" if is_pos else "masama"
        return f"si {rng.choice(nouns)} ay {w} {m1} {m2} {m3}"

    def b_line(w):
        return f"sobrang {w} ng {rng.choice(nouns)}"

    pre_texts = [pre_line() for _ in range(400)]
    train_words = [(pos if i % 2 == 0 else neg)[rng.integers(10)] for i in range(100)]
    train_texts = [b_line(w) for w in train_words]
    train_labels = [0 if w.startswith("galak") else 1 for w in train_words]
    test_words = [pos[i % 10] if i % 2 == 0 else neg[i % 10] for i in range(60)]
    test_texts = [b_line(w) for w in test_words]
    test_labels = [0 if i % 2 == 0 else 1 for i in range(60)]

    toks_pre = [tp.preprocess(t) for t in pre_texts]
    toks_tr = [tp.preprocess(t) for t in train_texts]
    toks_te = [tp.preprocess(t) for t in test_texts]
    vocab = tp.build_vocab(t for d in toks_pre for t in d)
    vocab_t = tp.build_vocab(t for d in toks_pre + toks_tr + toks_te for t in d)
    pre_c = NumericalizedCorpus([tp.numericalize(t, vocab) for t in toks_pre])
    tr_c = NumericalizedCorpus([tp.numericalize(t, vocab_t) for t in toks_tr],
                               train_labels)
    te_c = NumericalizedCorpus([tp.numericalize(t, vocab_t) for t in toks_te],
                               test_labels)
    return vocab, vocab_t, pre_c, tr_c, te_c


def test_transfer_benefit():
    vocab, vocab_t, pre_c, tr_c, te_c = two_dialect_data()
    pcfg = train.pretrain_defaults(epochs=40, batch_size=4, bptt_len=30, seed=0,
                                   dropout_multiplier=0.0, lr=1e-2,
                                   ar_alpha=0.0, tar_beta=0.0)
    lm, _ = train.pretrain_lm(pre_c, None, len(vocab.id_to_token), pcfg)

    lm_cfg = train.lm_finetune_defaults(epochs=1, batch_size=2, bptt_len=20,
                                        dropout_multiplier=0.1, lr=4e-4, stage1_lr=4e-3,
                                        ar_alpha=0.0, tar_beta=0.0)
    clf_cfg = train.clf_finetune_defaults(epochs=12, batch_size=2, dropout_multiplier=0.1)

    wins = 0
    scores = []
    for seed in range(5):
        sub = evalbench.subsample_train(tr_c, 0.1, seed)
        lm_ft, _ = train.finetune_lm(lm, vocab, vocab_t, NumericalizedCorpus(sub.streams),
                                     None, replace(lm_cfg, seed=seed))
        clf, _ = train.finetune_classifier(lm_ft, sub, None, replace(clf_cfg, seed=seed))
        acc_transfer = evalbench.evaluate(clf, te_c).accuracy

        scratch = build_lm(len(vocab_t.id_to_token), "tiny", dropout_multiplier=0.1,
                           seed=seed)
        clf_s, _ = train.finetune_classifier(scratch, sub, None, replace(clf_cfg, seed=seed))
        acc_scratch = evalbench.evaluate(clf_s, te_c).accuracy
        wins += acc_transfer > acc_scratch
        scores.append((acc_transfer, acc_scratch))
    detail = ", ".join(f"{t:.2f}>{s:.2f}" for t, s in scores)
    verdict(wins >= 4, "transfer benefit: pretrained beats from-scratch on 10% split",
            f"{wins}/5 seeds: {detail}")


# ---------------------------------------------------------------------------
# 5. schedule exactness


def test_schedule_exactness():
    cfg = train.OneCycleConfig(lr_max=5e-2, total_steps=400)
    lr0, mom0 = train.one_cycle(0, cfg)
    lr_peak, mom_peak = train.one_cycle(100, cfg)
    lr_end, mom_end = train.one_cycle(400, cfg)
    ok = (abs(lr0 - 5e-2 / 25.0) < 1e-12 and abs(lr_peak - 5e-2) < 1e-12
          and abs(lr_end - 5e-2 / 1e5) < 1e-12)
    ok = ok and abs(mom0 - 0.8) < 1e-12 and abs(mom_peak - 0.7) < 1e-12 \
        and abs(mom_end - 0.8) < 1e-12

    lrs = train.discriminative_lrs(5e-2, 4, 2.6)
    expect = [5e-2 / 2.6**3, 5e-2 / 2.6**2, 5e-2 / 2.6, 5e-2]
    ok = ok and all(abs(g - w) / w < 1e-6 for g, w in zip(lrs, expect))
    verdict(ok, "schedule exactness: 1cycle endpoints and discriminative ladder",
            f"ladder {', '.join(f'{x:.4e}' for x in lrs)}")


# ---------------------------------------------------------------------------
# 6. degradation-suite protocol


def fixture_split(labeled_path):
    records = tp.load_labeled_csv(labeled_path)
    toks = [tp.preprocess(t) for t, _ in records]
    vocab = tp.build_vocab(t for tl in toks for t in tl)
    streams = [tp.numericalize(tl, vocab) for tl in toks]
    recs = list(zip(streams, [l for _, l in records]))
    tr, te = tp.split_corpus(recs, (0.8, 0.2), 9)
    train_c = NumericalizedCorpus([s for s, _ in tr], [l for _, l in tr])
    test_c = NumericalizedCorpus([s for s, _ in te], [l for _, l in te])
    return vocab, train_c, test_c


def test_degradation_suite_protocol(labeled_path):
    vocab, train_c, test_c = fixture_split(labeled_path)
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    lm_cfg = train.lm_finetune_defaults(epochs=1, batch_size=4, bptt_len=20,
                                        dropout_multiplier=0.1, lr=4e-4, stage1_lr=4e-3)
    clf_cfg = train.clf_finetune_defaults(epochs=6, batch_size=4, dropout_multiplier=0.1)

    def suite(base_seed):
        return evalbench.run_degradation_suite(
            lm, vocab, vocab, train_c, test_c, lm_cfg, clf_cfg,
            fractions=(1.0, 0.5, 0.1), repeats=5, base_seed=base_seed)

    monotone = 0
    first = None
    for base_seed in (0, 100, 200, 300, 400):
        report = suite(base_seed)
        if base_seed == 0:
            first = report
        accs = [r.mean_accuracy for r in report.rows]
        monotone += all(accs[i] >= accs[i + 1] for i in range(len(accs) - 1))

    structural = (len(first.rows) == 3
                  and first.rows[0].fraction == 1.0
                  and first.rows[0].degradation_pct == 0.0
                  and all(r.repeats == 5 for r in first.rows))
    rerun = suite(0).to_csv() == first.to_csv()
    verdict(structural and rerun and monotone >= 4,
            "degradation protocol: 3-row report, exact 0% full split, "
            "rerun-identical, accuracy monotone",
            f"monotone {monotone}/5 suite seeds")


# ---------------------------------------------------------------------------
# 7. freezing and tying


def test_freezing_and_tying():
    rng = np.random.default_rng(0)
    streams = [[2] + rng.integers(5, 18, size=8).tolist() for i in range(16)]
    corpus = NumericalizedCorpus(streams, [i % 2 for i in range(16)])
    lm = build_lm(20, "tiny", dropout_multiplier=0.0, seed=0)
    clf = TextClassifier(lm, seed=0)
    cfg = train.clf_finetune_defaults(epochs=1, batch_size=4, dropout_multiplier=0.0,
                                      seed=0)

    def checksums(groups):
        return [sum(float(np.abs(p.data).sum()) for p in g) for g in groups]

    ok = True
    n_groups = len(clf.layer_groups())
    for stage in range(n_groups):
        clf.freeze_to(n_groups - 1 - stage)
        groups = clf.layer_groups()
        frozen = [g for g in groups if not g[0].requires_grad]
        before = checksums(frozen)
        trainable = [p for g in clf.trainable_groups() for p in g]
        clf.train()
        for ids, lengths, labels in train.make_clf_batches(corpus, cfg.batch_size, 400):
            loss = T.cross_entropy(clf.forward(ids, lengths), labels)
            for p in trainable:
                p.zero_grad()
            T.backward(loss)
            train.adam_step(trainable, {}, 1e-2, 0.8, 0.0)
        ok = ok and checksums(frozen) == before

    # tying: the decoder weight is the embedding storage, before and after updates
    lm.train()
    clf.freeze_to(0)
    names = [n for n, _ in lm.named_parameters()]
    ok = ok and names.count("embedding") == 1 and not any("decoder.W" in n for n in names)
    ids = np.array([[2, 5, 6, 7]])
    lm.eval()
    logits, _, raw, dropped = lm.forward(ids)
    manual = dropped.data.reshape(-1, lm.emb_dim) @ lm.embedding.data.T \
        + lm.decoder_bias.data
    ok = ok and np.allclose(logits.data.reshape(-1, 20), manual, atol=1e-12)
    verdict(ok, "freezing and tying: frozen checksums constant, decoder shares "
                "embedding storage")


# ---------------------------------------------------------------------------
# 8. checkpoint round-trip


def test_checkpoint_roundtrip(tmp_path, corpus_path):
    streams, vocab = fixture_streams(corpus_path)
    train_s, valid_s = streams[:160], streams[160:]
    cfg = train.pretrain_defaults(epochs=2, batch_size=4, bptt_len=35, seed=2,
                                  dropout_multiplier=0.1)
    model, metrics = train.pretrain_lm(NumericalizedCorpus(train_s),
                                       NumericalizedCorpus(valid_s), len(vocab), cfg)
    recorded = min(m.valid_loss for m in metrics)
    path = tmp_path / "lm.ckpt"
    ck.save_checkpoint(path, model, vocab, config={"seed": 2})
    reloaded = ck.load_checkpoint(path).build_model()
    valid_data = train.batchify(valid_s, cfg.batch_size)
    replayed, _ = train.lm_epoch(reloaded, valid_data, cfg, train=False)
    drift = abs(replayed - recorded)

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0x40
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    try:
        ck.load_checkpoint(bad)
        rejected = False
    except ck.CheckpointError:
        rejected = True
    verdict(drift < 1e-9 and rejected,
            "checkpoint round-trip: valid loss reproduced, corruption rejected",
            f"drift {drift:.2e}")


# ---------------------------------------------------------------------------
# 9. tokenizer and vocabulary


def test_tokenizer_and_vocab(preprocess_cases_path):
    import json

    with open(preprocess_cases_path, encoding="utf-8") as f:
        cases = json.load(f)
    fixture_ok = len(cases) == 20 and all(
        tp.preprocess(c["text"]) == c["tokens"] for c in cases)
    big = (f"token{i}" for i in range(70000))
    cap_ok = len(tp.build_vocab(big)) <= 60000
    verdict(fixture_ok and cap_ok,
            "tokenizer/vocab: 20-string fixture exact, vocabulary capped at 60000")
