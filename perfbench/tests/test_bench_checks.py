"""Tests for the benchmark's own checks: the numpy reference agrees with
ulmkit, and every output check rejects a planted wrong output.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen_inputs  # noqa: E402
import reference  # noqa: E402
from ulmkit import checkpoint, model, textpipe, train  # noqa: E402

REL = 1e-9


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


@pytest.fixture(scope="module")
def vocab():
    return textpipe.Vocabulary(list(textpipe.SPECIALS) + [f"w{i}" for i in range(33)])


@pytest.fixture(scope="module")
def lm_path(tmp_path_factory, vocab):
    lm = model.AwdLstmLM(len(vocab), emb_dim=6, hid_dim=10, n_layers=2, seed=5).eval()
    path = tmp_path_factory.mktemp("ck") / "lm.ckpt"
    checkpoint.save_checkpoint(path, lm, vocab)
    return path


@pytest.fixture(scope="module")
def clf_path(tmp_path_factory, vocab):
    clf = model.TextClassifier(model.AwdLstmLM(len(vocab), 6, 10, 3, seed=2), seed=2).eval()
    clf.encoder.embedding.data *= 10.0
    clf.W2.data *= 20.0
    path = tmp_path_factory.mktemp("ck") / "clf.ckpt"
    checkpoint.save_checkpoint(path, clf, vocab)
    return path


def test_reference_matches_lm_forward(lm_path):
    lm = checkpoint.load_checkpoint(lm_path).build_model()
    ck = reference.read_checkpoint(lm_path)
    ids = np.random.default_rng(0).integers(0, len(ck.vocab), size=(3, 9))
    logits = lm.forward(ids)[0].data
    assert _rel(reference.decode(ck, reference.encode(ck, ids)), logits) < REL


def test_reference_matches_windowed_lm_eval_with_carried_state(lm_path):
    lm = checkpoint.load_checkpoint(lm_path).build_model()
    ck = reference.read_checkpoint(lm_path)
    ribbon = np.random.default_rng(1).integers(0, len(ck.vocab), size=(4, 40))
    loss, steps = train.lm_epoch(lm, ribbon, train.pretrain_defaults(batch_size=4, bptt_len=7),
                                 train=False)
    assert steps == checks.lm_windows(40, 7)
    assert math.isclose(reference.lm_mean_loss(ck, ribbon, chunk=11), loss, rel_tol=REL)


def test_reference_matches_classifier_forward(clf_path):
    clf = checkpoint.load_checkpoint(clf_path).build_model()
    ck = reference.read_checkpoint(clf_path)
    rng = np.random.default_rng(2)
    seqs = [list(rng.integers(0, len(ck.vocab), size=n)) for n in (1, 4, 9, 4, 6)]
    ids = np.full((len(seqs), 9), textpipe.PAD_ID)
    for r, s in enumerate(seqs):
        ids[r, : len(s)] = s
    logits = clf.forward(ids, np.array([len(s) for s in seqs])).data
    assert _rel(reference.classifier_logits(ck, seqs), logits) < REL


def test_reader_rejects_a_corrupted_checkpoint(lm_path, tmp_path):
    blob = bytearray(Path(lm_path).read_bytes())
    blob[-10] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="CRC32"):
        reference.read_checkpoint(bad)


def test_generator_tokens_match_ulmkit_tokenizer():
    lexicon, lines = gen_inputs.make_corpus(3)
    assert len({w for words in lines for w in words}) == gen_inputs.N_TYPES
    for words in lines:
        tokens = textpipe.preprocess(gen_inputs.render_line(words))
        assert tokens == gen_inputs.corpus_tokens(words)
    for words, _ in gen_inputs.make_labeled(3, lexicon)[:300]:
        assert textpipe.preprocess(gen_inputs.render_text(words)) == gen_inputs.text_tokens(words)


def test_generator_is_seeded():
    assert gen_inputs.make_corpus(4)[1] == gen_inputs.make_corpus(4)[1]
    assert gen_inputs.make_corpus(4)[1] != gen_inputs.make_corpus(5)[1]


# --- planted wrong outputs ---------------------------------------------------


def test_lm_counts_reject_a_wrong_step_count():
    # 1000 tokens at B16: 62 columns, ceil(61/7) = 9 windows
    assert checks.check_lm_counts(1000, 16, 7, 992, 9) == []
    assert checks.check_lm_counts(1000, 16, 7, 992, 8)
    assert checks.check_lm_counts(1000, 16, 7, 1000, 9)


def test_lm_valid_loss_rejects_a_drifted_loss():
    log = "phase,stage,epoch,train_loss,valid_loss,valid_accuracy,seconds\n" \
          "pretrain,1,1,9.000000,8.123457,,1.000\n"
    assert checks.check_lm_valid_loss(8.1234567, log, 8.1234567, 10_000) == []
    assert checks.check_lm_valid_loss(8.1234567 * (1 + 1e-7), log, 8.1234567, 10_000)
    assert checks.check_lm_valid_loss(8.1234567, log.replace("8.123457", "8.123467"),
                                      8.1234567, 10_000)
    assert checks.check_lm_valid_loss(9.3, log.replace("8.123457", "9.300000"), 9.3, 10_000)


CSV = """# seed=0
fraction,n_train,repeats,mean_accuracy,mean_loss,degradation_pct
1.0,48,5,0.800000,0.500000,0.0000
0.5,24,5,0.600000,0.600000,25.0000
0.1,5,5,0.500000,0.700000,37.5000
"""


def test_degrade_csv_accepts_the_right_arithmetic():
    assert checks.check_degrade_csv(CSV, 48, [1.0, 0.5, 0.1], 5) == []


@pytest.mark.parametrize("old,new", [
    ("25.0000", "25.0100"),                      # altered degradation_pct
    ("1.0,48,5,0.800000,0.500000,0.0000", "1.0,48,5,0.800000,0.500000,1.0000"),
    ("0.5,24,5", "0.5,23,5"),                    # n_train not round(f*n)
    ("0.1,5,5", "0.1,5,4"),                      # repeats
])
def test_degrade_csv_rejects_planted_errors(old, new):
    assert checks.check_degrade_csv(CSV.replace(old, new), 48, [1.0, 0.5, 0.1], 5)


def test_degrade_csv_rejects_wrong_row_order():
    lines = CSV.splitlines()
    swapped = "\n".join(lines[:3] + [lines[4], lines[3]]) + "\n"
    assert checks.check_degrade_csv(swapped, 48, [1.0, 0.5, 0.1], 5)


def test_degrade_means_reject_a_wrong_mean():
    runs = [[(0.8, 0.5)] * 5, [(0.6, 0.6)] * 5, [(0.5, 0.7)] * 5]
    assert checks.check_degrade_means(CSV, runs) == []
    runs[1] = [(0.6, 0.6)] * 4 + [(0.7, 0.6)]
    assert checks.check_degrade_means(CSV, runs)


def test_rescore_rejects_a_different_loss():
    assert checks.check_rescore("r", (0.75, 0.61), (0.75, 0.61)) == []
    assert checks.check_rescore("r", (0.75, 0.61), (0.75, 0.61 * (1 + 1e-8)))
    assert checks.check_rescore("r", (0.75, 0.61), (2 / 3, 0.61))


def test_predict_rejects_a_flipped_probability():
    probs = np.array([0.3127, 0.6873])
    assert checks.check_predict("label=1 probability=0.6873\n", probs) == []
    assert checks.check_predict("label=1 probability=0.3127\n", probs)
    assert checks.check_predict("label=0 probability=0.3127\n", probs)
    assert checks.check_predict("label=2 probability=0.6873\n", probs)


def test_eval_rejects_altered_scores():
    ref = (0.5125, 0.6928741, 2000)
    assert checks.check_eval("accuracy=0.5125, loss=0.692874, n=2000", *ref) == []
    assert checks.check_eval("accuracy=0.5130, loss=0.692874, n=2000", *ref)
    assert checks.check_eval("accuracy=0.5125, loss=0.692884, n=2000", *ref)
    assert checks.check_eval("accuracy=0.5125, loss=0.692874, n=1999", *ref)


def _top_lines(rows, losses, probs, labels):
    return "".join(f"loss={losses[r]:.4f} target={labels[r]} predicted={int(probs[r].argmax())} "
                   f"p={probs[r].max():.4f} text={f't{r}'!r}\n" for r in rows)


def test_top_losses_reject_wrong_ranking():
    logits = np.random.default_rng(3).normal(size=(30, 2))
    labels = [i % 2 for i in range(30)]
    probs = reference.softmax(logits)
    losses = reference.example_losses(logits, labels)
    texts = {f"t{i}": i for i in range(30)}
    ranked = list(np.argsort(-losses))
    good = _top_lines(ranked[:5], losses, probs, labels)
    assert checks.check_top_losses(good, 5, texts, losses, probs, labels) == []
    swapped = ranked[:3] + [ranked[4], ranked[3]]
    assert checks.check_top_losses(_top_lines(swapped, losses, probs, labels), 5, texts,
                                   losses, probs, labels)
    skipped = ranked[:4] + [ranked[6]]
    assert checks.check_top_losses(_top_lines(skipped, losses, probs, labels), 5, texts,
                                   losses, probs, labels)
    top = labels[ranked[0]]
    wrong_target = good.replace(f"target={top}", f"target={1 - top}", 1)
    assert checks.check_top_losses(wrong_target, 5, texts, losses, probs, labels)
