"""Schedules, optimizers, and the three phase drivers."""

import math
import weakref
from unittest import mock

import numpy as np
import pytest

from conftest import traced_peak, vocab_of
from ulmkit import tensor as T
from ulmkit import train
from ulmkit.model import AwdLstmLM, TextClassifier, build_lm
from ulmkit.tensor import Rng
from ulmkit.textpipe import (NumericalizedCorpus, Vocabulary, build_vocab, load_corpus_lines,
                              load_labeled_csv, numericalize, preprocess)


# -- schedules ----------------------------------------------------------------


def test_one_cycle_endpoints_exact():
    lr0, mom0 = train.one_cycle(0, 5e-2, 1000)
    assert abs(lr0 - 5e-2 / 25.0) < 1e-12
    assert abs(mom0 - 0.8) < 1e-12
    lr_peak, mom_peak = train.one_cycle(250, 5e-2, 1000)  # PCT_START * total
    assert abs(lr_peak - 5e-2) < 1e-12
    assert abs(mom_peak - 0.7) < 1e-12
    lr_end, mom_end = train.one_cycle(1000, 5e-2, 1000)
    assert abs(lr_end - 5e-2 / 1e5) < 1e-12
    assert abs(mom_end - 0.8) < 1e-12


def test_one_cycle_shape():
    lrs = [train.one_cycle(s, 1e-2, 100)[0] for s in range(101)]
    peak = int(train.PCT_START * 100)
    assert all(a <= b + 1e-15 for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
    assert all(a >= b - 1e-15 for a, b in zip(lrs[peak:-1], lrs[peak + 1 :]))
    moms = [train.one_cycle(s, 1e-2, 100)[1] for s in range(101)]
    assert min(moms) >= 0.7 - 1e-12 and max(moms) <= 0.8 + 1e-12


def test_one_cycle_validation():
    with pytest.raises(ValueError):
        train.one_cycle(-1, 1e-2, 10)
    with pytest.raises(ValueError):
        train.one_cycle(11, 1e-2, 10)


def test_discriminative_lrs_geometric_ladder():
    lrs = train.discriminative_lrs(5e-2, 4)
    expect = [5e-2 / 2.6**3, 5e-2 / 2.6**2, 5e-2 / 2.6, 5e-2]
    for got, want in zip(lrs, expect):
        assert abs(got - want) / want < 1e-6
    assert train.discriminative_lrs(1e-3, 1) == [1e-3]
    with pytest.raises(ValueError):
        train.discriminative_lrs(1e-3, 0)


# -- optimizers ---------------------------------------------------------------


def test_adam_step_first_update_direction():
    p = T.param(np.zeros(3), "p")
    p.grad = np.array([1.0, -2.0, 0.5])
    train.adam_step([p], {}, lr=0.1, momentum=0.9, weight_decay=0.0)
    # bias-corrected first step moves ~lr against the gradient sign
    assert np.allclose(p.data, [-0.1, 0.1, -0.1], atol=1e-6)


def test_adam_decoupled_weight_decay():
    p = T.param(np.array([2.0]), "p")
    p.grad = np.zeros(1)
    train.adam_step([p], {}, lr=0.1, momentum=0.9, weight_decay=0.5)
    # zero gradient: only the decay multiplier applies
    assert np.allclose(p.data, [2.0 * (1 - 0.1 * 0.5)])


def test_adam_state_persists_across_steps():
    p = T.param(np.zeros(2), "p")
    state = {}
    p.grad = np.ones(2)
    train.adam_step([p], state, lr=0.01, momentum=0.9, weight_decay=0.0)
    m, v, t = state[p]
    assert t == 1 and m.shape == (2,) and v.shape == (2,)
    p.grad = np.ones(2)
    train.adam_step([p], state, lr=0.01, momentum=0.9, weight_decay=0.0)
    assert state[p][2] == 2


def test_nan_gradient_raises_named_error():
    # clip is the step's one finiteness check; Adam reads gradients unchecked
    p = T.param(np.zeros(2), "lstm0.W_hh")
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(FloatingPointError, match="lstm0.W_hh"):
        train.clip_gradients([p])


def adam_out_of_place(params, state, lr, momentum, weight_decay):
    """Adam as a fresh array per term; adam_step must match it bit for bit."""
    for p in params:
        g = p.grad
        m, v, t = state.get(p, (np.zeros_like(p.data), np.zeros_like(p.data), 0))
        t += 1
        m = momentum * m + (1.0 - momentum) * g
        v = train.BETA2 * v + (1.0 - train.BETA2) * g * g
        m_hat = m / (1.0 - momentum ** t)
        v_hat = v / (1.0 - train.BETA2 ** t)
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        p.data -= lr * m_hat / (np.sqrt(v_hat) + train.ADAM_EPS)
        state[p] = (m, v, t)


@pytest.mark.parametrize("weight_decay, shapes", [
    (0.0, None), (0.1, None),
    # unnamed, as T.param leaves a parameter: two of one shape, then another
    (0.0, [(2,), (2,), (3,)]),
], ids=["0.0", "0.1", "unnamed"])
def test_adam_step_bit_identical_to_out_of_place_formula(weight_decay, shapes):
    rng = np.random.default_rng(4)
    if shapes is None:
        ours = [T.param(rng.normal(size=s), f"p{i}") for i, s in enumerate([(7, 5), (3,), (4, 2, 3)])]
    else:
        ours = [T.param(rng.normal(size=s)) for s in shapes]
    ref = [T.param(p.data.copy(), p.name) for p in ours]
    ours_state, ref_state = {}, {}
    for step in range(5):
        for a, b in zip(ours, ref):
            a.grad = rng.normal(size=a.shape) * 10.0 ** rng.integers(-4, 3)
            b.grad = a.grad.copy()
        lr, mom = 1e-2 * (step + 1), 0.8 - 0.02 * step
        train.adam_step(ours, ours_state, lr, mom, weight_decay)
        adam_out_of_place(ref, ref_state, lr, mom, weight_decay)
        for a, b in zip(ours, ref):
            assert np.array_equal(a.data, b.data)
            (m, v, t), (m_ref, v_ref, t_ref) = ours_state[a], ref_state[b]
            assert np.array_equal(m, m_ref) and np.array_equal(v, v_ref) and t == t_ref


@pytest.mark.parametrize("bad, kind", [(np.inf, "inf"), (-np.inf, "inf"), (np.nan, "NaN")])
def test_non_finite_gradient_stops_before_any_parameter_moves(bad, kind):
    params = [T.param(np.full(3, i + 1.0), f"p{i}") for i in range(3)]
    grads = [np.ones(3), np.array([1.0, bad, 1.0]), np.ones(3)]

    def bwd(g):
        for p, gp in zip(params, grads):
            p.accumulate(gp)

    loss = T._make(np.array(0.0), tuple(params), bwd)
    with pytest.raises(FloatingPointError, match=f"{kind} gradient in parameter p1"):
        train.optimizer_step(loss, [params], [0.1], 0.9, {}, weight_decay=0.1)
    for i, p in enumerate(params):
        assert (p.data == i + 1.0).all()
    assert np.array_equal(params[2].grad, np.ones(3))  # not clipped either


def test_overflowing_gradient_norm_raises():
    p = T.param(np.zeros(2), "p")
    p.grad = np.array([1e200, 1.0])
    with pytest.raises(FloatingPointError, match="overflows"), np.errstate(over="ignore"):
        train.clip_gradients([p])
    assert p.grad[0] == 1e200


def test_lm_validation_records_no_graph_node(monkeypatch):
    tracked = []
    real = T._make
    monkeypatch.setattr(T, "_make", lambda data, parents, bwd: tracked.append(
        T._tracked(*parents)) or real(data, parents, bwd))
    model = build_lm(20, "tiny", seed=0)
    data = np.random.default_rng(0).integers(0, 20, size=(2, 30))
    loss, steps = train.lm_epoch(model, data, train.pretrain_defaults(bptt_len=10), train=False)
    assert steps == 3 and math.isfinite(loss)
    assert tracked and not any(tracked)


def test_clip_gradients_global_norm():
    a = T.param(np.zeros(2), "a")
    b = T.param(np.zeros(2), "b")
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([0.0, 4.0])
    norm = train.clip_gradients([a, b])
    assert abs(norm - 5.0) < 1e-12
    clipped = math.sqrt((a.grad**2).sum() + (b.grad**2).sum())
    assert abs(clipped - train.GRAD_CLIP) < 1e-12
    # under the limit: untouched
    a.grad = np.array([0.1, 0.0])
    b.grad = np.array([0.0, 0.1])
    train.clip_gradients([a, b])
    assert np.allclose(a.grad, [0.1, 0.0])


# -- configs and plumbing -------------------------------------------------------


def test_phase_defaults_match_recipe():
    p = train.pretrain_defaults()
    assert (p.epochs, p.lr, p.batch_size, p.dropout_multiplier) == (20, 1e-2, 128, 0.5)
    f = train.lm_finetune_defaults()
    assert (f.epochs, f.lr, f.stage1_epochs, f.stage1_lr) == (7, 4e-3, 1, 4e-2)
    c = train.clf_finetune_defaults()
    assert (c.epochs, c.lr, c.batch_size, c.dropout_multiplier, c.weight_decay) == (
        2, 5e-2, 64, 0.3, 0.1)
    assert (train.MOM_HIGH, train.MOM_LOW) == (0.8, 0.7)
    assert train.GRAD_CLIP == 0.25 and train.LR_FACTOR == 2.6


def test_phase_config_validation():
    with pytest.raises(ValueError):
        train.pretrain_defaults(epochs=0)
    with pytest.raises(ValueError):
        train.pretrain_defaults(lr=-1.0)
    with pytest.raises(ValueError):
        train.pretrain_defaults(dropout_multiplier=-0.5)
    # every site's rate stays in [0, 1): the largest base rate is 0.25
    with pytest.raises(ValueError, match="dropout_multiplier"):
        train.pretrain_defaults(dropout_multiplier=4.0)
    train.pretrain_defaults(dropout_multiplier=3.99)
    with pytest.raises(ValueError, match="stage1_lr"):
        train.lm_finetune_defaults(stage1_lr=-1.0)
    with pytest.raises(ValueError, match="stage1_lr"):
        train.lm_finetune_defaults(stage1_lr=0.0)
    with pytest.raises(ValueError, match="weight_decay"):
        train.clf_finetune_defaults(weight_decay=-5.0)
    train.clf_finetune_defaults(weight_decay=0.0)
    with pytest.raises(TypeError, match="stage1_epochs"):  # a recipe constant, not a setting
        train.lm_finetune_defaults(stage1_epochs=2)


def test_batchify_shape_and_order():
    data = train.batchify([[0, 1, 2, 3], [4, 5, 6, 7]], 2)
    assert data.shape == (2, 4)
    assert np.array_equal(data.ravel(), np.arange(8))
    with pytest.raises(ValueError, match="too small"):
        train.batchify([[1, 2]], 4)


def op_nodes(loss) -> int:
    """Nodes of loss's graph that an op recorded: every node but the leaves."""
    return sum(1 for node in T.topo_order(loss) if node._parents)


def test_lm_loss_graph_size_independent_of_steps():
    # the embedding lookup with its dropout, one fused node per LSTM layer
    # with its input's and W_hh's masks, and the LM loss, which applies the
    # output mask and adds the tied decoder's cross-entropy to the AR/TAR
    # penalties, however many steps the window has; and the 11 parameters
    model = build_lm(20, "tiny", seed=0).train()
    cfg = train.pretrain_defaults(batch_size=2)
    for steps in (5, 40):
        x = np.random.default_rng(steps).integers(0, 20, size=(2, steps + 1))
        loss, _, _ = train.lm_loss_terms(model, x[:, :-1], x[:, 1:], None, cfg)
        assert op_nodes(loss) == 5 and len(T.topo_order(loss)) == 16, steps


def test_classifier_loss_graph_size():
    # the lookup, three LSTM layers, the head, which pools the outputs with
    # their mask and applies its own dropout, and the cross-entropy; and the
    # 14 parameters
    clf = train.TextClassifier(build_lm(20, "tiny", seed=0), seed=0).train()
    ids = np.random.default_rng(0).integers(0, 20, size=(3, 6))
    loss = T.cross_entropy(clf.forward(ids, np.array([6, 2, 4])), np.array([0, 1, 1]))
    assert op_nodes(loss) == 6 and len(T.topo_order(loss)) == 20


def step_graph(build):
    """The loss ``build()`` returns, and weak references to the data of
    every other node an op recorded in its graph."""
    loss = build()
    return loss, [weakref.ref(node.data) for node in T.topo_order(loss)
                  if node._parents and node is not loss]


@pytest.mark.parametrize("kind", ["lm", "classifier"])
def test_an_optimizer_step_frees_its_graph(kind):
    # a float32 tiny step: every array the graph held is gone once the step
    # returns, but the loss the caller holds; the parameters keep their
    # gradients until the next step zeroes them
    lm = build_lm(20, "tiny", seed=0)
    ids = np.random.default_rng(0).integers(0, 20, size=(3, 7))
    if kind == "lm":
        model = lm.train()
        cfg = train.pretrain_defaults(batch_size=3)
        loss, refs = step_graph(lambda: train.lm_loss_terms(model, ids[:, :-1], ids[:, 1:],
                                                            None, cfg)[0])
    else:
        model = TextClassifier(lm, seed=0).train()
        loss, refs = step_graph(lambda: T.cross_entropy(model.forward(ids, np.array([7, 2, 5])),
                                                        np.array([0, 1, 1])))
    assert len(refs) == (4 if kind == "lm" else 5)
    params = [p for _, p in model.named_parameters()]
    train.optimizer_step(loss, [params], [1e-3], 0.8, {}, weight_decay=0.0)
    assert [ref() for ref in refs] == [None] * len(refs)
    assert loss._parents == () and math.isfinite(loss.item())


def test_lm_windows_cover_ribbon():
    data = np.arange(20).reshape(2, 10)
    windows = list(train._lm_windows(data, 4))
    assert train.lm_windows_per_epoch(data, 4) == len(windows) == 3
    for x, y in windows:
        assert np.array_equal(y, x + 1)
    assert sum(x.shape[1] for x, _ in windows) == 9  # n - 1 positions


def test_metrics_line_format():
    m = train.EpochMetrics("pretrain", 1, 3, 1.25, None, None, 2.5)
    assert m.as_line() == "pretrain,1,3,1.250000,,,2.500"
    m2 = train.EpochMetrics("clf-finetune", 2, 1, 0.5, 0.25, 0.875, 1.0)
    assert m2.as_line() == "clf-finetune,2,1,0.500000,0.250000,0.875000,1.000"


def test_write_metrics_log(tmp_path):
    path = tmp_path / "metrics.csv"
    train.write_metrics_log(path, [train.EpochMetrics("pretrain", 1, 1, 1.0, None, None, 0.1)],
                            {"seed": 0, "lr": 0.01})
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# lr=0.01", "# seed=0", train.METRICS_HEADER]
    assert len(lines) == 4


# -- training drivers (small but real) -----------------------------------------


def toy_corpus(n_streams=8, length=30, vocab=20, seed=0):
    rng = np.random.default_rng(seed)
    return NumericalizedCorpus(
        [[2] + rng.integers(7, vocab, size=length).tolist() for _ in range(n_streams)]
    )


def test_pretrain_lm_deterministic():
    corpus = toy_corpus()
    cfg = train.pretrain_defaults(epochs=2, batch_size=2, bptt_len=10, preset="tiny",
                                  dropout_multiplier=0.1, seed=5)
    _, m1 = train.pretrain_lm(corpus, None, 20, cfg)
    _, m2 = train.pretrain_lm(corpus, None, 20, cfg)
    assert [m.train_loss for m in m1] == [m.train_loss for m in m2]


def test_pretrain_lm_restores_best_valid_epoch():
    corpus = toy_corpus()
    valid = toy_corpus(n_streams=4, seed=1)
    cfg = train.pretrain_defaults(epochs=3, batch_size=2, bptt_len=10, preset="tiny",
                                  dropout_multiplier=0.0, seed=5)
    model, metrics = train.pretrain_lm(corpus, valid, 20, cfg)
    best = min(m.valid_loss for m in metrics)
    data = train.batchify(valid.streams, 2)
    loss, _ = train.lm_epoch(model, data, cfg, train=False)
    assert abs(loss - best) < 1e-9


def count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def spy(self, *args):
        calls.append(name)
        return real(self, *args)

    monkeypatch.setattr(cls, name, spy)
    return calls


def test_a_one_epoch_pretrain_copies_no_weights(monkeypatch):
    # the last epoch's weights are the model's own: no snapshot, no restore
    snapshots = count_calls(monkeypatch, AwdLstmLM, "state_dict")
    restores = count_calls(monkeypatch, AwdLstmLM, "load_state_dict")
    cfg = train.pretrain_defaults(epochs=1, batch_size=2, bptt_len=10, dropout_multiplier=0.0,
                                  seed=5)
    _, metrics = train.pretrain_lm(toy_corpus(), toy_corpus(n_streams=4, seed=1), 20, cfg)
    assert metrics[0].valid_loss is not None
    assert snapshots == [] and restores == []


def test_pretrain_lm_snapshots_every_epoch_but_the_last(monkeypatch):
    # epoch 1 of 2 is the best so far and is copied; epoch 2 is the last, so
    # it is restored from only if epoch 1 stays the best
    snapshots = count_calls(monkeypatch, AwdLstmLM, "state_dict")
    restores = count_calls(monkeypatch, AwdLstmLM, "load_state_dict")
    cfg = train.pretrain_defaults(epochs=2, batch_size=2, bptt_len=10, dropout_multiplier=0.0,
                                  seed=5)
    _, metrics = train.pretrain_lm(toy_corpus(), toy_corpus(n_streams=4, seed=1), 20, cfg)
    first, last = (m.valid_loss for m in metrics)
    assert len(snapshots) == 1
    assert len(restores) == (first <= last)


def test_pretrain_lm_rejects_empty_corpus():
    cfg = train.pretrain_defaults(epochs=1, batch_size=2)
    with pytest.raises(ValueError):
        train.pretrain_lm(NumericalizedCorpus([]), None, 20, cfg)


def make_vocabs():
    old = Vocabulary(["xxunk", "xxpad", "xxbos", "xxup", "xxmaj", "xxrep", "xxwrep",
                      "aso", "pusa", "ibon"])
    new = Vocabulary(["xxunk", "xxpad", "xxbos", "xxup", "xxmaj", "xxrep", "xxwrep",
                      "pusa", "daga"])
    return old, new


def test_map_vocab_row_transfer():
    old, new = make_vocabs()
    lm = build_lm(len(old.id_to_token), "tiny", seed=0)
    mapped = train.map_vocab(lm, old, new)
    old_emb = lm.embedding.data
    # shared token keeps its row and bias
    oi, ni = old.token_to_id["pusa"], new.token_to_id["pusa"]
    assert np.array_equal(mapped.embedding.data[ni], old_emb[oi])
    assert mapped.decoder_bias.data[ni] == lm.decoder_bias.data[oi]
    # unseen token starts at the mean pretrained row
    di = new.token_to_id["daga"]
    assert np.allclose(mapped.embedding.data[di], old_emb.mean(axis=0), atol=1e-12)
    # recurrent weights carry over untouched
    assert np.array_equal(mapped.layers[0].W_hh.data, lm.layers[0].W_hh.data)


def test_map_vocab_copies_each_pretrained_array_once():
    vocab = vocab_of(10_008)
    lm = build_lm(len(vocab.id_to_token), "tiny", seed=0)
    model_bytes = sum(p.data.nbytes for _, p in lm.named_parameters())
    # the new model's allocated weights and the re-homed embedding built
    # for it
    peak = traced_peak(lambda: train.map_vocab(lm, vocab, vocab))
    assert peak < model_bytes + lm.embedding.data.nbytes + 1e6


def test_map_vocab_draws_no_weight(monkeypatch):
    old, new = make_vocabs()
    lm = build_lm(len(old.id_to_token), "tiny", seed=0)
    monkeypatch.setattr(Rng, "uniform", lambda *a, **k: pytest.fail("a weight was drawn"))
    mapped = train.map_vocab(lm, old, new)
    assert np.array_equal(mapped.layers[2].W_ih.data, lm.layers[2].W_ih.data)


# -- the training step's precision rule ----------------------------------------


def lm_step(model, ids, targets, min_hidden=T.F32_MIN_HIDDEN):
    """Loss, last LSTM layer outputs and every parameter's gradient of one
    training step whose dropout masks are drawn from seed 7, at a patched
    F32_MIN_HIDDEN (``np.inf`` for the float64 step)."""
    model.train().reset_dropout(1.0, 7)
    for _, p in model.named_parameters():
        p.zero_grad()
    spy = mock.Mock(wraps=T.lm_loss)  # to read the last LSTM layer's outputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "F32_MIN_HIDDEN", min_hidden)
        mp.setattr(T, "lm_loss", spy)
        loss, _, _ = model.forward(ids, targets=targets)
        T.backward(loss)
    raw = spy.call_args.args[0]
    return [loss.data, raw.data] + [p.grad for _, p in model.named_parameters()]


def clf_step(build, ids, lengths, labels, min_hidden=T.F32_MIN_HIDDEN):
    """Logits, loss and every parameter's gradient of one training step of
    the freshly built classifier ``build()``, all groups unfrozen, at a
    patched F32_MIN_HIDDEN."""
    clf = build()
    clf.freeze_to(0)
    clf.train()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "F32_MIN_HIDDEN", min_hidden)
        logits = clf.forward(ids, lengths)
        loss = T.cross_entropy(logits, labels)
        T.backward(loss)
    return [logits.data, loss.data] + [p.grad for _, p in clf.named_parameters()]


def step_inputs(vocab, rows=16, steps=70, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab, size=(rows, steps)), rng.integers(0, vocab, size=(rows, steps))


def clf_inputs(vocab, rows=8, steps=39, seed=0):
    """ids, lengths (the longest is ``steps``) and labels of both classes."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, steps + 1, size=rows)
    lengths[0] = steps
    return rng.integers(0, vocab, size=(rows, steps)), lengths, np.arange(rows) % 2


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_lm_step_above_the_float32_threshold_stays_near_the_float64_step():
    # an lm-pretrain-10k step, and one over a fixture-sized vocabulary:
    # tiny's hidden width is past F32_MIN_HIDDEN, so the decoder and every
    # LSTM layer run in float32
    for vocab in (10_008, 300):
        lm = build_lm(vocab, "tiny", seed=0)
        ids, targets = step_inputs(vocab)
        mixed, exact = lm_step(lm, ids, targets), lm_step(lm, ids, targets, np.inf)
        names = ["loss", "raw"] + [name for name, _ in lm.named_parameters()]
        for name, got, want in zip(names, mixed, exact):
            assert got.dtype == np.float64, name
            # the float32 path ran: in the LSTM layers too, since raw moved
            assert not np.array_equal(got, want), name
            assert rel_err(got, want) <= 1e-5, name


# the gradient gate's model, and one of hidden 16
SMALL_DIMS = [dict(vocab_size=11, emb_dim=4, hid_dim=6, n_layers=2),
              dict(vocab_size=300, emb_dim=16, hid_dim=16, n_layers=3)]


def test_lm_step_below_the_float32_threshold_is_float64_throughout():
    for dims in SMALL_DIMS:
        assert dims["hid_dim"] < T.F32_MIN_HIDDEN
        lm = AwdLstmLM(**dims, seed=0)
        ids, targets = step_inputs(dims["vocab_size"], rows=4, steps=9)
        for got, want in zip(lm_step(lm, ids, targets), lm_step(lm, ids, targets, np.inf)):
            assert np.array_equal(got, want)


def test_classifier_step_below_the_float32_threshold_is_float64_throughout():
    for dims in SMALL_DIMS:
        inputs = clf_inputs(dims["vocab_size"], rows=4, steps=9)
        build = lambda: TextClassifier(AwdLstmLM(**dims, seed=0), seed=0)  # noqa: E731
        for got, want in zip(clf_step(build, *inputs), clf_step(build, *inputs, np.inf)):
            assert np.array_equal(got, want)


def test_tiny_classifier_step_stays_near_the_float64_step():
    # a degrade-fixture classifier step, B8 S39 over the tiny preset: every
    # LSTM layer runs in float32, the pool and the head in float64
    inputs = clf_inputs(300)
    build = lambda: TextClassifier(build_lm(300, "tiny", seed=0), seed=0)  # noqa: E731
    mixed, exact = clf_step(build, *inputs), clf_step(build, *inputs, np.inf)
    names = ["logits", "loss"] + [name for name, _ in build().named_parameters()]
    for name, got, want in zip(names, mixed, exact):
        assert got.dtype == np.float64, name
        assert not np.array_equal(got, want), name  # the float32 path ran
        assert rel_err(got, want) <= 1e-5, name


def test_lm_validation_above_the_float32_threshold_is_float64():
    lm = build_lm(10_008, "tiny", seed=0)
    data = np.random.default_rng(1).integers(0, 10_008, size=(16, 141))
    cfg = train.pretrain_defaults(bptt_len=70)
    scored = train.lm_epoch(lm, data, cfg, train=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "F32_MIN_HIDDEN", np.inf)
        assert train.lm_epoch(lm, data, cfg, train=False) == scored


def test_a_seeded_float32_lm_step_reproduces_bit_for_bit():
    ids, targets = step_inputs(10_008, seed=3)
    first, second = (lm_step(build_lm(10_008, "tiny", seed=0), ids, targets) for _ in range(2))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_finetune_lm_dropout_follows_the_phase_seed():
    old, _ = make_vocabs()
    corpus = NumericalizedCorpus([[2] + [6, 7, 8, 9] * 6 for _ in range(6)])
    weights = build_lm(len(old.id_to_token), "tiny", seed=0).state_dict()

    def tuned(pretrained_seed, seed):
        pretrained = build_lm(len(old.id_to_token), "tiny", seed=pretrained_seed)
        pretrained.load_state_dict(weights)
        cfg = train.lm_finetune_defaults(epochs=1, batch_size=2, bptt_len=10,
                                         dropout_multiplier=1.0, seed=seed)
        return train.finetune_lm(pretrained, old, old, corpus, None, cfg)[0].state_dict()

    a, b, c = tuned(0, 1), tuned(5, 1), tuned(0, 2)
    assert all(np.array_equal(a[name], b[name]) for name in a)
    assert not all(np.array_equal(a[name], c[name]) for name in a)


def test_finetune_lm_improves_target_perplexity():
    # target text with a strong repeated pattern the pretrained model never saw
    streams = [[2] + [6, 7, 8, 9] * 6 for _ in range(6)]
    corpus = NumericalizedCorpus(streams)
    old, _ = make_vocabs()
    lm = build_lm(len(old.id_to_token), "tiny", seed=0)
    cfg = train.lm_finetune_defaults(epochs=2, batch_size=2, bptt_len=10,
                                     dropout_multiplier=0.1, lr=4e-3, stage1_lr=4e-3, seed=0)
    data = train.batchify(corpus.streams, 2)
    before, _ = train.lm_epoch(lm, data, cfg, train=False)
    tuned, metrics = train.finetune_lm(lm, old, old, corpus, None, cfg)
    after, _ = train.lm_epoch(tuned, data, cfg, train=False)
    assert math.exp(after) < math.exp(before)
    stages = {m.stage for m in metrics}
    assert stages == {1, 2}
    assert sum(1 for m in metrics if m.stage == 1) == cfg.stage1_epochs
    assert sum(1 for m in metrics if m.stage == 2) == cfg.epochs


def labeled_toy(n=12, seed=0):
    rng = np.random.default_rng(seed)
    streams, labels = [], []
    for i in range(n):
        label = i % 2
        tok = 7 if label == 0 else 8
        streams.append([2] + [tok] * 5 + rng.integers(9, 14, size=3).tolist())
        labels.append(label)
    return NumericalizedCorpus(streams, labels)


def test_finetune_classifier_stages_and_freezing():
    corpus = labeled_toy()
    lm = build_lm(20, "tiny", dropout_multiplier=0.0, seed=0)
    cfg = train.clf_finetune_defaults(epochs=2, batch_size=4, dropout_multiplier=0.0, seed=0)
    clf, metrics = train.finetune_classifier(lm, corpus, corpus, cfg)
    # one stage per group; the last stage runs cfg.epochs epochs
    assert [m.stage for m in metrics] == [1, 2, 3] + [4] * cfg.epochs
    assert metrics[-1].valid_accuracy is not None
    # after training everything is unfrozen and in eval mode
    assert all(p.requires_grad for g in clf.layer_groups() for p in g)
    assert not clf.training


def test_finetune_classifier_head_stage_freezes_encoder():
    corpus = labeled_toy()
    lm = build_lm(20, "tiny", dropout_multiplier=0.0, seed=0)
    before = {n: p.copy() for n, p in lm.state_dict().items()}
    cfg = train.clf_finetune_defaults(epochs=1, batch_size=4, dropout_multiplier=0.0, seed=0)

    # run only the first (head-only) stage by hand
    clf = train.TextClassifier(lm, seed=0)
    n_groups = len(clf.layer_groups())
    clf.freeze_to(n_groups - 1)
    clf.train()
    batches = train.make_clf_batches(corpus, 4)
    for ids, lengths, labels in batches:
        loss = T.cross_entropy(clf.forward(ids, lengths), labels)
        for p in clf.head_parameters():
            p.zero_grad()
        T.backward(loss)
        train.adam_step(clf.head_parameters(), {}, 1e-2, 0.8, 0.0)
    for name, arr in lm.state_dict().items():
        assert np.array_equal(arr, before[name]), f"frozen {name} drifted"


def test_finetune_classifier_dropout_follows_the_phase_seed():
    corpus = labeled_toy()
    cfg = train.clf_finetune_defaults(epochs=1, batch_size=4, dropout_multiplier=1.0, seed=3)
    fresh = build_lm(20, "tiny", seed=3)
    used = build_lm(20, "tiny", seed=3)
    used.forward(np.array([[2, 7, 8]]))  # draws dropout masks from its stream
    a, _ = train.finetune_classifier(fresh, corpus, None, cfg)
    b, _ = train.finetune_classifier(used, corpus, None, cfg)
    b_state = b.state_dict()
    for name, arr in a.state_dict().items():
        assert np.array_equal(arr, b_state[name]), name


def test_finetune_classifier_requires_both_labels():
    lm = build_lm(20, "tiny", seed=0)
    corpus = NumericalizedCorpus([[2, 7], [2, 8]], [1, 1])
    with pytest.raises(ValueError, match="both labels"):
        train.finetune_classifier(lm, corpus, None, train.clf_finetune_defaults())


def test_make_clf_batches_padding():
    corpus = NumericalizedCorpus([[2, 7, 8], [2, 9]], [0, 1])
    (ids, lengths, labels), = train.make_clf_batches(corpus, 4)
    assert ids.shape == (2, 3)
    assert ids[1, 2] == 1  # PAD_ID
    assert lengths.tolist() == [3, 2]
    assert labels.tolist() == [0, 1]


def test_make_clf_batches_caps_length():
    corpus = NumericalizedCorpus([list(range(2, 500))], [0])
    (ids, lengths, _), = train.make_clf_batches(corpus, 1)
    assert ids.shape == (1, 400) and lengths[0] == 400


def test_evaluate_deterministic():
    corpus = labeled_toy()
    clf = train.TextClassifier(build_lm(20, "tiny", seed=0), seed=0)
    a = train.evaluate(clf, corpus)
    b = train.evaluate(clf, corpus)
    assert a == b
    assert 0.0 <= a.accuracy <= 1.0


def test_per_example_losses_in_corpus_order():
    # shuffled lengths, so that the length-sorted batches mix the corpus order
    rng = np.random.default_rng(2)
    streams = [[2] + rng.integers(7, 14, size=n).tolist() for n in rng.permutation(13)]
    labels = [i % 2 for i in range(len(streams))]
    clf = train.TextClassifier(build_lm(20, "tiny", seed=1), seed=1)
    stats = train.per_example_losses(clf, NumericalizedCorpus(streams, labels), batch_size=4)
    assert len(stats) == len(streams)
    for (pred, loss, prob), s, label in zip(stats, streams, labels):
        logits = clf.forward(np.array([s]), np.array([len(s)])).data[0]
        assert pred == logits.argmax()
        assert abs(loss - (np.logaddexp.reduce(logits) - logits[label])) < 1e-12
        assert abs(prob - np.exp(logits - np.logaddexp.reduce(logits)).max()) < 1e-12


def test_per_example_losses_on_unlabeled_corpus():
    corpus = labeled_toy()
    clf = train.TextClassifier(build_lm(20, "tiny", seed=1), seed=1)
    labeled = train.per_example_losses(clf, corpus, batch_size=4)
    unlabeled = train.per_example_losses(clf, NumericalizedCorpus(corpus.streams), batch_size=4)
    assert [(pred, prob) for pred, _, prob in unlabeled] == \
        [(pred, prob) for pred, _, prob in labeled]
    assert all(math.isnan(loss) for _, loss, _ in unlabeled)


# -- the stage loop -------------------------------------------------------------


def fixture_corpora(corpus_path, labeled_path):
    """The vocabulary of the two fixtures, the plain-text fixture and the
    labeled one, numericalized with it."""
    lines = [preprocess(t) for t in load_corpus_lines(corpus_path)]
    records = load_labeled_csv(labeled_path)
    labeled = [preprocess(t) for t, _ in records]
    vocab = build_vocab(t for toks in lines + labeled for t in toks)
    return (vocab, NumericalizedCorpus([numericalize(t, vocab) for t in lines]),
            NumericalizedCorpus([numericalize(t, vocab) for t in labeled],
                                [label for _, label in records]))


def record_optimizer_steps(monkeypatch):
    """Per optimizer_step call: (Adam state, its size at the call, the groups,
    the rates)."""
    calls = []
    real = train.optimizer_step

    def recording(loss, groups, lrs, momentum, state, weight_decay):
        calls.append((state, len(state), groups, list(lrs)))
        real(loss, groups, lrs, momentum, state, weight_decay)

    monkeypatch.setattr(train, "optimizer_step", recording)
    return calls


def assert_schedule(calls, expected):
    """``expected`` holds per stage (steps, peak rate, number of groups); a
    stage is the run of calls that share one Adam state."""
    stages: dict[int, list] = {}
    for state, size, groups, lrs in calls:
        stages.setdefault(id(state), []).append((size, len(groups), lrs))
    assert len(stages) == len(expected)
    for stage, (steps, peak, n_groups) in zip(stages.values(), expected):
        assert len(stage) == steps
        assert stage[0][0] == 0  # a new, empty Adam state at its first step
        assert {n for _, n, _ in stage} == {n_groups}
        ladder = train.discriminative_lrs(peak / train.DIV_START, n_groups)
        assert stage[0][2] == pytest.approx(ladder, rel=1e-12, abs=0)


def test_each_phase_hands_the_optimizer_its_stage_schedule(monkeypatch, corpus_path,
                                                           labeled_path):
    vocab, text, labeled = fixture_corpora(corpus_path, labeled_path)
    calls = record_optimizer_steps(monkeypatch)

    cfg = train.pretrain_defaults(epochs=2, batch_size=8, bptt_len=35, seed=0)
    lm, _ = train.pretrain_lm(text, None, len(vocab), cfg)
    per_epoch = train.lm_windows_per_epoch(train.batchify(text.streams, 8), 35)
    assert_schedule(calls, [(2 * per_epoch, cfg.lr, 1)])
    # the one group holds every parameter, in named_parameters order
    assert calls[0][2][0] == [p for _, p in lm.named_parameters()]

    calls.clear()
    cfg = train.lm_finetune_defaults(epochs=2, batch_size=4, bptt_len=20, seed=0)
    target = NumericalizedCorpus(labeled.streams)
    tuned, _ = train.finetune_lm(lm, vocab, vocab, target, None, cfg)
    per_epoch = train.lm_windows_per_epoch(train.batchify(target.streams, 4), 20)
    assert_schedule(calls, [(cfg.stage1_epochs * per_epoch, cfg.stage1_lr, 1),
                            (cfg.epochs * per_epoch, cfg.lr, 1)])
    assert calls[0][2][0] == [tuned.embedding, tuned.decoder_bias]

    calls.clear()
    cfg = train.clf_finetune_defaults(epochs=2, batch_size=8, seed=0)
    train.finetune_classifier(tuned, labeled, None, cfg)
    per_epoch = math.ceil(len(labeled.streams) / 8)
    last = tuned.n_layers
    assert_schedule(calls, [((cfg.epochs if s == last else 1) * per_epoch,
                             cfg.lr / train.STAGE_LR_DECAY ** s, s + 1)
                            for s in range(last + 1)])


def nan_in_a_recurrent_weight(model):
    model.layers[1].W_hh.data[0, 0] = np.nan
    return model


def test_a_non_finite_loss_stops_pretraining_before_backward(monkeypatch):
    built = train.build_lm
    monkeypatch.setattr(train, "build_lm",
                        lambda *args, **kw: nan_in_a_recurrent_weight(built(*args, **kw)))
    monkeypatch.setattr(T, "backward", lambda loss: pytest.fail("backward ran"))
    cfg = train.pretrain_defaults(epochs=1, batch_size=2, bptt_len=10, seed=0)
    with pytest.raises(FloatingPointError, match=r"^pretrain stage 1 step 1: loss is nan$"):
        train.pretrain_lm(toy_corpus(), None, 20, cfg)


def test_a_non_finite_loss_stops_the_classifier_fine_tune():
    lm = nan_in_a_recurrent_weight(build_lm(20, "tiny", seed=0))
    cfg = train.clf_finetune_defaults(epochs=1, batch_size=4, seed=0)
    with pytest.raises(FloatingPointError, match=r"^clf-finetune stage 1 step 1: loss is nan$"):
        train.finetune_classifier(lm, labeled_toy(), None, cfg)


def test_a_non_finite_gradient_names_phase_stage_step_and_parameter(monkeypatch):
    # labeled_toy at batch 4 runs 3 steps a stage, so call 5 is stage 2 step 2
    clipped = train.clip_gradients
    calls = []

    def clip(params):
        calls.append(params)
        if len(calls) == 5:
            raise FloatingPointError("NaN gradient in parameter lstm2.W_hh")
        return clipped(params)

    monkeypatch.setattr(train, "clip_gradients", clip)
    cfg = train.clf_finetune_defaults(epochs=1, batch_size=4, seed=0)
    with pytest.raises(FloatingPointError, match=r"^clf-finetune stage 2 step 2: NaN gradient "
                                                 r"in parameter lstm2\.W_hh$"):
        train.finetune_classifier(build_lm(20, "tiny", seed=0), labeled_toy(), None, cfg)
