"""Model tests: dropout sites, LSTM mechanics, tying, freezing, pooling."""

from unittest import mock

import numpy as np
import pytest
from test_tensor import add, generic_head, identity_head, mul, penalties, pool

from ulmkit import tensor as T
from ulmkit import train
from ulmkit.model import (
    DROPOUT_RATES,
    HEAD_HIDDEN,
    PRESETS,
    AwdLstmLM,
    LstmLayer,
    TextClassifier,
    build_lm,
    draw_mask,
    embedding_dropout,
    param_shapes,
)
from ulmkit.tensor import Rng, Tensor


def tiny_lm(vocab=13, emb=8, hid=12, layers=2, mult=1.0, seed=0):
    return AwdLstmLM(vocab, emb, hid, layers, dropout_multiplier=mult, seed=seed)


# -- dropout sites ----------------------------------------------------------


def test_weight_drop_monte_carlo():
    layer = LstmLayer(100, 250, Rng(0), "l")  # W_hh has 250 * 1000 entries
    mask = draw_mask(0.5, layer.W_hh.shape, Rng(1))
    assert abs((mask == 0).mean() - 0.5) < 0.01
    assert set(np.unique(mask).tolist()) == {0.0, 2.0}  # 1/(1-p) scaling
    # the layer reads W_hh times the mask, and W_hh itself is untouched
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 100)))
    state = (np.zeros((2, 250)), np.zeros((2, 250)))
    before = layer.W_hh.data.copy()
    out, _ = layer.forward(x, state, w_mask=mask)
    want, _, _ = T.lstm(x, *state, layer.W_ih, Tensor(before * mask), layer.b)
    assert np.array_equal(out.data, want.data)
    assert np.array_equal(layer.W_hh.data, before)


def test_weight_drop_eval_and_zero_rate_identity():
    rng = Rng(1)
    before = rng._gen.bit_generator.state
    assert draw_mask(0.0, (6, 24), rng) is None
    assert rng._gen.bit_generator.state == before  # nothing drawn


def lstm_calls(lm, ids):
    """The x_mask and w_mask that each LSTM layer of one training-mode
    forward of ``lm`` passes to ``T.lstm``, and the output mask it passes
    to ``T.lm_loss``."""
    with mock.patch.object(T, "lstm", wraps=T.lstm) as lstm, \
            mock.patch.object(T, "lm_loss", wraps=T.lm_loss) as lm_loss:
        lm.train().forward(ids, targets=ids)
    return [call.args[7:9] for call in lstm.call_args_list], lm_loss.call_args.args[1]


def test_variational_dropout_locked_across_time():
    lm = tiny_lm(hid=40, layers=3)
    ids = np.random.default_rng(0).integers(0, 13, size=(3, 7))
    calls, out_mask = lstm_calls(lm, ids)
    # one (batch, feature) mask per layer input and on the output, reused at
    # every timestep, each scaled by its own site's rate
    sites = ["p_input", "p_hidden", "p_hidden", "p_output"]
    for mask, site, width in zip([c[0] for c in calls] + [out_mask], sites, (8, 40, 40, 8)):
        assert mask.shape == (3, 1, width), site
        assert set(np.unique(mask).tolist()) <= {0.0, 1.0 / (1.0 - lm.rate(site))}, site
    for (_, w_mask), layer in zip(calls, lm.layers):
        assert w_mask.shape == layer.W_hh.shape
        assert set(np.unique(w_mask).tolist()) <= {0.0, 1.0 / (1.0 - lm.rate("p_weight"))}


def test_variational_dropout_preserves_expectation():
    mask = draw_mask(0.25, (64, 1, 500), Rng(3))
    assert abs(mask.mean() - 1.0) < 0.02


def test_encode_draws_every_mask_from_one_stream_in_order():
    # embedding rows, then per layer its input's mask and its weight drop,
    # then the output: the order in which the masks were drawn before each
    # op applied its own
    lm = tiny_lm(hid=12, layers=3, seed=4)
    ids = np.random.default_rng(1).integers(0, 13, size=(2, 5))
    calls, out_mask = lstm_calls(lm, ids)
    rng = Rng(4).child("dropout")
    rng.keep_mask((13, 1), lm.rate("p_emb"))
    for i, ((x_mask, w_mask), layer) in enumerate(zip(calls, lm.layers)):
        n_in = layer.W_ih.shape[0]
        assert np.array_equal(x_mask, rng.keep_mask((2, 1, n_in), lm.rate("p_hidden" if i else "p_input")))
        assert np.array_equal(w_mask, rng.keep_mask(layer.W_hh.shape, lm.rate("p_weight")))
    assert np.array_equal(out_mask, rng.keep_mask((2, 1, 8), lm.rate("p_output")))


def test_embedding_dropout_whole_rows():
    emb = T.param(np.random.default_rng(0).normal(size=(1000, 6)), "emb")
    ids = np.random.default_rng(1).integers(0, 1000, size=(50, 40))
    out = embedding_dropout(emb, ids, 0.2, Rng(0))
    # the same (vocab, 1) mask as one drawn for the whole matrix
    keep = Rng(0).keep_mask((1000, 1), 0.2)[:, 0] > 0
    dropped, kept = ~keep[ids], keep[ids]
    assert (out.data[dropped] == 0.0).all()  # dropped rows exactly zero
    assert np.array_equal(out.data[kept], emb.data[ids][kept] * (1.0 / (1.0 - 0.2)))
    assert abs(dropped.mean() - 0.2) < 0.04
    # backward: each gathered row's gradient carries its scale
    g = np.random.default_rng(2).normal(size=out.shape)
    out._backward(g)
    expect = np.zeros_like(emb.data)
    np.add.at(expect, ids, g * (keep[ids] / (1.0 - 0.2))[..., None])
    np.testing.assert_allclose(emb.grad, expect, rtol=1e-13, atol=1e-13)
    assert (emb.grad[~keep] == 0.0).all()
    plain = embedding_dropout(emb, ids, 0.0, Rng(0))
    assert np.array_equal(plain.data, emb.data[ids])


# -- one training step against the generic composition ----------------------


def generic_encode(lm, ids, float32):
    """The raw and dropped final outputs of a training forward, as the model
    composed them from generic ops: each mask was its own ``mul`` node, drawn
    in the same order."""
    rng = lm.drop_rng

    def drop(x, site, shape):
        p = lm.rate(site)
        return x if p <= 0.0 else mul(x, Tensor(rng.keep_mask(shape, p)))

    b = len(ids)
    x = embedding_dropout(lm.embedding, ids, lm.rate("p_emb"), rng)
    x = drop(x, "p_input", (b, 1, x.shape[2]))
    for i, (layer, state) in enumerate(zip(lm.layers, lm.init_state(b))):
        w_hh = drop(layer.W_hh, "p_weight", layer.W_hh.shape)
        raw, _, _ = T.lstm(x, *state, layer.W_ih, w_hh, layer.b, float32)
        x = raw if i == lm.n_layers - 1 else drop(raw, "p_hidden", (b, 1, raw.shape[2]))
    return raw, drop(raw, "p_output", (b, 1, raw.shape[2]))


def step_results(model, loss):
    T.backward(loss)
    return [loss.data] + [p.grad for _, p in model.named_parameters()]


def test_lm_step_matches_the_generic_composition():
    # a tiny-preset step, which runs in float32
    lm = build_lm(40, "tiny", seed=3).train()
    ids = np.random.default_rng(3).integers(0, 40, size=(4, 9))
    x, y = ids[:, :-1], ids[:, 1:]
    cfg = train.pretrain_defaults()
    results = []
    for fused in (True, False):
        for _, p in lm.named_parameters():
            p.zero_grad()
        lm.reset_dropout(1.0, 5)
        if fused:
            loss = train.lm_loss_terms(lm, x, y, None, cfg)[0]
        else:
            raw, dropped = generic_encode(lm, x, float32=True)
            ce, _ = T.lm_loss(dropped, None, lm.embedding, lm.decoder_bias, y, float32=True)
            loss = add(penalties(raw, dropped, cfg.ar_alpha, cfg.tar_beta), ce)
        results.append(step_results(lm, loss))
    for name, got, want in zip(["loss"] + [n for n, _ in lm.named_parameters()], *results):
        assert np.array_equal(got, want), name


def test_classifier_step_matches_the_generic_composition():
    clf = TextClassifier(build_lm(40, "tiny", seed=3), seed=6).train()
    rng = np.random.default_rng(6)
    ids = rng.integers(0, 40, size=(5, 7))
    lengths, labels = np.array([7, 3, 1, 5, 6]), np.array([0, 1, 1, 0, 1])
    results = []
    for fused in (True, False):
        for _, p in clf.named_parameters():
            p.zero_grad()
        clf.encoder.reset_dropout(1.0, 2)
        clf._drop_rng = Rng(6).child("head-dropout")
        if fused:
            logits = clf.forward(ids, lengths)
        else:
            _, dropped = generic_encode(clf.encoder, ids, float32=True)
            mask = clf._drop_rng.keep_mask((5, HEAD_HIDDEN), clf.encoder.rate("p_head"))
            logits = generic_head(pool(dropped, lengths), clf.W1, clf.b1, clf.W2, clf.b2, mask)
        loss = T.cross_entropy(logits, labels)
        results.append(step_results(clf, loss))
    for name, got, want in zip(["loss"] + [n for n, _ in clf.named_parameters()], *results):
        assert np.array_equal(got, want), name


# -- LSTM and LM forward ----------------------------------------------------


def test_lstm_layer_shapes_and_state():
    layer = LstmLayer(5, 7, Rng(0), "l")
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 5)))
    h0 = (np.zeros((3, 7)), np.zeros((3, 7)))
    out, (h, c) = layer.forward(x, h0)
    assert out.shape == (3, 4, 7)
    assert h.shape == (3, 7) and c.shape == (3, 7)
    assert np.array_equal(out.data[:, -1, :], h)


def test_lstm_forget_bias_initialized_to_one():
    layer = LstmLayer(4, 6, Rng(0), "l")
    assert (layer.b.data[6:12] == 1.0).all()
    assert (layer.b.data[:6] == 0.0).all()
    assert (layer.b.data[12:] == 0.0).all()


def test_lm_forward_shapes_and_state_carry():
    lm = tiny_lm().eval()
    ids = np.random.default_rng(0).integers(0, 13, size=(2, 5))
    logits, state, raw, dropped = lm.forward(ids)
    assert logits.shape == (2, 5, 13)
    assert raw.shape == (2, 5, 8) and dropped.shape == (2, 5, 8)
    assert len(state) == 2
    # carried state changes the continuation
    cont, _, _, _ = lm.forward(ids, state)
    fresh, _, _, _ = lm.forward(ids)
    assert not np.allclose(cont.data, fresh.data)


def test_lm_layer_sizes_taper_to_embedding():
    lm = tiny_lm(emb=8, hid=12, layers=3)
    assert [(l.W_ih.shape[0], l.hidden_size) for l in lm.layers] == [(8, 12), (12, 12), (12, 8)]


def test_lm_rejects_out_of_range_ids():
    lm = tiny_lm(vocab=10)
    with pytest.raises(IndexError):
        lm.forward(np.array([[10]]))


def test_logits_equal_bias_when_embedding_zero():
    lm = tiny_lm().eval()
    lm.embedding.data[:] = 0.0
    bias = np.random.default_rng(1).normal(size=13)
    lm.decoder_bias.data[:] = bias
    logits, _, _, _ = lm.forward(np.array([[3, 5, 2]]))
    assert np.allclose(logits.data, bias[None, None, :])


def test_eval_mode_deterministic_train_mode_stochastic():
    ids = np.random.default_rng(2).integers(0, 13, size=(2, 6))
    lm = tiny_lm().eval()
    a, _, _, _ = lm.forward(ids)
    b, _, _, _ = lm.forward(ids)
    assert np.array_equal(a.data, b.data)
    lm.train()
    c, _, _, _ = lm.forward(ids)
    d, _, _, _ = lm.forward(ids)
    assert not np.array_equal(c.data, d.data)


def test_eval_mode_forward_draws_no_mask():
    ids = np.random.default_rng(4).integers(0, 13, size=(3, 6))
    lengths = np.array([6, 4, 1])
    clf = TextClassifier(tiny_lm(mult=1.0, seed=2), seed=2)
    lm = clf.encoder

    def streams():
        return (lm.drop_rng._gen.bit_generator.state, clf._drop_rng._gen.bit_generator.state)

    lm.eval()
    before = streams()
    logits, _, _, _ = lm.forward(ids)
    assert all(lm.rate(site) == 0.0 for site in DROPOUT_RATES)
    out = clf.eval().forward(ids, lengths)
    assert all(lm.rate(site) == 0.0 for site in DROPOUT_RATES)
    assert streams() == before
    # eval mode is the identity at every site: the outputs of a training-mode
    # forward at dropout multiplier 0
    lm.reset_dropout(0.0, 2)
    lm.train()
    assert np.array_equal(lm.forward(ids)[0].data, logits.data)
    assert np.array_equal(clf.train().forward(ids, lengths).data, out.data)
    # and training mode at a positive multiplier draws from both streams
    lm.reset_dropout(1.0, 2)
    fresh = streams()
    clf.forward(ids, lengths)
    assert all(a != b for a, b in zip(streams(), fresh))


def test_reset_dropout_scales_every_site_and_restarts_the_stream():
    ids = np.random.default_rng(2).integers(0, 13, size=(2, 6))
    built = tiny_lm(mult=0.5, seed=7).train()
    reset = tiny_lm(mult=2.0, seed=0).train()
    reset.forward(ids)  # draws masks from seed 0's stream
    reset.load_state_dict(built.state_dict())
    reset.reset_dropout(0.5, 7)
    # one multiplier scales each site's base rate
    assert reset.rate("p_input") == 0.125 and reset.rate("p_weight") == 0.1
    # the constructor and reset_dropout start the same stream
    a, _, _, _ = built.forward(ids)
    b, _, _, _ = reset.forward(ids)
    assert np.array_equal(a.data, b.data)
    reset.reset_dropout(0.0, 7)
    assert all(reset.rate(site) == 0.0 for site in ("p_emb", "p_hidden", "p_output", "p_head"))


@pytest.mark.parametrize("dims", [(13, 8, 12, 1), (13, 8, 12, 2), (9, 5, 3, 3), (20, 4, 4, 4)])
def test_param_shapes_are_the_built_models_names_and_shapes(dims):
    lm = AwdLstmLM(*dims)
    for kind, model in (("lm", lm), ("classifier", TextClassifier(lm))):
        assert list(param_shapes(kind, *dims)) == [
            (name, p.data.shape) for name, p in model.named_parameters()], kind


def test_weight_tying_storage_identity():
    lm = tiny_lm()
    names = [n for n, _ in lm.named_parameters()]
    assert "embedding" in names and not any("decoder.W" in n for n in names)
    # the decoder weight IS the embedding tensor: editing it moves the logits
    lm.eval()
    before, _, _, _ = lm.forward(np.array([[1, 2]]))
    lm.embedding.data[3, :] += 5.0
    after, _, _, _ = lm.forward(np.array([[1, 2]]))
    assert not np.allclose(before.data[..., 3], after.data[..., 3])


def test_state_dict_roundtrip_and_errors():
    lm = tiny_lm(seed=1)
    other = tiny_lm(seed=2)
    other.load_state_dict(lm.state_dict())
    for (_, a), (_, b) in zip(lm.named_parameters(), other.named_parameters()):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(KeyError):
        lm.load_state_dict({})
    bad = lm.state_dict()
    bad["embedding"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="embedding"):
        lm.load_state_dict(bad)


def test_load_state_dict_writes_into_each_parameters_own_array():
    lm, other = tiny_lm(seed=1), tiny_lm(seed=2)
    arrays = {name: p.data for name, p in other.named_parameters()}
    other.load_state_dict(lm.state_dict())
    for (name, a), (_, b) in zip(lm.named_parameters(), other.named_parameters()):
        assert b.data is arrays[name] and np.array_equal(b.data, a.data), name


def test_build_lm_presets():
    assert PRESETS["full"] == dict(emb_dim=400, hid_dim=1152, n_layers=3)
    assert PRESETS["tiny"] == dict(emb_dim=64, hid_dim=128, n_layers=3)
    lm = build_lm(50, "tiny", dropout_multiplier=0.5, seed=3)
    assert lm.emb_dim == 64 and lm.hid_dim == 128 and lm.n_layers == 3
    assert lm.dropout_multiplier == 0.5
    with pytest.raises(ValueError, match="preset"):
        build_lm(50, "huge")


# -- pooling and classifier -------------------------------------------------


def test_concat_pool_brute_force():
    rng = np.random.default_rng(4)
    hidden = Tensor(rng.normal(size=(2, 6, 3)))
    lengths = np.array([6, 3])
    pooled = T.classifier_head(hidden, lengths, *identity_head(3)).data  # logits = the pool
    assert pooled.shape == (2, 9)
    for b in range(2):
        valid = hidden.data[b, : lengths[b]]
        expect = np.concatenate([valid[-1], valid.max(axis=0), valid.mean(axis=0)])
        assert np.allclose(pooled[b], expect, atol=1e-12)


def test_classifier_forward_shapes_and_errors():
    clf = TextClassifier(tiny_lm(), seed=0).eval()
    ids = np.random.default_rng(5).integers(0, 13, size=(4, 7))
    logits = clf.forward(ids, np.array([7, 3, 1, 5]))
    assert logits.shape == (4, 2)
    with pytest.raises(ValueError):
        clf.forward(np.zeros((0, 3), dtype=int), np.array([]))
    with pytest.raises(ValueError):
        clf.forward(ids, np.array([7, 0, 1, 5]))


def test_classifier_layer_groups_structure():
    clf = TextClassifier(tiny_lm(layers=3))
    groups = clf.layer_groups()
    assert len(groups) == 4  # [emb + lstm0], lstm1, lstm2, head
    assert clf.encoder.embedding in groups[0]
    assert groups[-1] == clf.head_parameters()
    assert clf.W1.shape == (3 * clf.encoder.emb_dim, HEAD_HIDDEN)


def test_freeze_to_contract():
    clf = TextClassifier(tiny_lm(layers=3))
    clf.freeze_to(2)
    groups = clf.layer_groups()
    for gi, group in enumerate(groups):
        for p in group:
            assert p.requires_grad == (gi >= 2)
    assert len(clf.trainable_groups()) == 2
    clf.freeze_to(0)
    assert all(p.requires_grad for g in groups for p in g)
    with pytest.raises(IndexError):
        clf.freeze_to(4)
    with pytest.raises(IndexError):
        clf.freeze_to(-1)


def test_frozen_groups_receive_no_gradient():
    clf = TextClassifier(tiny_lm(mult=0.0), seed=0)
    clf.freeze_to(len(clf.layer_groups()) - 1)  # head only
    clf.train()
    ids = np.random.default_rng(6).integers(0, 13, size=(2, 4))
    loss = T.cross_entropy(clf.forward(ids, np.array([4, 4])), np.array([0, 1]))
    T.backward(loss)
    assert clf.encoder.embedding.grad is None
    assert all(p.grad is not None for p in clf.head_parameters())


def test_classifier_state_dict_roundtrip():
    a = TextClassifier(tiny_lm(seed=1), seed=1)
    b = TextClassifier(tiny_lm(seed=2), seed=2)
    b.load_state_dict(a.state_dict())
    ids = np.random.default_rng(7).integers(0, 13, size=(2, 5))
    lengths = np.array([5, 4])
    assert np.allclose(a.eval().forward(ids, lengths).data,
                       b.eval().forward(ids, lengths).data, atol=1e-15)
