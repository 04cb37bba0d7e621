"""Model tests: dropout sites, LSTM mechanics, tying, freezing, pooling."""

import numpy as np
import pytest

from ulmkit import tensor as T
from ulmkit.model import (
    DROPOUT_RATES,
    HEAD_HIDDEN,
    PRESETS,
    AwdLstmLM,
    LstmLayer,
    TextClassifier,
    build_lm,
    dropout,
    embedding_dropout,
    param_shapes,
    variational_dropout,
)
from ulmkit.tensor import Rng, Tensor


def tiny_lm(vocab=13, emb=8, hid=12, layers=2, mult=1.0, seed=0):
    return AwdLstmLM(vocab, emb, hid, layers, dropout_multiplier=mult, seed=seed)


# -- dropout sites ----------------------------------------------------------


def test_weight_drop_monte_carlo():
    layer = LstmLayer(100, 250, Rng(0), "l")  # W_hh has 250 * 1000 entries
    dropped = dropout(layer.W_hh, 0.5, Rng(1))
    zero_frac = (dropped.data == 0).mean()
    assert abs(zero_frac - 0.5) < 0.01
    survivors = dropped.data[dropped.data != 0]
    orig = layer.W_hh.data[dropped.data != 0]
    assert np.allclose(survivors, orig * 2.0)  # 1/(1-p) scaling


def test_weight_drop_eval_and_zero_rate_identity():
    layer = LstmLayer(4, 6, Rng(0), "l")
    assert dropout(layer.W_hh, 0.0, Rng(1)) is layer.W_hh


def test_variational_dropout_locked_across_time():
    x = Tensor(np.ones((3, 7, 40)))
    out = variational_dropout(x, 0.4, Rng(0)).data
    # one (batch, feature) mask reused at every timestep
    for t in range(1, 7):
        assert np.array_equal(out[:, t, :], out[:, 0, :])
    vals = set(np.unique(out).tolist())
    assert vals <= {0.0, 1.0 / 0.6}


def test_variational_dropout_preserves_expectation():
    x = Tensor(np.ones((64, 1, 500)))
    out = variational_dropout(x, 0.25, Rng(3)).data
    assert abs(out.mean() - 1.0) < 0.02


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


# -- LSTM and LM forward ----------------------------------------------------


def test_lstm_layer_shapes_and_state():
    layer = LstmLayer(5, 7, Rng(0), "l")
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 5)))
    h0 = (np.zeros((3, 7)), np.zeros((3, 7)))
    out, (h, c) = layer.forward(x, h0, layer.W_hh)
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
    pooled = T.concat_pool(hidden, lengths).data
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
