"""Tokenizer, vocabulary, corpus loading, and splitting tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from ulmkit import textpipe as tp


def test_preprocess_fixture_exact(preprocess_cases_path):
    with open(preprocess_cases_path, encoding="utf-8") as f:
        cases = json.load(f)
    assert len(cases) == 20
    for case in cases:
        assert tp.preprocess(case["text"]) == case["tokens"], case["text"]


def test_preprocess_starts_with_bos():
    assert tp.preprocess("")[0] == tp.BOS
    assert tp.preprocess("kahit ano dito")[0] == tp.BOS


def test_preprocess_char_repeat():
    assert tp.preprocess("grabeee") == [tp.BOS, "grab", tp.REP, "3", "e"]


def test_preprocess_word_repeat():
    assert tp.preprocess("wow wow wow") == [tp.BOS, tp.WREP, "3", "wow"]
    # runs shorter than 3 pass through untouched
    assert tp.preprocess("oo oo") == [tp.BOS, "oo", "oo"]


def test_preprocess_case_markers():
    assert tp.preprocess("HELLO po") == [tp.BOS, tp.UP, "hello", "po"]
    assert tp.preprocess("Hello po") == [tp.BOS, tp.MAJ, "hello", "po"]
    # a lone capital counts as capitalized, not all-caps
    assert tp.preprocess("a B c") == [tp.BOS, "a", tp.MAJ, "b", "c"]


def test_preprocess_deterministic():
    text = "Hindi!!! GRABE talaga talaga talaga iyooon"
    assert tp.preprocess(text) == tp.preprocess(text)


@given(st.text(max_size=80))
@settings(max_examples=200, deadline=None)
def test_preprocess_output_lowercase_after_markers(text):
    tokens = tp.preprocess(text)
    assert tokens[0] == tp.BOS
    for prev, tok in zip(tokens, tokens[1:]):
        if prev in (tp.UP, tp.MAJ):
            assert tok == tok.lower()


def test_specials_order_and_ids():
    assert tp.SPECIALS == ("xxunk", "xxpad", "xxbos", "xxup", "xxmaj", "xxrep", "xxwrep")
    vocab = tp.build_vocab(["a", "b"])
    assert vocab.token_to_id[tp.UNK] == tp.UNK_ID == 0
    assert vocab.token_to_id[tp.PAD] == tp.PAD_ID == 1
    assert vocab.token_to_id[tp.BOS] == 2


def test_build_vocab_frequency_order_ties_by_first_seen():
    tokens = ["b", "a", "a", "c", "b", "d"]
    vocab = tp.build_vocab(tokens)
    corpus_part = vocab.id_to_token[len(tp.SPECIALS):]
    # a and b both occur twice; b was seen first
    assert corpus_part == ["b", "a", "c", "d"]


def test_build_vocab_cap():
    tokens = [f"tok{i}" for i in range(100)]
    vocab = tp.build_vocab(tokens, max_size=20)
    assert len(vocab) == 20
    # default cap holds even for huge streams of distinct tokens
    big = (f"w{i}" for i in range(70000))
    assert len(tp.build_vocab(big)) <= 60000


def test_build_vocab_rejects_bad_args():
    with pytest.raises(ValueError):
        tp.build_vocab(["a"], max_size=len(tp.SPECIALS))


def test_numericalize_unknown_maps_to_unk():
    vocab = tp.build_vocab(["alam", "ko"])
    ids = tp.numericalize(["alam", "wala", "ko"], vocab)
    assert ids == [vocab.token_to_id["alam"], tp.UNK_ID, vocab.token_to_id["ko"]]


@given(st.lists(st.sampled_from(["isa", "dalawa", "tatlo", "apat", "lima"]), max_size=30))
@settings(max_examples=100, deadline=None)
def test_numericalize_roundtrip_in_vocab(tokens):
    vocab = tp.build_vocab(["isa", "dalawa", "tatlo", "apat", "lima"])
    assert [vocab.id_to_token[i] for i in tp.numericalize(tokens, vocab)] == tokens


def test_corpus_rejects_bad_labels():
    with pytest.raises(ValueError):
        tp.NumericalizedCorpus([[2, 3]], labels=[2])
    with pytest.raises(ValueError):
        tp.NumericalizedCorpus([[2, 3], [2, 4]], labels=[0])


def test_load_labeled_csv(labeled_path):
    records = tp.load_labeled_csv(labeled_path)
    assert len(records) == 60
    assert all(label in (0, 1) for _, label in records)
    assert any("," in text for text, _ in records)  # quoted fields survive


def test_load_labeled_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("body,tag\nx,0\n", encoding="utf-8")
    with pytest.raises(tp.CorpusFormatError, match="line 1"):
        tp.load_labeled_csv(bad_header)

    bad_label = tmp_path / "l.csv"
    bad_label.write_text("text,label\nx,0\ny,7\n", encoding="utf-8")
    with pytest.raises(tp.CorpusFormatError, match="line 3"):
        tp.load_labeled_csv(bad_label)

    empty = tmp_path / "e.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(tp.CorpusFormatError, match="empty"):
        tp.load_labeled_csv(empty)

    # the csv module's own error (csv.Error, not a ValueError) at a field
    # longer than its limit of 131,072 characters
    long = tmp_path / "f.csv"
    long.write_text(f"text,label\nx,0\n{'a' * 200_000},1\n", encoding="utf-8")
    with pytest.raises(tp.CorpusFormatError) as info:
        tp.load_labeled_csv(long)
    assert str(info.value).startswith(f"{long}: line 3: field larger than field limit")


def test_load_corpus_lines(corpus_path):
    lines = tp.load_corpus_lines(corpus_path)
    assert len(lines) == 200
    assert all(line.strip() for line in lines)


@pytest.mark.parametrize("name", ["labeled.csv", "corpus.txt"])
def test_a_byte_order_mark_reads_as_none(name, tmp_path):
    # a file saved with a UTF-8 byte-order mark loads as the same file
    # without: no stray token, and the first word keeps its case marker
    load = tp.load_labeled_csv if name.endswith(".csv") else tp.load_corpus_lines
    fixture = FIXTURES / name
    head = "text,label\nHello world,1\n" if name.endswith(".csv") else "Hello world\n"
    for path, body in ((tmp_path / "fixture", fixture.read_bytes()),
                       (tmp_path / "hello", head.encode("utf-8"))):
        path.write_bytes(b"\xef\xbb\xbf" + body)
        plain = tmp_path / "plain"
        plain.write_bytes(body)
        assert load(path) == load(plain)
    first = load(path)[0]
    text = first[0] if name.endswith(".csv") else first
    assert tp.preprocess(text) == ["xxbos", "xxmaj", "hello", "world"]


def test_split_corpus_exact_sizes_and_partition():
    records = list(range(100))
    train, valid = tp.split_corpus(records, 0.1, seed=3)
    assert len(train) == 90 and len(valid) == 10
    assert sorted(train + valid) == records


def test_split_corpus_deterministic():
    records = list(range(57))
    assert tp.split_corpus(records, 0.5, seed=9) == tp.split_corpus(records, 0.5, seed=9)


@pytest.mark.parametrize("n", [0, 1, 7, 60, 1000])
def test_split_corpus_order_is_numpy_default_rng_permutation(n):
    # the benchmark's checks reproduce the split order this way
    for seed in range(10):
        train, valid = tp.split_corpus(list(range(n)), 0.1, seed=seed)
        assert train + valid == np.random.default_rng(seed).permutation(n).tolist()


def test_split_corpus_takes_a_negative_seed_modulo_2_to_the_64():
    records = list(range(50))
    assert tp.split_corpus(records, 0.5, seed=-1) == tp.split_corpus(
        records, 0.5, seed=2**64 - 1)


def test_split_corpus_rejects_bad_fractions():
    with pytest.raises(ValueError):
        tp.split_corpus([1, 2], 1.5, seed=0)
