"""Text preprocessing, vocabulary construction, and numericalization.

The tokenizer is rule-based and marker-driven: casing and character/word
repetition are rewritten into reserved marker tokens (prefix ``xx``) so the
downstream language model sees a fully lowercase stream without losing that
information. Rule order is fixed: character-repeat, word-repeat, case
markers, then whitespace/punctuation splitting.
"""

from __future__ import annotations

import csv
import itertools
import re
from collections import Counter
from dataclasses import dataclass, field

from .tensor import Rng

# Reserved tokens, lowest ids first. UNK and PAD ids are part of the
# checkpoint format and must never move.
UNK = "xxunk"
PAD = "xxpad"
BOS = "xxbos"
UP = "xxup"
MAJ = "xxmaj"
REP = "xxrep"
WREP = "xxwrep"
SPECIALS = (UNK, PAD, BOS, UP, MAJ, REP, WREP)

UNK_ID = 0
PAD_ID = 1
# The vocabulary's default size cap, reserved tokens included.
MAX_VOCAB = 60000

_CHAR_REP = re.compile(r"(\S)\1{2,}")
_WORD_OR_PUNCT = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class SettingError(ValueError):
    """A parameter outside its range. The message begins with the
    parameter's name, ``field``, so that a caller can name the option that
    supplied the value instead."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} {rule}, got {value}")
        self.field = field


class CorpusFormatError(ValueError):
    """Raised when an input file violates its documented format."""


def _expand_char_repeats(text: str) -> str:
    def sub(m: re.Match) -> str:
        ch = m.group(1)
        return f" {REP} {len(m.group(0))} {ch} "

    return _CHAR_REP.sub(sub, text)


def _collapse_word_repeats(words: list[str]) -> list[str]:
    out: list[str] = []
    for word, group in itertools.groupby(words):
        run = list(group)
        out += run if len(run) < 3 else (WREP, str(len(run)), word)
    return out


def _mark_case(word: str) -> list[str]:
    alpha = [c for c in word if c.isalpha()]
    if len(alpha) >= 2 and all(c.isupper() for c in alpha):
        return [UP, word.lower()]
    if alpha and word and word[0].isupper() and all(not c.isupper() for c in alpha[1:]):
        return [MAJ, word.lower()]
    return [word]


def preprocess(text: str) -> list[str]:
    """Tokenize raw text into marker-annotated tokens.

    Always begins with the beginning-of-stream marker; deterministic and
    stateless. Empty input yields ``[BOS]`` alone. Every marked word,
    markers included, is split into word and punctuation tokens; a marker
    is one word token, so it stays whole.
    """
    words = _expand_char_repeats(text).split()
    words = _collapse_word_repeats(words)
    tokens = [BOS]
    for word in words:
        for marked in _mark_case(word):
            tokens.extend(_WORD_OR_PUNCT.findall(marked))
    return tokens


@dataclass
class Vocabulary:
    """Frequency-ranked token<->id map with reserved specials at the bottom."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)


def build_vocab(tokens, max_size: int = MAX_VOCAB) -> Vocabulary:
    """Build a capped vocabulary from a token stream.

    Corpus tokens are admitted in non-increasing frequency order; ties break
    by first occurrence (Counter preserves insertion order, and the sort is
    stable). Reserved tokens never count as corpus tokens.
    """
    if max_size <= len(SPECIALS):
        raise SettingError("max_size", f"must exceed {len(SPECIALS)} reserved tokens", max_size)
    counts = Counter(t for t in tokens if t not in SPECIALS)
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    kept = [t for t, _ in ranked[: max_size - len(SPECIALS)]]
    return Vocabulary(list(SPECIALS) + kept)


def numericalize(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to ids; unknown surface forms map to the unknown id."""
    return [vocab.token_to_id.get(t, UNK_ID) for t in tokens]


@dataclass
class NumericalizedCorpus:
    """Id sequences plus optional binary labels for one data split."""

    streams: list[list[int]]
    labels: list[int] | None = None

    def __post_init__(self):
        if self.labels is not None:
            if len(self.labels) != len(self.streams):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.streams)} streams"
                )
            bad = [l for l in self.labels if l not in (0, 1)]
            if bad:
                raise ValueError(f"labels must be 0 or 1, got {bad[0]}")


def _csv_rows(reader, path):
    """The rows of a ``csv.reader`` over ``path``; a line the csv module
    cannot parse, such as one whose field is past its length limit, is
    refused as a CorpusFormatError naming the file and line."""
    try:
        yield from reader
    except csv.Error as exc:  # not a ValueError
        raise CorpusFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def load_labeled_csv(path) -> list[tuple[str, int]]:
    """Load (text, label) rows from a UTF-8 CSV with header ``text,label``,
    with or without a byte-order mark.

    Labels must be 0 or 1; any malformed row is reported with its line number.
    """
    records: list[tuple[str, int]] = []
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        rows = _csv_rows(reader, path)
        header = next(rows, None)
        if header is None:
            raise CorpusFormatError(f"{path}: empty file, expected header 'text,label'")
        if [h.strip() for h in header] != ["text", "label"]:
            raise CorpusFormatError(f"{path}: line 1: expected header 'text,label', got {header!r}")
        for row in rows:
            line = reader.line_num
            if len(row) != 2:
                raise CorpusFormatError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
            text, label = row
            if label.strip() not in ("0", "1"):
                raise CorpusFormatError(f"{path}: line {line}: label must be 0 or 1, got {label!r}")
            records.append((text, int(label)))
    return records


def load_corpus_lines(path) -> list[str]:
    """Load an unlabeled corpus: UTF-8 plain text, with or without a
    byte-order mark, one document per line."""
    with open(path, encoding="utf-8-sig") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def split_corpus(records: list, held_out: float, seed: int) -> tuple[list, list]:
    """Randomly partition records into a kept split of round((1 - held_out)
    * n) records and a held-out split of the rest (100 records at 0.1 give
    90/10), for ``held_out`` in (0, 1). Deterministic for a fixed seed,
    which ``Rng`` takes modulo 2^64.
    """
    if not 0.0 < held_out < 1.0:  # NaN fails the comparison, so it is refused too
        raise SettingError("held_out", "must be in (0, 1)", held_out)
    n = len(records)
    shuffled = [records[k] for k in Rng(seed).permutation(n)]
    kept = round((1.0 - held_out) * n)
    return shuffled[:kept], shuffled[kept:]
