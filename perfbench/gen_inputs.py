"""Seeded input generator for the ulmkit benchmark.

Writes two files into a directory of the caller's choosing (never into the
repository's ``fixtures/``):

- ``corpus.txt``: one document per line. Every word of a 10,000-type
  pseudo-word lexicon appears at least once, plus ``ZIPF_TOKENS`` extra
  draws with Zipfian frequencies (exponent ``ZIPF_S``). Each line starts
  with a capitalised word and ends with a full stop.
- ``labeled.csv``: ``LABELED_ROWS`` unique ``text,label`` rows. Texts are
  Zipfian draws over the same lexicon with ``OOV_RATE`` of words replaced by
  words outside it; lengths are log-normal, clipped to
  ``[MIN_WORDS, MAX_WORDS]``; labels are fair coin flips.

No word ever repeats three times in a row and no word contains a character
run of three, so ulmkit's repeat markers never fire and the benchmark can
tokenize the files itself (see ``corpus_tokens`` and ``text_tokens``).

Regenerate by hand with ``python3 perfbench/gen_inputs.py --seed 0 --out DIR``.
"""

from __future__ import annotations

import argparse
import os
import re
from dataclasses import dataclass

import numpy as np

N_TYPES = 10_000
ZIPF_TOKENS = 2_500
ZIPF_S = 1.1
LINE_WORDS = (10, 40)
LABELED_ROWS = 2_000
MIN_WORDS, MAX_WORDS = 3, 60
OOV_RATE = 0.02

_ONSETS = ("", "b", "d", "g", "h", "k", "l", "m", "n", "ng", "p", "r", "s", "t", "w", "y")
_VOWELS = ("a", "e", "i", "o", "u")
_OOV_ONSETS = ("f", "v", "z")
_CHAR_RUN = re.compile(r"(.)\1\1")


@dataclass
class Inputs:
    corpus_path: str
    csv_path: str
    lines: list[list[str]]           # corpus documents as lowercase words
    rows: list[tuple[list[str], int]]  # labeled texts as lowercase words, label


def _words(rng: np.random.Generator, n: int, onsets, exclude=frozenset()) -> list[str]:
    sylls = [o + v for o in onsets for v in _VOWELS]
    out: list[str] = []
    seen = set(exclude)
    while len(out) < n:
        w = "".join(rng.choice(sylls, size=int(rng.integers(2, 5))))
        if w not in seen and not _CHAR_RUN.search(w):
            seen.add(w)
            out.append(w)
    return out


def _zipf_cdf(n_types: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n_types + 1) ** ZIPF_S
    return np.cumsum(p / p.sum())


def _zipf_ids(rng: np.random.Generator, rank_to_id: np.ndarray, cdf: np.ndarray,
              n: int) -> np.ndarray:
    ranks = np.minimum(np.searchsorted(cdf, rng.random(n)), len(cdf) - 1)
    return rank_to_id[ranks]


def _break_triples(ids: np.ndarray, rng: np.random.Generator,
                   redraw_from: int | None = None) -> np.ndarray:
    """Remove runs of three equal ids, by swapping with a random position
    (keeps the multiset, for the corpus) or, given ``redraw_from``, by
    redrawing uniformly from that many types (for short texts, where a swap
    may never succeed)."""
    ids = ids.copy()
    for i in range(2, len(ids)):
        while ids[i] == ids[i - 1] == ids[i - 2]:
            if redraw_from is None:
                j = int(rng.integers(0, len(ids)))
                ids[i], ids[j] = ids[j], ids[i]
            else:
                ids[i] = rng.integers(0, redraw_from)
    return ids


def make_corpus(seed: int) -> tuple[list[str], list[list[str]]]:
    """(lexicon, documents) for a seed; deterministic."""
    rng = np.random.default_rng([seed, 1])
    lexicon = _words(rng, N_TYPES, _ONSETS)
    zipf = _zipf_ids(rng, rng.permutation(N_TYPES), _zipf_cdf(N_TYPES), ZIPF_TOKENS)
    ids = _break_triples(rng.permutation(np.concatenate([np.arange(N_TYPES), zipf])), rng)
    lines, pos = [], 0
    while pos < len(ids):
        n = int(rng.integers(LINE_WORDS[0], LINE_WORDS[1] + 1))
        lines.append([lexicon[i] for i in ids[pos : pos + n]])
        pos += n
    return lexicon, lines


def make_labeled(seed: int, lexicon: list[str]) -> list[tuple[list[str], int]]:
    rng = np.random.default_rng([seed, 2])
    oov = _words(rng, 500, _OOV_ONSETS, exclude=set(lexicon))
    rank_to_id, cdf = rng.permutation(len(lexicon)), _zipf_cdf(len(lexicon))
    rows, seen = [], set()
    while len(rows) < LABELED_ROWS:
        n = int(np.clip(round(rng.lognormal(2.5, 0.7)), MIN_WORDS, MAX_WORDS))
        ids = _break_triples(_zipf_ids(rng, rank_to_id, cdf, n), rng, len(lexicon))
        words = [oov[int(rng.integers(len(oov)))] if rng.random() < OOV_RATE else lexicon[i]
                 for i in ids]
        text = " ".join(words)
        if text in seen:
            continue
        seen.add(text)
        rows.append((words, int(rng.integers(0, 2))))
    return rows


def render_line(words: list[str]) -> str:
    return " ".join([words[0].capitalize()] + words[1:]) + "."


def render_text(words: list[str]) -> str:
    return " ".join([words[0].capitalize()] + words[1:])


def corpus_tokens(words: list[str]) -> list[str]:
    """What ulmkit's tokenizer must make of ``render_line(words)``."""
    return ["xxbos", "xxmaj"] + words + ["."]


def text_tokens(words: list[str]) -> list[str]:
    """What ulmkit's tokenizer must make of ``render_text(words)``."""
    return ["xxbos", "xxmaj"] + words


def write_inputs(seed: int, out_dir: str, labeled: bool = True) -> Inputs:
    """Write corpus.txt and, unless ``labeled`` is false, labeled.csv."""
    os.makedirs(out_dir, exist_ok=True)
    lexicon, lines = make_corpus(seed)
    corpus_path = os.path.join(out_dir, "corpus.txt")
    with open(corpus_path, "w", encoding="utf-8") as f:
        f.writelines(render_line(words) + "\n" for words in lines)
    if not labeled:
        return Inputs(corpus_path, "", lines, [])
    rows = make_labeled(seed, lexicon)
    csv_path = os.path.join(out_dir, "labeled.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("text,label\n")
        f.writelines(f"{render_text(words)},{label}\n" for words, label in rows)
    return Inputs(corpus_path, csv_path, lines, rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write corpus.txt and labeled.csv")
    args = ap.parse_args()
    inputs = write_inputs(args.seed, args.out)
    n_tokens = sum(len(corpus_tokens(w)) for w in inputs.lines)
    print(f"wrote {inputs.corpus_path} ({len(inputs.lines)} lines, {n_tokens} tokens) "
          f"and {inputs.csv_path} ({len(inputs.rows)} rows)")


if __name__ == "__main__":
    main()
