"""Output checks for the benchmark's workloads.

Each check takes what a ulmkit command produced and what the benchmark
computed on its own (split arithmetic, token counts, the numpy reference in
``reference.py``) and returns a list of failure messages; an empty list
means the output is correct. Tolerances follow the precision each command
prints with.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

REL_TOL = 1e-9
DEGRADE_HEADER = "fraction,n_train,repeats,mean_accuracy,mean_loss,degradation_pct"
_PREDICT = re.compile(r"^label=(\d+) probability=([0-9.]+)$")
_EVAL = re.compile(r"^accuracy=([0-9.]+), loss=([0-9.]+), n=(\d+)$")
_TOP = re.compile(r"^loss=([0-9.]+) target=(\d) predicted=(\d) p=([0-9.]+) text=(.*)$")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def split_sizes(n: int, first_fraction: float) -> tuple[int, int]:
    """Sizes of ulmkit's two-way ``split_corpus``: cumulative rounding."""
    k = round(first_fraction * n)
    return k, n - k


def split_order(n: int, seed: int) -> np.ndarray:
    """Record order of ulmkit's ``split_corpus`` for a seed."""
    return np.random.default_rng(seed).permutation(n)


# --- lm-pretrain-10k -------------------------------------------------------


def lm_ribbon_shape(n_tokens: int, batch: int) -> tuple[int, int]:
    """(rows, columns) of the batchified token ribbon: floor(N/B) columns."""
    return batch, n_tokens // batch


def lm_windows(columns: int, bptt: int) -> int:
    return math.ceil((columns - 1) / bptt)


def check_lm_counts(n_train_tokens: int, batch: int, bptt: int,
                    ribbon_size: int, steps: int) -> list[str]:
    rows, cols = lm_ribbon_shape(n_train_tokens, batch)
    fails = []
    if ribbon_size != rows * cols:
        fails.append(f"pretrain trained on {ribbon_size} tokens, expected "
                     f"floor({n_train_tokens}/{batch})*{batch} = {rows * cols}")
    if steps != lm_windows(cols, bptt):
        fails.append(f"pretrain ran {steps} steps, expected "
                     f"ceil(({cols}-1)/{bptt}) = {lm_windows(cols, bptt)}")
    return fails


def logged_valid_loss(log_text: str, epoch: int) -> float:
    for line in log_text.splitlines():
        fields = line.split(",")
        if fields[0] == "pretrain" and fields[2] == str(epoch):
            return float(fields[4])
    raise ValueError(f"no pretrain epoch {epoch} line in the metrics log")


def check_lm_valid_loss(program_loss: float, log_text: str, ref_loss: float,
                        vocab_size: int) -> list[str]:
    fails = []
    if not _close(program_loss, ref_loss):
        fails.append(f"validation loss {program_loss!r} != reference {ref_loss!r}")
    logged = logged_valid_loss(log_text, 1)
    if abs(logged - ref_loss) > 5e-7 + 1e-12:
        fails.append(f"logged validation loss {logged} != reference {ref_loss:.6f}")
    if not ref_loss < math.log(vocab_size):
        fails.append(f"validation loss {ref_loss} is not below ln(V) = {math.log(vocab_size)}")
    return fails


# --- degrade-fixture -------------------------------------------------------


def parse_degrade_csv(text: str) -> list[dict]:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    if not lines or lines[0] != DEGRADE_HEADER:
        raise ValueError(f"degradation CSV header is {lines[:1]!r}")
    keys = DEGRADE_HEADER.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def check_degrade_csv(text: str, n_train_split: int, fractions: list[float],
                      repeats: int) -> list[str]:
    """Row order, n_train arithmetic and degradation_pct recomputed from the
    CSV's own accuracies."""
    try:
        rows = parse_degrade_csv(text)
    except ValueError as exc:
        return [str(exc)]
    fails = []
    want = sorted(fractions, reverse=True)
    got = [float(r["fraction"]) for r in rows]
    if got != want:
        return [f"degradation rows are for fractions {got}, expected {want}"]
    full = float(rows[0]["mean_accuracy"])
    for r, frac in zip(rows, want):
        if int(r["n_train"]) != round(frac * n_train_split):
            fails.append(f"fraction {frac}: n_train {r['n_train']}, expected "
                         f"round({frac}*{n_train_split}) = {round(frac * n_train_split)}")
        if int(r["repeats"]) != repeats:
            fails.append(f"fraction {frac}: repeats {r['repeats']}, expected {repeats}")
        acc, pct = float(r["mean_accuracy"]), float(r["degradation_pct"])
        if frac == want[0]:
            if pct != 0.0:
                fails.append(f"full-data row has degradation_pct {r['degradation_pct']}, "
                             "expected 0")
            continue
        if full <= 0:
            fails.append("full-data accuracy is 0; degradation_pct is undefined")
            continue
        expect = 100.0 * (full - acc) / full
        # both accuracies carry 5e-7 of print rounding, the percentage 5e-5
        tol = 5e-5 + 100.0 * 5e-7 * (1.0 / full + acc / full**2) + 1e-9
        if abs(pct - expect) > tol:
            fails.append(f"fraction {frac}: degradation_pct {pct}, expected "
                         f"100*({full}-{acc})/{full} = {expect:.4f}")
    return fails


def check_degrade_means(text: str, results: list[list[tuple[float, float]]]) -> list[str]:
    """CSV means against the per-run (accuracy, loss) that ``evaluate``
    returned, one list per fraction in row order."""
    fails = []
    for row, runs in zip(parse_degrade_csv(text), results):
        accs, losses = zip(*runs)
        for key, values in (("mean_accuracy", accs), ("mean_loss", losses)):
            if abs(float(row[key]) - float(np.mean(values))) > 5e-7 + 1e-12:
                fails.append(f"fraction {row['fraction']}: {key} {row[key]} != mean of "
                             f"evaluate results {np.mean(values):.6f}")
    return fails


def check_rescore(tag: str, evaluated: tuple[float, float],
                  reference: tuple[float, float]) -> list[str]:
    (acc, loss), (ref_acc, ref_loss) = evaluated, reference
    fails = []
    if acc != ref_acc:
        fails.append(f"{tag}: evaluate accuracy {acc} != reference {ref_acc}")
    if not _close(loss, ref_loss):
        fails.append(f"{tag}: evaluate loss {loss!r} != reference {ref_loss!r}")
    return fails


# --- infer-10k -------------------------------------------------------------


def check_predict(stdout: str, ref_probs: np.ndarray) -> list[str]:
    m = _PREDICT.match(stdout.strip())
    if not m:
        return [f"unparseable predict output {stdout!r}"]
    label, prob = int(m.group(1)), float(m.group(2))
    if label >= len(ref_probs):
        return [f"predict label {label} is not a class"]
    best = int(ref_probs.argmax())
    fails = []
    if label != best and abs(ref_probs[label] - ref_probs[best]) > 1e-9:
        fails.append(f"predict label {label}, reference {best} (p={ref_probs})")
    if abs(prob - ref_probs[label]) > 5e-5 + 1e-9:
        fails.append(f"predict probability {prob}, reference {ref_probs[label]:.6f}")
    return fails


def check_eval(stdout: str, ref_acc: float, ref_loss: float, n: int) -> list[str]:
    m = _EVAL.match(stdout.strip())
    if not m:
        return [f"unparseable eval output {stdout!r}"]
    acc, loss, got_n = float(m.group(1)), float(m.group(2)), int(m.group(3))
    fails = []
    if got_n != n:
        fails.append(f"eval scored {got_n} examples, expected {n}")
    if abs(acc - ref_acc) > 5e-5 + 1e-12:
        fails.append(f"eval accuracy {acc}, reference {ref_acc:.6f}")
    if abs(loss - ref_loss) > 5e-7 + 1e-12:
        fails.append(f"eval loss {loss}, reference {ref_loss:.8f}")
    return fails


def check_top_losses(stdout: str, k: int, row_of_text: dict[str, int],
                     ref_losses: np.ndarray, ref_probs: np.ndarray, labels) -> list[str]:
    """Listed examples are the k largest reference losses, in descending
    order, with targets, predictions, losses and probabilities as printed."""
    lines = stdout.strip().splitlines()
    if len(lines) != k:
        return [f"top-losses printed {len(lines)} lines, expected {k}"]
    fails, picked = [], []
    for line in lines:
        m = _TOP.match(line)
        if not m:
            return [f"unparseable top-losses line {line!r}"]
        row = row_of_text.get(ast.literal_eval(m.group(5)))
        if row is None:
            return [f"top-losses names a text not in the input: {m.group(5)}"]
        picked.append(row)
        pred = int(ref_probs[row].argmax())
        if abs(float(m.group(1)) - ref_losses[row]) > 5e-5 + 1e-9:
            fails.append(f"row {row}: loss {m.group(1)}, reference {ref_losses[row]:.6f}")
        if int(m.group(2)) != labels[row]:
            fails.append(f"row {row}: target {m.group(2)}, input label {labels[row]}")
        if int(m.group(3)) != pred:
            fails.append(f"row {row}: predicted {m.group(3)}, reference {pred}")
        if abs(float(m.group(4)) - ref_probs[row, pred]) > 5e-5 + 1e-9:
            fails.append(f"row {row}: p {m.group(4)}, reference {ref_probs[row, pred]:.6f}")
    listed = ref_losses[picked]
    if np.any(np.diff(listed) > 1e-9):
        fails.append("top-losses are not in descending order of reference loss")
    rest = np.delete(ref_losses, picked)
    if len(rest) and rest.max() > listed.min() + 1e-9:
        fails.append(f"an unlisted example has reference loss {rest.max():.6f} > "
                     f"listed minimum {listed.min():.6f}")
    return fails
