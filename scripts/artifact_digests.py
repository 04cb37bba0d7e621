"""Run the fixture pipeline and print a SHA-256 digest of every artifact.

Usage: python3 scripts/artifact_digests.py [--tree CHECKOUT] OUT_DIR

Every command runs in-process through ``ulmkit.cli.main``, which runs BLAS on
one thread, from inside OUT_DIR and with relative paths only, so that the
config snapshots written into the artifacts name the same files from any
checkout. The inputs are copies of ``fixtures/`` and the corpus and
labelled CSV that ``perfbench/gen_inputs.py --seed 0`` generates, each taken
from CHECKOUT, as is the ``ulmkit`` package (``src/ulmkit``) the pipeline
runs; CHECKOUT is by default the checkout this script sits in. The
fixture texts are 6-9 tokens long; the generated ones, 5-62, so the
classifier trained and scored on them at batch 64 (``gen-clf.ckpt``,
``gen-eval.txt``, ``gen-top-losses.txt``) runs windows longer than
``tensor.LSTM_PROJ_ROWS`` rows. ``gen-clf.ckpt``'s head has every hidden
unit dead, so its scores are its output bias alone; ``gen-head-logits.f64``
therefore holds the raw float64 logits that a fresh seed-5 head on
``gen-lm.ckpt``'s encoder gives the generated CSV in eval mode, a head with
most of its units live, so that a change to scoring moves a digest.
``gen-long-logits.f64`` holds that head's logits with each text's tokens
repeated to 400, the classifier's ``train.MAX_LEN``, so that each batch of 64 is scored in
about 50 of the encoder's time chunks. Every model trained here is of the ``tiny``
preset, whose training steps take the float32 path in the LSTM layers and,
for the language model, the tied decoder; so a change to that path's
arithmetic moves every trained checkpoint (``lm.ckpt``, ``lm-ft.ckpt``,
``clf.ckpt``, ``gen-lm.ckpt``, ``gen-clf.ckpt``), while the logs, reports
and scores, printed to 4-6 digits, may keep their digests.

Each line printed is ``sha256  name``. A metrics log is digested with its
seconds column cut, and ``eval``, ``top-losses`` and ``predict`` by their
standard output. To check that a change keeps every artifact byte-identical,
run it once with no ``--tree`` and once with ``--tree`` naming the parent
checkout, each into a fresh directory, and diff the two outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import shutil
import sys

import numpy as np

# (argv, the file its standard output is kept in, or None)
PIPELINE = [
    (["pretrain", "--corpus", "corpus.txt", "--seed", "0", "--epochs", "2",
      "--batch-size", "8", "--bptt", "35", "--out", "lm.ckpt"], None),
    (["finetune-lm", "--checkpoint", "lm.ckpt", "--data", "labeled.csv", "--seed", "3",
      "--dropout-multiplier", "0.7", "--epochs", "2", "--batch-size", "8", "--bptt", "35",
      "--out", "lm-ft.ckpt"], None),
    (["finetune-clf", "--checkpoint", "lm-ft.ckpt", "--data", "labeled.csv",
      "--valid", "labeled.csv", "--seed", "5", "--dropout-multiplier", "0.3",
      "--epochs", "2", "--batch-size", "8", "--out", "clf.ckpt"], None),
    (["eval", "--checkpoint", "clf.ckpt", "--data", "labeled.csv"], "eval.txt"),
    (["top-losses", "--checkpoint", "clf.ckpt", "--data", "labeled.csv", "-k", "5"],
     "top-losses.txt"),
    (["predict", "--checkpoint", "clf.ckpt", "--text", "masarap ang kanin kahapon"],
     "predict.txt"),
    (["degrade", "--checkpoint", "lm.ckpt", "--data", "labeled.csv", "--fractions", "1.0,0.5",
      "--repeats", "2", "--batch-size", "8", "--lm-epochs", "1", "--clf-epochs", "1",
      "--seed", "0", "--out", "degradation.csv"], None),
    (["pretrain", "--corpus", os.path.join("gen", "corpus.txt"), "--seed", "0", "--epochs", "1",
      "--batch-size", "16", "--bptt", "70", "--out", "gen-lm.ckpt"], None),
    (["finetune-clf", "--checkpoint", "gen-lm.ckpt", "--data", os.path.join("gen", "labeled.csv"),
      "--seed", "5", "--epochs", "1", "--batch-size", "64", "--out", "gen-clf.ckpt"], None),
    (["eval", "--checkpoint", "gen-clf.ckpt", "--data", os.path.join("gen", "labeled.csv")],
     "gen-eval.txt"),
    (["top-losses", "--checkpoint", "gen-clf.ckpt", "--data", os.path.join("gen", "labeled.csv"),
      "-k", "5"], "gen-top-losses.txt"),
]


def _digest(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".log":
        lines = data.decode("utf-8").splitlines(keepends=True)
        data = "".join(line if line.startswith("#") else line.rsplit(",", 1)[0] + "\n"
                       for line in lines).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def head_logits(length: int | None = None) -> bytes:
    """The logits of ``TextClassifier(<gen-lm.ckpt's encoder>, seed=5)`` in
    eval mode over the generated CSV, in batches of 64 in file order, which
    is the order it hands ``make_clf_batches``; with ``length``, over each
    text's tokens repeated to that many."""
    from ulmkit.checkpoint import load_checkpoint
    from ulmkit.model import TextClassifier
    from ulmkit.tensor import no_grad
    from ulmkit.textpipe import NumericalizedCorpus, load_labeled_csv, numericalize, preprocess
    from ulmkit.train import make_clf_batches

    ckpt = load_checkpoint("gen-lm.ckpt")
    clf = TextClassifier(ckpt.build_model(), seed=5).eval()
    streams = [numericalize(preprocess(text), ckpt.vocab)
               for text, _ in load_labeled_csv(os.path.join("gen", "labeled.csv"))]
    if length:
        streams = [(s * -(-length // len(s)))[:length] for s in streams]
    batches = make_clf_batches(NumericalizedCorpus(streams), 64, np.arange(len(streams)))
    with no_grad():
        return b"".join(clf.forward(ids, lengths).data.tobytes() for ids, lengths, _ in batches)


def run(tree: pathlib.Path, out_dir: pathlib.Path) -> None:
    """Run the pipeline of ``tree``'s ``ulmkit`` on ``tree``'s inputs in
    ``out_dir`` and print the digests."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gen_inputs
    from ulmkit.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("corpus.txt", "labeled.csv"):
        shutil.copyfile(tree / "fixtures" / name, out_dir / name)
    os.chdir(out_dir)
    gen_inputs.write_inputs(0, "gen")
    for argv, stdout_name in PIPELINE:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"ulmkit {' '.join(argv)} exited {code}")
        if stdout_name:
            pathlib.Path(stdout_name).write_text(captured.getvalue(), encoding="utf-8")
    pathlib.Path("gen-head-logits.f64").write_bytes(head_logits())
    pathlib.Path("gen-long-logits.f64").write_bytes(head_logits(400))
    for path in sorted(out_dir.iterdir()):
        if path.is_file() and path.name not in ("corpus.txt", "labeled.csv"):
            print(f"{_digest(path)}  {path.name}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="the checkout whose ulmkit, generator and fixtures to run "
                             "(default: this script's)")
    parser.add_argument("out_dir", type=pathlib.Path)
    args = parser.parse_args()
    run(args.tree.resolve(), args.out_dir.resolve())
