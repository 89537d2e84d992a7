#!/usr/bin/env python3
"""End-to-end demo: build a corpus, train the toy decoder, convert, extract, sweep.

Everything lands under --workdir; the conversion applies a +0.25 octave
shift and speaking-rate control, the source's features go to FTB files
under out/feat.*, and both sweep CSVs are written.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parent


def run(cmd):
    print("+", " ".join(str(c) for c in cmd))
    subprocess.run([str(c) for c in cmd], check=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    work = Path(args.workdir)
    corpus = work / "corpus"
    ckpt = work / "toy.pfck"
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)

    run([sys.executable, SCRIPTS / "make_demo_data.py", "--out", corpus,
         "--speakers", 2, "--utterances", 3, "--seed", args.seed])
    run([sys.executable, "-m", "prosovc", "train-toy", "--corpus", corpus,
         "--epochs", args.epochs, "--seed", args.seed, "--ckpt", ckpt])

    src, src_align = corpus / "spk0_utt0.wav", corpus / "spk0_utt0.tsv"
    trg = corpus / "spk1_utt0.wav"
    report = out / "report.json"
    run([sys.executable, "-m", "prosovc", "convert", "--src", src, "--trg", trg,
         "--src-align", src_align, "--ckpt", ckpt, "--octave", 0.25, "--rate-control",
         "--out", out / "converted.wav", "--report", report])
    print(json.dumps(json.loads(report.read_text()), indent=2))
    run([sys.executable, "-m", "prosovc", "extract", "--in", src, "--out", out / "feat",
         "--alignment", src_align])

    pairs = work / "pairs.tsv"
    pairs.write_text(f"{src}\t{src_align}\t{trg}\n")
    run([sys.executable, "-m", "prosovc", "sweep", "--pairs", pairs, "--ckpt", ckpt,
         "--mode", "f0", "--out", out / "sweep_f0.csv"])
    run([sys.executable, "-m", "prosovc", "sweep", "--pairs", pairs, "--ckpt", ckpt,
         "--mode", "rate", "--out", out / "sweep_rate.csv"])
    print(f"demo complete; outputs in {out}")


if __name__ == "__main__":
    main()
